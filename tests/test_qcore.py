import numpy as np
import pytest

from entcorr.bounds import optimal_slice_spectrum
from entcorr.correlations import c_distance_numeric, f_value, mutual_information
from entcorr.measures import max_concurrence, negativity
from entcorr.qcore import (
    CapacityError,
    DomainError,
    _strictly_correlated_cc,
    bures_distance,
    haar_pure,
    haar_unitary,
    hellinger_distance,
    matrix_sqrt_psd,
    partial_trace,
    projector,
    purify,
    random_density,
    random_spectrum,
    schmidt,
    shannon_entropy,
    spectrum,
    strictly_correlated_cc,
    validate_density_matrix,
    validate_density_stack,
    validate_spectrum,
    von_neumann_entropy,
    worker_rng,
    worker_seed,
)

RNG = worker_rng(20240601)

BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)


def random_state(dim, rng, ancilla=None):
    return random_density(dim, ancilla or dim, rng)


class TestSpectrum:
    def test_maximally_mixed(self):
        assert np.allclose(spectrum(np.eye(4) / 4), np.full(4, 0.25))

    def test_pure_projector(self):
        assert np.allclose(spectrum(projector(BELL)), [1.0])

    def test_diagonal(self):
        assert np.allclose(spectrum(np.diag([0.6, 0.4])), [0.6, 0.4])

    def test_unitary_invariance(self):
        for _ in range(10):
            rho = random_state(5, RNG)
            u = haar_unitary(5, RNG)
            p = spectrum(rho)
            q = spectrum(u @ rho @ u.conj().T)
            n = min(p.size, q.size)
            assert np.max(np.abs(p[:n] - q[:n])) < 1e-10


class TestPartialTrace:
    def test_bell_marginal(self):
        red = partial_trace(projector(BELL), (2, 2), keep=1)
        assert np.allclose(red, np.eye(2) / 2)

    def test_product_factorization(self):
        rho_a = random_state(2, RNG)
        rho_b = random_state(3, RNG)
        rho = np.kron(rho_a, rho_b)
        assert np.max(np.abs(partial_trace(rho, (2, 3), keep=1) - rho_a)) < 1e-12
        assert np.max(np.abs(partial_trace(rho, (2, 3), keep=2) - rho_b)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            partial_trace(np.eye(4) / 4, (2, 3), keep=1)


class TestPurify:
    def test_uniform_qubit_gives_bell_coefficients(self):
        psi = purify(np.eye(2) / 2)
        assert np.allclose(schmidt(psi, (2, 2)), [0.5, 0.5])

    def test_pure_input_stays_product(self):
        psi = purify(projector(haar_pure(3, RNG)))
        assert psi.size == 3  # rank-one ancilla
        assert np.allclose(schmidt(psi, (3, 1)), [1.0])

    def test_spectrum_square_root(self):
        psi = purify(np.diag([0.9, 0.1]))
        s = np.linalg.svd(psi.reshape(2, 2), compute_uv=False)
        assert np.allclose(np.sort(s)[::-1], np.sqrt([0.9, 0.1]))

    def test_round_trip(self):
        for dim in (2, 3, 5, 8):
            rho = random_state(dim, RNG)
            psi = purify(rho)
            rank = psi.size // dim
            back = partial_trace(projector(psi), (dim, rank), keep=1)
            assert np.max(np.abs(back - rho)) < 1e-10


class TestSchmidt:
    def test_product(self):
        psi = np.kron(haar_pure(2, RNG), haar_pure(3, RNG))
        assert np.allclose(schmidt(psi, (2, 3)), [1.0])

    def test_bell(self):
        assert np.allclose(schmidt(BELL, (2, 2)), [0.5, 0.5])

    def test_explicit_form(self):
        psi = np.zeros(4, dtype=complex)
        psi[0], psi[3] = np.sqrt(0.8), np.sqrt(0.2)
        assert np.allclose(schmidt(psi, (2, 2)), [0.8, 0.2])

    def test_matches_reduced_spectrum(self):
        for _ in range(10):
            psi = haar_pure(12, RNG)
            p = schmidt(psi, (3, 4))
            q = spectrum(partial_trace(projector(psi), (3, 4), keep=1))
            n = min(p.size, q.size)
            assert np.max(np.abs(p[:n] - q[:n])) < 1e-10


class TestEntropies:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(projector(BELL)) == 0.0

    def test_maximally_mixed(self):
        assert abs(von_neumann_entropy(np.eye(4) / 4) - np.log(4)) < 1e-12

    def test_half_half(self):
        assert abs(von_neumann_entropy(np.diag([0.5, 0.5])) - np.log(2)) < 1e-12

    def test_shannon_uniform(self):
        assert abs(shannon_entropy(np.full(4, 0.25)) - np.log(4)) < 1e-12
        with pytest.raises(DomainError):  # a spectrum carries no zero component
            validate_spectrum(np.array([0.5, 0.5, 0.0]))


class TestDistances:
    def test_self_distance_zero(self):
        rho = random_state(4, RNG)
        assert bures_distance(rho, rho) < 1e-7
        assert hellinger_distance(rho, rho) < 1e-7

    def test_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert abs(hellinger_distance(a, b) - np.sqrt(2)) < 1e-12
        assert abs(bures_distance(a, b) - np.sqrt(2)) < 1e-12

    def test_commuting_pair_hand_value(self):
        val = bures_distance(np.eye(2) / 2, np.diag([1.0, 0.0]))
        assert abs(val - np.sqrt(2 - 2 * np.sqrt(0.5))) < 1e-12

    def test_commuting_closed_form(self):
        # on diagonal pairs both distances reduce to sqrt(2 - 2 sum sqrt(a_i b_i))
        for _ in range(20):
            a = random_spectrum(4, RNG)
            b = random_spectrum(4, RNG)
            expected = np.sqrt(2 - 2 * np.sum(np.sqrt(a * b)))
            assert abs(bures_distance(np.diag(a), np.diag(b)) - expected) < 1e-10
            assert abs(hellinger_distance(np.diag(a), np.diag(b)) - expected) < 1e-10

    def test_symmetry_and_range(self):
        for _ in range(10):
            rho = random_state(3, RNG)
            sig = random_state(3, RNG)
            for dist in (bures_distance, hellinger_distance):
                d1, d2 = dist(rho, sig), dist(sig, rho)
                assert abs(d1 - d2) < 1e-9
                assert 0.0 <= d1 <= np.sqrt(2) + 1e-12

    def test_self_distance_vanishes_to_rounding(self):
        # both distances are norms of a difference of square roots, so
        # rho against itself cancels exactly instead of through sqrt(2 - 2a)
        rng = worker_rng(90)
        for i in range(100):
            dim = (9, 16)[i % 2]
            rho = random_density(dim, 1 + i % dim, rng)
            assert bures_distance(rho, rho) <= 1e-13
            assert hellinger_distance(rho, rho) <= 1e-13

    def test_matrix_sqrt(self):
        rho = random_state(5, RNG)
        root = matrix_sqrt_psd(rho)
        assert np.max(np.abs(root @ root - rho)) < 1e-10


class TestStackValidators:
    def test_density_stack_rejects_any_bad_member(self):
        rng = worker_rng(31)
        good = np.stack([random_state(4, rng) for _ in range(3)])
        assert validate_density_stack(good) is not None
        scaled = good.copy()
        scaled[1] *= 1.1
        skewed = good.copy()
        skewed[2, 0, 1] += 1e-6
        negative = good.copy()
        negative[0] = np.diag([1.1, 0.0, 0.0, -0.1])
        for bad in (scaled, skewed, negative, good[..., :3]):
            with pytest.raises(DomainError):
                validate_density_stack(bad)

    def test_accepts_transposed_views(self):
        rho = random_state(4, worker_rng(32))
        assert np.array_equal(validate_density_matrix(rho.T)[0], rho.T)
        stack = np.stack([rho, rho.conj()])
        assert validate_density_stack(stack.swapaxes(-1, -2)) is not None


class TestNaNInputs:
    # NaN fails every comparison, so each check is written to fail on it
    @pytest.mark.parametrize("call", [
        lambda: shannon_entropy([np.nan]),
        lambda: max_concurrence([np.nan, 0.5]),
        lambda: f_value("bures", [0.6, 0.4, np.nan]),
        lambda: strictly_correlated_cc([0.5, np.nan], 2, 2),
        lambda: validate_spectrum(np.array([0.5, np.nan, 0.5])),
    ], ids=["shannon", "max_concurrence", "f_db", "cc_state", "validate_spectrum"])
    def test_raises_domain_error(self, call):
        with pytest.raises(DomainError):
            call()


class TestRandomness:
    def test_haar_pure_dim_one(self):
        psi = haar_pure(1, RNG)
        assert psi.shape == (1,)
        assert abs(abs(psi[0]) - 1.0) < 1e-12

    @pytest.mark.parametrize("dim", [0, -1])
    def test_haar_unitary_rejects_dim_below_one(self, dim):
        with pytest.raises(DomainError):
            haar_unitary(dim, worker_rng(0))

    def test_mean_purity_of_induced_measure(self):
        # E[tr rho^2] = (m + k) / (m k + 1) for the partial trace of a Haar
        # pure state on m x k; for (2, 2) that is 4/5.
        rng = worker_rng(5150)
        n = 30_000
        total = 0.0
        for _ in range(n):
            rho = random_density(2, 2, rng)
            total += np.trace(rho @ rho).real
        assert abs(total / n - 0.8) < 0.01

    def test_random_spectrum_contract(self):
        rng = worker_rng(77)
        for _ in range(100_000):
            p = random_spectrum(4, rng)
            assert p[0] >= p[1] >= p[2] >= p[3] > 0
            assert abs(p.sum() - 1.0) < 1e-12

    def test_worker_streams_distinct_and_reproducible(self):
        a = worker_rng(123, 0).standard_normal(4)
        b = worker_rng(123, 0).standard_normal(4)
        c = worker_rng(123, 1).standard_normal(4)
        assert np.allclose(a, b)
        assert not np.allclose(a, c)
        assert worker_seed(123, 0) != worker_seed(123, 1) != worker_seed(124, 1)


class TestConstructors:
    def test_split_validation(self):
        with pytest.raises(DomainError):
            partial_trace(np.eye(2) / 2, (0, 2), keep=1)
        assert partial_trace(np.eye(16) / 16, (2, 8), keep=2).shape == (8, 8)

    @pytest.mark.parametrize("call", [
        lambda: partial_trace(np.eye(4) / 4, (2.5, 2), 1),
        lambda: schmidt(BELL, (2.9, 2.2)),
        lambda: mutual_information(np.eye(4) / 4, (2, 2.0)),
        lambda: negativity(np.eye(4) / 4, (np.float64(2.0), 2)),
        lambda: c_distance_numeric(np.eye(4) / 4, (2.5, 2), "hellinger"),
    ], ids=["partial_trace", "schmidt", "mutual_information", "negativity", "c_distance_numeric"])
    def test_non_integer_split_is_rejected(self, call):
        with pytest.raises(DomainError):
            call()

    def test_cc_state_is_diagonal(self):
        rho = strictly_correlated_cc(np.array([0.5, 0.3, 0.2]), 3, 4)
        assert rho.shape == (12, 12)
        assert np.array_equal(np.diag(rho).real[[0, 5, 10]], [0.5, 0.3, 0.2])
        assert np.array_equal(rho, np.diag(np.diag(rho)))
        assert np.trace(rho).real == 1.0

    def test_strictly_correlated_product_case(self):
        rho = strictly_correlated_cc(np.array([1.0]), 2, 2)
        assert np.allclose(rho, np.diag([1.0, 0.0, 0.0, 0.0]))

    def test_strictly_correlated_marginal(self):
        p = np.array([0.5, 0.3, 0.2])
        rho = strictly_correlated_cc(p, 3, 3)
        assert np.allclose(spectrum(partial_trace(rho, (3, 3), keep=1)), p)

    def test_stacked_cc_kernel_matches_the_front(self):
        q = optimal_slice_spectrum("bures", np.linspace(0.0, 1.0, 7))  # padded with zeros
        stack = _strictly_correlated_cc(q, 4, 4)
        assert stack.shape == (7, 16, 16)
        for p, state in zip(q, stack):
            assert np.array_equal(state, strictly_correlated_cc(p[p > 0.0], 4, 4))

    def test_strictly_correlated_capacity(self):
        with pytest.raises(CapacityError):
            strictly_correlated_cc(np.array([0.5, 0.3, 0.2]), 2, 4)
