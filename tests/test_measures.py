import math

import numpy as np
import pytest

from entcorr import measures
from entcorr.bounds import LN2, v
from entcorr.measures import (
    MAX_EF_BASIS,
    _concurrence_eig,
    _coords,
    _face_step,
    _hermitian,
    _max_ef_orbit,
    _orbit_face,
    _orbit_objective,
    _rotate,
    concurrence,
    entanglement_of_formation,
    max_concurrence,
    max_ef_over_spectrum_numeric,
    max_ef_state,
    negativity,
    s22_ef,
)
from entcorr.qcore import (
    DomainError,
    haar_unitary,
    pad_spectrum,
    random_density,
    random_spectrum,
    schmidt,
    shannon_entropy,
    spectrum,
    worker_rng,
)

RNG = worker_rng(60221023)

BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
YY = np.kron(PAULI_Y, PAULI_Y).real  # real in the computational basis


def werner(w):
    return w * np.outer(PSI_MINUS, PSI_MINUS.conj()) + (1 - w) * np.eye(4) / 4


class TestConcurrence:
    def test_bell(self):
        assert abs(concurrence(np.outer(BELL, BELL.conj())) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        assert concurrence(np.eye(4) / 4) == 0.0

    def test_werner_hand_check(self):
        # for the Werner family rho~ = rho, so the mu_i are just the
        # eigenvalues of rho; recompute them independently
        rho = werner(0.8)
        mu = np.sort(np.linalg.eigvalsh(rho))[::-1]
        expected = max(0.0, mu[0] - mu[1] - mu[2] - mu[3])
        assert abs(expected - 0.7) < 1e-12
        assert abs(concurrence(rho) - 0.7) < 1e-12

    def test_werner_ppt_consistency(self):
        for w in np.linspace(0.0, 1.0, 21):
            c = concurrence(werner(w))
            n = negativity(werner(w), (2, 2))
            assert (c > 1e-9) == (n > 1e-9)

    def test_wrong_dimension(self):
        with pytest.raises(DomainError):
            concurrence(np.eye(2) / 2)

    def test_matches_wootters_definition_on_full_rank_states(self):
        # mu_i as square roots of the eigenvalues of rho (Y x Y) rho* (Y x Y)
        rng = worker_rng(22)
        for _ in range(50):
            rho = random_density(4, 4, rng)
            ev = np.linalg.eigvals(rho @ (YY @ rho.conj() @ YY))
            mu = np.sort(np.sqrt(np.clip(ev.real, 0.0, None)))[::-1]
            expected = max(0.0, mu[0] - mu[1] - mu[2] - mu[3])
            assert abs(concurrence(rho) - expected) < 1e-10

    def test_rank_deficient_states_are_exact(self):
        # local unitaries keep the concurrence, so each state sits at the cap;
        # square roots of eigenvalue noise would miss it by about 1e-8
        rng = worker_rng(23)
        for rank in (1, 2, 3):
            for _ in range(30):
                p = random_spectrum(rank, rng)
                local = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
                rho = local @ max_ef_state(p) @ local.conj().T
                assert abs(concurrence(rho) - max_concurrence(p)) <= 1e-14

    def test_eigenform_kernel_at_the_cap_basis(self):
        rng = worker_rng(24)
        for rank in (1, 2, 3, 4):
            for _ in range(30):
                p = random_spectrum(rank, rng)
                cap = max_concurrence(p)
                assert abs(_concurrence_eig(MAX_EF_BASIS, pad_spectrum(p, 4)) - cap) <= 1e-15


class TestEntanglementOfFormation:
    def test_bell_is_ln2(self):
        assert abs(entanglement_of_formation(np.outer(BELL, BELL.conj())) - LN2) < 1e-12

    def test_separable_diagonal(self):
        assert entanglement_of_formation(np.diag([0.4, 0.3, 0.2, 0.1])) == 0.0

    def test_half_concurrence_dual_route(self):
        # pure state with concurrence 1/2: E_f must equal both v(1/2) and
        # the entropy of the Schmidt spectrum
        a = (2.0 + math.sqrt(3.0)) / 4.0
        psi = np.zeros(4, dtype=complex)
        psi[0], psi[3] = math.sqrt(a), math.sqrt(1 - a)
        rho = np.outer(psi, psi.conj())
        assert abs(concurrence(rho) - 0.5) < 1e-12
        ef = entanglement_of_formation(rho)
        assert abs(ef - v(0.5)) < 1e-12
        assert abs(ef - shannon_entropy(schmidt(psi, (2, 2)))) < 1e-12

    def test_local_unitary_invariance(self):
        for _ in range(1000):
            rho = random_density(4, 4, RNG)
            u = np.kron(haar_unitary(2, RNG), haar_unitary(2, RNG))
            assert (
                abs(
                    entanglement_of_formation(u @ rho @ u.conj().T)
                    - entanglement_of_formation(rho)
                )
                < 1e-9
            )

    def test_ppt_iff_separable_two_qubits(self):
        for _ in range(1000):
            rho = random_density(4, 4, RNG)
            ef_zero = entanglement_of_formation(rho) <= 1e-9
            neg_zero = negativity(rho, (2, 2)) <= 1e-9
            assert ef_zero == neg_zero


class TestNegativity:
    def test_product(self):
        rho = np.kron(random_density(2, 2, RNG), random_density(2, 2, RNG))
        assert abs(negativity(rho, (2, 2))) < 1e-12

    def test_bell_partial_transpose_spectrum(self):
        rho = np.outer(BELL, BELL.conj())
        pt = rho.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4)
        w = np.sort(np.linalg.eigvalsh(pt))
        assert np.allclose(w, [-0.5, 0.5, 0.5, 0.5])
        assert abs(negativity(rho, (2, 2)) - 0.5) < 1e-12

    def test_maximally_mixed(self):
        assert abs(negativity(np.eye(4) / 4, (2, 2))) < 1e-12

    def test_never_reads_below_zero(self):
        # unclamped, 74 of these 200 product states read below 0, down to -5.6e-16
        g = worker_rng(1)
        states = [np.kron(random_density(2, 2, g), random_density(3, 3, g)) for _ in range(200)]
        pure = np.kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0, 0.0]))
        for rho in states + [pure]:
            n = negativity(rho, (2, 3))
            assert n >= 0.0 and not np.signbit(n)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            negativity(np.eye(4) / 4, (2, 3))


class TestS22:
    def test_point_mass(self):
        assert abs(s22_ef(np.array([1.0]))) < 1e-15

    def test_uniform(self):
        # argument 1/4 - 1/4 - 2/4 < 0 clamps to zero
        assert abs(s22_ef(np.full(4, 0.25)) - LN2) < 1e-15

    def test_half_half(self):
        assert abs(s22_ef(np.array([0.5, 0.5])) - (LN2 - v(0.5))) < 1e-15
        assert abs(s22_ef(np.array([0.5, 0.5])) - 0.4473718138914741) < 1e-15

    def test_rejects_long_spectrum(self):
        with pytest.raises(DomainError):
            s22_ef(np.full(5, 0.2))

    def test_schur_property_on_comparable_pairs(self):
        # moving eps in (0, p_j) from p_j to p_i, i < j, gives a q that
        # majorizes p, so s22(q) <= s22(p)
        rng = worker_rng(8)
        for _ in range(2000):
            p = random_spectrum(4, rng)
            i, j = np.sort(rng.choice(4, size=2, replace=False))
            q = p.copy()
            eps = rng.uniform(0.0, p[j])
            q[i] += eps
            q[j] -= eps
            q = np.sort(q)[::-1]
            assert np.all(np.cumsum(q) >= np.cumsum(p) - 1e-12)
            assert s22_ef(q) <= s22_ef(p) + 1e-12


class TestMaxEfState:
    def test_point_mass_is_bell(self):
        rho = max_ef_state(np.array([1.0]))
        assert abs(entanglement_of_formation(rho) - LN2) < 1e-12

    def test_uniform_is_maximally_mixed(self):
        rho = max_ef_state(np.full(4, 0.25))
        assert np.allclose(rho, np.eye(4) / 4)
        assert entanglement_of_formation(rho) == 0.0

    def test_sixty_forty(self):
        # cap = p1 - p3 - 2 sqrt(p2 p4) = 0.6 for p = (0.6, 0.4, 0, 0)
        rho = max_ef_state(np.array([0.6, 0.4]))
        assert abs(concurrence(rho) - 0.6) < 1e-12

    def test_spectrum_is_preserved(self):
        for _ in range(50):
            p = random_spectrum(4, RNG)
            assert np.allclose(spectrum(max_ef_state(p)), p, atol=1e-10)

    def test_construction_attains_cap_and_orbit_never_beats_it(self):
        # brute-force oracle for the eigenbasis assignment: random unitary
        # orbit points never exceed the spectral cap, and the frozen basis
        # meets it exactly
        rng = worker_rng(12)
        for _ in range(20):
            p = random_spectrum(4, rng)
            cap = max_concurrence(p)
            assert abs(concurrence(max_ef_state(p)) - cap) < 1e-3
            for _ in range(500):
                u = haar_unitary(4, rng)
                rho = (u * p) @ u.conj().T
                assert concurrence(rho) <= cap + 1e-9


class TestMaxEfNumeric:
    def test_point_mass_reaches_bell(self):
        val = max_ef_over_spectrum_numeric(np.array([1.0]))
        assert abs(val - LN2) < 1e-6

    def test_uniform_orbit_is_trivial(self):
        val = max_ef_over_spectrum_numeric(np.full(4, 0.25))
        assert val == 0.0

    def test_half_half(self):
        val = max_ef_over_spectrum_numeric(np.array([0.5, 0.5]))
        assert abs(val - v(0.5)) < 1e-3

    def test_lemma2_sandwich_small(self, monkeypatch):
        # numeric never exceeds the cap; the construction attains it
        monkeypatch.setattr(measures, "_ORBIT_RESTARTS", 3)
        monkeypatch.setattr(measures, "_ORBIT_ITERS", 200)
        rng = worker_rng(14)
        for i in range(100):
            p = random_spectrum(4, rng)
            bound = LN2 - s22_ef(p)
            numeric = _max_ef_orbit(pad_spectrum(p, 4)[None], [worker_rng(15, i)])[0][0]
            assert numeric <= bound + 1e-6
            assert abs(entanglement_of_formation(max_ef_state(p)) - bound) < 1e-6

    def test_witness_attains_the_value(self, monkeypatch):
        # the witness U re-checks through the public entanglement_of_formation
        monkeypatch.setattr(measures, "_ORBIT_RESTARTS", 3)
        monkeypatch.setattr(measures, "_ORBIT_ITERS", 200)
        rng = worker_rng(20)
        for rank in (4, 3, 2, 1, 4):
            p = random_spectrum(rank, rng)
            q = pad_spectrum(p, 4)
            values, witnesses = _max_ef_orbit(q[None], [worker_rng(0, 0)])
            value, u = values[0], witnesses[0]
            assert value == max_ef_over_spectrum_numeric(p)
            assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
            assert abs(entanglement_of_formation((u * q) @ u.conj().T) - value) <= 1e-12
            assert value <= LN2 - s22_ef(p) + 1e-9

    def test_stacked_points_match_single_calls(self, monkeypatch):
        # chains of one point stop at other steps than those of the others
        monkeypatch.setattr(measures, "_ORBIT_RESTARTS", 3)
        monkeypatch.setattr(measures, "_ORBIT_ITERS", 37)
        rng = worker_rng(25)
        q = np.array([pad_spectrum(random_spectrum(k, rng), 4) for k in (4, 2, 3, 1)])
        rngs = [worker_rng(26, i) for i in range(len(q))]
        values, witnesses = _max_ef_orbit(q, rngs)
        for i, row in enumerate(q):
            single_rng = worker_rng(26, i)
            value, witness = _max_ef_orbit(row[None], [single_rng])
            assert values[i] == value[0]
            assert np.array_equal(witnesses[i], witness[0])
            assert rngs[i].bit_generator.state == single_rng.bit_generator.state

    def test_reaches_the_cap_on_random_spectra(self):
        rng = worker_rng(27)
        misses = []
        for i in range(12):
            p = random_spectrum(1 + i % 4, rng)
            value = _max_ef_orbit(pad_spectrum(p, 4)[None], [worker_rng(28, i)])[0][0]
            misses.append(LN2 - s22_ef(p) - value)
        assert min(misses) >= -1e-13  # errs low, up to rounding
        assert max(misses) <= 1e-4

    def test_rank3_stall_is_the_only_miss(self):
        # One spectrum, i = 18 (p ~ (0.5349, 0.2342, 0.2310)), crept toward
        # the kink of F at mu3 = mu4 = 0 and missed the cap by 1.98e-6
        # after 300 steps; every other one came within 1e-10 of it. With
        # the face step every miss is rounding (test_kinked_spectra_reach_the_cap).
        rng = worker_rng(7)
        spectra = [random_spectrum(1 + i % 4, rng) for i in range(86)]
        q = np.array([pad_spectrum(p, 4) for p in spectra])
        values, _ = _max_ef_orbit(q, [worker_rng(8, i) for i in range(86)])
        misses = np.array([LN2 - s22_ef(p) for p in spectra]) - values
        assert misses.min() >= -1e-13  # errs low, up to rounding
        assert misses[18] <= 2e-6
        assert np.delete(misses, 18).max() <= 1e-10

    def test_kernel_calls_on_a_tightness_point(self, monkeypatch):
        # the middle point of tightness --grid 3 at seed 0: 196 calls while
        # a line search ran to its 40 halvings, 151 with the stop at F's
        # rounding resolution, 15 once rank-2 chains stepped onto the face
        # mu2 = 0, and 14 since the generator coordinates are taken by index
        kernel, calls = measures._orbit_objective, []

        def counted(u, q):
            calls.append(len(u))
            return kernel(u, q)

        monkeypatch.setattr(measures, "_orbit_objective", counted)
        _max_ef_orbit(np.array([[0.8125, 0.1875, 0.0, 0.0]]), [worker_rng(0, 2)])
        assert len(calls) == 14

    @pytest.mark.parametrize("rank, count, seed", [(2, 200, 41), (3, 100, 45)])
    def test_kinked_spectra_reach_the_cap(self, rank, count, seed):
        # The face step at the default budget. Before it, about half of the
        # rank-3 spectra missed by more than 1e-13. None of them has its two
        # largest eigenvalues within 1e-3, where the face is nearly flat and
        # every chain can end near the point that pairs the second with the
        # third (rank-3 misses up to 1.1e-4 were seen there).
        rng = worker_rng(seed)
        spectra = [random_spectrum(rank, rng) for _ in range(count)]
        q = np.array([pad_spectrum(p, 4) for p in spectra])
        values, _ = _max_ef_orbit(q, [worker_rng(seed + 1, i) for i in range(count)])
        misses = np.array([LN2 - s22_ef(p) for p in spectra]) - values
        assert misses.min() >= -1e-13  # errs low, up to rounding
        assert misses.max() <= 1e-13

    def test_no_steps_evaluates_the_starts(self, monkeypatch):
        monkeypatch.setattr(measures, "_ORBIT_RESTARTS", 1)
        monkeypatch.setattr(measures, "_ORBIT_ITERS", 0)
        p = random_spectrum(4, worker_rng(29))
        q = pad_spectrum(p, 4)
        value, witness = _max_ef_orbit(q[None], [worker_rng(30)])
        assert np.array_equal(witness[0], np.eye(4))
        assert value[0] == v(_concurrence_eig(np.eye(4, dtype=complex), q))


class TestOrbitGradient:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_matches_central_differences(self, rank):
        # F along exp(i t E_j) U, E_j the orthonormal Hermitian basis
        rng = worker_rng(31, rank)
        h = 1e-6
        for _ in range(10):
            q = pad_spectrum(random_spectrum(rank, rng), 4)
            u = haar_unitary(4, rng)
            f, grad, _ = _orbit_objective(u, q)
            b = np.sqrt(q)[:, None] * (u.T @ YY @ u) * np.sqrt(q)
            mu = np.linalg.svd(b, compute_uv=False)
            assert abs(f - (mu[0] - mu[1] - mu[2] - mu[3])) <= 1e-14  # unclipped
            numeric = np.empty(16)
            for j in range(16):
                e = np.zeros(16)
                e[j] = h
                up = _orbit_objective(_rotate(u, e), q)[0]
                down = _orbit_objective(_rotate(u, -e), q)[0]
                numeric[j] = (up - down) / (2.0 * h)
            assert np.linalg.norm(numeric - grad) <= 1e-6 * np.linalg.norm(grad)

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_face_jacobian_matches_central_differences(self, rank):
        # J holds Re and Im of a_r^dagger B v_r along exp(i t E_j) U, with
        # the singular vectors a_r, v_r of mu_r held at U, r = min(rank, 3)
        rng = worker_rng(33, rank)
        h = 1e-6
        for _ in range(10):
            q = pad_spectrum(random_spectrum(rank, rng), 4)
            u = haar_unitary(4, rng)

            def b(w):
                return np.sqrt(q)[:, None] * (w.T @ YY @ w) * np.sqrt(q)

            a, mu, vh = np.linalg.svd(b(u))
            k = min(rank, 3) - 1
            mu_face, jac = _orbit_face(_orbit_objective(u, q)[2], k)
            assert np.allclose(mu_face, mu, atol=1e-15)
            numeric = np.empty(16, dtype=complex)
            for j in range(16):
                e = np.zeros(16)
                e[j] = h
                up = a[:, k].conj() @ b(_rotate(u, e)) @ vh[k].conj()
                down = a[:, k].conj() @ b(_rotate(u, -e)) @ vh[k].conj()
                numeric[j] = (up - down) / (2.0 * h)
            scale = np.linalg.norm(jac)
            assert np.linalg.norm(numeric.real - jac[0]) <= 1e-6 * scale
            assert np.linalg.norm(numeric.imag - jac[1]) <= 1e-6 * scale

    def test_face_step_takes_every_rank(self):
        # rows of rank 1 and 4 have no face and pass through unchanged; rows
        # of rank 2 and 3 get what a call on them alone gives, both on the
        # face (the ends of ascents) and off it (Haar points)
        rng = worker_rng(36)
        ranks = np.tile([1, 2, 3, 4], 2)
        q = np.array([pad_spectrum(random_spectrum(r, rng), 4) for r in ranks])
        ends = _max_ef_orbit(q[:4], [worker_rng(37, i) for i in range(4)])[1]
        u = np.concatenate([ends, [haar_unitary(4, rng) for _ in range(4)]])
        _, g, vectors = _orbit_objective(u, q)
        on, g_face, lift, jac, jp, mu_r = out = _face_step(vectors, q, g)
        flat = (ranks == 1) | (ranks == 4)
        assert not on[flat].any()
        assert not jac[flat].any() and not jp[flat].any() and not lift[flat].any()
        assert g_face[flat].tobytes() == g[flat].tobytes()
        assert np.all(mu_r[flat] == np.inf)
        kinked = np.flatnonzero(~flat)
        assert on[kinked].any() and not on[kinked].all()
        alone = _face_step([a[kinked] for a in vectors], q[kinked], g[kinked])
        for got, want in zip(out, alone):
            assert np.array_equal(got[kinked], want)

    def test_lone_rows_round_as_in_a_stack(self):
        # the coordinate maps act elementwise, so a lone matrix or row maps
        # to the same bits as it does in a stack
        rng = worker_rng(34)
        g = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
        h = rng.standard_normal((5, 16))
        for i in range(5):
            assert np.array_equal(_coords(g[i]), _coords(g)[i])
            assert np.array_equal(_hermitian(h[i]), _hermitian(h)[i])

    def test_coordinates_are_c_ordered(self):
        # numpy multiplies a strided stack by its own loop, which rounds
        # unlike BLAS, so a strided gradient or Jacobian would break the rule
        # that a lone chain takes the bits it takes in a stack
        g = worker_rng(35).standard_normal((5, 2, 4, 4)) + 0j
        assert _coords(g).flags.c_contiguous
        assert _hermitian(_coords(g)).flags.c_contiguous

    def test_basis_is_orthonormal(self):
        basis = _hermitian(np.eye(16))
        assert np.allclose(basis, basis.conj().swapaxes(-1, -2))
        gram = np.einsum("iab,jba->ij", basis, basis)
        assert np.allclose(gram, np.eye(16), atol=1e-15)
        g = _hermitian(worker_rng(32).standard_normal(16))
        assert np.allclose(_hermitian(_coords(g)), g, atol=1e-15)


class TestSeparabilityConditions:
    # At 2 x 2 every state with spectrum p is separable (p is absolutely
    # separable) iff p1 <= p3 + 2 sqrt(p2 p4), that is iff the concurrence
    # cap vanishes; the purity ball sum p^2 <= 1/3 lies inside that set.
    def test_zhsl_uniform(self):
        assert max_concurrence(np.full(4, 0.25)) == 0.0  # purity 1/4 <= 1/3

    def test_zhsl_pure(self):
        assert max_concurrence(np.array([1.0])) == 1.0

    def test_abs_sep_examples(self):
        assert max_concurrence(np.array([0.4, 0.3, 0.2, 0.1])) == 0.0
        assert max_concurrence(np.array([0.9, 0.1])) > 0.0

    def test_abs_sep_matches_cap(self):
        for _ in range(200):
            p = random_spectrum(4, RNG)
            separable = p[0] <= p[2] + 2.0 * math.sqrt(p[1] * p[3])
            assert separable == (max_concurrence(p) <= 0.0)

    def test_separable_spectra_have_zero_numeric_max(self, monkeypatch):
        # on absolutely separable spectra the orbit search finds no entanglement
        monkeypatch.setattr(measures, "_ORBIT_RESTARTS", 2)
        monkeypatch.setattr(measures, "_ORBIT_ITERS", 100)
        rng = worker_rng(16)
        found = 0
        i = 0
        while found < 50:
            i += 1
            p = random_spectrum(4, rng)
            if max_concurrence(p) != 0.0:
                continue
            found += 1
            val = _max_ef_orbit(pad_spectrum(p, 4)[None], [worker_rng(17, i)])[0][0]
            assert val <= 1e-6

    def test_zhsl_within_abs_sep_at_2x2(self):
        for _ in range(500):
            p = random_spectrum(4, RNG)
            if (p * p).sum() <= 1.0 / 3.0:
                assert max_concurrence(p) == 0.0
