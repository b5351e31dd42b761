import hashlib
import math

import numpy as np
import pytest

from entcorr import cli, correlations, qcore
from entcorr.bounds import xi_ef, zeta_ef
from entcorr.correlations import (
    KINDS,
    MonotoneKind,
    c_distance_numeric,
    c_max,
    c_on_pure,
    f_value,
    mutual_information,
)
from entcorr.measures import concurrence, entanglement_of_formation
from entcorr.qcore import (
    TOL_SUPPORT,
    DomainError,
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
    spectrum,
    strictly_correlated_cc,
    validate_density_matrix,
    von_neumann_entropy,
    worker_rng,
)

RNG = worker_rng(271828)

BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)


def _f_tilde(kind, p):
    """Correlation of the strictly correlated CC state with spectrum p."""
    cc_kind, scale = KINDS[kind].cc
    return f_value(cc_kind, p) / scale


class TestMutualInformation:
    def test_product_state(self):
        rho = np.kron(random_density(2, 2, RNG), random_density(3, 3, RNG))
        assert mutual_information(rho, (2, 3)) < 1e-10

    def test_bell(self):
        assert abs(mutual_information(projector(BELL), (2, 2)) - 2 * math.log(2)) < 1e-12

    def test_strictly_correlated_cc(self):
        # classical joint distribution p_ij = p_i delta_ij: S(A) = S(B) =
        # S(AB) = h(p), so I = h(p)
        rho = strictly_correlated_cc(np.array([0.5, 0.5]), 2, 2)
        assert abs(mutual_information(rho, (2, 2)) - math.log(2)) < 1e-12

    def test_pure_states_give_twice_entropy(self):
        for _ in range(20):
            psi = haar_pure(8, RNG)
            lam = schmidt(psi, (2, 4))
            expected = -2.0 * float((lam * np.log(lam)).sum())
            assert abs(mutual_information(projector(psi), (2, 4)) - expected) < 1e-9


class TestSpectralFunctions:
    def test_point_mass_vanishes(self):
        one = np.array([1.0])
        for kind in MonotoneKind:
            assert f_value(kind, one) == 0.0

    def test_hand_values(self):
        # the closed forms sqrt(2 (1 - sqrt(p1))), sqrt(2 (1 - p1)) and 2 H(p)
        assert abs(f_value("bures", np.array([0.5, 0.5])) - math.sqrt(2 - math.sqrt(2))) < 1e-15
        assert abs(f_value("hellinger", np.full(4, 0.25)) - math.sqrt(1.5)) < 1e-15
        assert abs(f_value("bures", np.full(4, 0.25)) - 1.0) < 1e-15
        assert abs(f_value("mutual_information", np.full(4, 0.25)) - 2 * math.log(4)) < 1e-15

    def test_no_cancellation_next_to_the_point_mass(self):
        # sqrt(2 - 2 p1) would carry the rounding of p1 = 1 - eps, a relative
        # error of 4e-8 at eps = 1e-10 and 4e-4 at eps = 1e-14. The references:
        # sqrt(2 eps), and for Bures the series 2 (1 - sqrt(1 - eps)) =
        # eps (1 + eps / 4 + O(eps^2))
        for eps in (1e-10, 1e-14):
            p = np.array([1.0 - eps, eps])
            for kind, want in (
                ("hellinger", math.sqrt(2.0 * eps)),
                ("bures", math.sqrt(eps * (1.0 + eps / 4.0))),
            ):
                assert abs(f_value(kind, p) - want) <= 1e-12 * want

    def test_f_tilde_relations(self):
        # the CC correlation f~(p) = f_cc_kind(p) / scale is the Bures f for
        # the Hellinger measure and half the pure-state f, H(p), for the
        # mutual information
        for _ in range(100):
            p = random_spectrum(4, RNG)
            assert _f_tilde("hellinger", p) == f_value("bures", p)
            mi = f_value("mutual_information", p)
            assert abs(_f_tilde("mutual_information", p) - 0.5 * mi) < 1e-15

    def test_f_tilde_bures_unavailable(self):
        # no closed form is known for the Bures CC correlation
        assert KINDS["bures"].cc is None
        with pytest.raises(DomainError):
            zeta_ef("bures", 0.5)

    def test_f_tilde_below_f(self):
        # the CC correlation f~(p) = f_cc_kind(p) / scale of a strictly
        # correlated CC state is at most the f of a pure state with the same
        # marginal spectrum: the Bures f <= the Hellinger f since
        # sqrt(p1) >= p1, and H <= 2 H
        rows = [row for row in KINDS.values() if row.cc is not None]
        for _ in range(10_000):
            p = random_spectrum(4, RNG)
            for row in rows:
                assert _f_tilde(row.name, p) <= f_value(row.name, p) + 1e-15

    def test_uniform_is_unique_maximizer(self):
        for kind in MonotoneKind:
            top = c_max(kind, 4)
            for _ in range(500):
                p = random_spectrum(4, RNG)
                if abs(p[0] - 0.25) > 1e-6:
                    assert f_value(kind, p) < top

    def test_c_max_values(self):
        # the CLI output bytes depend on these values
        assert c_max("bures", 4) == 1.0
        assert c_max("hellinger", 4) == math.sqrt(1.5)
        assert c_max("mutual_information", 4) == 2 * math.log(4)
        for kind in MonotoneKind:  # +0.0, not the -0.0 of -2 * 0 ln 1
            assert math.copysign(1.0, c_max(kind, 1)) == 1.0 and c_max(kind, 1) == 0.0

    def test_c_max_rejects_a_non_integer_size(self):
        with pytest.raises(DomainError):
            c_max("hellinger", 2.5)
        assert c_max("hellinger", np.int64(4)) == math.sqrt(1.5)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            f_value("fidelity", np.array([1.0]))


class TestCOnPure:
    def test_product(self):
        psi = np.kron(haar_pure(2, RNG), haar_pure(2, RNG))
        for kind in MonotoneKind:
            assert c_on_pure(psi, (2, 2), kind) < 1e-6

    def test_bell_values(self):
        assert abs(c_on_pure(BELL, (2, 2), "mutual_information") - 2 * math.log(2)) < 1e-12
        assert abs(c_on_pure(BELL, (2, 2), "bures") - math.sqrt(2 - math.sqrt(2))) < 1e-12

    def test_local_unitary_invariance(self):
        for _ in range(1000):
            psi = haar_pure(8, RNG)
            u = np.kron(haar_unitary(2, RNG), haar_unitary(4, RNG))
            for kind in ("bures", "hellinger"):
                assert (
                    abs(c_on_pure(u @ psi, (2, 4), kind) - c_on_pure(psi, (2, 4), kind))
                    < 1e-9
                )


class TestCDistanceNumeric:
    def test_product_state_reaches_zero(self):
        rho = np.kron(random_density(2, 2, RNG), random_density(2, 2, RNG))
        for kind in ("bures", "hellinger"):
            val = c_distance_numeric(rho, (2, 2), kind, restarts=2, rng=worker_rng(3, 1))
            assert val < 1e-6

    def test_exact_distances_of_product_targets_do_not_cancel(self):
        # sqrt(2 - 2 s1) read up to 4.7e-8 here, with s1 a few ulps below 1
        zero = np.eye(4)[0]
        pure = np.kron(projector(BELL), np.outer(zero, zero))
        for kind in ("bures", "hellinger"):
            assert c_distance_numeric(pure, (4, 4), kind) <= 1e-14
        rng = worker_rng(5)
        for _ in range(20):
            mixed = np.kron(random_density(4, 4, rng), random_density(4, 4, rng))
            assert c_distance_numeric(mixed, (4, 4), "hellinger") <= 1e-14

    def test_pure_states_match_closed_form(self):
        for i in range(10):
            psi = haar_pure(8, RNG)
            rho = projector(psi)
            for kind in ("bures", "hellinger"):
                exact = c_on_pure(psi, (4, 2), kind)
                num = c_distance_numeric(rho, (4, 2), kind, restarts=3, rng=worker_rng(5, i))
                assert abs(num - exact) <= 1e-12

    def test_strictly_correlated_cc_matches_f_db(self):
        # the five module-RNG spectra keep the stream of the other tests as
        # it was; the 200 of the own stream include near-ties p1 ~ p2
        own = worker_rng(11)
        spectra = [random_spectrum(4, RNG) for _ in range(5)]
        spectra += [random_spectrum(4, own) for _ in range(200)]
        for i, p in enumerate(spectra):
            rho = strictly_correlated_cc(p, 4, 4)
            num = c_distance_numeric(rho, (4, 4), "hellinger", restarts=4, rng=worker_rng(6, i))
            assert abs(num - f_value("bures", p)) < 1e-12

    def test_monotone_under_discarding(self):
        # tracing out part of B is a local operation, so the correlation of
        # the reduced state cannot exceed the pure-state value
        for i in range(100):
            psi = haar_pure(16, RNG)
            rho_ab1 = partial_trace(projector(psi), (8, 2), keep=1)
            for kind, budget in (
                ("bures", dict(restarts=4)),
                ("hellinger", dict(restarts=2)),
            ):
                full = c_on_pure(psi, (4, 4), kind)
                num = c_distance_numeric(
                    rho_ab1, (4, 2), kind, rng=worker_rng(31, i), **budget
                )
                assert num <= full + 1e-3

    def test_hellinger_with_the_smaller_factor_first(self):
        # swapping the factors of rho leaves its distance to the product
        # states unchanged; d_A < d_B used to fail on the SVD's shapes
        for rank in (1, 3, 8):
            rho = random_density(8, rank, worker_rng(47, rank))
            swapped = rho.reshape(4, 2, 4, 2).transpose(1, 0, 3, 2).reshape(8, 8)
            want = c_distance_numeric(rho, (4, 2), "hellinger")
            assert abs(c_distance_numeric(swapped, (2, 4), "hellinger") - want) <= 1e-14

    def test_witness_attains_the_value(self):
        # fixed rng streams, so the module RNG stream of the other tests is untouched
        def rotated(p, rng):
            u = np.kron(haar_unitary(4, rng), haar_unitary(4, rng))
            return u @ strictly_correlated_cc(p, 4, 4) @ u.conj().T

        cc = strictly_correlated_cc(np.array([0.4, 0.3, 0.2, 0.1]), 4, 4)
        psi = haar_pure(16, worker_rng(41))
        mixed = partial_trace(projector(psi), (8, 2), keep=1)
        pure = projector(haar_pure(16, worker_rng(42)))
        rows = [
            (cc, (4, 4), "hellinger"),
            (mixed, (4, 2), "bures"),
            (pure, (4, 4), "hellinger"),
            (pure, (4, 4), "bures"),
            (rotated(np.full(4, 0.25), worker_rng(43)), (4, 4), "hellinger"),
            (rotated(np.array([0.5, 0.5]), worker_rng(44)), (4, 4), "hellinger"),
        ]
        rows += [
            (random_density(8, rank, worker_rng(45, rank)), (4, 2), "hellinger")
            for rank in range(2, 9)
        ]
        distances = {"bures": bures_distance, "hellinger": hellinger_distance}
        for rho, split, kind in rows:
            value, sigma_a, sigma_b = KINDS[kind].closest(
                *validate_density_matrix(rho), *split, 4, worker_rng(7))
            assert value == c_distance_numeric(rho, split, kind, restarts=4, rng=worker_rng(7))
            validate_density_matrix(sigma_a)
            validate_density_matrix(sigma_b)
            assert abs(distances[kind](rho, np.kron(sigma_a, sigma_b)) - value) <= 1e-12

    def test_hellinger_value_holds_on_the_support(self):
        # rank-2 targets: rounding-level eigenvalues of rho must not enter
        # its square root, so the value is the distance of its witness
        # evaluated with rho restricted to its support
        def root(m, rank):
            w, vmat = np.linalg.eigh(m)
            w, vmat = np.clip(w[-rank:], 0.0, None), vmat[:, -rank:]
            return (vmat * np.sqrt(w)) @ vmat.conj().T

        rng = worker_rng(61)
        closest = KINDS["hellinger"].closest
        for i in range(20):
            rho = random_density(8, 2, rng)
            value, sigma_a, sigma_b = closest(
                *validate_density_matrix(rho), 4, 2, 4, worker_rng(62, i))
            aff = np.trace(root(rho, 2) @ np.kron(root(sigma_a, 4), root(sigma_b, 2))).real
            assert abs(math.sqrt(max(0.0, 2.0 - 2.0 * aff)) - value) <= 1e-12

    def test_rejects_no_restarts(self):
        with pytest.raises(DomainError):
            c_distance_numeric(np.eye(4) / 4, (2, 2), "hellinger", restarts=0)

    def test_rejects_mutual_information(self):
        with pytest.raises(DomainError):
            c_distance_numeric(np.eye(4) / 4, (2, 2), "mutual_information")

    def test_rejects_large_dimension(self):
        with pytest.raises(DomainError):
            c_distance_numeric(np.eye(128) / 128, (8, 16), "hellinger")


def sequential_bures_closest(rho, d_a, d_b, restarts, rng):
    """The Bures ascent on a mixed target as one restart after another, one
    trial at a time: the reference for the stacked kernel."""

    def value_grad(sqrt_rho, sigma):
        w, vmat = np.linalg.eigh(sqrt_rho @ sigma @ sqrt_rho)
        root = np.sqrt(np.where(w > TOL_SUPPORT * w[-1], w, 0.0))
        inv_root = np.divide(1.0, root, out=np.zeros_like(root), where=root > 0.0)
        half = sqrt_rho @ vmat
        return float(root.sum()), (half * inv_root) @ half.conj().T

    def polish(sqrt_rho, sigma_a, sigma_b, iters=200):
        val, grad = value_grad(sqrt_rho, np.kron(sigma_a, sigma_b))
        eps = [1.0, 1.0]
        for _ in range(iters):
            start = val
            for side in (0, 1):
                g4 = grad.reshape(d_a, d_b, d_a, d_b)
                if side == 0:
                    r, cur = np.einsum("ijkl,lj->ik", g4, sigma_b), sigma_a
                else:
                    r, cur = np.einsum("ijkl,ki->jl", g4, sigma_a), sigma_b
                e = eps[side]
                while e > 1e-12:
                    step = np.eye(r.shape[0]) + e * r
                    trial = step @ cur @ step.conj().T
                    trial = (trial + trial.conj().T) / (2.0 * np.trace(trial).real)
                    pair = (trial, sigma_b) if side == 0 else (sigma_a, trial)
                    new, new_grad = value_grad(sqrt_rho, np.kron(*pair))
                    if new > val:
                        sigma_a, sigma_b = pair
                        val, grad = new, new_grad
                        eps[side] = 2.0 * e
                        break
                    if val - new <= 1e-15 * val:  # a tie up to rounding
                        break
                    e *= 0.5
            if val <= start + 1e-15:
                break
        return sigma_a, sigma_b, val

    sqrt_rho = matrix_sqrt_psd(rho)
    best = (-math.inf, None, None)
    for r in range(restarts):
        if r == 0:
            sigma_a = partial_trace(rho, (d_a, d_b), keep=1)
            sigma_b = partial_trace(rho, (d_a, d_b), keep=2)
        elif r == 1:
            sigma_a, sigma_b = np.eye(d_a) / d_a, np.eye(d_b) / d_b
        else:
            sigma_a, sigma_b = random_density(d_a, d_a, rng), random_density(d_b, d_b, rng)
        sigma_a, sigma_b, aff = polish(sqrt_rho, sigma_a, sigma_b)
        if aff > best[0]:
            best = (aff, sigma_a, sigma_b)
    aff, sigma_a, sigma_b = best
    return math.sqrt(max(0.0, 2.0 - 2.0 * aff)), sigma_a, sigma_b


class TestBuresStack:
    def test_matches_the_per_restart_loop(self):
        # rank-2 targets: 4 x 2 reductions of Haar states on 16 dimensions
        targets = worker_rng(71)
        for i in range(20):
            rho = partial_trace(projector(haar_pure(16, targets)), (8, 2), keep=1)
            for restarts in (1, 2, 4, 10):
                ref_rng, rng = worker_rng(72, i), worker_rng(72, i)
                want = sequential_bures_closest(rho, 4, 2, restarts, ref_rng)
                got = KINDS["bures"].closest(*validate_density_matrix(rho), 4, 2, restarts, rng)
                assert got[0] == want[0]
                assert np.array_equal(got[1], want[1])
                assert np.array_equal(got[2], want[2])
                assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_kernel_calls_on_a_fixed_target(self, monkeypatch):
        # 4 x 2 reduction of a pure state on 4 x 2 x 2 drawn from
        # default_rng([0, 0]), at the default 10 restarts: 102 calls while
        # a side only gave up at eps <= 1e-12, 45 with the give-up on a tie
        rng = np.random.default_rng([0, 0])
        z = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        m = (z / np.linalg.norm(z)).reshape(8, 2)
        kernel, calls = correlations._bures_value_grad, []

        def counted(sqrt_rho, sigma):
            calls.append(len(sigma))
            return kernel(sqrt_rho, sigma)

        monkeypatch.setattr(correlations, "_bures_value_grad", counted)
        c_distance_numeric(m @ m.conj().T, (4, 2), "bures")
        assert len(calls) == 45


class TestRegistry:
    def test_one_row_per_kind(self):
        assert set(KINDS) == {kind.value for kind in MonotoneKind}
        assert all(KINDS[name].name == name for name in KINDS)

    def test_zeta_kind_gives_the_cc_correlation(self):
        # ccbound and zeta_ef place the CC states on the slices of the cc
        # kind's f: at the CC correlation x = f_cc_kind(p) / scale the CC
        # curve is the cc kind's xi at f_cc_kind(p)
        rng = worker_rng(63)
        for row in KINDS.values():
            if row.cc is not None:
                cc_kind, scale = row.cc
                for _ in range(20):
                    p = random_spectrum(4, rng)
                    x = _f_tilde(row.name, p)
                    assert zeta_ef(row.name, x) == xi_ef(cc_kind, f_value(cc_kind, p))

    def test_cc_gives_the_cc_correlation(self):
        # a row's cc = (cc_kind, scale) says that the strictly correlated CC
        # state with spectrum p has correlation f_cc_kind(p) / scale; ccbound
        # and zeta_ef rest on it. It is evaluated independently: by the
        # distance solver where the row has one, by the mutual information
        # otherwise. Every row sees the same 200 spectra, near-ties p1 ~ p2
        # among them.
        rows = [row for row in KINDS.values() if row.cc is not None]
        assert {row.name for row in rows} == {"hellinger", "mutual_information"}
        for row in rows:
            cc_kind, scale = row.cc
            rng = worker_rng(11)
            for _ in range(200):
                p = random_spectrum(4, rng)
                rho = strictly_correlated_cc(p, 4, 4)
                if row.closest is not None:
                    got = c_distance_numeric(rho, (4, 4), row.name)
                else:
                    got = mutual_information(rho, (4, 4))
                assert abs(got - f_value(cc_kind, p) / scale) <= 1e-12


class TestEnumKinds:
    def test_members_match_values(self):
        # fixed inputs, so the module RNG stream of the other tests is untouched
        p = np.array([0.4, 0.3, 0.2, 0.1])
        rho = strictly_correlated_cc(np.array([0.7, 0.3]), 2, 2)
        for kind in MonotoneKind:
            assert c_max(kind, 4) == c_max(kind.value, 4)
            assert c_on_pure(BELL, (2, 2), kind) == c_on_pure(BELL, (2, 2), kind.value)
            assert f_value(kind, p) == f_value(kind.value, p)
            if kind is not MonotoneKind.MUTUAL_INFORMATION:
                got = [
                    c_distance_numeric(rho, (2, 2), k, restarts=2)
                    for k in (kind, kind.value)
                ]
                assert got[0] == got[1]


class TestValidatesOnce:
    """A public front validates each input state once; the kernels under it
    do not re-check."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        check = qcore.validate_density_stack

        def counted(rho):
            seen.append(np.shape(rho))
            return check(rho)

        monkeypatch.setattr(qcore, "validate_density_stack", counted)
        return seen

    def test_one_check_per_input_state(self, calls):
        rng = worker_rng(77)
        rho, sigma = random_density(8, 3, rng), random_density(8, 8, rng)
        for call, states in [
            (lambda: mutual_information(rho, (4, 2)), 1),
            (lambda: hellinger_distance(rho, sigma), 2),
            (lambda: bures_distance(rho, sigma), 2),
            (lambda: c_distance_numeric(rho, (4, 2), "hellinger"), 1),
            (lambda: c_distance_numeric(rho, (4, 2), "bures", restarts=3), 1),
        ]:
            calls.clear()
            call()
            assert calls == [(8, 8)] * states


_RHO, _SIGMA = random_density(8, 3, worker_rng(78)), random_density(8, 8, worker_rng(79))
_RHO4 = random_density(4, 3, worker_rng(80))
_FRONTS = {
    "spectrum": lambda: spectrum(_RHO),
    "von_neumann_entropy": lambda: von_neumann_entropy(_RHO),
    "purify": lambda: purify(_RHO),
    "matrix_sqrt_psd": lambda: matrix_sqrt_psd(_RHO),
    "bures_distance": lambda: bures_distance(_RHO, _SIGMA),
    "hellinger_distance": lambda: hellinger_distance(_RHO, _SIGMA),
    "concurrence": lambda: concurrence(_RHO4),
    "entanglement_of_formation": lambda: entanglement_of_formation(_RHO4),
    "mutual_information": lambda: mutual_information(_RHO, (4, 2)),
    "c_distance_hellinger": lambda: c_distance_numeric(_RHO, (4, 2), "hellinger"),
    "c_distance_bures": lambda: c_distance_numeric(_RHO, (4, 2), "bures", restarts=2),
    "verify_chunk": lambda: cli._verify_chunk(("hellinger", 16, 50, 0, 1)),
}


class TestDiagonalisesOnce:
    """The density validator's eigh is the one decomposition of a checked
    state: a front hands it on and decomposes no matrix a second time."""

    @pytest.fixture
    def inputs(self, monkeypatch):
        """A digest of the shape and bytes of every matrix (or stack) passed
        to np.linalg.eigh, eigvalsh or svd."""
        seen = []
        for name in ("eigh", "eigvalsh", "svd"):
            def counted(a, *args, _decompose=getattr(np.linalg, name), **kwargs):
                a = np.ascontiguousarray(a)
                seen.append(hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest())
                return _decompose(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return seen

    @pytest.mark.parametrize("front", list(_FRONTS))
    def test_no_matrix_is_decomposed_twice(self, inputs, front):
        _FRONTS[front]()
        assert inputs
        assert len(set(inputs)) == len(inputs)
