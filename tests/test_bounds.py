import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entcorr import bounds
from entcorr.bounds import (
    LN2,
    _branch_terms,
    _g4_distance,
    _g4_mutual_information,
    _isotropic,
    _s22,
    _y_of_x,
    bound_curve,
    g_d_numeric,
    optimal_slice_spectrum,
    spectrum_at_f,
    threshold,
    u,
    v,
    xi_ef,
    zeta_ef,
)
from entcorr.correlations import MonotoneKind, c_max, f_value, kind_of
from entcorr.measures import s22_ef
from entcorr.qcore import DomainError, random_spectrum, worker_rng

RNG = worker_rng(31337)


def binary_entropy_at_concurrence(y):
    # independent route: v(y) is the natural-log binary entropy at
    # a = (1 + sqrt(1 - y^2)) / 2
    a = (1.0 + math.sqrt(1.0 - y * y)) / 2.0
    out = -a * math.log(a)
    if a < 1.0:
        out -= (1.0 - a) * math.log(1.0 - a)
    return out


def dense_mi_reference(x, n=61, passes=5):
    """Smallest s22 found on a refined (p2, p4) grid of the slice 2 H(p) = x.

    With p2 and p4 fixed, H rises with p3 on its ordered range
    [p4, min(p2, 1 - 2 p2 - p4)] while the concurrence cap
    p1 - p3 - 2 sqrt(p2 p4) falls, so each grid point meets the slice at
    most once; a vectorized bisection finds it.
    """
    h = x / 2.0
    lo2, hi2, lo4, hi4 = 0.0, 0.5, 0.0, 0.25
    best = -np.inf
    for _ in range(passes):
        g2, g4 = np.linspace(lo2, hi2, n), np.linspace(lo4, hi4, n)
        p2, p4 = np.meshgrid(g2, g4, indexing="ij")

        def entropy(p3):
            p = np.stack([1.0 - p2 - p3 - p4, p2, p3, p4])
            safe = np.where(p > 0.0, p, 1.0)
            return -(np.where(p > 0.0, p, 0.0) * np.log(safe)).sum(axis=0)

        a, b = p4, np.minimum(p2, 1.0 - 2.0 * p2 - p4)
        ok = (b >= a) & (entropy(a) <= h) & (entropy(b) >= h)
        for _ in range(52):
            mid = 0.5 * (a + b)
            below = entropy(mid) < h
            a, b = np.where(below, mid, a), np.where(below, b, mid)
        cap = np.where(ok, 1.0 - p2 - 2.0 * b - p4 - 2.0 * np.sqrt(p2 * p4), -np.inf)
        i, k = np.unravel_index(int(np.argmax(cap)), cap.shape)
        best = max(best, float(cap[i, k]))
        span2, span4 = 2.0 * (hi2 - lo2) / (n - 1), 2.0 * (hi4 - lo4) / (n - 1)
        lo2, hi2 = max(0.0, g2[i] - span2), min(0.5, g2[i] + span2)
        lo4, hi4 = max(0.0, g4[k] - span4), min(0.25, g4[k] + span4)
    return LN2 - float(v(min(max(best, 0.0), 1.0)))


class TestKernels:
    def test_v_endpoints(self):
        assert v(0.0) == 0.0
        assert v(1.0) == LN2

    def test_v_half(self):
        assert abs(v(0.5) - 0.24577536666847116) < 1e-15
        assert abs(v(0.5) - binary_entropy_at_concurrence(0.5)) < 1e-15

    def test_w_pm_sum(self):
        # the branches w_+ and w_- of _branch_terms are -a ln a at
        # a = (1 +- sqrt(1 - y^2)) / 2, and they sum to v
        for y in np.linspace(0.0, 1.0, 11):
            plus, minus = _branch_terms(y)
            for term, a in ((plus, (1.0 + math.sqrt(1.0 - y * y)) / 2.0),
                            (minus, (1.0 - math.sqrt(1.0 - y * y)) / 2.0)):
                want = -a * math.log(a) if a > 0.0 else 0.0
                assert abs(term - want) < 1e-15
            assert plus + minus == v(y)

    def test_small_concurrence_does_not_cancel(self):
        # 1 - sqrt(1 - y^2) rounds to 0 at y = 1e-8; the kernel is
        # b (1 - ln b) + O(b^2) with b = y^2 / 4, and its + branch is b - O(b^2)
        y = 1e-8
        b = y * y / 4.0
        assert abs(v(y) - b * (1.0 - math.log(b))) <= 1e-12 * b * (1.0 - math.log(b))
        plus, minus = _branch_terms(y)
        assert abs(minus + b * math.log(b)) <= -1e-12 * b * math.log(b)
        assert abs(plus - b) <= 1e-12 * b

    def test_v_increasing(self):
        ys = np.linspace(0.0, 1.0, 1001)
        assert np.all(np.diff(v(ys)) > 0)

    def test_domain_errors(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(DomainError):
                v(bad)
        with pytest.raises(DomainError):
            u(0.76)

    @given(st.floats(0.0, 1.0))
    def test_v_matches_binary_entropy(self, y):
        assert abs(v(y) - binary_entropy_at_concurrence(y)) < 1e-13


class TestU:
    def test_endpoints(self):
        assert u(0.0) == LN2
        assert u(0.7) == 0.0
        assert u(0.75) == 0.0

    def test_middle_branch_value(self):
        assert abs(u(0.3) - v(0.7)) < 1e-15
        assert abs(u(0.3) - 0.41024429307387456) < 1e-15

    def test_continuity_at_breaks(self):
        eps = 1e-13
        assert abs(u(0.5 - eps) - u(0.5 + eps)) < 1e-12
        assert abs(u(2.0 / 3.0 - eps) - u(2.0 / 3.0 + eps)) < 1e-12

    def test_nonincreasing(self):
        ys = np.linspace(0.0, 0.75, 1001)
        assert np.all(np.diff(u(ys)) <= 1e-15)


class TestXiZeta:
    def test_endpoints(self):
        assert abs(xi_ef("bures", 0.0) - LN2) < 1e-15
        assert abs(xi_ef("hellinger", 0.0) - LN2) < 1e-15
        assert xi_ef("bures", 1.0) == 0.0
        assert xi_ef("hellinger", math.sqrt(1.5)) == 0.0

    def test_hellinger_at_one(self):
        assert abs(xi_ef("hellinger", 1.0) - v(0.5)) < 1e-15

    def test_zeta_is_bures_xi(self):
        xs = np.linspace(0.0, 1.0, 57)
        assert np.array_equal(zeta_ef("hellinger", xs), xi_ef("bures", xs))

    def test_nonincreasing_grids(self):
        for kind in ("bures", "hellinger"):
            xs = np.linspace(0.0, c_max(kind, 4), 1000)
            assert np.all(np.diff(xi_ef(kind, xs)) <= 1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            xi_ef("hellinger", 1.3)
        with pytest.raises(DomainError):
            zeta_ef("bures", 0.5)


class TestThresholds:
    def test_values(self):
        assert abs(threshold("hellinger") - math.sqrt(4.0 / 3.0)) < 1e-15
        assert abs(threshold("bures") - math.sqrt(2.0 - math.sqrt(4.0 / 3.0))) < 1e-15

    def test_threshold_is_c_max_of_three_levels(self):
        # y = 1 - p1 on pure states, so y = 2/3 at the uniform 3-spectrum.
        # t is the correctly rounded f there, and the rounded y(x) reaches
        # the double 2/3 at t and not at the double below t, so t is the
        # least double at which xi is 0.
        for kind in ("bures", "hellinger"):
            t = threshold(kind)
            assert t == c_max(kind, 3)
            assert float(_y_of_x(kind, t)) >= 2.0 / 3.0
            assert float(_y_of_x(kind, np.nextafter(t, 0.0))) < 2.0 / 3.0
            assert xi_ef(kind, t) == 0.0
            assert xi_ef(kind, np.nextafter(t, 0.0)) > 0.0
            assert xi_ef(kind, t * (1.0 - 1e-6)) > 0.0

    def test_below_capacity(self):
        for kind in ("bures", "hellinger"):
            assert threshold(kind) < c_max(kind, 4)

    def test_zero_beyond_threshold(self):
        for kind in ("bures", "hellinger"):
            xs = np.linspace(threshold(kind), c_max(kind, 4), 101)
            assert np.all(np.asarray(xi_ef(kind, xs)) < 1e-12)

    def test_mutual_information_at_the_werner_point(self):
        # 2 H(1/2, 1/6, 1/6, 1/6) = ln 12: the isotropic point t = 1/6,
        # where the cap 1 - 6t vanishes
        t = threshold("mutual_information")
        assert t == math.log(12.0)
        assert xi_ef("mutual_information", t - 1e-6) > 0.0
        xs = np.linspace(t, c_max("mutual_information", 4), 101)
        assert np.all(xi_ef("mutual_information", xs) == 0.0)


class TestSpectrumAtF:
    def test_reaches_any_target(self):
        for kind in ("bures", "hellinger", "mutual_information"):
            for x in np.linspace(0.0, c_max(kind, 4), 20):
                p = spectrum_at_f(kind, float(x))
                assert abs(f_value(kind, p) - x) < 1e-9

    def test_rejects_unreachable(self):
        with pytest.raises(DomainError):
            spectrum_at_f("bures", 1.5)

    @pytest.mark.parametrize("kind", [kind.value for kind in MonotoneKind])
    def test_werner_spectra_on_the_slice(self, kind):
        xs = np.linspace(0.0, c_max(kind, 4), 4001)
        p = spectrum_at_f(kind, xs)
        assert np.array_equal(p[:, 1], p[:, 2]) and np.array_equal(p[:, 2], p[:, 3])
        assert np.abs(kind_of(kind).f(p) - xs).max() <= 1e-9


def halving_spectrum_at_f(kind, xs):
    """spectrum_at_f of a 1-D array of levels in [0, c_max(kind, 4)] as a
    masked loop of up to 200 halvings of t in [0, 1/4] with its own stop and
    pick, kept as the reference for the shared bisection: it stops a level
    at hi - lo < 1e-16 hi and takes whichever of lo, hi and their midpoint
    lands closest, the first on a tie."""
    f = kind_of(kind).f
    lo, hi = np.zeros_like(xs), np.full_like(xs, 0.25)
    live = np.arange(xs.size)
    for _ in range(200):
        if live.size == 0:
            break
        mid = 0.5 * (lo[live] + hi[live])
        below = f(_isotropic(mid)) < xs[live]
        lo[live[below]] = mid[below]
        hi[live[~below]] = mid[~below]
        live = live[~(hi[live] - lo[live] < 1e-16 * hi[live])]
    ts = np.stack([lo, hi, 0.5 * (lo + hi)], axis=1)
    q = _isotropic(ts.ravel()).reshape(xs.size, 3, 4)
    best = np.argmin(np.abs(f(q) - xs[:, None]), axis=1)
    return q[np.arange(xs.size), best]


class TestSpectrumAtFReference:
    # the shared bisection lands on the bits of the 200-halving loop
    @pytest.mark.parametrize("kind", [kind.value for kind in MonotoneKind])
    def test_matches_the_halving_loop(self, kind):
        rng = worker_rng(43)
        top = c_max(kind, 4)
        xs = np.concatenate([np.linspace(0.0, top, 41), rng.uniform(0.0, top, 10)])
        got = spectrum_at_f(kind, xs)
        want = halving_spectrum_at_f(kind, xs)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestNaN:
    # a NaN level fails the one level check, alone or inside an array
    @pytest.mark.parametrize("level", [math.nan, np.array([0.1, math.nan])])
    def test_raises_domain_error(self, level):
        calls = [
            lambda: v(level),
            lambda: u(level),
            lambda: zeta_ef("hellinger", level),
        ]
        for kind in MonotoneKind:
            calls += [
                lambda kind=kind: xi_ef(kind, level),
                lambda kind=kind: g_d_numeric(kind, level),
                lambda kind=kind: spectrum_at_f(kind, level),
            ]
        for call in calls:
            with pytest.raises(DomainError):
                call()


class TestG4:
    def test_zero_end(self):
        assert g_d_numeric("hellinger", 0.0) == 0.0

    def test_capacity_end(self):
        assert abs(g_d_numeric("hellinger", c_max("hellinger", 4)) - LN2) < 1e-12

    def test_matches_analytic_curve(self):
        for kind in ("bures", "hellinger"):
            xs = np.linspace(0.0, c_max(kind, 4), 20)
            diffs = [
                abs((LN2 - g_d_numeric(kind, float(x))) - float(xi_ef(kind, x)))
                for x in xs
            ]
            assert max(diffs) <= 1e-15

    def test_never_exceeds_s22_of_feasible_point(self):
        rng = worker_rng(21)
        for _ in range(100):
            p = random_spectrum(4, rng)
            for kind in ("bures", "hellinger"):
                x = f_value(kind, p)
                assert g_d_numeric(kind, x) <= s22_ef(p) + 1e-15
        # stacked: 1.2e6 ordered Dirichlet spectra per kind, in blocks of 2e5
        for alpha in (0.3, 1.0, 3.0):
            for _ in range(2):
                p = -np.sort(-rng.dirichlet(np.full(4, alpha), 200_000), axis=1)
                for kind in ("bures", "hellinger"):
                    excess = g_d_numeric(kind, kind_of(kind).f(p)) - _s22(p)
                    assert excess.max() <= 1e-15

    def test_never_exceeds_s22_mutual_information(self):
        rng = worker_rng(22)
        for i in range(40):
            p = random_spectrum(4, rng)
            x = f_value("mutual_information", p)
            g = g_d_numeric("mutual_information", x)
            assert g <= s22_ef(p) + 1e-12

    @pytest.mark.parametrize("kind", ["bures", "hellinger"])
    def test_distance_witness_on_its_slice(self, kind):
        xs = np.linspace(0.0, c_max(kind, 4), 20_001)
        p = _g4_distance(kind, xs)
        assert p.shape == (20_001, 4)
        assert (p >= 0.0).all() and (np.diff(p, axis=1) <= 0.0).all()
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-15
        assert np.abs(kind_of(kind).f(p) - xs).max() <= 1e-15

    def test_distance_solver_is_independent_of_the_closed_form(self, monkeypatch):
        levels = {kind: stack_levels(kind) for kind in ("bures", "hellinger")}
        usual = {kind: g_d_numeric(kind, xs) for kind, xs in levels.items()}

        def closed_form(*args):
            raise AssertionError("the slice solver used the closed form")

        monkeypatch.setattr(bounds, "u", closed_form)
        monkeypatch.setattr(bounds, "optimal_slice_spectrum", closed_form)
        for kind, xs in levels.items():
            assert np.array_equal(g_d_numeric(kind, xs), usual[kind])

    def test_mutual_information_matches_dense_reference(self):
        # the exact solver switches from the geometric face to the isotropic
        # line near x = 2.055; check levels on both sides
        below = np.linspace(0.1, 2.03, 8)
        above = np.linspace(2.08, 2.46, 8)
        for x in np.concatenate([below, above]):
            g = g_d_numeric("mutual_information", float(x))
            ref = dense_mi_reference(float(x))
            assert g <= ref + 1e-12
            assert ref - g <= 1e-8  # the reference is a close feasible point

    def test_mutual_information_witness(self):
        xs = np.linspace(0.0, c_max("mutual_information", 4), 41)
        witnesses = _g4_mutual_information(xs)
        assert witnesses.shape == (41, 4)
        for x, q in zip(xs, witnesses):
            p = q[q > 0.0]
            assert np.all(q[p.size:] == 0.0)  # zeros only as padding after the support
            assert np.all(p > 0.0) and np.all(np.diff(p) <= 0.0)
            assert abs(p.sum() - 1.0) <= 1e-14
            assert abs(f_value("mutual_information", p) - x) <= 1e-12
            assert g_d_numeric("mutual_information", float(x)) == s22_ef(p)

    def test_mutual_information_switches_family(self):
        # the geometric spectrum (p4 = 0) wins below x = 2.055, the
        # isotropic line (p4 = p2) above
        below, above = _g4_mutual_information(np.array([2.03, 2.08]))
        assert below[3] == 0.0 and below[2] > 0.0
        assert above[3] > 0.0 and above[3] == above[1]


def stack_levels(kind):
    """Levels for the stacked solvers: both ends, a grid, random levels and,
    for the mutual information, the family switch near x = 2.055 and the
    end of the geometric family at x = 2 ln 3."""
    xmax = c_max(kind, 4)
    levels = [0.0, xmax, *np.linspace(0.0, xmax, 31)[1:-1], *worker_rng(41).uniform(0, xmax, 40)]
    if kind == "mutual_information":
        end = 2.0 * math.log(3.0)
        levels += [2.03, 2.05, 2.054, 2.055, 2.056, 2.06, 2.08]
        levels += [end, np.nextafter(end, 0.0), np.nextafter(end, 3.0), end + 1e-9, end + 1e-3]
    return np.array(levels)


class TestOptimalSliceSpectrum:
    # 401 levels reach y = 3/4 and cross both breaks of u, y = 1/2 and y = 2/3
    @pytest.mark.parametrize("kind", ["bures", "hellinger"])
    def test_spectra_on_the_slice_attain_xi(self, kind):
        xs = np.linspace(0.0, c_max(kind, 4), 401)
        y = _y_of_x(kind, xs)
        assert (y < 0.5).any() and ((y > 0.5) & (y < 2.0 / 3.0)).any() and (y > 2.0 / 3.0).any()
        p = optimal_slice_spectrum(kind, xs)
        assert p.shape == (401, 4)
        assert (p[:, 0] > 0.0).all() and (p >= 0.0).all() and (np.diff(p, axis=1) <= 0.0).all()
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.abs(kind_of(kind).f(p) - xs).max() <= 1e-12
        assert np.abs((LN2 - _s22(p)) - xi_ef(kind, xs)).max() <= 1e-12
        single = np.array([optimal_slice_spectrum(kind, float(x)) for x in xs])
        assert np.array_equal(p, single)


class TestStackedSolvers:
    # every level of a stack gets the bits it gets alone
    @pytest.mark.parametrize("kind", [kind.value for kind in MonotoneKind])
    def test_g_d_numeric(self, kind):
        xs = stack_levels(kind)
        single = np.array([g_d_numeric(kind, float(x)) for x in xs])
        assert all(type(g_d_numeric(kind, float(x))) is float for x in xs[:2])
        assert np.array_equal(g_d_numeric(kind, xs), single)
        assert np.array_equal(g_d_numeric(kind, xs[::-1]), single[::-1])
        even = xs.size // 2 * 2
        grid = g_d_numeric(kind, xs[:even].reshape(-1, 2))
        assert np.array_equal(grid, single[:even].reshape(-1, 2))

    @pytest.mark.parametrize("kind", [kind.value for kind in MonotoneKind])
    def test_xi_ef(self, kind):
        xs = stack_levels(kind)
        single = np.array([xi_ef(kind, float(x)) for x in xs])
        assert np.array_equal(xi_ef(kind, xs), single)
        # every kind's xi is ln 2 - g within rounding; exactly so without a closed form
        gap = np.abs(single - (LN2 - g_d_numeric(kind, xs)))
        assert gap.max() <= (0.0 if kind == "mutual_information" else 1e-15)

    @pytest.mark.parametrize("kind", [kind.value for kind in MonotoneKind])
    def test_one_domain_slack_for_every_kind(self, kind):
        xmax = c_max(kind, 4)
        assert xi_ef(kind, xmax + 1e-13) == xi_ef(kind, xmax)
        with pytest.raises(DomainError):
            xi_ef(kind, xmax + 1e-11)
        with pytest.raises(DomainError):
            xi_ef(kind, -1e-11)
        assert np.array_equal(spectrum_at_f(kind, xmax + 1e-13), spectrum_at_f(kind, xmax))
        assert np.array_equal(spectrum_at_f(kind, -1e-13), spectrum_at_f(kind, 0.0))
        with pytest.raises(DomainError):
            spectrum_at_f(kind, xmax + 1e-11)
        with pytest.raises(DomainError):
            spectrum_at_f(kind, -1e-11)

    def test_rejects_a_level_outside_the_range(self):
        for kind in MonotoneKind:
            xs = np.array([0.1, c_max(kind, 4) + 1e-6])
            with pytest.raises(DomainError):
                g_d_numeric(kind, xs)
            with pytest.raises(DomainError):
                xi_ef(kind, -xs)
            with pytest.raises(DomainError):
                spectrum_at_f(kind, xs)

    @pytest.mark.parametrize("kind", [kind.value for kind in MonotoneKind])
    def test_spectrum_at_f(self, kind):
        xs = np.linspace(0.0, c_max(kind, 4), 41)
        stack = spectrum_at_f(kind, xs)
        assert stack.shape == (41, 4)
        for x, row in zip(xs, stack):
            alone = spectrum_at_f(kind, float(x))
            assert np.array_equal(row[: alone.size], alone)
            assert not row[alone.size:].any()


class TestBoundCurve:
    def test_distance_curves(self):
        for kind in ("bures", "hellinger"):
            curve = bound_curve(kind, grid=41)
            assert curve.xs[0] == 0.0
            assert abs(curve.bounds[0] - LN2) < 1e-15
            assert abs(curve.bounds[-1]) < 1e-12
            assert np.all(np.diff(curve.bounds) <= 1e-15)

    def test_mutual_information_curve(self):
        curve = bound_curve("mutual_information", grid=9)
        # the CC curve zeta(x) = xi(2x) of the row's cc = (mutual_information, 2)
        assert curve.xs[-1] == c_max("mutual_information", 4) / 2.0
        assert np.array_equal(curve.bounds, xi_ef("mutual_information", 2 * curve.xs))
        assert abs(curve.bounds[0] - LN2) < 1e-9
        assert curve.bounds[-1] <= 1e-6
        assert np.all(np.diff(curve.bounds) <= 1e-15)

    def test_non_integer_grid_is_rejected(self):
        with pytest.raises(DomainError):
            bound_curve("hellinger", 3.5)
        assert len(bound_curve("hellinger", np.int64(3)).xs) == 3


class TestEnumKinds:
    # every public kind-taking function accepts a MonotoneKind member and
    # gives exactly what its plain string value gives
    def test_closed_forms(self):
        xs = np.linspace(0.0, 1.0, 11)
        for kind in MonotoneKind:
            assert np.array_equal(xi_ef(kind, xs), xi_ef(kind.value, xs))
            assert xi_ef(kind, 0.5) == xi_ef(kind.value, 0.5)
            assert threshold(kind) == threshold(kind.value)
        assert np.array_equal(zeta_ef(MonotoneKind.HELLINGER, xs), zeta_ef("hellinger", xs))

    def test_spectrum_at_f(self):
        for kind in MonotoneKind:
            x = 0.5 * c_max(kind, 4)
            assert np.array_equal(spectrum_at_f(kind, x), spectrum_at_f(kind.value, x))

    def test_g_d_numeric(self):
        for kind in MonotoneKind:
            x = 0.5 * c_max(kind, 4)
            got = [g_d_numeric(k, x) for k in (kind, kind.value)]
            assert got[0] == got[1]

    def test_bound_curve(self):
        for kind in MonotoneKind:
            member = bound_curve(kind, grid=3)
            value = bound_curve(kind.value, grid=3)
            assert type(member.kind) is str and member.kind == kind.value
            assert np.array_equal(member.xs, value.xs)
            assert np.array_equal(member.bounds, value.bounds)

    def test_unsupported_kinds_still_raise(self):
        calls = (
            lambda: zeta_ef(MonotoneKind.BURES, 0.5),
            lambda: xi_ef("entropy", 0.5),
            lambda: zeta_ef("entropy", 0.5),
            lambda: threshold("entropy"),
            lambda: spectrum_at_f("entropy", 0.1),
            lambda: g_d_numeric("entropy", 0.1),
            lambda: bound_curve("entropy"),
        )
        for call in calls:
            with pytest.raises(DomainError):
                call()
