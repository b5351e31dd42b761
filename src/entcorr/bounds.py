"""Analytic bound curves and their numeric oracles.

The central object is the nonincreasing curve xi(x) bounding the two-qubit
entanglement of formation of the internal state by the amount x of
correlations with an external system. For the Bures and Hellinger
correlation measures the curve is u(y(x)) with a piecewise closed form u.
The g4 slice solvers recompute it as the infimum of the spectral entropy
s22 over an iso-correlation slice of the probability simplex. Both slice
solvers are exact and return the spectrum they attain, so a value can only
err high, by rounding. For the distance measures the slice fixes p1: it
is the convex hull of its crossings with the six edges of the tetrahedron
of ordered spectra, and the concurrence cap p1 - p3 - 2 sqrt(p2 p4) is
convex, so the best edge crossing solves it. For the mutual information,
where no closed form exists, the cap on the slice 2 H(p) = x is largest at
the geometric spectrum p ~ (1, r, r^2, 0) or on the isotropic line
(1 - 3t, t, t, t); one bisection per family lands on the slice.

Every level is checked once, by _check_domain, and every level search is
one stacked bisection, _on_level, on a one-parameter family of spectra:
the mutual-information solver on its two families, and the library
function spectrum_at_f on the isotropic line for every kind. Each level
halves its own interval until no double lies strictly inside, then keeps
the end closer to its level, the lower one on a tie. The distance kinds'
slice witness, optimal_slice_spectrum, needs no search: it is closed-form,
and it builds the states of both the tightness and the classical-classical
checks.

xi_ef, g_d_numeric and bound_curve take arrays of levels; the slice
solvers run them as one stack, each level with the bits it has alone.

The kernels v and u and the spectral cap s22 live here, so measures
imports this module and not the reverse.

Per-kind facts are read from the kind's row of correlations.KINDS, the
one place they live; a kind is added by adding a row there. A row with a
closed form y(x) takes the edge solver, the others the two families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .correlations import _f_mutual_information, c_max, kind_of
from .qcore import DomainError, _check_index

LN2 = math.log(2.0)

_DOMAIN_SLACK = 1e-12


def _check_domain(y, lo: float, hi: float, name: str) -> np.ndarray:
    """y clipped into [lo, hi]; DomainError if any entry lies farther out
    than _DOMAIN_SLACK, or is NaN. The one level check of this module."""
    arr = np.asarray(y, dtype=float)
    if not np.all((arr >= lo - _DOMAIN_SLACK) & (arr <= hi + _DOMAIN_SLACK)):
        raise DomainError(f"{name} must lie in [{lo}, {hi}]")
    return np.clip(arr, lo, hi)


def _scalar_like(y, arr: np.ndarray):
    arr = arr + 0.0  # normalize -0.0
    return float(arr) if np.isscalar(y) or np.ndim(y) == 0 else arr


# ---------------------------------------------------------------------------
# w, v, u
# ---------------------------------------------------------------------------

def _branch_terms(yy: np.ndarray):
    """-a ln a at the two branch points a = (1 +- s) / 2, s = sqrt(1 - y^2),
    as (plus, minus), for y already in [0, 1].

    The small point is taken as b = y^2 / (2 (1 + s)) and the large one as
    1 - b, with its logarithm log1p(-b), so neither cancels for small y.
    """
    s = np.sqrt(np.clip(1.0 - yy * yy, 0.0, None))
    b = yy * yy / (2.0 * (1.0 + s))
    plus = -(1.0 - b) * np.log1p(-b)
    minus = -np.where(b > 0.0, b * np.log(np.where(b > 0.0, b, 1.0)), 0.0)
    return plus, minus


def v(y):
    """v(y) = w_+(y) + w_-(y): entanglement of formation at concurrence y."""
    plus, minus = _branch_terms(_check_domain(y, 0.0, 1.0, "y"))
    return _scalar_like(y, plus + minus)


def u(y):
    """Piecewise bound kernel on [0, 3/4].

    v(1-y) on [0, 1/2], v(2-3y) on [1/2, 2/3], and 0 on [2/3, 3/4];
    continuous at both break points and nonincreasing.
    """
    yy = _check_domain(y, 0.0, 0.75, "y")
    first = yy <= 0.5
    second = (~first) & (yy <= 2.0 / 3.0)
    args = np.where(first, 1.0 - yy, np.where(second, np.clip(2.0 - 3.0 * yy, 0.0, 1.0), 0.0))
    plus, minus = _branch_terms(args)
    return _scalar_like(y, np.where(first | second, plus + minus, 0.0))


def _max_concurrence(q: np.ndarray) -> np.ndarray:
    """Spectral concurrence cap of 4-spectra padded with zeros, shaped (..., 4); unchecked."""
    q1, q2, q3, q4 = q.T  # numpy scalars for one spectrum: 0-d arrays are slower
    return np.maximum(0.0, q1 - q3 - 2.0 * np.sqrt(q2 * q4)).T


def _s22(q: np.ndarray) -> np.ndarray:
    """s22 of 4-spectra padded with zeros, shaped (..., 4); unchecked."""
    return LN2 - v(_max_concurrence(q))


# ---------------------------------------------------------------------------
# xi, zeta, thresholds
# ---------------------------------------------------------------------------

def _y_of_x(kind: str, x) -> np.ndarray:
    """y(x) of the kind's closed form on [0, c_max(kind, 4)]."""
    row = kind_of(kind)
    if row.y is None:
        raise DomainError(f"no closed-form curve for kind {row.name!r}")
    _check_domain(x, 0.0, c_max(kind, 4), "x")
    return np.clip(row.y(np.asarray(x, dtype=float)), 0.0, 0.75)


def xi_ef(kind: str, x):
    """Upper bound on internal E_f at correlation level x (2x2 system).

    Takes a scalar or an array x, for every kind. xi(x) = u(x^2 - x^4/4)
    for the Bures measure on [0, 1] and u(x^2 / 2) for the Hellinger
    measure on [0, sqrt(3/2)]: u(y(x)) from the row. A row without y (the
    mutual information) gives ln 2 - g_d_numeric(x) at each x: s22 of a
    feasible slice point, so there xi can only err low, by rounding.
    """
    if kind_of(kind).y is None:
        out = LN2 - np.asarray(g_d_numeric(kind, x))
    else:
        out = u(_y_of_x(kind, x))
    return _scalar_like(x, np.asarray(out, dtype=float))


def _cc_of(kind) -> tuple[str, float]:
    """The (cc_kind, scale) of the kind's row; DomainError where it has none."""
    row = kind_of(kind)
    if row.cc is None:
        raise DomainError(f"no classical-classical curve for kind {row.name!r}")
    return row.cc


def zeta_ef(kind: str, x):
    """Classical-classical counterpart of xi: zeta(x) = xi_cc_kind(scale x),
    from the row's cc = (cc_kind, scale).

    The strictly correlated CC state with spectrum p has correlation
    f_cc_kind(p) / scale, so at level x its spectrum lies on the slice
    f_cc_kind = scale x. For the Hellinger measure (bures, 1) the CC bound
    is the Bures xi; for the mutual information (mutual_information, 2),
    where the CC state carries H(p) and a pure state 2 H(p), it is xi(2x).
    """
    cc_kind, scale = _cc_of(kind)
    return xi_ef(cc_kind, scale * np.asarray(x, dtype=float))


def threshold(kind: str) -> float:
    """Smallest correlation level beyond which the bound is zero.

    For a row with y(x), u vanishes from y = 2/3, which the slice reaches
    at the uniform 3-spectrum (on pure states y = 1 - p1): c_max(kind, 3).
    For a row without y (the mutual information) it is f at the Werner
    point t = 1/6, where the cap 1 - 6t of the isotropic line vanishes:
    2 H(1/2, 1/6, 1/6, 1/6) = ln 12. Past 2 ln 3 the isotropic line is the
    slice solver's only family, so xi is 0 from ln 12 up to c_max(kind, 4).
    """
    row = kind_of(kind)
    if row.y is None:
        return float(row.f(_isotropic(np.array(1.0 / 6.0))))
    return c_max(kind, 3)


# ---------------------------------------------------------------------------
# One-parameter families and the level search on them
# ---------------------------------------------------------------------------

def _spectrum(q: np.ndarray) -> np.ndarray:
    """Rows of descending nonnegative q, normalized; zeros stay as padding."""
    return q / q.sum(axis=-1, keepdims=True)


def _geometric(r: np.ndarray) -> np.ndarray:
    """(1, r, r^2, 0) / norm: the p4 = 0 face at its Lagrange point."""
    return _spectrum(np.stack([np.ones_like(r), r, r * r, np.zeros_like(r)], axis=-1))


def _isotropic(t: np.ndarray) -> np.ndarray:
    """(1 - 3t, t, t, t): the spectra of the Werner states."""
    return _spectrum(np.stack([1.0 - 3.0 * t, t, t, t], axis=-1))


def _on_level(f, family, top: float, x: np.ndarray) -> np.ndarray:
    """Members of family on [0, top] with f = x, one per level, by bisection;
    unchecked.

    f maps spectra shaped (n, 4) to their values and rises with the
    family's parameter, so each level is crossed once. Every level above 0
    halves its own interval, the midpoint replacing lo where f < x and hi
    elsewhere, until no double lies strictly inside; then it keeps the end
    whose f is closer to x, lo on a tie. However wide the interval, two
    adjacent doubles are reached within 1076 halvings. A level 0 is never
    bisected: it keeps parameter 0, the point mass. Takes a 1-D array of
    levels and returns spectra shaped (n, 4); the levels run as one stack,
    each with the bits it has alone.
    """
    lo, hi = np.zeros_like(x), np.full_like(x, top)
    live = np.flatnonzero(x > 0.0)
    while True:
        mid = 0.5 * (lo[live] + hi[live])
        inside = (mid > lo[live]) & (mid < hi[live])
        live, mid = live[inside], mid[inside]
        if live.size == 0:
            break
        below = f(family(mid)) < x[live]
        lo[live[below]] = mid[below]
        hi[live[~below]] = mid[~below]
    closer = np.abs(f(family(hi)) - x) < np.abs(f(family(lo)) - x)
    return family(np.where(closer, hi, lo))


def spectrum_at_f(kind: str, x) -> np.ndarray:
    """Werner spectrum (1 - 3t, t, t, t) with f_kind = x, by _on_level on t in [0, 1/4].

    Every kind's f rises along the Werner line from 0 at the point mass to
    c_max(kind, 4) at the uniform spectrum, so each level is met once.
    Levels beyond [0, c_max(kind, 4)] by more than 1e-12, or NaN, raise
    DomainError; the others are clipped into it. Takes a scalar or an
    array x: a scalar gives the spectrum with its zero components dropped,
    an array its spectra padded with zeros, shaped x.shape + (4,).
    """
    f = kind_of(kind).f
    levels = _check_domain(x, 0.0, c_max(kind, 4), "x")
    q = _on_level(f, _isotropic, 0.25, levels.ravel())
    if levels.ndim == 0:
        return q[0][q[0] > 0.0]
    return q.reshape(levels.shape + (4,))

# ---------------------------------------------------------------------------
# g4: infimum of s22 over an iso-correlation slice
# ---------------------------------------------------------------------------

def optimal_slice_spectrum(kind: str, x) -> np.ndarray:
    """Spectra minimizing s22 on the slices f(p) = x of a kind with a closed
    form y(x), padded with zeros and shaped x.shape + (4,).

    With p1 = 1 - y fixed by the slice, the minimizer is (1 - y, y) for
    y <= 1/2 (the point mass at y = 0), (1 - y, 1 - y, 2y - 1) up to
    y = 2/3 and (1 - y, 1 - y, 1 - y, 3y - 2) beyond, the three pieces of u.
    """
    y = _y_of_x(kind, x)[..., None]
    top, zero = 1.0 - y, np.zeros_like(y)
    first = np.concatenate([top, y, zero, zero], axis=-1)
    second = np.concatenate([top, top, 2.0 * y - 1.0, zero], axis=-1)
    third = np.concatenate([top, top, top, 3.0 * y - 2.0], axis=-1)
    return np.where(y <= 0.5, first, np.where(y <= 2.0 / 3.0, second, third))


# The corners u_k = (1, ..., 1, 0, ...) / k of the ordered tetrahedron, with
# their tails y_k = 1 - 1/k, and its six edges (u_a, u_b).
_CORNERS = np.tril(np.ones((4, 4))) / np.arange(1.0, 5.0)[:, None]
_TAILS = 1.0 - 1.0 / np.arange(1.0, 5.0)
_EDGE_A, _EDGE_B = np.triu_indices(4, 1)


def _g4_distance(kind: str, x: np.ndarray) -> np.ndarray:
    """Best edge crossing of the slice p1 = 1 - y(x), per level; the cap is
    convex, so its maximum on the slice lies at a crossing (g_d_numeric).
    Edge (u_a, u_b) is crossed at t = (y - y_a) / (y_b - y_a) if 0 <= t <= 1,
    taken in the tail y so that the crossing lies on its slice to rounding.
    Takes a 1-D array of levels and returns their spectra padded with
    zeros, shaped (n, 4).
    """
    y = _y_of_x(kind, x)[:, None]
    t = (y - _TAILS[_EDGE_A]) / (_TAILS[_EDGE_B] - _TAILS[_EDGE_A])
    u_a, u_b = _CORNERS[_EDGE_A], _CORNERS[_EDGE_B]
    # t is clipped so that no crossing off its edge takes sqrt of a negative
    p = u_a + np.clip(t, 0.0, 1.0)[..., None] * (u_b - u_a)
    cap = np.where((t >= 0.0) & (t <= 1.0), _max_concurrence(p), -np.inf)
    return p[np.arange(y.shape[0]), np.argmax(cap, axis=1)]


def _g4_mutual_information(x: np.ndarray) -> np.ndarray:
    """Spectra with the largest concurrence cap on the slices 2 H(p) = x.

    On the face p4 = 0 the cap p1 - p3 is linear and {H >= h} is convex,
    so its maximum on H = h is the Lagrange point ln p1 - ln p2 =
    ln p2 - ln p3: the geometric spectrum, which exists for h <= ln 3.
    The other candidate is the isotropic line (1 - 3t, t, t, t). The better
    of the two is the optimum of the slice, the isotropic one on a tie; the
    test suite checks this against a dense (p2, p4) grid, on both sides of
    the switch near x = 2.055. Takes a 1-D array of levels and returns
    their spectra padded with zeros, shaped (n, 4).
    """
    best = _on_level(_f_mutual_information, _isotropic, 0.25, x)
    face = x <= 2.0 * math.log(3.0)
    geometric = _on_level(_f_mutual_information, _geometric, 1.0, x[face])
    better = _max_concurrence(geometric) > _max_concurrence(best[face])
    best[face] = np.where(better[:, None], geometric, best[face])
    return best


def g_d_numeric(kind: str, x):
    """Infimum of s22 over the two-qubit spectra with correlation value x.

    The internal system is two qubits, so the spectra have 4 entries and
    x lies in [0, c_max(kind, 4)]. Takes a scalar or an array x, as xi_ef
    does. The slice solver of the kind returns a spectrum p on the slice
    f(p) = x, and the value is s22_ef(p). Both solvers are exact, and
    being attained by a feasible point, the value can only err high, by
    rounding.

    A kind with a closed form y(x) in its row (the distance measures) takes
    the edge solver, the others the two families. For the distance
    measures the slice p1 = 1 - y is the convex hull of its crossings with
    the six edges of the tetrahedron of ordered spectra, whose corners are
    the uniform k-spectra, and the concurrence cap p1 - p3 - 2 sqrt(p2 p4)
    is convex, so it is largest at a crossing; the solver takes the best
    crossing. It uses neither u nor optimal_slice_spectrum, so it checks
    the closed form independently. For the mutual information the slice
    is 2 H(p) = x, and the cap is largest either at the geometric spectrum
    on the face p4 = 0 or on the isotropic line (1 - 3t, t, t, t); each of
    the two families meets the slice once, found by bisection.
    """
    row = kind_of(kind)
    levels = _check_domain(x, 0.0, c_max(kind, 4), "x")
    flat = levels.ravel()
    p = _g4_distance(kind, flat) if row.y is not None else _g4_mutual_information(flat)
    return _scalar_like(x, _s22(p).reshape(levels.shape))


# ---------------------------------------------------------------------------
# Curve sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundCurve:
    """Sampled nonincreasing bound curve on [0, x_max]."""

    kind: str
    xs: np.ndarray = field(repr=False)
    bounds: np.ndarray = field(repr=False)


def bound_curve(kind: str, grid: int = 201) -> BoundCurve:
    """Sample the bound curve on an equally spaced grid including endpoints.

    Every point is one call on the whole grid. Kinds with a closed form
    y(x) in their row (the distance kinds) sample xi on [0, c_max(kind, 4)].
    The others (the mutual information) sample the classical-classical
    curve zeta_ef on [0, c_max(cc_kind, 4) / scale], from the row's
    cc = (cc_kind, scale): for the mutual information zeta(x) = xi(2x) on
    [0, ln 4], where no closed form exists and xi(x) = ln 2 -
    g_d_numeric(x), from the exact slice solver at each point's own level.
    The value at each point is s22_ef of a spectrum on its slice, so the
    curve never lies above the true one. The values are returned as xi_ef
    gives them; the test suite checks that they do not increase.
    """
    row = kind_of(kind)
    grid = _check_index(grid, "grid")
    if grid < 2:
        raise DomainError("grid must have at least 2 points")
    if row.y is not None:
        xs = np.linspace(0.0, c_max(kind, 4), grid)
        return BoundCurve(row.name, xs, xi_ef(kind, xs))
    cc_kind, scale = _cc_of(kind)
    xs = np.linspace(0.0, c_max(cc_kind, 4) / scale, grid)
    return BoundCurve(row.name, xs, zeta_ef(kind, xs))
