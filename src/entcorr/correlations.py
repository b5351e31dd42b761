"""Correlation monotones between a system and its surroundings.

Every fact that differs between the correlation kinds lives in one place,
the KINDS registry at the end: one row per MonotoneKind (see Kind). Adding
a kind means adding a row; no other code dispatches on kind names.

Mutual information is evaluated exactly. The Bures and Hellinger
distance-to-product-states measures have closed forms on pure states,
driven by the spectral functions f below. A row's ``cc`` states the
correlation of the strictly correlated classical-classical states through
the f of a kind. For arbitrary states the distance to the product
states is solved exactly where the mathematics allows: for Hellinger on
every target, from one SVD of the realigned sqrt(rho), and for Bures on
pure targets, from the top Schmidt pair. Bures on mixed targets stays
iterative: monotone ascents of the root fidelity from the marginals, from
maximally mixed factors and from random full-rank factors. Their best
value is attained by a product state, so it errs high. Every solver
returns the product state it attains.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .qcore import (
    DomainError,
    _check_index,
    _check_split,
    _distance,
    _entropy,
    _on_support,
    _partial_trace,
    _probabilities,
    _sqrt_psd,
    random_density,
    schmidt,
    validate_density_matrix,
    validate_spectrum,
    worker_rng,
)


class MonotoneKind(str, Enum):
    MUTUAL_INFORMATION = "mutual_information"
    BURES = "bures"
    HELLINGER = "hellinger"


@dataclass(frozen=True)
class Kind:
    """One row of the KINDS registry: what differs between the kinds.

    - ``f``: the correlation of a pure state as a function of its marginal
      spectrum, on spectra padded with zeros and shaped (..., k); unchecked.
    - ``y``: y(x) of the closed-form bound curve xi(x) = u(y(x)); None where
      the curve is solved numerically.
    - ``cc``: (cc_kind, scale): the strictly correlated classical-classical
      (CC) state with spectrum p has correlation f~(p) = f_cc_kind(p) / scale,
      so this kind's CC curve is zeta(x) = xi_cc_kind(scale x); None where no
      closed form is known.
    - ``closest``: (rho, w, v, d_a, d_b, restarts, rng) -> (distance,
      sigma_A, sigma_B) on unchecked inputs, with w and v the eigh of rho
      that its validator returns: the distance to the product states and
      a product state attaining it; None for a kind that is no distance.

    The rest is derived: c_max(kind, d) is f at the uniform d-spectrum, the
    threshold of the closed-form curve is c_max(kind, 3), and the CC curve
    zeta_ef, the ccbound grid and the bound curve of a row without y come
    from cc.
    """

    name: str
    f: Callable[[np.ndarray], np.ndarray]
    y: Callable[[np.ndarray], np.ndarray] | None = None
    cc: tuple[str, float] | None = None
    closest: Callable | None = None


def kind_of(kind) -> Kind:
    """The registry row of a kind given as a member or as its value."""
    try:
        return KINDS[kind]
    except (KeyError, TypeError):
        raise DomainError(f"unknown correlation kind {kind!r}") from None


# ---------------------------------------------------------------------------
# Spectral functions
# ---------------------------------------------------------------------------

# The distance kinds' f is sqrt(2 - 2a) at the affinity a = sqrt(p1) (Bures)
# or p1 (Hellinger) of the closest product state. Both are taken from the
# tail sum_{i>=2} p_i = 1 - p1, as 2 (1 - sqrt(p1)) = 2 tail / (1 + sqrt(p1)),
# which does not cancel near the product states, where p1 -> 1. For one
# spectrum they return numpy scalars, as _concurrence_eig does.

def _f_bures(p: np.ndarray) -> np.ndarray:
    return np.sqrt(2.0 * p[..., 1:].sum(axis=-1) / (1.0 + np.sqrt(p[..., 0])))


def _f_hellinger(p: np.ndarray) -> np.ndarray:
    return np.sqrt(2.0 * p[..., 1:].sum(axis=-1))


def _f_mutual_information(p: np.ndarray) -> np.ndarray:
    return 2.0 * _entropy(p)


def f_value(kind, p) -> float:
    return float(kind_of(kind).f(validate_spectrum(p)))


def c_max(kind, d: int) -> float:
    """Largest correlation value on a d-dimensional system: f at uniform."""
    row = kind_of(kind)
    d = _check_index(d, "d")
    if d < 1:
        raise DomainError("need d >= 1")
    return float(row.f(np.full(d, 1.0 / d))) + 0.0  # no -0.0 at d = 1


# ---------------------------------------------------------------------------
# Exact evaluations
# ---------------------------------------------------------------------------

def mutual_information(rho, split) -> float:
    """S(rho_A) + S(rho_B) - S(rho) across the given A:B cut, in nats."""
    rho, w, _ = validate_density_matrix(rho)
    d1, d2 = _check_split(rho.shape[0], split)
    s_a, s_b, s_ab = (_entropy(_probabilities(ev[::-1])) for ev in (
        np.linalg.eigvalsh(_partial_trace(rho, d1, d2, 1)),
        np.linalg.eigvalsh(_partial_trace(rho, d1, d2, 2)), w))
    return float(max(0.0, s_a + s_b - s_ab))


def c_on_pure(psi, split, kind) -> float:
    """Exact correlation of a pure state: f at its Schmidt spectrum."""
    return float(kind_of(kind).f(schmidt(psi, split)))


# ---------------------------------------------------------------------------
# Numeric infimum over product states
# ---------------------------------------------------------------------------

def _hellinger_closest(rho: np.ndarray, w: np.ndarray, v: np.ndarray, d_a: int, d_b: int, *_):
    """Exact Hellinger distance to the product states, with a product state
    attaining it. Further arguments (the search budget of the Bures oracle)
    are ignored.

    For sigma = sigma_A x sigma_B, sqrt(sigma) = X x Y with ||X||_F =
    ||Y||_F = 1, and the affinity tr(sqrt(rho) (X x Y)) = vec(X^T)^T R vec(Y^T)
    is bilinear in the realignment R[(i,k),(j,l)] = sqrt(rho)[(i,j),(k,l)],
    so it is at most s1, the largest singular value of R. Since
    sqrt(rho) >= 0, R maps vec(Y^T) to vec(tr_B[sqrt(rho) (1 x Y)]), which is
    PSD for PSD Y, and R^dagger maps back through tr_A in the same way, so
    R^dagger R keeps the PSD cone. Power iteration of R^dagger R from the
    identity therefore stays PSD, and its limit, the projection of the
    identity onto the top right-singular subspace, is a PSD Y^T attaining
    s1; this holds for a degenerate s1 as well.

    The distance sqrt(2 - 2 s1) is taken as _distance_sv(s), which does not
    cancel at a product target, where s1 = 1. Singular values within 1e-12
    s1 count as one subspace. For a relative gap below s1 between 1e-12 and
    1e-8 the value stays exact, but the SVD resolves the top vector only to
    about 1e-16 / gap, and the witness's distance can miss the value by up
    to 1.55e-8.
    """
    r = _sqrt_psd(w, v).reshape(d_a, d_b, d_a, d_b).transpose(0, 2, 1, 3)
    r = r.reshape(d_a * d_a, d_b * d_b)
    _, s, vh = np.linalg.svd(r, full_matrices=False)
    top = vh[s >= s[0] * (1.0 - 1e-12)]  # rounding splits a degenerate s1
    yt = top.conj().T @ (top @ np.eye(d_b).ravel())
    x = (r @ yt).reshape(d_a, d_a)
    sigma_a, sigma_b = (_square_unit(m) for m in (x, yt.reshape(d_b, d_b).T))
    return _distance_sv(s), sigma_a, sigma_b


def _distance_sv(s: np.ndarray):
    """sqrt(2 - 2 s1) from the decreasing singular values s of a matrix of
    unit Frobenius norm, as sqrt((1 - s1)^2 + sum_{i>=2} s_i^2): the two are
    equal since sum_i s_i^2 = 1, and the second does not cancel at s1 = 1."""
    return np.sqrt((1.0 - s[0]) ** 2 + s[1:] @ s[1:])


def _square_unit(m: np.ndarray) -> np.ndarray:
    """The state with square root proportional to the Hermitian part of m."""
    h = (m + m.conj().T) / 2.0
    sigma = h @ h
    return sigma / np.trace(sigma).real


def _bures_value_grad(sqrt_rho: np.ndarray, sigma: np.ndarray):
    """Root fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)) and twice its gradient
    in sigma, G = sqrt(rho) (sqrt(rho) sigma sqrt(rho))^(-1/2) sqrt(rho) (the
    inverse root taken on the support), for each sigma of a stack shaped
    (n, d, d); one batched eigh."""
    w, vmat = np.linalg.eigh(sqrt_rho @ sigma @ sqrt_rho)
    root = np.sqrt(_on_support(w))
    inv_root = np.divide(1.0, root, out=np.zeros_like(root), where=root > 0.0)
    half = sqrt_rho @ vmat
    return root.sum(axis=-1), (half * inv_root[:, None, :]) @ half.conj().swapaxes(-1, -2)


def _kron(sigma_a: np.ndarray, sigma_b: np.ndarray) -> np.ndarray:
    """np.kron of each pair of two stacks, shaped (n, d_a, d_a) and (n, d_b, d_b)."""
    n, d_a, d_b = len(sigma_a), sigma_a.shape[-1], sigma_b.shape[-1]
    prod = sigma_a[:, :, None, :, None] * sigma_b[:, None, :, None, :]
    return prod.reshape(n, d_a * d_b, d_a * d_b)


def _hradil_step(r: np.ndarray, cur: np.ndarray, e: np.ndarray) -> np.ndarray:
    """R cur R^dagger / tr with R = I + e r, Hermitian part; stacks of r and cur."""
    step = np.eye(r.shape[-1]) + e[:, None, None] * r
    trial = step @ cur @ step.conj().swapaxes(-1, -2)
    norm = 2.0 * np.trace(trial, axis1=-2, axis2=-1).real
    return (trial + trial.conj().swapaxes(-1, -2)) / norm[:, None, None]


def _polish_bures_mixed(sqrt_rho: np.ndarray, sigma_a, sigma_b, iters: int = 200):
    """Monotone alternating ascents for a mixed target, one chain per pair
    of the stacks sigma_a (n, d_A, d_A) and sigma_b (n, d_B, d_B). Returns
    the stacks reached and their root fidelities.

    For fixed sigma_B the root fidelity is concave in sigma_A with gradient
    tr_B[G (I x sigma_B)] / 2, and symmetrically for sigma_B. A sweep steps
    sigma_A, then sigma_B. Each factor takes a diluted Hradil step
    sigma <- R sigma R / tr with R = I + eps R_grad, accepted only if the
    affinity strictly rises and otherwise retried with eps halved; an
    accepted step doubles the factor's eps for the next sweep, and the
    factor gives up, keeping its eps, once eps <= 1e-12 or once a failed
    trial ties the current affinity up to rounding, val - new <= 1e-15 val.
    A chain stops when a sweep gains at most 1e-15, or after ``iters`` >= 1
    sweeps. Each value returned is the root fidelity of the pair returned,
    so its distance errs high.

    Every round makes one trial on each chain still climbing, and all
    trials share one batched eigh. Every operation acts on each chain
    alone, so a chain's trials and result are those of its solo run.
    """
    d_a, d_b = sigma_a.shape[-1], sigma_b.shape[-1]
    sigma_a, sigma_b = sigma_a.copy(), sigma_b.copy()
    val, grad = _bures_value_grad(sqrt_rho, _kron(sigma_a, sigma_b))
    out_a, out_b, out_val = np.empty_like(sigma_a), np.empty_like(sigma_b), np.empty_like(val)
    # the chains still climbing, in order; every array below holds one row per chain
    chain = np.arange(val.size)
    eps_a, eps_b, e = np.ones(chain.size), np.ones(chain.size), np.ones(chain.size)
    on_a, sweeps, start = np.ones(chain.size, dtype=bool), np.zeros(chain.size, dtype=int), val
    while chain.size:
        # eps only grows by doubling an e > 1e-12, so each side makes a trial
        on_b = ~on_a
        g4 = grad.reshape(-1, d_a, d_b, d_a, d_b)
        trial_a, trial_b = sigma_a.copy(), sigma_b.copy()
        if on_a.any():
            r = np.einsum("nijkl,nlj->nik", g4[on_a], sigma_b[on_a])
            trial_a[on_a] = _hradil_step(r, sigma_a[on_a], e[on_a])
        if on_b.any():
            r = np.einsum("nijkl,nki->njl", g4[on_b], sigma_a[on_b])
            trial_b[on_b] = _hradil_step(r, sigma_b[on_b], e[on_b])
        new, new_grad = _bures_value_grad(sqrt_rho, _kron(trial_a, trial_b))
        ok = new > val
        tie = val - new <= 1e-15 * val  # a failed trial within rounding of val
        sigma_a[ok], sigma_b[ok], grad[ok] = trial_a[ok], trial_b[ok], new_grad[ok]
        val = np.where(ok, new, val)
        eps_a = np.where(ok & on_a, 2.0 * e, eps_a)
        eps_b = np.where(ok & on_b, 2.0 * e, eps_b)
        e = np.where(ok, e, 0.5 * e)
        ended = ok | (e <= 1e-12) | tie
        swept = ended & on_b
        sweeps = sweeps + swept
        stop = swept & ((val <= start + 1e-15) | (sweeps >= iters))
        start = np.where(swept, val, start)
        on_a = on_a ^ ended
        e = np.where(ended, np.where(on_a, eps_a, eps_b), e)
        if stop.any():
            done = chain[stop]
            out_a[done], out_b[done], out_val[done] = sigma_a[stop], sigma_b[stop], val[stop]
            keep = ~stop
            chain, sigma_a, sigma_b, val, grad = (
                chain[keep], sigma_a[keep], sigma_b[keep], val[keep], grad[keep])
            eps_a, eps_b, e, on_a, sweeps, start = (
                eps_a[keep], eps_b[keep], e[keep], on_a[keep], sweeps[keep], start[keep])
    return out_a, out_b, out_val


def _bures_closest(rho: np.ndarray, w: np.ndarray, v: np.ndarray, d_a: int, d_b: int,
                   restarts: int, rng: np.random.Generator):
    """Bures distance from rho = v diag(w) v^dagger to the product states,
    with the product state (sigma_A, sigma_B) that attains it. Inputs are
    not validated.

    On a pure target |psi> it is exact: the root fidelity with
    sigma_A x sigma_B is at most the top Schmidt coefficient of psi,
    attained by its top Schmidt pair. On a mixed target it keeps the best
    of ``restarts`` ascents, from the marginals of rho, from maximally mixed
    factors and from full-rank random factors, drawn from ``rng`` as
    random_density(d_A) then random_density(d_B) for each later restart;
    starts are full rank because a Hradil step R sigma R^dagger keeps the
    rank. The ascents run as one stack, each with the trials of its solo
    run, and the first of equal best values is kept. ``restarts`` and
    ``rng`` act on this case only.
    """
    if np.trace(rho @ rho).real > 1.0 - 1e-12:
        psi = v[:, -1].reshape(d_a, d_b)
        u, s, vh = np.linalg.svd(psi)
        sigma_a, sigma_b = np.outer(u[:, 0], u[:, 0].conj()), np.outer(vh[0], vh[0].conj())
        return _distance_sv(s), sigma_a, sigma_b
    starts_a = [_partial_trace(rho, d_a, d_b, 1), np.eye(d_a) / d_a]
    starts_b = [_partial_trace(rho, d_a, d_b, 2), np.eye(d_b) / d_b]
    for _ in range(2, restarts):
        starts_a.append(random_density(d_a, d_a, rng))
        starts_b.append(random_density(d_b, d_b, rng))
    sigma_a, sigma_b, aff = _polish_bures_mixed(
        _sqrt_psd(w, v),
        np.array(starts_a[:restarts], dtype=complex),
        np.array(starts_b[:restarts], dtype=complex),
    )
    best = int(np.argmax(aff))
    return _distance(aff[best]), sigma_a[best], sigma_b[best]


def c_distance_numeric(
    rho,
    split,
    kind,
    restarts: int = 10,
    rng: np.random.Generator | None = None,
) -> float:
    """Distance from rho to the product-state set, attained by a product state.

    Hellinger is exact on every target: sqrt(2 (1 - s1)), with s1 the
    largest singular value of the realigned sqrt(rho). Bures is exact on
    pure targets: sqrt(2 (1 - s1)), with s1 the top Schmidt coefficient.
    Both take it as sqrt((1 - s1)^2 + sum_{i>=2} s_i^2) over all singular
    values s_i, which is equal since sum_i s_i^2 = 1, and reads 0 to
    rounding at a product target, where the first form cancels.
    Bures on mixed targets runs ``restarts`` monotone ascents of the root
    fidelity (diluted Hradil steps; a factor gives up once its step is at
    most 1e-12 or a failed trial ties the current fidelity within 1e-15
    relative), the first from the marginals of rho, the second from
    maximally mixed factors, the rest from full-rank random factors drawn
    from ``rng``, and returns the best. The ascents run as one stack, and
    each makes the trials of its solo run, so the value does not depend on
    how many run beside it. That value is attained by a product
    state, so it errs high: never below the true infimum; the objective is
    not jointly concave in the two factors, and the random starts reach
    basins that the two fixed starts miss. ``restarts`` and ``rng`` act on
    Bures mixed targets only.
    """
    row = kind_of(kind)
    if row.closest is None:
        raise DomainError(f"kind {row.name!r} is not a distance to the product states")
    rho, w, v = validate_density_matrix(rho)
    d_a, d_b = _check_split(rho.shape[0], split)
    if d_a * d_b > 64:
        raise DomainError("supported up to total dimension 64")
    if restarts < 1:
        raise DomainError("need restarts >= 1")
    rng = worker_rng(0, 0) if rng is None else rng
    return float(row.closest(rho, w, v, d_a, d_b, restarts, rng)[0])


# ---------------------------------------------------------------------------
# Kind registry
# ---------------------------------------------------------------------------

KINDS = {
    row.name: row
    for row in (
        Kind("mutual_information", _f_mutual_information, cc=("mutual_information", 2.0)),
        Kind("bures", _f_bures, y=lambda x: x * x - x ** 4 / 4.0, closest=_bures_closest),
        Kind("hellinger", _f_hellinger, y=lambda x: x * x / 2.0, cc=("bures", 1.0),
             closest=_hellinger_closest),
    )
}
