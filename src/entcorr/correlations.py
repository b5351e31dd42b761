"""Correlation monotones between a system and its surroundings.

Mutual information is evaluated exactly. The Bures and Hellinger
distance-to-product-states measures have closed forms on pure states and
on strictly correlated classical-classical states, driven by the spectral
functions f below. For arbitrary states the distance to the product
states is solved exactly where the mathematics allows: for Hellinger on
every target, from one SVD of the realigned sqrt(rho), and for Bures on
pure targets, from the top Schmidt pair. Bures on mixed targets stays
iterative: monotone ascents of the root fidelity from the marginals, from
maximally mixed factors and from random full-rank factors. Their best
value is attained by a product state, so it errs high. Every solver
returns the product state it attains.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .qcore import (
    TOL_SUPPORT,
    DomainError,
    matrix_sqrt_psd,
    partial_trace,
    random_density,
    schmidt,
    split_dims,
    validate_density_matrix,
    validate_spectrum,
    von_neumann_entropy,
    worker_rng,
)


class MonotoneKind(str, Enum):
    MUTUAL_INFORMATION = "mutual_information"
    BURES = "bures"
    HELLINGER = "hellinger"


def as_kind(kind) -> str:
    """The plain string value of a kind given as a member or as its value."""
    try:
        return MonotoneKind(kind).value
    except ValueError:
        raise DomainError(f"unknown correlation kind {kind!r}") from None


# ---------------------------------------------------------------------------
# Spectral functions
# ---------------------------------------------------------------------------

def _f(kind: str, p: np.ndarray) -> np.ndarray:
    """f of the kind for spectra padded with zeros, shaped (..., k); unchecked."""
    p1 = p.T[0].T  # a numpy scalar for one spectrum, as in measures._concurrence
    if kind == "bures":
        return np.sqrt(np.maximum(0.0, 2.0 * (1.0 - np.sqrt(p1))))
    if kind == "hellinger":
        return np.sqrt(np.maximum(0.0, 2.0 * (1.0 - p1)))
    return -2.0 * (p * np.log(np.where(p > 0.0, p, 1.0))).sum(axis=-1)


def f_db(p) -> float:
    """sqrt(2 (1 - sqrt(p1))): Bures correlation of a pure state."""
    return float(_f("bures", validate_spectrum(p)))


def f_dh(p) -> float:
    """sqrt(2 (1 - p1)): Hellinger correlation of a pure state."""
    return float(_f("hellinger", validate_spectrum(p)))


def f_mi(p) -> float:
    """2 h(p): mutual information of a pure state with marginal spectrum p."""
    return float(_f("mutual_information", validate_spectrum(p)))


def f_value(kind, p) -> float:
    kind = as_kind(kind)
    if kind == "bures":
        return f_db(p)
    if kind == "hellinger":
        return f_dh(p)
    return f_mi(p)


def f_tilde(kind, p) -> float:
    """Correlation of the strictly correlated CC state with spectrum p.

    Known for the Hellinger measure (where it equals f_db) and the mutual
    information (the Shannon entropy); no closed form exists for Bures.
    """
    kind = as_kind(kind)
    if kind == "hellinger":
        return f_db(p)
    if kind == "mutual_information":
        p = validate_spectrum(p)
        return float(-(p * np.log(p)).sum())
    raise DomainError("f_tilde is not available for the Bures measure")


def c_max(kind, d: int) -> float:
    """Largest correlation value on a d-dimensional system: f at uniform."""
    kind = as_kind(kind)
    if d < 1:
        raise DomainError("need d >= 1")
    if kind == "bures":
        return math.sqrt(2.0 * (1.0 - 1.0 / math.sqrt(d)))
    if kind == "hellinger":
        return math.sqrt(2.0 * (1.0 - 1.0 / d))
    return 2.0 * math.log(d)


# ---------------------------------------------------------------------------
# Exact evaluations
# ---------------------------------------------------------------------------

def mutual_information(rho, split) -> float:
    """S(rho_A) + S(rho_B) - S(rho) across the given A:B cut, in nats."""
    d1, d2 = split_dims(split)
    rho = validate_density_matrix(rho)
    if rho.shape[0] != d1 * d2:
        raise DomainError(f"state dimension {rho.shape[0]} does not match split {(d1, d2)}")
    s_a = von_neumann_entropy(partial_trace(rho, (d1, d2), keep=1))
    s_b = von_neumann_entropy(partial_trace(rho, (d1, d2), keep=2))
    return float(max(0.0, s_a + s_b - von_neumann_entropy(rho)))


def c_on_pure(psi, split, kind) -> float:
    """Exact correlation of a pure state: f at its Schmidt spectrum."""
    return f_value(kind, schmidt(psi, split))


# ---------------------------------------------------------------------------
# Numeric infimum over product states
# ---------------------------------------------------------------------------

def _hellinger_closest(rho: np.ndarray, d_a: int, d_b: int):
    """Exact Hellinger distance to the product states, with a product state
    attaining it.

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
    """
    r = matrix_sqrt_psd(rho).reshape(d_a, d_b, d_a, d_b).transpose(0, 2, 1, 3)
    r = r.reshape(d_a * d_a, d_b * d_b)
    _, s, vh = np.linalg.svd(r)
    top = vh[s >= s[0] * (1.0 - 1e-12)]  # rounding splits a degenerate s1
    yt = top.conj().T @ (top @ np.eye(d_b).ravel())
    x = (r @ yt).reshape(d_a, d_a)
    sigma_a, sigma_b = (_square_unit(m) for m in (x, yt.reshape(d_b, d_b).T))
    return _distance(s[0]), sigma_a, sigma_b


def _distance(affinity: float) -> float:
    """sqrt(2 - 2 affinity): the Bures or Hellinger distance of an affinity."""
    return float(math.sqrt(max(0.0, 2.0 - 2.0 * affinity)))


def _square_unit(m: np.ndarray) -> np.ndarray:
    """The state with square root proportional to the Hermitian part of m."""
    h = (m + m.conj().T) / 2.0
    sigma = h @ h
    return sigma / np.trace(sigma).real


def _bures_value_grad(sqrt_rho: np.ndarray, sigma: np.ndarray):
    """Root fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)) and twice its gradient
    in sigma, G = sqrt(rho) (sqrt(rho) sigma sqrt(rho))^(-1/2) sqrt(rho) (the
    inverse root taken on the support)."""
    w, vmat = np.linalg.eigh(sqrt_rho @ sigma @ sqrt_rho)
    root = np.sqrt(np.where(w > TOL_SUPPORT * w[-1], w, 0.0))
    inv_root = np.divide(1.0, root, out=np.zeros_like(root), where=root > 0.0)
    half = sqrt_rho @ vmat
    return float(root.sum()), (half * inv_root) @ half.conj().T


def _polish_bures_mixed(sqrt_rho: np.ndarray, sigma_a, sigma_b, iters: int = 200):
    """Monotone alternating ascent for a mixed target.

    For fixed sigma_B the root fidelity is concave in sigma_A with gradient
    tr_B[G (I x sigma_B)] / 2, and symmetrically for sigma_B. Each factor
    takes a diluted Hradil step sigma <- R sigma R / tr with R = I + eps R_grad,
    accepted only if the affinity rises and otherwise retried with eps halved;
    an accepted step doubles the factor's eps for the next sweep.
    """
    d_a, d_b = sigma_a.shape[0], sigma_b.shape[0]
    val, grad = _bures_value_grad(sqrt_rho, np.kron(sigma_a, sigma_b))
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
                new, new_grad = _bures_value_grad(sqrt_rho, np.kron(*pair))
                if new > val:
                    sigma_a, sigma_b = pair
                    val, grad = new, new_grad
                    eps[side] = 2.0 * e
                    break
                e *= 0.5
        if val <= start + 1e-15:
            break
    return sigma_a, sigma_b, val


def _closest_product(rho: np.ndarray, d_a: int, d_b: int, kind: str, restarts: int,
                     rng: np.random.Generator):
    """Distance from rho to the product states, with the product state
    (sigma_A, sigma_B) that attains it. Inputs are not validated.

    Hellinger is exact on every target (one SVD, see _hellinger_closest).
    Bures on a pure target |psi> is exact too: the root fidelity with
    sigma_A x sigma_B is at most the top Schmidt coefficient of psi,
    attained by its top Schmidt pair. Bures on a mixed target keeps the
    best of ``restarts`` ascents, from the marginals of rho, from maximally
    mixed factors and from full-rank random factors drawn from ``rng``;
    starts are full rank because a Hradil step R sigma R^dagger keeps the
    rank. ``restarts`` and ``rng`` act on this case only.
    """
    if kind == "hellinger":
        return _hellinger_closest(rho, d_a, d_b)
    if np.trace(rho @ rho).real > 1.0 - 1e-12:
        psi = np.linalg.eigh(rho)[1][:, -1].reshape(d_a, d_b)
        u, s, vh = np.linalg.svd(psi)
        sigma_a, sigma_b = np.outer(u[:, 0], u[:, 0].conj()), np.outer(vh[0], vh[0].conj())
        return _distance(s[0]), sigma_a, sigma_b
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
        sigma_a, sigma_b, aff = _polish_bures_mixed(sqrt_rho, sigma_a, sigma_b)
        if aff > best[0]:
            best = (aff, sigma_a, sigma_b)
    aff, sigma_a, sigma_b = best
    return _distance(aff), sigma_a, sigma_b


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
    Bures on mixed targets runs ``restarts`` monotone ascents of the root
    fidelity (diluted Hradil steps), the first from the marginals of rho,
    the second from maximally mixed factors, the rest from full-rank random
    factors drawn from ``rng``, and returns the best. That value is attained
    by a product state, so it errs high: never below the true infimum; the
    objective is not jointly concave in the two factors, and the random
    starts reach basins that the two fixed starts miss. ``restarts`` and
    ``rng`` act on Bures mixed targets only.
    """
    kind = as_kind(kind)
    if kind == "mutual_information":
        raise DomainError("the distance search applies to bures and hellinger only")
    d_a, d_b = split_dims(split)
    rho = validate_density_matrix(rho)
    if rho.shape[0] != d_a * d_b:
        raise DomainError(f"state dimension {rho.shape[0]} does not match split {(d_a, d_b)}")
    if d_a * d_b > 64:
        raise DomainError("supported up to total dimension 64")
    if restarts < 1:
        raise DomainError("need restarts >= 1")
    if rng is None:
        rng = worker_rng(0, 0)
    return _closest_product(rho, d_a, d_b, kind, restarts, rng)[0]
