"""Correlation monotones between a system and its surroundings.

Mutual information is evaluated exactly. The Bures and Hellinger
distance-to-product-states measures have closed forms on pure states and
on strictly correlated classical-classical states, driven by the spectral
functions f below. For arbitrary states, exact alternating ascents of the
affinity over product states (a closed-form factor update for Hellinger
and for Bures on pure targets, a monotone Hradil step for Bures on mixed
targets) run from the marginals, from maximally mixed factors and from
random full-rank factors. The best value is attained by a product state,
so it is an upper bound on the infimum: it errs high. The objective is not
jointly concave in the two factors, which is why random starts remain.
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

class _Affinity:
    """tr-overlap objective whose maximization minimizes the distance.

    Bures: affinity = tr sqrt(sqrt(rho) sigma sqrt(rho)); Hellinger:
    affinity = tr(sqrt(rho) sqrt(sigma)). Both give D = sqrt(2 - 2 aff).
    For a pure rho = |psi><psi| the affinities reduce to quadratic forms
    in psi, which the ascents exploit. ``prep`` maps a factor state to the
    variable an ascent works on: its square root for Hellinger, the state
    itself for Bures.
    """

    def __init__(self, rho: np.ndarray, d_a: int, d_b: int, kind: str):
        self.kind = kind
        self.d_a, self.d_b = d_a, d_b
        pur = np.trace(rho @ rho).real
        self.pure = pur > 1.0 - 1e-12
        if self.pure:
            w, vmat = np.linalg.eigh(rho)
            self.psi_mat = vmat[:, -1].reshape(d_a, d_b)
        else:
            self.sqrt_rho = matrix_sqrt_psd(rho)
            self.sqrt_rho4 = self.sqrt_rho.reshape(d_a, d_b, d_a, d_b)

    def prep(self, delta: np.ndarray) -> np.ndarray:
        if self.kind == "hellinger":
            return matrix_sqrt_psd(delta)
        return delta

    def value(self, prep_a: np.ndarray, prep_b: np.ndarray) -> float:
        if self.kind == "hellinger":
            if self.pure:
                m = self.psi_mat
                return float(np.vdot(m, prep_a @ m @ prep_b.T).real)
            return float(np.einsum("ijkl,ki,lj->", self.sqrt_rho4, prep_a, prep_b).real)
        m = self.psi_mat  # mixed Bures targets go through _bures_value_grad
        overlap = np.vdot(m, prep_a @ m @ prep_b.T).real
        return float(math.sqrt(max(0.0, overlap)))


def _positive_part_unit(h: np.ndarray) -> np.ndarray | None:
    """H_+ / ||H_+||_F, the maximizer of tr(H X) over PSD X with ||X||_F = 1."""
    w, vmat = np.linalg.eigh((h + h.conj().T) / 2.0)
    w = np.clip(w, 0.0, None)
    norm = math.sqrt(float((w * w).sum()))
    if norm <= 0.0:
        return None
    return (vmat * (w / norm)) @ vmat.conj().T


def _polish_hellinger(obj: _Affinity, prep_a, prep_b, iters: int = 80):
    """Exact alternating ascent: each factor update is a closed-form
    maximization of the affinity, linear in the square root of one factor."""
    xa, xb = prep_a, prep_b
    val = obj.value(xa, xb)
    for _ in range(iters):
        if obj.pure:
            m = obj.psi_mat
            ha = m @ xb.T @ m.conj().T
        else:
            ha = np.einsum("ijkl,lj->ik", obj.sqrt_rho4, xb)
        cand = _positive_part_unit(ha)
        if cand is not None:
            xa = cand
        if obj.pure:
            m = obj.psi_mat
            hb = (m.conj().T @ xa @ m).T
        else:
            hb = np.einsum("ijkl,ki->jl", obj.sqrt_rho4, xa)
        cand = _positive_part_unit(hb)
        if cand is not None:
            xb = cand
        new = obj.value(xa, xb)
        if new <= val + 1e-16:
            return xa, xb, new
        val = new
    return xa, xb, val


def _polish_bures_pure(obj: _Affinity, delta_a, delta_b, iters: int = 80):
    """Exact alternating ascent for a pure target: each factor update picks
    the top eigenprojector of a PSD matrix, the overlap being linear in
    either factor alone."""
    m = obj.psi_mat
    da, db = delta_a, delta_b
    val = obj.value(da, db)
    for _ in range(iters):
        w, vmat = np.linalg.eigh(m @ db.T @ m.conj().T)
        top = vmat[:, -1]
        da = np.outer(top, top.conj())
        w, vmat = np.linalg.eigh((m.conj().T @ da @ m).T)
        top = vmat[:, -1]
        db = np.outer(top, top.conj())
        new = obj.value(da, db)
        if new <= val + 1e-16:
            return da, db, new
        val = new
    return da, db, val


def _bures_value_grad(obj: _Affinity, sigma: np.ndarray):
    """Root fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)) and twice its gradient
    in sigma, G = sqrt(rho) (sqrt(rho) sigma sqrt(rho))^(-1/2) sqrt(rho) (the
    inverse root taken on the support)."""
    w, vmat = np.linalg.eigh(obj.sqrt_rho @ sigma @ obj.sqrt_rho)
    root = np.sqrt(np.where(w > TOL_SUPPORT * w[-1], w, 0.0))
    inv_root = np.divide(1.0, root, out=np.zeros_like(root), where=root > 0.0)
    half = obj.sqrt_rho @ vmat
    return float(root.sum()), (half * inv_root) @ half.conj().T


def _polish_bures_mixed(obj: _Affinity, sigma_a, sigma_b, iters: int = 200):
    """Monotone alternating ascent for a mixed target.

    For fixed sigma_B the root fidelity is concave in sigma_A with gradient
    tr_B[G (I x sigma_B)] / 2, and symmetrically for sigma_B. Each factor
    takes a diluted Hradil step sigma <- R sigma R / tr with R = I + eps R_grad,
    accepted only if the affinity rises and otherwise retried with eps halved;
    an accepted step doubles the factor's eps for the next sweep.
    """
    d_a, d_b = obj.d_a, obj.d_b
    val, grad = _bures_value_grad(obj, np.kron(sigma_a, sigma_b))
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
                new, new_grad = _bures_value_grad(obj, np.kron(*pair))
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
    """Smallest distance over ``restarts`` exact ascents, with the product
    state (sigma_A, sigma_B) that attains it. Inputs are not validated.

    Restart 0 starts from the marginals of rho, restart 1 from maximally
    mixed factors and the rest from full-rank random factors. Starts are
    full rank because a Hradil step R sigma R^dagger keeps the rank.
    """
    obj = _Affinity(rho, d_a, d_b, kind)
    best = (-math.inf, None, None)
    for r in range(restarts):
        if r == 0:
            sigma_a = partial_trace(rho, (d_a, d_b), keep=1)
            sigma_b = partial_trace(rho, (d_a, d_b), keep=2)
        elif r == 1:
            sigma_a, sigma_b = np.eye(d_a) / d_a, np.eye(d_b) / d_b
        else:
            sigma_a, sigma_b = random_density(d_a, d_a, rng), random_density(d_b, d_b, rng)
        prep_a, prep_b = obj.prep(sigma_a), obj.prep(sigma_b)
        if kind == "hellinger":
            # the ascent works on sqrt(sigma) with unit Frobenius norm
            root_a, root_b, aff = _polish_hellinger(obj, prep_a, prep_b)
            sigma_a, sigma_b = root_a @ root_a, root_b @ root_b
        elif obj.pure:
            sigma_a, sigma_b, aff = _polish_bures_pure(obj, prep_a, prep_b)
        else:
            sigma_a, sigma_b, aff = _polish_bures_mixed(obj, prep_a, prep_b)
        if aff > best[0]:
            best = (aff, sigma_a, sigma_b)
    aff, sigma_a, sigma_b = best
    return float(math.sqrt(max(0.0, 2.0 - 2.0 * aff))), sigma_a, sigma_b


def c_distance_numeric(
    rho,
    split,
    kind,
    restarts: int = 10,
    rng: np.random.Generator | None = None,
) -> float:
    """Upper bound on the distance from rho to the product-state set.

    Each restart runs an exact alternating ascent of the affinity from its
    own start: a closed-form factor update for Hellinger and for Bures on
    pure targets, and a diluted Hradil step on the root fidelity for Bures
    on mixed targets. The first restart starts from the marginals of rho,
    the second from maximally mixed factors, the rest from full-rank random
    factors drawn from ``rng``; the best distance over all restarts is
    returned. The value is attained by a product state, so it errs high:
    never below the true infimum. The objective is not jointly concave in
    the two factors, so an ascent can stall at a local maximum; the random
    starts are there to reach the basins that the two fixed starts miss.
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
