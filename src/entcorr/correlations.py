"""Correlation monotones between a system and its surroundings.

Mutual information is evaluated exactly. The Bures and Hellinger
distance-to-product-states measures have closed forms on pure states and
on strictly correlated classical-classical states, driven by the spectral
functions f below; for arbitrary states an alternating local search over
product states, finished by an exact monotone ascent (Hellinger, Bures on
pure targets and Bures on mixed targets), gives an upper bound on the
infimum: the value returned is attained by a product state, so it errs high.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .qcore import (
    DomainError,
    matrix_sqrt_psd,
    partial_trace,
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

def f_db(p) -> float:
    """sqrt(2 (1 - sqrt(p1))): Bures correlation of a pure state."""
    p = validate_spectrum(p)
    return float(math.sqrt(max(0.0, 2.0 * (1.0 - math.sqrt(p[0])))))


def f_dh(p) -> float:
    """sqrt(2 (1 - p1)): Hellinger correlation of a pure state."""
    p = validate_spectrum(p)
    return float(math.sqrt(max(0.0, 2.0 * (1.0 - p[0]))))


def f_mi(p) -> float:
    """2 h(p): mutual information of a pure state with marginal spectrum p."""
    p = validate_spectrum(p)
    return float(-2.0 * (p * np.log(p)).sum())


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

def _tri_indices(d: int):
    return np.tril_indices(d)


def _density_from_params(x: np.ndarray, d: int) -> np.ndarray:
    """Lower-triangular complex factor L -> L L^dagger / tr, always a state."""
    ell = np.zeros((d, d), dtype=complex)
    rows, cols = _tri_indices(d)
    n = rows.size
    ell[rows, cols] = x[:n] + 1j * x[n:]
    rho = ell @ ell.conj().T
    tr = np.trace(rho).real
    if tr <= 0.0:
        rho = np.eye(d, dtype=complex)
        tr = float(d)
    return rho / tr


def _sqrt_psd_unchecked(m: np.ndarray) -> np.ndarray:
    w, vmat = np.linalg.eigh(m)
    return (vmat * np.sqrt(np.clip(w, 0.0, None))) @ vmat.conj().T


class _Affinity:
    """tr-overlap objective whose maximization minimizes the distance.

    Bures: affinity = tr sqrt(sqrt(rho) sigma sqrt(rho)); Hellinger:
    affinity = tr(sqrt(rho) sqrt(sigma)). Both give D = sqrt(2 - 2 aff).
    For a pure rho = |psi><psi| the affinities reduce to quadratic forms
    in psi, which the loop exploits. ``prep`` precomputes the per-factor
    data (the square root, when needed) so the inactive side of an
    alternating sweep is not recomputed on every trial.
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
            return _sqrt_psd_unchecked(delta)
        return delta

    def value(self, prep_a: np.ndarray, prep_b: np.ndarray) -> float:
        if self.kind == "hellinger":
            if self.pure:
                m = self.psi_mat
                return float(np.vdot(m, prep_a @ m @ prep_b.T).real)
            return float(np.einsum("ijkl,ki,lj->", self.sqrt_rho4, prep_a, prep_b).real)
        if self.pure:
            m = self.psi_mat
            overlap = np.vdot(m, prep_a @ m @ prep_b.T).real
            return float(math.sqrt(max(0.0, overlap)))
        sigma = np.kron(prep_a, prep_b)
        w = np.linalg.eigvalsh(self.sqrt_rho @ sigma @ self.sqrt_rho)
        return float(np.sqrt(np.clip(w, 0.0, None)).sum())


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
            return xa, xb, max(new, val)
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
            return da, db, max(new, val)
        val = new
    return da, db, val


def _bures_value_grad(obj: _Affinity, sigma: np.ndarray):
    """Root fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)) and twice its gradient
    in sigma, G = sqrt(rho) (sqrt(rho) sigma sqrt(rho))^(-1/2) sqrt(rho) (the
    inverse root taken on the support)."""
    w, vmat = np.linalg.eigh(obj.sqrt_rho @ sigma @ obj.sqrt_rho)
    w = np.clip(w, 0.0, None)
    root = np.sqrt(w)
    inv_root = np.divide(1.0, root, out=np.zeros_like(root), where=w > 1e-14 * w[-1])
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


def c_distance_numeric(
    rho,
    split,
    kind,
    restarts: int = 10,
    alternations: int = 5,
    inner: int = 500,
    rng: np.random.Generator | None = None,
    step: float = 0.1,
) -> float:
    """Upper bound on the distance from rho to the product-state set.

    Alternating accept-if-improve local search over Cholesky-style
    parametrizations of the two factors, followed by an exact alternating
    ascent from each restart's endpoint: a closed-form factor update for
    Hellinger and for Bures on pure targets, and a diluted Hradil step on
    the root fidelity for Bures on mixed targets. The first restart starts
    from the marginals of rho, the second from maximally mixed factors,
    the rest from random factors; the best distance over all restarts is
    returned. The value is that of a product state, so it errs high: never
    below the true infimum. The objective is not concave in both factors
    jointly, so an ascent can stall at a local maximum: from the marginal
    and maximally mixed starts alone it stops above the infimum on some
    mixed targets, which is why the random walk and random restarts are
    kept in front of it.
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
    if rng is None:
        rng = worker_rng(0, 0)

    objective = _Affinity(rho, d_a, d_b, kind)
    n_a = d_a * (d_a + 1)  # real parameter count of one triangular factor
    n_b = d_b * (d_b + 1)

    def params_from_state(state: np.ndarray, d: int) -> np.ndarray:
        ell = np.linalg.cholesky(
            state + 1e-12 * np.eye(d)
        )
        rows, cols = _tri_indices(d)
        vals = ell[rows, cols]
        return np.concatenate([vals.real, vals.imag])

    marg_a = partial_trace(rho, (d_a, d_b), keep=1)
    marg_b = partial_trace(rho, (d_a, d_b), keep=2)

    best_aff = -math.inf
    for r in range(restarts):
        if r == 0:
            x_a = params_from_state(marg_a, d_a)
            x_b = params_from_state(marg_b, d_b)
        elif r == 1:
            x_a = params_from_state(np.eye(d_a) / d_a, d_a)
            x_b = params_from_state(np.eye(d_b) / d_b, d_b)
        else:
            x_a = rng.standard_normal(n_a)
            x_b = rng.standard_normal(n_b)
        prep_a = objective.prep(_density_from_params(x_a, d_a))
        prep_b = objective.prep(_density_from_params(x_b, d_b))
        cur = objective.value(prep_a, prep_b)
        s = step
        rejected = 0
        for _ in range(alternations):
            for active in ("a", "b"):
                for _ in range(inner):
                    if active == "a":
                        trial = x_a + s * rng.standard_normal(n_a)
                        trial_prep = objective.prep(_density_from_params(trial, d_a))
                        val = objective.value(trial_prep, prep_b)
                    else:
                        trial = x_b + s * rng.standard_normal(n_b)
                        trial_prep = objective.prep(_density_from_params(trial, d_b))
                        val = objective.value(prep_a, trial_prep)
                    if val > cur:
                        cur, rejected = val, 0
                        if active == "a":
                            x_a, prep_a = trial, trial_prep
                        else:
                            x_b, prep_b = trial, trial_prep
                    else:
                        rejected += 1
                        if rejected >= 50:
                            s *= 0.5
                            rejected = 0
        if kind == "hellinger":
            _, _, cur = _polish_hellinger(objective, prep_a, prep_b)
        elif objective.pure:
            _, _, cur = _polish_bures_pure(objective, prep_a, prep_b)
        else:
            _, _, cur = _polish_bures_mixed(objective, prep_a, prep_b)
        best_aff = max(best_aff, cur)
    return float(math.sqrt(max(0.0, 2.0 - 2.0 * best_aff)))
