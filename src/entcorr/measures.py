"""Entanglement monotones and spectrum-level maximal-entanglement machinery.

Entanglement of formation is computed exactly for two qubits through the
concurrence; higher-dimensional internal systems are covered by the
negativity only. The concurrence has one kernel, which takes a state in
eigenform U diag(q) U^dagger: Wootters' mu_i are the singular values of
sqrt(q) U^T (Y x Y) U sqrt(q) (PRL 80, 2245, 1998). A density matrix
reaches it through eigh, with eigenvalues below TOL_SUPPORT times the
largest counted as zero, as in qcore.matrix_sqrt_psd. The spectral cap s22
gives the largest entanglement of formation compatible with a given
eigenvalue vector, together with an explicit state attaining it and an
independent unitary-orbit search.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from . import bounds
from .qcore import (
    TOL_SUPPORT,
    DomainError,
    haar_unitary,
    pad_spectrum,
    split_dims,
    validate_density_matrix,
    validate_spectrum,
    worker_rng,
)

# Y x Y is real in the computational basis and maps row i of a matrix to
# row 3 - i with these signs.
_YY_ROW_SIGN = np.array([-1.0, 1.0, 1.0, -1.0])[:, None]

_E = np.eye(4)
_BELL_PLUS = (_E[0] + _E[3]) / math.sqrt(2.0)
_BELL_MINUS = (_E[0] - _E[3]) / math.sqrt(2.0)
# Eigenbasis attaining the spectral concurrence cap, in the order the
# eigenvalues are assigned: two Bell-type vectors carry the largest and
# third eigenvalue, the product vectors |01> and |10> the second and
# fourth. Validated against the unitary-orbit search in the test suite.
MAX_EF_BASIS = np.column_stack([_BELL_PLUS, _E[1], _BELL_MINUS, _E[2]]).astype(complex)


def _concurrence_eig(u: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Concurrence of the states U diag(q) U^dagger for stacks of unitaries
    (..., 4, 4) and spectra (..., 4); unchecked.

    The singular values of sqrt(q) U^T (Y x Y) U sqrt(q) are Wootters' mu
    taken directly, so a rank-deficient state loses no accuracy to square
    roots of rounding noise.
    """
    r = np.sqrt(q)
    b = r[..., :, None] * (u.swapaxes(-1, -2) @ (_YY_ROW_SIGN * u[..., ::-1, :])) * r[..., None, :]
    mu = np.linalg.svd(b, compute_uv=False)
    # The rows of the transpose are numpy scalars for a single state, which
    # keeps its arithmetic off the slower path of 0-d arrays.
    m = mu.T
    c = (m[0] - m[1] - m[2] - m[3]).T
    return np.where(c > 0.0, c, 0.0)


def _concurrence(rho: np.ndarray) -> np.ndarray:
    """Concurrence of a stack of 4x4 states, shaped (..., 4, 4); unchecked."""
    w, u = np.linalg.eigh(rho)
    return _concurrence_eig(u, np.where(w > TOL_SUPPORT * w[..., -1:], w, 0.0))


def concurrence(rho) -> float:
    """Two-qubit concurrence max{0, mu1 - mu2 - mu3 - mu4}.

    With rho = U diag(q) U^dagger, the mu_i are the decreasing singular
    values of sqrt(q) U^T (Y x Y) U sqrt(q), which are the square roots of
    the eigenvalues of rho (Y x Y) rho* (Y x Y) (conjugate taken entrywise
    in the computational basis). Eigenvalues of rho below TOL_SUPPORT times
    the largest count as zero.
    """
    rho = validate_density_matrix(rho)
    if rho.shape != (4, 4):
        raise DomainError(f"concurrence needs a 4x4 state, got {rho.shape}")
    return float(_concurrence(rho))


def entanglement_of_formation(rho) -> float:
    """E_f of a two-qubit state in nats: v(concurrence)."""
    return float(bounds.v(concurrence(rho)))


def negativity(rho, split) -> float:
    """(||rho^T1||_1 - 1) / 2 via the partial transpose on factor 1."""
    d1, d2 = split_dims(split)
    rho = validate_density_matrix(rho)
    if rho.shape[0] != d1 * d2:
        raise DomainError(f"state dimension {rho.shape[0]} does not match split {(d1, d2)}")
    pt = rho.reshape(d1, d2, d1, d2).transpose(2, 1, 0, 3).reshape(d1 * d2, d1 * d2)
    w = np.linalg.eigvalsh(pt)
    return float((np.abs(w).sum() - 1.0) / 2.0)


# ---------------------------------------------------------------------------
# Spectrum-level machinery
# ---------------------------------------------------------------------------

def _max_concurrence(q: np.ndarray) -> np.ndarray:
    """Spectral concurrence cap of 4-spectra padded with zeros, shaped (..., 4); unchecked."""
    q1, q2, q3, q4 = q.T  # numpy scalars for one spectrum, as in _concurrence
    return np.maximum(0.0, q1 - q3 - 2.0 * np.sqrt(q2 * q4)).T


def _s22(q: np.ndarray) -> np.ndarray:
    """s22 of 4-spectra padded with zeros, shaped (..., 4); unchecked."""
    return bounds.LN2 - bounds.v(_max_concurrence(q))


def max_concurrence(p) -> float:
    """Largest concurrence over all two-qubit states with spectrum p."""
    return float(_max_concurrence(pad_spectrum(p, 4)))


def s22_ef(p) -> float:
    """Spectral entropy ln 2 - v(max concurrence); caps E_f from above."""
    return float(_s22(pad_spectrum(p, 4)))


def max_ef_state(p) -> np.ndarray:
    """Two-qubit state with spectrum p attaining E_f = ln 2 - s22_ef(p)."""
    q = pad_spectrum(p, 4)
    rho = (MAX_EF_BASIS * q) @ MAX_EF_BASIS.conj().T
    got = np.sort(np.linalg.eigvalsh(rho))[::-1]
    if np.max(np.abs(got - q)) > 1e-9:
        raise RuntimeError("constructed state does not have the requested spectrum")
    return rho


# Chain-steps of proposal noise drawn at a time: a block holds
# max(1, _NOISE_CHAIN_STEPS // chains) steps of every chain, so the noise held
# in memory stays near this many chain-steps whatever the number of chains.
_NOISE_CHAIN_STEPS = 400


def _ef_on_orbit(u: np.ndarray, q: np.ndarray) -> np.ndarray:
    """E_f of the orbit points U diag(q) U^dagger for stacks of unitaries and spectra."""
    return bounds.v(_concurrence_eig(u, q))


def _noise_blocks(stream: np.random.Generator, iters: int, steps: int):
    """One chain's proposal noise, (re, im) pairs of 4x4 normals, ``steps`` at a time."""
    for done in range(0, iters, steps):
        yield stream.standard_normal((min(steps, iters - done), 2, 4, 4))


def _max_ef_orbit(q: np.ndarray, restarts: int, iters: int, rngs):
    """Best E_f over ``restarts`` hill-climbing chains on the unitary orbit
    of diag(q) for each spectrum of a stack q shaped (P, 4), with ``rngs``
    one generator per spectrum. Returns the P values and the P unitaries U
    of the best chains. Inputs are not validated.

    All P x restarts chains step together as one stack. What a chain draws
    does not depend on what it accepts, so each chain gets the stretch of
    its spectrum's generator that running the restarts one after another
    would give it: each generator is walked once, restart by restart,
    drawing the Haar start, copying the generator and skipping the chain's
    ``iters`` noise draws; each copy then hands out its chain's noise block
    by block. A block holds ``_NOISE_CHAIN_STEPS`` // chains steps of every
    chain (at least 1), so the noise in memory does not grow with P. Values
    and the final state of each generator are those of the sequential loop
    on that spectrum alone. Acceptance compares E_f, not the concurrence:
    v rounds distinct concurrences to equal values, so the two comparisons
    can disagree.
    """
    points = len(q)
    chains = points * restarts
    u = np.empty((chains, 4, 4), dtype=complex)
    streams = []
    for i, rng in enumerate(rngs):
        for r in range(restarts):
            u[i * restarts + r] = np.eye(4) if r == 0 else haar_unitary(4, rng)
            streams.append(copy.deepcopy(rng))
            for _ in _noise_blocks(rng, iters, _NOISE_CHAIN_STEPS):
                pass
    q = np.repeat(q, restarts, axis=0)
    cur = _ef_on_orbit(u, q)
    s = np.full(chains, 0.1)  # each chain's first step
    rejected = np.zeros(chains, dtype=int)
    steps = max(1, _NOISE_CHAIN_STEPS // chains)
    for blocks in zip(*(_noise_blocks(stream, iters, steps) for stream in streams)):
        g = np.stack(blocks, axis=1)
        g = g[:, :, 0] + 1j * g[:, :, 1]
        for h in (g + g.conj().swapaxes(-1, -2)) / 2.0:
            w, vmat = np.linalg.eigh(s[:, None, None] * h)
            u_trial = (vmat * np.exp(1j * w)[:, None, :]) @ vmat.conj().swapaxes(-1, -2) @ u
            val = _ef_on_orbit(u_trial, q)
            up = val > cur
            u = np.where(up[:, None, None], u_trial, u)
            cur = np.where(up, val, cur)
            rejected = np.where(up, 0, rejected + 1)
            halve = rejected >= 50
            s = np.where(halve, s * 0.5, s)
            rejected = np.where(halve, 0, rejected)
    cur = cur.reshape(points, restarts)
    best = np.argmax(cur, axis=1)
    point = np.arange(points)
    return cur[point, best], u.reshape(points, restarts, 4, 4)[point, best]


def max_ef_over_spectrum_numeric(
    p,
    restarts: int = 20,
    iters: int = 2000,
    rng: np.random.Generator | None = None,
) -> float:
    """Best E_f found over the unitary orbit of diag(p) by local search.

    Random-restart hill climbing on U(4): each chain starts at the identity
    (the first) or at a Haar-random unitary, proposes U <- exp(i step H) U
    with H a random Hermitian direction and a first step of 0.1, accepts if
    E_f improves, and halves its step after 50 consecutive rejections.
    Independent of the closed-form cap, it serves as its oracle. The value
    is E_f of a state on the orbit, evaluated to about 1e-15, so it errs low
    up to rounding: it does not exceed ln 2 - s22_ef(p) by more than that.
    """
    q = pad_spectrum(p, 4)
    if restarts < 1:
        raise DomainError("need restarts >= 1")
    if iters < 0:
        raise DomainError("need iters >= 0")
    if rng is None:
        rng = worker_rng(0, 0)
    return float(_max_ef_orbit(q[None], restarts, iters, [rng])[0][0])


# ---------------------------------------------------------------------------
# Separability conditions on spectra
# ---------------------------------------------------------------------------

def is_zhsl_separable(p, d: int) -> bool:
    """Purity ball test: every state with purity <= 1/(d-1) is separable."""
    if d < 2:
        raise DomainError("need d >= 2")
    p = validate_spectrum(p)
    if p.size > d:
        raise DomainError(f"spectrum has {p.size} components, at most {d} allowed")
    return bool((p * p).sum() <= 1.0 / (d - 1))


def is_abs_separable_2xd(p, d: int) -> bool:
    """Absolute-separability test for a 2 x d system.

    Every state with spectrum p (padded with zeros to length 2d) is
    separable iff p_1 <= p_{2d-1} + 2 sqrt(p_{2d-2} p_{2d}).
    """
    if d < 2:
        raise DomainError("need d >= 2")
    q = pad_spectrum(p, 2 * d)
    return bool(q[0] <= q[2 * d - 2] + 2.0 * math.sqrt(q[2 * d - 3] * q[2 * d - 1]))
