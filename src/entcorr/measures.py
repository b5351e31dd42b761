"""Entanglement monotones and spectrum-level maximal-entanglement machinery.

Entanglement of formation is computed exactly for two qubits through the
concurrence; higher-dimensional internal systems are covered by the
negativity only. The concurrence has one kernel, which takes a state in
eigenform U diag(q) U^dagger: Wootters' mu_i are the singular values of
sqrt(q) U^T (Y x Y) U sqrt(q) (PRL 80, 2245, 1998). A density matrix
reaches it through the eigh that its validator returns, with its
eigenvalues cut by qcore._on_support; _ef_eig takes E_f that way.
The spectral cap s22 (kept in bounds, next to v) gives the largest
entanglement of formation compatible with a given eigenvalue vector. An
explicit state attains it, and an independent, deterministic oracle
checks it: a quasi-Newton ascent of mu1 - mu2 - mu3 - mu4 over the
unitary orbit of the spectrum, with an analytic gradient, which errs low
and returns its unitary as a witness. On a spectrum of rank r = 2 or 3
the maximum lies on the kink mu_r = 0; a chain near it climbs along that
face with a Newton step onto it, and reaches the cap to rounding, except
where the two largest eigenvalues nearly coincide.
"""

from __future__ import annotations

import math

import numpy as np

from . import bounds
from .bounds import _max_concurrence, _s22
from .qcore import (
    DomainError,
    _check_split,
    _on_support,
    haar_unitary,
    pad_spectrum,
    validate_density_matrix,
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


def _wootters_matrix(u: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sqrt(q) U^T (Y x Y) U sqrt(q) for stacks of unitaries and spectra."""
    r = np.sqrt(q)
    return r[..., :, None] * (u.swapaxes(-1, -2) @ (_YY_ROW_SIGN * u[..., ::-1, :])) * r[..., None, :]


def _concurrence_eig(u: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Concurrence of the states U diag(q) U^dagger for stacks of unitaries
    (..., 4, 4) and spectra (..., 4); unchecked.

    The singular values of sqrt(q) U^T (Y x Y) U sqrt(q) are Wootters' mu
    taken directly, so a rank-deficient state loses no accuracy to square
    roots of rounding noise.
    """
    mu = np.linalg.svd(_wootters_matrix(u, q), compute_uv=False)
    # The rows of the transpose are numpy scalars for a single state, which
    # keeps its arithmetic off the slower path of 0-d arrays.
    m = mu.T
    c = (m[0] - m[1] - m[2] - m[3]).T
    return np.where(c > 0.0, c, 0.0)


def concurrence(rho) -> float:
    """Two-qubit concurrence max{0, mu1 - mu2 - mu3 - mu4}.

    With rho = U diag(q) U^dagger, the mu_i are the decreasing singular
    values of sqrt(q) U^T (Y x Y) U sqrt(q), which are the square roots of
    the eigenvalues of rho (Y x Y) rho* (Y x Y) (conjugate taken entrywise
    in the computational basis). Eigenvalues of rho below TOL_SUPPORT times
    the largest count as zero; U and q are the eigh its validator returns.
    """
    rho, w, v = validate_density_matrix(rho)
    if rho.shape != (4, 4):
        raise DomainError(f"concurrence needs a 4x4 state, got {rho.shape}")
    return float(_concurrence_eig(v, _on_support(w)))


def _ef_eig(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """E_f of two-qubit states given by their eigh, as a validator returns
    it: ascending eigenvalues (..., 4), cut by _on_support, and unitaries
    (..., 4, 4); unchecked."""
    return bounds.v(_concurrence_eig(u, _on_support(w)))


def entanglement_of_formation(rho) -> float:
    """E_f of a two-qubit state in nats: v(concurrence)."""
    return float(bounds.v(concurrence(rho)))


def negativity(rho, split) -> float:
    """(||rho^T1||_1 - 1) / 2 via the partial transpose on factor 1, clamped
    at 0: rounding puts it below 0 on some separable states."""
    rho = validate_density_matrix(rho)[0]
    d1, d2 = _check_split(rho.shape[0], split)
    pt = rho.reshape(d1, d2, d1, d2).transpose(2, 1, 0, 3).reshape(d1 * d2, d1 * d2)
    w = np.linalg.eigvalsh(pt)
    return float(max(0.0, (np.abs(w).sum() - 1.0) / 2.0))


# ---------------------------------------------------------------------------
# Spectrum-level machinery
# ---------------------------------------------------------------------------

def max_concurrence(p) -> float:
    """Largest concurrence over all two-qubit states with spectrum p."""
    return float(_max_concurrence(pad_spectrum(p, 4)))


def s22_ef(p) -> float:
    """Spectral entropy ln 2 - v(max concurrence); caps E_f from above."""
    return float(_s22(pad_spectrum(p, 4)))


def _max_ef_states(q: np.ndarray) -> np.ndarray:
    """States MAX_EF_BASIS diag(q) MAX_EF_BASIS^dagger for 4-spectra padded
    with zeros, shaped (..., 4); unchecked."""
    return (MAX_EF_BASIS * q[..., None, :]) @ MAX_EF_BASIS.conj().T


def max_ef_state(p) -> np.ndarray:
    """Two-qubit state with spectrum p attaining E_f = ln 2 - s22_ef(p)."""
    q = pad_spectrum(p, 4)
    rho = _max_ef_states(q)
    got = np.sort(np.linalg.eigvalsh(rho))[::-1]
    if np.max(np.abs(got - q)) > 1e-9:
        raise RuntimeError("constructed state does not have the requested spectrum")
    return rho


# Signs of the Wootters mu_i in the ascent objective mu1 - mu2 - mu3 - mu4,
# once for the w and once for the x half of [w|x] in _orbit_objective, and
# the column order that turns [Mw|Mx] into [Mx|Mw].
_MU_SIGN2 = np.tile([1.0, -1.0, -1.0, -1.0], 2)
_HALF_SWAP = np.roll(np.arange(8), 4)

# Orthonormal basis E_aa, (E_ab + E_ba) / sqrt 2, i (E_ab - E_ba) / sqrt 2
# (a < b) of the 4 x 4 Hermitian matrices under Re tr(G H), in that order.
# Over the 32 real and imaginary parts x of a flattened 4 x 4 matrix, the
# coordinate j is (x[_PARTS[0, j]] + _SIGN[j] x[_PARTS[1, j]]) _SCALE[j]:
# Re G_aa, (Re G_ab + Re G_ba) / sqrt 2 and (Im G_ab - Im G_ba) / sqrt 2.
_IU = np.triu_indices(4, 1)
_DIAG, _UP, _LOW = 2 * np.arange(0, 16, 5), 2 * (4 * _IU[0] + _IU[1]), 2 * (4 * _IU[1] + _IU[0])
_PARTS = np.array([np.r_[_DIAG, _UP, _UP + 1], np.r_[_DIAG, _LOW, _LOW + 1]])
_SIGN = np.repeat([0.0, 1.0, -1.0], [4, 6, 6])
_SCALE = np.repeat([1.0, 1.0 / math.sqrt(2.0)], [4, 12])
_EYE16 = np.eye(16)

# Quasi-Newton ascent: chains per spectrum, steps per chain, Armijo constant,
# the ratio mu_r / (mu_{r-1} - mu_r) below which a chain on a spectrum of rank
# r = 2 or 3 steps onto the face mu_r = 0, halvings per line search, largest
# step norm, curvature needed for an update, the stopping gradient, and the
# relative resolution of F below which a rise is rounding noise.
_ORBIT_RESTARTS, _ORBIT_ITERS = 8, 300
_ARMIJO = 1e-4
_FACE = 0.1
_HALVINGS = 40
_MAX_STEP = 1.0
_CURVATURE = 1e-14
_GRAD_TOL = 1e-10
_F_RESOLUTION = 1e-15


def _coords(g: np.ndarray) -> np.ndarray:
    """Coordinates (..., 16) of the Hermitian part of matrices (..., 4, 4):
    Re tr(G E_j) = Re tr(G^dagger E_j), elementwise into a C-ordered array.
    numpy multiplies a strided stack by its own loop, which rounds unlike
    BLAS, so products with them take the same bits alone as in a stack."""
    x = g.reshape(g.shape[:-2] + (16,)).view(np.float64)
    return (x.take(_PARTS[0], axis=-1) + _SIGN * x.take(_PARTS[1], axis=-1)) * _SCALE


def _hermitian(h: np.ndarray) -> np.ndarray:
    """Hermitian matrices (..., 4, 4) with coordinates h (..., 16), written
    into the diagonal and the two triangles; inverse of _coords."""
    y = h * _SCALE
    x = np.zeros(h.shape[:-1] + (32,))
    x[..., _PARTS[1]] = _SIGN * y  # the diagonal takes 0 here and y next
    x[..., _PARTS[0]] = y
    return x.view(complex).reshape(h.shape[:-1] + (4, 4))


def _rotate(u: np.ndarray, h: np.ndarray) -> np.ndarray:
    """exp(iH) U for stacks of unitaries and generator coordinates h."""
    w, vmat = np.linalg.eigh(_hermitian(h))
    return (vmat * np.exp(1j * w)[..., None, :]) @ (vmat.conj().swapaxes(-1, -2) @ u)


def _orbit_vectors(u: np.ndarray, q: np.ndarray):
    """The Wootters mu (..., 4) of the orbit points U diag(q) U^dagger and
    the columns [w|x] and [Mx|Mw] (..., 4, 8) of their gradient terms (see
    _orbit_objective)."""
    a, mu, vh = np.linalg.svd(_wootters_matrix(u, q))
    r = np.sqrt(q)[..., :, None]
    wx = u @ (r * np.concatenate([a.conj(), vh.conj().swapaxes(-1, -2)], axis=-1))
    return mu, wx, (_YY_ROW_SIGN * wx[..., ::-1, :])[..., _HALF_SWAP]


def _orbit_objective(u: np.ndarray, q: np.ndarray):
    """F(U) = mu1 - mu2 - mu3 - mu4, unclipped, its gradient coordinates
    for the step U <- exp(iH) U, and the vectors (mu, [w|x], [Mx|Mw]) of
    _orbit_vectors they were read from, for stacks of unitaries and spectra.

    The mu_k are the singular values of B = sqrt(q) U^T M U sqrt(q), M =
    Y x Y (_wootters_matrix). For a simple mu_k with singular vectors
    a_k and v_k, d mu_k = Re(a_k^dagger dB v_k); with w = U sqrt(q) conj(a_k)
    and x = U sqrt(q) v_k, a_k^dagger dB v_k = tr(dH K_k), K_k = i (w (Mx)^T
    + x (Mw)^T). The gradient is the Hermitian part of the signed sum of the
    K_k. With S the signs, that sum is i [w|x] S [Mx|Mw]^T: one product
    forms [w|x], one more the sum, and _coords keeps its Hermitian part.
    """
    mu, wx, mwx = vectors = _orbit_vectors(u, q)
    m = mu.T
    f = (m[0] - m[1] - m[2] - m[3]).T
    return f, _coords(1j * ((wx * _MU_SIGN2) @ mwx.swapaxes(-1, -2))), vectors


def _orbit_face(vectors, k):
    """The Wootters mu (..., 4) and the Jacobian J (..., 2, 16) of the
    complex a_r^dagger B v_r in the generator coordinates, from the
    vectors (mu, [w|x], [Mx|Mw]) of _orbit_objective at U, for mu_r with
    index k (0-based, an int or one per point) and its singular vectors
    a_r and v_r held at U: row 0 is Re, the gradient of mu_r (the
    coordinates of K_r of _orbit_objective), and row 1 is Im, those of
    -i K_r. K_r is the product that sums K_k in _orbit_objective, with the
    signs replaced by a selector of columns k and k + 4."""
    mu, wx, mwx = vectors
    pick = np.tile(np.arange(4) == np.asarray(k)[..., None], 2)
    kr = 1j * ((wx * pick[..., None, :]) @ mwx.swapaxes(-1, -2))
    return mu, _coords(np.stack([kr, -1j * kr], axis=-3))


def _face_step(vectors, q: np.ndarray, g: np.ndarray):
    """Face data of orbit points, with ``vectors`` and g their vectors and
    gradient of F from _orbit_objective. Returns whether each point is on
    the face, on a spectrum of rank r = 2 or 3 with mu_r < _FACE
    (mu_{r-1} - mu_r) and J of full rank; the gradient to climb; the lift,
    mu_r on the face and 0 off it; J of _orbit_face and its pseudo-inverse
    J+; and mu_r, or inf on a spectrum of rank 1 or 4, which has no face.

    On the face F + mu_r is smooth. The gradient to climb is its gradient
    projected onto the null space of J, which is the projection of g,
    since the gradient of mu_r is row 0 of J; and -mu_r J+[:, 0] is the
    Newton step onto mu_r = 0. J vanishes where the SVD takes the singular
    vectors of mu_r = 0 off the support of q, as at the identity on rank
    3. Off the face J and J+ are zeros and g is kept, so every product with
    them leaves a plain BFGS step as it is.
    """
    rank = (q > 0.0).sum(axis=1)
    k = np.clip(rank - 1, 1, 2)  # index of mu_r; any valid one on rank 1 or 4
    mu, jac = _orbit_face(vectors, k)
    before, mu_r = np.take_along_axis(mu, k[:, None] - np.array([1, 0]), axis=1).T
    mu_r = np.where(k == rank - 1, mu_r, np.inf)
    # J+ = J^T (J J^T)^-1, with the 2 x 2 inverse written out
    gram = jac @ jac.swapaxes(-1, -2)
    a, b, c = gram[:, 0, 0], gram[:, 0, 1], gram[:, 1, 1]
    det = a * c - b * b
    on = (mu_r < _FACE * (before - mu_r)) & (det > 0.0)
    jac = np.where(on[:, None, None], jac, 0.0)
    inv = np.stack([c, -b, -b, a], axis=-1).reshape(-1, 2, 2) / np.where(on, det, 1.0)[:, None, None]
    jp = jac.swapaxes(-1, -2) @ inv
    g = g - (jp @ (jac @ g[:, :, None]))[:, :, 0]
    return on, g, np.where(on, mu_r, 0.0), jac, jp, mu_r


def _max_ef_orbit(q: np.ndarray, rngs):
    """Best E_f over _ORBIT_RESTARTS quasi-Newton ascents on the unitary
    orbit of diag(q) for each spectrum of a stack q shaped (P, 4), with
    ``rngs`` one generator per spectrum. Returns the P values and the P
    unitaries U of the best chains. Inputs are not validated.

    Each chain climbs the unclipped F(U) = mu1 - mu2 - mu3 - mu4 of
    _orbit_objective by BFGS in the 16 coordinates of the generator H of
    U <- exp(iH) U. A step is the quasi-Newton direction, scaled to a norm
    of at most _MAX_STEP and halved up to _HALVINGS times until the Armijo
    condition holds. The line search fails sooner, at a rejected trial
    whose predicted rise t * slope is below F's resolution _F_RESOLUTION *
    max(1, |F|): a later Armijo pass could only be rounding noise. The
    16 x 16 inverse Hessian is updated only when s^T y > _CURVATURE, and
    reset to the identity when its direction is not an ascent. A chain
    stops after _ORBIT_ITERS steps, at a gradient norm below _GRAD_TOL, or
    when its line search fails.

    On a spectrum of rank r = 2 or 3 the mu beyond r vanish, and the
    maximum of F lies on the kink mu_r = 0, where plain BFGS only creeps. A
    chain there whose mu_r < _FACE (mu_{r-1} - mu_r) is on the face
    (_face_step): it climbs the smooth F + mu_r by BFGS on that gradient
    projected onto the null space of J, the Jacobian of the complex
    a_r^dagger B v_r whose zero is the face, with its direction projected
    there too, and its trial steps are t d + (t / t0) h_N, with h_N =
    -J+ (mu_r, 0) the Newton step onto mu_r = 0 and t0 the first t of the
    line search. The Armijo test and the resolution stop count the
    predicted rise t * slope + (t / t0) mu_r, the update sees the part
    t d, the inverse Hessian resets to the identity when the chain enters
    or leaves the face, and the gradient stop reads the projected gradient
    norm plus mu_r. Such a chain also stops once an accepted step raises F
    by less than F's resolution while mu_r is below it too. Every chain
    passes through _face_step at its start and after each accepted step;
    on spectra of rank 1 or 4 it keeps them off the face with mu_r = inf,
    so they take none of these steps.

    Chain 0 of each spectrum starts at the identity, the others at Haar
    unitaries drawn in turn from its generator. All P x _ORBIT_RESTARTS
    chains run as one stack, and every operation acts on each chain alone,
    so a spectrum's values equal those of a call with it alone. The value is
    v of _concurrence_eig at the chain's last U, which is its witness, so it
    errs low up to rounding: it is E_f of an orbit point.
    """
    points, restarts = len(q), _ORBIT_RESTARTS
    chains = points * restarts
    u = np.empty((chains, 4, 4), dtype=complex)
    for i, rng in enumerate(rngs):
        u[i * restarts] = np.eye(4)
        for r in range(1, restarts):
            u[i * restarts + r] = haar_unitary(4, rng)
    q = np.repeat(q, restarts, axis=0)
    f, g, vectors = _orbit_objective(u, q)
    hinv = np.tile(_EYE16, (chains, 1, 1))
    d = np.zeros((chains, 16))
    slope, t = np.zeros(chains), np.zeros(chains)
    halvings, steps = np.zeros(chains, dtype=int), np.zeros(chains, dtype=int)
    face, g, lift, jac, jp, _ = _face_step(vectors, q, g)
    # Every round makes one trial step on each chain still searching, so a
    # chain's line search does not wait for the others'.
    fresh, live = np.arange(chains), np.arange(0)
    while True:
        fresh = fresh[(steps[fresh] < _ORBIT_ITERS)
                      & (np.sqrt((g[fresh] ** 2).sum(axis=1)) + lift[fresh] >= _GRAD_TOL)]
        if fresh.size:
            df = (hinv[fresh] @ g[fresh][:, :, None])[:, :, 0]
            df -= (jp[fresh] @ (jac[fresh] @ df[:, :, None]))[:, :, 0]
            sf = (g[fresh] * df).sum(axis=1)
            reset = sf <= 0.0
            hinv[fresh[reset]] = _EYE16
            df[reset] = g[fresh[reset]]
            sf[reset] = (df[reset] ** 2).sum(axis=1)
            d[fresh], slope[fresh], halvings[fresh] = df, sf, 0
            t[fresh] = np.minimum(1.0, _MAX_STEP / np.sqrt((df * df).sum(axis=1)))
            live = np.concatenate([live, fresh])
        if live.size == 0:
            break
        newton = 0.5 ** halvings[live] * lift[live]  # (t / t0) mu_r
        rise = t[live] * slope[live] + newton
        u_try = _rotate(u[live], t[live, None] * d[live] - newton[:, None] * jp[live, :, 0])
        f_try, g_try, vectors = _orbit_objective(u_try, q[live])
        ok = f_try >= f[live] + _ARMIJO * rise
        moved, f_try = live[ok], f_try[ok]
        was_on = face[moved]
        face[moved], g_try, lift[moved], jac[moved], jp[moved], mu_r = _face_step(
            [a[ok] for a in vectors], q[moved], g_try[ok])
        res = _F_RESOLUTION * np.maximum(1.0, np.abs(f_try))
        stop = (f_try - f[moved] < res) & (mu_r < res)
        switched = face[moved] != was_on
        hinv[moved[switched]] = _EYE16
        s, y = t[moved, None] * d[moved], g[moved] - g_try  # y: the change of the gradient of -F
        sy = (s * y).sum(axis=1)
        upd = (sy > _CURVATURE) & ~switched
        if upd.any():
            c, s, y, rho = moved[upd], s[upd], y[upd], 1.0 / sy[upd, None, None]
            e = _EYE16 - rho * s[:, :, None] * y[:, None, :]
            hinv[c] = e @ hinv[c] @ e.swapaxes(-1, -2) + rho * s[:, :, None] * s[:, None, :]
        u[moved], f[moved], g[moved] = u_try[ok], f_try, g_try
        steps[moved] += 1
        live, rise = live[~ok], rise[~ok]
        # below F's resolution a later Armijo pass would be rounding noise
        resolved = rise >= _F_RESOLUTION * np.maximum(1.0, np.abs(f[live]))
        halvings[live] += 1
        t[live] *= 0.5
        live = live[resolved & (halvings[live] <= _HALVINGS)]
        fresh = moved[~stop]
    value = bounds.v(_concurrence_eig(u, q)).reshape(points, restarts)
    best = np.argmax(value, axis=1)
    point = np.arange(points)
    return value[point, best], u.reshape(points, restarts, 4, 4)[point, best]


def max_ef_over_spectrum_numeric(p) -> float:
    """Best E_f found over the unitary orbit of diag(p) by quasi-Newton ascent.

    _ORBIT_RESTARTS chains, the first from the identity and the others from
    Haar unitaries drawn from worker_rng(0, 0), each climb mu1 - mu2 - mu3 -
    mu4 of the orbit point U diag(p) U^dagger by BFGS with an analytic
    gradient and Armijo backtracking, for at most _ORBIT_ITERS steps. A
    chain ends when its line search fails: after 40 halvings, or sooner,
    once a rejected trial's predicted rise is below F's rounding resolution
    1e-15 * max(1, |F|). Independent of the closed-form cap and of
    MAX_EF_BASIS, it serves as their oracle. The value is E_f at the best
    chain's last unitary U, which is its witness (see _max_ef_orbit),
    evaluated to about 1e-15. So it errs low up to rounding: it does not
    exceed ln 2 - s22_ef(p) by more than that. On a spectrum of rank r = 2
    or 3, whose maximum lies on the kink mu_r = 0, a chain near that face
    climbs along it with a Newton step onto it (see _max_ef_orbit). The
    value falls short where every chain ends elsewhere: on rank-3 spectra
    whose two largest eigenvalues lie within about 1e-3, the face is nearly
    flat, and chains can end near the point that pairs the second with the
    third (misses up to 1.1e-4 in E_f were seen).
    """
    return float(_max_ef_orbit(pad_spectrum(p, 4)[None], [worker_rng(0, 0)])[0][0])
