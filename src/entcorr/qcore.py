"""Dense complex linear algebra, quantum-state constructors, and seeded randomness.

Conventions used across the package:

- Operators and pure states are plain complex numpy arrays (square matrices
  and 1-d vectors respectively).
- A *spectrum* is a 1-d float array of strictly positive eigenvalues in
  decreasing order that sums to one; consumers may pad with zeros.
- Bipartite product bases are ordered with the factor-1 index major:
  basis index = i1 * d2 + i2.
- All entropies are in nats, with the convention 0 * ln 0 = 0.

Fronts and kernels: a public function validates its input once, then calls
unchecked kernels on stacks (..., d) or (..., d, d), one per rule:
_on_support, _probabilities, _entropy, _distance, _partial_trace and
_sqrt_psd. A checked state is diagonalised once, by the density validator,
whose eigh every front and kernel reads. Package code holding checked data,
or data it built in a valid form (a spectrum from _probabilities, a state
from a stacked constructor), calls the kernels and validates each stack it
builds at most once; no other module names TOL_SUPPORT or TOL_ZERO.
validate_spectrum checks one spectrum, the input of a front.
"""

from __future__ import annotations

import operator

import numpy as np

# Validation tolerances. Double precision at the dimensions handled here
# (d <= 256) leaves at least six digits of headroom over these.
TOL_HERM = 1e-9
TOL_PSD = 1e-9
TOL_TRACE = 1e-9
TOL_NORM = 1e-9
# Below this cutoff an eigenvalue counts as zero for spectrum extraction.
TOL_ZERO = 1e-12
# Relative to the largest eigenvalue, the rounding level of a PSD product
# such as sqrt(rho) sigma sqrt(rho): below it an eigenvalue counts as zero,
# so its square root does not add noise to a root fidelity.
TOL_SUPPORT = 1e-14

_MASK64 = (1 << 64) - 1


class DomainError(ValueError):
    """An input violates the contract of the operation it was passed to."""


class CapacityError(DomainError):
    """A construction does not fit in the requested dimensions."""


def _check_index(n, name: str) -> int:
    """n as an int; DomainError unless it is an integer."""
    try:
        return operator.index(n)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {n!r}") from None


def _check_split(dim: int, split) -> tuple[int, int]:
    """The split (d1, d2) as ints; DomainError unless both are integers,
    positive, and d1 * d2 is the state dimension ``dim``."""
    try:
        d1, d2 = (operator.index(d) for d in split)
    except (TypeError, ValueError):
        raise DomainError(f"split must be two integers, got {split!r}") from None
    if d1 < 1 or d2 < 1:
        raise DomainError(f"split dimensions must be positive, got ({d1}, {d2})")
    if dim != d1 * d2:
        raise DomainError(f"state dimension {dim} does not match split {(d1, d2)}")
    return d1, d2


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _one_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    return m


def _hermitian_stack(m) -> np.ndarray:
    """Stack form of validate_hermitian: every matrix of an (..., d, d) array."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise DomainError("matrix has non-finite entries")
    if np.max(np.abs(m - m.conj().swapaxes(-1, -2))) > TOL_HERM:
        raise DomainError("matrix is not Hermitian within tolerance")
    return m


def validate_hermitian(m) -> np.ndarray:
    return _hermitian_stack(_one_matrix(m))


def _psd_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh (w, v) of Hermitian matrices (..., d, d); DomainError if any w < -TOL_PSD."""
    w, v = np.linalg.eigh(m)
    if (w.T[0] < -TOL_PSD).any():  # a numpy scalar for one matrix
        raise DomainError(f"negative eigenvalue {w.min()} beyond tolerance")
    return w, v


def validate_density_matrix(rho) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check Hermiticity, unit trace and positivity, in that order; return
    (rho, w, v): rho as a complex array and its eigh, rho = v diag(w) v^dagger."""
    return validate_density_stack(_one_matrix(rho))


def validate_density_stack(rho) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack form of validate_density_matrix: every state of an (..., d, d) array."""
    rho = _hermitian_stack(rho)
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    dev = abs(tr - 1.0)
    if (dev > TOL_TRACE).any():
        raise DomainError(f"trace is {np.ravel(tr)[np.argmax(dev)]}, expected 1")
    return (rho, *_psd_eigh(rho))


def validate_pure_state(psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex).ravel()
    if psi.size < 1:
        raise DomainError("empty state vector")
    if not np.all(np.isfinite(psi.view(float))):
        raise DomainError("state vector has non-finite entries")
    n = np.linalg.norm(psi)
    if abs(n - 1.0) > TOL_NORM:
        raise DomainError(f"state vector norm is {n}, expected 1")
    return psi


def validate_spectrum(p) -> np.ndarray:
    """p as a 1-d float array; DomainError unless it is nonempty, strictly
    positive, decreasing and sums to 1. Every check fails on NaN."""
    p = np.asarray(p, dtype=float).ravel()
    if p.size < 1:
        raise DomainError("empty spectrum")
    if not (p > 0).all():
        raise DomainError("spectrum components must be strictly positive")
    if not (np.diff(p) <= 1e-12).all():
        raise DomainError("spectrum components must be in decreasing order")
    total = p.sum()
    if not abs(total - 1.0) <= TOL_TRACE:
        raise DomainError(f"spectrum sums to {total}, expected 1")
    return p


def pad_spectrum(p, size: int) -> np.ndarray:
    """Zero-pad a spectrum on the right to the requested length."""
    p = validate_spectrum(p)
    if p.size > size:
        raise DomainError(f"spectrum has {p.size} components, at most {size} allowed")
    return np.concatenate([p, np.zeros(size - p.size)])


# ---------------------------------------------------------------------------
# Kernels (unchecked, on stacks) and spectral primitives
# ---------------------------------------------------------------------------

def _on_support(w: np.ndarray) -> np.ndarray:
    """Ascending PSD eigenvalues (..., d), those below TOL_SUPPORT times the largest set to 0."""
    return np.where(w > TOL_SUPPORT * w[..., -1:], w, 0.0)


def _probabilities(w: np.ndarray) -> np.ndarray:
    """Rows (..., d) with entries at most TOL_ZERO set to 0, then renormalized."""
    w = np.where(w > TOL_ZERO, w, 0.0)
    return w / w.sum(axis=-1, keepdims=True)


def _entropy(p: np.ndarray) -> np.ndarray:
    """-sum p ln p of rows (..., d) padded with zeros, with 0 ln 0 = 0."""
    return -(p * np.log(np.where(p > 0.0, p, 1.0))).sum(axis=-1)


def _distance(a):
    """sqrt(2 - 2a) of affinities a, the Bures or Hellinger distance; 0 for a >= 1."""
    return np.sqrt(np.maximum(0.0, 2.0 - 2.0 * a))


def _partial_trace(rho: np.ndarray, d1: int, d2: int, keep: int) -> np.ndarray:
    """tr_2 (keep 1) or tr_1 (keep 2) of operators (..., d1 d2, d1 d2)."""
    r4 = rho.reshape(rho.shape[:-2] + (d1, d2, d1, d2))
    return np.einsum("...abcb->...ac" if keep == 1 else "...abac->...bc", r4)


def _sqrt_psd(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Principal square roots of PSD matrices given by their eigh, w (..., d)
    and v (..., d, d); w cut by _on_support. It decomposes nothing itself."""
    return (v * np.sqrt(_on_support(w))[..., None, :]) @ v.conj().swapaxes(-1, -2)


def spectrum(rho) -> np.ndarray:
    """Nonzero eigenvalues of a state, decreasing, renormalized to sum 1."""
    p = _probabilities(validate_density_matrix(rho)[1][::-1])
    return p[p > 0.0]


def partial_trace(rho, split, keep: int) -> np.ndarray:
    """Trace out one factor of a bipartite state; ``keep`` is 1 or 2."""
    rho = validate_density_matrix(rho)[0]
    d1, d2 = _check_split(rho.shape[0], split)
    if keep not in (1, 2):
        raise DomainError(f"keep must be 1 or 2, got {keep}")
    return _partial_trace(rho, d1, d2, keep)


def purify(rho) -> np.ndarray:
    """Pure state on system x ancilla whose first marginal is ``rho``.

    The ancilla dimension equals the rank of ``rho`` (eigenvalues above the
    zero cutoff), so the Schmidt coefficients of the result are exactly the
    square roots of spectrum(rho).
    """
    _, w, v = validate_density_matrix(rho)
    p = _probabilities(w)
    psi = (v * np.sqrt(p))[:, p > 0.0].ravel()  # index i*rank + m, factor-1 major
    return psi / np.linalg.norm(psi)


def schmidt(psi, split) -> np.ndarray:
    """Squared Schmidt coefficients of a bipartite pure state (decreasing)."""
    psi = validate_pure_state(psi)
    d1, d2 = _check_split(psi.size, split)
    p = _probabilities(np.linalg.svd(psi.reshape(d1, d2), compute_uv=False) ** 2)
    return p[p > 0.0]


# ---------------------------------------------------------------------------
# Entropies
# ---------------------------------------------------------------------------

def shannon_entropy(p) -> float:
    return float(_entropy(validate_spectrum(p)))


def von_neumann_entropy(rho) -> float:
    return float(_entropy(spectrum(rho)))


# ---------------------------------------------------------------------------
# Matrix functions and distances
# ---------------------------------------------------------------------------

def matrix_sqrt_psd(m) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix. Eigenvalues below
    TOL_SUPPORT times the largest are rounding noise and count as zero."""
    return _sqrt_psd(*_psd_eigh(validate_hermitian(m)))


def bures_distance(rho, sigma) -> float:
    """||sqrt(rho) - sqrt(sigma) W||_F, minimized over unitaries W, in [0, sqrt(2)].

    The minimum is sqrt(2 - 2 tr sqrt(sqrt(rho) sigma sqrt(rho))) for unit
    trace, attained at W = U V^dagger from the SVD U S V^dagger of
    sqrt(sigma) sqrt(rho). Taken as the norm of a difference, the distance
    of a state to itself is 0 up to rounding, with no sqrt(2 - 2a) to
    magnify an affinity a that rounds below 1.
    """
    a, b = (_sqrt_psd(*validate_density_matrix(m)[1:]) for m in (rho, sigma))
    u, _, vh = np.linalg.svd(b @ a)
    return float(np.linalg.norm(a - b @ u @ vh))


def hellinger_distance(rho, sigma) -> float:
    """||sqrt(rho) - sqrt(sigma)||_F, which is sqrt(2 - 2 tr(sqrt(rho) sqrt(sigma)))
    for unit trace, in [0, sqrt(2)]."""
    a, b = (_sqrt_psd(*validate_density_matrix(m)[1:]) for m in (rho, sigma))
    return float(np.linalg.norm(a - b))


# ---------------------------------------------------------------------------
# Seeded randomness
# ---------------------------------------------------------------------------

def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def worker_seed(seed: int, worker_index: int) -> int:
    """Derive an independent 64-bit stream seed for one worker.

    The base seed is XOR-ed with a splitmix64 hash of the worker index
    (offset by one so worker 0 does not collapse to the base seed).
    """
    seed, worker_index = _check_index(seed, "seed"), _check_index(worker_index, "worker_index")
    return (seed & _MASK64) ^ _splitmix64(worker_index + 1)


def worker_rng(seed: int, worker_index: int = 0) -> np.random.Generator:
    """PCG64 generator for one worker's stream (numpy default_rng)."""
    return np.random.default_rng(worker_seed(seed, worker_index))


def haar_pure(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state: normalized standard complex Gaussian vector."""
    if _check_index(dim, "dim") < 1:
        raise DomainError("dimension must be >= 1")
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    if _check_index(dim, "dim") < 1:
        raise DomainError("dimension must be >= 1")
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_density(dim: int, ancilla_dim: int, rng: np.random.Generator) -> np.ndarray:
    """Reduced state of a Haar-random pure state on dim x ancilla_dim."""
    if _check_index(dim, "dim") < 1 or _check_index(ancilla_dim, "ancilla_dim") < 1:
        raise DomainError("dimensions must be >= 1")
    m = haar_pure(dim * ancilla_dim, rng).reshape(dim, ancilla_dim)
    return m @ m.conj().T


def random_spectrum(size: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted, normalized standard exponentials (flat Dirichlet, ordered)."""
    if _check_index(size, "size") < 1:
        raise DomainError("size must be >= 1")
    x = np.sort(rng.standard_exponential(size))[::-1]
    return x / x.sum()


# ---------------------------------------------------------------------------
# State constructors
# ---------------------------------------------------------------------------

def _strictly_correlated_cc(p: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Stack form of strictly_correlated_cc for spectra (..., k), padded with
    zeros or not, k <= min(d_a, d_b); unchecked."""
    states = np.zeros(p.shape[:-1] + (d_a * d_b,) * 2, dtype=complex)
    diagonal = (d_b + 1) * np.arange(p.shape[-1])  # the entries |ii><ii|
    states[..., diagonal, diagonal] = p
    return states


def strictly_correlated_cc(p, d_a: int, d_b: int) -> np.ndarray:
    """CC state with p_ij = p_i delta_ij; the A-marginal has spectrum p."""
    p = validate_spectrum(p)
    d_a, d_b = _check_index(d_a, "d_a"), _check_index(d_b, "d_b")
    if p.size > min(d_a, d_b):
        raise CapacityError(f"{p.size} outcomes do not fit in ({d_a}, {d_b})")
    return _strictly_correlated_cc(p, d_a, d_b)
