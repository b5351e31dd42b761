"""Dense complex linear algebra, quantum-state constructors, and seeded randomness.

Conventions used across the package:

- Operators and pure states are plain complex numpy arrays (square matrices
  and 1-d vectors respectively).
- A *spectrum* is a 1-d float array of strictly positive eigenvalues in
  decreasing order that sums to one; consumers may pad with zeros.
- Bipartite product bases are ordered with the factor-1 index major:
  basis index = i1 * d2 + i2.
- All entropies are in nats, with the convention 0 * ln 0 = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Validation tolerances. Double precision at the dimensions handled here
# (d <= 256) leaves at least six digits of headroom over these.
TOL_HERM = 1e-9
TOL_PSD = 1e-9
TOL_TRACE = 1e-9
TOL_NORM = 1e-9
# Below this cutoff an eigenvalue counts as zero for spectrum extraction.
TOL_ZERO = 1e-12
# Round-trip checks (purify -> partial trace and the like).
TOL_NUM = 1e-8
# Relative to the largest eigenvalue, the rounding level of a PSD product
# such as sqrt(rho) sigma sqrt(rho): below it an eigenvalue counts as zero,
# so its square root does not add noise to a root fidelity.
TOL_SUPPORT = 1e-14

_MASK64 = (1 << 64) - 1


class DomainError(ValueError):
    """An input violates the contract of the operation it was passed to."""


class CapacityError(DomainError):
    """A construction does not fit in the requested dimensions."""


@dataclass(frozen=True)
class BipartiteSplit:
    """Factorization (d1, d2) of a Hilbert space of dimension d1 * d2.

    The bound machinery assumes the convention d2 >= d1 for the internal
    split of system A; the A-versus-B cut has no such restriction (B may
    even be one-dimensional), so it is not enforced here.
    """

    d1: int
    d2: int

    def __post_init__(self) -> None:
        if self.d1 < 1 or self.d2 < 1:
            raise DomainError(f"split dimensions must be positive, got ({self.d1}, {self.d2})")

    def __iter__(self):
        return iter((self.d1, self.d2))

    @property
    def dim(self) -> int:
        return self.d1 * self.d2


def split_dims(split) -> tuple[int, int]:
    """Normalize a BipartiteSplit or (d1, d2) pair to a tuple of ints."""
    d1, d2 = split
    d1, d2 = int(d1), int(d2)
    if d1 < 1 or d2 < 1:
        raise DomainError(f"split dimensions must be positive, got ({d1}, {d2})")
    return d1, d2


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _one_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    return m


def _hermitian_stack(m, tol: float = TOL_HERM) -> np.ndarray:
    """Stack form of validate_hermitian: every matrix of an (..., d, d) array."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise DomainError("matrix has non-finite entries")
    if np.max(np.abs(m - m.conj().swapaxes(-1, -2))) > tol:
        raise DomainError("matrix is not Hermitian within tolerance")
    return m


def validate_hermitian(m, tol: float = TOL_HERM) -> np.ndarray:
    return _hermitian_stack(_one_matrix(m), tol)


def validate_density_matrix(rho) -> np.ndarray:
    """Check Hermiticity, positivity and unit trace; return as complex array."""
    return validate_density_stack(_one_matrix(rho))


def validate_density_stack(rho) -> np.ndarray:
    """Stack form of validate_density_matrix: every state of an (..., d, d) array."""
    rho = _hermitian_stack(rho)
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    dev = abs(tr - 1.0)
    if (dev > TOL_TRACE).any():
        raise DomainError(f"trace is {np.ravel(tr)[np.argmax(dev)]}, expected 1")
    w = np.linalg.eigvalsh(rho).T[0]  # a numpy scalar for one state
    if (w < -TOL_PSD).any():
        raise DomainError(f"negative eigenvalue {w.min()} beyond tolerance")
    return rho


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
    return validate_spectrum_stack(np.asarray(p, dtype=float).ravel())


def validate_spectrum_stack(p, kept=None) -> np.ndarray:
    """Stack form of validate_spectrum: every row of an (..., k) array.

    ``kept`` marks the components of each row, a prefix of it; the rest is
    padding that the checks ignore. By default every entry is a component.
    """
    p = np.asarray(p, dtype=float)
    if p.shape[-1] < 1 or (kept is not None and not kept[..., 0].all()):
        raise DomainError("empty spectrum")
    if kept is None:
        kept = kept_after = True
    else:
        kept_after = kept[..., 1:]
    if ((p <= 0) & kept).any():
        raise DomainError("spectrum components must be strictly positive")
    if ((np.diff(p) > 1e-12) & kept_after).any():
        raise DomainError("spectrum components must be in decreasing order")
    sums = p.sum(axis=-1, where=kept)
    dev = abs(sums - 1.0)
    if (dev > TOL_TRACE).any():
        raise DomainError(f"spectrum sums to {np.ravel(sums)[np.argmax(dev)]}, expected 1")
    return p


def pad_spectrum(p, size: int) -> np.ndarray:
    """Zero-pad a spectrum on the right to the requested length."""
    p = validate_spectrum(p)
    if p.size > size:
        raise DomainError(f"spectrum has {p.size} components, at most {size} allowed")
    out = np.zeros(size)
    out[: p.size] = p
    return out


# ---------------------------------------------------------------------------
# Spectral primitives
# ---------------------------------------------------------------------------

def hermitian_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a Hermitian matrix, eigenvalues descending.

    Returns (w, V) with m = V diag(w) V^dagger and the columns of V
    orthonormal. Degenerate eigenvalues come with an arbitrary orthonormal
    basis of their eigenspace.
    """
    m = validate_hermitian(m)
    w, v = np.linalg.eigh(m)
    return w[::-1].copy(), v[:, ::-1].copy()


def spectrum(rho) -> np.ndarray:
    """Nonzero eigenvalues of a state, decreasing, renormalized to sum 1."""
    rho = validate_density_matrix(rho)
    w = np.linalg.eigvalsh(rho)[::-1]
    w = w[w > TOL_ZERO]
    return w / w.sum()


def partial_trace(rho, split, keep: int) -> np.ndarray:
    """Trace out one factor of a bipartite state; ``keep`` is 1 or 2."""
    d1, d2 = split_dims(split)
    rho = validate_density_matrix(rho)
    if rho.shape[0] != d1 * d2:
        raise DomainError(f"state dimension {rho.shape[0]} does not match split {(d1, d2)}")
    r4 = rho.reshape(d1, d2, d1, d2)
    if keep == 1:
        return np.einsum("abcb->ac", r4)
    if keep == 2:
        return np.einsum("abac->bc", r4)
    raise DomainError(f"keep must be 1 or 2, got {keep}")


def purify(rho) -> np.ndarray:
    """Pure state on system x ancilla whose first marginal is ``rho``.

    The ancilla dimension equals the rank of ``rho`` (eigenvalues above the
    zero cutoff), so the Schmidt coefficients of the result are exactly the
    square roots of spectrum(rho).
    """
    rho = validate_density_matrix(rho)
    w, v = np.linalg.eigh(rho)
    keep = w > TOL_ZERO
    w, v = w[keep], v[:, keep]
    w = w / w.sum()
    psi = (v * np.sqrt(w)).ravel()  # index i*rank + m, factor-1 major
    return psi / np.linalg.norm(psi)


def schmidt(psi, split) -> np.ndarray:
    """Squared Schmidt coefficients of a bipartite pure state (decreasing)."""
    d1, d2 = split_dims(split)
    psi = validate_pure_state(psi)
    if psi.size != d1 * d2:
        raise DomainError(f"state dimension {psi.size} does not match split {(d1, d2)}")
    s = np.linalg.svd(psi.reshape(d1, d2), compute_uv=False)
    p = s * s
    p = p[p > TOL_ZERO]
    return p / p.sum()


# ---------------------------------------------------------------------------
# Entropies and majorization
# ---------------------------------------------------------------------------

def shannon_entropy(p) -> float:
    p = validate_spectrum(p)
    return float(-(p * np.log(p)).sum())


def von_neumann_entropy(rho) -> float:
    return shannon_entropy(spectrum(rho))


def purity(p) -> float:
    p = validate_spectrum(p)
    return float((p * p).sum())


def majorizes(p, q, atol: float = 1e-12) -> bool:
    """True iff every partial sum of p dominates the matching one of q."""
    p = validate_spectrum(p)
    q = validate_spectrum(q)
    n = max(p.size, q.size)
    pp = np.zeros(n)
    pp[: p.size] = p
    qq = np.zeros(n)
    qq[: q.size] = q
    return bool(np.all(np.cumsum(pp) >= np.cumsum(qq) - atol))


# ---------------------------------------------------------------------------
# Matrix functions and distances
# ---------------------------------------------------------------------------

def matrix_sqrt_psd(m) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix.

    Eigenvalues below TOL_SUPPORT times the largest count as zero: they are
    rounding noise of a rank-deficient matrix, and their square roots would
    not be.
    """
    m = validate_hermitian(m)
    w, v = np.linalg.eigh(m)
    if w[0] < -TOL_PSD:
        raise DomainError(f"negative eigenvalue {w[0]} beyond tolerance")
    return (v * np.sqrt(np.where(w > TOL_SUPPORT * w[-1], w, 0.0))) @ v.conj().T


def bures_distance(rho, sigma) -> float:
    """sqrt(2 - 2 tr sqrt(sqrt(rho) sigma sqrt(rho))), in [0, sqrt(2)]."""
    rho = validate_density_matrix(rho)
    sigma = validate_density_matrix(sigma)
    a = matrix_sqrt_psd(rho)
    w = np.linalg.eigvalsh(a @ sigma @ a)
    root_fid = np.sqrt(w[w > TOL_SUPPORT * w[-1]]).sum()
    return float(np.sqrt(max(0.0, 2.0 - 2.0 * root_fid)))


def hellinger_distance(rho, sigma) -> float:
    """sqrt(2 - 2 tr(sqrt(rho) sqrt(sigma))), in [0, sqrt(2)]."""
    rho = validate_density_matrix(rho)
    sigma = validate_density_matrix(sigma)
    aff = np.trace(matrix_sqrt_psd(rho) @ matrix_sqrt_psd(sigma)).real
    return float(np.sqrt(max(0.0, 2.0 - 2.0 * aff)))


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
    return (int(seed) & _MASK64) ^ _splitmix64(int(worker_index) + 1)


def worker_rng(seed: int, worker_index: int = 0) -> np.random.Generator:
    """PCG64 generator for one worker's stream (numpy default_rng)."""
    return np.random.default_rng(worker_seed(seed, worker_index))


def haar_pure(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state: normalized standard complex Gaussian vector."""
    if dim < 1:
        raise DomainError("dimension must be >= 1")
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_density(dim: int, ancilla_dim: int, rng: np.random.Generator) -> np.ndarray:
    """Reduced state of a Haar-random pure state on dim x ancilla_dim."""
    if dim < 1 or ancilla_dim < 1:
        raise DomainError("dimensions must be >= 1")
    m = haar_pure(dim * ancilla_dim, rng).reshape(dim, ancilla_dim)
    return m @ m.conj().T


def random_spectrum(size: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted, normalized standard exponentials (flat Dirichlet, ordered)."""
    if size < 1:
        raise DomainError("size must be >= 1")
    x = np.sort(rng.standard_exponential(size))[::-1]
    return x / x.sum()


# ---------------------------------------------------------------------------
# State constructors
# ---------------------------------------------------------------------------

def projector(psi) -> np.ndarray:
    psi = validate_pure_state(psi)
    return np.outer(psi, psi.conj())


def cc_state(joint, d_a: int, d_b: int) -> np.ndarray:
    """Classical-classical state sum_ij P_ij |i><i| x |j><j|.

    ``joint`` is a d_a x d_b matrix of probabilities summing to one.
    """
    joint = np.asarray(joint, dtype=float)
    if joint.shape != (d_a, d_b):
        raise DomainError(f"joint table shape {joint.shape} does not match ({d_a}, {d_b})")
    if np.any(joint < -1e-15) or abs(joint.sum() - 1.0) > TOL_TRACE:
        raise DomainError("joint table must be nonnegative and sum to 1")
    return np.diag(np.clip(joint, 0.0, None).ravel()).astype(complex)


def strictly_correlated_cc(p, d_a: int, d_b: int) -> np.ndarray:
    """CC state with p_ij = p_i delta_ij; the A-marginal has spectrum p."""
    p = validate_spectrum(p)
    if p.size > min(d_a, d_b):
        raise CapacityError(f"{p.size} outcomes do not fit in ({d_a}, {d_b})")
    joint = np.zeros((d_a, d_b))
    joint[np.arange(p.size), np.arange(p.size)] = p
    return cc_state(joint, d_a, d_b)


def mems_state(p, split) -> np.ndarray:
    """Mixed state whose every eigenvector is maximally entangled.

    Eigenvector i is sum_j |j>_1 |i*d1+j>_2 / sqrt(d1); the blocks of
    factor 2 used by different eigenvectors are orthogonal, which requires
    len(p) * d1 <= d2.
    """
    d1, d2 = split_dims(split)
    p = validate_spectrum(p)
    if p.size * d1 > d2:
        raise CapacityError(
            f"{p.size} maximally entangled eigenvectors need d2 >= {p.size * d1}, got {d2}"
        )
    dim = d1 * d2
    rho = np.zeros((dim, dim), dtype=complex)
    for i, weight in enumerate(p):
        phi = np.zeros(dim, dtype=complex)
        for j in range(d1):
            phi[j * d2 + (i * d1 + j)] = 1.0 / np.sqrt(d1)
        rho += weight * np.outer(phi, phi.conj())
    return rho
