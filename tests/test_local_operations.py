"""The paper's premise as a check of the exact evaluations: a measure of
correlations of any form cannot increase under local operations on A or on
B, and a local unitary U_A x U_B leaves it unchanged.

The targets are mixed states on A x B with a 4-level A (two qubits) and
B of 2 or 3 levels. A local channel is a Stinespring dilation: a Haar
unitary on the system and an environment of 2 to 4 levels started in
|0>, the environment then traced out, mixed with the identity channel at
weights from 1e-3 to 1. A Haar U_A on the 4-level A is entangling inside
A, between its two qubits, yet local to the A:B cut.

The Hellinger distance to the product states (one SVD) and the mutual
information (three eigh) are exact, so both checks hold to rounding.
"""

import numpy as np
import pytest

from entcorr.correlations import c_distance_numeric, mutual_information
from entcorr.qcore import haar_unitary, random_density, worker_rng

MEASURES = {
    "hellinger": lambda rho, split: c_distance_numeric(rho, split, "hellinger"),
    "mutual_information": mutual_information,
}
WEIGHTS = (1e-3, 1e-2, 0.1, 1.0)  # of the channel, against the identity
TOLERANCE = 1e-12


def _targets(count: int = 200) -> list:
    """Mixed states on 4 x 2 and 4 x 3, of every rank from 2 to 4 d_B."""
    rng = worker_rng(35)
    targets = []
    for j in range(count):
        d_b = 2 + j % 2
        rank = 2 + (j // 2) % (4 * d_b - 1)
        targets.append((random_density(4 * d_b, rank, rng), (4, d_b)))
    return targets


TARGETS = _targets()


def _kraus(dim: int, env: int, rng) -> np.ndarray:
    """Kraus operators K[out, k, in] of a Haar unitary on a dim-level system
    and an env-level environment started in |0>, the system index major."""
    return haar_unitary(dim * env, rng)[:, ::env].reshape(dim, env, dim)


def _apply(kraus: np.ndarray, rho: np.ndarray, split, side: str) -> np.ndarray:
    """sum_k (K_k on one side) rho (K_k on that side)^dagger."""
    r4 = rho.reshape(*split, *split)
    rule = "xka,abcd,ykc->xbyd" if side == "A" else "xkb,abcd,ykd->axcy"
    return np.einsum(rule, kraus, r4, kraus.conj()).reshape(rho.shape)


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("measure", MEASURES)
def test_a_local_channel_never_raises_the_value(measure, side):
    """No value rose. The largest change seen over the 200 targets and the 4
    weights was -6.9e-4 (Hellinger) and -7.6e-4 (MI) for channels on A,
    -5.5e-4 and -6.4e-4 on B, all at weight 1e-3."""
    c = MEASURES[measure]
    rng = worker_rng(36)
    rises = []
    for j, (rho, split) in enumerate(TARGETS):
        before = c(rho, split)
        kraus = _kraus(split[side == "B"], 2 + j % 3, rng)
        out = _apply(kraus, rho, split, side)
        rises.extend(c((1.0 - w) * rho + w * out, split) - before for w in WEIGHTS)
    target, weight = divmod(int(np.argmax(rises)), len(WEIGHTS))
    assert max(rises) <= TOLERANCE, (target, WEIGHTS[weight])


@pytest.mark.parametrize("measure", MEASURES)
def test_a_local_unitary_leaves_the_value(measure):
    """Largest move seen over the 200 targets: 3.6e-15 (Hellinger) and
    1.1e-15 (MI)."""
    c = MEASURES[measure]
    rng = worker_rng(37)
    moves = []
    for rho, split in TARGETS:
        u = np.kron(haar_unitary(split[0], rng), haar_unitary(split[1], rng))
        moves.append(abs(c(u @ rho @ u.conj().T, split) - c(rho, split)))
    assert max(moves) <= TOLERANCE
