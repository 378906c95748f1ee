"""Dense constructions that the package avoids, kept as test references."""

from functools import reduce

import numpy as np


def kron_all(mats) -> np.ndarray:
    """Kronecker product of the matrices in order, the first as the leftmost factor."""
    return reduce(np.kron, [np.asarray(m, dtype=np.complex128) for m in mats])


def apply_to_targets_transposed(vec, n: int, mat, targets) -> np.ndarray:
    """``mat`` on the target qubits of a 2^n vector: move the targets to the
    front, one matrix product, then the inverse transpose."""
    order = list(targets) + [i for i in range(n) if i not in targets]
    psi = np.transpose(np.asarray(vec).reshape([2] * n), order).reshape(1 << len(targets), -1)
    psi = (np.asarray(mat) @ psi).reshape([2] * n)
    return np.transpose(psi, np.argsort(order)).reshape(-1)


def equal_bits(n_qubits: int, q1: int, q2: int) -> np.ndarray:
    """Diagonal of F = |hh><hh| + |vv><vv| on qubits (q1, q2): True where the bits agree."""

    def bit(q):  # qubit q's value at every basis index: runs of 2^(n-1-q)
        return np.tile(np.repeat([False, True], 1 << (n_qubits - 1 - q)), 1 << q)

    return bit(q1) == bit(q2)


def project_equal_bits(amplitudes, n_qubits: int, q1: int, q2: int) -> np.ndarray:
    """F applied to a 2^n vector through a boolean mask of the equal-bit indices."""
    return np.where(equal_bits(n_qubits, q1, q2), amplitudes, 0.0)
