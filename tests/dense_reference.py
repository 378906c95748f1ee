"""Dense constructions that the package avoids, kept as test references."""

from functools import reduce

import numpy as np


def kron_all(mats) -> np.ndarray:
    """Kronecker product of the matrices in order, the first as the leftmost factor."""
    return reduce(np.kron, [np.asarray(m, dtype=np.complex128) for m in mats])
