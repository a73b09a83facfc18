"""Dense unitaries of the permutations the protocols run as renames.

The program applies every permutation as a registry rename; these matrices,
built by ``gates.permutation_unitary``, are the independent dense oracle the
tests compare it against.
"""

import numpy as np

from ebitnet import gates
from ebitnet.gates import Permutation


def swap_unitary() -> np.ndarray:
    """Exchange of two qubit states; the 2-slot case of a permutation."""
    return gates.permutation_unitary(Permutation.two_cycle())


def ps_unitary(n: int) -> np.ndarray:
    return gates.permutation_unitary(gates.ps_permutation(n))


def ps_cp_unitary(n: int) -> np.ndarray:
    return gates.permutation_unitary(gates.ps_cp_permutation(n))
