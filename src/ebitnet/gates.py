"""Operator constructors: Paulis, Bell states, permutations, CNOT and Haar unitaries.

Matrices follow the engine convention that the first target qubit is the
least significant bit of the operator index.  Permutations act on party
slots 1..n and move the state at slot i to slot P(i), so the cyclic shift
1->2->...->n->1 sends |abc> to |cab> for n = 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

# Bell label -> encoding operator on the second qubit of phi+
BELL_ENCODERS = {"00": ID2, "01": PAULI_X, "10": PAULI_Z, "11": PAULI_X @ PAULI_Z}

# teleportation correction for a given Bell outcome at the source
TELEPORT_CORRECTIONS = {"00": ID2, "01": PAULI_X, "10": PAULI_Z, "11": PAULI_Z @ PAULI_X}


@dataclass(frozen=True)
class Permutation:
    """Bijection on party indices 1..n; ``mapping[i-1]`` is P(i)."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        mapping = tuple(int(v) for v in self.mapping)
        object.__setattr__(self, "mapping", mapping)
        n = len(mapping)
        if sorted(mapping) != list(range(1, n + 1)):
            raise ValueError(f"{mapping} is not a bijection on 1..{n}")

    @property
    def n(self) -> int:
        return len(self.mapping)

    @property
    def is_derangement(self) -> bool:
        return all(self.mapping[i - 1] != i for i in range(1, self.n + 1))

    def __call__(self, i: int) -> int:
        return self.mapping[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.mapping, start=1):
            inv[v - 1] = i
        return Permutation(tuple(inv))

    @classmethod
    def cyclic_shift(cls, n: int) -> "Permutation":
        """The n-cycle sending slot i to slot i+1 (and n back to 1)."""
        return cls(tuple(i % n + 1 for i in range(1, n + 1)))


def ps_permutation(n: int) -> Permutation:
    """Pairwise swap of consecutive slots (1,2)(3,4)...; n must be even."""
    if n < 2 or n % 2:
        raise ValueError(f"pairwise swap needs an even slot count, got {n}")
    mapping = []
    for i in range(1, n + 1, 2):
        mapping += [i + 1, i]
    return Permutation(tuple(mapping))


def ps_cp_permutation(n: int) -> Permutation:
    """Pairwise swap on the first n-3 slots plus a 3-cycle on the rest; n odd >= 3."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"pairwise swap + cycle needs an odd slot count >= 3, got {n}")
    mapping = list(ps_permutation(n - 3).mapping) if n > 3 else []
    mapping += [n - 1, n, n - 2]  # n-2 -> n-1 -> n -> n-2
    return Permutation(tuple(mapping))


def cnot_unitary() -> np.ndarray:
    """Controlled-NOT with the first target as control, the second as target."""
    mat = np.zeros((4, 4), dtype=complex)
    for g in range(4):
        mat[g ^ ((g & 1) << 1), g] = 1.0
    return mat


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)
