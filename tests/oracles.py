"""Independent oracles the tests check the program against; the program never calls them.

- ``permutation_unitary`` builds the dense unitary of a permutation (the state
  at slot i moves to slot P(i)); ``swap_unitary``, ``ps_unitary`` and
  ``ps_cp_unitary`` are the permutations the protocols run.  The program applies
  every permutation as a registry rename (``engine.relabel_qubits``, through
  ``ledger.apply_event`` for an oracle event); these matrices are what the tests
  compare that rename with.
- ``dress_with_locals`` and ``local_equivalence_conjugate`` put per-slot local
  unitaries around an operator and take them off again, so a test can run a
  locally dressed permutation through ``CollectiveOp(unitary=...)`` and recover it.
- ``min_teleportation_search`` is the exhaustive schedule search behind the
  closed form ``bounds.min_teleportation_count`` = 2(n-1).
- ``rederive_lower_bounds`` recomputes ``bounds.lower_bounds`` through the graph
  machinery (partitions, cross-partition weights, symmetrised edge weights).
- ``permutation_gain_edges`` lists the edges a permutation gains on, from which
  the tests rebuild ``graphs.expendable_resources`` and
  ``bounds.half_transfer_bounds``.
- ``bell_states`` lists the four Bell states by label, the basis
  ``engine.bell_measure`` reads out.
- ``DenseEnsemble`` runs trace events on one dense 2^k vector per branch, as
  the engine did before it kept each branch as a product of factors: kron on
  allocation, one tensordot over the whole vector per gate, index masks per
  measurement outcome.  The tests run the factored engine against it event by
  event.
"""

import math
from collections import deque
from fractions import Fraction
from functools import reduce
from typing import Sequence

import numpy as np

from ebitnet import gates, graphs, ledger
from ebitnet.gates import Permutation
from ebitnet.ledger import Allocate, Coalesce, CollectiveOracle, EbitConsume, LocalGate, LocalMeasure, Relabel, Relocate


def permutation_unitary(p: Permutation) -> np.ndarray:
    """Unitary on n qubits moving the state at slot i to slot P(i)."""
    n = p.n
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=complex)
    for old in range(dim):
        new = 0
        for i in range(1, n + 1):
            new |= ((old >> (i - 1)) & 1) << (p(i) - 1)
        mat[new, old] = 1.0
    return mat


def swap_unitary() -> np.ndarray:
    """Exchange of two qubit states; the 2-slot case of a permutation."""
    return permutation_unitary(Permutation.two_cycle())


def ps_unitary(n: int) -> np.ndarray:
    return permutation_unitary(gates.ps_permutation(n))


def ps_cp_unitary(n: int) -> np.ndarray:
    return permutation_unitary(gates.ps_cp_permutation(n))


def bell_states() -> dict[str, np.ndarray]:
    """The four Bell states by label, the basis ``engine.bell_measure`` reads out."""
    return {label: gates.bell_state(label) for label in ("00", "01", "10", "11")}


def tensor_each(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Tensor product with ``mats[0]`` acting on the least significant qubit."""
    return reduce(np.kron, reversed(list(mats)))


def local_equivalence_conjugate(
    t: np.ndarray, pre_locals: Sequence[np.ndarray], post_locals: Sequence[np.ndarray]
) -> np.ndarray:
    """Undo a dressing by per-slot locals: returns (tensor of post^dag) T (tensor of pre^dag).

    If ``t`` was built as (tensor of post) U (tensor of pre), this recovers U.
    """
    n = len(pre_locals)
    if len(post_locals) != n:
        raise ValueError("need one pre and one post local per slot")
    dim = 1 << n
    t = np.asarray(t, dtype=complex)
    if t.shape != (dim, dim):
        raise ValueError(f"operator shape {t.shape} does not match {n} slots")
    pre_dag = tensor_each([np.asarray(u).conj().T for u in pre_locals])
    post_dag = tensor_each([np.asarray(u).conj().T for u in post_locals])
    return post_dag @ t @ pre_dag


def dress_with_locals(
    u: np.ndarray, pre_locals: Sequence[np.ndarray], post_locals: Sequence[np.ndarray]
) -> np.ndarray:
    """(tensor of post) U (tensor of pre): a local-unitary equivalent of U."""
    return tensor_each(list(post_locals)) @ np.asarray(u, dtype=complex) @ tensor_each(list(pre_locals))


def min_teleportation_search(n: int) -> int:
    """Exhaustive oracle for the teleportation count.

    Models a teleport x -> y as unioning x's known-lab set into y's and
    breadth-first searches for the shortest schedule after which every lab
    knows every other.  State space is factorial-ish, so capped at n = 4.
    """
    if not 2 <= n <= 4:
        raise ValueError(f"the exhaustive schedule search covers n = 2..4, got {n}")
    full = (1 << n) - 1
    start = tuple(1 << i for i in range(n))
    seen = {start}
    queue = deque([(start, 0)])
    moves = [(x, y) for x in range(n) for y in range(n) if x != y]
    while queue:
        state, depth = queue.popleft()
        if all(x == full for x in state):
            return depth
        for x, y in moves:
            nxt = list(state)
            nxt[y] |= nxt[x]
            nxt = tuple(nxt)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, depth + 1))
    raise AssertionError("information-flow search failed to terminate")


def rederive_lower_bounds(n: int) -> tuple[Fraction, Fraction]:
    """Recompute the lower bounds through the graph machinery.

    Builds the even/odd partition, reads the unit cross-partition weight off
    a regular complete graph, solves the symmetrised-edge inequality for the
    minimum edge weight, and maps back to a total through the closed-form
    scale factor.  Must agree with ``bounds.lower_bounds`` exactly.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    part = graphs.Partition.even_odd(n)
    created = Fraction(math.factorial(n)) * (n if n % 2 == 0 else n - 1)
    unit_e = graphs.cross_partition(graphs.regular_complete(n, 1, "entanglement"), part)
    unit_c = graphs.cross_partition(graphs.regular_complete(n, 1, "communication"), part, "a_to_b")
    e_min = created / unit_e
    c_min = created / unit_c
    scale_e = graphs.symmetrised_edge_weight("entanglement", 1, n)
    scale_c = graphs.symmetrised_edge_weight("communication", 1, n)
    return e_min / scale_e, c_min / scale_c


def permutation_gain_edges(mapping: Sequence[int], kind: str) -> set:
    """Edges that gain resources when the permutation (slot i -> slot
    mapping[i-1]) is the target operation: {i,P(i)} pairs, directed i->P(i)
    for communication."""
    n = len(mapping)
    if kind == "entanglement":
        return {frozenset((i, mapping[i - 1])) for i in range(1, n + 1)}
    if kind == "communication":
        return {(i, mapping[i - 1]) for i in range(1, n + 1)}
    raise ValueError(f"unknown kind {kind!r}")


# CNOT from the first qubit (bit 0), then a Hadamard on it: Bell state "ab" to basis state "ab"
_BELL_TO_BASIS = np.kron(np.eye(2), gates.HADAMARD) @ gates.cnot_unitary()


class DenseEnsemble:
    """Weighted branches (probability, dense vector, record), registry qubit r at
    amplitude-index bit r, that ``apply`` evolves event by event."""

    def __init__(self, ensemble):
        self.registry = list(ensemble.registry)
        self.branches = [(b.probability, b.amplitudes, dict(b.record)) for b in ensemble.branches]
        self.measurement_count = ensemble.measurement_count

    def apply(self, event) -> dict[str, float] | None:
        """Run ``event``; return a measurement's outcome distribution."""
        if isinstance(event, Allocate):
            block = np.zeros(1 << len(event.qubits), dtype=complex)
            block[int(event.init[::-1], 2)] = 1.0
            self._append(event.qubits, block)
        elif isinstance(event, EbitConsume):
            self._append(event.qubits, np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))
        elif isinstance(event, LocalGate):
            cases = dict(event.cases or ())
            self.branches = [(p, self._gate(vec, event.targets, event.matrix if event.cases is None
                                            else cases[record[event.conditional_on]]), record)
                             for p, vec, record in self.branches]
        elif isinstance(event, (CollectiveOracle, Relocate, Relabel)):
            renames = ledger.event_renames(event)
            self.registry = [renames.get(q, q) for q in self.registry]
        elif isinstance(event, LocalMeasure) and event.povm is not None:
            rho = sum(p * self._reduced(vec, event.targets) for p, vec, _ in self.branches)
            probs = [float(np.real(np.trace(rho @ e))) for e in event.povm.elements]
            return {str(r): p for r, p in enumerate(probs) if p > 0.0}
        elif isinstance(event, LocalMeasure):
            return self._measure(event.targets, event.basis == "bell", event.discard)
        elif isinstance(event, Coalesce):
            self._coalesce()
        return None

    def _append(self, qubits, block):
        self.registry += list(qubits)
        self.branches = [(p, np.kron(block, vec), record) for p, vec, record in self.branches]

    def _gate(self, vec, targets, matrix):
        k, m = len(self.registry), len(targets)
        axes = [k - 1 - self.registry.index(q) for q in targets]  # state axis of gate bit j
        op = np.asarray(matrix).reshape((2,) * (2 * m))
        out = np.tensordot(op, vec.reshape((2,) * k), axes=([2 * m - 1 - j for j in range(m)], axes))
        return np.moveaxis(out, [m - 1 - j for j in range(m)], axes).reshape(-1)

    def _bits(self, targets):
        """For each amplitude index, the value of ``targets`` as a number, target j at bit j."""
        index = np.arange(1 << len(self.registry))
        return sum(((index >> self.registry.index(q)) & 1) << j for j, q in enumerate(targets))

    def _reduced(self, vec, targets):
        """Density matrix of ``targets`` ordered by registry position, the first at bit 0."""
        ordered = sorted(targets, key=self.registry.index)
        kept, rest = self._bits(ordered), self._bits([q for q in self.registry if q not in targets])
        mat = np.zeros((1 << len(ordered), 1 << (len(self.registry) - len(ordered))), dtype=complex)
        mat[kept, rest] = vec
        return mat @ mat.conj().T

    def _measure(self, targets, bell, discard):
        if bell:
            self.branches = [(p, self._gate(vec, targets, _BELL_TO_BASIS), r) for p, vec, r in self.branches]
        values = self._bits(targets)
        index = self.measurement_count
        dist, branches = {}, []
        for p, vec, record in self.branches:
            for code in range(1 << len(targets)):
                mask = values == code
                weight = float(np.sum(np.abs(vec[mask]) ** 2))
                if p * weight <= 1e-14:
                    continue
                outcome = "".join(str((code >> j) & 1) for j in range(len(targets)))
                dist[outcome] = dist.get(outcome, 0.0) + p * weight
                kept = vec[mask] if discard else np.where(mask, vec, 0)
                branches.append((p * weight, kept / math.sqrt(weight), {**record, index: outcome}))
        self.branches, self.measurement_count = branches, index + 1
        if discard:
            self.registry = [q for q in self.registry if q not in targets]
        elif bell:
            self.branches = [(p, self._gate(vec, targets, _BELL_TO_BASIS.conj().T), r) for p, vec, r in self.branches]
        return dict(sorted(dist.items()))

    def _coalesce(self):
        """Merge branches equal up to a global phase to within 1e-10, keeping the first;
        a record keeps the outcomes all merged branches agree on."""
        merged = []
        for p, vec, record in self.branches:
            anchor = int(np.argmax(np.abs(vec) > 1e-9))
            canon = vec * np.conj(vec[anchor] / abs(vec[anchor]))
            for entry in merged:
                if np.allclose(entry[0], canon, rtol=0, atol=1e-10):
                    entry[1] += p
                    entry[3] = {k: v for k, v in entry[3].items() if record.get(k) == v}
                    break
            else:
                merged.append([canon, p, vec, dict(record)])
        self.branches = [(p, vec, record) for _, p, vec, record in merged]
