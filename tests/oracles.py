"""Independent oracles the tests check the program against; the program never calls them.

- ``identity_permutation`` and ``two_cycle`` build the permutations the tests
  name; ``permutation_unitary`` builds the dense unitary of a permutation (the state
  at slot i moves to slot P(i)); ``swap_unitary``, ``ps_unitary`` and
  ``ps_cp_unitary`` are the permutations the protocols run.  The program applies
  every permutation as a registry rename (``engine.relabel_qubits``, through
  ``ledger.apply_event`` for an oracle event); these matrices are what the tests
  compare that rename with.
- ``dress_with_locals`` and ``local_equivalence_conjugate`` put per-slot local
  unitaries around an operator and take them off again, so a test can run a
  locally dressed permutation through ``CollectiveOp(unitary=...)`` and recover it.
- ``min_teleportation_search`` is the exhaustive schedule search behind the
  closed form 2(n-1), the ebit count ``bounds.teleport_resources(n)[0]`` of the
  hub protocol, one ebit per teleportation.
- The paper's resource-graph calculus on frozenset partitions: ``Partition``,
  ``regular_complete``, ``cross_partition``, ``expendable_resources``,
  ``half_transfer_check`` and, on a signed ``DeltaMatrix``, the three-lab
  conditions ``delta_three_lab_bound``.  ``cross_partition`` is the brute-force
  oracle for the audit's integer cut sums (``audit._terms`` and
  ``audit._leaving``), the program's one count across a bipartition.
- ``rederive_lower_bounds`` recomputes ``bounds.lower_bounds`` through that
  calculus (partitions, cross-partition weights, symmetrised edge weights).
- ``permutation_gain_edges`` lists the edges a permutation gains on, from which
  the tests rebuild ``expendable_resources`` and ``bounds.half_transfer_bounds``.
- ``comparison_predicates`` evaluates the bound-ordering identities at one n
  (odd bound against the cap, half-transfer bound against the integer ceiling,
  the rounded conditional communication bound against teleportation) as
  products of Fractions, the oracle for ``bounds.integer_comm_boundary``, which
  tests the last of them in integers.
- ``bell_state`` gives a Bell state's amplitudes by label, and ``bell_states``
  all four, the basis ``engine.bell_measure`` reads out.
- ``supplementary_information`` is the Shannon entropy of a POVM's outcomes,
  which ``protocols`` books as supplementary bits.
- ``DenseEnsemble`` runs trace events on one dense 2^k vector per branch, as
  the engine did before it kept each branch as a product of factors: kron on
  allocation, one tensordot over the whole vector per gate, index masks per
  measurement outcome.  The tests run the factored engine against it event by
  event.
"""

import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from ebitnet import engine, gates, graphs, ledger
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


def identity_permutation(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def two_cycle() -> Permutation:
    """The exchange of two slots."""
    return Permutation((2, 1))


def swap_unitary() -> np.ndarray:
    """Exchange of two qubit states; the 2-slot case of a permutation."""
    return permutation_unitary(two_cycle())


def ps_unitary(n: int) -> np.ndarray:
    return permutation_unitary(gates.ps_permutation(n))


def ps_cp_unitary(n: int) -> np.ndarray:
    return permutation_unitary(gates.ps_cp_permutation(n))


def bell_state(label: str) -> np.ndarray:
    """Amplitudes of the Bell state with the given 2-bit label."""
    if label not in gates.BELL_ENCODERS:
        raise ValueError(f"unknown Bell label {label!r}")
    phi_plus = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    # operator on the second qubit (bit 1): kron puts bit 0 last
    return np.kron(gates.BELL_ENCODERS[label], gates.ID2) @ phi_plus


def bell_states() -> dict[str, np.ndarray]:
    """The four Bell states by label, the basis ``engine.bell_measure`` reads out."""
    return {label: bell_state(label) for label in ("00", "01", "10", "11")}


def supplementary_information(povm, ensemble, targets) -> float:
    """Bits a recorded measurement generates: Shannon entropy of its outcomes."""
    return engine.shannon_entropy(engine.measure_povm(ensemble, povm, targets))


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
    part = Partition.even_odd(n)
    created = Fraction(math.factorial(n)) * (n if n % 2 == 0 else n - 1)
    unit_e = cross_partition(regular_complete(n, 1, "entanglement"), part)
    unit_c = cross_partition(regular_complete(n, 1, "communication"), part, "a_to_b")
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


@dataclass(frozen=True)
class ComparisonReport:
    n: int
    odd_bound_vs_cap: Fraction          # 2n(n-1)/(n+1) - n, nonnegative for n >= 3
    odd_bound_equals_cap: bool          # true only at n = 3
    half_transfer_vs_integer: Fraction  # 2(n-1)/(1+3/n^2) - (2(n-1)-1)
    half_transfer_equals_integer: bool  # true only at n = 3
    integer_comm_equals_teleport: bool  # ceil of conditional comm bound hits 4(n-1)


def comparison_predicates(n: int) -> ComparisonReport:
    """Evaluate the bound-ordering identities at a given n (n >= 3), each figure
    a product of Fractions: the scan ``bounds.integer_comm_boundary`` makes in
    integers, done over the rationals."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    odd_e = 2 * Fraction(n, n + 1) * (n - 1)
    cap_e = Fraction(n)
    ht_e = 2 * Fraction(n * n, n * n + 3) * (n - 1)
    int_e = Fraction(2 * (n - 1) - 1)
    ht_c = 4 * Fraction(n * n, n * n + 3) * (n - 1)
    teleport_c = 4 * (n - 1)
    return ComparisonReport(
        n=n,
        odd_bound_vs_cap=odd_e - cap_e,
        odd_bound_equals_cap=odd_e == cap_e,
        half_transfer_vs_integer=ht_e - int_e,
        half_transfer_equals_integer=ht_e == int_e,
        integer_comm_equals_teleport=math.ceil(ht_c) == teleport_c,
    )


# -- the resource-graph calculus of the paper, on frozenset partitions ---------


@dataclass(frozen=True)
class Partition:
    """A bipartition of parties 1..n into two nonempty sides."""

    n: int
    side_a: frozenset[int]

    def __post_init__(self):
        side = frozenset(self.side_a)
        object.__setattr__(self, "side_a", side)
        universe = set(range(1, self.n + 1))
        if not side or not side < universe:
            raise ValueError(f"side {sorted(side)} is not a proper nonempty subset of 1..{self.n}")

    @property
    def side_b(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1)) - self.side_a

    @classmethod
    def even_odd(cls, n: int) -> "Partition":
        """Even-indexed parties on side a, odd-indexed on side b."""
        return cls(n, frozenset(range(2, n + 1, 2)))


@dataclass(frozen=True)
class DeltaMatrix:
    """Difference of target minus resource entanglement, pair by pair: a
    symmetric n x n matrix of rationals of either sign with a zero diagonal."""

    n: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.n or any(len(row) != self.n for row in self.entries):
            raise graphs.GraphFormatError(f"delta: expected {self.n} rows of {self.n} entries")
        rows = []
        for i, row in enumerate(self.entries):
            out = []
            for j, cell in enumerate(row):
                try:
                    out.append(Fraction(cell))
                except (ValueError, TypeError, ZeroDivisionError, OverflowError):
                    raise graphs.GraphFormatError(f"delta[{i}][{j}]: not a rational: {cell!r}") from None
            rows.append(tuple(out))
        if any(rows[i][i] for i in range(self.n)):
            raise graphs.GraphFormatError("delta: diagonal must be zero")
        graphs._check_symmetric(rows, "delta")
        object.__setattr__(self, "entries", tuple(rows))


def regular_complete(n: int, weight: int | Fraction, kind: str = "entanglement") -> graphs.Graph:
    w = Fraction(weight)
    mat = tuple(tuple(Fraction(0) if i == j else w for j in range(n)) for i in range(n))
    cls = graphs.EntanglementGraph if kind == "entanglement" else graphs.CommunicationGraph
    return cls(n, mat)


def cross_partition(g: graphs.Graph, partition: Partition, direction: str | None = None) -> Fraction:
    """Resource weight crossing the partition: the brute-force oracle for the
    audit's cut sums (``audit._leaving``).

    For entanglement graphs: the ebits shared between the two sides.  For
    communication graphs a direction is required: "a_to_b" or "b_to_a".
    """
    if partition.n != g.n:
        raise ValueError("partition and graph disagree on the party count")
    a, b = partition.side_a, partition.side_b
    if isinstance(g, graphs.EntanglementGraph):
        if direction is not None:
            raise ValueError("direction applies to communication graphs only")
        return sum((g.weight(i, j) for i in a for j in b), Fraction(0))
    if direction == "a_to_b":
        pairs = ((i, j) for i in a for j in b)
    elif direction == "b_to_a":
        pairs = ((j, i) for i in a for j in b)
    else:
        raise ValueError('communication graphs need direction "a_to_b" or "b_to_a"')
    return sum((g.weight(i, j) for i, j in pairs), Fraction(0))


def expendable_resources(g: graphs.Graph, gain_set: Iterable) -> Fraction:
    """Total weight on edges outside the gaining set.

    For entanglement graphs ``gain_set`` holds unordered pairs (frozensets);
    both matrix orders of a non-gaining edge are summed and halved.  For
    communication graphs it holds ordered (sender, receiver) tuples.
    """
    gain = set(gain_set)
    undirected = isinstance(g, graphs.EntanglementGraph)
    edge = frozenset if undirected else tuple
    total = sum((g.weight(i, j) for i, j in itertools.permutations(range(1, g.n + 1), 2)
                 if edge((i, j)) not in gain), Fraction(0))
    return total / 2 if undirected else total


@dataclass(frozen=True)
class HalfTransferCheck:
    satisfied: bool
    slack: Fraction           # expendable/2 - (created - direct); >= 0 when satisfied
    created: Fraction
    direct: Fraction          # resource already sitting on the gaining edges
    expendable: Fraction


def half_transfer_check(edge_weight: int | Fraction, n: int, created: int | Fraction,
                        kind: str = "entanglement") -> HalfTransferCheck:
    """Check that the resource gain stays within half of the expendable pool.

    Assumes a regular complete graph of the given edge weight and the
    pairwise-swap gaining pattern on an even number of parties: the gain
    beyond what the gaining edges already carry must not exceed half the
    weight on all other edges.
    """
    if n < 2 or n % 2:
        raise ValueError("the pairwise-swap pattern needs an even party count")
    w = Fraction(edge_weight)
    created = Fraction(created)
    direct = Fraction(n) * w / 2
    if kind == "entanglement":
        expendable = Fraction(n * n - 2 * n) * w / 2
    elif kind == "communication":
        expendable = Fraction(n * n - 2 * n) * w
    else:
        raise ValueError(f"unknown kind {kind!r}")
    slack = expendable / 2 - (created - direct)
    return HalfTransferCheck(slack >= 0, slack, created, direct, expendable)


@dataclass(frozen=True)
class DeltaVerdict:
    row_sums_ok: bool            # no lab's total shared entanglement grew
    single_gain_ok: bool         # at most one pair gained
    half_loss_ok: bool | None    # gain <= half of total loss (None if nothing gained)
    half_loss_slack: Fraction | None
    gaining_pair: tuple[int, int] | None

    @property
    def all_hold(self) -> bool:
        return self.row_sums_ok and self.single_gain_ok and self.half_loss_ok is not False


def delta_three_lab_bound(delta: DeltaMatrix) -> DeltaVerdict:
    """Three-lab entanglement-transfer conditions on a difference matrix.

    (a) every row sums to at most zero, (b) at most one off-diagonal pair is
    positive, and (c) that pair's gain is at most half the loss on the other
    two pairs.  The classic entanglement-swapping difference meets (c) with
    equality.
    """
    if delta.n != 3:
        raise ValueError("this bound is specific to 3 laboratories")
    e = delta.entries
    row_sums_ok = all(sum(e[i]) <= 0 for i in range(3))
    positive = [(i, j) for i in range(3) for j in range(i + 1, 3) if e[i][j] > 0]
    single_gain_ok = len(positive) <= 1
    half_loss_ok: bool | None = None
    slack: Fraction | None = None
    gaining: tuple[int, int] | None = None
    if len(positive) == 1:
        i, j = positive[0]
        k = 3 - i - j
        gaining = (i + 1, j + 1)
        loss = abs(e[i][k] + e[j][k])
        slack = loss / 2 - e[i][j]
        half_loss_ok = slack >= 0
    return DeltaVerdict(row_sums_ok, single_gain_ok, half_loss_ok, slack, gaining)


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
