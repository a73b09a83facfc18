"""Independent oracles the tests check the program against; the program never calls them.

- ``identity_permutation`` and ``two_cycle`` build the permutations the tests
  name; ``permutation_unitary`` builds the dense unitary of a permutation (the state
  at slot i moves to slot P(i)); ``swap_unitary``, ``ps_unitary`` and
  ``ps_cp_unitary`` are the permutations the protocols run.  The program applies
  every permutation as a registry rename (``engine.relabel_qubits``, through an
  oracle event's ``apply``); these matrices are what the tests compare that
  rename with.
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
  oracle for the audit's integer cut sums (``audit._book_sums``), the program's
  one count across a bipartition.
- ``cut_masks``, ``party_mask``, ``book_terms``, ``leaving``, ``spans`` and
  ``cut_splits`` are the audit's cut listing, cut sums, spanned cuts and group
  splits as the audit once made them, one cut at a time in Python ints: the
  references for its int64 mask arrays (``audit._Cuts``, ``audit._book_sums``,
  ``audit._spanned``).
- ``read_fraction_graphs`` reads a graph file as the program read it when a graph
  held one ``Fraction`` per cell, with the same checks in the same order and the
  same messages; ``fraction_total``, ``fraction_symmetrised_weight``,
  ``fraction_symmetrise``, ``fraction_export_json`` and ``fraction_export_dot``
  sum, symmetrise and write such matrices.  They are the oracles for the integer
  numerators over one denominator that ``graphs.Graph`` holds;
  ``fraction_matrix`` reads a graph back as Fractions, and ``graph_of`` builds
  one from them.
- ``rederive_lower_bounds`` recomputes ``bounds.lower_bounds`` through that
  calculus (partitions, cross-partition weights, symmetrised edge weights).
- ``permutation_gain_edges`` lists the edges a permutation gains on, from which
  the tests rebuild ``expendable_resources`` and ``bounds.half_transfer_bounds``.
- ``comparison_predicates`` evaluates the bound-ordering identities at one n
  (odd bound against the cap, half-transfer bound against the integer ceiling,
  the rounded conditional communication bound against teleportation) as
  products of Fractions.
- ``fraction_bound_report``, ``fraction_table_csv``, ``fraction_table_json`` and
  ``fraction_integer_comm_boundary`` build, check and write the bound table as
  the program did when it held one ``Fraction`` per figure and took each ceiling
  with ``math.ceil``: the oracles for the integer numerators over one
  denominator per n that ``bounds.bound_report`` holds.
- ``dumps_table_json`` writes a built bound table through one dict per entry and
  ``json.dumps(doc, sort_keys=True, indent=2)``, and ``per_n_integer_comm_boundary``
  builds each odd-n report again for its scan, as ``ebitnet bounds`` once did:
  the oracles for ``bounds.table_json``'s template writer and for the boundary
  scan that reads the table the command built.
- ``bell_state`` gives a Bell state's amplitudes by label, and ``bell_states``
  all four, the basis ``engine.bell_measure`` reads out.
- ``supplementary_information`` is the Shannon entropy of a POVM's outcomes,
  which ``protocols`` books as supplementary bits.
- ``dense_vectors`` gives each branch's dense statevector over the registry,
  through ``engine.branch_vectors``.
- ``canonical_base64`` re-encodes the bytes of a base64 text, as the trace reader
  once checked a base64 array: the oracle for the reader's padding and pad-bit
  check.  ``json_line_refusal`` reads a trace line with ``json.loads``, as the
  reader once did: the oracle for its one line decoder's refusals.
- ``complex_pairs`` writes a small complex array as nested lists ending in
  [re, im] pairs from stacked copies of its real and imaginary parts, as the
  trace writer once did: the oracle for ``ledger._complex_out``'s pair form.
- ``one_branch`` is the ensemble of one dense vector (``BranchEnsemble.from_vectors``
  with probability 1), over party 1's qubits x0, x1, ... unless a registry is
  given, and ``allocate`` appends fresh qubits by label (``engine.allocate_qubits``
  of their ids), all zeros unless an init string is given.
- ``DenseEnsemble`` runs trace events on one dense 2^k vector per branch, as
  the engine did before it kept each branch as a product of factors: kron on
  allocation, one tensordot over the whole vector per gate, index masks per
  measurement outcome.  The tests run the factored engine against it event by
  event.  It keeps its own dispatch on the event kind and never calls an
  event's ``apply``; it reads only the ids a rename event's ``renames`` gives.
"""

import base64
import itertools
import json
import math
import re
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from ebitnet import bounds, engine, gates, graphs
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
    ent, comm = regular_complete(n, 1, "entanglement"), regular_complete(n, 1, "communication")
    e_min = created / cross_partition(ent, part)
    c_min = created / cross_partition(comm, part, "a_to_b")
    # the closed form's factor per unit of total
    scale_e = ent.symmetrised_weight() / ent.total()
    scale_c = comm.symmetrised_weight() / comm.total()
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


# -- the bound table built, checked and written one Fraction per figure ----------


def fraction_teleport_resources(n: int) -> tuple[Fraction, Fraction]:
    return Fraction(2 * (n - 1)), Fraction(4 * (n - 1))


def fraction_distillation_caps(n: int) -> tuple[Fraction, Fraction]:
    return Fraction(n), Fraction(2 * n)


def fraction_lower_bounds(n: int) -> tuple[Fraction, Fraction]:
    if n % 2 == 0:
        return fraction_teleport_resources(n)
    e = Fraction(2 * n * (n - 1), n + 1)
    return e, 2 * e


def fraction_half_transfer_bounds(n: int) -> tuple[Fraction, Fraction]:
    e = Fraction(2 * n * n * (n - 1), n * n + 3)
    return e, 2 * e


FRACTION_RESOURCES = ("teleport", "lower", "half_transfer", "cap", "integer_one_shot")


@dataclass(frozen=True)
class FractionBoundReport:
    """A party count's figures as the bounds once held them: each resource's
    (ebits, bits) as Fractions, integer ceilings as ints, None for an odd-n
    refinement at even n; checked as the program checks its numerators."""

    n: int
    figures: dict[str, tuple | None]

    parity = property(lambda self: "odd" if self.n % 2 else "even")
    optimality_open = property(lambda self: self.n == 3)
    half_transfer_conditional = property(lambda self: self.n % 2 == 1)

    def __post_init__(self):
        (te, tc), (le, lc), (cape, capc) = (self.figures[name] for name in ("teleport", "lower", "cap"))
        if le > te or lc > tc:
            raise AssertionError(f"n={self.n}: lower bound exceeds the teleportation figure")
        for cap, low in ((cape, le), (capc, lc)):
            if cap > low or cap == low and self.n >= 4:
                raise AssertionError(f"n={self.n}: cap {'reaches' if cap == low else 'exceeds'} the lower bound")
        if any(v < 0 for v in (te, tc, le, lc, cape, capc)):
            raise AssertionError(f"n={self.n}: negative bound value")


def fraction_bound_report(n: int) -> FractionBoundReport:
    """The oracle for ``bounds.bound_report``: each figure a Fraction, each one-shot
    ceiling ``math.ceil`` of the odd-n lower bound."""
    odd = n % 2 == 1
    return FractionBoundReport(n, {
        "teleport": fraction_teleport_resources(n), "lower": fraction_lower_bounds(n),
        "half_transfer": fraction_half_transfer_bounds(n) if odd else None,
        "cap": fraction_distillation_caps(n),
        "integer_one_shot": tuple(map(math.ceil, fraction_lower_bounds(n))) if odd else None})


def fraction_table_csv(n_max: int) -> str:
    """The oracle for ``bounds.table_csv``: each cell ``str`` of its Fraction or int."""
    lines = [",".join(("n", "kind") + FRACTION_RESOURCES)]
    for rep in map(fraction_bound_report, range(2, n_max + 1)):
        for i, kind in enumerate(("entanglement", "communication")):
            cells = ("" if rep.figures[name] is None else str(rep.figures[name][i]) for name in FRACTION_RESOURCES)
            lines.append(",".join([str(rep.n), kind, *cells]))
    return "\n".join(lines) + "\n"


def fraction_table_json(n_max: int) -> str:
    """The oracle for ``bounds.table_json``: ints stay JSON numbers, Fractions are ``str``."""
    doc = []
    for rep in map(fraction_bound_report, range(2, n_max + 1)):
        entry = {"n": rep.n, "parity": rep.parity, "optimality_open": rep.optimality_open,
                 "half_transfer_conditional": rep.half_transfer_conditional}
        for name, pair in rep.figures.items():
            entry[name] = None if pair is None else {
                key: v if isinstance(v, int) else str(v) for key, v in zip("ec", pair)}
        doc.append(entry)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def fraction_integer_comm_boundary(n_max: int) -> int | None:
    """The oracle for ``bounds.integer_comm_boundary``: ``math.ceil`` of each
    Fraction conditional bit figure against the teleportation figure."""
    boundary = None
    for n in range(3, n_max + 1, 2):
        if math.ceil(fraction_half_transfer_bounds(n)[1]) == fraction_teleport_resources(n)[1]:
            boundary = boundary or n
        else:
            boundary = None
    return boundary


def dumps_table_json(table: list) -> str:
    """The oracle for ``bounds.table_json``: one dict per entry, written by ``json.dumps``."""
    doc = []
    for rep in table:
        entry = {"n": rep.n, "parity": rep.parity, "optimality_open": rep.optimality_open,
                 "half_transfer_conditional": rep.half_transfer_conditional}
        for name, pair in rep.figures.items():
            entry[name] = None if pair is None else {
                key: v // rep.den if name == "integer_one_shot" else graphs._text(v, rep.den)
                for key, v in zip("ec", pair)}
        doc.append(entry)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def per_n_integer_comm_boundary(n_max: int) -> int | None:
    """The oracle for ``bounds.integer_comm_boundary``: each odd-n report built again by
    ``bounds.bound_report`` and scanned by its integer ceiling."""
    boundary = None
    for n in range(3, n_max + 1, 2):
        rep = bounds.bound_report(n)
        if -(-rep.figures["half_transfer"][1] // rep.den) * rep.den == rep.figures["teleport"][1]:
            boundary = boundary or n
        else:
            boundary = None
    return boundary


# -- the audit's cut sums and splits, one cut at a time in Python ints -------------


def party_mask(parties: Iterable[int]) -> int:
    """A set of parties as a bit mask, bit p for party p."""
    return sum(1 << p for p in set(parties))


def cut_masks(n: int) -> list[int]:
    """The bipartitions of parties 1..n as masks of the side holding party 1, by
    the size of that side and then its other parties in lexicographic order."""
    return [party_mask((1, *rest)) for r in range(n - 1) for rest in itertools.combinations(range(2, n + 1), r)]


def book_terms(book, directed: bool) -> list[tuple[int, int, int]]:
    """A book's numerators as (from-bit, to-bit, numerator) terms; an undirected
    book gives each pair in both directions."""
    terms = [(1 << a, 1 << b, num) for (a, b), num in book.items()]
    return terms if directed else terms + [(b, a, num) for a, b, num in terms]


def leaving(terms, side: int) -> int:
    """The sum of the terms that leave the side mask ``side``: from a party in it
    to one outside.  Over an undirected book's terms, this is the weight of the
    pairs that cross the cut."""
    return sum(num for a, b, num in terms if a & side and not b & side)


def spans(mask: int, cut: int) -> bool:
    """Whether the parties of ``mask`` lie on both sides of ``cut``."""
    return 0 != mask & cut != mask


def cut_splits(cuts: Sequence[int], owners: Sequence[int]) -> tuple[list[int], list[int]]:
    """For a group's slots held by ``owners``, the distinct splits ``cuts`` make of
    them as slot masks (the smaller of the side's mask and its complement),
    ascending, and for each cut the place of its split in that list counted from
    1, 0 where the cut keeps the group whole."""
    sides = {0: 0}  # the slots of each set of the slots' parties, keyed on its party mask
    for p in set(owners):
        mask = sum(1 << j for j, owner in enumerate(owners) if owner == p)
        sides.update([(parties | 1 << p, side | mask) for parties, side in sides.items()])
    whole, full = party_mask(owners), (1 << len(owners)) - 1
    made = [min(side, full ^ side) for side in (sides[cut & whole] for cut in cuts)]
    distinct = sorted(set(made) - {0})
    place = {split: k for k, split in enumerate([0, *distinct])}
    return distinct, [place[split] for split in made]


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
        check_symmetric_fractions(rows, "delta")
        object.__setattr__(self, "entries", tuple(rows))


def regular_complete(n: int, weight: int | Fraction, kind: str = "entanglement") -> graphs.Graph:
    cls = {c.kind: c for c in (graphs.EntanglementGraph, graphs.CommunicationGraph)}[kind]
    return graph_of(cls, [[0 if i == j else weight for j in range(n)] for i in range(n)])


def cross_partition(g: graphs.Graph, partition: Partition, direction: str | None = None) -> Fraction:
    """Resource weight crossing the partition: the brute-force oracle for the
    audit's cut sums (``audit._book_sums``).

    For entanglement graphs: the ebits shared between the two sides.  For
    communication graphs a direction is required: "a_to_b" or "b_to_a".
    """
    if partition.n != g.n:
        raise ValueError("partition and graph disagree on the party count")
    a, b = partition.side_a, partition.side_b
    if not g.directed:
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
    undirected = not g.directed
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


# -- graph files read, checked, summed and written one Fraction per cell ------

FractionMatrix = tuple[tuple[Fraction, ...], ...]


def fraction_matrix(g: graphs.Graph) -> FractionMatrix:
    """The graph's weights, cell by cell, as Fractions."""
    return tuple(tuple(Fraction(x, g.den) for x in row) for row in g.nums)


def graph_of(cls: type[graphs.Graph], fraction_rows) -> graphs.Graph:
    """The ``cls`` graph on len(fraction_rows) parties whose weights are those int or
    Fraction cells: the inverse of ``fraction_matrix``."""
    rows = [[Fraction(x) for x in row] for row in fraction_rows]
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return cls(len(rows), [[x.numerator * (den // x.denominator) for x in row] for row in rows], den)


def check_symmetric_fractions(w: FractionMatrix, where: str) -> None:
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            if w[i][j] != w[j][i]:
                raise graphs.GraphFormatError(f"{where}[{i}][{j}]: matrix must be symmetric ({w[i][j]} != {w[j][i]})")


class _LongDigits(str):
    """The digits of a JSON integer longer than the cell cap, left unconverted."""


def _shown_cell(value) -> str:
    text = str(value) if isinstance(value, _LongDigits) else json.dumps(value)
    return text if len(text) <= 40 else f"{text[:20]}... ({len(text)} characters)"


def _fraction_cells(raw, n: int, kind: str) -> FractionMatrix:
    """``raw`` checked as the Fraction-cell reader checked it: JSON types and cell
    text first, then row counts, each cell through ``Fraction`` and its sign, the
    diagonal, and symmetry when undirected."""
    cap, err = graphs.CELL_MAX_CHARS, graphs.GraphFormatError
    if not isinstance(raw, list):
        raise err(f"{kind}: expected a list of rows, got {_shown_cell(raw)}")
    for i, row in enumerate(raw):
        if not isinstance(row, list):
            raise err(f"{kind}[{i}]: expected a list of entries, got {_shown_cell(row)}")
        for j, cell in enumerate(row):
            if isinstance(cell, _LongDigits):
                raise err(f"{kind}[{i}][{j}]: an integer of {len(cell)} digits is longer than {cap}: "
                          f"{_shown_cell(cell)}")
            if isinstance(cell, bool) or not isinstance(cell, (int, str)):
                raise err(f"{kind}[{i}][{j}]: not an integer or a string: {_shown_cell(cell)}")
            if isinstance(cell, str) and not (len(cell) <= cap and re.fullmatch(r"-?[0-9]+(/[0-9]+)?", cell)):
                raise err(f'{kind}[{i}][{j}]: not an integer or "p/q" string of at most {cap} characters: '
                          f"{_shown_cell(cell)}")
    if len(raw) != n:
        raise err(f"{kind}: expected {n} rows, got {len(raw)}")
    rows = []
    for i, row in enumerate(raw):
        if len(row) != n:
            raise err(f"{kind}[{i}]: expected {n} entries, got {len(row)}")
        out = []
        for j, cell in enumerate(row):
            try:
                val = Fraction(cell)
            except ZeroDivisionError:
                raise err(f"{kind}[{i}][{j}]: not a rational: {cell!r}") from None
            if val < 0:
                raise err(f"{kind}[{i}][{j}]: negative weight {val}")
            out.append(val)
        rows.append(tuple(out))
    for i in range(n):
        if rows[i][i] != 0:
            raise err(f"{kind}[{i}][{i}]: diagonal must be zero")
    if kind == "entanglement":
        check_symmetric_fractions(rows, kind)
    return tuple(rows)


def read_fraction_graphs(text: str) -> tuple[int, dict[str, FractionMatrix]]:
    """n and each kind's matrix of a graph file, or the ``GraphFormatError`` a
    reader raises that holds one Fraction per cell: the oracle for ``graphs.import_json``."""
    err = graphs.GraphFormatError
    try:
        doc = json.loads(text, parse_int=lambda d: int(d) if len(d) <= graphs.CELL_MAX_CHARS else _LongDigits(d))
    except json.JSONDecodeError as exc:
        raise err(f"line {exc.lineno}, column {exc.colno}: invalid JSON") from None
    except RecursionError:
        raise err("top level: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise err("top level: expected a JSON object")
    if "n" not in doc:
        raise err('top level: missing "n"')
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise err(f'"n": not an integer: {_shown_cell(n)}')
    if n < 1:
        raise err(f'"n": must be positive, got {n}')
    found = {kind: _fraction_cells(doc[kind], n, kind) for kind in ("entanglement", "communication") if kind in doc}
    if not found:
        raise err('top level: need "entanglement" and/or "communication"')
    return n, found


def fraction_pairs(kind: str, n: int) -> Iterable[tuple[int, int]]:
    """The 0-based cells that carry a weight: i < j when undirected."""
    return (itertools.permutations if kind == "communication" else itertools.combinations)(range(n), 2)


def fraction_total(kind: str, w: FractionMatrix) -> Fraction:
    return sum((w[i][j] for i, j in fraction_pairs(kind, len(w))), Fraction(0))


def fraction_symmetrised_weight(kind: str, w: FractionMatrix) -> Fraction:
    n = len(w)
    return (1 if kind == "communication" else 2) * math.factorial(n - 2) * fraction_total(kind, w)


def fraction_export_json(n: int, matrices: dict[str, FractionMatrix]) -> str:
    doc: dict = {"n": n, **{kind: [[str(x) for x in row] for row in w] for kind, w in matrices.items()}}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def fraction_export_dot(kind: str, w: FractionMatrix) -> str:
    head, arrow = ("digraph", "->") if kind == "communication" else ("graph", "--")
    lines = [f"{head} {kind} {{", *(f"  {i};" for i in range(1, len(w) + 1))]
    lines += [f'  {i + 1} {arrow} {j + 1} [label="{w[i][j]}"];' for i, j in fraction_pairs(kind, len(w)) if w[i][j]]
    return "\n".join([*lines, "}"]) + "\n"


def fraction_symmetrise(w: FractionMatrix) -> FractionMatrix:
    """The explicit sum over all n! vertex permutations in Fraction arithmetic,
    cell by cell: the oracle for the integer kernel of ``graphs.symmetrise``."""
    n = len(w)
    acc = [[Fraction(0)] * n for _ in range(n)]
    for perm in itertools.permutations(range(n)):
        for i in range(n):
            wi, row = w[perm[i]], acc[i]
            for j in range(n):
                row[j] += wi[perm[j]]
    return tuple(tuple(row) for row in acc)


def one_branch(amplitudes, registry=None, max_qubits: int = engine.DEFAULT_MAX_QUBITS) -> engine.BranchEnsemble:
    """The one-branch ensemble of ``amplitudes``, registry qubit r as index bit r;
    the registry defaults to party 1's qubits x0, x1, ..., one per index bit."""
    vec = np.asarray(amplitudes, dtype=complex)
    if registry is None:
        registry = [engine.QubitId(1, f"x{i}") for i in range(vec.size.bit_length() - 1)]
    return engine.BranchEnsemble.from_vectors(registry, [(1.0, vec)], max_qubits)


def allocate(ensemble, party: int, *labels: str, init: str | None = None):
    """``ensemble`` with fresh qubits ``labels`` at ``party`` appended in the basis
    state ``init`` (all zeros by default), and their ids."""
    ids = tuple(engine.QubitId(party, label) for label in labels)
    return engine.allocate_qubits(ensemble, ids, init or "0" * len(ids)), ids


def qubit_entropy(ensemble, qubit) -> float:
    """The average entanglement entropy of ``qubit`` with the rest of its product group."""
    i, j = ensemble.locate(qubit)
    return engine.split_entropies(ensemble, [(i, [j])])[0]


def dense_vectors(ensemble) -> list[np.ndarray]:
    """Each branch's dense statevector, registry qubit r as amplitude-index bit r."""
    return [vec for _, vec in engine.branch_vectors(ensemble, ensemble.registry)]


def complex_pairs(array) -> list:
    """``array`` as a complex array, written as nested lists ending in [re, im] pairs."""
    arr = np.asarray(array, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def canonical_base64(text: str) -> bool:
    """Whether ``text``, which strict base64 decoding reads, is the one encoding of its
    bytes, checked by encoding them again: the oracle for ``ledger._c128_in``'s pad-bit check."""
    return base64.b64encode(base64.b64decode(text, validate=True)) == text.encode("ascii")


def json_line_refusal(line: str) -> str | None:
    """What ``ledger.load_trace`` says of a line that holds no JSON object, as it said it
    when it read each line with ``json.loads``; None when the line holds one."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        return f"invalid JSON ({exc.msg})"
    except RecursionError:
        return "JSON nested too deeply"
    return None if isinstance(rec, dict) else "expected a JSON object"


# CNOT from the first qubit (bit 0), then a Hadamard on it: Bell state "ab" to basis state "ab"
_BELL_TO_BASIS = np.kron(np.eye(2), gates.HADAMARD) @ gates.cnot_unitary()


class DenseEnsemble:
    """Weighted branches (probability, dense vector, record), registry qubit r at
    amplitude-index bit r, that ``apply`` evolves event by event."""

    def __init__(self, ensemble):
        self.registry = list(ensemble.registry)
        self.branches = [(b.probability, vec, dict(b.record))
                         for b, vec in zip(ensemble.branches, dense_vectors(ensemble))]
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
            renames = event.renames
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
        """Density matrix of ``targets``, target j at bit j."""
        kept, rest = self._bits(targets), self._bits([q for q in self.registry if q not in targets])
        mat = np.zeros((1 << len(targets), 1 << (len(self.registry) - len(targets))), dtype=complex)
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
