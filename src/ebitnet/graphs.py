"""Resource graphs over party vertices, with exact rational weights.

Entanglement graphs are undirected (symmetric matrix, zero diagonal);
communication graphs are directed.  Symmetrising a graph sums it over all
vertex permutations, yielding a regular complete graph whose single edge
weight also follows from a closed form; both routes are kept so one can
check the other.  All arithmetic is in fractions so factorial scalings
and partition counts are exact; the explicit permutation sum runs on
integers over the weights' common denominator (numpy int64, or Python ints
where int64 could overflow), so it is exact too.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

# 8! = 40320 permutations; beyond that use the closed form.  Raising the cap to 9
# would make `ebitnet symmetrise` at n = 9 (the perm-wide benchmark workload) run
# the explicit sum: its stdout would change and it would take about 9x the n = 8 time.
BRUTE_FORCE_MAX = 8


class GraphFormatError(ValueError):
    """Malformed graph input; the message carries the offending position."""


Weights = tuple[tuple[Fraction, ...], ...]


def _to_weights(raw: Sequence[Sequence], n: int, where: str, signed: bool = False) -> Weights:
    """``raw`` as an n x n matrix of Fractions with a zero diagonal; negative
    cells only when ``signed``."""
    if len(raw) != n:
        raise GraphFormatError(f"{where}: expected {n} rows, got {len(raw)}")
    rows = []
    for i, row in enumerate(raw):
        if len(row) != n:
            raise GraphFormatError(f"{where}[{i}]: expected {n} entries, got {len(row)}")
        out = []
        for j, cell in enumerate(row):
            try:
                val = Fraction(cell)
            except (ValueError, TypeError, ZeroDivisionError, OverflowError):
                raise GraphFormatError(f"{where}[{i}][{j}]: not a rational: {cell!r}") from None
            if val < 0 and not signed:
                raise GraphFormatError(f"{where}[{i}][{j}]: negative weight {val}")
            out.append(val)
        rows.append(tuple(out))
    for i in range(n):
        if rows[i][i] != 0:
            raise GraphFormatError(f"{where}[{i}][{i}]: diagonal must be zero")
    return tuple(rows)


def _check_symmetric(w: Weights, where: str) -> None:
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            if w[i][j] != w[j][i]:
                raise GraphFormatError(f"{where}[{i}][{j}]: matrix must be symmetric ({w[i][j]} != {w[j][i]})")


@dataclass(frozen=True)
class EntanglementGraph:
    """Shared ebits per unordered pair of parties 1..n."""

    n: int
    weights: Weights

    def __post_init__(self):
        w = _to_weights(self.weights, self.n, "entanglement")
        object.__setattr__(self, "weights", w)
        _check_symmetric(w, "entanglement")

    def weight(self, a: int, b: int) -> Fraction:
        return self.weights[a - 1][b - 1]


@dataclass(frozen=True)
class CommunicationGraph:
    """Directly sendable classical bits per ordered pair of parties 1..n."""

    n: int
    weights: Weights

    def __post_init__(self):
        object.__setattr__(self, "weights", _to_weights(self.weights, self.n, "communication"))

    def weight(self, sender: int, receiver: int) -> Fraction:
        return self.weights[sender - 1][receiver - 1]


Graph = EntanglementGraph | CommunicationGraph


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
    """Difference of target minus resource entanglement, pair by pair."""

    n: int
    entries: Weights

    def __post_init__(self):
        rows = _to_weights(self.entries, self.n, "delta", signed=True)
        object.__setattr__(self, "entries", rows)
        _check_symmetric(rows, "delta")


def regular_complete(n: int, weight: int | Fraction, kind: str = "entanglement") -> Graph:
    w = Fraction(weight)
    mat = tuple(tuple(Fraction(0) if i == j else w for j in range(n)) for i in range(n))
    cls = EntanglementGraph if kind == "entanglement" else CommunicationGraph
    return cls(n, mat)


def total_entanglement(g: EntanglementGraph) -> Fraction:
    """Total shared ebits: half the matrix sum, since each pair is counted twice."""
    return sum((x for row in g.weights for x in row), Fraction(0)) / 2


def total_communication(g: CommunicationGraph) -> Fraction:
    return sum((x for row in g.weights for x in row), Fraction(0))


def star_graphs(n: int, hub: int = 1) -> tuple[EntanglementGraph, CommunicationGraph]:
    """Hub-centred resources for the teleportation protocol: weight 2 on every
    hub edge (both directions for communication), zero elsewhere."""
    if n < 2:
        raise ValueError("a star needs at least 2 parties")
    if not 1 <= hub <= n:
        raise ValueError(f"hub {hub} out of range 1..{n}")
    h = hub - 1
    mat = tuple(
        tuple(Fraction(2) if (i == h) != (j == h) else Fraction(0) for j in range(n))
        for i in range(n)
    )
    return EntanglementGraph(n, mat), CommunicationGraph(n, mat)


def symmetrise(g: Graph) -> Graph:
    """Sum the graph over all n! vertex permutations (explicit enumeration).

    The result is regular and complete with total n! times the input total.
    Refuses above the brute-force cap; use symmetrised_edge_weight there.
    The sum runs on the integer numerators over the common denominator,
    one row of the result per gather over the n x n! permutation table.
    """
    n = g.n
    if n > BRUTE_FORCE_MAX:
        raise ValueError(
            f"explicit symmetrisation is capped at n = {BRUTE_FORCE_MAX}; "
            "use symmetrised_edge_weight for the closed form"
        )
    fact = math.factorial(n)
    den = math.lcm(*(x.denominator for row in g.weights for x in row))
    nums = [[x.numerator * (den // x.denominator) for x in row] for row in g.weights]
    # no cell of the sum passes max(W) * n!; beyond int64 the sum runs on Python ints
    W = np.array(nums, dtype=object if max(map(max, nums), default=0) * fact >= 2**63 else np.int64)
    P = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(n))), np.int8,
                    n * fact).reshape(fact, n)
    acc = [W[P[:, i, None], P].sum(axis=0) for i in range(n)]
    mat = tuple(tuple(Fraction(int(v), den) for v in row) for row in acc)
    return type(g)(n, mat)


def symmetrised_edge_weight(kind: str, total: int | Fraction, n: int) -> Fraction:
    """Closed-form edge weight of the symmetrised graph.

    Entanglement: 2 (n-2)! total; communication: (n-2)! total.
    """
    if n < 2:
        raise ValueError("need at least 2 parties")
    total = Fraction(total)
    fact = math.factorial(n - 2)
    if kind == "entanglement":
        return 2 * fact * total
    if kind == "communication":
        return fact * total
    raise ValueError(f"unknown kind {kind!r}")


def cross_partition(g: Graph, partition: Partition, direction: str | None = None) -> Fraction:
    """Resource weight crossing the partition.

    For entanglement graphs: the ebits shared between the two sides.  For
    communication graphs a direction is required: "a_to_b" or "b_to_a".
    """
    if partition.n != g.n:
        raise ValueError("partition and graph disagree on the party count")
    a, b = partition.side_a, partition.side_b
    if isinstance(g, EntanglementGraph):
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


def expendable_resources(g: Graph, gain_set: Iterable) -> Fraction:
    """Total weight on edges outside the gaining set.

    For entanglement graphs ``gain_set`` holds unordered pairs (frozensets);
    both matrix orders of a non-gaining edge are summed and halved.  For
    communication graphs it holds ordered (sender, receiver) tuples.
    """
    gain = set(gain_set)
    undirected = isinstance(g, EntanglementGraph)
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


# --------------------------------------------------------------------------
# serialization


@dataclass(frozen=True)
class GraphBundle:
    n: int
    entanglement: EntanglementGraph | None = None
    communication: CommunicationGraph | None = None


def export_json(bundle: GraphBundle) -> str:
    doc: dict = {"n": bundle.n}
    if bundle.entanglement is not None:
        doc["entanglement"] = [[str(x) for x in row] for row in bundle.entanglement.weights]
    if bundle.communication is not None:
        doc["communication"] = [[str(x) for x in row] for row in bundle.communication.weights]
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# A graph file's cell is a JSON integer, or a string holding an integer or
# "p/q", of at most CELL_MAX_CHARS characters.  Fraction alone would also read
# "1e5000", and much longer cells would make exact totals too long to print
# (Python refuses to convert integers of more than 4300 digits to text).
CELL_MAX_CHARS = 64
_CELL = re.compile(r"-?[0-9]+(/[0-9]+)?")


class _LongInt(str):
    """The digits of a JSON integer longer than CELL_MAX_CHARS, left unconverted."""


def _json_int(digits: str) -> int | _LongInt:
    return int(digits) if len(digits) <= CELL_MAX_CHARS else _LongInt(digits)


def _shown(value) -> str:
    """``value`` as it reads in the file, cut short when long."""
    text = str(value) if isinstance(value, _LongInt) else json.dumps(value)
    return text if len(text) <= 40 else f"{text[:20]}... ({len(text)} characters)"


def _json_matrix(raw, where: str) -> list:
    """``raw`` once it is a list of rows whose cells are JSON integers (not
    booleans) or integer or "p/q" strings, none longer than CELL_MAX_CHARS;
    floats never reach ``Fraction``."""
    if not isinstance(raw, list):
        raise GraphFormatError(f"{where}: expected a list of rows, got {_shown(raw)}")
    for i, row in enumerate(raw):
        if not isinstance(row, list):
            raise GraphFormatError(f"{where}[{i}]: expected a list of entries, got {_shown(row)}")
        for j, cell in enumerate(row):
            if isinstance(cell, _LongInt):
                raise GraphFormatError(f"{where}[{i}][{j}]: an integer of {len(cell)} digits is longer "
                                       f"than {CELL_MAX_CHARS}: {_shown(cell)}")
            if isinstance(cell, bool) or not isinstance(cell, (int, str)):
                raise GraphFormatError(f"{where}[{i}][{j}]: not an integer or a string: {_shown(cell)}")
            if isinstance(cell, str) and not (len(cell) <= CELL_MAX_CHARS and _CELL.fullmatch(cell)):
                raise GraphFormatError(f'{where}[{i}][{j}]: not an integer or "p/q" string of at most '
                                       f"{CELL_MAX_CHARS} characters: {_shown(cell)}")
    return raw


def import_json(text: str) -> GraphBundle:
    try:
        doc = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"line {exc.lineno}, column {exc.colno}: invalid JSON") from None
    if not isinstance(doc, Mapping):
        raise GraphFormatError("top level: expected a JSON object")
    if "n" not in doc:
        raise GraphFormatError('top level: missing "n"')
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise GraphFormatError(f'"n": not an integer: {_shown(n)}')
    if n < 1:
        raise GraphFormatError(f'"n": must be positive, got {n}')
    ent = comm = None
    if "entanglement" in doc:
        ent = EntanglementGraph(n, _json_matrix(doc["entanglement"], "entanglement"))
    if "communication" in doc:
        comm = CommunicationGraph(n, _json_matrix(doc["communication"], "communication"))
    if ent is None and comm is None:
        raise GraphFormatError('top level: need "entanglement" and/or "communication"')
    return GraphBundle(n, ent, comm)


def export_dot(g: Graph, name: str | None = None) -> str:
    """GraphViz text with edge labels carrying the weights; zero edges omitted."""
    n = g.n
    if isinstance(g, EntanglementGraph):
        head, arrow = "graph", "--"
        name = name or "entanglement"
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    else:
        head, arrow = "digraph", "->"
        name = name or "communication"
        edges = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    lines = [f"{head} {name} {{"]
    lines += [f"  {i};" for i in range(1, n + 1)]
    for i, j in edges:
        w = g.weight(i, j)
        if w != 0:
            lines.append(f'  {i} {arrow} {j} [label="{w}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def four_lab_example() -> GraphBundle:
    """The documented 4-lab example pair used throughout the tests and CLI."""
    ent = EntanglementGraph(4, (
        (0, 3, 2, 6),
        (3, 0, 1, 0),
        (2, 1, 0, 0),
        (6, 0, 0, 0),
    ))
    comm = CommunicationGraph(4, (
        (0, 1, 4, 0),
        (2, 0, 0, 9),
        (0, 0, 0, 0),
        (5, 0, 0, 0),
    ))
    return GraphBundle(4, ent, comm)
