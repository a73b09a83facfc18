"""Resource graphs over party vertices, with exact rational weights.

Entanglement graphs are undirected (symmetric matrix, zero diagonal);
communication graphs are directed.  Their one base class, ``Graph``, decides
from ``directed`` alone their pairs, books (keyed as the ledger's), totals,
closed forms and file formats.  Symmetrising a graph sums it over all vertex
permutations, yielding a regular complete graph whose single edge weight
also follows from a closed form; both routes are kept so one can check the
other.  A graph is built from int numerators over an int denominator,
``Graph(n, nums, den=1)``, and holds them in lowest terms: numerators over
the lcm of its weights' reduced denominators, a canonical form (equal
weights, equal graphs) in which cells are checked, summed and written.  Only
the file reader (``_json_matrix``) reads cell text.  The explicit sum
enumerates every permutation into one n! x n table, counts how many send each
pair of vertices to each pair, and weights those counts by the numerators
(numpy int64, or Python ints where int64 could overflow), so it is exact too.
``ebitnet symmetrise`` builds those counts (``pair_counts``) once for both
graphs of a file.

The weight a graph carries across a bipartition is counted by the audit's
cut sums (``audit._book_sums``), the program's one count of it.  The rest of
the paper's calculus (partitions, cross-partition weights, expendable
resources, the half-transfer and three-lab conditions) is test oracles, in
``tests/oracles.py``.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Iterator, Mapping, Sequence

import numpy as np

# 8! = 40320 permutations; beyond that use the closed form.  Raising the cap to 9
# would make `ebitnet symmetrise` at n = 9 (the perm-wide benchmark workload) run
# the explicit sum: its stdout would change and it would take about 9x the n = 8 time.
BRUTE_FORCE_MAX = 8


class GraphFormatError(ValueError):
    """Malformed graph input; the message carries the offending position."""


def _text(num: int, den: int) -> str:
    """num/den as ``str(Fraction(num, den))`` writes it, reduced with one gcd."""
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _refuse_first(kind: str, n: int, rows: Sequence[Sequence], fault) -> None:
    """Refuse ``rows`` at their first fault in row-major order, if they have one: a
    row count other than n, then row by row a length other than n or a cell to
    which ``fault`` gives a reason."""
    if len(rows) != n:
        raise GraphFormatError(f"{kind}: expected {n} rows, got {len(rows)}")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise GraphFormatError(f"{kind}[{i}]: expected {n} entries, got {len(row)}")
        for j, cell in enumerate(row):
            if reason := fault(cell):
                raise GraphFormatError(f"{kind}[{i}][{j}]: {reason}")


@dataclass(frozen=True, init=False)
class Graph:
    """Weights over parties 1..n as numerators ``nums`` over ``den``; a subclass sets
    ``kind``, the graph's name in files and messages, and whether it is ``directed``."""

    n: int
    den: int
    nums: tuple[tuple[int, ...], ...]
    kind: ClassVar[str]
    directed: ClassVar[bool]

    def __init__(self, n: int, nums: Sequence[Sequence[int]], den: int = 1):
        if type(den) is not int or den < 1:
            raise GraphFormatError(f"{self.kind}: denominator must be a positive integer, got {den!r}")
        flat = [x for row in nums for x in row]
        if (len(nums) != n or any(len(row) != n for row in nums) or {*map(type, flat)} - {int}
                or min(flat, default=0) < 0):
            _refuse_first(self.kind, n, nums, lambda x: f"not an integer numerator: {x!r}" if type(x) is not int
                          else x < 0 and f"negative weight {_text(x, den)}")
        g = math.gcd(den, *flat)  # lowest terms: equal weights, equal graphs
        nums, den = tuple([tuple([x // g for x in row]) for row in nums]), den // g
        for i in range(n):
            if nums[i][i]:
                raise GraphFormatError(f"{self.kind}[{i}][{i}]: diagonal must be zero")
        if not self.directed and nums != tuple(zip(*nums)):
            i, j = next((i, j) for i in range(n) for j in range(i + 1, n) if nums[i][j] != nums[j][i])
            raise GraphFormatError(f"{self.kind}[{i}][{j}]: matrix must be symmetric "
                                   f"({_text(nums[i][j], den)} != {_text(nums[j][i], den)})")
        self.__dict__.update(n=n, den=den, nums=nums)  # frozen: set past __setattr__

    def weight(self, a: int, b: int) -> Fraction:
        return Fraction(self.nums[a - 1][b - 1], self.den)

    def pairs(self) -> Iterator[tuple[int, int]]:
        """The pairs that carry a weight: a < b when undirected, every ordered pair when directed."""
        return (itertools.permutations if self.directed else itertools.combinations)(range(1, self.n + 1), 2)

    def book(self) -> dict[tuple[int, int], int]:
        """The nonzero numerators over ``den``, keyed on the pairs as ``pairs`` gives them."""
        return {(a, b): self.nums[a - 1][b - 1] for a, b in self.pairs() if self.nums[a - 1][b - 1]}

    @classmethod
    def from_book(cls, n: int, book: Mapping[tuple[int, int], int], den: int) -> Graph:
        """The graph on n parties with ``book``'s numerators over ``den``, mirrored when undirected."""
        mat = [[0] * n for _ in range(n)]
        for (a, b), num in book.items():
            mat[a - 1][b - 1] = num
            if not cls.directed:
                mat[b - 1][a - 1] = num
        return cls(n, mat, den)

    def total(self) -> Fraction:
        """The sum of the weights over ``pairs``: half the matrix sum when undirected."""
        return Fraction(sum(map(sum, self.nums)), self.den if self.directed else 2 * self.den)

    def symmetrised_weight(self) -> Fraction:
        """Closed-form edge weight of the symmetrised graph: (n-2)! total, doubled when undirected."""
        if self.n < 2:
            raise ValueError("need at least 2 parties")
        return (1 if self.directed else 2) * math.factorial(self.n - 2) * self.total()


class EntanglementGraph(Graph):
    """Shared ebits per unordered pair of parties 1..n."""

    kind, directed = "entanglement", False


class CommunicationGraph(Graph):
    """Directly sendable classical bits per ordered pair of parties 1..n."""

    kind, directed = "communication", True


def star_graphs(n: int, hub: int = 1) -> tuple[EntanglementGraph, CommunicationGraph]:
    """Hub-centred resources for the teleportation protocol: weight 2 on every
    hub edge (both directions for communication), zero elsewhere."""
    if n < 2:
        raise ValueError("a star needs at least 2 parties")
    if not 1 <= hub <= n:
        raise ValueError(f"hub {hub} out of range 1..{n}")
    mat = [[2 if (i == hub) != (j == hub) else 0 for j in range(1, n + 1)] for i in range(1, n + 1)]
    return EntanglementGraph(n, mat), CommunicationGraph(n, mat)


def _permutation_table(n: int) -> np.ndarray:
    """All n! permutations of range(n), one per row (int8): each row of the
    (n-1)! table with n - 1 inserted at every position."""
    table = np.zeros((1, 0), np.int8)
    for k in range(n):
        out = np.zeros((k + 1, len(table), k + 1), np.int8)
        for pos in range(k + 1):
            out[pos, :, :pos], out[pos, :, pos], out[pos, :, pos + 1:] = table[:, :pos], k, table[:, pos:]
        table = out.reshape(-1, k + 1)
    return table


def _pair_counts(table: np.ndarray) -> np.ndarray:
    """C[i, a, j, b], the number of rows of ``table`` that send i to a and j to b,
    as the Gram product of the rows' one-hot codes in one float32 product.

    Every partial sum is a count of at most (n-1)! <= 7! = 5040 < 2^24 for
    n <= BRUTE_FORCE_MAX, so the float32 sums are exact.  At n = 8 the one-hot
    table holds 8! x 64 float32 entries, 10 MB."""
    n = table.shape[1]
    e = np.eye(n, dtype=np.float32)[table].reshape(-1, n * n)
    return (e.T @ e).astype(np.int64).reshape(n, n, n, n)


def pair_counts(n: int) -> np.ndarray:
    """C[i, a, j, b] over all n! permutations of n vertices, for ``symmetrise``;
    a caller symmetrising several graphs on n vertices builds it once."""
    return _pair_counts(_permutation_table(n))


def symmetrise(g: Graph, counts: np.ndarray | None = None) -> Graph:
    """Sum the graph over all n! vertex permutations (explicit enumeration).

    The result is regular and complete with total n! times the input total.
    Refuses above the brute-force cap; use ``g.symmetrised_weight()`` there.
    Cell (i, j) of the sum is sum over (a, b) of C[i, a, j, b] W[a, b]: the
    pair counts ``counts`` (``pair_counts(n)``, built here when not given) of
    the permutation table times the integer numerators W over the common
    denominator, over which the result is built.
    """
    n = g.n
    if n > BRUTE_FORCE_MAX:
        raise ValueError(f"explicit symmetrisation is capped at n = {BRUTE_FORCE_MAX}; "
                         "use symmetrised_weight() for the closed form")
    if counts is None:
        counts = pair_counts(n)
    # every term is >= 0 and no cell of the sum passes max(W) * n!; beyond int64 it runs on Python ints
    top = max(map(max, g.nums), default=0) * math.factorial(n)
    acc = np.tensordot(counts, np.array(g.nums, dtype=object if top >= 2**63 else np.int64), axes=([1, 3], [0, 1]))
    return type(g)(n, acc.tolist(), g.den)


# --------------------------------------------------------------------------
# serialization


@dataclass(frozen=True)
class GraphBundle:
    """The resource graphs of one n-party file, each absent when the file gives none."""

    n: int
    entanglement: EntanglementGraph | None = None
    communication: CommunicationGraph | None = None

    @property
    def graphs(self) -> list[Graph]:
        """The graphs present, entanglement first."""
        return [g for g in (self.entanglement, self.communication) if g is not None]


def export_json(bundle: GraphBundle) -> str:
    """The bundle as a graph file; refuses a cell longer than the reader takes."""
    doc: dict = {"n": bundle.n}
    for g in bundle.graphs:
        doc[g.kind] = cells = [[_text(x, g.den) for x in row] for row in g.nums]
        if max(map(len, itertools.chain(*cells)), default=0) > CELL_MAX_CHARS:
            i, j = next((i, j) for i in range(g.n) for j in range(g.n) if len(cells[i][j]) > CELL_MAX_CHARS)
            raise GraphFormatError(f"{g.kind}[{i}][{j}]: cannot write a weight of {len(cells[i][j])} characters, "
                                   f"more than the {CELL_MAX_CHARS} a graph file's cell holds: {cells[i][j][:20]}...")
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# A graph file's cell is a JSON integer, or a string holding an integer or
# "p/q", of at most CELL_MAX_CHARS characters; a trace's amounts are such strings
# too.  Fraction alone would also read "1e5000", and much longer cells would make
# exact totals too long to print (Python refuses to convert integers of more than
# 4300 digits to text).
CELL_MAX_CHARS = 64
CELL_GRAMMAR = f'an integer or "p/q" string of at most {CELL_MAX_CHARS} characters'
_CELL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def cell_ratio(text: str) -> tuple[int, int] | None:
    """The numerator and denominator that ``text`` writes, unreduced, or None when
    it is not ``CELL_GRAMMAR``: the one rule of graph cells and trace amounts."""
    match = len(text) <= CELL_MAX_CHARS and _CELL.fullmatch(text)
    return (int(match[1]), int(match[2] or 1)) if match else None


class _LongInt(str):
    """The digits of a JSON integer longer than CELL_MAX_CHARS, left unconverted."""


def _json_int(digits: str) -> int | _LongInt:
    return int(digits) if len(digits) <= CELL_MAX_CHARS else _LongInt(digits)


# json.loads(text, parse_int=_json_int) without building a decoder per file; a
# byte-order mark fails as json.loads fails it, at line 1, column 1
_DECODER = json.JSONDecoder(parse_int=_json_int)


def _shown(value) -> str:
    """``value`` as it reads in the file, cut short when long."""
    text = str(value) if isinstance(value, _LongInt) else json.dumps(value)
    return text if len(text) <= 40 else f"{text[:20]}... ({len(text)} characters)"


def _json_matrix(raw, n: int, where: str) -> tuple[list[list[int]], int]:
    """The numerators of ``raw`` over the lcm of its cells' reduced denominators,
    and that lcm, once ``raw`` is a list of rows whose cells are JSON integers
    (not booleans) or ``CELL_GRAMMAR`` strings: the one reader of cell text.
    Each distinct string is checked and read once, at its first position in
    row-major order.  A zero denominator is refused where it stands among the
    graph's own row-by-row checks, so a file is refused at the fault the
    Fraction reader named."""
    if not isinstance(raw, list):
        raise GraphFormatError(f"{where}: expected a list of rows, got {_shown(raw)}")
    texts = {}  # each distinct string cell of this call -> its (numerator, denominator) in lowest terms
    for i, row in enumerate(raw):
        if not isinstance(row, list):
            raise GraphFormatError(f"{where}[{i}]: expected a list of entries, got {_shown(row)}")
        for j, cell in enumerate(row):
            if type(cell) is str:  # not a _LongInt, whose digits may equal a string's
                if texts.get(cell) is None:
                    if (pair := cell_ratio(cell)) is None:
                        raise GraphFormatError(f"{where}[{i}][{j}]: not {CELL_GRAMMAR}: {_shown(cell)}")
                    g = math.gcd(*pair) or 1  # "0/0" stays (0, 0)
                    texts[cell] = pair[0] // g, pair[1] // g
            elif isinstance(cell, _LongInt):
                raise GraphFormatError(f"{where}[{i}][{j}]: an integer of {len(cell)} digits is longer "
                                       f"than {CELL_MAX_CHARS}: {_shown(cell)}")
            elif type(cell) is not int:
                raise GraphFormatError(f"{where}[{i}][{j}]: not an integer or a string: {_shown(cell)}")
    if any(d == 0 for _, d in texts.values()):
        def fault(cell):
            num, d = texts[cell] if type(cell) is str else (cell, 1)
            return f"not a rational: {cell!r}" if not d else num < 0 and f"negative weight {_text(num, d)}"
        _refuse_first(where, n, raw, fault)
    den = math.lcm(*(d for _, d in texts.values()))
    scaled = {text: num * (den // d) for text, (num, d) in texts.items()}
    return [[scaled[cell] if type(cell) is str else cell * den for cell in row] for row in raw], den


def import_json(text: str) -> GraphBundle:
    try:
        doc = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"line {exc.lineno}, column {exc.colno}: invalid JSON") from None
    except RecursionError:
        raise GraphFormatError("top level: JSON nested too deeply") from None
    if not isinstance(doc, Mapping):
        raise GraphFormatError("top level: expected a JSON object")
    if "n" not in doc:
        raise GraphFormatError('top level: missing "n"')
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise GraphFormatError(f'"n": not an integer: {_shown(n)}')
    if n < 1:
        raise GraphFormatError(f'"n": must be positive, got {n}')
    found = {cls.kind: cls(n, *_json_matrix(doc[cls.kind], n, cls.kind))
             for cls in (EntanglementGraph, CommunicationGraph) if cls.kind in doc}
    if not found:
        raise GraphFormatError('top level: need "entanglement" and/or "communication"')
    return GraphBundle(n, **found)


def export_dot(g: Graph, name: str | None = None) -> str:
    """GraphViz text named ``name`` or the graph's kind, its nonzero weights as edge labels."""
    head, arrow = ("digraph", "->") if g.directed else ("graph", "--")
    lines = [f"{head} {name or g.kind} {{"]
    lines += [f"  {i};" for i in range(1, g.n + 1)]
    lines += [f'  {i} {arrow} {j} [label="{_text(g.nums[i - 1][j - 1], g.den)}"];'
              for i, j in g.pairs() if g.nums[i - 1][j - 1]]
    lines.append("}")
    return "\n".join(lines) + "\n"


def four_lab_example() -> GraphBundle:
    """The documented 4-lab example pair used throughout the tests and CLI."""
    ent = EntanglementGraph(4, ((0, 3, 2, 6), (3, 0, 1, 0), (2, 1, 0, 0), (6, 0, 0, 0)))
    comm = CommunicationGraph(4, ((0, 1, 4, 0), (2, 0, 0, 9), (0, 0, 0, 0), (5, 0, 0, 0)))
    return GraphBundle(4, ent, comm)
