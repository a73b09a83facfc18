"""Resource graphs over party vertices, with exact rational weights.

Entanglement graphs are undirected (symmetric matrix, zero diagonal);
communication graphs are directed.  Symmetrising a graph sums it over all
vertex permutations, yielding a regular complete graph whose single edge
weight also follows from a closed form; both routes are kept so one can
check the other.  All arithmetic is in fractions so factorial scalings
are exact.  The explicit sum enumerates every permutation into one n! x n
table, counts how many send each pair of vertices to each pair, and weights
those counts by the graph's integer numerators over their common
denominator (numpy int64, or Python ints where int64 could overflow), so it
is exact too.  ``ebitnet symmetrise`` builds those counts (``pair_counts``)
once for both graphs of a file.

The weight a graph carries across a bipartition is counted by the audit's
cut sums (``audit._leaving``), the program's one count of it.  The rest of
the paper's calculus (partitions, cross-partition weights, expendable
resources, the half-transfer and three-lab conditions) is test oracles, in
``tests/oracles.py``.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

# 8! = 40320 permutations; beyond that use the closed form.  Raising the cap to 9
# would make `ebitnet symmetrise` at n = 9 (the perm-wide benchmark workload) run
# the explicit sum: its stdout would change and it would take about 9x the n = 8 time.
BRUTE_FORCE_MAX = 8
# Permutations whose one-hot rows go into one product in _pair_counts: a count
# in a chunk stays below 2**24, so the float32 sums are exact.
_CHUNK = 512


class GraphFormatError(ValueError):
    """Malformed graph input; the message carries the offending position."""


Weights = tuple[tuple[Fraction, ...], ...]


def _to_weights(raw: Sequence[Sequence], n: int, where: str) -> Weights:
    """``raw`` as an n x n matrix of nonnegative Fractions with a zero diagonal."""
    if len(raw) != n:
        raise GraphFormatError(f"{where}: expected {n} rows, got {len(raw)}")
    rows = []
    for i, row in enumerate(raw):
        if len(row) != n:
            raise GraphFormatError(f"{where}[{i}]: expected {n} entries, got {len(row)}")
        out = []
        for j, cell in enumerate(row):
            try:
                val = cell if isinstance(cell, Fraction) else Fraction(cell)
            except (ValueError, TypeError, ZeroDivisionError, OverflowError):
                raise GraphFormatError(f"{where}[{i}][{j}]: not a rational: {cell!r}") from None
            if val < 0:
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
    summed as the Gram product of the rows' one-hot codes, _CHUNK rows at a time."""
    n = table.shape[1]
    one_hot = np.eye(n, dtype=np.float32)
    counts = np.zeros((n * n, n * n), np.int64)
    for start in range(0, len(table), _CHUNK):
        e = one_hot[table[start:start + _CHUNK]].reshape(-1, n * n)
        counts += (e.T @ e).astype(np.int64)
    return counts.reshape(n, n, n, n)


def pair_counts(n: int) -> np.ndarray:
    """C[i, a, j, b] over all n! permutations of n vertices, for ``symmetrise``;
    a caller symmetrising several graphs on n vertices builds it once."""
    return _pair_counts(_permutation_table(n))


def symmetrise(g: Graph, counts: np.ndarray | None = None) -> Graph:
    """Sum the graph over all n! vertex permutations (explicit enumeration).

    The result is regular and complete with total n! times the input total.
    Refuses above the brute-force cap; use symmetrised_edge_weight there.
    Cell (i, j) of the sum is sum over (a, b) of C[i, a, j, b] W[a, b]: the
    pair counts ``counts`` (``pair_counts(n)``, built here when not given) of
    the permutation table times the integer numerators W over the common
    denominator.
    """
    n = g.n
    if n > BRUTE_FORCE_MAX:
        raise ValueError(
            f"explicit symmetrisation is capped at n = {BRUTE_FORCE_MAX}; "
            "use symmetrised_edge_weight for the closed form"
        )
    if counts is None:
        counts = pair_counts(n)
    fact = math.factorial(n)
    den = math.lcm(*(x.denominator for row in g.weights for x in row))
    nums = [[x.numerator * (den // x.denominator) for x in row] for row in g.weights]
    # every term is >= 0 and no cell of the sum passes max(W) * n!; beyond int64 it runs on Python ints
    W = np.array(nums, dtype=object if max(map(max, nums), default=0) * fact >= 2**63 else np.int64)
    acc = np.tensordot(counts, W, axes=([1, 3], [0, 1]))
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
