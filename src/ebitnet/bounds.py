"""Closed-form resource bounds for arbitrary collective operations on n qubits.

For even n the teleportation figures are known optimal; for odd n the module
evaluates the rigorous lower bounds, their integer one-shot ceilings, and the
tighter bounds conditional on the half-transfer hypothesis (flagged as such).
``bound_report`` writes each figure once, exactly, as integer numerators over one
denominator per n (1 at even n, the lcm of n + 1 and n^2 + 3 at odd n): its checks
compare integers, each ceiling is an integer ceiling division, and the Fraction
functions read their figures from it.  The n = 3 case is marked open.

``ebitnet bounds`` builds ``bound_table`` once; ``table_csv``, ``table_json`` and
``integer_comm_boundary`` all read that list.  ``table_json`` writes the bytes that
``json.dumps(doc, sort_keys=True, indent=2)`` gives for the table's document (keys
sorted, two-space indent, strings through ``encode_basestring_ascii``, integer
ceilings as JSON numbers), filling one template per entry from the numerators
instead of building dicts for the encoder; ``tests/oracles.py::dumps_table_json``
is that ``json.dumps`` writer, and the tests pin the two byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .graphs import _text


def _require_n(n: int, minimum: int = 2) -> None:
    if n < minimum:
        raise ValueError(f"need n >= {minimum}, got {n}")


# Resource columns of the bound table, in table order.
RESOURCES = ("teleport", "lower", "half_transfer", "cap", "integer_one_shot")


@dataclass(frozen=True)
class BoundReport:
    """All bound figures for one party count, exact and cross-checked: ``figures`` maps each of
    RESOURCES to its (ebits, bits) integer numerators over ``den``, or to None for an odd-n refinement at even n."""

    n: int
    den: int
    figures: dict[str, tuple[int, int] | None]

    parity = property(lambda self: "odd" if self.n % 2 else "even")
    optimality_open = property(lambda self: self.n == 3)  # the n = 3 question is unresolved
    # odd-n figures assume the half-transfer hypothesis
    half_transfer_conditional = property(lambda self: self.n % 2 == 1)

    def __post_init__(self):
        (te, tc), (le, lc), (cape, capc) = (self.figures[name] for name in ("teleport", "lower", "cap"))
        if le > te or lc > tc:
            raise AssertionError(f"n={self.n}: lower bound exceeds the teleportation figure")
        # for ebits and bits alike, the cap lies strictly below the lower bound from n = 4;
        # at n = 2 and 3 the two are equal
        for cap, low in ((cape, le), (capc, lc)):
            if cap > low or cap == low and self.n >= 4:
                raise AssertionError(f"n={self.n}: cap {'reaches' if cap == low else 'exceeds'} the lower bound")
        if any(v < 0 for v in (te, tc, le, lc, cape, capc)):
            raise AssertionError(f"n={self.n}: negative bound value")


def bound_report(n: int) -> BoundReport:
    """Every figure of n parties over one den, each closed form as its Fraction function gives it."""
    _require_n(n)
    den = math.lcm(n + 1, n * n + 3) if n % 2 else 1
    tel = 2 * (n - 1) * den
    figures = {"teleport": (tel, 2 * tel), "lower": (tel, 2 * tel), "half_transfer": None,
               "cap": (n * den, 2 * n * den), "integer_one_shot": None}
    if n % 2:
        low = 2 * n * (n - 1) * (den // (n + 1))
        half = 2 * n * n * (n - 1) * (den // (n * n + 3))
        figures.update(lower=(low, 2 * low), half_transfer=(half, 2 * half),
                       integer_one_shot=(-(-low // den) * den, -(-2 * low // den) * den))
    return BoundReport(n, den, figures)


def _fractions(n: int, name: str, odd_only: str = "") -> tuple[Fraction, Fraction]:
    """The report's figure ``name`` as Fractions; ``odd_only`` names an odd-n refinement."""
    _require_n(n, 3 if odd_only else 2)
    if odd_only and n % 2 == 0:
        raise ValueError(f"{odd_only} bounds are the odd-n refinement, got n = {n}")
    rep = bound_report(n)
    return tuple(Fraction(v, rep.den) for v in rep.figures[name])


def teleport_resources(n: int) -> tuple[Fraction, Fraction]:
    """Ebits and bits spent by the hub teleportation protocol: (2(n-1), 4(n-1))."""
    return _fractions(n, "teleport")


def distillation_caps(n: int) -> tuple[Fraction, Fraction]:
    """Most entanglement any operation can establish and most bits it can send:
    (n, 2n), attained by derangement permutations."""
    return _fractions(n, "cap")


def lower_bounds(n: int) -> tuple[Fraction, Fraction]:
    """Rigorous lower bounds on the resources any protocol needs: the teleportation
    figures at even n, scaled by n/(n+1) at odd n."""
    return _fractions(n, "lower")


def integer_one_shot_bounds(n: int) -> tuple[int, int]:
    """Ceilings of the odd-n lower bounds for whole-resource single runs: the ebit ceiling
    always lands at 2(n-1) - 1, one below teleportation; the bit ceiling sits 3 below
    teleportation (2 below for n = 3, 5)."""
    return tuple(map(int, _fractions(n, "integer_one_shot", "integer one-shot")))


def half_transfer_bounds(n: int) -> tuple[Fraction, Fraction]:
    """Conditional lower bounds for odd n assuming at most half of the
    expendable resources can be transferred: teleportation over (1 + 3/n^2)."""
    return _fractions(n, "half_transfer", "half-transfer")


def bound_table(n_max: int) -> list[BoundReport]:
    """Bound reports for every n from 2 to n_max, each checked once as it is built."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    return [bound_report(n) for n in range(2, n_max + 1)]


def table_csv(table: list[BoundReport]) -> str:
    """The bound table as CSV: for each n an entanglement row of the ebit
    figures and a communication row of the bit figures, one column per resource."""
    lines = [",".join(("n", "kind") + RESOURCES)]
    for rep in table:
        for i, kind in enumerate(("entanglement", "communication")):
            cells = ("" if pair is None else _text(pair[i], rep.den) for pair in rep.figures.values())
            lines.append(",".join([str(rep.n), kind, *cells]))
    return "\n".join(lines) + "\n"


def _object_template(keys: tuple[str, ...], depth: int) -> str:
    """A ``str.format`` template of a JSON object whose value for ``keys[i]`` fills slot i,
    laid out as ``json.dumps(..., sort_keys=True, indent=2)`` lays out an object ``depth`` levels deep."""
    pad = "  " * (depth + 1)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    fields = ",\n".join(f"{pad}{encode_basestring_ascii(keys[i])}: {{{i}}}" for i in order)
    return "{{\n" + fields + "\n" + "  " * depth + "}}"


# one table entry, its slots filled in this order: each of RESOURCES, then the report's n and flags
_ENTRY = "  " + _object_template(RESOURCES + ("n", "parity", "optimality_open", "half_transfer_conditional"), 1)
_PAIR = _object_template(("e", "c"), 2)
_JSON_BOOL = ("false", "true")


def table_json(table: list[BoundReport]) -> str:
    """The bound table as JSON: one entry per n with its flags and, per resource,
    {"e": ebits, "c": bits}; integer ceilings stay numbers, exact figures are strings.

    The bytes are those of ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, which
    ``tests/oracles.py::dumps_table_json`` writes: keys sorted at a two-space indent,
    strings through ``encode_basestring_ascii``, integers as ``str``, flags as
    ``true``/``false``, an absent figure as ``null`` and no entries as ``[]``.  Each
    entry fills the ``_ENTRY`` template from the report's numerators, with no dict per
    entry and no pure-Python encoder."""
    entries = []
    for rep in table:
        den, cells = rep.den, []
        for name in RESOURCES:
            pair = rep.figures[name]
            if pair is None:
                cells.append("null")
            elif name == "integer_one_shot":
                cells.append(_PAIR.format(pair[0] // den, pair[1] // den))
            else:
                cells.append(_PAIR.format(encode_basestring_ascii(_text(pair[0], den)),
                                          encode_basestring_ascii(_text(pair[1], den))))
        entries.append(_ENTRY.format(*cells, rep.n, encode_basestring_ascii(rep.parity),
                                     _JSON_BOOL[rep.optimality_open], _JSON_BOOL[rep.half_transfer_conditional]))
    return "[\n" + ",\n".join(entries) + "\n]\n" if entries else "[]\n"


def integer_comm_boundary(table: list[BoundReport]) -> int | None:
    """Smallest odd n from which the conditional communication ceiling always
    equals the teleportation figure, scanning the table's odd-n reports in order."""
    boundary = None
    for rep in table:
        if rep.n % 2 == 0:
            continue
        if -(-rep.figures["half_transfer"][1] // rep.den) * rep.den == rep.figures["teleport"][1]:
            boundary = boundary or rep.n
        else:
            boundary = None
    return boundary
