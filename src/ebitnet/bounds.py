"""Closed-form resource bounds for arbitrary collective operations on n qubits.

For even n the teleportation figures are known optimal; for odd n the module
evaluates the rigorous lower bounds, their integer one-shot ceilings, and the
tighter bounds conditional on the half-transfer hypothesis (flagged as such).
``bound_report`` writes each figure once, exactly, as integer numerators over one
denominator per n (1 at even n, the lcm of n + 1 and n^2 + 3 at odd n): its checks
compare integers, each ceiling is an integer ceiling division, and the Fraction
functions read their figures from it.  The n = 3 case is marked open.
``table_csv`` and ``table_json`` write the bound table that ``ebitnet bounds`` prints.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

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
    """Bound reports for every n from 2 to n_max."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    return [bound_report(n) for n in range(2, n_max + 1)]


def table_csv(n_max: int) -> str:
    """The bound table as CSV: for each n an entanglement row of the ebit
    figures and a communication row of the bit figures, one column per resource."""
    lines = [",".join(("n", "kind") + RESOURCES)]
    for rep in bound_table(n_max):
        for i, kind in enumerate(("entanglement", "communication")):
            cells = ("" if pair is None else _text(pair[i], rep.den) for pair in rep.figures.values())
            lines.append(",".join([str(rep.n), kind, *cells]))
    return "\n".join(lines) + "\n"


def table_json(n_max: int) -> str:
    """The bound table as JSON: one entry per n with its flags and, per resource,
    {"e": ebits, "c": bits}; integer ceilings stay numbers, exact figures are strings."""
    doc = []
    for rep in bound_table(n_max):
        entry = {"n": rep.n, "parity": rep.parity, "optimality_open": rep.optimality_open,
                 "half_transfer_conditional": rep.half_transfer_conditional}
        for name, pair in rep.figures.items():
            entry[name] = None if pair is None else {
                key: v // rep.den if name == "integer_one_shot" else _text(v, rep.den) for key, v in zip("ec", pair)}
        doc.append(entry)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def integer_comm_boundary(n_max: int) -> int | None:
    """Smallest odd n from which the conditional communication ceiling always
    equals the teleportation figure (scanning odd n up to n_max)."""
    boundary = None
    for n in range(3, n_max + 1, 2):
        rep = bound_report(n)
        if -(-rep.figures["half_transfer"][1] // rep.den) * rep.den == rep.figures["teleport"][1]:
            boundary = boundary or n
        else:
            boundary = None
    return boundary
