"""Closed-form resource bounds for arbitrary collective operations on n qubits.

All arithmetic is exact, so near-integer ceiling comparisons are reliable.
For even n the teleportation figures are known optimal; for odd n the module
evaluates the rigorous lower bounds, their integer one-shot ceilings, and the
tighter bounds conditional on the half-transfer hypothesis (flagged as such).
Each odd-n figure is one Fraction built from integers, its bit figure twice its
ebit figure, and each ceiling is an integer ceiling division.  The n = 3 case
is marked open: nothing here claims optimality for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def _require_n(n: int, minimum: int = 2) -> None:
    if n < minimum:
        raise ValueError(f"need n >= {minimum}, got {n}")


def teleport_resources(n: int) -> tuple[Fraction, Fraction]:
    """Ebits and bits spent by the hub teleportation protocol: (2(n-1), 4(n-1))."""
    _require_n(n)
    return Fraction(2 * (n - 1)), Fraction(4 * (n - 1))


def distillation_caps(n: int) -> tuple[Fraction, Fraction]:
    """Most entanglement any operation can establish and most bits it can send:
    (n, 2n), attained by derangement permutations."""
    _require_n(n)
    return Fraction(n), Fraction(2 * n)


def lower_bounds(n: int) -> tuple[Fraction, Fraction]:
    """Rigorous lower bounds on the resources any protocol needs.

    Even n: exactly the teleportation figures.  Odd n: the teleportation
    figures scaled by n/(n+1).
    """
    _require_n(n)
    if n % 2 == 0:
        return teleport_resources(n)
    e = Fraction(2 * n * (n - 1), n + 1)
    return e, 2 * e


def _ceil_div(a: int, b: int) -> int:
    """ceil(a / b) for integers, b > 0."""
    return -(-a // b)


def integer_one_shot_bounds(n: int) -> tuple[int, int]:
    """Ceilings of the odd-n lower bounds for whole-resource single runs.

    The ebit ceiling always lands at 2(n-1) - 1, one below teleportation;
    the bit ceiling sits 3 below teleportation (2 below for n = 3, 5).
    """
    _require_n(n, 3)
    if n % 2 == 0:
        raise ValueError(f"integer one-shot bounds are the odd-n refinement, got n = {n}")
    return _ceil_div(2 * n * (n - 1), n + 1), _ceil_div(4 * n * (n - 1), n + 1)


def half_transfer_bounds(n: int) -> tuple[Fraction, Fraction]:
    """Conditional lower bounds for odd n assuming at most half of the
    expendable resources can be transferred: teleportation over (1 + 3/n^2)."""
    _require_n(n, 3)
    if n % 2 == 0:
        raise ValueError(f"half-transfer bounds are the odd-n refinement, got n = {n}")
    e = Fraction(2 * n * n * (n - 1), n * n + 3)
    return e, 2 * e


@dataclass(frozen=True)
class BoundReport:
    """All bound figures for one party count, exact and cross-checked."""

    n: int
    parity: str
    teleport_e: Fraction
    teleport_c: Fraction
    lower_e: Fraction
    lower_c: Fraction
    cap_e: Fraction
    cap_c: Fraction
    half_transfer_e: Fraction | None
    half_transfer_c: Fraction | None
    integer_one_shot_e: int | None
    integer_one_shot_c: int | None
    optimality_open: bool               # the n = 3 question is unresolved
    half_transfer_conditional: bool     # odd-n figures assume the half-transfer hypothesis

    def __post_init__(self):
        if self.lower_e > self.teleport_e or self.lower_c > self.teleport_c:
            raise AssertionError(f"n={self.n}: lower bound exceeds the teleportation figure")
        if self.n >= 3 and self.cap_e > self.lower_e:
            raise AssertionError(f"n={self.n}: cap exceeds the lower bound")
        values = [self.teleport_e, self.teleport_c, self.lower_e, self.lower_c, self.cap_e, self.cap_c]
        if any(v < 0 for v in values):
            raise AssertionError(f"n={self.n}: negative bound value")


def bound_report(n: int) -> BoundReport:
    _require_n(n)
    te, tc = teleport_resources(n)
    le, lc = lower_bounds(n)
    cape, capc = distillation_caps(n)
    odd = n % 2 == 1 and n >= 3
    hte, htc = half_transfer_bounds(n) if odd else (None, None)
    ie, ic = integer_one_shot_bounds(n) if odd else (None, None)
    return BoundReport(
        n=n,
        parity="odd" if n % 2 else "even",
        teleport_e=te, teleport_c=tc,
        lower_e=le, lower_c=lc,
        cap_e=cape, cap_c=capc,
        half_transfer_e=hte, half_transfer_c=htc,
        integer_one_shot_e=ie, integer_one_shot_c=ic,
        optimality_open=(n == 3),
        half_transfer_conditional=odd,
    )


def bound_table(n_max: int) -> list[BoundReport]:
    """Bound reports for every n from 2 to n_max."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    return [bound_report(n) for n in range(2, n_max + 1)]


# Resource columns of the bound table; each has an _e (ebits) and a _c (bits)
# field on BoundReport.
RESOURCES = ("teleport", "lower", "half_transfer", "cap", "integer_one_shot")


def table_rows(n_max: int) -> list[dict]:
    """Flat rows (one per n and resource kind) for CSV/JSON export."""
    return [
        {"n": rep.n, "kind": kind, **{name: getattr(rep, f"{name}_{suffix}") for name in RESOURCES}}
        for rep in bound_table(n_max)
        for kind, suffix in (("entanglement", "e"), ("communication", "c"))
    ]


def integer_comm_boundary(n_max: int) -> int | None:
    """Smallest odd n from which the conditional communication ceiling always
    equals the teleportation figure (scanning odd n up to n_max)."""
    boundary = None
    for n in range(3, n_max + 1, 2):
        if _ceil_div(4 * n * n * (n - 1), n * n + 3) == 4 * (n - 1):
            if boundary is None:
                boundary = n
        else:
            boundary = None
    return boundary
