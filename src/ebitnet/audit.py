"""Audit of protocol traces against declared resource graphs.

Checks, per trace:

* held ebits never go negative and classical messages fit the declared
  channel capacities;
* across every party bipartition, ebits claimed as created do not exceed
  ebits consumed across the cut plus the entanglement initially there, and
  bits claimed as decoded do not exceed messages sent plus two bits per
  consumed ebit (the dense-coding allowance) -- cuts spanned by a
  collective oracle are exempt, since the oracle is the operation under
  study rather than an LQCC step, and cuts a relocation conveys a qubit
  across are exempt from the entanglement check;
* when the trace carries its initial state, the run is replayed and the
  LQCC monotone (average entanglement entropy plus remaining held ebits
  across each cut) is checked to be non-increasing step by step, again
  excepting oracle and qubit-conveyance steps that span the cut.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from . import engine
from .engine import BranchEnsemble, Gate
from .graphs import GraphBundle
from .ledger import (
    Allocate,
    ClassicalMessage,
    Coalesce,
    CollectiveOracle,
    DecodedBits,
    EbitConsume,
    EbitCreate,
    Event,
    LocalGate,
    LocalMeasure,
    ProtocolTrace,
    Relabel,
    Relocate,
    pair_key,
)

ENTROPY_TOL = 1e-9


@dataclass(frozen=True)
class Violation:
    check: str
    detail: str
    step: int | None = None


@dataclass
class AuditReport:
    n_parties: int
    violations: list[Violation] = field(default_factory=list)
    checks_run: list[str] = field(default_factory=list)
    replayed: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations


def _cuts(n: int) -> list[frozenset[int]]:
    """All bipartitions of 1..n, each named by the side containing party 1."""
    rest = range(2, n + 1)
    return [frozenset({1, *combo}) for r in range(n - 1) for combo in itertools.combinations(rest, r)]


def _across(book: Mapping[tuple[int, int], Fraction], side: frozenset[int],
            directed: bool = False) -> Fraction:
    """Sum ``book`` over the pairs crossing the cut; a directed book counts
    only the pairs (from, to) leaving ``side``."""
    if directed:
        return sum((v for (a, b), v in book.items() if a in side and b not in side), Fraction(0))
    return sum((v for (a, b), v in book.items() if (a in side) != (b in side)), Fraction(0))


def _joined(ev: Event) -> tuple[int, ...]:
    """The parties an event acts across at once: an oracle's, or both ends of a relocation."""
    if isinstance(ev, CollectiveOracle):
        return ev.parties
    if isinstance(ev, Relocate):
        return (ev.qubit.party, ev.to_party)
    return ()


def _spans(parties: Sequence[int], side: frozenset[int]) -> bool:
    return any(p in side for p in parties) and not all(p in side for p in parties)


def _nonzero(graph, pairs) -> dict[tuple[int, int], Fraction]:
    """The graph's nonzero weights over ``pairs``; a missing graph is an empty book."""
    if graph is None:
        return {}
    return {(a, b): graph.weight(a, b) for a, b in pairs if graph.weight(a, b)}


def replay_events(initial: BranchEnsemble, events: Sequence[Event]):
    """Re-execute a trace deterministically, yielding the ensemble after each event.

    Raises ValueError when an event cannot be applied or a recorded
    measurement distribution disagrees with the replayed one.
    """
    ens = initial.copy()
    for step, ev in enumerate(events):
        if isinstance(ev, Allocate):
            ens, _ = engine.allocate_qubits(
                ens, ev.party, len(ev.qubits), init=ev.init,
                labels=[q.label for q in ev.qubits],
            )
        elif isinstance(ev, EbitConsume):
            ens = engine.insert_bell_pair(ens, *ev.qubits)
        elif isinstance(ev, LocalGate):
            if ev.matrix is not None:
                ens = engine.apply_gate(ens, Gate(ev.targets, ev.matrix))
            else:
                ens = engine.apply_conditional(ens, ev.targets, dict(ev.cases), ev.conditional_on)
        elif isinstance(ev, CollectiveOracle):
            ens = engine.apply_gate(ens, Gate(ev.targets, ev.matrix))
        elif isinstance(ev, LocalMeasure):
            if ev.basis == "computational":
                ens, dist = engine.measure_computational(ens, ev.targets, discard=ev.discard)
            elif ev.basis == "bell":
                ens, dist = engine.bell_measure(ens, ev.targets, discard=ev.discard)
            elif ev.basis == "povm":
                dist = dict(ev.distribution)  # statistics-only query; state untouched
            else:
                raise ValueError(f"step {step}: unknown measurement basis {ev.basis!r}")
            if ev.basis != "povm":
                recorded = dict(ev.distribution)
                if set(recorded) != set(dist) or any(
                    abs(recorded[k] - dist[k]) > 1e-9 for k in dist
                ):
                    raise ValueError(
                        f"step {step}: recorded distribution {recorded} "
                        f"disagrees with replay {dist}"
                    )
        elif isinstance(ev, Relocate):
            ens, _ = engine.relocate_qubit(ens, ev.qubit, ev.to_party)
        elif isinstance(ev, Relabel):
            ens = engine.relabel_qubit(ens, ev.old, ev.new)
        elif isinstance(ev, Coalesce):
            ens = engine.coalesce(ens)
        elif isinstance(ev, (ClassicalMessage, DecodedBits, EbitCreate)):
            pass  # bookkeeping only
        else:
            raise ValueError(f"step {step}: unknown event {type(ev).__name__}")
        yield step, ev, ens


def audit_trace(trace: ProtocolTrace, resources: GraphBundle, replay: bool = True) -> AuditReport:
    n = trace.n_parties
    if resources.n != n:
        raise ValueError(f"trace has {n} parties but graphs describe {resources.n}")
    parties = range(1, n + 1)
    granted = _nonzero(resources.entanglement, itertools.combinations(parties, 2))
    capacity = _nonzero(resources.communication, itertools.permutations(parties, 2))
    report = AuditReport(n_parties=n, checks_run=["held-nonnegative", "locality"])

    # -- one pass over the events: books, locality and cuts spanned ---------
    consumed: dict[tuple[int, int], Fraction] = defaultdict(Fraction)
    created: dict[tuple[int, int], Fraction] = defaultdict(Fraction)
    sent: dict[tuple[int, int], Fraction] = defaultdict(Fraction)  # (from, to)
    decoded: dict[tuple[int, int], Fraction] = defaultdict(Fraction)  # (from, at)
    locality: list[Violation] = []
    spanned_by_oracle: set[frozenset[int]] = set()
    spanned_by_conveyance: set[frozenset[int]] = set()
    cuts = _cuts(n)

    for step, ev in enumerate(trace.events):
        if isinstance(ev, EbitConsume):
            key = pair_key(*ev.pair)
            consumed[key] += 1
            if consumed[key] > granted.get(key, 0):
                report.violations.append(Violation(
                    "held-nonnegative",
                    f"pair {key} consumed beyond its {granted.get(key, Fraction(0))} held ebits",
                    step,
                ))
        elif isinstance(ev, EbitCreate):
            created[pair_key(*ev.pair)] += 1
        elif isinstance(ev, ClassicalMessage) and not ev.supplementary:
            sent[(ev.sender, ev.receiver)] += ev.bits
        elif isinstance(ev, DecodedBits):
            decoded[(ev.from_party, ev.at_party)] += ev.bits
        elif isinstance(ev, (LocalGate, LocalMeasure)):
            strangers = [q for q in ev.targets if q.party != ev.party]
            if strangers:
                locality.append(Violation(
                    "locality",
                    f"event declared local to party {ev.party} targets {strangers}",
                    step,
                ))
        elif isinstance(ev, Relabel) and ev.old.party != ev.new.party:
            locality.append(Violation(
                "locality",
                f"relabel moves {ev.old} to party {ev.new.party}; "
                "qubit conveyance must be a relocate event",
                step,
            ))
        joined = _joined(ev)
        if joined:
            spanned = spanned_by_oracle if isinstance(ev, CollectiveOracle) else spanned_by_conveyance
            spanned.update(cut for cut in cuts if _spans(joined, cut))
    report.violations += locality

    report.checks_run.append("channel-capacity")
    for (a, b), bits in sorted(sent.items()):
        cap = capacity.get((a, b), Fraction(0))
        if bits > cap:
            report.violations.append(Violation(
                "channel-capacity",
                f"{bits} bits sent {a}->{b} exceed the declared capacity {cap}",
            ))

    report.checks_run.append("cut-entanglement")
    initial = {cut: _across(granted, cut) for cut in cuts}
    for cut in cuts:
        if cut in spanned_by_oracle or cut in spanned_by_conveyance:
            continue
        made, used = _across(created, cut), _across(consumed, cut)
        if made > used + initial[cut]:
            report.violations.append(Violation(
                "cut-entanglement",
                f"cut {sorted(cut)}: {made} ebits created exceed {used} consumed "
                f"+ {initial[cut]} initially shared",
            ))

    report.checks_run.append("cut-communication")
    for cut in cuts:
        if cut in spanned_by_oracle:
            continue
        allowance = 2 * _across(consumed, cut)
        for side, name in ((cut, "out of"), (frozenset(parties) - cut, "into")):
            got = _across(decoded, side, directed=True)
            msg = _across(sent, side, directed=True)
            if got > msg + allowance:
                report.violations.append(Violation(
                    "cut-communication",
                    f"cut {sorted(cut)}: {got} bits decoded {name} the cut exceed "
                    f"{msg} sent + dense-coding allowance {allowance}",
                ))

    # -- statevector replay -------------------------------------------------
    if replay and trace.initial is not None:
        report.checks_run.append("replay-monotonicity")
        report.replayed = True
        universe = set(parties)
        held = dict(initial)  # ebits still held across each cut

        def monotone(ens: BranchEnsemble, cut: frozenset[int]) -> float:
            return engine.entanglement_entropy(ens, cut, universe=universe) + float(held[cut])

        last = {cut: monotone(trace.initial, cut) for cut in cuts}
        try:
            for step, ev, ens in replay_events(trace.initial, trace.events):
                joined = _joined(ev)
                for cut in cuts:
                    if isinstance(ev, EbitConsume) and _spans(ev.pair, cut):
                        held[cut] -= 1
                    value = monotone(ens, cut)
                    if not _spans(joined, cut) and value > last[cut] + ENTROPY_TOL:
                        report.violations.append(Violation(
                            "replay-monotonicity",
                            f"cut {sorted(cut)}: monotone rose from {last[cut]:.12f} "
                            f"to {value:.12f}",
                            step,
                        ))
                    last[cut] = value
        except (ValueError, AssertionError) as exc:
            report.violations.append(Violation("replay", str(exc)))
    return report
