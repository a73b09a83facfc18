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

The cut sums are the program's one count of resources across a bipartition.
Every book is put over one common denominator as integer (from-bit, to-bit,
numerator) terms, an undirected book giving each pair in both directions, and
``_leaving`` sums the terms that leave a side mask, only for the cuts a check
runs on.  The checks compare integers; a violation's text prints them as
fractions again, and the replay's held ebits divide them into floats.

The replay follows the product groups of the state from the events alone
(``ledger.regroup``, the walk that also checks a trace at load, by the
grouping rule of the engine's factors): every branch is a product over
groups of qubits that no event has acted on together, one engine factor per
group, so a cut's entropy is the sum, over the groups it splits, of the
entropy of the group's part on one side (``_cut_entropies``), which the
engine solves on that group's factor alone.  Each such
part is solved once and carried from step to step (``_carry``) as long as each
branch keeps the same Schmidt spectrum for it: then its entries hold through
measurement branching, ``coalesce`` and any unitary that one party applies
within the group.  Every step values every cut from these entries, and solves
the parts it lacks in one batched call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import engine
from .engine import BranchEnsemble, QubitId
from .graphs import GraphBundle
from .ledger import (
    CollectiveOracle,
    EbitConsume,
    Event,
    Groups,
    LocalGate,
    LocalMeasure,
    ProtocolTrace,
    Relabel,
    Relocate,
    ResourceLedger,
    apply_event,
    event_renames,
    pair_key,
    regroup,
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


def _mask(parties: Iterable[int]) -> int:
    """A set of parties as a bit mask, bit p for party p."""
    return sum(1 << p for p in set(parties))


def _parties(mask: int) -> list[int]:
    """The parties of a mask in increasing order, as a report names a cut."""
    return [p for p in range(mask.bit_length()) if mask >> p & 1]


def _spans(mask: int, cut: int) -> bool:
    """Whether the parties of ``mask`` lie on both sides of ``cut``."""
    return 0 != mask & cut != mask


Terms = list[tuple[int, int, int]]


def _terms(book: Mapping[tuple[int, int], Fraction], den: int, directed: bool) -> Terms:
    """``book`` as integer (from-bit, to-bit, numerator) terms over the common
    denominator ``den``; an undirected book gives each pair in both directions."""
    terms = []
    for (a, b), v in book.items():
        num = v.numerator * (den // v.denominator)
        terms.append((1 << a, 1 << b, num))
        if not directed:
            terms.append((1 << b, 1 << a, num))
    return terms


def _leaving(terms: Terms, side: int) -> int:
    """The sum of the terms that leave the side mask ``side``: from a party in
    it to one outside.  Over an undirected book's terms, this is the weight of
    the pairs that cross the cut."""
    return sum(num for a, b, num in terms if a & side and not b & side)


def _joined(ev: Event) -> int:
    """The parties an event acts across at once as a mask: an oracle's, or both ends of a relocation."""
    if isinstance(ev, CollectiveOracle):
        return _mask(ev.parties)
    if isinstance(ev, Relocate):
        return _mask((ev.qubit.party, ev.to_party))
    return 0


def _nonzero(graph, pairs) -> dict[tuple[int, int], Fraction]:
    """The graph's nonzero weights over ``pairs``; a missing graph is an empty book."""
    if graph is None:
        return {}
    return {(a, b): graph.weight(a, b) for a, b in pairs if graph.weight(a, b)}


Solved = dict[tuple[frozenset[QubitId], int], float]


class _Cuts(tuple):
    """The bipartitions of parties 1..n as masks of the side holding party 1.
    ``splits(mask)`` gives, for the party mask of a group, each distinct split the
    cuts make of it (the smaller mask of its two parts, which need not hold fewer
    qubits) with the indices of the cuts that make it, worked out once per mask."""

    def __new__(cls, n: int):
        cuts = super().__new__(cls, (_mask((1, *rest)) for r in range(n - 1)
                                     for rest in itertools.combinations(range(2, n + 1), r)))
        cuts._splits = {}
        return cuts

    def splits(self, mask: int) -> list[tuple[int, np.ndarray]]:
        if mask not in self._splits:
            indices: dict[int, list[int]] = {}
            for i, cut in enumerate(self):
                split = min(cut & mask, ~cut & mask)  # 0 where the cut keeps the group whole
                if split:
                    indices.setdefault(split, []).append(i)
            self._splits[mask] = [(split, np.array(cuts)) for split, cuts in indices.items()]
        return self._splits[mask]


def _cut_entropies(ens: BranchEnsemble, groups: Groups, cuts: _Cuts, solved: Solved) -> list[float]:
    """The average entanglement entropy across each cut, in ebits.

    Every branch of ``ens`` is a product over ``groups``, so the entropy of a
    side is the sum over groups of the entropy of the group's qubits on that
    side.  A group held by one party adds nothing to any cut.  The two parts a
    cut splits a group into share one spectrum, so each distinct split is
    solved once, on its smaller part, however many cuts make it.  ``solved``
    holds the entropy of each (group, split) solved so far, the group as a
    frozenset, whose hash is kept with it; the splits it lacks are solved in
    one ``engine.subset_entropies`` call and added to it.  Each cut sums its
    groups' terms in group order.
    """
    terms = []  # (key, indices of the cuts that make its split) for each split of each group
    missing: dict[tuple[frozenset[QubitId], int], list[QubitId]] = {}
    for group in map(frozenset, groups):
        for split, indices in cuts.splits(_mask(q.party for q in group)):
            key = (group, split)
            terms.append((key, indices))
            if key not in solved and key not in missing:
                part = [q for q in group if split >> q.party & 1]
                rest = [q for q in group if not split >> q.party & 1]
                missing[key] = min(part, rest, key=len)
    if missing:
        solved.update(zip(missing, engine.subset_entropies(ens, missing.values())))
    entropies = np.zeros(len(cuts))
    for key, indices in terms:
        entropies[indices] += solved[key]
    return entropies.tolist()


def _carry(solved: Solved, ev: Event) -> Solved:
    """The entries of ``solved`` that still hold after ``ev``, keyed on the groups after it.

    An entry holds as long as each branch keeps the same Schmidt spectrum for
    its split: branching and ``coalesce`` then only regroup the branches' weights.
    A gate, matrix or conditional, whose targets sit at one party and lie in one
    group with entries is a local unitary in every branch, so it keeps them.
    Otherwise a group's entries are dropped when it holds a target of a gate
    (one that joins groups or reaches another party) or of a computational or
    Bell measurement, or a qubit a rename moves to another party.  A rename
    within one party keeps every split mask, so it renames the group in the
    key.  An event that drops and renames nothing returns ``solved``.
    """
    changed, renames = set(), {}
    if isinstance(ev, LocalGate) or (isinstance(ev, LocalMeasure) and ev.povm is None):
        # a gate that joins groups drops them even at one party (no key holds all its
        # targets): a discard may bring a joined group back whole, with stale entries
        one_party_unitary = (isinstance(ev, LocalGate) and len({q.party for q in ev.targets}) == 1
                             and any(group.issuperset(ev.targets) for group, _ in solved))
        if not one_party_unitary:
            changed.update(ev.targets)
    elif isinstance(ev, (CollectiveOracle, Relocate, Relabel)):
        for q, new in event_renames(ev).items():
            if new.party != q.party:
                changed.add(q)
            elif new != q:
                renames[q] = new
    if not changed and not renames:
        return solved

    def key(group):
        return group if renames.keys().isdisjoint(group) else frozenset(renames.get(q, q) for q in group)
    return {(key(group), split): s for (group, split), s in solved.items() if changed.isdisjoint(group)}


def replay_events(initial: BranchEnsemble, events: Sequence[Event]):
    """Re-execute a trace deterministically, yielding the ensemble after each event.

    Raises ValueError when an event cannot be applied, a measurement's index is
    not the number of measurements replayed before it (which a POVM does not
    advance), or a recorded distribution disagrees with the replayed one.  ``initial``
    is left as it was: engine operations return fresh ensembles, and an
    event that leaves the state alone yields the ensemble it was given.
    """
    ens = initial
    for step, ev in enumerate(events):
        if isinstance(ev, LocalMeasure) and ev.index != ens.measurement_count:
            raise ValueError(f"step {step}: measurement index {ev.index}, expected {ens.measurement_count}")
        ens, dist = apply_event(ens, ev)
        if dist is not None:
            recorded = dict(ev.distribution)
            # negated so that a NaN probability fails
            if set(recorded) != set(dist) or any(not abs(recorded[k] - dist[k]) <= 1e-9 for k in dist):
                raise ValueError(f"step {step}: recorded distribution {recorded} disagrees with replay {dist}")
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
    books = ResourceLedger(granted=granted)
    locality: list[Violation] = []
    spanned_by_oracle: set[int] = set()
    spanned_by_conveyance: set[int] = set()
    cuts = _Cuts(n)

    for step, ev in enumerate(trace.events):
        books.book(ev)
        if isinstance(ev, EbitConsume) and books.held(*ev.pair) < 0:
            key = pair_key(*ev.pair)
            report.violations.append(Violation(
                "held-nonnegative",
                f"pair {key} consumed beyond its {granted.get(key, Fraction(0))} held ebits",
                step,
            ))
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
    for (a, b), bits in sorted(books.bits_sent.items()):
        cap = capacity.get((a, b), Fraction(0))
        if bits > cap:
            report.violations.append(Violation(
                "channel-capacity",
                f"{bits} bits sent {a}->{b} exceed the declared capacity {cap}",
            ))

    # every book over one denominator, so that each cut check compares integers
    den = math.lcm(*(v.denominator for book in (granted, books.ebits_created, books.ebits_consumed,
                                                books.bits_sent, books.bits_decoded) for v in book.values()))
    shared, made, used = (_terms(book, den, directed=False)
                          for book in (granted, books.ebits_created, books.ebits_consumed))
    sent, decoded = (_terms(book, den, directed=True) for book in (books.bits_sent, books.bits_decoded))

    report.checks_run.append("cut-entanglement")
    initial = [_leaving(shared, cut) for cut in cuts]
    for cut, held in zip(cuts, initial):
        if cut in spanned_by_oracle or cut in spanned_by_conveyance:
            continue
        created, consumed = _leaving(made, cut), _leaving(used, cut)
        if created > consumed + held:
            report.violations.append(Violation(
                "cut-entanglement",
                f"cut {_parties(cut)}: {Fraction(created, den)} ebits created exceed "
                f"{Fraction(consumed, den)} consumed + {Fraction(held, den)} initially shared",
            ))

    report.checks_run.append("cut-communication")
    for cut in cuts:
        if cut in spanned_by_oracle:
            continue
        allowance = 2 * _leaving(used, cut)
        for side, name in ((cut, "out of"), (~cut, "into")):
            got, msg = _leaving(decoded, side), _leaving(sent, side)
            if got > msg + allowance:
                report.violations.append(Violation(
                    "cut-communication",
                    f"cut {_parties(cut)}: {Fraction(got, den)} bits decoded {name} the cut exceed "
                    f"{Fraction(msg, den)} sent + dense-coding allowance {Fraction(allowance, den)}",
                ))

    # -- statevector replay -------------------------------------------------
    if replay and trace.initial is not None:
        report.checks_run.append("replay-monotonicity")
        report.replayed = True
        held = initial  # ebits still held across each cut, over den
        remaining = [h / den for h in held]  # correctly rounded, as float(Fraction(h, den)) is
        groups = trace.initial.groups
        solved: Solved = {}
        last = [e + r for e, r in zip(_cut_entropies(trace.initial, groups, cuts, solved), remaining)]
        at = 0  # the step being replayed: replay_events raises before it yields that step
        try:
            for step, ev, ens in replay_events(trace.initial, trace.events):
                groups = regroup(groups, ev, trace.initial.max_qubits)
                solved = _carry(solved, ev)
                if isinstance(ev, EbitConsume):
                    pair = _mask(ev.pair)
                    held = [h - den * _spans(pair, cut) for h, cut in zip(held, cuts)]
                    remaining = [h / den for h in held]
                values = [e + r for e, r in zip(_cut_entropies(ens, groups, cuts, solved), remaining)]
                for cut, value, previous in zip(cuts, values, last):
                    if value > previous + ENTROPY_TOL and not _spans(_joined(ev), cut):
                        report.violations.append(Violation(
                            "replay-monotonicity",
                            f"cut {_parties(cut)}: monotone rose from {previous:.12f} "
                            f"to {value:.12f}",
                            step,
                        ))
                last = values
                at = step + 1
        except (ValueError, AssertionError) as exc:
            report.violations.append(Violation("replay", str(exc), at))
    return report
