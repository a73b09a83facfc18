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

The one pass over the events charges each through its ``book``, reports its
``nonlocal_detail`` as a locality violation and exempts the cuts its
``joined`` parties span; the replay runs each through ``apply``.

The cut sums are the program's one count of resources across a bipartition.
The ledger that books the events starts from the entanglement graph's book
(``Graph.book``) and ``den``, so every book holds integer numerators over one
``den``.  The cuts are one int64 array of party masks (``_Cuts``), and every
check runs on all of them at once: ``_book_sums`` gives each book's numerators
that leave each side of a cut, one way and back, as a (terms x cuts) "leaves
the side" boolean times the numerators, and ``_spanned`` the cuts each set of
parties lies across.  The checks compare the sums as vectors, in int64 while
one bound on every sum and operand stays below 2^63 and on Python ints
(``dtype=object``) past it, and build a violation only for each flagged cut,
in cut order.  Its text prints the numerators as fractions again, and the
replay's held ebits divide them into floats, each correctly rounded
(``_over``).  An int64 mask holds parties up to 62, so a trace of more is
refused before any cut is listed.

The replay reads the product groups from each replayed ensemble
(``ens.groups``, which only the engine works out): every branch is a product
over groups of qubits that no event has acted on together, one engine factor
per group, so a cut's entropy is the sum, over the groups it splits, of the
entropy of the group's part on one side (``_cut_entropies``), which
``engine.split_entropies`` solves on that group's factor alone, on the side
it picks; ``engine.entanglement_entropy`` adds the same terms in the same
order, so a cut has one value in both.  The replay keeps one entry per
group: its qubits in a fixed slot order and the entropy of each split solved,
keyed on the split's mask over the slots, so the masks a cut makes follow the
slots' current parties.  One rule (``_carry``) carries the entries from step
to step as long as each branch keeps the same Schmidt spectrum for them:
renames, teleports among them, rewrite the slots; a unitary within a group
keeps the splits it does not straddle; any other event that acts on a group
drops its entries.  Each entry also carries the group's term of every cut as
one float64 vector, 0.0 where the cut keeps the group whole: an entry the
event leaves unchanged keeps it, and one it renames or filters is valued
again.  Every step sums the vectors in group order, which adds each cut's
terms in that order, as adding 0.0 is exact, and compares the monotone with
the last step's in one vector comparison.  The splits a step lacks are solved
in one ``engine.split_entropies`` call, each as its group's index and the
bits of the group's factor its slots hold, so no qubit is looked up by id;
the call gathers the blocks of each group's splits of one side size
together, makes their Grams in one batched matmul and solves each side size
in one ``eigvalsh`` call, in chunks of at most ``engine.ENTROPY_CHUNK_BYTES``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import engine
from .engine import BranchEnsemble, QubitId
from .graphs import CommunicationGraph, EntanglementGraph, GraphBundle
from .ledger import (
    CollectiveOracle,
    EbitConsume,
    Event,
    LocalGate,
    LocalMeasure,
    ProtocolTrace,
    ResourceLedger,
    pair_key,
)

ENTROPY_TOL = 1e-9
# a recorded probability may differ from the replayed one by rounding in the last digits, not more
REPLAY_PROB_TOL = 1e-9
# the most parties an int64 cut mask holds: bit p for party p, below the sign bit
CUT_PARTIES_MAX = 62
# the most bytes the array of cut masks may take, 8 for each of 2^(n-1) - 1 cuts:
# 28 parties fit, and the default registry cap of 24 parties needs 64 MiB
CUT_ARRAY_BYTES_MAX = 1 << 30
# the most bytes of the (2 x terms x cuts) int64 product a book sum holds at once
CUT_CHUNK_BYTES = 1 << 22


@dataclass(frozen=True)
class Violation:
    """One failed ``check``: what failed, and the trace step it failed at when it has one."""

    check: str
    detail: str
    step: int | None = None


@dataclass
class AuditReport:
    """The violations an audit found, the checks it ran and whether it replayed the trace."""

    n_parties: int
    violations: list[Violation] = field(default_factory=list)
    checks_run: list[str] = field(default_factory=list)
    replayed: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations


def _parties(mask: int) -> list[int]:
    """The parties of a mask in increasing order, as a report names a cut."""
    return [p for p in range(mask.bit_length()) if mask >> p & 1]


def _spanned(party_sets: Sequence[Iterable[int]], cuts: np.ndarray) -> np.ndarray:
    """(sets x cuts) booleans: whether the parties of each set lie on both sides of each cut."""
    masks = np.array([sum({1 << p for p in parties}) for parties in party_sets], dtype=np.int64)[:, None]
    part = masks & cuts
    return (part != 0) & (part != masks)


def _book_sums(books: Sequence[tuple[Mapping[tuple[int, int], int], bool]], cuts: np.ndarray,
               top: int) -> tuple[np.ndarray, np.ndarray]:
    """The numerators of each (book, directed) pair that leave each side, as two
    (books x cuts) arrays: ``out`` from the side of the cut mask to the other
    side, and ``into`` back.  A book maps (from, to) parties to numerators, and
    an undirected book gives each pair in both directions, so its ``out`` is the
    weight of the pairs across the cut.  ``top`` bounds every sum and every
    operand the caller makes of them: the arrays are int64 while it is below
    2^63, else Python ints (``dtype=object``).  Each sum is a (terms x cuts)
    "leaves the side" boolean times the numerators, added up book by book, over
    chunks of cuts whose product holds at most ``CUT_CHUNK_BYTES``."""
    dtype = object if top >= 2**63 else np.int64
    terms, starts = [], []  # ((from, to), numerator) of every book, and where each book's terms start
    for book, directed in books:
        starts.append(len(terms))
        terms.append(((0, 0), 0))  # party 0 is on no side: a zero term, so no book is empty
        terms += book.items()
        if not directed:
            terms += [((b, a), num) for (a, b), num in book.items()]
    ends = np.array([pair for pair, _ in terms], dtype=np.int64).T  # (2 x terms): from, to
    nums = np.array([num for _, num in terms], dtype=dtype)[:, None]
    bits = 1 << np.arange(ends.max() + 1)[:, None]  # (parties x 1): bit p for party p
    sums = np.empty((2, len(books), len(cuts)), dtype)
    step = max(1, CUT_CHUNK_BYTES // (16 * len(terms)))
    for lo in range(0, len(cuts), step):
        a, b = ((cuts[lo:lo + step] & bits) != 0)[ends]  # (terms x cuts): whether each end is on the side
        sums[:, :, lo:lo + step] = np.add.reduceat(nums * np.stack([a > b, b > a]), starts, axis=1)
    return sums[0], sums[1]


def _over(nums: np.ndarray, den: int, bound: int) -> np.ndarray:
    """Each of ``nums`` over ``den`` as a float64, correctly rounded as
    ``float(Fraction(num, den))`` is.  ``bound`` bounds ``den`` and every |num|:
    below 2^53 both are exact float64 values and one float64 division rounds
    correctly; past it, Python divides the ints."""
    if bound < 2**53:
        return nums / den
    return np.array([num / den for num in nums.tolist()], dtype=np.float64)


# a group's qubits in slot order; the entropy of each split solved so far, keyed on its
# mask over the slots (the smaller of the mask and its complement); and the group's term
# of each cut's entropy, None until it is valued again and while no cut splits the group
Entry = tuple[engine.Group, dict[int, float], np.ndarray | None]
Cache = dict[frozenset[QubitId], Entry]


class _Cuts:
    """The bipartitions of parties 1..n as one int64 array ``masks``: the mask of
    the side holding party 1, bit p for party p, by the size of that side and
    then its other parties in lexicographic order.  ``splits(slots)`` gives, for a
    group's qubits in slot order, the distinct splits the cuts make of them as
    slot masks (the smaller of the side's mask and its complement), ascending,
    and for each cut the place of its split in that list counted from 1, 0
    where the cut keeps the group whole; worked out once per tuple of the slots'
    parties.  An int64 mask holds parties up to 62, and the array may take at
    most ``CUT_ARRAY_BYTES_MAX`` bytes, so more parties are refused before any
    cut is listed."""

    def __init__(self, n: int):
        if n > CUT_PARTIES_MAX:
            raise ValueError(f"a trace of {n} parties has 2^{n - 1} cuts; the audit holds each as an int64 "
                             f"party mask, which fits at most {CUT_PARTIES_MAX} parties")
        nbytes = 8 * ((1 << n - 1) - 1)
        if nbytes > CUT_ARRAY_BYTES_MAX:
            raise ValueError(f"a trace of {n} parties has 2^{n - 1} - 1 cuts, whose int64 party masks take "
                             f"{nbytes} bytes; the audit holds at most {CUT_ARRAY_BYTES_MAX} bytes of them")
        bits = [1 << p for p in range(2, n + 1)]
        sums = itertools.chain.from_iterable(map(sum, itertools.combinations(bits, r)) for r in range(n - 1))
        self.masks = 2 + np.fromiter(sums, dtype=np.int64, count=(1 << n - 1) - 1)
        self._splits: dict[tuple[int, ...], tuple[list[int], np.ndarray]] = {}

    def splits(self, slots: engine.Group) -> tuple[list[int], np.ndarray]:
        owners = tuple([q.party for q in slots])
        if owners not in self._splits:
            side = (self.masks[:, None] >> np.array(owners, dtype=np.int64) & 1) @ (1 << np.arange(len(owners)))
            made = np.minimum(side, ((1 << len(owners)) - 1) ^ side)
            # numbered from 0 upwards, where 0 is the split of a cut that keeps the group whole
            distinct, places = np.unique(np.concatenate([[0], made]), return_inverse=True)
            self._splits[owners] = distinct[1:].tolist(), places[1:]
        return self._splits[owners]


def _cut_entropies(ens: BranchEnsemble, cuts: _Cuts, cache: Cache) -> np.ndarray:
    """The average entanglement entropy across each cut, in ebits.

    Every branch of ``ens`` is a product over ``ens.groups``, so the entropy of
    a side is the sum over groups of the entropy of the group's qubits on that
    side.  A group held by one party adds nothing to any cut.  The two parts a
    cut splits a group into share one spectrum, so each distinct split is
    solved once, however many cuts make it.  ``cache`` holds an entry for each
    group, keyed on its qubits as a frozenset; a group without one gets one
    whose slots are its qubits in the engine's order.  An entry without a cut
    vector is valued again: the splits it lacks, over every such entry, are
    solved in one ``engine.split_entropies`` call, each as (group index, the
    bits of the group's factor that its slots hold), and added to it; its
    vector holds each cut's split entropy, 0.0 where the cut keeps the group
    whole.  The result adds the vectors in the order of ``ens.groups``: adding
    0.0 is exact, so each cut sums its groups' terms in that order, as
    ``engine.entanglement_entropy`` does.
    """
    entries = []  # (key, entry) of each group
    missing, splits = [], []  # (entropies, split) of each split to solve, and its engine split
    for i, group in enumerate(ens.groups):
        key = frozenset(group)
        entry = cache.get(key) or (group, {}, None)
        entries.append((key, entry))
        slots, entropies, vector = entry
        if vector is None:
            for split in cuts.splits(slots)[0]:
                if split not in entropies:
                    missing.append((entropies, split))
                    splits.append((i, [group.index(q) for j, q in enumerate(slots) if split >> j & 1]))
    if missing:
        for (entropies, split), s in zip(missing, engine.split_entropies(ens, splits)):
            entropies[split] = s
    values = np.zeros(len(cuts.masks))
    for key, (slots, entropies, vector) in entries:
        if vector is None:
            distinct, places = cuts.splits(slots)
            if distinct:
                vector = np.array([0.0, *[entropies[split] for split in distinct]])[places]
            cache[key] = slots, entropies, vector
        if vector is not None:
            values += vector
    return values


def _teleport(ev: LocalMeasure, fresh: Mapping[QubitId, QubitId]) -> dict[QubitId, QubitId]:
    """The rename a Bell measurement that discards its targets makes when one of
    them, a, is half of a fresh pair (a, b) and the other, q, is not b: each
    branch then holds q's state at b, up to a Pauli, so q is renamed b."""
    for q, a in (ev.targets, ev.targets[::-1]):
        if a in fresh and fresh[a] != q:
            return {q: fresh[a]}
    return {}


def _carry(cache: Cache, ev: Event, fresh: dict[QubitId, QubitId]) -> Cache:
    """The entries of ``cache`` that still hold after ``ev``, keyed on the groups after it.

    An entry holds as long as each branch keeps the same Schmidt spectrum for
    its split: branching and ``coalesce`` then only regroup the branches'
    weights, and a POVM leaves the state as it was.  A rename (a relabel, a
    relocation, an oracle or a teleport) moves states intact, so it rewrites
    the slots and the key once and keeps every mask.  A gate, matrix or
    conditional, whose targets lie in one group keeps the masks that hold all
    of them or none.  Any other event that names a qubit of a group (a
    computational or Bell measurement, or a gate that joins groups) drops that
    group's entries.  ``fresh`` maps each half of a consumed ebit to the other
    half while no event has named either, and is updated here.
    """
    renames, named = ev.renames, ev.named
    if isinstance(ev, LocalMeasure) and ev.povm is not None:
        named = ()  # a POVM leaves the state as it was
    elif isinstance(ev, LocalMeasure) and ev.basis == "bell" and ev.discard:
        renames = _teleport(ev, fresh)
    elif isinstance(ev, EbitConsume):
        a, b = ev.qubits
        fresh[a], fresh[b] = b, a
    for q in named:
        if q in fresh:
            del fresh[fresh.pop(q)]
    if not named:
        return cache
    carried = {}
    for key, (slots, entropies, vector) in cache.items():
        if key.isdisjoint(named):
            carried[key] = slots, entropies, vector
        elif not key.isdisjoint(renames):
            slots = tuple(map(renames.get, slots, slots))
            carried[frozenset(slots)] = slots, entropies, None
        elif isinstance(ev, LocalGate) and key.issuperset(named):
            targets = sum(1 << slots.index(q) for q in named)
            kept = {split: s for split, s in entropies.items() if split & targets in (0, targets)}
            carried[key] = slots, kept, vector if len(kept) == len(entropies) else None
    return carried


def replay_events(initial: BranchEnsemble, events: Sequence[Event]):
    """Re-execute a trace deterministically, yielding the ensemble after each event.

    The events' qubit ids are trusted: ``load_trace`` walked them with
    ``track_ids``, as ``ProtocolRun.step`` does.  Raises ValueError when an event
    cannot be applied, a measurement's index is not the number of measurements
    replayed before it (which a POVM does not advance), or a recorded
    distribution disagrees with the replayed one.  ``initial`` is left as it
    was: engine operations return fresh ensembles, and an event that leaves the
    state alone yields the ensemble it was given.
    """
    ens = initial
    for step, ev in enumerate(events):
        if isinstance(ev, LocalMeasure) and ev.index != ens.measurement_count:
            raise ValueError(f"step {step}: measurement index {ev.index}, expected {ens.measurement_count}")
        ens, dist = ev.apply(ens)
        if dist is not None:
            recorded = dict(ev.distribution)
            # negated so that a NaN probability fails
            if set(recorded) != set(dist) or any(not abs(recorded[k] - dist[k]) <= REPLAY_PROB_TOL for k in dist):
                raise ValueError(f"step {step}: recorded distribution {recorded} disagrees with replay {dist}")
        yield step, ev, ens


def audit_trace(trace: ProtocolTrace, resources: GraphBundle, replay: bool = True) -> AuditReport:
    n = trace.n_parties
    if resources.n != n:
        raise ValueError(f"trace has {n} parties but graphs describe {resources.n}")
    zeros = [[0] * n for _ in range(n)]
    ent = resources.entanglement or EntanglementGraph(n, zeros)
    comm = resources.communication or CommunicationGraph(n, zeros)
    report = AuditReport(n_parties=n, checks_run=["held-nonnegative", "locality"])

    # -- one pass over the events: books, locality and the party sets that exempt cuts
    cuts = _Cuts(n)
    masks = cuts.masks
    books = ResourceLedger(den=ent.den, granted=ent.book())
    locality: list[Violation] = []
    by_oracle: set[frozenset[int]] = set()
    by_conveyance: set[frozenset[int]] = set()

    for step, ev in enumerate(trace.events):
        ev.book(books)
        if isinstance(ev, EbitConsume) and books.held(*ev.pair) < 0:
            key = pair_key(*ev.pair)
            report.violations.append(Violation(
                "held-nonnegative",
                f"pair {key} consumed beyond its {ent.weight(*key)} held ebits",
                step,
            ))
        if ev.nonlocal_detail is not None:
            locality.append(Violation("locality", ev.nonlocal_detail, step))
        if ev.joined:
            (by_oracle if isinstance(ev, CollectiveOracle) else by_conveyance).add(frozenset(ev.joined))
    report.violations += locality

    report.checks_run.append("channel-capacity")
    den = books.den
    for (a, b), bits in sorted(books.bits_sent.items()):
        if bits * comm.den > comm.nums[a - 1][b - 1] * den:
            report.violations.append(Violation(
                "channel-capacity",
                f"{Fraction(bits, den)} bits sent {a}->{b} exceed the declared capacity {comm.weight(a, b)}",
            ))

    cut_books = ((books.granted, False), (books.ebits_created, False), (books.ebits_consumed, False),
                 (books.bits_sent, True), (books.bits_decoded, True))
    # a bound on every cut sum, comparison operand and replayed held count below
    top = 2 * sum(sum(book.values()) for book, _ in cut_books) + den * len(trace.events)
    out, into = _book_sums(cut_books, masks, top)
    shared, made, used = out[:3]
    spans = _spanned([*by_oracle, *by_conveyance], masks)
    oracle_spans = spans[:len(by_oracle)].any(axis=0)

    report.checks_run.append("cut-entanglement")
    for i in np.flatnonzero((made > used + shared) & ~spans.any(axis=0)).tolist():
        report.violations.append(Violation(
            "cut-entanglement",
            f"cut {_parties(int(masks[i]))}: {Fraction(int(made[i]), den)} ebits created exceed "
            f"{Fraction(int(used[i]), den)} consumed + {Fraction(int(shared[i]), den)} initially shared",
        ))

    report.checks_run.append("cut-communication")
    allowance = 2 * used
    sides = [(name, got, msg, got > msg + allowance)
             for name, (msg, got) in (("out of", out[3:]), ("into", into[3:]))]
    for i in np.flatnonzero((sides[0][3] | sides[1][3]) & ~oracle_spans).tolist():
        for name, got, msg, over in sides:
            if over[i]:
                report.violations.append(Violation(
                    "cut-communication",
                    f"cut {_parties(int(masks[i]))}: {Fraction(int(got[i]), den)} bits decoded {name} the cut "
                    f"exceed {Fraction(int(msg[i]), den)} sent + dense-coding allowance "
                    f"{Fraction(int(allowance[i]), den)}",
                ))

    # -- statevector replay -------------------------------------------------
    if replay and trace.initial is not None:
        report.checks_run.append("replay-monotonicity")
        report.replayed = True
        held = shared  # ebits still held across each cut, over den, each at most top in size
        remaining = _over(held, den, max(top, den))
        cache: Cache = {}
        fresh: dict[QubitId, QubitId] = {}
        last = _cut_entropies(trace.initial, cuts, cache) + remaining
        at = 0  # the step being replayed: replay_events raises before it yields that step
        try:
            for step, ev, ens in replay_events(trace.initial, trace.events):
                cache = _carry(cache, ev, fresh)
                if isinstance(ev, EbitConsume):
                    held = held - den * _spanned([ev.pair], masks)[0].astype(held.dtype)
                    remaining = _over(held, den, max(top, den))
                values = _cut_entropies(ens, cuts, cache) + remaining
                rose = np.flatnonzero(values > last + ENTROPY_TOL)
                if rose.size and ev.joined:
                    rose = rose[~_spanned([ev.joined], masks[rose])[0]]
                for i in rose.tolist():
                    report.violations.append(Violation(
                        "replay-monotonicity",
                        f"cut {_parties(int(masks[i]))}: monotone rose from {float(last[i]):.12f} "
                        f"to {float(values[i]):.12f}",
                        step,
                    ))
                last = values
                at = step + 1
        except (ValueError, AssertionError) as exc:
            report.violations.append(Violation("replay", str(exc), at))
    return report
