"""Resource accounting and protocol traces.

The ledger books ebits per unordered party pair and classical bits per
ordered pair, as integer numerators over one denominator, so counts are exact.
A trace is the ordered, replayable log of everything a protocol did:
local gates and measurements, classical messages, ebit consumption and
creation, plus the registry plumbing (allocation, relocation, relabeling,
branch coalescing) and collective-oracle events needed to re-execute the
run from its recorded initial state.  Each event kind answers for itself,
over the ``Event`` defaults: ``apply`` is its one engine call, which
protocols run and the audit replays; ``book`` its one charge to the resource
books, for both alike; ``named``, ``removed`` and ``added`` the qubit ids
that ``track_ids`` walks at load; ``nonlocal_detail`` the one locality rule,
which protocols refuse by and the audit reports.  The product groups of the
state are the engine's alone: a replay reads them from each ensemble ``apply`` makes.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Mapping

import numpy as np

from . import engine
from .engine import DEFAULT_MAX_QUBITS, BranchEnsemble, Povm, QubitId
from .gates import Permutation

TRACE_FORMAT = "ebitnet-trace/4"
# Complex arrays of at least this many entries are written as base64 of their
# little-endian complex128 bytes; smaller ones as [re, im] pairs, which are
# shorter for them (a 2x2 Pauli takes 52 characters as pairs, 88 as base64).
BASE64_MIN_ENTRIES = 64


class InsufficientResources(RuntimeError):
    """A protocol step needs more held ebits than the ledger provides."""


def pair_key(a: int, b: int) -> tuple[int, int]:
    if a == b:
        raise ValueError("a party cannot share an ebit with itself")
    return (a, b) if a < b else (b, a)


@dataclass
class ResourceLedger:
    """Per-pair ebit and per-direction bit accounting, exact: every book holds
    integer numerators over the one denominator ``den``, as a graph's cells do.

    A trace event charges it through its own ``book``, for protocols and the
    audit alike.  Booking never refuses: a pair consumed beyond its grant
    holds a negative amount, and refusing is left to the caller.
    """

    den: int = 1
    ebits_consumed: dict[tuple[int, int], int] = field(default_factory=dict)
    ebits_created: dict[tuple[int, int], int] = field(default_factory=dict)
    bits_sent: dict[tuple[int, int], int] = field(default_factory=dict)  # (from, to)
    bits_decoded: dict[tuple[int, int], int] = field(default_factory=dict)  # (from, at)
    granted: dict[tuple[int, int], int] = field(default_factory=dict)
    supplementary_bits: float = 0.0
    # bits of POVM outcomes a party may broadcast on each of its streams, and
    # how much of that each stream (from, to) has used
    outcome_cover: dict[int, int] = field(default_factory=dict)
    cover_used: dict[tuple[int, int], int] = field(default_factory=dict)

    def num(self, amount: int | Fraction) -> int:
        """The nonnegative ``amount`` as a numerator over ``den``, which first
        scales every book up to their lcm when the amount's denominator does not divide it."""
        if amount < 0:
            raise ValueError(f"ledger amounts only grow, got {amount}")
        if self.den % amount.denominator:
            scale = math.lcm(self.den, amount.denominator) // self.den
            for book in (self.ebits_consumed, self.ebits_created, self.bits_sent, self.bits_decoded,
                         self.granted, self.outcome_cover, self.cover_used):
                for key in book:
                    book[key] *= scale
            self.den *= scale
        return amount.numerator * (self.den // amount.denominator)

    def grant(self, a: int, b: int, amount: int | Fraction = 1) -> None:
        """Endow the pair {a,b} with initially held ebits."""
        _book(self.granted, pair_key(a, b), self.num(amount))

    def held(self, a: int, b: int) -> Fraction:
        key = pair_key(a, b)
        return Fraction(self.granted.get(key, 0) - self.ebits_consumed.get(key, 0), self.den)

    def total(self, book: Mapping) -> Fraction:
        """The sum of one of the books."""
        return Fraction(sum(book.values()), self.den)

    def add_supplementary(self, bits: float) -> None:
        if bits < 0:
            raise ValueError("supplementary information is nonnegative")
        self.supplementary_bits += bits

    def summary(self) -> dict:
        def pairs(book: Mapping[tuple[int, int], int], sep: str) -> dict[str, str]:
            return {f"{a}{sep}{b}": str(Fraction(v, self.den)) for (a, b), v in sorted(book.items())}

        held = {key: self.granted.get(key, 0) - self.ebits_consumed.get(key, 0)
                for key in self.granted.keys() | self.ebits_consumed.keys()}
        return {
            "ebits_held": pairs(held, "-"),
            "ebits_consumed": pairs(self.ebits_consumed, "-"),
            "ebits_created": pairs(self.ebits_created, "-"),
            "bits_sent": pairs(self.bits_sent, ">"),
            "supplementary_bits": self.supplementary_bits,
        }


def outcome_bits(probabilities) -> int:
    """The whole bits that broadcast one outcome of a recorded distribution: the
    ceiling of its Shannon entropy.  The sum is exact, so the order of the
    probabilities does not matter.  It never raises, because the audit books a
    recorded distribution before the replay checks it: entries that are not
    positive add nothing."""
    entropy = -math.fsum(p * math.log2(p) for p in probabilities if p > 0.0)
    return math.ceil(entropy) if entropy > 0.0 else 0


def _book(book: dict, key, num: int) -> int:
    """Add the numerator ``num`` to ``book[key]`` and return it."""
    book[key] = book.get(key, 0) + num
    return num


# --------------------------------------------------------------------------
# trace events

# A party index, 1..n_parties.  Loading a trace range-checks every field
# annotated with it, and the party of every qubit id.
Party = int

# Events reject values that could never be replayed when they are built, so
# a trace that holds one fails to load.


def _check_parties(what: str, parties, qubits) -> None:
    if set(parties) != {q.party for q in qubits}:
        raise ValueError(f"{what} names parties {sorted(set(parties))} "
                         f"but its qubits are at {sorted({q.party for q in qubits})}")


def _check_transfer(what: str, frm: int, to: int, bits: Fraction) -> None:
    if frm == to:
        raise ValueError(f"a {what} needs two different parties, got {frm} and {to}")
    if bits < 0:
        raise ValueError(f"a {what} carries a nonnegative number of bits, got {bits}")


class Event:
    """A trace event.  ``named``, ``removed`` and ``added`` are the qubit ids it
    names (each registered, none twice), then removes, then adds (each new), and
    ``joined`` the parties it acts across at once.  ``nonlocal_detail`` says how
    an event that claims to stay at one party reaches past it, and is None when
    it does not.  By default an event does none of these, renames nothing,
    books nothing and leaves the ensemble as it was."""

    named = removed = added = joined = ()
    nonlocal_detail = None

    @property
    def renames(self) -> dict[QubitId, QubitId]:
        """The registry renames the event makes, from old id to new."""
        return {}

    def apply(self, ens: BranchEnsemble) -> tuple[BranchEnsemble, dict[str, float] | None]:
        """The ensemble after the event, and a measurement's outcome distribution."""
        return ens, None

    def book(self, ledger: ResourceLedger) -> None:
        """Charge the event to the resource books of ``ledger``."""


@dataclass(frozen=True)
class Allocate(Event):
    party: Party
    qubits: tuple[QubitId, ...]
    init: str

    def __post_init__(self):
        if not self.qubits or len(self.init) != len(self.qubits) or set(self.init) - {"0", "1"}:
            raise ValueError(f"init {self.init!r} must be one 0/1 character for each of "
                             f"{len(self.qubits)} qubits (at least one)")
        _check_parties("an allocation", (self.party,), self.qubits)

    added = property(lambda self: self.qubits)

    def apply(self, ens):
        return engine.allocate_qubits(ens, self.qubits, self.init), None


@dataclass(frozen=True)
class EbitConsume(Event):
    pair: tuple[Party, Party]
    qubits: tuple[QubitId, QubitId]  # the instantiated phi+ pair

    def __post_init__(self):
        _check_parties("an ebit consumption", self.pair, self.qubits)

    added = property(lambda self: self.qubits)

    def apply(self, ens):
        return engine.insert_bell_pair(ens, *self.qubits), None

    def book(self, ledger):
        _book(ledger.ebits_consumed, pair_key(*self.pair), ledger.den)


@dataclass(frozen=True)
class EbitCreate(Event):
    pair: tuple[Party, Party]

    def book(self, ledger):
        _book(ledger.ebits_created, pair_key(*self.pair), ledger.den)


class _AtParty(Event):
    """An event declared local to ``party``: every qubit it targets must be held there."""

    @property
    def nonlocal_detail(self):
        strangers = [q for q in self.targets if q.party != self.party]
        return f"event declared local to party {self.party} targets {strangers}" if strangers else None


@dataclass(frozen=True)
class LocalGate(_AtParty):
    party: Party
    targets: tuple[QubitId, ...]
    matrix: np.ndarray | None = None
    cases: tuple[tuple[str, np.ndarray], ...] | None = None
    conditional_on: int | None = None

    def __post_init__(self):
        if not self.targets:
            raise ValueError("a local gate needs at least one target")
        given = (self.matrix is not None, self.cases is not None, self.conditional_on is not None)
        if given not in ((True, False, False), (False, True, True)):
            raise ValueError("a local gate takes either a matrix or cases with conditional_on")
        engine.check_unitary(self.matrices, len(self.targets))

    @property
    def matrices(self) -> list[np.ndarray]:
        """The matrix, or every case matrix."""
        return [self.matrix] if self.cases is None else [m for _, m in self.cases]

    named = property(lambda self: self.targets)

    def apply(self, ens):
        if self.cases is None:
            return engine.apply_gate(ens, self), None
        return engine.apply_conditional(ens, self.targets, dict(self.cases), self.conditional_on), None


@dataclass(frozen=True)
class LocalMeasure(_AtParty):
    party: Party
    targets: tuple[QubitId, ...]
    basis: str  # "computational" | "bell" | "povm"
    discard: bool
    index: int
    distribution: tuple[tuple[str, float], ...]
    povm: Povm | None = None  # the elements, exactly when the basis is "povm"

    def __post_init__(self):
        if not self.targets:
            raise ValueError("a measurement needs at least one target")
        if self.basis not in ("computational", "bell", "povm"):
            raise ValueError(f"unknown measurement basis {self.basis!r}")
        if (self.povm is None) == (self.basis == "povm"):
            raise ValueError(f"a {self.basis} measurement {'needs' if self.povm is None else 'takes no'} "
                             "POVM elements")
        if self.povm is not None and self.povm.dim != 1 << len(self.targets):
            raise ValueError(f"a POVM on {len(self.targets)} qubits needs {1 << len(self.targets)}"
                             f"x{1 << len(self.targets)} elements, got dimension {self.povm.dim}")
        if self.povm is not None and self.discard:
            raise ValueError("a POVM leaves the state as it was, so it cannot discard its targets")
        if self.basis == "bell" and len(self.targets) != 2:
            raise ValueError(f"a Bell measurement targets exactly 2 qubits, got {len(self.targets)}")

    named = property(lambda self: self.targets)
    removed = property(lambda self: self.targets if self.discard else ())

    def apply(self, ens):
        """A POVM leaves the state as it was; its distribution lists the
        outcomes of positive probability by element index."""
        if self.povm is not None:
            probs = engine.measure_povm(ens, self.povm, self.targets)
            return ens, {str(r): p for r, p in enumerate(probs) if p > 0.0}
        measure = engine.bell_measure if self.basis == "bell" else engine.measure_computational
        return measure(ens, self.targets, discard=self.discard)

    def book(self, ledger):
        """A POVM record at party a covers ``outcome_bits`` of its distribution,
        but no more than the ceiling of log2 of its element count, on every
        stream (a, b)."""
        if self.povm is not None:
            _book(ledger.outcome_cover, self.party, ledger.den * min(outcome_bits(p for _, p in self.distribution),
                                                                     (len(self.povm.elements) - 1).bit_length()))


@dataclass(frozen=True)
class ClassicalMessage(Event):
    sender: Party
    receiver: Party
    bits: Fraction
    supplementary: bool = False

    def __post_init__(self):
        _check_transfer("message", self.sender, self.receiver, self.bits)

    def book(self, ledger):
        """A supplementary message draws on its sender's POVM cover, and the
        bits beyond it are charged as sent like any other message."""
        stream, bits = (self.sender, self.receiver), ledger.num(self.bits)
        if self.supplementary:
            unused = ledger.outcome_cover.get(self.sender, 0) - ledger.cover_used.get(stream, 0)
            bits -= _book(ledger.cover_used, stream, min(bits, unused))
        if bits or not self.supplementary:
            _book(ledger.bits_sent, stream, bits)


@dataclass(frozen=True)
class DecodedBits(Event):
    at_party: Party
    from_party: Party
    bits: Fraction
    payload: str = ""

    def __post_init__(self):
        _check_transfer("decode", self.from_party, self.at_party, self.bits)

    def book(self, ledger):
        _book(ledger.bits_decoded, (self.from_party, self.at_party), ledger.num(self.bits))


class _Rename(Event):
    """An event that only renames registry ids, as ``renames`` says: it names
    and removes the old ids and adds the new ones, and moves no amplitude."""

    named = removed = property(lambda self: tuple(self.renames))
    added = property(lambda self: tuple(self.renames.values()))

    def apply(self, ens):
        return engine.relabel_qubits(ens, self.renames), None


@dataclass(frozen=True)
class CollectiveOracle(_Rename):
    """A qubit permutation applied as the operation under study, not charged as
    LQCC: the state at ``targets[i-1]`` moves to ``targets[P(i)-1]``, so that id
    is what the qubit is called afterwards."""

    parties: tuple[Party, ...]
    targets: tuple[QubitId, ...]
    permutation: Permutation

    def __post_init__(self):
        _check_parties("an oracle", self.parties, self.targets)
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"oracle targets {list(self.targets)} name a qubit twice")
        if self.permutation.n != len(self.targets):
            raise ValueError(f"a permutation of {self.permutation.n} slots cannot act on "
                             f"{len(self.targets)} targets")

    @property
    def renames(self):
        return {q: self.targets[self.permutation(i) - 1] for i, q in enumerate(self.targets, start=1)}

    joined = property(lambda self: self.parties)


@dataclass(frozen=True)
class Relocate(_Rename):
    qubit: QubitId
    to_party: Party

    renames = property(lambda self: {self.qubit: QubitId(self.to_party, self.qubit.label)})
    joined = property(lambda self: (self.qubit.party, self.to_party))


@dataclass(frozen=True)
class Relabel(_Rename):
    old: QubitId
    new: QubitId

    renames = property(lambda self: {self.old: self.new})

    @property
    def nonlocal_detail(self):
        if self.old.party != self.new.party:
            return f"relabel moves {self.old} to party {self.new.party}; qubit conveyance must be a relocate event"


@dataclass(frozen=True)
class Coalesce(Event):
    def apply(self, ens):
        return engine.coalesce(ens), None


def track_ids(ids: set[QubitId], event: Event, max_qubits: int) -> None:
    """Move the registry's qubit ids ``ids`` past ``event``, checked without
    amplitudes as its ``apply`` would check them: every qubit the event names
    must be registered, no target named twice, every qubit it adds must be new,
    and the registry may not grow past ``max_qubits``.
    """
    named, added = event.named, event.added
    for q in named:
        if q not in ids:
            raise ValueError(f"qubit {q!r} is not in the registry")
    if len(set(named)) != len(named):
        raise ValueError(f"targets {list(named)} name a qubit twice")
    ids.difference_update(event.removed)
    if len(ids) + len(added) > max_qubits:
        raise ValueError(f"adding {len(added)} qubits to {len(ids)} would exceed the registry cap of {max_qubits}")
    for q in added:
        if q in ids:
            raise ValueError(f"qubit {q!r} is already in the registry")
        ids.add(q)


@dataclass
class ProtocolTrace:
    """Append-only event log, with the initial ensemble for replay."""

    n_parties: int
    initial: BranchEnsemble | None = None
    events: list[Event] = field(default_factory=list)

    def append(self, event: Event) -> None:
        self.events.append(event)


# --------------------------------------------------------------------------
# serialization (JSON lines; one record per event, header first)
#
# Events are encoded field by field: the field's annotation picks an
# (encoder, decoder) pair, fields that are None are left out, and absent keys
# take the dataclass defaults.  Decoders get the party count for range checks.


def _complex_out(arr) -> list | dict:
    """A complex array of any shape: as {"shape": [...], "c128": base64} from
    ``BASE64_MIN_ENTRIES`` entries on, else as nested lists ending in [re, im] pairs."""
    arr = np.asarray(arr, dtype=complex)
    if arr.size >= BASE64_MIN_ENTRIES:
        return {"shape": list(arr.shape), "c128": base64.b64encode(arr.astype("<c16").tobytes()).decode("ascii")}
    # the float64 view of the contiguous array is its [re, im] pairs
    return np.ascontiguousarray(arr).view(np.float64).reshape(*arr.shape, 2).tolist()


def _complex_in(raw) -> np.ndarray:
    """A complex array written by ``_complex_out``, in either form."""
    if isinstance(raw, dict):
        return _c128_in(raw)
    pairs = np.array(raw)
    if pairs.dtype.kind not in "iuf":
        raise ValueError(f"complex entries must be JSON numbers, got {pairs.dtype} entries")
    if pairs.ndim == 0 or pairs.shape[-1] != 2:
        raise ValueError("complex entries must be [re, im] pairs")
    return pairs.astype(float, copy=False).view(complex)[..., 0]


def _c128_in(raw: Mapping) -> np.ndarray:
    """The array of a {"shape", "c128"} record.  The text must be the canonical
    base64 of exactly 16 bytes per entry of the shape, which is checked before
    any array is made, so a shape cannot ask for memory its text does not hold."""
    if set(raw) != {"shape", "c128"}:
        raise ValueError(f"a base64 array takes the keys c128 and shape, got {sorted(raw)}")
    text = _str(raw["c128"])
    if type(raw["shape"]) is not list:
        raise ValueError(f"shape must be a list of integers, got {raw['shape']!r}")
    shape = [_int(d) for d in raw["shape"]]
    if any(d < 0 for d in shape):
        raise ValueError(f"shape {shape} has a negative entry")
    try:
        data = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise ValueError(f"c128 is not base64 ({exc})") from None
    nbytes = 16 * math.prod(shape)
    if len(data) != nbytes:
        raise ValueError(f"c128 holds {len(data)} bytes, shape {shape} needs {nbytes}")
    if base64.b64encode(data) != text.encode("ascii"):
        raise ValueError("c128 is not the canonical base64 of its bytes")
    return np.frombuffer(data, dtype="<c16").astype(complex, copy=False).reshape(shape)


def _exactly(*kinds: type, what: str):
    """A decoder that passes only values of the exact JSON ``kinds``: a float is
    not an integer, a bool is not a number and nothing is coerced."""
    def decode(raw):
        if type(raw) not in kinds:
            raise ValueError(f"expected {what}, got {raw!r}")
        return raw
    return decode


_int = _exactly(int, what="an integer")
_bool = _exactly(bool, what="true or false")
_str = _exactly(str, what="a string")
_number = _exactly(int, float, what="a number")


def _float(raw) -> float:
    """A JSON number as a float; an integer too large for one is a ValueError."""
    try:
        return float(_number(raw))
    except OverflowError:
        raise ValueError(f"an integer of {len(str(raw))} digits is too large for a float") from None


def _fraction(raw) -> Fraction:
    """An exact amount written as a string such as "2" or "7/2"."""
    try:
        return Fraction(_str(raw))
    except ZeroDivisionError:
        raise ValueError(f"amount {raw!r} divides by zero") from None


def _party(raw, n_parties: int) -> int:
    if not 1 <= _int(raw) <= n_parties:
        raise ValueError(f"party {raw} is outside 1..{n_parties}")
    return raw


def _qubit(raw, n_parties: int) -> QubitId:
    party, label = raw
    return QubitId(_party(party, n_parties), _str(label))


def _two(raw):
    if len(raw) != 2:
        raise ValueError(f"expected a pair, got {raw!r}")
    return raw


_CODECS = {
    "Party": (int, _party),
    "int": (int, lambda raw, n: _int(raw)),
    "str": (str, lambda raw, n: _str(raw)),
    "bool": (bool, lambda raw, n: _bool(raw)),
    "Fraction": (str, lambda raw, n: _fraction(raw)),
    "QubitId": (lambda q: [q.party, q.label], _qubit),
    "np.ndarray": (_complex_out, lambda raw, n: _complex_in(raw)),
    "Permutation": (lambda p: list(p.mapping), lambda raw, n: Permutation(tuple(_int(v) for v in raw))),
    "Povm": (lambda povm: [_complex_out(e) for e in povm.elements],
             lambda raw, n: Povm(tuple(_complex_in(e) for e in raw))),
    "tuple[Party, ...]": (list, lambda raw, n: tuple(_party(p, n) for p in raw)),
    "tuple[Party, Party]": (list, lambda raw, n: pair_key(*(_party(p, n) for p in _two(raw)))),
    "tuple[QubitId, ...]": (
        lambda qs: [[q.party, q.label] for q in qs], lambda raw, n: tuple(_qubit(q, n) for q in raw)),
    "tuple[QubitId, QubitId]": (
        lambda qs: [[q.party, q.label] for q in qs], lambda raw, n: tuple(_qubit(q, n) for q in _two(raw))),
    "tuple[tuple[str, np.ndarray], ...]": (
        lambda cases: {k: _complex_out(m) for k, m in cases},
        lambda raw, n: tuple(sorted((str(k), _complex_in(m)) for k, m in raw.items()))),
    "tuple[tuple[str, float], ...]": (
        dict, lambda raw, n: tuple(sorted((k, _float(v)) for k, v in raw.items()))),
}
_KINDS = {
    Allocate: "allocate", EbitConsume: "ebit_consume", EbitCreate: "ebit_create",
    LocalGate: "local_gate", LocalMeasure: "local_measure", ClassicalMessage: "message",
    DecodedBits: "decoded", CollectiveOracle: "oracle", Relocate: "relocate",
    Relabel: "relabel", Coalesce: "coalesce",
}
_EVENT_TYPES = {kind: cls for cls, kind in _KINDS.items()}
_KEYS = {"sender": "from", "receiver": "to", "at_party": "at", "from_party": "from", "to_party": "to"}
# event type -> [(field name, JSON key, encoder, decoder)]
_FIELDS = {
    cls: [(f.name, _KEYS.get(f.name, f.name), *_CODECS[f.type.removesuffix(" | None")])
          for f in fields(cls)]
    for cls in _KINDS
}
_REGISTRY_OUT, _REGISTRY_IN = _CODECS["tuple[QubitId, ...]"]


def event_record(event: Event) -> dict:
    rec = {"kind": _KINDS[type(event)]}
    for name, key, encode, _ in _FIELDS[type(event)]:
        if getattr(event, name) is not None:
            rec[key] = encode(getattr(event, name))
    return rec


def event_from_record(rec: Mapping, n_parties: int) -> Event:
    """Decode one event record; every party in it must lie in 1..n_parties."""
    cls = _EVENT_TYPES.get(rec.get("kind"))
    if cls is None:
        raise ValueError(f"unknown event kind {rec.get('kind')!r}")
    return cls(**{name: decode(rec[key], n_parties)
                  for name, key, _, decode in _FIELDS[cls] if rec.get(key) is not None})


def _header_record(trace: ProtocolTrace) -> dict:
    rec = {"kind": "header", "format": TRACE_FORMAT, "n_parties": trace.n_parties}
    if trace.initial is not None:
        ens = trace.initial
        rec["max_qubits"] = ens.max_qubits
        rec["registry"] = _REGISTRY_OUT(ens.registry)
        rec["branches"] = [
            {"p": float(p), "amplitudes": _complex_out(vec)} for p, vec in engine.branch_vectors(ens, ens.registry)
        ]
    return rec


def _header_trace(rec: Mapping) -> ProtocolTrace:
    """The empty trace a header record describes; its initial state is checked
    where every dense state is, in ``BranchEnsemble.from_vectors``."""
    if rec.get("kind") != "header":
        raise ValueError("expected a header record")
    if rec.get("format") != TRACE_FORMAT:
        raise ValueError(f"trace format {rec.get('format')!r} is not {TRACE_FORMAT!r}")
    n_parties = rec.get("n_parties")
    if type(n_parties) is not int or n_parties < 1:
        raise ValueError(f"n_parties must be a positive integer, got {n_parties!r}")
    if "registry" not in rec:
        return ProtocolTrace(n_parties)
    registry = _REGISTRY_IN(rec["registry"], n_parties)
    branches = [(_float(b["p"]), _complex_in(b["amplitudes"])) for b in rec["branches"]]
    max_qubits = _int(rec.get("max_qubits", DEFAULT_MAX_QUBITS))
    return ProtocolTrace(n_parties, BranchEnsemble.from_vectors(registry, branches, max_qubits))


# json.dumps(rec, sort_keys=True) without building an encoder per record
_ENCODER = json.JSONEncoder(sort_keys=True)


def dump_trace(trace: ProtocolTrace) -> str:
    lines = [_ENCODER.encode(_header_record(trace))]
    lines += [_ENCODER.encode(event_record(e)) for e in trace.events]
    return "\n".join(lines) + "\n"


def load_trace(text: str) -> ProtocolTrace:
    """Parse a trace; malformed input raises ValueError("trace line N: ...").

    With an initial state in the header, ``track_ids`` follows the events from
    its registry, so their qubits are checked against the registry and its
    ``max_qubits``.  Every local gate matrix must be unitary; each is
    checked when its event is built from its line, and not again in a replay.
    So the first bad line is the one reported, whatever its fault.
    """
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ValueError("trace line 1: empty trace")
    for i, ln in lines:
        try:
            rec = json.loads(ln)
            if not isinstance(rec, dict):
                raise ValueError("expected a JSON object")
            if i == lines[0][0]:
                trace = _header_trace(rec)
                ids = None if trace.initial is None else set(trace.initial.registry)
                continue
            event = event_from_record(rec, trace.n_parties)
            if ids is not None:
                track_ids(ids, event, trace.initial.max_qubits)
            trace.append(event)
        except json.JSONDecodeError as exc:
            raise ValueError(f"trace line {i}: invalid JSON ({exc.msg})") from None
        except RecursionError:
            raise ValueError(f"trace line {i}: JSON nested too deeply") from None
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
            raise ValueError(f"trace line {i}: {exc}") from None
    return trace
