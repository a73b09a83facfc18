"""Resource accounting and protocol traces.

The ledger books ebits per unordered party pair and classical bits per
ordered pair, all in exact rationals so counting identities hold exactly.
A trace is the ordered, replayable log of everything a protocol did:
local gates and measurements, classical messages, ebit consumption and
creation, plus the registry plumbing (allocation, relocation, relabeling,
branch coalescing) and collective-oracle events needed to re-execute the
run from its recorded initial state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Mapping

import numpy as np

from .engine import DEFAULT_MAX_QUBITS, Branch, BranchEnsemble, QubitId


class InsufficientResources(RuntimeError):
    """A protocol step needs more held ebits than the ledger provides."""


def pair_key(a: int, b: int) -> tuple[int, int]:
    if a == b:
        raise ValueError("a party cannot share an ebit with itself")
    return (a, b) if a < b else (b, a)


@dataclass
class ResourceLedger:
    """Per-pair ebit and per-direction bit accounting in exact rationals."""

    ebits_held: dict[tuple[int, int], Fraction] = field(default_factory=dict)
    ebits_consumed: dict[tuple[int, int], Fraction] = field(default_factory=dict)
    ebits_created: dict[tuple[int, int], Fraction] = field(default_factory=dict)
    bits_sent: dict[tuple[int, int], Fraction] = field(default_factory=dict)
    granted: dict[tuple[int, int], Fraction] = field(default_factory=dict)
    supplementary_bits: float = 0.0

    def grant(self, a: int, b: int, amount: int | Fraction = 1) -> None:
        """Endow the pair {a,b} with initially held ebits."""
        key = pair_key(a, b)
        self.ebits_held[key] = self.held(a, b) + _book(self.granted, key, amount)

    def held(self, a: int, b: int) -> Fraction:
        return self.ebits_held.get(pair_key(a, b), Fraction(0))

    def consume_ebit(self, a: int, b: int, amount: int | Fraction = 1) -> None:
        key = pair_key(a, b)
        if self.held(a, b) < amount:
            raise InsufficientResources(
                f"pair {key} holds {self.held(a, b)} ebits, needs {amount}"
            )
        self.ebits_held[key] = self.held(a, b) - _book(self.ebits_consumed, key, amount)

    def create_ebit(self, a: int, b: int, amount: int | Fraction = 1) -> None:
        _book(self.ebits_created, pair_key(a, b), amount)

    def send_bits(self, sender: int, receiver: int, amount: int | Fraction) -> None:
        if sender == receiver:
            raise ValueError("sender and receiver must differ")
        _book(self.bits_sent, (sender, receiver), amount)

    def add_supplementary(self, bits: float) -> None:
        if bits < 0:
            raise ValueError("supplementary information is nonnegative")
        self.supplementary_bits += bits

    # -- aggregates -------------------------------------------------------

    def total_consumed(self) -> Fraction:
        return sum(self.ebits_consumed.values(), Fraction(0))

    def total_created(self) -> Fraction:
        return sum(self.ebits_created.values(), Fraction(0))

    def total_bits_sent(self) -> Fraction:
        return sum(self.bits_sent.values(), Fraction(0))

    def consumed_matrix(self, n: int) -> list[list[Fraction]]:
        """Symmetric matrix of consumed ebits over parties 1..n."""
        return _party_matrix(self.ebits_consumed, n, symmetric=True)

    def bits_matrix(self, n: int) -> list[list[Fraction]]:
        """Directed matrix of sent bits over parties 1..n."""
        return _party_matrix(self.bits_sent, n, symmetric=False)

    def granted_matrix(self, n: int) -> list[list[Fraction]]:
        return _party_matrix(self.granted, n, symmetric=True)

    def summary(self) -> dict:
        def pairs(d: Mapping[tuple[int, int], Fraction], sep: str) -> dict[str, str]:
            return {f"{a}{sep}{b}": str(v) for (a, b), v in sorted(d.items())}

        return {
            "ebits_held": pairs(self.ebits_held, "-"),
            "ebits_consumed": pairs(self.ebits_consumed, "-"),
            "ebits_created": pairs(self.ebits_created, "-"),
            "bits_sent": pairs(self.bits_sent, ">"),
            "supplementary_bits": self.supplementary_bits,
        }


def _book(book: dict[tuple[int, int], Fraction], key: tuple[int, int], amount) -> Fraction:
    """Add a nonnegative ``amount`` to ``book[key]`` and return it as a Fraction."""
    amount = Fraction(amount)
    if amount < 0:
        raise ValueError(f"ledger amounts only grow, got {amount}")
    book[key] = book.get(key, Fraction(0)) + amount
    return amount


def _party_matrix(book: Mapping[tuple[int, int], Fraction], n: int, symmetric: bool) -> list[list[Fraction]]:
    mat = [[Fraction(0)] * n for _ in range(n)]
    for (a, b), v in book.items():
        mat[a - 1][b - 1] = v
        if symmetric:
            mat[b - 1][a - 1] = v
    return mat


# --------------------------------------------------------------------------
# trace events

# A party index, 1..n_parties.  Loading a trace range-checks every field
# annotated with it, and the party of every qubit id.
Party = int

# Events reject values that could never be replayed when they are built, so
# a trace that holds one fails to load.  Unitarity is left to the replay:
# checking it costs O(8^t) for a t-qubit matrix.


def _check_square(matrix, targets) -> None:
    dim = 1 << len(targets)
    if np.shape(matrix) != (dim, dim):
        raise ValueError(f"a gate on {len(targets)} qubits needs a {dim}x{dim} matrix, "
                         f"got shape {np.shape(matrix)}")


def _check_transfer(what: str, frm: int, to: int, bits: Fraction) -> None:
    if frm == to:
        raise ValueError(f"a {what} needs two different parties, got {frm} and {to}")
    if bits < 0:
        raise ValueError(f"a {what} carries a nonnegative number of bits, got {bits}")


@dataclass(frozen=True)
class Allocate:
    party: Party
    qubits: tuple[QubitId, ...]
    init: str

    def __post_init__(self):
        if not self.qubits or len(self.init) != len(self.qubits) or set(self.init) - {"0", "1"}:
            raise ValueError(f"init {self.init!r} must be one 0/1 character for each of "
                             f"{len(self.qubits)} qubits (at least one)")


@dataclass(frozen=True)
class EbitConsume:
    pair: tuple[Party, Party]
    qubits: tuple[QubitId, QubitId]  # the instantiated phi+ pair


@dataclass(frozen=True)
class EbitCreate:
    pair: tuple[Party, Party]


@dataclass(frozen=True)
class LocalGate:
    party: Party
    targets: tuple[QubitId, ...]
    matrix: np.ndarray | None = None
    cases: tuple[tuple[str, np.ndarray], ...] | None = None
    conditional_on: int | None = None

    def __post_init__(self):
        given = (self.matrix is not None, self.cases is not None, self.conditional_on is not None)
        if given not in ((True, False, False), (False, True, True)):
            raise ValueError("a local gate takes either a matrix or cases with conditional_on")
        matrices = [self.matrix] if self.cases is None else [m for _, m in self.cases]
        for matrix in matrices:
            _check_square(matrix, self.targets)


@dataclass(frozen=True)
class LocalMeasure:
    party: Party
    targets: tuple[QubitId, ...]
    basis: str  # "computational" | "bell" | "povm"
    discard: bool
    index: int
    distribution: tuple[tuple[str, float], ...]

    def __post_init__(self):
        if self.basis not in ("computational", "bell", "povm"):
            raise ValueError(f"unknown measurement basis {self.basis!r}")


@dataclass(frozen=True)
class ClassicalMessage:
    sender: Party
    receiver: Party
    bits: Fraction
    supplementary: bool = False

    def __post_init__(self):
        _check_transfer("message", self.sender, self.receiver, self.bits)


@dataclass(frozen=True)
class DecodedBits:
    at_party: Party
    from_party: Party
    bits: Fraction
    payload: str = ""

    def __post_init__(self):
        _check_transfer("decode", self.from_party, self.at_party, self.bits)


@dataclass(frozen=True)
class CollectiveOracle:
    """A joint unitary applied as the operation under study, not charged as LQCC."""

    label: str
    parties: tuple[Party, ...]
    targets: tuple[QubitId, ...]
    matrix: np.ndarray

    def __post_init__(self):
        _check_square(self.matrix, self.targets)


@dataclass(frozen=True)
class Relocate:
    qubit: QubitId
    to_party: Party


@dataclass(frozen=True)
class Relabel:
    old: QubitId
    new: QubitId


@dataclass(frozen=True)
class Coalesce:
    pass


Event = (
    Allocate
    | EbitConsume
    | EbitCreate
    | LocalGate
    | LocalMeasure
    | ClassicalMessage
    | DecodedBits
    | CollectiveOracle
    | Relocate
    | Relabel
    | Coalesce
)


@dataclass
class ProtocolTrace:
    """Append-only event log, with the initial ensemble for replay."""

    n_parties: int
    initial: BranchEnsemble | None = None
    events: list[Event] = field(default_factory=list)

    def append(self, event: Event) -> None:
        self.events.append(event)

    def messages_total(self, sender: int, receiver: int) -> Fraction:
        return sum(
            (e.bits for e in self.events
             if isinstance(e, ClassicalMessage) and not e.supplementary
             and e.sender == sender and e.receiver == receiver),
            Fraction(0),
        )


# --------------------------------------------------------------------------
# serialization (JSON lines; one record per event, header first)
#
# Events are encoded field by field: the field's annotation picks an
# (encoder, decoder) pair, fields that are None are left out, and absent keys
# take the dataclass defaults.  Decoders get the party count for range checks.


def _complex_out(arr) -> list:
    """A complex array of any shape as nested lists ending in [re, im] pairs."""
    arr = np.asarray(arr, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def _complex_in(raw) -> np.ndarray:
    pairs = np.array(raw, dtype=float)
    if pairs.ndim == 0 or pairs.shape[-1] != 2:
        raise ValueError("complex entries must be [re, im] pairs")
    return pairs.view(complex)[..., 0]


def _party(raw, n_parties: int) -> int:
    if not 1 <= int(raw) <= n_parties:
        raise ValueError(f"party {raw} is outside 1..{n_parties}")
    return int(raw)


def _qubit(raw, n_parties: int) -> QubitId:
    party, label = raw
    return QubitId(_party(party, n_parties), str(label))


def _two(raw):
    if len(raw) != 2:
        raise ValueError(f"expected a pair, got {raw!r}")
    return raw


_CODECS = {
    "Party": (int, _party),
    "int": (int, lambda raw, n: int(raw)),
    "str": (str, lambda raw, n: str(raw)),
    "bool": (bool, lambda raw, n: bool(raw)),
    "Fraction": (str, lambda raw, n: Fraction(raw)),
    "QubitId": (lambda q: [q.party, q.label], _qubit),
    "np.ndarray": (_complex_out, lambda raw, n: _complex_in(raw)),
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
        dict, lambda raw, n: tuple(sorted((str(k), float(v)) for k, v in raw.items()))),
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
    rec = {"kind": "header", "format": "ebitnet-trace/1", "n_parties": trace.n_parties}
    if trace.initial is not None:
        ens = trace.initial
        rec["max_qubits"] = ens.max_qubits
        rec["registry"] = _REGISTRY_OUT(ens.registry)
        rec["branches"] = [
            {"p": float(b.probability), "amplitudes": _complex_out(b.amplitudes)} for b in ens.branches
        ]
    return rec


def _header_trace(rec: Mapping) -> ProtocolTrace:
    """The empty trace a header record describes, with its checked initial state."""
    if rec.get("kind") != "header":
        raise ValueError("expected a header record")
    n_parties = rec.get("n_parties")
    if type(n_parties) is not int or n_parties < 1:
        raise ValueError(f"n_parties must be a positive integer, got {n_parties!r}")
    if "registry" not in rec:
        return ProtocolTrace(n_parties)
    registry = _REGISTRY_IN(rec["registry"], n_parties)
    if len(set(registry)) != len(registry):
        raise ValueError("registry contains duplicate qubit ids")
    branches = [Branch(float(b["p"]), _complex_in(b["amplitudes"])) for b in rec["branches"]]
    if any(b.amplitudes.shape != (1 << len(registry),) for b in branches):
        raise ValueError(f"every branch needs {1 << len(registry)} amplitudes")
    initial = BranchEnsemble(registry, branches, int(rec.get("max_qubits", DEFAULT_MAX_QUBITS)))
    try:
        initial.check()
    except AssertionError as exc:
        raise ValueError(f"initial state: {exc}") from None
    return ProtocolTrace(n_parties, initial)


def dump_trace(trace: ProtocolTrace) -> str:
    lines = [json.dumps(_header_record(trace), sort_keys=True)]
    lines += [json.dumps(event_record(e), sort_keys=True) for e in trace.events]
    return "\n".join(lines) + "\n"


def load_trace(text: str) -> ProtocolTrace:
    """Parse a trace; malformed input raises ValueError("trace line N: ...")."""
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
            else:
                trace.append(event_from_record(rec, trace.n_parties))
        except json.JSONDecodeError as exc:
            raise ValueError(f"trace line {i}: invalid JSON ({exc.msg})") from None
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
            raise ValueError(f"trace line {i}: {exc}") from None
    return trace
