"""Teleportation-based protocols with full resource accounting.

Every traced step goes through ``ProtocolRun.step``: an event that reaches
past the party it is declared local to is refused by its ``nonlocal_detail``
(the same rule the audit reports with), ``track_ids`` walks its qubit ids
(the same rule a trace's load walks them with), the event's ``apply`` runs it
on the exact ensemble engine (the same call the audit replays it with), its
``book`` charges it to the ledger (by the same rule the audit charges with)
and the trace records it.
Held ebits are realized lazily: a phi+ pair enters the statevector only
when a step consumes it, which keeps the registry small.  The permutation
protocols (SWAP is their two-party case) apply the operation under study as
an uncharged collective oracle; everything else is strictly local plus
messages (a permutation run at a star's hub is an oracle held by one party).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from . import engine, gates
from .engine import BranchEnsemble, Povm, QubitId
from .gates import Permutation
from .ledger import (
    Allocate,
    ClassicalMessage,
    Coalesce,
    CollectiveOracle,
    DecodedBits,
    EbitConsume,
    EbitCreate,
    Event,
    InsufficientResources,
    LocalGate,
    LocalMeasure,
    ProtocolTrace,
    Relabel,
    Relocate,
    ResourceLedger,
    outcome_bits,
    pair_key,
    track_ids,
)


@dataclass(frozen=True)
class CollectiveOp:
    """One of: a joint unitary on the data qubits, a permutation of their slots
    (moving the state at slot i to slot P(i)), or a POVM (optionally recorded)."""

    unitary: np.ndarray | None = None
    povm: Povm | None = None
    permutation: Permutation | None = None
    record: bool = False

    def __post_init__(self):
        if sum(op is not None for op in (self.unitary, self.povm, self.permutation)) != 1:
            raise ValueError("specify exactly one of unitary, permutation or povm")
        if self.record and self.povm is None:
            raise ValueError("only a POVM outcome can be recorded")
        if self.unitary is not None:
            object.__setattr__(self, "unitary", np.asarray(self.unitary, dtype=complex))


@dataclass
class ProtocolRun:
    """Exclusive owner of one ensemble, ledger and trace for a protocol run."""

    n_parties: int
    ensemble: BranchEnsemble
    trace: ProtocolTrace
    data_qubits: dict[int, QubitId]
    ledger: ResourceLedger = field(default_factory=ResourceLedger)
    _labels: int = 0

    def fresh_label(self) -> str:
        self._labels += 1
        return f"a{self._labels - 1}"

    def step(self, event: Event) -> dict[str, float] | None:
        """Apply ``event``, then book it and append it to the trace.

        An event that reaches past the party it is declared local to raises
        ValueError with its ``nonlocal_detail`` first, one whose qubit ids
        ``track_ids`` refuses raises ValueError before the engine, which trusts
        its ids, sees them, an ebit consumption on a pair that holds less than
        one ebit raises InsufficientResources, and an event that fails to apply
        raises too, each with the ledger, the ensemble and the trace untouched.
        A local gate is unitary by construction: ``LocalGate`` refuses a matrix
        that is not.  A measurement is booked and recorded with, and returns,
        the distribution it produced.
        """
        if event.nonlocal_detail is not None:
            raise ValueError(event.nonlocal_detail)
        if event.named or event.added:  # an event without ids leaves the registry as it was
            track_ids(set(self.ensemble.registry), event, self.ensemble.max_qubits)
        if isinstance(event, EbitConsume) and self.ledger.held(*event.pair) < 1:
            raise InsufficientResources(
                f"pair {pair_key(*event.pair)} holds {self.ledger.held(*event.pair)} ebits, needs 1")
        self.ensemble, dist = event.apply(self.ensemble)
        if dist is not None:
            event = replace(event, distribution=tuple(sorted(dist.items())))
        event.book(self.ledger)
        self.trace.append(event)
        return dist


def new_run(n_parties: int, state: Sequence[complex] | None = None,
            max_qubits: int = engine.DEFAULT_MAX_QUBITS) -> ProtocolRun:
    """A run of ``n_parties`` whose trace starts from the state it is made with.

    With ``state`` of 2^k amplitudes, party i holds data qubit q<i> for
    i = 1..k, amplitude-index bit i-1 of the joint state, which is divided by
    its norm; without one the registry is empty.  No operation writes into an
    ensemble, so the trace keeps the run's first one as it is.
    """
    data_qubits = {}
    ensemble = BranchEnsemble.vacuum(max_qubits)
    if state is not None:
        vec = np.asarray(state, dtype=complex)
        k = vec.size.bit_length() - 1
        if not 1 <= k <= n_parties:
            raise ValueError(f"state needs 2^k amplitudes for some k in 1..{n_parties}, got {vec.size}")
        data_qubits = {i: QubitId(i, f"q{i}") for i in range(1, k + 1)}
        ensemble = BranchEnsemble.from_vectors(data_qubits.values(), [(1.0, vec / np.linalg.norm(vec))], max_qubits)
    return ProtocolRun(n_parties, ensemble, ProtocolTrace(n_parties, ensemble), data_qubits)


def data_order(run: ProtocolRun) -> list[QubitId]:
    return [run.data_qubits[i] for i in range(1, run.n_parties + 1)]


def _consume_pair(run: ProtocolRun, a: int, b: int) -> tuple[QubitId, QubitId]:
    """Turn one held ebit into a live phi+ pair (first qubit at a, second at b)."""
    qa = QubitId(a, run.fresh_label())
    qb = QubitId(b, run.fresh_label())
    run.step(EbitConsume(pair_key(a, b), (qa, qb)))
    return qa, qb


def _local_gate(run: ProtocolRun, party: int, targets: Sequence[QubitId], matrix: np.ndarray) -> None:
    run.step(LocalGate(party, tuple(targets), matrix=matrix))


def _oracle(run: ProtocolRun, targets: Sequence[QubitId], p: Permutation) -> None:
    run.step(CollectiveOracle(tuple(sorted({q.party for q in targets})), tuple(targets), p))


def _bell_measure_local(
    run: ProtocolRun, party: int, pair: Sequence[QubitId], discard: bool = True
) -> tuple[int, dict[str, float]]:
    midx = run.ensemble.measurement_count
    return midx, run.step(LocalMeasure(party, tuple(pair), "bell", discard, midx, ()))


def _local_pair(run: ProtocolRun, party: int) -> tuple[QubitId, QubitId]:
    """Allocate qubits k<party> and m<party> at ``party`` and entangle them into phi+."""
    keep, move = QubitId(party, f"k{party}"), QubitId(party, f"m{party}")
    run.step(Allocate(party, (keep, move), "00"))
    _local_gate(run, party, (keep,), gates.HADAMARD)
    _local_gate(run, party, (keep, move), gates.cnot_unitary())
    return keep, move


def teleport(run: ProtocolRun, qubit: QubitId, to: int) -> QubitId:
    """Teleport one qubit to another party: 1 ebit plus 2 bits source->destination.

    The measured ancillas are discarded, corrections are applied per branch
    and the merged branches carry the logical qubit at ``to`` under its old
    label.  Refuses (ledger untouched) when no ebit is held for the pair.
    """
    source = qubit.party
    if to == source:
        raise ValueError("teleport destination must be a different party")
    anc_src, anc_dst = _consume_pair(run, source, to)
    midx, _ = _bell_measure_local(run, source, (qubit, anc_src), discard=True)
    run.step(ClassicalMessage(source, to, Fraction(2)))
    run.step(LocalGate(to, (anc_dst,), cases=tuple(sorted(gates.TELEPORT_CORRECTIONS.items())),
                       conditional_on=midx))
    new_id = QubitId(to, qubit.label)
    run.step(Relabel(anc_dst, new_id))
    run.step(Coalesce())
    for party, q in run.data_qubits.items():
        if q == qubit:
            run.data_qubits[party] = new_id
    return new_id


def _check_message(message: str) -> None:
    if message not in gates.BELL_ENCODERS:
        raise ValueError(f"message must be 2 bits, got {message!r}")


def _dense_decode(run: ProtocolRun, receiver: int, sender: int, pair: Sequence[QubitId]) -> str:
    """The receiving half of dense coding: Bell-measure ``pair`` at ``receiver``
    and record the deterministic outcome as 2 bits decoded from ``sender``."""
    _, dist = _bell_measure_local(run, receiver, pair, discard=True)
    decoded = max(dist, key=dist.get)
    if dist[decoded] < 1.0 - 1e-9:
        raise AssertionError(f"dense coding outcome at {receiver} not deterministic: {dist}")
    run.step(DecodedBits(receiver, sender, Fraction(2), decoded))
    return decoded


def superdense_send(run: ProtocolRun, sender: int, receiver: int, message: str) -> str:
    """Convey 2 classical bits by dense coding over one held ebit.

    The sender Pauli-encodes its half of a shared pair, physically conveys
    that qubit (a relocation event), and the receiver Bell-measures.
    """
    _check_message(message)
    q_send, q_recv = _consume_pair(run, sender, receiver)
    _local_gate(run, sender, (q_send,), gates.BELL_ENCODERS[message])
    run.step(Relocate(q_send, receiver))
    decoded = _dense_decode(run, receiver, sender, (QubitId(receiver, q_send.label), q_recv))
    run.step(Coalesce())
    return decoded


def _apply_collective(run: ProtocolRun, op: CollectiveOp, at: int, targets: Sequence[QubitId],
                      inform: Sequence[int]) -> None:
    """Apply the collective op locally at ``at``: a permutation as a one-party
    oracle (a rename), and recorded POVMs send their outcome entropy to every
    party in ``inform``, in the whole bits the ledger's cover allows."""
    if op.unitary is not None:
        _local_gate(run, at, targets, op.unitary)
        return
    if op.permutation is not None:
        _oracle(run, targets, op.permutation)
        return
    dist = run.step(LocalMeasure(at, tuple(targets), "povm", False, run.ensemble.measurement_count, (), op.povm))
    if op.record:
        run.ledger.add_supplementary(engine.shannon_entropy(dist))
        # the trace carries whole bits; the ledger keeps the exact entropy
        for other in inform:
            run.step(ClassicalMessage(at, other, Fraction(outcome_bits(dist.values())), supplementary=True))


def collective_op_star(run: ProtocolRun, op: CollectiveOp, hub: int = 1) -> None:
    """Perform an arbitrary N-qubit collective operation via a hub laboratory.

    Every spoke teleports its qubit to the hub, the op runs locally there,
    and the qubits are teleported back, consuming 2 ebits and 2 bits each
    way per spoke.  The hub defaults to party 1 but any party serves; at
    N = 2 this is the two-qubit protocol (2 ebits and 2 bits each way).
    """
    if not 1 <= hub <= run.n_parties:
        raise ValueError(f"hub {hub} out of range")
    spokes = [i for i in range(1, run.n_parties + 1) if i != hub]
    for i in spokes:
        if run.ledger.held(i, hub) < 2:
            raise InsufficientResources(
                f"spoke {i} needs 2 held ebits with hub {hub}, have {run.ledger.held(i, hub)}")
    for i in spokes:
        teleport(run, run.data_qubits[i], to=hub)
    targets = data_order(run)
    _apply_collective(run, op, at=hub, targets=targets, inform=spokes)
    for i in spokes:
        teleport(run, run.data_qubits[i], to=i)


# --------------------------------------------------------------------------
# permutation protocols (section-III style, N parties; SWAP is the case N = 2)


@dataclass
class PermutationEntangleResult:
    """A permutation-entangle run and the Bell pairs it left across the labs."""

    pair_qubits: list[tuple[QubitId, QubitId]]  # the physical Bell partners
    run: ProtocolRun


def permutation_entangle(p: Permutation,
                         max_qubits: int = engine.DEFAULT_MAX_QUBITS) -> PermutationEntangleResult:
    """Establish N shared ebits from N local pairs through one permutation oracle.

    Each lab holds a local phi+ pair; permuting the second qubits' states
    leaves lab i sharing one Bell state with lab P(i).  Requires a
    derangement, since fixed points would keep their pair local.
    """
    if not p.is_derangement:
        raise ValueError(f"permutation {p.mapping} has fixed points")
    n = p.n
    run = new_run(n, max_qubits=max_qubits)
    keeps: dict[int, QubitId] = {}
    moves: dict[int, QubitId] = {}
    for i in range(1, n + 1):
        keeps[i], moves[i] = _local_pair(run, i)
    targets = tuple(moves[i] for i in range(1, n + 1))
    _oracle(run, targets, p)
    pair_qubits = []
    for i in range(1, n + 1):
        j = p(i)
        run.step(EbitCreate(pair_key(i, j)))
        pair_qubits.append((keeps[i], moves[j]))
    return PermutationEntangleResult(pair_qubits, run)


@dataclass
class PermutationCommResult:
    """A permutation-communicate run, the message each receiver was sent and what it read out."""

    sent: dict[int, str]      # receiver -> message encoded for them
    decoded: dict[int, str]   # receiver -> message read out
    run: ProtocolRun


def permutation_communicate(p: Permutation, messages: Mapping[int, str],
                            max_qubits: int = engine.DEFAULT_MAX_QUBITS) -> PermutationCommResult:
    """Communicate 2N bits through one permutation oracle over N shared ebits.

    Lab P^-1(i) holds the manipulable half of a pair shared with lab i and
    dense-codes the message bound for i onto it; the permutation localizes
    every encoded half at its receiver, who Bell-measures.
    """
    if not p.is_derangement:
        raise ValueError(f"permutation {p.mapping} has fixed points")
    n = p.n
    if sorted(messages) != list(range(1, n + 1)):
        raise ValueError("need one 2-bit message per receiving party")
    for msg in messages.values():
        _check_message(msg)
    run = new_run(n, max_qubits=max_qubits)
    pinv = p.inverse()
    for i in range(1, n + 1):
        run.ledger.grant(i, pinv(i))
    firsts: dict[int, QubitId] = {}
    hollows: dict[int, QubitId] = {}   # hollow qubit resident at each lab
    for i in range(1, n + 1):
        sender = pinv(i)
        first, hollow = _consume_pair(run, i, sender)
        firsts[i] = first
        hollows[sender] = hollow
    for i in range(1, n + 1):
        sender = pinv(i)
        _local_gate(run, sender, (hollows[sender],), gates.BELL_ENCODERS[messages[i]])
    targets = tuple(hollows[j] for j in range(1, n + 1))
    _oracle(run, targets, p)
    # the oracle moved each encoded half into the hollow qubit resident at its receiver
    decoded = {i: _dense_decode(run, i, pinv(i), (firsts[i], hollows[i])) for i in range(1, n + 1)}
    return PermutationCommResult(dict(messages), decoded, run)
