import copy
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from ebitnet import cli, engine, gates, protocols
from ebitnet.engine import Povm
from ebitnet.gates import Permutation
from ebitnet.ledger import (
    ClassicalMessage,
    CollectiveOracle,
    DecodedBits,
    EbitConsume,
    EbitCreate,
    InsufficientResources,
    LocalGate,
    LocalMeasure,
    ProtocolTrace,
    Relabel,
    ResourceLedger,
    pair_key,
)

import oracles


def single_qubit_run(state, ebits=1):
    run = protocols.new_run(2, state)
    if ebits:
        run.ledger.grant(1, 2, ebits)
    return run, run.data_qubits[1]


def two_party_run(state=(1, 0, 0, 0), ebits=2):
    run = protocols.new_run(2, state)
    run.ledger.grant(1, 2, ebits)
    return run


def star_run(n, state, hub=1, ebits=2):
    run = protocols.new_run(n, state)
    for i in range(1, n + 1):
        if i != hub:
            run.ledger.grant(i, hub, ebits)
    return run


class TestTeleport:
    def test_random_state_fidelity(self):
        rng = np.random.default_rng(1)
        state = gates.random_state(2, rng)
        run, q1 = single_qubit_run(state)
        moved = protocols.teleport(run, q1, to=2)
        assert moved.party == 2
        assert engine.ensemble_fidelity(run.ensemble, [moved], state) >= 1 - 1e-10
        assert run.ledger.total(run.ledger.ebits_consumed) == 1
        assert run.ledger.bits_sent[(1, 2)] == 2

    def test_entanglement_follows_the_qubit(self):
        # party 1 holds both halves of a pair; teleport one half to party 2
        a, b = engine.QubitId(1, "h1"), engine.QubitId(1, "h2")
        ens = oracles.one_branch(oracles.bell_state("00"), (a, b))
        run = protocols.ProtocolRun(2, ens, ProtocolTrace(2, ens), {})
        run.ledger.grant(1, 2, 1)
        assert engine.entanglement_entropy(run.ensemble, {1}, universe={1, 2}) == pytest.approx(0.0)
        before = oracles.qubit_entropy(run.ensemble, a)
        moved = protocols.teleport(run, b, to=2)
        after = engine.entanglement_entropy(run.ensemble, {1}, universe={1, 2})
        assert after == pytest.approx(before, abs=1e-9)
        assert after == pytest.approx(1.0, abs=1e-9)
        assert moved == engine.QubitId(2, "h2")

    def test_without_ebits_refuses_and_leaves_ledger(self):
        rng = np.random.default_rng(2)
        run, q1 = single_qubit_run(gates.random_state(2, rng), ebits=0)
        with pytest.raises(InsufficientResources):
            protocols.teleport(run, q1, to=2)
        assert run.ledger.total(run.ledger.ebits_consumed) == 0
        assert run.ledger.total(run.ledger.bits_sent) == 0
        assert not run.trace.events


class TestSuperdense:
    @pytest.mark.parametrize("msg", ["00", "01", "10", "11"])
    def test_all_messages_decode(self, msg):
        run = protocols.new_run(2)
        run.ledger.grant(1, 2, 1)
        assert protocols.superdense_send(run, 1, 2, msg) == msg
        assert run.ledger.total(run.ledger.ebits_consumed) == 1

    def test_message_00_measures_phi_plus(self):
        run = protocols.new_run(2)
        run.ledger.grant(1, 2, 1)
        protocols.superdense_send(run, 1, 2, "00")
        (meas,) = [e for e in run.trace.events if isinstance(e, LocalMeasure)]
        assert dict(meas.distribution) == {"00": pytest.approx(1.0)}

    def test_two_sends_cost_two_ebits(self):
        run = protocols.new_run(2)
        run.ledger.grant(1, 2, 2)
        assert protocols.superdense_send(run, 1, 2, "10") == "10"
        assert protocols.superdense_send(run, 2, 1, "01") == "01"
        assert run.ledger.total(run.ledger.ebits_consumed) == 2
        assert run.ledger.total(run.ledger.bits_sent) == 0  # no classical channel used

    def test_insufficient_ebits(self):
        run = protocols.new_run(2)
        with pytest.raises(InsufficientResources):
            protocols.superdense_send(run, 1, 2, "00")


class TestCollectiveTwoQubit:
    """The hub protocol on two parties with hub 2: the two-qubit construction."""

    def test_swap_op_on_product_input(self):
        rng = np.random.default_rng(7)
        a = gates.random_state(2, rng)
        b = gates.random_state(2, rng)
        state = np.kron(b, a)  # party 1 = bit 0
        run = two_party_run(state)
        protocols.collective_op_star(run, protocols.CollectiveOp(unitary=oracles.swap_unitary()), hub=2)
        expected = np.kron(a, b)
        assert engine.ensemble_fidelity(run.ensemble, protocols.data_order(run), expected) >= 1 - 1e-10
        assert run.ledger.total(run.ledger.ebits_consumed) == 2
        assert run.ledger.bits_sent[(1, 2)] == 2
        assert run.ledger.bits_sent[(2, 1)] == 2

    def test_identity_costs_the_same(self):
        rng = np.random.default_rng(8)
        state = gates.random_state(4, rng)
        run = two_party_run(state)
        protocols.collective_op_star(run, protocols.CollectiveOp(unitary=np.eye(4)), hub=2)
        assert engine.ensemble_fidelity(run.ensemble, protocols.data_order(run), state) >= 1 - 1e-10
        assert run.ledger.total(run.ledger.ebits_consumed) == 2
        assert run.ledger.total(run.ledger.bits_sent) == 4

    def test_recorded_uniform_povm_supplementary(self):
        rng = np.random.default_rng(9)
        run = two_party_run(gates.random_state(4, rng))
        povm = Povm(tuple(np.eye(4) / 4 for _ in range(4)))
        protocols.collective_op_star(run, protocols.CollectiveOp(povm=povm, record=True), hub=2)
        assert run.ledger.supplementary_bits == pytest.approx(2.0, abs=1e-12)
        supp = [e for e in run.trace.events if isinstance(e, ClassicalMessage) and e.supplementary]
        assert len(supp) == 1
        assert supp[0].sender == 2 and supp[0].receiver == 1
        assert supp[0].bits == 2  # ceil(2.0) whole bits on the trace
        # the unrecorded bits stay at the teleportation figures
        assert run.ledger.bits_sent[(1, 2)] == 2 and run.ledger.bits_sent[(2, 1)] == 2

    def test_unrecorded_povm_adds_nothing(self):
        rng = np.random.default_rng(10)
        run = two_party_run(gates.random_state(4, rng))
        povm = Povm(tuple(np.eye(4) / 4 for _ in range(4)))
        protocols.collective_op_star(run, protocols.CollectiveOp(povm=povm, record=False), hub=2)
        assert run.ledger.supplementary_bits == 0.0

    def test_insufficient_resources(self):
        run = two_party_run(ebits=1)
        with pytest.raises(InsufficientResources, match="have 1$"):
            protocols.collective_op_star(run, protocols.CollectiveOp(unitary=np.eye(4)), hub=2)


class TestCollectiveStar:
    def test_n3_cyclic_permutation(self):
        rng = np.random.default_rng(11)
        state = gates.random_state(8, rng)
        run = star_run(3, state)
        u = oracles.permutation_unitary(Permutation.cyclic_shift(3))
        protocols.collective_op_star(run, protocols.CollectiveOp(unitary=u))
        assert engine.ensemble_fidelity(run.ensemble, protocols.data_order(run), u @ state) >= 1 - 1e-9
        assert run.ledger.total(run.ledger.ebits_consumed) == 4
        assert run.ledger.total(run.ledger.bits_sent) == 8

    def test_n2_ledger_is_the_same_at_either_hub(self):
        rng = np.random.default_rng(12)
        state = gates.random_state(4, rng)
        run_hub1 = star_run(2, state)
        run_hub2 = star_run(2, state, hub=2)
        op = protocols.CollectiveOp(unitary=oracles.swap_unitary())
        protocols.collective_op_star(run_hub1, op)
        protocols.collective_op_star(run_hub2, op, hub=2)
        assert run_hub1.ledger.summary() == run_hub2.ledger.summary()

    def test_povm_bits_follow_the_target_order_at_every_hub(self):
        """POVM element bit j is data qubit j+1 at every hub, as it is for a gate,
        though the teleports leave the hub's registry out of data order."""
        state = np.zeros(8)
        state[1] = 1.0  # q1 = 1, q2 = q3 = 0
        povm = Povm(tuple(np.diag(row) for row in np.eye(8)))
        for hub in (1, 2, 3):
            run = star_run(3, state, hub=hub)
            protocols.collective_op_star(run, protocols.CollectiveOp(povm=povm), hub=hub)
            [measure] = [ev for ev in run.trace.events if isinstance(ev, LocalMeasure) and ev.povm is not None]
            dist = dict(measure.distribution)
            assert max(dist, key=dist.get) == "1" and dist["1"] == pytest.approx(1.0, abs=1e-9), hub

    def test_n4_ps_matches_star_pattern(self):
        from ebitnet import graphs

        rng = np.random.default_rng(13)
        state = gates.random_state(16, rng)
        run = star_run(4, state)
        protocols.collective_op_star(run, protocols.CollectiveOp(unitary=oracles.ps_unitary(4)))
        ent, comm = graphs.star_graphs(4, hub=1)
        assert graphs.EntanglementGraph.from_book(4, run.ledger.ebits_consumed, run.ledger.den) == ent
        assert graphs.CommunicationGraph.from_book(4, run.ledger.bits_sent, run.ledger.den) == comm
        assert run.ledger.total(run.ledger.ebits_consumed) == 6
        assert run.ledger.total(run.ledger.bits_sent) == 12

    @pytest.mark.parametrize("p", [gates.ps_permutation(2), gates.ps_permutation(4), gates.ps_permutation(6),
                                   gates.ps_cp_permutation(3), gates.ps_cp_permutation(5)],
                             ids=lambda p: f"{'ps' if p.n % 2 == 0 else 'ps-cp'}-n{p.n}")
    def test_permutation_rename_matches_its_dense_unitary(self, p):
        from ebitnet import audit, graphs

        n = p.n
        state = gates.random_state(1 << n, np.random.default_rng(15))
        renamed, dense_run = star_run(n, state), star_run(n, state)
        protocols.collective_op_star(renamed, protocols.CollectiveOp(permutation=p))
        u = oracles.permutation_unitary(p)
        protocols.collective_op_star(dense_run, protocols.CollectiveOp(unitary=u))
        assert renamed.ledger.summary() == dense_run.ledger.summary()
        # slot p(i) holds what slot i held
        order = [renamed.data_qubits[p(i)] for i in range(1, n + 1)]
        assert engine.ensemble_fidelity(renamed.ensemble, order, state) >= 1 - 1e-12
        assert engine.ensemble_fidelity(dense_run.ensemble, protocols.data_order(dense_run), u @ state) >= 1 - 1e-12
        [oracle] = [e for e in renamed.trace.events if isinstance(e, CollectiveOracle)]
        assert oracle.parties == (1,) and oracle.permutation == p
        ent, comm = graphs.star_graphs(n, hub=1)
        bundle = graphs.GraphBundle(n, ent, comm)
        reports = [audit.audit_trace(r.trace, bundle) for r in (renamed, dense_run)]
        assert reports[0].replayed and reports[0].ok
        assert reports[0] == reports[1]

    def test_permutation_direction_is_pinned(self):
        # read in the order of the inverse, the 3-cycle's output is not the input
        p = gates.ps_cp_permutation(3)
        state = gates.random_state(8, np.random.default_rng(16))
        run = star_run(3, state)
        protocols.collective_op_star(run, protocols.CollectiveOp(permutation=p))
        backwards = [run.data_qubits[p.inverse()(i)] for i in range(1, 4)]
        assert engine.ensemble_fidelity(run.ensemble, backwards, state) < 0.5

    def test_op_is_exactly_one_of_unitary_permutation_or_povm(self):
        povm = Povm(tuple(np.eye(4) / 4 for _ in range(4)))
        p = oracles.two_cycle()
        for kwargs in ({}, {"unitary": np.eye(4), "permutation": p}, {"povm": povm, "permutation": p},
                       {"unitary": np.eye(4), "povm": povm}):
            with pytest.raises(ValueError, match="exactly one of unitary, permutation or povm"):
                protocols.CollectiveOp(**kwargs)

    @pytest.mark.parametrize("kwargs", [{"unitary": np.eye(4)}, {"permutation": oracles.two_cycle()}],
                             ids=["unitary", "permutation"])
    def test_only_a_povm_can_be_recorded(self, kwargs):
        with pytest.raises(ValueError, match="only a POVM outcome can be recorded"):
            protocols.CollectiveOp(record=True, **kwargs)
        assert not protocols.CollectiveOp(**kwargs).record

    def test_alternative_hub(self):
        from ebitnet import graphs

        rng = np.random.default_rng(14)
        state = gates.random_state(8, rng)
        u = gates.haar_unitary(8, rng)
        run = star_run(3, state, hub=2)
        protocols.collective_op_star(run, protocols.CollectiveOp(unitary=u), hub=2)
        assert engine.ensemble_fidelity(run.ensemble, protocols.data_order(run), u @ state) >= 1 - 1e-9
        ent, _ = graphs.star_graphs(3, hub=2)
        assert graphs.EntanglementGraph.from_book(3, run.ledger.ebits_consumed, run.ledger.den) == ent

    def test_local_dressing_does_not_change_costs(self):
        rng = np.random.default_rng(15)
        state = gates.random_state(8, rng)
        u = oracles.permutation_unitary(Permutation.cyclic_shift(3))
        pre = [gates.haar_unitary(2, rng) for _ in range(3)]
        post = [gates.haar_unitary(2, rng) for _ in range(3)]
        dressed = oracles.dress_with_locals(u, pre, post)
        run_plain = star_run(3, state)
        run_dressed = star_run(3, state)
        protocols.collective_op_star(run_plain, protocols.CollectiveOp(unitary=u))
        protocols.collective_op_star(run_dressed, protocols.CollectiveOp(unitary=dressed))
        assert run_plain.ledger.summary() == run_dressed.ledger.summary()


class TestSwapDemos:
    def test_all_sixteen_message_pairs(self):
        msgs = ["00", "01", "10", "11"]
        for ma, mb in itertools.product(msgs, msgs):
            result = protocols.permutation_communicate(oracles.two_cycle(), {2: ma, 1: mb})
            assert (result.decoded[2], result.decoded[1]) == (ma, mb)
            assert result.run.ledger.total(result.run.ledger.ebits_consumed) == 2
            assert result.run.ledger.total(result.run.ledger.bits_sent) == 0

    def test_entangle_demo_two_ebits(self):
        result = protocols.permutation_entangle(oracles.two_cycle())
        assert engine.entanglement_entropy(result.run.ensemble, {1}) == pytest.approx(2.0, abs=1e-9)
        assert result.run.ledger.total(result.run.ledger.ebits_created) == 2

    def test_without_swap_no_entanglement(self):
        # build the same two local pairs but skip the oracle
        ens = engine.BranchEnsemble.vacuum()
        for party in (1, 2):
            ens, (k, m) = oracles.allocate(ens, party, f"k{party}", f"m{party}")
            ens = engine.apply_gate(ens, engine.Gate((k,), gates.HADAMARD))
            ens = engine.apply_gate(ens, engine.Gate((k, m), gates.cnot_unitary()))
        assert engine.entanglement_entropy(ens, {1}) == pytest.approx(0.0, abs=1e-9)

    def test_single_pair_half_size_run(self):
        # one local pair at party 1, a fresh qubit at party 2, one swap: 1 ebit
        ens = engine.BranchEnsemble.vacuum()
        ens, (k, m) = oracles.allocate(ens, 1, "k", "m")
        ens = engine.apply_gate(ens, engine.Gate((k,), gates.HADAMARD))
        ens = engine.apply_gate(ens, engine.Gate((k, m), gates.cnot_unitary()))
        ens, (b,) = oracles.allocate(ens, 2, "b")
        ens = engine.apply_gate(ens, engine.Gate((m, b), oracles.swap_unitary()))
        assert engine.entanglement_entropy(ens, {1}) == pytest.approx(1.0, abs=1e-9)


class TestPermutationEntangle:
    def test_n6_cycle_creates_six(self):
        result = protocols.permutation_entangle(Permutation.cyclic_shift(6))
        ledger = result.run.ledger
        assert ledger.total(ledger.ebits_created) == 6
        assert ledger.ebits_created == {pair_key(i, i % 6 + 1): 1 for i in range(1, 7)} and ledger.den == 1

    def test_n2_swap_creates_two(self):
        result = protocols.permutation_entangle(oracles.two_cycle())
        assert result.run.ledger.ebits_created == {(1, 2): 2}
        assert engine.entanglement_entropy(result.run.ensemble, {1}) == pytest.approx(2.0, abs=1e-9)

    def test_n4_double_transposition(self):
        result = protocols.permutation_entangle(Permutation((2, 1, 4, 3)))
        assert result.run.ledger.ebits_created == {(1, 2): 2, (3, 4): 2}
        for a, b in result.pair_qubits:
            rho = engine.reduced_density(result.run.ensemble, [a, b])
            phi = oracles.bell_state("00")
            assert float(np.real(phi.conj() @ rho @ phi)) == pytest.approx(1.0, abs=1e-9)

    def test_every_lab_cut_carries_two_ebits(self):
        result = protocols.permutation_entangle(Permutation.cyclic_shift(4))
        for i in range(1, 5):
            ent = engine.entanglement_entropy(result.run.ensemble, {i})
            assert ent == pytest.approx(2.0, abs=1e-9)

    def test_fixed_points_rejected(self):
        with pytest.raises(ValueError, match="fixed point"):
            protocols.permutation_entangle(Permutation((1, 3, 2)))


class TestPermutationCommunicate:
    def test_n6_cycle_random_messages(self):
        rng = np.random.default_rng(19)
        msgs = {i: f"{rng.integers(0, 2)}{rng.integers(0, 2)}" for i in range(1, 7)}
        result = protocols.permutation_communicate(Permutation.cyclic_shift(6), msgs)
        assert result.decoded == msgs
        assert result.run.ledger.total(result.run.ledger.ebits_consumed) == 6

    def test_all_zero_messages_measure_phi_plus(self):
        msgs = {i: "00" for i in range(1, 4)}
        result = protocols.permutation_communicate(Permutation.cyclic_shift(3), msgs)
        for ev in result.run.trace.events:
            if isinstance(ev, LocalMeasure):
                assert dict(ev.distribution) == {"00": pytest.approx(1.0)}

    def test_n3_exhaustive(self):
        labels = ["00", "01", "10", "11"]
        p = Permutation.cyclic_shift(3)
        for combo in itertools.product(labels, repeat=3):
            msgs = {i + 1: combo[i] for i in range(3)}
            result = protocols.permutation_communicate(p, msgs)
            assert result.decoded == msgs

    def test_fixed_points_rejected(self):
        with pytest.raises(ValueError, match="fixed point"):
            protocols.permutation_communicate(Permutation((1, 3, 2)), {1: "00", 2: "00", 3: "00"})


class TestDerangementMaximality:
    """Every derangement, not just cycles, hits the n-ebit / 2n-bit caps."""

    @staticmethod
    def all_derangements(n):
        return [Permutation(p) for p in itertools.permutations(range(1, n + 1))
                if all(p[i - 1] != i for i in range(1, n + 1))]

    def test_all_derangements_up_to_five(self):
        rng = np.random.default_rng(77)
        for n in (2, 3, 4, 5):
            for p in self.all_derangements(n):
                ent = protocols.permutation_entangle(p)
                assert ent.run.ledger.total(ent.run.ledger.ebits_created) == n
                msgs = {i: f"{rng.integers(0, 2)}{rng.integers(0, 2)}" for i in range(1, n + 1)}
                comm = protocols.permutation_communicate(p, msgs)
                assert comm.decoded == msgs

    def test_sampled_derangements_n6(self):
        rng = np.random.default_rng(78)
        pool = self.all_derangements(6)
        for idx in rng.choice(len(pool), size=5, replace=False):
            p = pool[idx]
            ledger = protocols.permutation_entangle(p).run.ledger
            assert ledger.total(ledger.ebits_created) == 6
            msgs = {i: f"{rng.integers(0, 2)}{rng.integers(0, 2)}" for i in range(1, 7)}
            assert protocols.permutation_communicate(p, msgs).decoded == msgs


class TestSupplementaryInformation:
    def test_uniform_povm_log2m(self):
        rng = np.random.default_rng(20)
        ens = oracles.one_branch(gates.random_state(4, rng))
        ids = ens.registry
        for m in (2, 4, 8):
            povm = Povm(tuple(np.eye(4) / m for _ in range(m)))
            assert oracles.supplementary_information(povm, ens, ids) == pytest.approx(math.log2(m))

    def test_projective_on_eigenstate_zero(self):
        ens, (a,) = oracles.allocate(engine.BranchEnsemble.vacuum(), 1, "x0", init="1")
        povm = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        assert oracles.supplementary_information(povm, ens, (a,)) == pytest.approx(0.0)

    def test_two_outcome_uniform_one_bit(self):
        ens, (a,) = oracles.allocate(engine.BranchEnsemble.vacuum(), 1, "x0")
        povm = Povm((np.eye(2) / 2, np.eye(2) / 2))
        assert oracles.supplementary_information(povm, ens, (a,)) == pytest.approx(1.0)


class TestLedgerInvariants:
    def test_consumption_matches_instantiated_pairs(self):
        from ebitnet.ledger import EbitConsume

        rng = np.random.default_rng(21)
        run = star_run(4, gates.random_state(16, rng))
        protocols.collective_op_star(run, protocols.CollectiveOp(unitary=gates.haar_unitary(16, rng)))
        consumes = [e for e in run.trace.events if isinstance(e, EbitConsume)]
        assert Fraction(len(consumes)) == run.ledger.total(run.ledger.ebits_consumed)

    def test_held_never_negative(self):
        run = two_party_run(ebits=2)
        protocols.collective_op_star(run, protocols.CollectiveOp(unitary=np.eye(4)), hub=2)
        assert all(Fraction(v) >= 0 for v in run.ledger.summary()["ebits_held"].values())
        with pytest.raises(InsufficientResources):
            run.step(EbitConsume((1, 2), (engine.QubitId(1, "x"), engine.QubitId(2, "y"))))

    def test_every_message_event_has_a_ledger_increment(self):
        rng = np.random.default_rng(22)
        run = star_run(3, gates.random_state(8, rng))
        protocols.collective_op_star(run, protocols.CollectiveOp(unitary=gates.haar_unitary(8, rng)))
        per_direction = {}
        for e in run.trace.events:
            if isinstance(e, ClassicalMessage) and not e.supplementary:
                per_direction[(e.sender, e.receiver)] = per_direction.get((e.sender, e.receiver), 0) + e.bits
        assert per_direction == run.ledger.bits_sent
        traced = sum(
            (e.bits for e in run.trace.events
             if isinstance(e, ClassicalMessage) and not e.supplementary),
            Fraction(0),
        )
        assert traced == run.ledger.total(run.ledger.bits_sent)


# the --n each protocol is simulated at; the others take no --n
BOOK_N = {"star-op": 3, "perm-entangle": 3, "perm-comm": 3, "ps": 4, "ps-cp": 3}


class TestResourceBook:
    def test_consume_beyond_the_grant_is_booked_and_goes_negative(self):
        ledger = ResourceLedger()
        ledger.grant(1, 2, 1)
        consume = EbitConsume((1, 2), (engine.QubitId(1, "x"), engine.QubitId(2, "y")))
        consume.book(ledger)
        consume.book(ledger)
        assert ledger.held(1, 2) == -1
        assert ledger.ebits_consumed == {(1, 2): 2}
        assert ledger.summary()["ebits_held"] == {"1-2": "-1"}

    def test_decoded_bits_are_booked_from_sender_to_receiver(self):
        ledger = ResourceLedger()
        DecodedBits(at_party=2, from_party=3, bits=Fraction(2)).book(ledger)
        DecodedBits(at_party=2, from_party=3, bits=Fraction(1, 2)).book(ledger)
        assert (ledger.bits_decoded, ledger.den) == ({(3, 2): 5}, 2)
        assert ledger.bits_sent == {}

    def test_an_amount_over_a_new_denominator_rescales_every_book(self):
        """Amounts of 1/2, then 7/3, then a grant of 5/4 after a consume take the
        books from den 1 to 2, 6 and 12.  Every book was written before one of
        those rescales, and each reads as the plain Fraction sums: a supplementary
        message of 1/2 draws half of a 1-bit POVM cover, and one of 1 bit draws the
        other half and is charged the bits beyond it."""
        ledger = ResourceLedger()
        outcomes = (("0", 0.5), ("1", 0.5))
        qubit = engine.QubitId(1, "m")
        LocalMeasure(1, (qubit,), "povm", False, 0, outcomes, Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
                     ).book(ledger)
        ledger.grant(1, 3, 2)
        EbitCreate((3, 1)).book(ledger)
        ClassicalMessage(1, 2, Fraction(1, 2), supplementary=True).book(ledger)
        ClassicalMessage(1, 2, Fraction(1, 2)).book(ledger)
        DecodedBits(at_party=2, from_party=1, bits=Fraction(7, 3)).book(ledger)
        EbitConsume((1, 2), (engine.QubitId(1, "x"), engine.QubitId(2, "y"))).book(ledger)
        ledger.grant(2, 1, Fraction(5, 4))
        ClassicalMessage(1, 2, Fraction(1), supplementary=True).book(ledger)

        # the ordinary 1/2, and the supplementary 1/2 + 1 beyond the cover of 1
        sent = Fraction(1, 2) + (Fraction(1, 2) + Fraction(1) - Fraction(1))
        assert ledger.den == 12
        assert (ledger.held(1, 2), ledger.held(1, 3)) == (Fraction(5, 4) - Fraction(1), Fraction(2))
        assert [ledger.total(book) for book in (ledger.granted, ledger.ebits_consumed, ledger.ebits_created,
                                                 ledger.bits_sent, ledger.bits_decoded)] == [
            Fraction(2) + Fraction(5, 4), Fraction(1), Fraction(1), sent, Fraction(7, 3)]
        assert (ledger.outcome_cover, ledger.cover_used) == ({1: 12}, {(1, 2): 12})
        assert ledger.summary() == {
            "ebits_held": {"1-2": str(Fraction(5, 4) - 1), "1-3": "2"},
            "ebits_consumed": {"1-2": "1"},
            "ebits_created": {"1-3": "1"},
            "bits_sent": {"1>2": str(sent)},
            "supplementary_bits": 0.0,
        }
        books = [value for value in vars(ledger).values() if isinstance(value, dict)]
        assert len(books) == 7
        assert all(type(num) is int for book in books for num in book.values())

    def test_an_amount_whose_denominator_divides_den_leaves_the_books_unscaled(self):
        ledger = ResourceLedger()
        ledger.grant(1, 2, Fraction(1, 6))
        for amount in (Fraction(1, 3), Fraction(1, 2), 2):
            ledger.grant(2, 1, amount)
        assert (ledger.den, ledger.granted) == (6, {(1, 2): 1 + 2 + 3 + 12})
        assert ledger.held(1, 2) == Fraction(1, 6) + Fraction(1, 3) + Fraction(1, 2) + 2

    @pytest.mark.parametrize("amount", [-1, Fraction(-1, 3)])
    def test_a_negative_amount_is_refused_before_any_rescale(self, amount):
        ledger = ResourceLedger()
        ledger.grant(1, 2, 1)
        with pytest.raises(ValueError, match=f"^ledger amounts only grow, got {amount}$"):
            ledger.grant(1, 2, amount)
        assert (ledger.den, ledger.granted) == (1, {(1, 2): 1})

    def test_a_ledger_seeded_from_a_graph_holds_its_weights(self):
        """The audit's seed: a ledger over a graph's den and book holds each
        pair's weight, totals the graph's total and rescales on from there."""
        from ebitnet import graphs

        ent = graphs.EntanglementGraph(3, [[0, 3, 4], [3, 0, 0], [4, 0, 0]], 6)
        ledger = ResourceLedger(den=ent.den, granted=ent.book())
        assert ledger.den == 6
        assert [ledger.held(a, b) for a, b in ent.pairs()] == [ent.weight(a, b) for a, b in ent.pairs()]
        assert ledger.total(ledger.granted) == ent.total()
        ledger.grant(2, 3, Fraction(1, 4))
        assert ledger.den == 12
        assert graphs.EntanglementGraph.from_book(3, ledger.granted, ledger.den) == graphs.EntanglementGraph(
            3, [[0, 6, 8], [6, 0, 3], [8, 3, 0]], 12)

    def test_the_total_of_an_empty_book_is_zero(self):
        ledger = ResourceLedger(den=6)
        assert (ledger.total(ledger.bits_sent), ledger.summary()["ebits_held"]) == (Fraction(0), {})

    @pytest.mark.parametrize("ebits", [0, 1])
    def test_step_refuses_a_consume_without_a_held_ebit(self, ebits):
        rng = np.random.default_rng(23)
        run, q1 = single_qubit_run(gates.random_state(2, rng), ebits=ebits)
        if ebits:
            protocols.teleport(run, q1, to=2)
        ensemble, events, books = run.ensemble, list(run.trace.events), copy.deepcopy(run.ledger)
        with pytest.raises(InsufficientResources, match=r"^pair \(1, 2\) holds 0 ebits, needs 1$"):
            run.step(EbitConsume((2, 1), (engine.QubitId(2, "x"), engine.QubitId(1, "y"))))
        assert run.ensemble is ensemble
        assert run.trace.events == events
        assert run.ledger == books

    @pytest.mark.parametrize("form", ["matrix", "cases"])
    def test_step_refuses_a_non_unitary_gate(self, form):
        rng = np.random.default_rng(23)
        run, q1 = single_qubit_run(gates.random_state(2, rng))
        bad = np.diag([1, 2]).astype(complex)
        ensemble, events, books = run.ensemble, list(run.trace.events), copy.deepcopy(run.ledger)
        with pytest.raises(ValueError, match=r"^matrix is not unitary \(deviation 3\.000e\+00\)$"):
            run.step(LocalGate(1, (q1,), matrix=bad) if form == "matrix"
                     else LocalGate(1, (q1,), cases=(("0", gates.ID2), ("1", bad)), conditional_on=0))
        assert run.ensemble is ensemble
        assert run.trace.events == events
        assert run.ledger == books

    @pytest.mark.parametrize("event", ["gate-matrix", "gate-cases", "measure", "relabel"])
    def test_step_refuses_a_nonlocal_event(self, event):
        """An event that reaches past the party it is declared local to, which would
        apply, is refused with the audit's locality text, before it changes anything."""
        run = protocols.new_run(2, gates.random_state(4, np.random.default_rng(23)))
        q1, q2 = run.data_qubits[1], run.data_qubits[2]
        run.step(LocalMeasure(1, (q1,), "computational", False, 0, ()))
        ensemble, events, books = run.ensemble, list(run.trace.events), copy.deepcopy(run.ledger)
        declared = "event declared local to party 1 targets [2:q2]"
        nonlocal_event, refusal = {
            "gate-matrix": (LocalGate(1, (q1, q2), matrix=gates.cnot_unitary()), declared),
            "gate-cases": (LocalGate(1, (q2,), cases=(("0", gates.ID2), ("1", gates.PAULI_X)), conditional_on=0),
                           declared),
            "measure": (LocalMeasure(1, (q2,), "computational", False, 1, ()), declared),
            "relabel": (Relabel(q1, engine.QubitId(2, "moved")),
                        "relabel moves 1:q1 to party 2; qubit conveyance must be a relocate event"),
        }[event]
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            run.step(nonlocal_event)
        assert run.ensemble is ensemble
        assert run.trace.events == events
        assert run.ledger == books

    def test_step_that_fails_to_apply_books_nothing(self):
        rng = np.random.default_rng(23)
        run, q1 = single_qubit_run(gates.random_state(2, rng))
        ensemble, events, books = run.ensemble, list(run.trace.events), copy.deepcopy(run.ledger)
        with pytest.raises(ValueError, match="^qubit 1:q1 is already in the registry$"):
            run.step(EbitConsume((1, 2), (q1, engine.QubitId(2, "y"))))
        with pytest.raises(ValueError, match="^branch has no outcome recorded for measurement 0$"):
            run.step(LocalGate(1, (q1,), cases=(("0", gates.ID2),), conditional_on=0))
        assert run.ensemble is ensemble
        assert run.trace.events == events
        assert run.ledger == books

    @pytest.mark.parametrize("protocol", cli.PROTOCOLS)
    def test_booking_the_trace_reproduces_the_run_ledger(self, protocol):
        run, _ = cli._simulate(protocol, BOOK_N.get(protocol, 3), np.random.default_rng(7), 1,
                               engine.DEFAULT_MAX_QUBITS)
        books = ResourceLedger(granted=dict(run.ledger.granted))
        for event in run.trace.events:
            event.book(books)
        assert books.summary() == run.ledger.summary()
        assert books == run.ledger
