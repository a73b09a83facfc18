import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebitnet import audit, engine, gates, graphs, protocols
from ebitnet.engine import QubitId
from ebitnet.gates import Permutation
from ebitnet.ledger import (
    ClassicalMessage,
    CollectiveOracle,
    DecodedBits,
    EbitConsume,
    EbitCreate,
    ProtocolTrace,
    Relocate,
    dump_trace,
    load_trace,
)


def star_bundle(run):
    n = run.n_parties
    return graphs.GraphBundle(
        n,
        graphs.EntanglementGraph(n, tuple(tuple(r) for r in run.ledger.granted_matrix(n))),
        graphs.CommunicationGraph(n, tuple(tuple(r) for r in run.ledger.bits_matrix(n))),
    )


def run_star(n=3, seed=0):
    rng = np.random.default_rng(seed)
    run = protocols.new_run(n)
    state = gates.random_state(1 << n, rng)
    u = gates.haar_unitary(1 << n, rng)
    protocols.add_data_qubits(run, state)
    for i in range(2, n + 1):
        run.ledger.grant(i, 1, 2)
    run.snapshot_initial()
    protocols.collective_op_star(run, protocols.CollectiveOp(unitary=u))
    return run


class TestTraceSerialization:
    def test_round_trip_preserves_events(self):
        run = run_star()
        text = dump_trace(run.trace)
        back = load_trace(text)
        assert len(back.events) == len(run.trace.events)
        assert dump_trace(back) == text

    def test_header_restores_initial_state(self):
        run = run_star()
        back = load_trace(dump_trace(run.trace))
        assert back.initial.registry == run.trace.initial.registry
        for a, b in zip(back.initial.branches, run.trace.initial.branches):
            assert np.allclose(a.amplitudes, b.amplitudes)

    def test_malformed_lines_are_position_tagged(self):
        with pytest.raises(ValueError, match="line 1"):
            load_trace("not json\n")
        good = dump_trace(run_star().trace).splitlines()
        with pytest.raises(ValueError, match="line 3"):
            load_trace("\n".join(good[:2] + ["{\"kind\": \"wat\"}"]))

    def test_header_required(self):
        with pytest.raises(ValueError, match="header"):
            load_trace('{"kind": "coalesce"}\n')


class TestAuditCleanRuns:
    def test_star_run_is_clean(self):
        run = run_star()
        report = audit.audit_trace(run.trace, star_bundle(run))
        assert report.ok
        assert report.replayed

    def test_swap_comm_consistent_without_channel_bits(self):
        result = protocols.swap_communicate_demo("01", "10")
        run = result.run
        report = audit.audit_trace(run.trace, star_bundle(run))
        assert report.ok  # SWAP is the oracle under study, not an LQCC step

    def test_swap_entangle_consistent(self):
        result = protocols.swap_entangle_demo()
        report = audit.audit_trace(result.run.trace, star_bundle(result.run))
        assert report.ok

    def test_permutation_protocols_clean(self):
        pe = protocols.permutation_entangle(Permutation.cyclic_shift(4))
        assert audit.audit_trace(pe.run.trace, star_bundle(pe.run)).ok
        msgs = {1: "01", 2: "10", 3: "11"}
        pc = protocols.permutation_communicate(Permutation.cyclic_shift(3), msgs)
        assert audit.audit_trace(pc.run.trace, star_bundle(pc.run)).ok

    def test_superdense_within_dense_coding_allowance(self):
        run = protocols.new_run(2)
        run.ledger.grant(1, 2, 1)
        run.snapshot_initial()
        protocols.superdense_send(run, 1, 2, "11")
        assert audit.audit_trace(run.trace, star_bundle(run)).ok

    def test_recorded_povm_run_is_clean(self):
        # supplementary messages ride outside the channel-capacity budget
        rng = np.random.default_rng(60)
        run = protocols.new_run(2)
        protocols.add_data_qubits(run, gates.random_state(4, rng))
        run.ledger.grant(1, 2, 2)
        run.snapshot_initial()
        povm = engine.Povm(tuple(np.eye(4) / 4 for _ in range(4)))
        protocols.collective_op_two_qubit(run, protocols.CollectiveOp(povm=povm, record=True))
        report = audit.audit_trace(run.trace, star_bundle(run))
        assert report.ok
        assert report.replayed


def forged_trace(events, n=3):
    lines = [json.dumps({"kind": "header", "format": "ebitnet-trace/1", "n_parties": n})]
    lines += [json.dumps(e) for e in events]
    return load_trace("\n".join(lines) + "\n")


IDENTITY_2 = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
IDENTITY_4 = [[[1, 0], [0, 0], [0, 0], [0, 0]],
              [[0, 0], [1, 0], [0, 0], [0, 0]],
              [[0, 0], [0, 0], [1, 0], [0, 0]],
              [[0, 0], [0, 0], [0, 0], [1, 0]]]
NO_EBITS_2 = '{"n": 2, "entanglement": [["0","0"],["0","0"]]}'
# name -> (events, party count, graph file); each audited without replay
FORGED = {
    # claims 3 ebits created between 1 and 2 after consuming 2 held
    # between 2 and 3: nothing backs creation across the {1}-cut
    "creation-without-resources": ([
        {"kind": "ebit_consume", "pair": [2, 3], "qubits": [[2, "x"], [3, "y"]]},
        {"kind": "ebit_consume", "pair": [2, 3], "qubits": [[2, "v"], [3, "w"]]},
        {"kind": "ebit_create", "pair": [1, 2]},
        {"kind": "ebit_create", "pair": [1, 2]},
        {"kind": "ebit_create", "pair": [1, 2]},
    ], 3, '{"n": 3, "entanglement": [["0","0","0"],["0","0","2"],["0","2","0"]]}'),
    "overconsumption": ([
        {"kind": "ebit_consume", "pair": [1, 2], "qubits": [[1, "x"], [2, "y"]]},
    ], 2, NO_EBITS_2),
    "decode-without-resources": ([
        {"kind": "decoded", "at": 2, "from": 1, "bits": "3"},
    ], 2, NO_EBITS_2),
    "channel-capacity": ([
        {"kind": "message", "from": 1, "to": 2, "bits": "5"},
    ], 2, '{"n": 2, "communication": [["0","2"],["0","0"]]}'),
    # a two-party gate smuggled in as a local event
    "nonlocal-gate": ([
        {"kind": "ebit_consume", "pair": [1, 2], "qubits": [[1, "x"], [2, "y"]]},
        {"kind": "local_gate", "party": 1, "targets": [[1, "x"], [2, "y"]], "matrix": IDENTITY_4},
    ], 2, '{"n": 2, "entanglement": [["0","1"],["1","0"]]}'),
    # relabeling a qubit onto another party is conveyance in disguise
    "cross-party-relabel": ([
        {"kind": "allocate", "party": 1, "qubits": [[1, "x"]], "init": "0"},
        {"kind": "relabel", "old": [1, "x"], "new": [2, "x"]},
    ], 2, NO_EBITS_2),
    # every static check fails somewhere, some cuts are exempt: pins the report order
    "mixed": ([
        {"kind": "ebit_consume", "pair": [2, 1], "qubits": [[2, "a"], [1, "b"]]},
        {"kind": "ebit_consume", "pair": [1, 2], "qubits": [[1, "c"], [2, "d"]]},
        {"kind": "local_gate", "party": 3, "targets": [[4, "z"]], "matrix": IDENTITY_2},
        {"kind": "message", "from": 3, "to": 1, "bits": "1"},
        {"kind": "message", "from": 1, "to": 3, "bits": "3"},
        {"kind": "message", "from": 2, "to": 4, "bits": "1/2"},
        {"kind": "ebit_create", "pair": [4, 3]},
        {"kind": "ebit_create", "pair": [3, 4]},
        {"kind": "ebit_create", "pair": [4, 3]},
        {"kind": "ebit_create", "pair": [3, 4]},
        {"kind": "ebit_create", "pair": [1, 4]},
        {"kind": "decoded", "at": 4, "from": 1, "bits": "5"},
        {"kind": "decoded", "at": 1, "from": 3, "bits": "2"},
        {"kind": "oracle", "label": "U", "parties": [2, 3], "targets": [[2, "o"], [3, "p"]],
         "matrix": IDENTITY_4},
        {"kind": "relocate", "qubit": [1, "r"], "to": 4},
        {"kind": "relocate", "qubit": [2, "s"], "to": 2},
        {"kind": "relabel", "old": [4, "z"], "new": [3, "z"]},
    ], 4, '{"n": 4, "entanglement": [["0","1","0","0"],["1","0","0","0"],["0","0","0","1/2"],'
          '["0","0","1/2","0"]], "communication": [["0","0","2","0"],["0","0","0","1"],'
          '["0","0","0","0"],["0","0","0","0"]]}'),
}


def audit_forged(name):
    events, n, graph_file = FORGED[name]
    return audit.audit_trace(forged_trace(events, n), graphs.import_json(graph_file), replay=False)


def tamper_first_bell_distribution(trace, shift):
    """The trace, reloaded, with ``shift(distribution)`` recorded at its first Bell measurement."""
    out = []
    for line in dump_trace(trace).splitlines():
        rec = json.loads(line)
        if rec.get("kind") == "local_measure" and rec["basis"] == "bell" and shift is not None:
            rec["distribution"] = shift(rec["distribution"])
            line, shift = json.dumps(rec), None
        out.append(line)
    return load_trace("\n".join(out) + "\n")


class TestAuditViolations:
    def test_creation_without_resources_flagged(self):
        report = audit_forged("creation-without-resources")
        assert not report.ok
        assert any(v.check == "cut-entanglement" for v in report.violations)

    def test_overconsumption_flagged(self):
        report = audit_forged("overconsumption")
        assert any(v.check == "held-nonnegative" for v in report.violations)

    def test_decode_without_resources_flagged(self):
        report = audit_forged("decode-without-resources")
        assert any(v.check == "cut-communication" for v in report.violations)

    def test_channel_capacity_flagged(self):
        report = audit_forged("channel-capacity")
        assert any(v.check == "channel-capacity" for v in report.violations)

    def test_tampered_distribution_caught_by_replay(self):
        run = run_star()
        tampered = tamper_first_bell_distribution(
            run.trace, lambda dist: {k: 1.0 if i == 0 else 0.0 for i, k in enumerate(sorted(dist))})
        report = audit.audit_trace(tampered, star_bundle(run))
        assert any(v.check == "replay" for v in report.violations)

    def test_party_count_mismatch_rejected(self):
        run = run_star(n=3)
        bundle = graphs.import_json(NO_EBITS_2)
        with pytest.raises(ValueError, match="parties"):
            audit.audit_trace(run.trace, bundle)

    def test_nonlocal_gate_declared_local_flagged(self):
        report = audit_forged("nonlocal-gate")
        assert any(v.check == "locality" for v in report.violations)

    def test_cross_party_relabel_flagged(self):
        report = audit_forged("cross-party-relabel")
        assert any(v.check == "locality" for v in report.violations)


STATIC_CHECKS = ["held-nonnegative", "locality", "channel-capacity", "cut-entanglement",
                 "cut-communication"]
PINNED = {
    "creation-without-resources": [
        ("cut-entanglement", "cut [1]: 3 ebits created exceed 0 consumed + 0 initially shared", None),
    ],
    "overconsumption": [("held-nonnegative", "pair (1, 2) consumed beyond its 0 held ebits", 0)],
    "decode-without-resources": [
        ("cut-communication",
         "cut [1]: 3 bits decoded out of the cut exceed 0 sent + dense-coding allowance 0", None),
    ],
    "channel-capacity": [("channel-capacity", "5 bits sent 1->2 exceed the declared capacity 2", None)],
    "nonlocal-gate": [("locality", "event declared local to party 1 targets [2:y]", 1)],
    "cross-party-relabel": [
        ("locality", "relabel moves 1:x to party 2; qubit conveyance must be a relocate event", 1),
    ],
    "mixed": [
        ("held-nonnegative", "pair (1, 2) consumed beyond its 1 held ebits", 1),
        ("locality", "event declared local to party 3 targets [4:z]", 2),
        ("locality", "relabel moves 4:z to party 3; qubit conveyance must be a relocate event", 16),
        ("channel-capacity", "3 bits sent 1->3 exceed the declared capacity 2", None),
        ("channel-capacity", "1 bits sent 3->1 exceed the declared capacity 0", None),
        ("cut-entanglement", "cut [1, 4]: 4 ebits created exceed 2 consumed + 3/2 initially shared", None),
        ("cut-communication",
         "cut [1, 2, 3]: 5 bits decoded out of the cut exceed 1/2 sent + dense-coding allowance 0", None),
    ],
}


@pytest.mark.parametrize("name", PINNED)
def test_forged_trace_report_is_exact(name):
    report = audit_forged(name)
    assert report.checks_run == STATIC_CHECKS
    assert not report.replayed
    assert [(v.check, v.detail, v.step) for v in report.violations] == PINNED[name]


def _shift_first_two(dist):
    a, b = sorted(dist)[:2]
    return {**dist, a: dist[a] + 0.125, b: dist[b] - 0.125}


def test_star_report_with_lowered_channel_is_exact():
    run = run_star()
    bundle = star_bundle(run)
    weights = [list(r) for r in bundle.communication.weights]
    weights[0][1] -= 1
    lowered = graphs.GraphBundle(3, bundle.entanglement, graphs.CommunicationGraph(3, weights))
    report = audit.audit_trace(run.trace, lowered)
    assert report.checks_run == STATIC_CHECKS + ["replay-monotonicity"]
    assert report.replayed
    assert [(v.check, v.detail, v.step) for v in report.violations] == [
        ("channel-capacity", "2 bits sent 1->2 exceed the declared capacity 1", None),
    ]


def test_star_report_with_shifted_distribution_is_exact():
    run = run_star()
    step, original = next((i, dict(ev.distribution)) for i, ev in enumerate(run.trace.events)
                          if getattr(ev, "basis", None) == "bell")
    report = audit.audit_trace(tamper_first_bell_distribution(run.trace, _shift_first_two),
                               star_bundle(run))
    assert report.checks_run == STATIC_CHECKS + ["replay-monotonicity"]
    assert report.replayed
    shifted = dict(sorted(_shift_first_two(original).items()))
    assert [(v.check, v.detail, v.step) for v in report.violations] == [
        ("replay", f"step {step}: recorded distribution {shifted} disagrees with replay {original}", None),
    ]


amounts = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7, 3)])


@st.composite
def bookkeeping_cases(draw):
    """A party count, optional resource graphs, and a bookkeeping-only event list."""
    n = draw(st.integers(min_value=2, max_value=5))
    party = st.integers(min_value=1, max_value=n)
    pair = st.tuples(party, party).filter(lambda p: p[0] != p[1])  # unsorted, as in memory
    ent = comm = None
    if draw(st.booleans()):
        upper = {(i, j): draw(amounts) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
        ent = graphs.EntanglementGraph(n, tuple(
            tuple(upper.get((min(i, j), max(i, j)), Fraction(0)) for j in range(1, n + 1))
            for i in range(1, n + 1)))
    if draw(st.booleans()):
        comm = graphs.CommunicationGraph(n, tuple(
            tuple(Fraction(0) if i == j else draw(amounts) for j in range(1, n + 1))
            for i in range(1, n + 1)))

    def oracle(parties):
        targets = tuple(QubitId(p, "o") for p in sorted(parties))
        return CollectiveOracle("U", tuple(sorted(parties)), targets, np.eye(1 << len(targets)))

    event = st.one_of(
        pair.map(lambda p: EbitConsume(p, (QubitId(p[0], "x"), QubitId(p[1], "y")))),
        pair.map(EbitCreate),
        st.builds(lambda p, bits, sup: ClassicalMessage(*p, bits, sup), pair, amounts, st.booleans()),
        st.builds(lambda p, bits: DecodedBits(*p, bits), pair, amounts),
        st.sets(party, min_size=1, max_size=n).map(oracle),
        st.builds(lambda frm, to: Relocate(QubitId(frm, "r"), to), party, party),
    )
    return n, ent, comm, draw(st.lists(event, max_size=14))


def reference_violations(n, ent, comm, events):
    """The module docstring's inequalities, recomputed by brute force over every cut."""
    granted = (lambda a, b: ent.weight(a, b)) if ent else (lambda a, b: Fraction(0))
    capacity = (lambda a, b: comm.weight(a, b)) if comm else (lambda a, b: Fraction(0))
    parties = range(1, n + 1)
    out = []
    for step, ev in enumerate(events):
        if isinstance(ev, EbitConsume):
            a, b = sorted(ev.pair)
            used = sum(isinstance(e, EbitConsume) and sorted(e.pair) == [a, b] for e in events[:step + 1])
            if used > granted(a, b):
                out.append(("held-nonnegative", f"pair {(a, b)} consumed beyond its {granted(a, b)} held ebits",
                            step))
    messages = [e for e in events if isinstance(e, ClassicalMessage) and not e.supplementary]
    for a, b in itertools.permutations(parties, 2):
        bits = sum((e.bits for e in messages if (e.sender, e.receiver) == (a, b)), Fraction(0))
        if bits > capacity(a, b):
            out.append(("channel-capacity", f"{bits} bits sent {a}->{b} exceed the declared capacity "
                        f"{capacity(a, b)}", None))
    cuts = sorted((frozenset({1, *rest}) for r in range(n - 1)
                   for rest in itertools.combinations(range(2, n + 1), r)),
                  key=lambda c: (len(c), sorted(c)))

    def crossing(cut, ev_type):
        return sum(isinstance(e, ev_type) and (e.pair[0] in cut) != (e.pair[1] in cut) for e in events)

    def oracle_spans(cut):
        return any(isinstance(e, CollectiveOracle) and 0 < len(cut & set(e.parties)) < len(e.parties)
                   for e in events)

    def conveys_across(cut):
        return any(isinstance(e, Relocate) and (e.qubit.party in cut) != (e.to_party in cut) for e in events)

    for cut in cuts:
        if oracle_spans(cut) or conveys_across(cut):
            continue
        made, used = crossing(cut, EbitCreate), crossing(cut, EbitConsume)
        initial = sum((granted(i, j) for i in cut for j in parties if j not in cut), Fraction(0))
        if made > used + initial:
            out.append(("cut-entanglement", f"cut {sorted(cut)}: {made} ebits created exceed {used} consumed "
                        f"+ {initial} initially shared", None))
    for cut in cuts:
        if oracle_spans(cut):
            continue
        used = crossing(cut, EbitConsume)
        for side, name in ((cut, "out of"), (set(parties) - cut, "into")):
            got = sum((e.bits for e in events if isinstance(e, DecodedBits)
                       and e.from_party in side and e.at_party not in side), Fraction(0))
            msg = sum((e.bits for e in messages if e.sender in side and e.receiver not in side), Fraction(0))
            if got > msg + 2 * used:
                out.append(("cut-communication", f"cut {sorted(cut)}: {got} bits decoded {name} the cut "
                            f"exceed {msg} sent + dense-coding allowance {2 * used}", None))
    return out


@given(bookkeeping_cases())
@settings(max_examples=200, deadline=None)
def test_cut_checks_match_brute_force_reference(case):
    n, ent, comm, events = case
    report = audit.audit_trace(ProtocolTrace(n, events=events), graphs.GraphBundle(n, ent, comm), replay=False)
    assert report.checks_run == STATIC_CHECKS
    assert [(v.check, v.detail, v.step) for v in report.violations] == reference_violations(n, ent, comm, events)


class TestComposition:
    def test_random_teleport_walks_stay_clean(self):
        # hop logical qubits around at random; the joint state must come back
        # bit-for-bit and the trace must audit clean
        rng = np.random.default_rng(55)
        for trial in range(8):
            n = int(rng.integers(2, 5))
            run = protocols.new_run(n)
            state = gates.random_state(1 << n, rng)
            protocols.add_data_qubits(run, state)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    run.ledger.grant(i, j, 8)
            run.snapshot_initial()
            for _ in range(int(rng.integers(3, 7))):
                owner = int(rng.integers(1, n + 1))
                qubit = run.data_qubits[owner]
                choices = [p for p in range(1, n + 1) if p != qubit.party]
                protocols.teleport(run, qubit, to=int(rng.choice(choices)))
            fid = engine.ensemble_fidelity(run.ensemble, protocols.data_order(run), state)
            assert fid >= 1 - 1e-9, trial
            assert audit.audit_trace(run.trace, star_bundle(run)).ok


class TestTraceFormat:
    def test_one_json_object_per_line(self):
        run = run_star()
        for i, line in enumerate(dump_trace(run.trace).splitlines()):
            rec = json.loads(line)
            assert isinstance(rec, dict) and "kind" in rec
            assert (rec["kind"] == "header") == (i == 0)

    def test_event_kinds_cover_the_run(self):
        run = run_star()
        kinds = {json.loads(ln)["kind"] for ln in dump_trace(run.trace).splitlines()}
        assert {"header", "ebit_consume", "local_measure", "message",
                "local_gate", "relabel", "coalesce"} <= kinds


class TestReplay:
    def test_replay_reproduces_final_state(self):
        run = run_star()
        steps = list(audit.replay_events(run.trace.initial, run.trace.events))
        final = steps[-1][2]
        assert final.registry == run.ensemble.registry
        for (_, got), (_, want) in zip(
            engine.branch_vectors(final, list(final.registry)),
            engine.branch_vectors(run.ensemble, list(final.registry)),
        ):
            assert abs(abs(np.vdot(got, want)) - 1) < 1e-9

    def test_replay_is_deterministic(self):
        run = run_star()
        one = [e for _, _, e in audit.replay_events(run.trace.initial, run.trace.events)]
        two = [e for _, _, e in audit.replay_events(run.trace.initial, run.trace.events)]
        for a, b in zip(one, two):
            assert a.registry == b.registry
            for ba, bb in zip(a.branches, b.branches):
                assert np.array_equal(ba.amplitudes, bb.amplitudes)
