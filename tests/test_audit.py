import dataclasses
import itertools
import json
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebitnet import audit, cli, engine, gates, graphs, protocols
from ebitnet.engine import QubitId
from ebitnet.gates import Permutation
from ebitnet.ledger import (
    Allocate,
    ClassicalMessage,
    Coalesce,
    CollectiveOracle,
    DecodedBits,
    EbitConsume,
    EbitCreate,
    LocalGate,
    LocalMeasure,
    ProtocolTrace,
    Relabel,
    Relocate,
    TRACE_FORMAT,
    ResourceLedger,
    dump_trace,
    event_record,
    load_trace,
    track_ids,
)

import oracles

ROOT = Path(__file__).resolve().parent.parent


def star_bundle(run):
    n = run.n_parties
    return graphs.GraphBundle(n, graphs.EntanglementGraph.from_book(n, run.ledger.granted, run.ledger.den),
                              graphs.CommunicationGraph.from_book(n, run.ledger.bits_sent, run.ledger.den))


def run_star(n=3, seed=0):
    rng = np.random.default_rng(seed)
    state = gates.random_state(1 << n, rng)
    u = gates.haar_unitary(1 << n, rng)
    run = protocols.new_run(n, state)
    for i in range(2, n + 1):
        run.ledger.grant(i, 1, 2)
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
        for a, b in zip(oracles.dense_vectors(back.initial), oracles.dense_vectors(run.trace.initial)):
            assert np.allclose(a, b)

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
        result = protocols.permutation_communicate(oracles.two_cycle(), {2: "01", 1: "10"})
        run = result.run
        report = audit.audit_trace(run.trace, star_bundle(run))
        assert report.ok  # SWAP is the oracle under study, not an LQCC step

    def test_swap_entangle_consistent(self):
        result = protocols.permutation_entangle(oracles.two_cycle())
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
        protocols.superdense_send(run, 1, 2, "11")
        assert audit.audit_trace(run.trace, star_bundle(run)).ok

    def test_recorded_povm_run_is_clean(self):
        # supplementary messages ride outside the channel-capacity budget
        rng = np.random.default_rng(60)
        run = protocols.new_run(2, gates.random_state(4, rng))
        run.ledger.grant(1, 2, 2)
        povm = engine.Povm(tuple(np.eye(4) / 4 for _ in range(4)))
        protocols.collective_op_star(run, protocols.CollectiveOp(povm=povm, record=True), hub=2)
        report = audit.audit_trace(run.trace, star_bundle(run))
        assert report.ok
        assert report.replayed


def forged_trace(events, n=3):
    lines = [json.dumps({"kind": "header", "format": TRACE_FORMAT, "n_parties": n})]
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
    # one consumed ebit allows 2 decoded bits across the cut: exactly met one
    # way, exceeded by one bit the other way
    "dense-coding-allowance": ([
        {"kind": "ebit_consume", "pair": [1, 2], "qubits": [[1, "x"], [2, "y"]]},
        {"kind": "decoded", "at": 2, "from": 1, "bits": "2"},
        {"kind": "decoded", "at": 1, "from": 2, "bits": "3"},
    ], 2, '{"n": 2, "entanglement": [["0","1"],["1","0"]]}'),
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
        {"kind": "oracle", "parties": [2, 3], "targets": [[2, "o"], [3, "p"]], "permutation": [1, 2]},
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

    def test_tampered_povm_distribution_caught_by_replay(self):
        # the golden trace's POVM record (line 17, step 15) carries its elements
        records = [json.loads(ln) for ln in (ROOT / "fixtures" / "golden_trace.jsonl").read_text(
            encoding="utf-8").splitlines()]
        povm = records[16]
        assert povm["basis"] == "povm"
        replayed = dict(sorted(povm["distribution"].items()))
        povm["distribution"] = {"0": replayed["1"], "1": replayed["0"]}
        trace = load_trace("".join(json.dumps(r) + "\n" for r in records))
        bundle = graphs.GraphBundle(trace.n_parties, None, None)
        assert "replay" not in [v.check for v in audit.audit_trace(trace, bundle, replay=False).violations]
        report = audit.audit_trace(trace, bundle)
        assert [(v.check, v.detail) for v in report.violations if v.check == "replay"] == [
            ("replay", f"step 15: recorded distribution {povm['distribution']} disagrees with replay {replayed}"),
        ]

    def test_tampered_measurement_index_caught_by_replay(self, tmp_path, capsys):
        # the golden trace's Bell measurements (steps 1 and 9) renumbered 5 and 7, while
        # its correction still reads outcome 0; the graphs grant what its run uses
        golden = ROOT / "fixtures" / "golden_trace.jsonl"
        tampered, graph_file = tmp_path / "tampered.jsonl", tmp_path / "graphs.json"
        tampered.write_text(golden.read_text(encoding="utf-8").replace('"index": 0,', '"index": 5,')
                            .replace('"index": 1,', '"index": 7,'), encoding="utf-8")
        graph_file.write_text('{"n": 3, "entanglement": [["0","1","0"],["1","0","1"],["0","1","0"]], '
                              '"communication": [["0","2","0"],["0","0","0"],["1","1","0"]]}', encoding="utf-8")

        def audited(trace, *flags):
            code = cli.main(["audit", "--trace", str(trace), "--graphs", str(graph_file), *flags])
            return code, json.loads(capsys.readouterr().out)["violations"]

        assert audited(golden) == audited(tampered, "--no-replay") == (0, [])
        assert audited(tampered) == (1, [
            {"check": "replay", "detail": "step 1: measurement index 5, expected 0", "step": 1}])

    def test_unrecorded_conditional_caught_by_replay_at_its_step(self):
        # the golden trace's correction (line 5, step 3) made to read measurement 9, which
        # no branch records: the engine's error names no step, the violation does
        records = [json.loads(ln) for ln in (ROOT / "fixtures" / "golden_trace.jsonl").read_text(
            encoding="utf-8").splitlines()]
        assert records[4]["conditional_on"] == 0
        records[4]["conditional_on"] = 9
        trace = load_trace("".join(json.dumps(r) + "\n" for r in records))
        report = audit.audit_trace(trace, graphs.GraphBundle(trace.n_parties, None, None))
        assert [(v.check, v.detail, v.step) for v in report.violations if v.check == "replay"] == [
            ("replay", "branch has no outcome recorded for measurement 9", 3)]

    def test_party_count_mismatch_rejected(self):
        run = run_star(n=3)
        bundle = graphs.import_json(NO_EBITS_2)
        with pytest.raises(ValueError, match="parties"):
            audit.audit_trace(run.trace, bundle)

    @pytest.mark.parametrize("n,header,code,in_force", [
        (40, {}, 2, None),
        (5, {"max_qubits": 4, "registry": [], "branches": [{"p": 1.0, "amplitudes": [[1.0, 0.0]]}]}, 2, None),
        (4, {"max_qubits": 4, "registry": [], "branches": [{"p": 1.0, "amplitudes": [[1.0, 0.0]]}]}, 0, None),
        (13, {}, 2, 12),
    ], ids=["40-parties-default-cap", "5-parties-cap-4", "4-parties-cap-4", "13-parties-cap-12-in-force"])
    @pytest.mark.parametrize("flags", [[], ["--no-replay"]], ids=["replay", "no-replay"])
    def test_more_parties_than_the_registry_cap_exit_two(self, tmp_path, capsys, monkeypatch, n, header, code,
                                                         in_force, flags):
        """Every party holds a qubit, so no run has more parties than its registry cap:
        the header's, or without an initial state the cap in force (EBITNET_MAX_QUBITS or
        the default).  Such a trace is refused before its 2^(n-1) cuts are listed, which
        at 40 parties would not finish."""
        if in_force is not None:
            monkeypatch.setenv("EBITNET_MAX_QUBITS", str(in_force))
        trace, graph = tmp_path / "t.jsonl", tmp_path / "g.json"
        trace.write_text(json.dumps(dict({"kind": "header", "format": TRACE_FORMAT, "n_parties": n}, **header))
                         + "\n", encoding="utf-8")
        graph.write_text(json.dumps({"n": n, "entanglement": [["0"] * n] * n}), encoding="utf-8")
        assert cli.main(["audit", "--trace", str(trace), "--graphs", str(graph), *flags]) == code
        cap = header.get("max_qubits", in_force or engine.DEFAULT_MAX_QUBITS)
        refusal = f"error: trace has {n} parties, more than its registry cap of {cap} qubits\n"
        assert capsys.readouterr().err == ("" if code == 0 else refusal)

    @pytest.mark.parametrize("flags", [[], ["--no-replay"]], ids=["replay", "no-replay"])
    def test_more_parties_than_an_int64_cut_mask_holds_exit_two(self, tmp_path, capsys, monkeypatch, flags):
        """Under a raised cap, a header-only trace of 70 parties is within its registry
        cap, but its 2^69 cuts do not fit the audit's int64 party masks: it is refused
        with exit 2 before any cut is listed, which would not finish.  The refusal
        allocates next to nothing, and the cut arrays are never built."""
        monkeypatch.setenv("EBITNET_MAX_QUBITS", "100")
        monkeypatch.setattr(audit.np, "fromiter", None)  # listing a cut would raise a TypeError
        trace, graph = tmp_path / "t.jsonl", tmp_path / "g.json"
        trace.write_text(json.dumps({"kind": "header", "format": TRACE_FORMAT, "n_parties": 70}) + "\n",
                         encoding="utf-8")
        graph.write_text(json.dumps({"n": 70, "entanglement": [["0"] * 70] * 70}), encoding="utf-8")
        tracemalloc.start()
        try:
            assert cli.main(["audit", "--trace", str(trace), "--graphs", str(graph), *flags]) == 2
            assert tracemalloc.get_traced_memory()[1] < 2**22
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err == ("error: a trace of 70 parties has 2^69 cuts; the audit holds each as an "
                                           "int64 party mask, which fits at most 62 parties\n")

    def test_sixty_three_parties_are_one_too_many_for_an_int64_cut_mask(self, monkeypatch):
        """Party p is bit p of a cut mask, so party 63 would be the sign bit."""
        monkeypatch.setattr(audit.np, "fromiter", None)
        assert audit.CUT_PARTIES_MAX == 62 and np.int64(1) << 62 > 0 > np.int64(1) << 63
        with pytest.raises(ValueError, match=r"^a trace of 63 parties has 2\^62 cuts;"):
            audit._Cuts(63)

    @pytest.mark.parametrize("flags", [[], ["--no-replay"]], ids=["replay", "no-replay"])
    def test_a_cut_array_over_its_byte_limit_is_refused_before_it_is_made(self, tmp_path, capsys, monkeypatch,
                                                                         flags):
        """Under a raised cap, a header-only trace of 40 parties fits the int64 masks,
        but its 2^39 - 1 masks would take 4 TiB: the audit exits 2 naming the party
        count and the bytes, and the cut array is never asked for."""
        monkeypatch.setenv("EBITNET_MAX_QUBITS", "100")
        monkeypatch.setattr(audit.np, "fromiter", None)  # listing a cut would raise a TypeError
        trace, graph = tmp_path / "t.jsonl", tmp_path / "g.json"
        trace.write_text(json.dumps({"kind": "header", "format": TRACE_FORMAT, "n_parties": 40}) + "\n",
                         encoding="utf-8")
        graph.write_text(json.dumps({"n": 40, "entanglement": [["0"] * 40] * 40}), encoding="utf-8")
        assert cli.main(["audit", "--trace", str(trace), "--graphs", str(graph), *flags]) == 2
        assert capsys.readouterr().err == (f"error: a trace of 40 parties has 2^39 - 1 cuts, whose int64 party "
                                           f"masks take {8 * (2**39 - 1)} bytes; the audit holds at most "
                                           f"{2**30} bytes of them\n")

    def test_twenty_eight_parties_are_the_most_the_cut_byte_limit_holds(self, monkeypatch):
        """At 1 GiB the limit admits 28 parties, whose array of 2^27 - 1 masks is 8 bytes
        short of it, and refuses 29; neither array is made here."""
        monkeypatch.setattr(audit.np, "fromiter", None)
        assert audit.CUT_ARRAY_BYTES_MAX == 2**30
        with pytest.raises(TypeError):  # past the limit check, at the listing of the cuts
            audit._Cuts(28)
        with pytest.raises(ValueError, match=rf"^a trace of 29 parties has 2\^28 - 1 cuts, whose int64 party masks "
                                             rf"take {8 * (2**28 - 1)} bytes;"):
            audit._Cuts(29)

    @pytest.mark.parametrize("n,header", [
        (3, {"max_qubits": 25, "registry": [], "branches": [{"p": 1.0, "amplitudes": [[1.0, 0.0]]}]}),
        (40, {"max_qubits": 100, "registry": [[1, "q"]], "branches": [{"p": 1.0, "amplitudes": [[1, 0], [0, 0]]}]}),
    ], ids=["3-parties-cap-25", "40-parties-cap-100"])
    @pytest.mark.parametrize("flags", [[], ["--no-replay"]], ids=["replay", "no-replay"])
    def test_a_header_cap_over_the_one_in_force_exits_two(self, tmp_path, capsys, n, header, flags):
        """The cap in force is EBITNET_MAX_QUBITS or the default; a header cannot raise it.  A
        checkout that trusts the header audits the first trace and lists 2^39 cuts of the second."""
        trace, graph = tmp_path / "t.jsonl", tmp_path / "g.json"
        trace.write_text(json.dumps(dict({"kind": "header", "format": TRACE_FORMAT, "n_parties": n}, **header))
                         + "\n", encoding="utf-8")
        graph.write_text(json.dumps({"n": n, "entanglement": [["0"] * n] * n}), encoding="utf-8")
        assert cli.main(["audit", "--trace", str(trace), "--graphs", str(graph), *flags]) == 2
        assert capsys.readouterr().err == (f"error: trace: its header's max_qubits of {header['max_qubits']} is "
                                           "over the registry cap of 24; EBITNET_MAX_QUBITS sets that cap\n")

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
    "dense-coding-allowance": [
        ("cut-communication",
         "cut [1]: 3 bits decoded into the cut exceed 0 sent + dense-coding allowance 2", None),
    ],
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
    weights = [list(r) for r in oracles.fraction_matrix(bundle.communication)]
    weights[0][1] -= 1
    lowered = graphs.GraphBundle(3, bundle.entanglement, oracles.graph_of(graphs.CommunicationGraph, weights))
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
        ("replay", f"step {step}: recorded distribution {shifted} disagrees with replay {original}", step),
    ]


def test_supplementary_messages_beyond_the_povm_cover_are_charged(tmp_path):
    """The star-op teleport messages, marked supplementary, have no POVM record to
    cover them: they are charged as sent and exceed graphs that grant no
    communication, and fit the run's own graphs."""
    assert cli.main(["simulate", "star-op", "--n", "3", "--seed", "7", "--output", str(tmp_path)]) == 0
    records = [json.loads(ln) for ln in (tmp_path / "star-op_trace.jsonl").read_text(encoding="utf-8").splitlines()]
    graph_file = tmp_path / "star-op_graphs.json"
    for r in records:
        if r["kind"] == "message":
            r["supplementary"] = True
    trace_file = tmp_path / "forged.jsonl"
    trace_file.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    silent = json.loads(graph_file.read_text(encoding="utf-8"))
    del silent["communication"]
    silent_file = tmp_path / "silent.json"
    silent_file.write_text(json.dumps(silent), encoding="utf-8")
    for flags in ([], ["--no-replay"]):
        assert cli.main(["audit", "--trace", str(trace_file), "--graphs", str(graph_file), *flags]) == 0
        assert cli.main(["audit", "--trace", str(trace_file), "--graphs", str(silent_file), *flags]) == 1
    report = audit.audit_trace(load_trace(trace_file.read_text(encoding="utf-8")),
                               graphs.import_json(silent_file.read_text(encoding="utf-8")))
    assert [(v.check, v.detail) for v in report.violations] == [
        ("channel-capacity", f"2 bits sent {a}->{b} exceed the declared capacity 0")
        for a, b in ((1, 2), (1, 3), (2, 1), (3, 1))]


def test_povm_cover_is_capped_by_its_element_count(tmp_path):
    """The golden trace's 2-element POVM record (line 17) forged to list 1024 uniform
    outcomes covers 1 bit, not 10: its two 10-bit supplementary messages (lines 18
    and 19) are charged 9 bits each, past graphs with no capacity out of party 3."""
    records = [json.loads(ln) for ln in (ROOT / "fixtures" / "golden_trace.jsonl").read_text(
        encoding="utf-8").splitlines()]
    records[16]["distribution"] = {str(r): 1 / 1024 for r in range(1024)}
    for message in records[17:19]:
        assert message["supplementary"] and message["from"] == 3
        message["bits"] = "10"
    trace_file, graph_file = tmp_path / "forged.jsonl", tmp_path / "graphs.json"
    trace_file.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    graph_file.write_text(json.dumps({
        "n": 3, "entanglement": [["0", "1", "0"], ["1", "0", "1"], ["0", "1", "0"]],
        "communication": [["0", "2", "0"], ["0", "0", "0"], ["0", "0", "0"]]}), encoding="utf-8")
    trace = load_trace(trace_file.read_text(encoding="utf-8"))
    books = ResourceLedger()
    trace.events[15].book(books)
    assert books.outcome_cover == {3: 1}
    report = audit.audit_trace(trace, graphs.import_json(graph_file.read_text(encoding="utf-8")), replay=False)
    assert [(v.check, v.detail) for v in report.violations] == [
        ("channel-capacity", f"9 bits sent 3->{b} exceed the declared capacity 0") for b in (1, 2)]
    for flags in ([], ["--no-replay"]):
        assert cli.main(["audit", "--trace", str(trace_file), "--graphs", str(graph_file), *flags]) == 1


@pytest.mark.parametrize("shift,caught", [(1e-8, True), (1e-11, False), (float("nan"), True),
                                          (0.5e-9, False), (2e-9, True)])
def test_replay_distribution_tolerance(shift, caught):
    """A recorded probability more than REPLAY_PROB_TOL (1e-9) off the replayed one is one
    violation at the step that records it, and so is a NaN; 0.5e-9 off and less is rounding."""
    run = run_star()
    tampered = tamper_first_bell_distribution(
        run.trace, lambda dist: {k: v + shift if i == 0 else v for i, (k, v) in enumerate(sorted(dist.items()))})
    step = next(i for i, ev in enumerate(tampered.events) if isinstance(ev, LocalMeasure) and ev.basis == "bell")
    report = audit.audit_trace(tampered, star_bundle(run))
    assert [(v.check, v.step) for v in report.violations] == ([("replay", step)] if caught else [])


@pytest.mark.parametrize("p,rises", [(1e-9, True), (1e-11, False)])
def test_monotone_tolerance(p, rises):
    """Relabelling half of a weakly entangled local pair onto party 2 raises the
    monotone across {1} by h(p): about 3e-8 ebits at p = 1e-9 (a violation) and
    4e-10 at p = 1e-11 (inside ENTROPY_TOL)."""
    q1, q2 = QubitId(1, "q1"), QubitId(1, "q2")
    initial = oracles.one_branch([np.sqrt(1 - p), 0, 0, np.sqrt(p)], (q1, q2))
    trace = ProtocolTrace(2, initial, [Relabel(q2, QubitId(2, "q2"))])
    report = audit.audit_trace(trace, graphs.import_json(NO_EBITS_2))
    assert ("replay-monotonicity" in [v.check for v in report.violations]) == rises


amounts = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7, 3)])
# recorded POVM distributions, each with the whole bits of its entropy worked by hand
RECORDED_COVER = {
    (("0", 1.0),): 0,
    (("0", 0.5), ("1", 0.5)): 1,
    (("0", 0.25), ("1", 0.75)): 1,
    (("0", 0.5), ("1", 0.25), ("2", 0.25)): 2,
    (("0", 0.25), ("1", 0.25), ("2", 0.25), ("3", 0.25)): 2,
}


def povm_record(party, distribution):
    """A POVM record at ``party``: computational projectors on one qubit, or on
    two when ``distribution`` has more than two outcomes."""
    width = 1 if len(distribution) <= 2 else 2
    povm = engine.Povm(tuple(np.diag(row) for row in np.eye(1 << width)))
    return LocalMeasure(party, tuple(QubitId(party, f"m{i}") for i in range(width)), "povm", False, 0,
                        distribution, povm)


@st.composite
def bookkeeping_cases(draw, scale=1):
    """A party count, optional resource graphs, and a bookkeeping-only event list;
    graph weights and message and decode bits are ``scale`` times the drawn amounts."""
    scaled = amounts.map(lambda amount: amount * scale)
    n = draw(st.integers(min_value=2, max_value=5))
    party = st.integers(min_value=1, max_value=n)
    pair = st.tuples(party, party).filter(lambda p: p[0] != p[1])  # unsorted, as in memory
    ent = comm = None
    if draw(st.booleans()):
        upper = {(i, j): draw(scaled) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
        ent = oracles.graph_of(graphs.EntanglementGraph, [
            [upper.get((min(i, j), max(i, j)), 0) for j in range(1, n + 1)] for i in range(1, n + 1)])
    if draw(st.booleans()):
        comm = oracles.graph_of(graphs.CommunicationGraph, [
            [0 if i == j else draw(scaled) for j in range(1, n + 1)] for i in range(1, n + 1)])

    def oracle(parties):
        targets = tuple(QubitId(p, "o") for p in sorted(parties))
        return CollectiveOracle(tuple(sorted(parties)), targets, oracles.identity_permutation(len(targets)))

    event = st.one_of(
        pair.map(lambda p: EbitConsume(p, (QubitId(p[0], "x"), QubitId(p[1], "y")))),
        pair.map(EbitCreate),
        st.builds(lambda p, bits, sup: ClassicalMessage(*p, bits, sup), pair, scaled, st.booleans()),
        st.builds(lambda p, bits: DecodedBits(*p, bits), pair, scaled),
        st.sets(party, min_size=1, max_size=n).map(oracle),
        st.builds(lambda frm, to: Relocate(QubitId(frm, "r"), to), party, party),
        st.builds(povm_record, party, st.sampled_from(sorted(RECORDED_COVER))),
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

    def sent(a, b):
        """The ordinary bits a -> b, plus the supplementary bits beyond the cover of the
        POVM records at a: the most that the supplementary bits sent so far ever
        exceeded the cover recorded so far."""
        bits = sum((e.bits for e in events if isinstance(e, ClassicalMessage) and not e.supplementary
                    and (e.sender, e.receiver) == (a, b)), Fraction(0))
        supplementary = cover = beyond = Fraction(0)
        for e in events:
            if isinstance(e, LocalMeasure) and e.party == a:
                cover += RECORDED_COVER[e.distribution]
            elif isinstance(e, ClassicalMessage) and e.supplementary and (e.sender, e.receiver) == (a, b):
                supplementary += e.bits
                beyond = max(beyond, supplementary - cover)
        return bits + beyond

    for a, b in itertools.permutations(parties, 2):
        bits = sent(a, b)
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
            msg = sum((sent(a, b) for a in side for b in parties if b not in side), Fraction(0))
            if got > msg + 2 * used:
                out.append(("cut-communication", f"cut {sorted(cut)}: {got} bits decoded {name} the cut "
                            f"exceed {msg} sent + dense-coding allowance {2 * used}", None))
    return out


def consume(a, b):
    return EbitConsume((a, b), (QubitId(a, "x"), QubitId(b, "y")))


# decodes one bit per consumed ebit past the dense-coding allowance of two, which the
# drawn cases seldom reach: out of the cut [1], then into the cuts [1] and [1, 2]
@given(bookkeeping_cases())
@example((2, None, None, [consume(1, 2), DecodedBits(2, 1, Fraction(3))]))
@example((3, None, None, [consume(1, 2), consume(2, 3), ClassicalMessage(3, 1, Fraction(1, 2)),
                          DecodedBits(1, 3, Fraction(3))]))
@settings(max_examples=200, deadline=None)
def test_cut_checks_match_brute_force_reference(case):
    n, ent, comm, events = case
    report = audit.audit_trace(ProtocolTrace(n, events=events), graphs.GraphBundle(n, ent, comm), replay=False)
    assert report.checks_run == STATIC_CHECKS
    assert [(v.check, v.detail, v.step) for v in report.violations] == reference_violations(n, ent, comm, events)


@given(bookkeeping_cases(scale=2**62))
@settings(max_examples=100, deadline=None)
def test_cut_checks_past_int64_match_brute_force_reference(case):
    """Graph weights and bits 2^62 times the usual amounts: the cut sums pass the
    range of int64, so they run on Python ints, and every violation's text still
    matches the reference's exact sums."""
    n, ent, comm, events = case
    report = audit.audit_trace(ProtocolTrace(n, events=events), graphs.GraphBundle(n, ent, comm), replay=False)
    assert [(v.check, v.detail, v.step) for v in report.violations] == reference_violations(n, ent, comm, events)


# a graph cell: an integer of up to CELL_MAX_CHARS digits, or "p/q" of up to CELL_MAX_CHARS characters
cells = st.one_of(
    st.integers(min_value=0, max_value=10**graphs.CELL_MAX_CHARS - 1).map(str),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(min_value=0, max_value=10**31 - 1),
              st.integers(min_value=1, max_value=10**32 - 1)),
)


@st.composite
def rational_books(draw):
    """A party count and entanglement and communication graphs read from a graph
    file whose cells are drawn from ``cells``, with zero cells mixed in; their
    weights are the Fractions the oracle reader reads from that file."""
    n = draw(st.integers(min_value=2, max_value=6))
    cell = st.one_of(st.just("0"), cells)
    ent = [["0"] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        ent[i][j] = ent[j][i] = draw(cell)
    comm = [["0" if i == j else draw(cell) for j in range(n)] for i in range(n)]
    assert max(len(c) for row in ent + comm for c in row) <= graphs.CELL_MAX_CHARS
    text = json.dumps({"n": n, "entanglement": ent, "communication": comm})
    bundle = graphs.import_json(text)
    assert {g.kind: oracles.fraction_matrix(g) for g in bundle.graphs} == oracles.read_fraction_graphs(text)[1]
    return n, bundle.entanglement, bundle.communication


@given(rational_books())
@settings(max_examples=100, deadline=None)
def test_cut_sums_match_the_cross_partition_oracle(case):
    """The audit's integer cut sums over each graph's book, against the frozenset
    oracle: an undirected book across each cut, a directed one out of the side of
    party 1 and into it."""
    n, ent, comm = case
    cuts = audit._Cuts(n).masks
    ((shared,), _), ((sent_out,), (sent_in,)) = (
        audit._book_sums([(g.book(), g.directed)], cuts, 2 * sum(g.book().values())) for g in (ent, comm))
    shared, sent_out, sent_in = shared.tolist(), sent_out.tolist(), sent_in.tolist()
    for i, cut in enumerate(cuts.tolist()):
        part = oracles.Partition(n, frozenset(audit._parties(cut)))
        assert Fraction(shared[i], ent.den) == oracles.cross_partition(ent, part)
        assert Fraction(sent_out[i], comm.den) == oracles.cross_partition(comm, part, "a_to_b")
        assert Fraction(sent_in[i], comm.den) == oracles.cross_partition(comm, part, "b_to_a")


# numerators up to and past int64: 2^63 - 1 and 2^63 sit on either side of its range
numerators = st.one_of(st.integers(min_value=0, max_value=9), st.sampled_from([2**62, 2**63 - 1, 2**63]),
                       st.integers(min_value=2**62, max_value=2**65))


@st.composite
def cut_cases(draw):
    """A party count from 1 to 10, up to five books, each directed or not, of
    numerators that sum within or past int64, and the party sets of a few events."""
    n = draw(st.integers(min_value=1, max_value=10))
    party = st.integers(min_value=1, max_value=n)
    pair = st.tuples(party, party).filter(lambda p: p[0] != p[1])
    book = st.dictionaries(pair, numerators, max_size=6) if n > 1 else st.just({})
    books = draw(st.lists(st.tuples(book, st.booleans()), min_size=1, max_size=5))
    sets = draw(st.lists(st.lists(party, min_size=1, max_size=4), max_size=4))
    return n, books, sets


@given(cut_cases())
@settings(max_examples=200, deadline=None)
def test_cut_arrays_match_the_scalar_references(case):
    """The cut masks, the book sums both ways (int64, or Python ints once their
    bound passes 2^63), the spanned cuts and each group's splits, against the
    scalar references the audit once computed cut by cut."""
    n, books, sets = case
    cuts = audit._Cuts(n)
    masks = oracles.cut_masks(n)
    assert cuts.masks.dtype == np.int64 and cuts.masks.tolist() == masks
    top = 2 * sum(sum(book.values()) for book, _ in books)
    out, into = audit._book_sums(books, cuts.masks, top)
    assert out.dtype == into.dtype == (object if top >= 2**63 else np.int64)
    for k, (book, directed) in enumerate(books):
        terms = oracles.book_terms(book, directed)
        assert out[k].tolist() == [oracles.leaving(terms, cut) for cut in masks]
        assert into[k].tolist() == [oracles.leaving(terms, ~cut) for cut in masks]
    with mock.patch.object(audit, "CUT_CHUNK_BYTES", 1):  # one cut per chunk
        chunked = audit._book_sums(books, cuts.masks, top)
    assert [a.tolist() for a in chunked] == [out.tolist(), into.tolist()]
    spanned = audit._spanned(sets, cuts.masks)
    assert spanned.tolist() == [[oracles.spans(oracles.party_mask(s), cut) for cut in masks] for s in sets]
    for owners in sets:
        slots = tuple(QubitId(p, f"s{j}") for j, p in enumerate(owners))
        distinct, places = cuts.splits(slots)
        assert (distinct, places.tolist()) == oracles.cut_splits(masks, owners)


def test_the_cuts_of_four_parties_in_order():
    """By the size of the side holding party 1, then its other parties in
    lexicographic order: {1}, {1,2}, {1,3}, {1,4}, {1,2,3}, {1,2,4}, {1,3,4}."""
    assert audit._Cuts(4).masks.tolist() == [2, 6, 10, 18, 14, 22, 26]
    assert audit._Cuts(2).masks.tolist() == [2] and audit._Cuts(1).masks.tolist() == []


@given(st.lists(st.integers(min_value=-2**64, max_value=2**64), max_size=6),
       st.integers(min_value=1, max_value=2**64), st.booleans())
@settings(max_examples=200, deadline=None)
def test_held_ebits_divide_into_correctly_rounded_floats(nums, den, wide):
    """``_over`` rounds each numerator over ``den`` as ``float(Fraction(num, den))``
    does, given its bound on ``den`` and every |num|: in float64 below 2^53, where
    both are exact, and in Python ints past it, the bound tight or loose."""
    nums = [num + 2**53 * wide for num in nums]
    bound = max([den, *map(abs, nums)])
    want = [float(Fraction(num, den)) for num in nums]
    for loose in (bound, 2**80):
        got = audit._over(np.array(nums, dtype=np.int64 if bound < 2**63 else object), den, loose)
        assert got.dtype == np.float64 and got.tolist() == want


class TestComposition:
    def test_random_teleport_walks_stay_clean(self):
        # hop logical qubits around at random; the joint state must come back
        # bit-for-bit and the trace must audit clean
        rng = np.random.default_rng(55)
        for trial in range(8):
            n = int(rng.integers(2, 5))
            state = gates.random_state(1 << n, rng)
            run = protocols.new_run(n, state)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    run.ledger.grant(i, j, 8)
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
            for va, vb in zip(oracles.dense_vectors(a), oracles.dense_vectors(b)):
                assert np.array_equal(va, vb)

    def test_a_gate_whose_targets_repeat_is_refused_before_it_applies(self):
        """The engine trusts its targets: a step refuses a repeated one before the
        gate applies, and the load before a replay would apply it."""
        run = run_star()
        q = run.data_qubits[1]
        gate = LocalGate(1, (q, q), matrix=np.eye(4, dtype=complex))
        line = len(run.trace.events) + 2  # after the header and every event
        with pytest.raises(ValueError, match=rf"^trace line {line}: targets \[1:q1, 1:q1\] name a qubit twice$"):
            load_trace(dump_trace(run.trace) + json.dumps(event_record(gate)) + "\n")
        with pytest.raises(ValueError, match=r"^targets \[1:q1, 1:q1\] name a qubit twice$"):
            run.step(gate)

    def test_an_oracle_whose_targets_repeat_is_refused_by_the_walk_alone(self):
        """An oracle names its targets themselves, so the walk sees a repeated one
        that its renames would collapse.  A trace without an initial state is
        never replayed and walks no ids, so it reads a repeated target of an
        oracle as it reads one of a gate."""
        run = run_star()
        q = run.data_qubits[1]
        oracle = CollectiveOracle((1,), (q, q), Permutation((2, 1)))
        line = len(run.trace.events) + 2
        with pytest.raises(ValueError, match=rf"^trace line {line}: targets \[1:q1, 1:q1\] name a qubit twice$"):
            load_trace(dump_trace(run.trace) + json.dumps(event_record(oracle)) + "\n")
        with pytest.raises(ValueError, match=r"^targets \[1:q1, 1:q1\] name a qubit twice$"):
            run.step(oracle)
        gate = LocalGate(1, (q, q), matrix=np.eye(4, dtype=complex))
        bare = dump_trace(ProtocolTrace(3, None, [gate, oracle]))
        assert dump_trace(load_trace(bare)) == bare


def test_unitarity_is_checked_once_per_path(monkeypatch, tmp_path):
    """The star-op n=3 seed-7 trace holds 17 gate matrices in 5 gate events:
    simulate checks each matrix once, the load checks each once and the replay
    checks none, and each path makes one call per gate event."""
    checked = []  # the matrices of each call
    check = engine.check_unitary
    monkeypatch.setattr(engine, "check_unitary",
                        lambda matrices, n_targets: checked.append(len(matrices)) or check(matrices, n_targets))
    assert cli.main(["simulate", "star-op", "--n", "3", "--seed", "7", "--output", str(tmp_path)]) == 0
    simulated, checked[:] = list(checked), []
    trace = load_trace((tmp_path / "star-op_trace.jsonl").read_text(encoding="utf-8"))
    loaded, checked[:] = list(checked), []
    bundle = graphs.import_json((tmp_path / "star-op_graphs.json").read_text(encoding="utf-8"))
    report = audit.audit_trace(trace, bundle)
    assert report.ok and report.replayed
    matrices = sum(len(ev.matrices) for ev in trace.events if isinstance(ev, LocalGate))
    assert (matrices, sum(simulated), sum(loaded), sum(checked)) == (17, 17, 17, 0)
    assert (len(simulated), len(loaded), len(checked)) == (5, 5, 0)


# the --n each protocol is simulated at; the others take no --n
REPLAY_N = {"star-op": 3, "perm-entangle": 3, "perm-comm": 3, "ps": 4, "ps-cp": 3}


@pytest.mark.parametrize("protocol", cli.PROTOCOLS)
def test_replay_reproduces_the_simulation_bit_for_bit(protocol):
    run, _ = cli._simulate(protocol, REPLAY_N.get(protocol, 3), np.random.default_rng(7), 1,
                           engine.DEFAULT_MAX_QUBITS)
    *_, (_, _, final) = audit.replay_events(run.trace.initial, run.trace.events)
    want = run.ensemble
    assert final.registry == want.registry
    assert final.measurement_count == want.measurement_count
    assert [b.probability for b in final.branches] == [b.probability for b in want.branches]
    assert [b.record for b in final.branches] == [b.record for b in want.branches]
    assert all(np.array_equal(got, exp) for got, exp in zip(oracles.dense_vectors(final), oracles.dense_vectors(want)))


def party_cuts(n):
    """Every bipartition of parties 1..n, as the set of parties on the side of party 1."""
    return [frozenset({1, *rest}) for r in range(n - 1) for rest in itertools.combinations(range(2, n + 1), r)]


def reference_entropy(ens, parties):
    """The cut entropy by the older formula: one ``eigvalsh`` per branch on the
    reduced density of the partition side, zero eigenvalues (below 1e-12) dropped."""
    k = ens.num_qubits
    positions = [i for i, q in enumerate(ens.registry) if q.party in parties]
    if not positions or len(positions) == k:
        return 0.0
    total = 0.0
    for p, vec in engine.branch_vectors(ens, ens.registry):
        tensor = vec.reshape((2,) * k)
        mat = np.moveaxis(tensor, [k - 1 - p for p in positions], range(len(positions)))
        mat = mat.reshape(1 << len(positions), -1)
        eigs = np.linalg.eigvalsh(mat @ mat.conj().T)
        eigs = eigs[eigs > 1e-12]
        total += p * float(-np.sum(eigs * np.log2(eigs)))
    return total


def audit_monotone_series(monkeypatch, trace, bundle):
    """Audit ``trace`` with replay.  Return the ensemble at each point of the
    replay (the initial one, then one after each event) and, for each point,
    how often the audit evaluated its cuts there, how many entropies it
    solved there, and the entropy of every cut as the audit then held it.
    Return too the product groups the audit valued each point on, read from the
    ensemble it was given there.  No point may keep a split entropy of a group
    that its ensemble does not have."""
    counts = [0, 0]  # cut evaluations, entropy solves
    stale = []  # (point, group) of the entries that outlive their group
    latest = {}
    series = []
    states = [trace.initial]
    partitions = []
    cut_entropies, solve, replay_events = audit._cut_entropies, engine.split_entropies, audit.replay_events
    parties = range(1, trace.n_parties + 1)

    def evaluating(ens, cuts, cache):
        counts[0] += 1
        partitions.append(ens.groups)
        entropies = cut_entropies(ens, cuts, cache)
        groups = set(map(frozenset, ens.groups))
        stale.extend((len(partitions) - 1, key) for key, (_, solved, _) in cache.items()
                     if solved and key not in groups)
        for mask, value in zip(cuts.masks.tolist(), entropies):
            latest[frozenset(p for p in parties if mask >> p & 1)] = value
        return entropies

    def solving(ens, splits):
        splits = list(splits)
        counts[1] += len(splits)
        return solve(ens, splits)

    def recording(initial, events):
        for step, ev, ens in replay_events(initial, events):
            series.append((*counts, dict(latest)))  # the point before this event is complete
            counts[:] = [0, 0]
            states.append(ens)
            yield step, ev, ens
        series.append((*counts, dict(latest)))

    monkeypatch.setattr(audit, "_cut_entropies", evaluating)
    monkeypatch.setattr(engine, "split_entropies", solving)
    monkeypatch.setattr(audit, "replay_events", recording)
    report = audit.audit_trace(trace, bundle)
    assert report.replayed
    assert stale == []
    return report, states, series, partitions


def assert_series_matches_the_per_branch_formula(trace, states, series):
    assert len(states) == len(series) == len(trace.events) + 1
    for step, (ens, (_, _, entropies)) in enumerate(zip(states, series)):
        assert set(entropies) == set(party_cuts(trace.n_parties))
        for cut, value in entropies.items():
            assert abs(value - reference_entropy(ens, cut)) <= 1e-12, (step, sorted(cut))


def assert_groups_partition_the_registry(states, partitions):
    """At every point of the replay the groups are disjoint and cover the registry,
    and they are the engine's factors: the replayed ensemble has the same groups,
    and each of its branches holds one factor of the group's size per group."""
    assert len(partitions) == len(states)
    for step, (ens, groups) in enumerate(zip(states, partitions)):
        covered = frozenset().union(*groups)
        assert sum(map(len, groups)) == len(covered) and covered == set(ens.registry), step
        assert tuple(ens.groups) == tuple(groups), step
        assert all([f.shape for f in b.factors] == [(1 << len(g),) for g in groups] for b in ens.branches), step


@pytest.mark.parametrize("protocol", cli.PROTOCOLS)
def test_monotone_series_matches_the_per_branch_formula(monkeypatch, protocol):
    run, _ = cli._simulate(protocol, REPLAY_N.get(protocol, 3), np.random.default_rng(7), 1,
                           engine.DEFAULT_MAX_QUBITS)
    _, states, series, partitions = audit_monotone_series(monkeypatch, run.trace, star_bundle(run))
    assert_series_matches_the_per_branch_formula(run.trace, states, series)
    assert_groups_partition_the_registry(states, partitions)


def slot_split(slots, cut):
    """The split ``cut`` makes of a group's ``slots``: the mask over the slots of
    the side holding party 1 or of the other side, whichever is smaller."""
    side = sum(1 << j for j, q in enumerate(slots) if cut >> q.party & 1)
    return min(side, ((1 << len(slots)) - 1) ^ side)


def walked_cut_entropies(groups, cut_masks, cache):
    """The reference for ``audit._cut_entropies`` given its cache: every group
    walked against every cut, each cut's terms added in group order."""
    entropies = [0.0] * len(cut_masks)
    for group in groups:
        slots, solved, _ = cache[frozenset(group)]
        for i, cut in enumerate(cut_masks):
            split = slot_split(slots, cut)
            if split:
                entropies[i] += solved[split]
    return entropies


@pytest.mark.parametrize("protocol", cli.PROTOCOLS)
def test_cut_entropies_equal_the_walk_of_every_group_against_every_cut(protocol):
    run, _ = cli._simulate(protocol, REPLAY_N.get(protocol, 3), np.random.default_rng(7), 1,
                           engine.DEFAULT_MAX_QUBITS)
    trace = run.trace
    cuts = audit._Cuts(trace.n_parties)
    cache, fresh = {}, {}
    entropies = audit._cut_entropies(trace.initial, cuts, cache)
    assert entropies.tolist() == walked_cut_entropies(trace.initial.groups, cuts.masks.tolist(), cache)
    for _, ev, ens in audit.replay_events(trace.initial, trace.events):
        cache = audit._carry(cache, ev, fresh)
        entropies = audit._cut_entropies(ens, cuts, cache)
        assert entropies.tolist() == walked_cut_entropies(ens.groups, cuts.masks.tolist(), cache), ev
        # no entry outlives its group with a solved split
        assert {key for key, (_, solved, _) in cache.items() if solved} <= set(map(frozenset, ens.groups)), ev


def random_trace(data):
    """A replayable trace on 2..4 parties: a random initial state over up to four
    qubits, then random events of every kind that changes the state, POVM
    records and messages, "stray" gates on two parties declared local to one of
    them, "joins": a one-party gate that joins a fresh qubit to the group of
    another, then a discard of the fresh qubit that brings that group back whole,
    and "teleports": a consumed ebit (a, b), a Bell measurement that discards a
    qubit q of the party of a with a, in either order, then a correction at b.  A
    teleport may be a near miss, which the replay must not take for one: a gate on
    q and a, or a measurement of a or b, before the Bell measurement, or a Bell
    measurement that keeps its targets.  Each event is applied as it is drawn, so
    a measurement records its true distribution."""
    n = data.draw(st.integers(min_value=2, max_value=4), label="n")
    party = st.integers(min_value=1, max_value=n)
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2 ** 32 - 1), label="seed"))
    owners = data.draw(st.lists(party, max_size=4), label="initial owners")
    registry = tuple(QubitId(p, f"i{j}") for j, p in enumerate(owners))
    initial = oracles.one_branch(gates.random_state(1 << len(registry), rng), registry)
    ens, events, labels = initial, [], iter(f"x{i}" for i in itertools.count())
    measured = []  # (index, outcome length) of measurements every branch records

    def local(minimum):
        """Up to two distinct qubits of one party, when some party holds ``minimum``."""
        parties = sorted({q.party for q in ens.registry
                          if sum(r.party == q.party for r in ens.registry) >= minimum})
        if not parties:
            return None
        p = data.draw(st.sampled_from(parties))
        held = [q for q in ens.registry if q.party == p]
        return p, tuple(data.draw(st.permutations(held))[:data.draw(st.integers(minimum, min(2, len(held))))])

    for _ in range(data.draw(st.integers(min_value=6, max_value=16), label="length")):
        kind = data.draw(st.sampled_from(["allocate", "consume", "gate", "stray", "join", "teleport",
                                          "conditional", "measure", "bell", "povm", "relabel", "relocate",
                                          "oracle", "coalesce", "message"]))
        room = ens.num_qubits <= 6
        picked = local(2 if kind == "bell" else 1)
        ev = None
        drawn = []  # the events of a join
        if kind == "allocate" and room:
            p = data.draw(party)
            count = data.draw(st.integers(1, 2))
            ev = Allocate(p, tuple(QubitId(p, next(labels)) for _ in range(count)),
                          "".join(data.draw(st.sampled_from("01")) for _ in range(count)))
        elif kind == "consume" and room:
            a, b = data.draw(st.permutations(range(1, n + 1)))[:2]
            ev = EbitConsume((a, b), (QubitId(a, next(labels)), QubitId(b, next(labels))))
        elif kind == "gate" and picked:
            p, targets = picked
            ev = LocalGate(p, targets, gates.haar_unitary(1 << len(targets), rng))
        elif kind == "stray" and len({q.party for q in ens.registry}) >= 2:
            first = data.draw(st.sampled_from(ens.registry))
            second = data.draw(st.sampled_from([q for q in ens.registry if q.party != first.party]))
            ev = LocalGate(first.party, (first, second), gates.haar_unitary(4, rng))
        elif kind == "join" and room and ens.registry:
            a = data.draw(st.sampled_from(ens.registry))
            fresh = QubitId(a.party, next(labels))
            drawn = [Allocate(a.party, (fresh,), "0"), LocalGate(a.party, (a, fresh), gates.haar_unitary(4, rng)),
                     LocalMeasure(a.party, (fresh,), "computational", True, ens.measurement_count, ())]
            measured.append((ens.measurement_count, 1))
        elif kind == "teleport" and room and ens.registry:
            q = data.draw(st.sampled_from(ens.registry))
            r = data.draw(st.sampled_from([p for p in range(1, n + 1) if p != q.party]))
            a, b = QubitId(q.party, next(labels)), QubitId(r, next(labels))
            miss = data.draw(st.sampled_from(["none", "gate", "measure", "keep"]), label="near miss")
            drawn = [EbitConsume((q.party, r), (a, b))]
            if miss == "gate":
                drawn.append(LocalGate(q.party, (q, a), gates.haar_unitary(4, rng)))
            elif miss == "measure":
                half = data.draw(st.sampled_from([a, b]))
                drawn.append(LocalMeasure(half.party, (half,), "computational", False, ens.measurement_count, ()))
                measured.append((ens.measurement_count, 1))
            index = ens.measurement_count + (miss == "measure")
            drawn += [LocalMeasure(q.party, tuple(data.draw(st.permutations([q, a]))), "bell", miss != "keep",
                                   index, ()),
                      LocalGate(r, (b,), cases=tuple(sorted(gates.TELEPORT_CORRECTIONS.items())),
                                conditional_on=index)]
            measured.append((index, 2))
        elif kind == "conditional" and picked and measured:
            (p, targets), (index, width) = picked, data.draw(st.sampled_from(measured))
            cases = tuple((format(code, f"0{width}b"), gates.haar_unitary(1 << len(targets), rng))
                          for code in range(1 << width))
            ev = LocalGate(p, targets, cases=cases, conditional_on=index)
        elif kind in ("measure", "bell") and picked:
            p, targets = picked
            targets = targets[:2] if kind == "bell" else targets
            ev = LocalMeasure(p, targets, "bell" if kind == "bell" else "computational",
                              data.draw(st.booleans()), ens.measurement_count, ())
            measured.append((ens.measurement_count, len(targets)))
        elif kind == "povm" and picked:
            p, targets = picked
            u = gates.haar_unitary(1 << len(targets), rng)
            povm = engine.Povm(tuple(np.outer(column, column.conj()) for column in u.T))
            ev = LocalMeasure(p, targets, "povm", False, ens.measurement_count, (), povm)
        elif kind == "relabel" and ens.registry:
            old = data.draw(st.sampled_from(ens.registry))
            ev = Relabel(old, QubitId(old.party, next(labels)))
        elif kind == "relocate" and ens.registry:
            ev = Relocate(data.draw(st.sampled_from(ens.registry)), data.draw(party))
        elif kind == "oracle" and ens.num_qubits >= 2:
            size = data.draw(st.integers(2, min(3, ens.num_qubits)))
            targets = tuple(data.draw(st.permutations(ens.registry))[:size])
            ev = CollectiveOracle(tuple(sorted({q.party for q in targets})), targets,
                                  Permutation(tuple(data.draw(st.permutations(range(1, len(targets) + 1))))))
        elif kind == "coalesce":
            ev, measured = Coalesce(), []  # merged branches may forget their records
        elif kind == "message":
            a, b = data.draw(st.permutations(range(1, n + 1)))[:2]
            ev = ClassicalMessage(a, b, Fraction(1))
        for ev in drawn if ev is None else [ev]:
            ens, dist = ev.apply(ens)
            if dist is not None:
                ev = dataclasses.replace(ev, distribution=tuple(sorted(dist.items())))
            events.append(ev)
    return ProtocolTrace(n, initial, events)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_monotone_series_of_random_traces_matches_the_per_branch_formula(data):
    trace = load_trace(dump_trace(random_trace(data)))  # the load walks the events the replay walks
    with pytest.MonkeyPatch.context() as monkeypatch:
        report, states, series, partitions = audit_monotone_series(
            monkeypatch, trace, graphs.GraphBundle(trace.n_parties, None, None))
    assert "replay" not in [v.check for v in report.violations]
    strays = [step for step, ev in enumerate(trace.events)
              if isinstance(ev, LocalGate) and len({q.party for q in ev.targets}) > 1]
    assert [v.step for v in report.violations if v.check == "locality"] == strays
    assert_series_matches_the_per_branch_formula(trace, states, series)
    assert_groups_partition_the_registry(states, partitions)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_carried_cut_vectors_equal_fresh_ones_bit_for_bit(data):
    """At every step of a random trace, the cut values the replay carries equal,
    bit for bit, those of a fresh valuation from the carried split entropies: the
    vectors rebuilt from an empty cache given only those entropies, and the walk of
    every group against every cut.  A fresh solve of every split agrees to 1e-12;
    it need not agree bit for bit, as a carried split was solved on an earlier
    state with the same spectrum."""
    trace = random_trace(data)
    cuts = audit._Cuts(trace.n_parties)
    cache, fresh = {}, {}
    states = itertools.chain([(None, None, trace.initial)], audit.replay_events(trace.initial, trace.events))
    for _, ev, ens in states:
        if ev is not None:
            cache = audit._carry(cache, ev, fresh)
        carried = audit._cut_entropies(ens, cuts, cache)
        entries = {key: (slots, dict(solved), None) for key, (slots, solved, _) in cache.items()}
        rebuilt = audit._cut_entropies(ens, cuts, entries)
        assert carried.tobytes() == rebuilt.tobytes(), ev
        assert carried.tolist() == walked_cut_entropies(ens.groups, cuts.masks.tolist(), cache), ev
        assert np.abs(carried - audit._cut_entropies(ens, cuts, {})).max(initial=0.0) <= 1e-12, ev


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_the_load_walk_of_qubit_ids_follows_the_replayed_registry(data):
    # what each event names, removes and adds, walked without amplitudes, leaves the
    # ids of the registry its apply makes
    trace = random_trace(data)
    ens = trace.initial
    ids = set(ens.registry)
    for ev in trace.events:
        track_ids(ids, ev, ens.max_qubits)
        ens, _ = ev.apply(ens)
        assert ids == set(ens.registry), ev


@st.composite
def party_ensembles(draw):
    """A random ensemble of pure branches over 1..6 qubits held by parties 1..n;
    some branches are basis states, whose spectra are mostly zeros."""
    n = draw(st.integers(min_value=2, max_value=4))
    owners = draw(st.lists(st.integers(min_value=1, max_value=n), min_size=1, max_size=6))
    registry = tuple(QubitId(p, f"x{i}") for i, p in enumerate(owners))
    basis_states = draw(st.lists(st.booleans(), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    weights = rng.random(len(basis_states)) + 0.1
    branches = []
    for basis_state, weight in zip(basis_states, weights / weights.sum()):
        if basis_state:
            vec = np.zeros(1 << len(registry), dtype=complex)
            vec[rng.integers(len(vec))] = 1.0
        else:
            vec = gates.random_state(1 << len(registry), rng)
        branches.append((float(weight), vec))
    return n, engine.BranchEnsemble.from_vectors(registry, branches, engine.DEFAULT_MAX_QUBITS)


@given(party_ensembles())
@settings(max_examples=200, deadline=None)
def test_cut_entropy_matches_the_per_branch_formula(case):
    n, ens = case
    for cut in party_cuts(n):
        value = engine.entanglement_entropy(ens, cut, universe=range(1, n + 1))
        assert abs(value - reference_entropy(ens, cut)) <= 1e-12


@st.composite
def grouped_party_ensembles(draw):
    """A random ensemble of 1..4 branches, each a product over 1..4 groups of 1..6
    qubits, the qubits held by parties 1..n for n in 2..4; a group of an even
    size may be split in halves."""
    n = draw(st.integers(min_value=2, max_value=4))
    sizes = draw(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4))
    n_branches = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    groups, start = [], 0
    for k in sizes:
        groups.append(tuple(QubitId(int(rng.integers(1, n + 1)), f"x{start + j}") for j in range(k)))
        start += k
    weights = rng.random(n_branches) + 0.1
    branches = [engine.Branch(float(w), tuple(gates.random_state(1 << k, rng) for k in sizes), {})
                for w in weights / weights.sum()]
    return n, engine.BranchEnsemble(tuple(q for g in groups for q in g), branches, engine.DEFAULT_MAX_QUBITS, 0,
                                    tuple(groups))


@given(grouped_party_ensembles())
@settings(max_examples=200, deadline=None)
def test_the_engine_and_the_audit_give_one_value_per_cut(case):
    """The engine's cut entropy is the audit's, to the bit: both solve each split
    on the side the engine picks and add a cut's group terms in group order."""
    n, ens = case
    cuts = audit._Cuts(n)
    for mask, value in zip(cuts.masks.tolist(), audit._cut_entropies(ens, cuts, {})):
        side = [p for p in range(1, n + 1) if mask >> p & 1]
        assert engine.entanglement_entropy(ens, side, universe=range(1, n + 1)) == value, side


def test_monotone_values_every_cut_at_every_step_and_solves_only_after_state_changes(monkeypatch):
    # the golden trace holds every event kind, a same-party relabel, a POVM record,
    # gates at one party within one group and a relocation across parties.  Appended:
    # a party-3 gate joins a new qubit 3:k4 to the group of 3:q3, whose cuts split off
    # 2:q1 alone, and a relocation of 3:k4 to party 1 then makes sides no step solved
    text = (ROOT / "fixtures" / "golden_trace.jsonl").read_text(encoding="utf-8")
    q3, k4 = QubitId(3, "q3"), QubitId(3, "k4")
    appended = [Allocate(3, (k4,), "0"), LocalGate(3, (q3, k4), gates.cnot_unitary()), Relocate(k4, 1)]
    trace = load_trace(text + "".join(json.dumps(event_record(ev)) + "\n" for ev in appended))
    _, _, series, partitions = audit_monotone_series(
        monkeypatch, trace, graphs.GraphBundle(trace.n_parties, None, None))
    assert [evaluations for evaluations, _, _ in series] == [1] * len(series)
    assert all(set(entropies) == set(party_cuts(trace.n_parties)) for _, _, entropies in series)
    kept = set()  # the kinds of event after which every split entropy is carried over
    for ev, groups, (_, solves, _) in zip(trace.events, partitions, series[1:]):
        if (isinstance(ev, (ClassicalMessage, DecodedBits, EbitCreate, Coalesce))
                or (isinstance(ev, LocalMeasure) and ev.basis == "povm")
                or (isinstance(ev, Relabel) and ev.old.party == ev.new.party)
                or (isinstance(ev, LocalGate) and len({q.party for q in ev.targets}) == 1
                    and any(set(ev.targets) <= set(g) for g in groups))):
            assert solves == 0, ev
            kept.add(type(ev).__name__)
    assert kept == {"ClassicalMessage", "DecodedBits", "EbitCreate", "Coalesce", "LocalMeasure", "Relabel",
                    "LocalGate"}
    # the joining gate solves the split {2:q1} of its new group, the relocation the
    # sides {1:k4} and {2:q1, 1:k4} that it makes
    assert [solves for _, solves, _ in series[-2:]] == [1, 2]


def distinct_splits(group, n):
    """The distinct splits the cuts of 1..n make of ``group``, as party masks."""
    mask = oracles.party_mask(q.party for q in group)
    return {min(cut & mask, ~cut & mask) for cut in oracles.cut_masks(n)} - {0}


def test_a_step_solves_only_the_splits_of_the_groups_its_event_named(monkeypatch):
    # the golden trace's phase gate on 2:a2 acts within the ebit {2:a2, 3:a3}; the
    # teleported state is a group of its own across parties 2 and 3.  A unitary at
    # one party keeps every spectrum, so the gate solves nothing.  The first Bell
    # measurement teleports 1:q1 with the fresh half 1:a0 of the ebit (1:a0, 2:a1): it
    # renames 1:q1 to 2:a1 in the initial group, so the cut {1, 2} | {3} now splits
    # that group as {2:a1, 2:q2} | {3:q3}, a split solved before the event; it solves nothing
    trace = load_trace((ROOT / "fixtures" / "golden_trace.jsonl").read_text(encoding="utf-8"))
    bundle = graphs.GraphBundle(trace.n_parties, None, None)
    _, _, series, partitions = audit_monotone_series(monkeypatch, trace, bundle)
    step = next(i for i, ev in enumerate(trace.events) if isinstance(ev, LocalGate) and ev.matrix is not None)
    targets = trace.events[step].targets
    named = [g for g in partitions[step + 1] if not set(g).isdisjoint(targets)]
    others = [g for g in partitions[step + 1] if set(g).isdisjoint(targets)]
    assert [frozenset(g) for g in named] == [frozenset({QubitId(2, "a2"), QubitId(3, "a3")})]
    assert sum(len(distinct_splits(g, trace.n_parties)) for g in others) > 0
    assert len(distinct_splits(named[0], trace.n_parties)) == 1 and series[step + 1][1] == 0

    step = next(i for i, ev in enumerate(trace.events) if isinstance(ev, LocalMeasure) and ev.basis == "bell")
    [left] = [g for g in partitions[step + 1] if g not in partitions[step]]
    assert frozenset(left) == frozenset({QubitId(2, "q2"), QubitId(3, "q3"), QubitId(2, "a1")})
    assert len(distinct_splits(left, trace.n_parties)) == 1 and series[step + 1][1] == 0


def measured_trace(n, initial, events):
    """The trace of ``events`` from ``initial``, each measurement recording the
    distribution its replay gives."""
    ens, recorded = initial, []
    for ev in events:
        ens, dist = ev.apply(ens)
        recorded.append(ev if dist is None else dataclasses.replace(ev, distribution=tuple(sorted(dist.items()))))
    return ProtocolTrace(n, initial, recorded)


@pytest.mark.parametrize("basis,targets", [("computational", ("a",)), ("bell", ("a", "d"))])
def test_a_measurement_within_a_group_solves_its_splits_again(monkeypatch, basis, targets):
    # the measurement keeps every qubit, so its group keeps its key; its spectra
    # change, so it is solved again, while the ebit between parties 2 and 3 is kept
    registry = (QubitId(1, "a"), QubitId(1, "d"), QubitId(2, "b"), QubitId(3, "c"))
    initial = oracles.one_branch(gates.random_state(16, np.random.default_rng(11)), registry)
    trace = measured_trace(3, initial, [
        EbitConsume((2, 3), (QubitId(2, "x"), QubitId(3, "y"))),
        LocalMeasure(1, tuple(QubitId(1, label) for label in targets), basis, False, 0, ()),
    ])
    _, states, series, _ = audit_monotone_series(monkeypatch, trace, graphs.GraphBundle(3, None, None))
    assert_series_matches_the_per_branch_formula(trace, states, series)
    # the 3 splits of the initial group, the ebit's 1, the initial group's 3 again
    assert [solves for _, solves, _ in series] == [3, 1, 3]


TELEPORTED, KEPT, HALF, FAR = QubitId(1, "q"), QubitId(2, "x"), QubitId(1, "a"), QubitId(3, "b")


@pytest.mark.parametrize("near_miss,discard", [
    ((), True),
    ((LocalGate(1, (TELEPORTED, HALF), gates.cnot_unitary()),), True),
    ((LocalMeasure(1, (HALF,), "computational", False, 0, ()),), True),
    ((LocalMeasure(3, (FAR,), "computational", False, 0, ()),), True),
    ((), False),
], ids=["teleport", "gate-on-q-and-a", "measure-a", "measure-b", "bell-keeps-its-targets"])
def test_only_a_bell_discard_with_a_fresh_half_is_a_teleport(monkeypatch, near_miss, discard):
    # 1:q is entangled with 2:x, and (1:a, 3:b) is a consumed ebit.  A Bell measurement
    # that discards q with a leaves q's state at b, up to a Pauli, so it renames q to b
    # and solves nothing.  After a gate or a measurement on a half, or without the
    # discard, it acts on q's group like any other measurement
    initial = oracles.one_branch(gates.random_state(4, np.random.default_rng(3)), (TELEPORTED, KEPT))
    index = sum(isinstance(ev, LocalMeasure) for ev in near_miss)  # of the Bell measurement
    trace = measured_trace(3, initial, [
        EbitConsume((1, 3), (HALF, FAR)),
        *near_miss,
        LocalMeasure(1, (TELEPORTED, HALF), "bell", discard, index, ()),
        LocalGate(3, (FAR,), cases=tuple(sorted(gates.TELEPORT_CORRECTIONS.items())), conditional_on=index),
    ])
    _, states, series, _ = audit_monotone_series(monkeypatch, trace, graphs.GraphBundle(3, None, None))
    assert_series_matches_the_per_branch_formula(trace, states, series)
    bell_solves = series[-2][1]
    assert (bell_solves == 0) == (near_miss == () and discard), bell_solves


def test_a_gate_with_a_target_at_another_party_is_solved_again():
    # a CNOT from 1:a to 2:b declared local to party 1 makes |+>|0> a Bell pair
    registry = (QubitId(1, "a"), QubitId(2, "b"))
    initial = oracles.one_branch(np.array([1, 1, 0, 0]) / np.sqrt(2), registry)
    trace = ProtocolTrace(2, initial, [LocalGate(1, registry, gates.cnot_unitary())])
    report = audit.audit_trace(trace, graphs.GraphBundle(2, None, None))
    assert [(v.check, v.step) for v in report.violations] == [("locality", 0), ("replay-monotonicity", 0)]
    assert report.violations[0].detail == "event declared local to party 1 targets [2:b]"
    assert report.violations[1].detail == "cut [1]: monotone rose from 0.000000000000 to 1.000000000000"


def test_a_gate_that_joins_groups_is_solved_again(monkeypatch):
    # a party-1 CNOT joins the ebit {1:a, 2:b} with 1:c; discarding 1:c brings the
    # group {1:a, 2:b} back, now in a product state in each branch
    a, b, c = QubitId(1, "a"), QubitId(2, "b"), QubitId(1, "c")
    initial = engine.BranchEnsemble.vacuum()
    trace = measured_trace(2, initial, [
        EbitConsume((1, 2), (a, b)),
        Allocate(1, (c,), "0"),
        LocalGate(1, (a, c), gates.cnot_unitary()),
        LocalMeasure(1, (c,), "computational", True, 0, ()),
    ])
    _, states, series, _ = audit_monotone_series(monkeypatch, trace, graphs.GraphBundle(2, None, None))
    assert_series_matches_the_per_branch_formula(trace, states, series)
    assert [entropies[frozenset({1})] for _, _, entropies in series] == pytest.approx([0, 1, 1, 1, 0])


def test_a_relocation_across_parties_solves_its_group_again(monkeypatch):
    # moving 2:b to party 1 keeps every label of the group and its split by the
    # cut {1} | {2}, but the party-1 part of that split is now {a, b}, not {a}
    registry = (QubitId(1, "a"), QubitId(2, "b"), QubitId(2, "c"))
    initial = oracles.one_branch(gates.random_state(8, np.random.default_rng(5)), registry)
    trace = ProtocolTrace(2, initial, [Relocate(QubitId(2, "b"), 1)])
    _, states, series, _ = audit_monotone_series(monkeypatch, trace, graphs.GraphBundle(2, None, None))
    assert_series_matches_the_per_branch_formula(trace, states, series)
    assert [solves for _, solves, _ in series] == [1, 1]


@pytest.mark.parametrize("protocol,n,solves,most_calls", [("star-op", 6, 72, 25), ("perm-comm", 9, 9, 9),
                                                          ("ps", 4, 13, 8)])
def test_replay_solves_and_eigensolver_calls_are_pinned(monkeypatch, tmp_path, protocol, n, solves, most_calls):
    """``--seed 1`` replay audits solve a split again only after an event that may
    change its spectrum (not after a rename, a teleport among them, or a unitary on
    one side of it), and make one ``eigvalsh`` call per side size per step."""
    assert cli.main(["simulate", protocol, "--n", str(n), "--seed", "1", "--output", str(tmp_path)]) == 0
    trace = load_trace((tmp_path / f"{protocol}_trace.jsonl").read_text(encoding="utf-8"))
    bundle = graphs.import_json((tmp_path / f"{protocol}_graphs.json").read_text(encoding="utf-8"))
    counts = {"solves": 0, "calls": 0}
    split_entropies, eigvalsh = engine.split_entropies, np.linalg.eigvalsh

    def solving(ens, splits):
        splits = list(splits)
        counts["solves"] += len(splits)
        return split_entropies(ens, splits)

    def calling(matrices):
        counts["calls"] += 1
        return eigvalsh(matrices)

    monkeypatch.setattr(engine, "split_entropies", solving)
    monkeypatch.setattr(np.linalg, "eigvalsh", calling)
    report = audit.audit_trace(trace, bundle)
    assert report.ok and report.replayed
    assert counts["solves"] == solves and counts["calls"] <= most_calls


def move_first_relabel(records, party):
    """Point the first relabel's new id at ``party`` (label "moved"), and every
    later reference to that qubit at the moved one, so the trace still loads."""
    first = next(r for r in records if r["kind"] == "relabel")
    old, moved = first["new"], [party, "moved"]
    first["new"] = moved

    def rename(value):
        if isinstance(value, list):
            return moved if value == old else [rename(v) for v in value]
        return {k: rename(v) for k, v in value.items()} if isinstance(value, dict) else value

    at = records.index(first)
    records[at + 1:] = [rename(r) for r in records[at + 1:]]


def test_cross_party_relabel_report_is_exact(tmp_path):
    assert cli.main(["simulate", "star-op", "--n", "3", "--seed", "7", "--output", str(tmp_path)]) == 0
    records = [json.loads(ln) for ln in (tmp_path / "star-op_trace.jsonl").read_text(encoding="utf-8").splitlines()]
    move_first_relabel(records, 2)
    trace = load_trace("".join(json.dumps(r) + "\n" for r in records))
    bundle = graphs.import_json((tmp_path / "star-op_graphs.json").read_text(encoding="utf-8"))
    report = audit.audit_trace(trace, bundle)
    assert report.checks_run == STATIC_CHECKS + ["replay-monotonicity"]
    assert [(v.check, v.detail, v.step) for v in report.violations] == [
        ("locality", "relabel moves 1:a1 to party 2; qubit conveyance must be a relocate event", 4),
        ("locality", "event declared local to party 1 targets [2:moved]", 12),
        ("locality", "event declared local to party 1 targets [2:moved]", 14),
        ("replay-monotonicity", "cut [1, 3]: monotone rose from 1.000000000000 to 1.335798095618", 4),
        ("replay-monotonicity", "cut [1]: monotone rose from 2.335798095618 to 2.888747130175", 12),
        ("replay-monotonicity", "cut [1, 3]: monotone rose from 1.335798095618 to 1.888747130175", 12),
    ]


@pytest.mark.parametrize("replay", [True, False])
def test_one_party_oracle_exempts_no_cut(tmp_path, replay):
    # ps runs its permutation as an oracle held by the hub alone; forged creates on
    # every hub pair must then be caught across every cut
    assert cli.main(["simulate", "ps", "--n", "4", "--seed", "7", "--output", str(tmp_path)]) == 0
    text = (tmp_path / "ps_trace.jsonl").read_text(encoding="utf-8")
    trace = load_trace(text + "".join(f'{{"kind": "ebit_create", "pair": [1, {spoke}]}}\n' * 13
                                      for spoke in (2, 3, 4)))
    assert [(ev.parties, ev.targets[0].party) for ev in trace.events if isinstance(ev, CollectiveOracle)] == [
        ((1,), 1)]
    bundle = graphs.import_json((tmp_path / "ps_graphs.json").read_text(encoding="utf-8"))
    report = audit.audit_trace(trace, bundle, replay=replay)
    assert report.replayed == replay
    assert [v.check for v in report.violations] == ["cut-entanglement"] * 7
    assert sorted(v.detail.split(":")[0] for v in report.violations) == sorted(
        f"cut {sorted(cut)}" for cut in party_cuts(4))
