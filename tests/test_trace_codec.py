"""Trace codec: a golden round trip, and malformed traces rejected at load
with the line number (exit 2 from ``ebitnet audit``, never a traceback)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ebitnet import cli
from ebitnet.ledger import dump_trace, load_trace

ROOT = Path(__file__).resolve().parent.parent
# Written by the trace writer that predates the field-driven codec; kept frozen.
GOLDEN = ROOT / "fixtures" / "golden_trace.jsonl"
EVENT_KINDS = {
    "allocate", "ebit_consume", "ebit_create", "local_gate", "local_measure", "message",
    "decoded", "oracle", "relocate", "relabel", "coalesce",
}


def golden_records() -> list[dict]:
    return [json.loads(ln) for ln in GOLDEN.read_text(encoding="utf-8").splitlines()]


def as_text(records) -> str:
    return "".join(json.dumps(r) + "\n" for r in records)


def test_golden_trace_round_trips_byte_for_byte():
    text = GOLDEN.read_text(encoding="utf-8")
    records = golden_records()
    assert {r["kind"] for r in records[1:]} == EVENT_KINDS
    local_gates = [r for r in records if r["kind"] == "local_gate"]
    assert any("matrix" in r for r in local_gates) and any("cases" in r for r in local_gates)
    assert {r["basis"] for r in records if r["kind"] == "local_measure"} == {"bell", "povm"}
    assert any(r.get("supplementary") for r in records if r["kind"] == "message")
    assert dump_trace(load_trace(text)) == text


def _drop_n_parties(header):
    del header["n_parties"]


def _truncate_amplitudes(header):
    header["branches"][0]["amplitudes"].pop()


def _double_amplitudes(header):
    header["branches"][0]["amplitudes"] = [[2 * re, 2 * im] for re, im in header["branches"][0]["amplitudes"]]


def _nan_amplitude(header):
    header["branches"][0]["amplitudes"][0] = [float("nan"), 0.0]


def _duplicate_qubit(header):
    header["registry"][1] = header["registry"][0]


def _stranger_qubit(header):
    header["registry"][0][0] = 9


HEADER_FAULTS = {
    "no-n_parties": _drop_n_parties,
    "string-n_parties": lambda h: h.update(n_parties="3"),
    "zero-n_parties": lambda h: h.update(n_parties=0),
    "truncated-amplitudes": _truncate_amplitudes,
    "doubled-amplitudes": _double_amplitudes,
    "nan-amplitude": _nan_amplitude,
    "duplicate-qubit": _duplicate_qubit,
    "stranger-qubit": _stranger_qubit,
    "no-branches": lambda h: h.update(branches=[]),
}


@pytest.mark.parametrize("mutate", HEADER_FAULTS.values(), ids=HEADER_FAULTS.keys())
def test_malformed_header_is_rejected_on_line_1(mutate):
    records = golden_records()
    mutate(records[0])
    with pytest.raises(ValueError, match=r"^trace line 1: "):
        load_trace(as_text(records))


@pytest.mark.parametrize("kind,key,value", [
    ("allocate", "party", 4),
    ("ebit_consume", "pair", [1, 7]),
    ("ebit_create", "pair", [0, 2]),
    ("local_gate", "targets", [[5, "a1"]]),
    ("local_measure", "party", -1),
    ("message", "to", 7),
    ("decoded", "at", 4),
    ("oracle", "parties", [2, 5]),
    ("relocate", "to", 4),
    ("relabel", "new", [9, "q1"]),
])
def test_out_of_range_party_is_rejected_with_its_line(kind, key, value):
    records = golden_records()
    line = next(i for i, r in enumerate(records, start=1) if r["kind"] == kind)
    records[line - 1][key] = value
    with pytest.raises(ValueError, match=rf"^trace line {line}: party -?\d+ is outside 1\.\.3"):
        load_trace(as_text(records))


@pytest.mark.parametrize("record", [
    {"kind": "local_gate", "party": 1, "targets": [[1, "q1"]]},
    {"kind": "ebit_consume", "pair": [1, 2], "qubits": [[1, "x"], [2, "y"], [2, "z"]]},
    {"kind": "local_gate", "party": 1, "targets": [[1, "q1"]], "matrix": [[[1.0, 0.0, 0.0]]]},
    {"kind": "local_measure", "party": 1, "targets": [[1, "q1"]], "basis": "bell",
     "discard": True, "index": 0, "distribution": [0.5, 0.5]},
    ["not", "an", "object"],
    {"kind": "allocate", "party": 1, "qubits": [[1, "z0"], [1, "z1"]], "init": "22"},
    {"kind": "allocate", "party": 1, "qubits": [[1, "z0"], [1, "z1"]], "init": "0"},
    {"kind": "allocate", "party": 1, "qubits": [], "init": ""},
    {"kind": "local_measure", "party": 1, "targets": [[1, "q1"]], "basis": "diagonal",
     "discard": True, "index": 0, "distribution": {"0": 0.5, "1": 0.5}},
    {"kind": "local_gate", "party": 1, "targets": [[1, "q1"]], "matrix": [[[1.0, 0.0]]]},
    {"kind": "local_gate", "party": 1, "targets": [[1, "q1"]], "conditional_on": 0,
     "cases": {"0": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], "1": [[[1.0, 0.0]]]}},
    {"kind": "oracle", "label": "U", "parties": [1, 2], "targets": [[1, "q1"], [2, "q2"]],
     "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
    {"kind": "message", "from": 2, "to": 2, "bits": "2"},
    {"kind": "message", "from": 1, "to": 2, "bits": "-3"},
    {"kind": "decoded", "at": 2, "from": 2, "bits": "2"},
    {"kind": "decoded", "at": 2, "from": 1, "bits": "-1/2"},
], ids=["no-matrix-or-cases", "three-qubit-ebit", "matrix-not-pairs", "distribution-not-object", "not-object",
        "init-22", "init-too-short", "allocate-nothing", "unknown-basis", "gate-1x1", "case-1x1",
        "oracle-2x2-on-two", "message-to-self", "negative-message", "decode-from-self", "negative-decode"])
def test_malformed_event_is_rejected_with_its_line(record):
    records = golden_records()[:3] + [record]
    with pytest.raises(ValueError, match=r"^trace line 4: "):
        load_trace(as_text(records))


def _star_trace(tmp_path) -> tuple[list[dict], Path]:
    assert cli.main(["simulate", "star-op", "--n", "3", "--seed", "7", "--output", str(tmp_path)]) == 0
    text = (tmp_path / "star-op_trace.jsonl").read_text(encoding="utf-8")
    return [json.loads(ln) for ln in text.splitlines()], tmp_path / "star-op_graphs.json"


def _pair_1_7(records):
    next(r for r in records if r["kind"] == "ebit_consume")["pair"] = [1, 7]


@pytest.mark.parametrize("mutate,line", [
    (lambda records: _drop_n_parties(records[0]), 1),
    (lambda records: _truncate_amplitudes(records[0]), 1),
    (_pair_1_7, 2),
], ids=["no-n_parties", "truncated-amplitudes", "pair-1-7"])
@pytest.mark.parametrize("flags", [[], ["--no-replay"]], ids=["replay", "no-replay"])
def test_audit_of_malformed_trace_exits_two_without_traceback(tmp_path, capsys, mutate, line, flags):
    records, graphs_file = _star_trace(tmp_path)
    capsys.readouterr()
    mutate(records)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(as_text(records), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "ebitnet.cli", "audit", "--trace", str(bad), "--graphs", str(graphs_file),
         *flags],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert f"trace line {line}: " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_line_numbers_count_blank_lines():
    records = golden_records()
    records[1]["pair"] = [1, 9]
    text = as_text(records[:1]) + "\n" + as_text(records[1:])
    with pytest.raises(ValueError, match=r"^trace line 3: party 9"):
        load_trace(text)
