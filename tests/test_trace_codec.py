"""Trace codec: a golden round trip, and malformed traces rejected at load
with the line number (exit 2 from ``ebitnet audit``, never a traceback)."""

import base64
import binascii
import json
import os
import re
import string
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebitnet import cli, gates
from ebitnet.engine import Gate, QubitId
from ebitnet.ledger import (
    BASE64_MIN_ENTRIES,
    LocalGate,
    ProtocolTrace,
    _complex_in,
    _complex_out,
    dump_trace,
    event_record,
    load_trace,
)

import oracles

ROOT = Path(__file__).resolve().parent.parent
# Written by the trace writer that predates the field-driven codec; kept frozen apart
# from the header's format (line 1), the oracle record (line 15) of ebitnet-trace/2 and
# the POVM elements (line 17) of ebitnet-trace/3.  Every array in it has fewer than 64
# entries, so ebitnet-trace/4 writes all of them as [re, im] pairs, as /3 did.
GOLDEN = ROOT / "fixtures" / "golden_trace.jsonl"
EVENT_KINDS = {
    "allocate", "ebit_consume", "ebit_create", "local_gate", "local_measure", "message",
    "decoded", "oracle", "relocate", "relabel", "coalesce",
}


# the computational projectors on one qubit, as [re, im] pairs
Z0 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
Z1 = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


def _c128(values) -> dict:
    """A complex array in the base64 form of a trace, encoded here without the codec."""
    arr = np.asarray(values, dtype=complex)
    return {"shape": list(arr.shape), "c128": base64.b64encode(arr.astype("<c16").tobytes()).decode("ascii")}


def _entries(array) -> np.ndarray:
    """The complex entries of an array as a trace writes it, in either form."""
    if isinstance(array, dict):
        return np.frombuffer(base64.b64decode(array["c128"]), "<c16").reshape(array["shape"])
    pairs = np.array(array, dtype=float)
    return pairs[..., 0] + 1j * pairs[..., 1]


def golden_records() -> list[dict]:
    return [json.loads(ln) for ln in GOLDEN.read_text(encoding="utf-8").splitlines()]


def as_text(records) -> str:
    """The trace lines of ``records``; a record that is a string is written as it is."""
    return "".join((r if isinstance(r, str) else json.dumps(r)) + "\n" for r in records)


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


def _nan_amplitude_base64(header):
    """The first branch's amplitudes in the base64 form, which the load takes at any
    size, with the first of them NaN."""
    amplitudes = _entries(header["branches"][0]["amplitudes"]).copy()
    amplitudes[0] = np.nan
    header["branches"][0]["amplitudes"] = _c128(amplitudes)


def _duplicate_qubit(header):
    header["registry"][1] = header["registry"][0]


def _stranger_qubit(header):
    header["registry"][0][0] = 9


def _negative_p(header):
    """The one branch twice, weighted 1.5 and -0.5: the weights still sum to 1."""
    branch = header["branches"][0]
    header["branches"] = [dict(branch, p=1.5), dict(branch, p=-0.5)]


def _string_amplitudes(header):
    header["branches"][0]["amplitudes"] = [[str(re), str(im)] for re, im in header["branches"][0]["amplitudes"]]


def _without(*keys):
    """The header without ``keys``: dropping its registry leaves a header without an initial state."""
    def mutate(header):
        for key in keys:
            del header[key]
    return mutate


HEADER_FAULTS = {
    "no-n_parties": _drop_n_parties,
    "string-n_parties": lambda h: h.update(n_parties="3"),
    "zero-n_parties": lambda h: h.update(n_parties=0),
    "truncated-amplitudes": _truncate_amplitudes,
    "doubled-amplitudes": _double_amplitudes,
    "nan-amplitude": _nan_amplitude,
    "nan-amplitude-base64": _nan_amplitude_base64,
    "duplicate-qubit": _duplicate_qubit,
    "stranger-qubit": _stranger_qubit,
    "no-branches": lambda h: h.update(branches=[]),
    "negative-p": _negative_p,
    "string-p": lambda h: h["branches"][0].update(p="1.0"),
    "bool-p": lambda h: h["branches"][0].update(p=True),
    "p-too-large-for-a-float": lambda h: h["branches"][0].update(p=10**400),
    "string-amplitudes": _string_amplitudes,
    "registry-over-cap": lambda h: h.update(max_qubits=2),
    "float-max_qubits": lambda h: h.update(max_qubits=30.7),
    "string-max_qubits": lambda h: h.update(max_qubits="24"),
    "format-1": lambda h: h.update(format="ebitnet-trace/1"),
    "format-2": lambda h: h.update(format="ebitnet-trace/2"),
    "no-format": lambda h: h.pop("format"),
    "max_qubits-without-registry": _without("registry", "branches"),
    "branches-without-registry": _without("registry", "max_qubits"),
    "bad-max_qubits-and-branches-without-registry": lambda h: (h.clear(), h.update(
        kind="header", format="ebitnet-trace/4", n_parties=2, max_qubits="x", branches=7)),
}


@pytest.mark.parametrize("mutate", HEADER_FAULTS.values(), ids=HEADER_FAULTS.keys())
def test_malformed_header_is_rejected_on_line_1(mutate):
    records = golden_records()
    mutate(records[0])
    with pytest.raises(ValueError, match=r"^trace line 1: "):
        load_trace(as_text(records))


@pytest.mark.parametrize("amplitude,loads", [([0.6, 0.8], True), ([0.0, -1.0], True), ([0.5, 0.0], False)])
def test_a_branch_over_no_qubits_needs_an_amplitude_of_modulus_one(amplitude, loads):
    """The branches of an empty registry keep no factor; the load still checks their one amplitude."""
    header = {"kind": "header", "format": "ebitnet-trace/4", "n_parties": 2, "registry": [],
              "branches": [{"p": 1.0, "amplitudes": [amplitude]}]}
    if loads:
        assert load_trace(as_text([header])).initial.groups == ()
    else:
        with pytest.raises(ValueError, match=r"^trace line 1: initial state: branch norm 0\.5 drifted from 1$"):
            load_trace(as_text([header]))


def _with_key(line: int, **extra) -> list[dict]:
    """The golden records with ``extra`` keys added to the record on ``line``."""
    records = golden_records()
    records[line - 1].update(extra)
    return records


def _with_branch_key() -> list[dict]:
    records = golden_records()
    records[0]["branches"][0]["q"] = 0
    return records


@pytest.mark.parametrize("records,message", [
    ([{"kind": "header", "format": "ebitnet-trace/4", "n_parties": 2},
      {"kind": "message", "from": 1, "to": 2, "bits": "2", "supplementry": True}],
     "trace line 2: a message record has no key 'supplementry'"),
    (golden_records()[:3] + [{"kind": "local_gate", "party": 2, "targets": [[2, "q2"]], "extra": 1,
                              "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}],
     "trace line 4: a local_gate record has no key 'extra'"),
    (_with_key(3, zz=0, aa=0), "trace line 3: a %s record has no key 'aa'" % golden_records()[2]["kind"]),
    (_with_key(1, extra=1), "trace line 1: a header record has no key 'extra'"),
    (_with_branch_key(), "trace line 1: branches[0] has no key 'q'"),
    ([{"kind": "header", "format": "ebitnet-trace/4", "n_parties": 2, "max_qubits": "x", "branches": 7}],
     "trace line 1: a header record without a registry has no key 'branches'"),
    ([{"kind": "header", "format": "ebitnet-trace/4", "n_parties": 2, "max_qubits": 24}],
     "trace line 1: a header record without a registry has no key 'max_qubits'"),
], ids=["misspelt-message", "gate-extra", "first-of-two", "header-extra", "branch-extra",
        "bare-header-branches", "bare-header-max-qubits"])
def test_a_record_refuses_a_key_its_kind_does_not_have(records, message):
    """A key no field of the record's kind reads is refused by name, the first in sorted
    order, not read past: a misspelt "supplementary" would charge a message in full.  A
    header without a registry has no initial state, so no cap or branches to read."""
    with pytest.raises(ValueError) as got:
        load_trace(as_text(records))
    assert str(got.value) == message


@pytest.mark.parametrize("record,message", [
    ({"kind": "message", "from": 1, "bits": "2"}, "a message record needs the key 'to'"),
    ({"kind": "message", "to": 2, "from": 1}, "a message record needs the key 'bits'"),
    ({"kind": "decoded", "from": 1, "bits": "2"}, "a decoded record needs the key 'at'"),
    ({"kind": "relocate", "qubit": [1, "q1"]}, "a relocate record needs the key 'to'"),
    ({"kind": "ebit_create"}, "a ebit_create record needs the key 'pair'"),
    ({"kind": "message", "from": 1, "to": None, "bits": "2"}, "a message record needs the key 'to'"),
    ({"kind": "local_measure", "party": 2, "targets": [[2, "q2"]], "basis": "computational", "discard": False,
      "index": 1}, "a local_measure record needs the key 'distribution'"),
], ids=["message-to", "message-bits", "decoded-at", "relocate-to", "create-pair", "to-null", "distribution"])
def test_a_record_without_a_required_key_is_refused_by_its_json_name(record, message):
    """A field without a default is a required key, named as the trace writes it."""
    with pytest.raises(ValueError, match=f"^trace line 4: {re.escape(message)}$"):
        load_trace(as_text(golden_records()[:3] + [record]))


def test_a_key_with_a_default_may_be_left_out():
    trace = load_trace(as_text(golden_records()[:3] + [
        {"kind": "message", "from": 1, "to": 2, "bits": "2"}, {"kind": "decoded", "at": 2, "from": 1, "bits": "2"},
        {"kind": "local_gate", "party": 2, "targets": [[2, "q2"]], "matrix": [[[0.0, 0.0], [1.0, 0.0]],
                                                                          [[1.0, 0.0], [0.0, 0.0]]]}]))
    message, decoded, gate = trace.events[-3:]
    assert message.supplementary is False and decoded.payload == "" and gate.cases is None


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
    {"kind": "oracle", "parties": [2, 3], "targets": [[2, "q2"], [3, "q3"]], "permutation": [1]},
    {"kind": "message", "from": 2, "to": 2, "bits": "2"},
    {"kind": "message", "from": 1, "to": 2, "bits": "-3"},
    {"kind": "decoded", "at": 2, "from": 2, "bits": "2"},
    {"kind": "decoded", "at": 2, "from": 1, "bits": "-1/2"},
    {"kind": "ebit_consume", "pair": [1, 3], "qubits": [[1, "x"], [2, "y"]]},
    {"kind": "oracle", "parties": [1, 2, 3], "targets": [[2, "q2"]], "permutation": [1]},
    {"kind": "relabel", "old": [1, "nowhere"], "new": [1, "q9"]},
    {"kind": "allocate", "party": 2, "qubits": [[2, "q2"]], "init": "0"},
    {"kind": "allocate", "party": 1, "qubits": [[1, f"z{i}"] for i in range(22)], "init": "0" * 22},
    {"kind": "oracle", "parties": [2, 3], "targets": [[2, "q2"], [3, "q3"]], "permutation": [2, 1, 3]},
    {"kind": "oracle", "parties": [2, 3], "targets": [[2, "q2"], [3, "q3"]], "permutation": [1, 1]},
    {"kind": "oracle", "parties": [2, 3], "targets": [[2, "q2"], [3, "q3"]], "permutation": [2, 1.0]},
    {"kind": "oracle", "parties": [2, 3], "targets": [[2, "q2"], [3, "q3"]], "permutation": [2, True]},
    {"kind": "oracle", "parties": [2, 3], "targets": [[2, "q2"], [3, "q3"]], "permutation": "21"},
    {"kind": "oracle", "parties": [2], "targets": [[2, "q2"], [2, "q2"]], "permutation": [2, 1]},
    {"kind": "local_measure", "party": 2.0, "targets": [[2, "q2"]], "basis": "computational",
     "discard": False, "index": 1, "distribution": {"0": 0.5, "1": 0.5}},
    {"kind": "local_measure", "party": "2", "targets": [[2, "q2"]], "basis": "computational",
     "discard": False, "index": 1, "distribution": {"0": 0.5, "1": 0.5}},
    {"kind": "local_measure", "party": True, "targets": [[2, "q2"]], "basis": "computational",
     "discard": False, "index": 1, "distribution": {"0": 0.5, "1": 0.5}},
    {"kind": "local_measure", "party": 2, "targets": [[2, "q2"]], "basis": "computational",
     "discard": "false", "index": 1, "distribution": {"0": 0.5, "1": 0.5}},
    {"kind": "local_measure", "party": 2, "targets": [[2, "q2"]], "basis": "computational",
     "discard": False, "index": 1.0, "distribution": {"0": 0.5, "1": 0.5}},
    {"kind": "message", "from": 1, "to": 2.9, "bits": "2"},
    {"kind": "message", "from": 1, "to": 2, "bits": "2", "supplementary": "false"},
    {"kind": "local_gate", "party": 2, "targets": [[2, "q2"]], "conditional_on": "0",
     "cases": {"0": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}},
    {"kind": "ebit_consume", "pair": [1, 2.0], "qubits": [[1, "x"], [2, "y"]]},
    {"kind": "allocate", "party": 2, "qubits": [[2.0, "z0"]], "init": "0"},
    {"kind": "message", "from": 1, "to": 2, "bits": 0.1},
    {"kind": "message", "from": 1, "to": 2, "bits": 2},
    {"kind": "message", "from": 1, "to": 2, "bits": "1/0"},
    {"kind": "decoded", "at": 2, "from": 1, "bits": "2", "payload": 11},
    {"kind": "allocate", "party": 1, "qubits": [[1, "z0"]], "init": 0},
    {"kind": "allocate", "party": 1, "qubits": [[1, 5]], "init": "0"},
    {"kind": "local_measure", "party": 2, "targets": [[2, "q2"]], "basis": "computational",
     "discard": False, "index": 1, "distribution": {"0": "0.5", "1": "0.5"}},
    {"kind": "local_measure", "party": 2, "targets": [[2, "q2"]], "basis": "computational",
     "discard": False, "index": 1, "distribution": {"0": True, "1": False}},
    {"kind": "local_gate", "party": 2, "targets": [[2, "q2"]], "matrix": [[[2.0, 0.0], [0.0, 0.0]],
                                                                          [[0.0, 0.0], [1.0, 0.0]]]},
    {"kind": "local_gate", "party": 2, "targets": [[2, "q2"]], "matrix": [[[float("nan"), 0.0], [0.0, 0.0]],
                                                                          [[0.0, 0.0], [1.0, 0.0]]]},
    {"kind": "local_gate", "party": 2, "targets": [[2, "q2"]], "conditional_on": 0,
     "cases": {"0": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
               "1": [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}},
    {"kind": "allocate", "party": 1, "qubits": [[2, "z0"]], "init": "0"},
    {"kind": "local_measure", "party": 2, "targets": [[2, "q2"]], "basis": "bell",
     "discard": False, "index": 1, "distribution": {"0": 1.0}, "povm": [Z0, Z1]},
    {"kind": "local_measure", "party": 2, "targets": [[2, "q2"]], "basis": "povm",
     "discard": False, "index": 1, "distribution": {"0": 1.0}, "povm": "Z"},
    {"kind": "local_gate", "party": 2, "targets": [[2, "q2"]], "matrix": [[["1.0", "0.0"], ["0.0", "0.0"]],
                                                                          [["0.0", "0.0"], ["1.0", "0.0"]]]},
    {"kind": "local_measure", "party": 2, "targets": [[2, "q2"]], "basis": "computational",
     "discard": False, "index": 1, "distribution": {"0": 10**400, "1": 0.5}},
    {"kind": "local_gate", "party": 1, "targets": [], "matrix": [[[1.0, 0.0]]]},
    {"kind": "local_gate", "party": 1, "targets": [], "conditional_on": 0, "cases": {"0": [[[1.0, 0.0]]]}},
    {"kind": "local_measure", "party": 1, "targets": [], "basis": "computational",
     "discard": False, "index": 1, "distribution": {"": 1.0}},
], ids=["no-matrix-or-cases", "three-qubit-ebit", "matrix-not-pairs", "distribution-not-object", "not-object",
        "init-22", "init-too-short", "allocate-nothing", "unknown-basis", "gate-1x1", "case-1x1",
        "oracle-2x2-on-two", "message-to-self", "negative-message", "decode-from-self", "negative-decode",
        "consume-qubits-off-pair", "oracle-parties-off-targets", "relabel-unknown-qubit",
        "allocate-existing-qubit", "allocate-over-cap", "permutation-longer-than-targets",
        "permutation-not-bijective", "permutation-float-entry", "permutation-bool-entry",
        "permutation-string", "oracle-target-twice", "party-float", "party-string", "party-bool",
        "discard-string", "index-float", "message-to-float", "supplementary-string",
        "conditional-on-string", "pair-float-party", "qubit-float-party", "bits-float", "bits-integer",
        "bits-divide-by-zero", "payload-integer", "init-integer", "label-integer", "distribution-strings",
        "distribution-bool", "gate-not-unitary", "gate-nan", "case-not-unitary", "allocate-off-party",
        "bell-with-elements", "povm-string", "gate-strings", "distribution-too-large-for-a-float",
        "gate-no-targets", "case-no-targets", "measure-no-targets"])
def test_malformed_event_is_rejected_with_its_line(record):
    records = golden_records()[:3] + [record]
    with pytest.raises(ValueError, match=r"^trace line 4: "):
        load_trace(as_text(records))


GATE_1Q = {"kind": "local_gate", "party": 2, "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
MEASURE_1Q = {"kind": "local_measure", "party": 2, "targets": [[2, "q2"]], "basis": "computational",
              "discard": False, "index": 1, "distribution": {"0": 0.5, "1": 0.5}}


def _without_branches(records):
    del records[0]["branches"]


@pytest.mark.parametrize("mutate,line,message", [
    (lambda rs: rs.append(dict(GATE_1Q, targets=[1])), 4, "targets: expected a [party, label] qubit id, got 1"),
    (lambda rs: rs.append({"kind": "allocate", "party": 1, "qubits": [[1, "a0", 3]], "init": "0"}), 4,
     "qubits: expected a [party, label] qubit id, got [1, 'a0', 3]"),
    (lambda rs: rs.append(dict(GATE_1Q, targets={"a": 1})), 4,
     "targets: expected a list of [party, label] qubit ids, got {'a': 1}"),
    (lambda rs: rs.append({"kind": ["local_gate"]}), 4, "unknown event kind ['local_gate']"),
    (lambda rs: rs.append(dict(MEASURE_1Q, distribution=[0.5, 0.5])), 4,
     "distribution: expected an object of probabilities, got [0.5, 0.5]"),
    (_without_branches, 1, 'branches: a header with a registry needs a list of {"p", "amplitudes"} objects'),
    (lambda rs: rs[0]["branches"][0].pop("p"), 1,
     'branches: a header with a registry needs a list of {"p", "amplitudes"} objects'),
    (lambda rs: rs[0].update(registry=5), 1, "registry: expected a list of [party, label] qubit ids, got 5"),
    (lambda rs: rs.append({"kind": "oracle", "parties": [2], "targets": [[2, "q2"]], "permutation": 5}), 4,
     "permutation: expected a list of integers, got 5"),
    (lambda rs: rs.append({"kind": "oracle", "parties": {"2": 1}, "targets": [[2, "q2"]], "permutation": [1]}), 4,
     "parties: expected a list of parties, got {'2': 1}"),
    (lambda rs: rs.append(dict(MEASURE_1Q, basis="povm", distribution={"0": 1.0}, povm=5)), 4,
     "povm: expected a list of POVM elements, got 5"),
    (lambda rs: rs.append({"kind": "ebit_create", "pair": {"1": 2}}), 4, "pair: expected a pair, got {'1': 2}"),
    (lambda rs: rs.append({"kind": "ebit_consume", "pair": [1, 2], "qubits": [[1, "x"], [2, "y"], [2, "z"]]}), 4,
     "qubits: expected a pair, got [[1, 'x'], [2, 'y'], [2, 'z']]"),
], ids=["qubit-integer", "qubit-three-entries", "targets-object", "kind-list", "distribution-list",
        "header-without-branches", "branch-without-p", "registry-integer", "permutation-integer", "parties-object", "povm-integer",
        "pair-object", "pair-of-three-qubits"])
def test_a_field_of_the_wrong_json_shape_is_named_with_what_it_expects(mutate, line, message):
    records = golden_records()[:3]
    mutate(records)
    with pytest.raises(ValueError, match=f"^trace line {line}: {re.escape(message)}$"):
        load_trace(as_text(records))


GRAMMAR = 'is not an integer or "p/q" string of at most 64 characters'


@pytest.mark.parametrize("bits,message", [
    ("1e5000", f"amount '1e5000' {GRAMMAR}"),
    ("1e400", f"amount '1e400' {GRAMMAR}"),
    ("0.5", f"amount '0.5' {GRAMMAR}"),
    (" 2", f"amount ' 2' {GRAMMAR}"),
    ("2_0", f"amount '2_0' {GRAMMAR}"),
    ("1" * 65, f"amount '{'1' * 20}'... (65 characters) {GRAMMAR}"),
    ("2/0", "amount '2/0' divides by zero"),
    ("-3", "a message carries a nonnegative number of bits, got -3"),
], ids=["exponent", "exponent-401-digits", "decimal", "space", "underscore", "65-characters", "divide-by-zero",
        "negative"])
def test_message_bits_follow_the_graph_cell_grammar(tmp_path, capsys, bits, message):
    """An amount is read by the one rule of graph cells, so "1e5000" is refused at load, with
    its line, and not once the audit prints 5000 digits; the star-op n=3 trace's first
    message is on line 4."""
    records = golden_records()[:3] + [{"kind": "message", "from": 1, "to": 2, "bits": bits}]
    with pytest.raises(ValueError, match=f"^trace line 4: {re.escape(message)}$"):
        load_trace(as_text(records))
    records, graphs_file = _star_trace(tmp_path)
    assert next(i for i, r in enumerate(records, start=1) if r["kind"] == "message") == 4
    _first("message", "bits", bits)(records)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(as_text(records), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["audit", "--trace", str(bad), "--graphs", str(graphs_file), "--no-replay"]) == 2
    assert capsys.readouterr().err == f"error: trace: trace line 4: {message}\n"


@pytest.mark.parametrize("bits,amount", [("2", 2), ("7/2", Fraction(7, 2)), ("007", 7), ("-0", 0), ("6/4", Fraction(3, 2)),
                                         ("9" * 64, int("9" * 64))])
def test_message_bits_in_the_grammar_load_exactly(bits, amount):
    records = golden_records()[:3] + [{"kind": "message", "from": 1, "to": 2, "bits": bits}]
    assert load_trace(as_text(records)).events[-1].bits == amount


NESTED = "[" * 100_000 + "]" * 100_000
COALESCE = '{"kind": "coalesce"}'
MALFORMED_LINES = {
    "bom-header": (1, "\ufeff" + json.dumps(golden_records()[0])),
    "bom-event": (2, "\ufeff" + COALESCE),
    "space-then-bom": (2, " \ufeff" + COALESCE),
    "leading-and-trailing-whitespace": (2, " \t" + COALESCE + "\t "),
    "extra-data": (2, COALESCE + " {}"),
    "truncated-object": (2, COALESCE[:-3]),
    "top-level-array": (2, "[1, 2]"),
    "number": (2, "5"),
    "string": (2, '"coalesce"'),
    "nested-too-deeply": (2, NESTED),
}


@pytest.mark.parametrize("line,text", MALFORMED_LINES.values(), ids=MALFORMED_LINES.keys())
def test_a_line_is_refused_as_json_loads_refuses_it(line, text):
    """The one decoder of trace lines gives each line the text it had when every line was
    read by ``json.loads``, the byte-order mark included; a line it reads loads as its object."""
    lines = [json.dumps(golden_records()[0]), COALESCE]
    lines[line - 1] = text
    refusal = oracles.json_line_refusal(text)
    if refusal is None:
        assert load_trace("\n".join(lines)).events == load_trace(as_text(golden_records()[:1]) + COALESCE).events
    else:
        with pytest.raises(ValueError, match=f"^trace line {line}: {re.escape(refusal)}$"):
            load_trace("\n".join(lines))


def _scaled_identity(dim, first):
    """The dim x dim identity with ``first`` as its first entry, as [re, im] pairs."""
    return [[[first if i == j == 0 else float(i == j), 0.0] for j in range(dim)] for i in range(dim)]


def test_first_non_unitary_gate_is_reported_across_matrix_sizes():
    """The load checks each matrix as its line is read, and names the earliest
    bad one: the 4x4 matrix on line 5, not the 2x2 on line 6."""
    gate = {"kind": "local_gate", "party": 2}
    records = golden_records()[:3] + [
        dict(gate, targets=[[2, "q2"]], matrix=_scaled_identity(2, 1.0)),
        dict(gate, targets=[[2, "q2"], [2, "a1"]], matrix=_scaled_identity(4, 1.5)),
        dict(gate, targets=[[2, "q2"]], matrix=_scaled_identity(2, 2.0)),
    ]
    with pytest.raises(ValueError, match=r"^trace line 5: matrix is not unitary \(deviation 1\.250e\+00\)$"):
        load_trace(as_text(records))


def test_first_non_unitary_case_of_a_conditional_gate_is_reported():
    """One check covers a conditional gate's cases together: its first case is
    unitary, its third and fourth are not, and the third is named by its own
    deviation, when the event is built and when its trace line is loaded."""
    scales = (1.0, 1.0, 1.5, 2.0)  # deviations 0, 0, 1.25 and 3
    refusal = r"matrix is not unitary \(deviation 1\.250e\+00\)"
    cases = tuple((k, np.diag([s, 1.0]) @ m) for s, (k, m) in zip(scales, gates.TELEPORT_CORRECTIONS.items()))
    with pytest.raises(ValueError, match=f"^{refusal}$"):
        LocalGate(2, (QubitId(2, "q2"),), cases=cases, conditional_on=0)
    record = {"kind": "local_gate", "party": 2, "targets": [[2, "q2"]], "conditional_on": 0,
              "cases": {k: _complex_out(m) for k, m in cases}}
    with pytest.raises(ValueError, match=f"^trace line 4: {refusal}$"):
        load_trace(as_text(golden_records()[:3] + [record]))


def test_first_bad_line_is_reported_whatever_its_fault():
    """A non-unitary gate on line 4 is reported before a gate on an unknown qubit on line 5."""
    gate = {"kind": "local_gate", "party": 2}
    records = golden_records()[:3] + [
        dict(gate, targets=[[2, "q2"]], matrix=_scaled_identity(2, 2.0)),
        dict(gate, targets=[[2, "zz"]], matrix=_scaled_identity(2, 1.0)),
    ]
    with pytest.raises(ValueError, match=r"^trace line 4: matrix is not unitary \(deviation 3\.000e\+00\)$"):
        load_trace(as_text(records))
    records[3]["matrix"] = _scaled_identity(2, 1.0)
    with pytest.raises(ValueError, match=r"^trace line 5: qubit 2:zz is not in the registry$"):
        load_trace(as_text(records))


@pytest.mark.parametrize("form", ["matrix", "cases"])
def test_gate_local_gate_and_trace_load_give_one_shape_refusal(form):
    """A 4x4 unitary on one qubit is refused by the one gate-matrix rule,
    ``engine.check_unitary``, in one text: by ``engine.Gate``, by ``LocalGate``
    with it as its matrix or as a case, and by the load of a trace line that holds it."""
    refusal = r"a gate on 1 qubits needs a 2x2 matrix, got shape \(4, 4\)"
    if form == "matrix":
        event, record = {"matrix": np.eye(4)}, {"matrix": _scaled_identity(4, 1.0)}
    else:
        event = {"cases": (("0", np.eye(2)), ("1", np.eye(4))), "conditional_on": 0}
        record = {"cases": {"0": _scaled_identity(2, 1.0), "1": _scaled_identity(4, 1.0)}, "conditional_on": 0}
    with pytest.raises(ValueError, match=f"^{refusal}$"):
        Gate((QubitId(2, "q2"),), np.eye(4))
    with pytest.raises(ValueError, match=f"^{refusal}$"):
        LocalGate(2, (QubitId(2, "q2"),), **event)
    with pytest.raises(ValueError, match=f"^trace line 4: {refusal}$"):
        load_trace(as_text(golden_records()[:3] + [{"kind": "local_gate", "party": 2, "targets": [[2, "q2"]],
                                                    **record}]))


def test_registry_may_reach_max_qubits_but_not_pass_it():
    """The golden trace holds 3 qubits after its line 3, under a cap of 24."""
    records = golden_records()
    assert len(records[0]["registry"]) == 3 and records[0]["max_qubits"] == 24
    records[0]["max_qubits"] = 3
    load_trace(as_text(records[:1]))
    records[0]["max_qubits"] = 2
    with pytest.raises(ValueError, match=r"^trace line 1: a registry of 3 qubits exceeds max_qubits 2$"):
        load_trace(as_text(records[:1]))

    def allocate(k):
        return {"kind": "allocate", "party": 1, "qubits": [[1, f"z{i}"] for i in range(k)], "init": "0" * k}

    records[0]["max_qubits"] = 24
    load_trace(as_text(records[:3] + [allocate(21)]))
    with pytest.raises(ValueError, match=r"^trace line 4: adding 22 qubits to 3 would exceed the registry cap of 24$"):
        load_trace(as_text(records[:3] + [allocate(22)]))


def _star_trace(tmp_path) -> tuple[list[dict], Path]:
    assert cli.main(["simulate", "star-op", "--n", "3", "--seed", "7", "--output", str(tmp_path)]) == 0
    text = (tmp_path / "star-op_trace.jsonl").read_text(encoding="utf-8")
    return [json.loads(ln) for ln in text.splitlines()], tmp_path / "star-op_graphs.json"


def _pair_1_7(records):
    next(r for r in records if r["kind"] == "ebit_consume")["pair"] = [1, 7]


def _pair_1_3(records):
    """The first consume (qubits at parties 1 and 2) charged to the pair 1-3."""
    next(r for r in records if r["kind"] == "ebit_consume")["pair"] = [1, 3]


def _forged_oracle(records):
    """20 forged creates between parties 2 and 3, then an identity oracle on
    party 1's qubit that declares every party, so as to exempt every cut."""
    records += [{"kind": "ebit_create", "pair": [2, 3]}] * 20
    records.append({"kind": "oracle", "parties": [1, 2, 3], "targets": [[1, "q1"]], "permutation": [1]})


def _nowhere(records):
    """The first relabel renames a qubit that is not in the registry."""
    next(r for r in records if r["kind"] == "relabel")["old"] = [1, "nowhere"]


def _allocate_existing(records):
    records.insert(1, {"kind": "allocate", "party": 1, "qubits": [[1, "q1"]], "init": "0"})


def _nested(records):
    """A second line of 100,000 nested JSON arrays, deeper than the decoder recurses."""
    records.insert(1, "[" * 100_000 + "]" * 100_000)


def _first(kind, key, value):
    """The first record of ``kind`` with ``key`` set to ``value``."""
    def mutate(records):
        next(r for r in records if r["kind"] == kind)[key] = value
    return mutate


def _string_distribution(records):
    """The first measurement's outcome probabilities written as JSON strings."""
    measure = next(r for r in records if r["kind"] == "local_measure")
    measure["distribution"] = {k: str(v) for k, v in measure["distribution"].items()}


def _huge_distribution(records):
    """The first measurement's first outcome probability written as a 401-digit JSON integer,
    which no float holds."""
    measure = next(r for r in records if r["kind"] == "local_measure")
    measure["distribution"][min(measure["distribution"])] = 10**400


def _nan_in_gate(cases: bool):
    """A NaN in the first entry of the first local gate's matrix, or of its first case matrix;
    the star-op n=3 trace has a conditional gate on line 5, its 2x2 cases as [re, im] pairs,
    and the hub's 8x8 Haar matrix on line 14, in base64."""
    def mutate(records):
        gate = next(r for r in records if r["kind"] == "local_gate" and ("cases" in r) == cases)
        if cases:
            next(iter(gate["cases"].values()))[0][0] = [float("nan"), 0.0]
        else:
            matrix = _entries(gate["matrix"]).copy()
            matrix[0, 0] = np.nan
            gate["matrix"] = _c128(matrix)
    return mutate


def _padding_bits_set(array):
    """The last base64 digit before the padding one step on: the same bytes, but
    padding bits that are not zero.  An 8x8 matrix is 1024 bytes, so its text ends
    in two padding characters and its last digit carries 4 padding bits."""
    digits = string.ascii_uppercase + string.ascii_lowercase + string.digits + "+/"
    text = array["c128"]
    assert text.endswith("==")
    array["c128"] = text[:-3] + digits[digits.index(text[-3]) + 1] + "=="


# faults of a base64 array, each with the start of the message its load fails with: (mutation in
# place, message); the reason binascii gives for text that is not base64 varies with the Python version
BASE64_FAULTS = {
    "c128-truncated": (lambda a: a.update(c128=a["c128"][:-4]), "c128 holds 1023 bytes, shape [8, 8] needs 1024"),
    "c128-cut-mid-digit": (lambda a: a.update(c128=a["c128"][:-1]), "c128 is not base64 ("),
    "c128-one-entry-more": (lambda a: a.update(c128=_c128(np.append(_entries(a).ravel(), 0))["c128"]),
                            "c128 holds 1040 bytes, shape [8, 8] needs 1024"),
    "c128-non-canonical": (_padding_bits_set, "c128 is not the canonical base64 of its bytes"),
    "c128-newline": (lambda a: a.update(c128=a["c128"][:8] + "\n" + a["c128"][8:]),
                     "c128 is not base64 ("),
    "c128-not-string": (lambda a: a.update(c128=0), "expected a string, got 0"),
    "shape-missing": (lambda a: a.pop("shape"), "a base64 array takes the keys c128 and shape, got ['c128']"),
    "extra-key": (lambda a: a.update(dtype="<c16"),
                  "a base64 array takes the keys c128 and shape, got ['c128', 'dtype', 'shape']"),
    "shape-string": (lambda a: a.update(shape="8x8"), "shape must be a list of integers, got '8x8'"),
    "shape-negative": (lambda a: a.update(shape=[-8, -8]), "shape [-8, -8] has a negative entry"),
    "shape-float": (lambda a: a.update(shape=[8.0, 8]), "expected an integer, got 8.0"),
    "shape-bool": (lambda a: a.update(shape=[64, True]), "expected an integer, got True"),
    # the product is 2**68 + 64, which is 64 modulo 2**64: np.prod would wrap it round to
    # exactly the entries the text holds
    "shape-past-int64": (lambda a: a.update(shape=[2**62 + 1, 64]),
                         f"c128 holds 1024 bytes, shape [{2**62 + 1}, 64] needs {16 * (2**68 + 64)}"),
}


def _haar_matrix(fault):
    """``fault`` applied to the 8x8 Haar matrix of the star-op n=3 trace (line 14)."""
    def mutate(records):
        fault(next(r for r in records if r["kind"] == "local_gate" and "matrix" in r)["matrix"])
    return mutate


@pytest.mark.parametrize("fault,message", BASE64_FAULTS.values(), ids=BASE64_FAULTS.keys())
def test_malformed_base64_array_is_rejected_with_its_line(tmp_path, fault, message):
    records, _ = _star_trace(tmp_path)
    assert set(records[13]["matrix"]) == {"shape", "c128"}
    _haar_matrix(fault)(records)
    with pytest.raises(ValueError, match=rf"^trace line 14: {re.escape(message)}"):
        load_trace(as_text(records))


def test_nan_in_a_base64_gate_fails_the_unitarity_check(tmp_path):
    records, _ = _star_trace(tmp_path)
    _nan_in_gate(cases=False)(records)
    with pytest.raises(ValueError, match=r"^trace line 14: matrix is not unitary \(deviation nan\)$"):
        load_trace(as_text(records))


def test_a_64x64_haar_gate_survives_dump_and_load_bit_for_bit():
    matrix = gates.haar_unitary(64, np.random.default_rng(3))
    gate = LocalGate(1, tuple(QubitId(1, f"q{i}") for i in range(6)), matrix)
    text = dump_trace(ProtocolTrace(1, events=[gate]))
    assert json.loads(text.splitlines()[1])["matrix"]["shape"] == [64, 64]
    loaded = load_trace(text).events[0].matrix
    assert loaded.dtype == complex and loaded.shape == (64, 64)
    assert loaded.tobytes() == matrix.tobytes()
    assert dump_trace(load_trace(text)) == text


def test_a_pauli_gate_record_is_written_as_in_format_3():
    gate = LocalGate(1, (QubitId(1, "q"),), gates.PAULI_X)
    assert json.dumps(event_record(gate), sort_keys=True) == (
        '{"kind": "local_gate", "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]], '
        '"party": 1, "targets": [[1, "q"]]}')


def test_base64_with_excess_padding_is_not_canonical():
    """48 bytes are 64 digits without padding; ``b64decode`` also takes them with an "=" after."""
    array = _c128([1.0, 1j, -1.0])
    assert _complex_in(array).tobytes() == np.array([1.0, 1j, -1.0]).tobytes()
    with pytest.raises(ValueError, match=r"^c128 is not the canonical base64 of its bytes$"):
        _complex_in(dict(array, c128=array["c128"] + "="))


B64_DIGITS = string.ascii_uppercase + string.ascii_lowercase + string.digits + "+/"


@st.composite
def base64_texts(draw):
    """The base64 of 16 bytes per entry for 0 to 5 entries, so that every length modulo
    3 occurs, then one corrupted character, one "=" too many, or none."""
    data = draw(st.binary(min_size=0, max_size=5).map(lambda b: b"".join(bytes([x]) * 16 for x in b)))
    data = draw(st.binary(min_size=len(data), max_size=len(data))) if draw(st.booleans()) else data
    text = base64.b64encode(data).decode("ascii")
    fault = draw(st.sampled_from(["none", "character", "character", "pad"]))
    if fault == "character" and text:
        at = draw(st.sampled_from(sorted({len(text) - 4, len(text) - 3, len(text) - 2, 0, len(text) // 2})))
        text = text[:at] + draw(st.sampled_from(B64_DIGITS + "=")) + text[at + 1:]
    elif fault == "pad":
        text += "="
    return data, text


@given(base64_texts())
@settings(max_examples=300, deadline=None)
def test_the_pad_bit_check_agrees_with_re_encoding(drawn):
    """A text that decodes strictly to the bytes its shape needs is canonical exactly when
    re-encoding its bytes gives it back; the load checks its padding and pad bits instead."""
    data, text = drawn
    array = {"shape": [len(data) // 16], "c128": text}
    try:
        decoded = base64.b64decode(text, validate=True)
    except binascii.Error:
        decoded = None
    if decoded is None or len(decoded) != len(data):
        with pytest.raises(ValueError, match=r"^c128 (is not base64|holds)"):
            _complex_in(array)
    elif oracles.canonical_base64(text):
        assert _complex_in(array).astype("<c16").tobytes() == decoded
    else:
        with pytest.raises(ValueError, match=r"^c128 is not the canonical base64 of its bytes$"):
            _complex_in(array)


@pytest.mark.parametrize("text,canonical", [("QQ==", True), ("QR==", False), ("QUI=", True), ("QUJ=", False),
                                            ("QUJD", True), ("QUJD=", False), ("QUJD==", False)])
def test_the_oracle_knows_the_forms_strict_decoding_leaves(text, canonical):
    assert oracles.canonical_base64(text) is canonical


_GRID = (np.arange(24) - 1j * np.arange(24)[::-1]).reshape(4, 6) / 7
SMALL_ARRAYS = {
    "transposed-view": _GRID.T,
    "strided-slice": _GRID[1:, ::2],
    "z-times-x": gates.PAULI_Z @ gates.PAULI_X,
    "negative-zeros": np.array([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), -1j]),
    "real-floats": np.array([[-0.0, 2.5], [1e-300, -3.0]]),
    "integers": np.arange(-3, 4),
    "one-d-63-entries": np.exp(1j * np.arange(63)),
    "two-d-63-entries": np.exp(1j * np.arange(63)).reshape(7, 9),
    "three-d-view": _GRID.reshape(2, 3, 4).transpose(2, 0, 1),
    "zero-d": np.asarray(0.5 - 0.25j),
}


@pytest.mark.parametrize("array", SMALL_ARRAYS.values(), ids=SMALL_ARRAYS.keys())
def test_small_arrays_are_written_as_stacked_real_and_imaginary_parts(array):
    """The [re, im] pairs come from a float64 view of the array's entries, and give the
    JSON text of stacked copies of its real and imaginary parts, signs of zeros included."""
    assert np.asarray(array).size < BASE64_MIN_ENTRIES
    assert json.dumps(_complex_out(array)) == json.dumps(oracles.complex_pairs(array))


def test_the_base64_form_starts_at_64_entries():
    assert isinstance(_complex_out(np.zeros(32)), list)
    assert isinstance(_complex_out(np.zeros((4, 8))), list)
    assert _complex_out(np.zeros(64)) == {"shape": [64], "c128": base64.b64encode(bytes(1024)).decode("ascii")}
    assert _complex_out(np.eye(8))["shape"] == [8, 8]


def _max_qubits(cap):
    """The header's registry cap set to ``cap``; the star-op n=3 header holds 3 qubits
    and its first consume, on line 2, adds 2."""
    def mutate(records):
        records[0]["max_qubits"] = cap
    return mutate


# the base64 faults also run through the CLI
CLI_BASE64_FAULTS = ("c128-truncated", "c128-one-entry-more", "c128-non-canonical", "c128-not-string",
                     "shape-missing", "shape-negative", "shape-float", "shape-bool", "shape-past-int64")


@pytest.mark.parametrize("mutate,line", [
    (lambda records: _drop_n_parties(records[0]), 1),
    (lambda records: _truncate_amplitudes(records[0]), 1),
    (lambda records: _negative_p(records[0]), 1),
    (_pair_1_7, 2),
    (_pair_1_3, 2),
    (_forged_oracle, 47),
    (_nowhere, 6),
    (_allocate_existing, 2),
    (_nested, 2),
    (_max_qubits(2), 1),
    (_max_qubits(4), 2),
    (_max_qubits(30.7), 1),
    (_first("header", "format", "ebitnet-trace/1"), 1),
    (_first("local_measure", "party", 2.5), 3),
    (_first("local_measure", "party", "2"), 3),
    (_first("local_measure", "party", True), 3),
    (_first("local_measure", "discard", "false"), 3),
    (_first("message", "to", 1.9), 4),
    (_first("message", "bits", 0.1), 4),
    (_first("message", "bits", 2), 4),
    (_first("message", "bits", "1/0"), 4),
    (_string_distribution, 3),
    (_huge_distribution, 3),
    (lambda records: records[0]["branches"][0].update(p=10**400), 1),
    (_nan_in_gate(cases=True), 5),
    (_nan_in_gate(cases=False), 14),
    (lambda records: _nan_amplitude_base64(records[0]), 1),
] + [(_haar_matrix(BASE64_FAULTS[name][0]), 14) for name in CLI_BASE64_FAULTS],
   ids=["no-n_parties", "truncated-amplitudes", "negative-p", "pair-1-7", "pair-1-3", "forged-oracle",
        "relabel-nowhere", "allocate-existing", "nested-too-deeply", "max-qubits-2", "max-qubits-4", "max-qubits-30.7", "format-1", "party-2.5",
        "party-string", "party-true", "discard-string", "to-1.9", "bits-0.1", "bits-2", "bits-1/0",
        "distribution-strings", "distribution-too-large-for-a-float", "p-too-large-for-a-float", "case-nan", "gate-nan", "nan-amplitude-base64", *CLI_BASE64_FAULTS])
@pytest.mark.parametrize("flags", [[], ["--no-replay"]], ids=["replay", "no-replay"])
def test_audit_of_malformed_trace_exits_two_without_traceback(tmp_path, capsys, mutate, line, flags):
    # in process, an exception that escapes cli.main fails the test
    records, graphs_file = _star_trace(tmp_path)
    capsys.readouterr()
    mutate(records)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(as_text(records), encoding="utf-8")
    assert cli.main(["audit", "--trace", str(bad), "--graphs", str(graphs_file), *flags]) == 2
    assert f"trace line {line}: " in capsys.readouterr().err


@pytest.mark.parametrize("mutate,line", [(_nowhere, 6), (_nested, 2)], ids=["relabel-nowhere", "nested-too-deeply"])
def test_audit_of_malformed_trace_prints_no_traceback_from_the_command_line(tmp_path, mutate, line):
    records, graphs_file = _star_trace(tmp_path)
    mutate(records)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(as_text(records), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "ebitnet.cli", "audit", "--trace", str(bad), "--graphs", str(graphs_file)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert f"trace line {line}: " in proc.stderr
    assert "Traceback" not in proc.stderr


def _povm_elements(elements):
    def mutate(records):
        records[16]["povm"] = elements
    return mutate


def _bell_on_three(records):
    """After line 14, an allocation of two more qubits at party 3 and a Bell
    record on those and the qubit line 14 allocated there."""
    qubits = [[3, "k3"], [3, "b0"], [3, "b1"]]
    records[14:] = [
        {"kind": "allocate", "party": 3, "qubits": qubits[1:], "init": "00"},
        {"kind": "local_measure", "party": 3, "targets": qubits, "basis": "bell", "discard": True,
         "index": 2, "distribution": {"000": 1.0}},
    ]


def _allocate_off_party(records):
    """The allocation at party 3 names its qubit at party 2, and the oracle follows it."""
    records[13]["qubits"] = [[2, "k3"]]
    records[14].update(parties=[2], targets=[[2, "k3"], [2, "q2"]])


@pytest.mark.parametrize("mutate,line", [
    (lambda records: records[16].pop("povm"), 17),
    (_povm_elements([[[[0.5, 0.0] if i == j else [0.0, 0.0] for j in range(4)] for i in range(4)]] * 2), 17),
    (_povm_elements([Z0, Z0]), 17),
    (_povm_elements([[[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]], Z1]), 17),
    (_povm_elements([]), 17),
    (lambda records: records[16].update(discard=True), 17),
    (_allocate_off_party, 14),
    (lambda records: records[0].update(format="ebitnet-trace/2"), 1),
    (_bell_on_three, 16),
    (_povm_elements([[1, 0]]), 17),
], ids=["povm-without-elements", "povm-4x4-on-one-qubit", "povm-not-identity", "povm-nan", "povm-empty",
        "povm-discard", "allocate-off-party", "format-2", "bell-on-three", "povm-element-one-pair"])
@pytest.mark.parametrize("flags", [[], ["--no-replay"]], ids=["replay", "no-replay"])
def test_audit_of_malformed_golden_trace_exits_two_with_its_line(tmp_path, capsys, mutate, line, flags):
    records = golden_records()
    mutate(records)
    bad, graphs_file = tmp_path / "bad.jsonl", tmp_path / "graphs.json"
    bad.write_text(as_text(records), encoding="utf-8")
    graphs_file.write_text(json.dumps({"n": 3, "entanglement": [["0"] * 3] * 3}), encoding="utf-8")
    assert cli.main(["audit", "--trace", str(bad), "--graphs", str(graphs_file), *flags]) == 2
    assert f"trace line {line}: " in capsys.readouterr().err


@pytest.mark.parametrize("elements,message", [
    ([[1, 0]], "POVM element 0 has shape (), not that of a nonempty square matrix"),
    ([[[1, 0], [0, 0]]], "POVM element 0 has shape (2,), not that of a nonempty square matrix"),
    ([[[[1, 0], [0, 0]]]], "POVM element 0 has shape (1, 2), not that of a nonempty square matrix"),
    ([{"shape": [0, 0], "c128": ""}], "POVM element 0 has shape (0, 0), not that of a nonempty square matrix"),
    ([Z0, [[1, 0], [0, 0]]], "POVM element 1 has shape (2,), expected (2, 2)"),
], ids=["one-pair", "a-row", "one-by-two", "empty", "second-a-row"])
def test_a_povm_element_that_is_not_a_square_matrix_is_refused_by_its_shape(elements, message):
    """One [re, im] pair decodes to a 0-d element, whose shape has no first entry to read."""
    records = golden_records()
    records[16]["povm"] = elements
    with pytest.raises(ValueError, match=f"^trace line 17: {re.escape(message)}$"):
        load_trace(as_text(records))


# a trace's top-level values put in place of each key's: every JSON type, ids, pairs and base64
FUZZ_VALUES = (None, True, False, 0, 1, -1, 2**70, 0.5, float("nan"), "", "x", "1/0", [], [1, 2], [[1, 0]],
               [[1, "q1"], [1, "q1"]], {}, {"0": 1.0}, {"shape": [1], "c128": "AAAA"})
FUZZ_RUNS = {"teleport": 2, "star-op": 3, "perm-comm": 3, "perm-entangle": 3, "ps-cp": 3}


def _fuzz_traces() -> dict[str, list[dict]]:
    traces = {"golden": golden_records()}
    for protocol, n in FUZZ_RUNS.items():
        run, _ = cli._simulate(protocol, n, np.random.default_rng(5), 1, 24)
        traces[protocol] = [json.loads(line) for line in dump_trace(run.trace).splitlines()]
    return traces


def test_a_key_dropped_or_replaced_raises_only_a_trace_line_value_error():
    """Each top-level key of each record of six traces, dropped or given each of
    ``FUZZ_VALUES``: the load either reads the trace or refuses it with a
    ValueError naming its line, and no other exception escapes."""
    loads = refused = 0
    for name, records in _fuzz_traces().items():
        for r, record in enumerate(records):
            for key in record:
                for value in (..., *FUZZ_VALUES):
                    changed = dict(record)
                    if value is ...:
                        del changed[key]
                    else:
                        changed[key] = value
                    loads += 1
                    try:
                        load_trace(as_text([*records[:r], changed, *records[r + 1:]]))
                    except ValueError as exc:
                        refused += 1
                        assert re.match(r"trace line \d+: ", str(exc)), (name, r, key, value, exc)
    assert refused > loads // 2


def test_line_numbers_count_blank_lines():
    records = golden_records()
    records[1]["pair"] = [1, 9]
    text = as_text(records[:1]) + "\n" + as_text(records[1:])
    with pytest.raises(ValueError, match=r"^trace line 3: party 9"):
        load_trace(text)
