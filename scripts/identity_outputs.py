#!/usr/bin/env python3
"""Write everything the CLI produces for a fixed set of runs into one directory.

Usage: python scripts/identity_outputs.py [--output DIR]   (default out/identity)

For each protocol spec at seeds 7 and 11 it keeps the files of ``ebitnet
simulate`` and the exit code, stdout and stderr of that command and of
``ebitnet audit`` on its outputs, with and without ``--no-replay``.  It also
records a few usage errors (among them a star run whose n + 2 qubits, and
permutation runs whose 2n qubits, pass the registry cap, and a negative seed),
and audits seeded mutations of the small runs' traces and graph files
(dropped, duplicated and swapped events, re-paired ebits, changed bits,
forged creates, decodes and messages, lowered graph weights, shifted
distributions, a relabel moved across parties, re-pointed consumes, a forged
oracle, a header registry cap below the trace's needs,
every message marked supplementary against graphs that grant no communication,
and every measurement index raised by 5, its corrections left as they were).
Load probes of single values that must make both audits exit 2 come last: a
permutation that is not a bijection or is longer than its targets, a header of
another format; parties, integers, booleans, strings and probabilities given as
another JSON type; a message with a misspelt key; message bits that are not
an exact string amount, or are a string that ``Fraction`` reads but a graph
cell's grammar refuses (an exponent, a decimal); a local gate matrix that is not unitary (a NaN or a doubled entry in [re, im]
pairs); the star-op hub's Haar matrix, which the trace writes as base64 of its
complex128 bytes, with that text truncated or with a NaN written into its
bytes; an allocation at a party other than its qubits'; a local gate on
no qubits; and a header without a registry that still holds a cap and branches.  A header-only trace of 40 parties, more than the default registry
cap, must make both audits exit 2 as well; a checkout whose audit does not
refuse it lists its 2^39 cuts and does not finish.  So must a header cap over
the one in force: 25 on the teleport trace, and 100 on a 40-party header with
one initial qubit (a checkout that trusts the header hangs on the latter).
A header-only trace of 13 parties under ``EBITNET_MAX_QUBITS=12`` must make
both audits exit 2: without an initial state, the cap in force bounds the parties.
So must one of 70 parties under ``EBITNET_MAX_QUBITS=100``: within that cap, but
party 63 on would pass an int64 cut mask's sign bit, and a checkout that lists
its 2^69 cuts does not finish.  So must one of 40 parties under the same cap:
its 2^39 - 1 cut masks would take 4 TiB, past the audit's byte limit, and a
checkout without that limit asks numpy for them and fails with a traceback.
Two cut probes on the teleport trace must make both audits exit 1: three
appended creates of a (1, 2) ebit break the cut-entanglement check, and an
appended decode of 9 bits at 2 from 1 breaks the cut-communication check.  A
CNOT from party 1's data qubit to party 2's, appended to the five-party star-op
trace and declared local to party 1, raises the replay monotone across several
cuts; the report prints each rise to 12 digits.
Two runs that no simulate command makes are built with the library and
audited both ways: a recorded POVM at the hub of a three-party star, and
computational and Bell measurements with and without discard.
Then ``ebitnet symmetrise`` runs on the four-lab fixture and on seeded rational
graphs up to n = 9 (the brute-force cap is 8), and graph-file probes put one
value that is not a JSON integer or string (``1e400``, ``0.5``, ``true``, a row
given as a string, an ``n`` of ``"2"``), or a cell too long or not an integer
or ``"p/q"`` (``"1e5000"``, a 5000-digit integer), into the teleport graphs:
``symmetrise`` and both audits must exit 2 on each.  Cell probes put valid or
refused rational text there: ``"-0"``, ``"007"``, ``"3/6"`` against ``"1/2"``
(symmetric, so read), ``"1/3"`` against ``"1/2"`` (not symmetric), ``"-1/2"``
(negative) and numerators from 2^62 up, whose sums run on Python ints.  One
more puts cells of at most 64 characters into the three-party star-op graphs
whose symmetrised sum has cells of 85: ``symmetrise`` must exit 2 before it
writes a ``symmetrised.json`` that its reader would refuse.  A graphs file of the
bytes ``ff fe``, which are not UTF-8, must make ``symmetrise`` exit 2 naming its
path and both audits exit 2 naming their graphs file.  ``bounds`` writes its
table as CSV and as JSON at ``--n-max`` 2, 3 and 64, once to a file and once to
stdout (with the half-transfer boundary note at 64), and must exit 2 at
``--n-max`` 1 and 65 (``usage/bounds-n-max-1``).  Outputs are then
rewritten: ``simulate star-op`` at n = 5 and then 3 into one directory, and the
bounds table at ``--n-max`` 64 and then 2 into one file; the rewritten files
must hold the bytes a fresh path gets.  Last, ``simulate``,
``symmetrise`` and ``bounds`` write to output paths that cannot be written (a
regular file or a directory where the other is needed, a path under
``/dev/null``); each must exit 2 with an ``error:`` line.

Each usage error's directory is named after its arguments, a flag without its
dashes and a value with its sign (``usage/star-op-n-1``, ``usage/teleport-seed--1``),
so a probe that goes shows as a deletion.  Last, the script writes
``identity.sha256`` into the output directory: a header of the numpy version and
the OpenBLAS configuration string, then one ``sha256  path`` line per file,
sorted by path.  Made on one BLAS thread (``OPENBLAS_NUM_THREADS=1``), it is
committed as ``fixtures/identity.sha256``, and ``tests/test_scripts.py`` compares
each run with it.

The script imports ebitnet from the src/ directory of its own checkout.  To
compare two checkouts file by file, run it from each into two fresh directories
and compare them with ``diff -r``.
"""

import argparse
import base64
import contextlib
import ctypes
import hashlib
import io
import json
import os
import random
import struct
import sys
import traceback
from collections import Counter
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from ebitnet import cli, engine, gates, graphs, protocols  # noqa: E402
from ebitnet.engine import QubitId  # noqa: E402
from ebitnet.ledger import Allocate, LocalMeasure, dump_trace  # noqa: E402

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "four_lab_example.json"
# the file under the output directory that lists every other file's sha256
MANIFEST = "identity.sha256"

SEEDS = (7, 11)
# spec name -> simulate arguments after the protocol name
SPECS = {
    "teleport": ("teleport", []),
    "two-qubit-op": ("two-qubit-op", []),
    "swap-comm": ("swap-comm", []),
    "swap-entangle": ("swap-entangle", []),
    "star-op-n3": ("star-op", ["--n", "3"]),
    "star-op-n5": ("star-op", ["--n", "5"]),
    "star-op-n4-hub3": ("star-op", ["--n", "4", "--hub", "3"]),
    "perm-entangle-n2": ("perm-entangle", ["--n", "2"]),
    "perm-entangle-n3": ("perm-entangle", ["--n", "3"]),
    "perm-entangle-n5": ("perm-entangle", ["--n", "5"]),
    "perm-comm-n3": ("perm-comm", ["--n", "3"]),
    "perm-comm-n5": ("perm-comm", ["--n", "5"]),
    "ps-n2": ("ps", ["--n", "2"]),
    "ps-n4": ("ps", ["--n", "4"]),
    "ps-n8": ("ps", ["--n", "8"]),
    "ps-n10": ("ps", ["--n", "10"]),
    "ps-cp-n3": ("ps-cp", ["--n", "3"]),
    "ps-cp-n5": ("ps-cp", ["--n", "5"]),
    "ps-cp-n7": ("ps-cp", ["--n", "7"]),
}
USAGE_ERRORS = [
    ["star-op", "--n", "1"], ["star-op", "--n", "3", "--hub", "4"], ["star-op", "--n", "3", "--hub", "0"],
    ["ps", "--n", "3"], ["ps", "--n", "0"], ["ps", "--n", "4", "--hub", "5"],
    ["ps-cp", "--n", "4"], ["ps-cp", "--n", "1"], ["perm-entangle", "--n", "1"], ["perm-comm", "--n", "0"],
    ["star-op", "--n", "25"], ["perm-comm", "--n", "13"], ["perm-entangle", "--n", "13"],
    ["teleport", "--seed", "-1"],
]
# --n-max values of the bounds tables: the smallest, the first odd n, the cap
BOUNDS_N_MAX = (2, 3, 64)
# bounds arguments refused with exit 2: below the smallest --n-max and past the cap
BOUNDS_USAGE_ERRORS = [["--n-max", "1"], ["--n-max", "65"]]
# commands whose output path cannot be written, {file} a regular file and {directory} a directory
UNWRITABLE_OUTPUTS = {
    "simulate-to-a-file": ["simulate", "teleport", "--output", "{file}"],
    "simulate-under-dev-null": ["simulate", "teleport", "--output", "/dev/null/x"],
    "symmetrise-under-dev-null": ["symmetrise", "--input", str(FIXTURE), "--output", "/dev/null/x"],
    "bounds-under-dev-null": ["bounds", "--output", "/dev/null/x/b.csv"],
    "bounds-to-a-directory": ["bounds", "--output", "{directory}"],
}
# the seed-7 runs whose outputs are mutated
MUTATION_BASES = ("teleport", "two-qubit-op", "swap-comm", "swap-entangle", "star-op-n3",
                  "perm-entangle-n3", "perm-comm-n3", "ps-n2", "ps-cp-n3")


def run_cli(argv: list[str]) -> str:
    """Exit code, stdout and stderr of ``ebitnet <argv>``, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaped exception is an outcome too; its stack holds checkout paths
            code = "traceback " + "".join(traceback.format_exception_only(type(exc), exc)).strip()
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def audit_both(trace: Path, graph: Path, into: Path) -> list[str]:
    outcomes = []
    for name, flags in (("audit", []), ("audit-no-replay", ["--no-replay"])):
        result = run_cli(["audit", "--trace", str(trace), "--graphs", str(graph), *flags])
        (into / f"{name}.txt").write_text(result, encoding="utf-8")
        outcomes.append(result)
    return outcomes


# -- mutations: (records, graph document, rng) -> None, in place ----------------


def _events(records, kind=None):
    return [i for i, r in enumerate(records) if i and (kind is None or r["kind"] == kind)]


def _pair(rng, n):
    return sorted(rng.sample(range(1, n + 1), 2))


def _drop(records, graph, rng):
    if _events(records):
        del records[rng.choice(_events(records))]


def _duplicate(records, graph, rng):
    if _events(records):
        i = rng.choice(_events(records))
        records.insert(i, dict(records[i]))


def _swap_neighbours(records, graph, rng):
    if len(records) > 2:
        i = rng.randrange(1, len(records) - 1)
        records[i], records[i + 1] = records[i + 1], records[i]


def _repair(records, graph, rng):
    if _events(records, "ebit_consume"):
        records[rng.choice(_events(records, "ebit_consume"))]["pair"] = _pair(rng, graph["n"])


def _repoint_qubit(records, graph, rng):
    if _events(records, "ebit_consume"):
        qubit = rng.choice(records[rng.choice(_events(records, "ebit_consume"))]["qubits"])
        qubit[0] = rng.randint(1, graph["n"])


def _rebit(records, graph, rng):
    if _events(records, "message"):
        records[rng.choice(_events(records, "message"))]["bits"] = rng.choice(["0", "1", "3", "7/2"])


def _insert(record):
    """A mutation inserting ``record(rng, n)`` at a random position after the header."""
    def mutate(records, graph, rng):
        records.insert(rng.randint(1, len(records)), record(rng, graph["n"]))
    return mutate


def _create(rng, n):
    return {"kind": "ebit_create", "pair": _pair(rng, n)}


def _decode(rng, n):
    at, frm = _pair(rng, n)[::rng.choice((1, -1))]
    return {"kind": "decoded", "at": at, "from": frm, "bits": rng.choice(["1", "2", "5"])}


def _message(rng, n):
    frm, to = _pair(rng, n)[::rng.choice((1, -1))]
    return {"kind": "message", "from": frm, "to": to, "bits": rng.choice(["1", "2", "9"])}


def _lower_weight(records, graph, rng):
    kind = rng.choice([k for k in ("entanglement", "communication") if k in graph])
    cells = [(i, j) for i, row in enumerate(graph[kind]) for j, v in enumerate(row) if v != "0"]
    if cells:
        i, j = rng.choice(cells)
        for a, b in ((i, j), (j, i)) if kind == "entanglement" else ((i, j),):
            graph[kind][a][b] = "1/2"


def _shift_distribution(records, graph, rng):
    measures = [i for i in _events(records, "local_measure") if len(records[i]["distribution"]) > 1]
    if measures:
        dist = records[rng.choice(measures)]["distribution"]
        first, second = sorted(dist)[:2]
        dist[first], dist[second] = dist[first] + 0.25, dist[second] - 0.25


def _grant_everything(graph, ebits):
    n = graph["n"]
    graph["entanglement"] = [["0" if i == j else str(ebits) for j in range(n)] for i in range(n)]


def _repoint_first_consume(records, graph, rng):
    """The first consume charged to another pair, against a graph granting every pair 4 ebits."""
    consumes = _events(records, "ebit_consume")
    if not consumes:
        return
    first = records[consumes[0]]
    first["pair"] = [1, 3] if first["pair"] != [1, 3] else [1, 2]
    _grant_everything(graph, 4)


def _forged_oracle(records, graph, rng):
    """20 forged creates between parties 2 and 3, then an identity oracle on party 1's
    qubit q1 that declares every party."""
    records += [{"kind": "ebit_create", "pair": [2, 3]}] * 20
    records.append({"kind": "oracle", "parties": list(range(1, graph["n"] + 1)),
                    "targets": [[1, "q1"]], "permutation": [1]})


def _move_first_relabel(records, graph, rng):
    """The first relabel renames its qubit onto the next party (label "moved"), and the
    later events name the moved qubit: a cross-party relabel that still loads."""
    relabels = _events(records, "relabel")
    if not relabels:
        return
    first = records[relabels[0]]
    old, moved = first["new"], [first["old"][0] % graph["n"] + 1, "moved"]
    first["new"] = moved

    def rename(value):
        if isinstance(value, list):
            return moved if value == old else [rename(v) for v in value]
        return {k: rename(v) for k, v in value.items()} if isinstance(value, dict) else value

    records[relabels[0] + 1:] = [rename(r) for r in records[relabels[0] + 1:]]


def _max_qubits(extra):
    """The header's registry cap set to its registry size plus ``extra``: -1 is below
    the header's own registry, +1 below the first consume or allocation (each adds 2)."""
    def mutate(records, graph, rng):
        records[0]["max_qubits"] = len(records[0]["registry"]) + extra
    return mutate


def _string_distribution(records, graph, rng):
    """The first measurement's outcome probabilities written as JSON strings."""
    measure = next(r for r in records if r["kind"] == "local_measure")
    measure["distribution"] = {k: str(v) for k, v in measure["distribution"].items()}


def _supplementary_without_cover(records, graph, rng):
    """Every message marked supplementary, with no POVM record to cover it, and a
    communication graph of zero capacity."""
    for r in records:
        if r["kind"] == "message":
            r["supplementary"] = True
    graph["communication"] = [["0"] * graph["n"] for _ in range(graph["n"])]


def _renumber_measurements(records, graph, rng):
    """Every measurement's index raised by 5; the corrections still name the old indices."""
    for r in records:
        if r["kind"] == "local_measure":
            r["index"] += 5


def _set_first(kind, key, value):
    """The first record of ``kind`` (the header included) with ``key`` set to ``value``."""
    def mutate(records, graph, rng):
        next(r for r in records if r["kind"] == kind)[key] = value
    return mutate


def _first_gate_entry(value):
    """The first entry of the first local gate's matrix, or of its first case matrix, set to ``value``."""
    def mutate(records, graph, rng):
        gate = next(r for r in records if r["kind"] == "local_gate")
        matrix = gate["matrix"] if "matrix" in gate else gate["cases"][min(gate["cases"])]
        matrix[0][0] = value
    return mutate


def _base64_gate(change):
    """The text of the first local gate matrix written as base64 (the hub's Haar
    matrix in a star-op trace) replaced by ``change(text)``."""
    def mutate(records, graph, rng):
        gate = next(r for r in records if r["kind"] == "local_gate" and isinstance(r.get("matrix"), dict))
        gate["matrix"]["c128"] = change(gate["matrix"]["c128"])
    return mutate


def _gate_without_targets(records, graph, rng):
    """A local gate on no qubits, with its 1x1 identity, right after the header."""
    records.insert(1, {"kind": "local_gate", "party": 1, "targets": [], "matrix": [[[1, 0]]]})


def _header_only(n):
    """The header alone, without an initial state, for ``n`` parties, and an
    n-party graph of zero ebits."""
    def mutate(records, graph, rng):
        records[:] = [{"kind": "header", "format": records[0]["format"], "n_parties": n}]
        graph.clear()
        graph.update(n=n, entanglement=[["0"] * n for _ in range(n)])
    return mutate


def _bare_header_with_cap_and_branches(records, graph, rng):
    """The header without its registry, and with a cap of "x" and branches of 7: a
    header without an initial state holds neither."""
    del records[0]["registry"]
    records[0].update(max_qubits="x", branches=7)


def _forty_parties_cap_100(records, graph, rng):
    """The forty-party header with one initial qubit, at party 1, and a registry cap of
    100: over the cap in force, so a trace cannot raise it and list 2^39 cuts."""
    _header_only(40)(records, graph, rng)
    records[0].update(max_qubits=100, registry=[[1, "q"]], branches=[{"p": 1.0, "amplitudes": [[1, 0], [0, 0]]}])


def _append(*extra):
    """The records ``extra`` appended after the last event."""
    def mutate(records, graph, rng):
        records += [dict(r) for r in extra]
    return mutate


def _nan_first_entry(text):
    """Base64 of little-endian complex128 entries, the first entry's real part set to NaN."""
    data = bytearray(base64.b64decode(text))
    data[:8] = struct.pack("<d", float("nan"))
    return base64.b64encode(data).decode("ascii")


MUTATIONS = {
    "drop": _drop,
    "duplicate": _duplicate,
    "swap-neighbours": _swap_neighbours,
    "repair": _repair,
    "repoint-qubit": _repoint_qubit,
    "rebit": _rebit,
    "insert-create": _insert(_create),
    "insert-decode": _insert(_decode),
    "insert-message": _insert(_message),
    "lower-weight": _lower_weight,
    "shift-distribution": _shift_distribution,
    "move-first-relabel": _move_first_relabel,
}
# single probes, applied to the n >= 3 bases only
PROBES = {"repoint-first-consume": _repoint_first_consume, "forged-oracle": _forged_oracle,
          "max-qubits-below-registry": _max_qubits(-1), "max-qubits-below-first-add": _max_qubits(1),
          "supplementary-without-cover": _supplementary_without_cover,
          "renumber-measurements": _renumber_measurements}

# (base, name, mutation): single values that must fail to load, and a trace of more parties
# than its registry cap; both audits must exit 2
LOAD_PROBES = (
    ("perm-comm-n3", "permutation-not-bijective", _set_first("oracle", "permutation", [1, 1, 2])),
    ("perm-comm-n3", "permutation-longer-than-targets", _set_first("oracle", "permutation", [2, 3, 1, 4])),
    ("swap-comm", "permutation-float-entry", _set_first("oracle", "permutation", [2, 1.0])),
    ("swap-entangle", "permutation-bool-entry", _set_first("oracle", "permutation", [2, True])),
    ("teleport", "format-1", _set_first("header", "format", "ebitnet-trace/1")),
    ("teleport", "max-qubits-float", _set_first("header", "max_qubits", 30.7)),
    ("teleport", "party-float", _set_first("local_measure", "party", 1.5)),
    ("teleport", "party-string", _set_first("local_measure", "party", "1")),
    ("teleport", "party-bool", _set_first("local_measure", "party", True)),
    ("teleport", "discard-string", _set_first("local_measure", "discard", "false")),
    ("teleport", "index-float", _set_first("local_measure", "index", 0.0)),
    ("teleport", "message-to-float", _set_first("message", "to", 2.9)),
    ("teleport", "supplementary-string", _set_first("message", "supplementary", "false")),
    ("teleport", "supplementary-misspelt", _set_first("message", "supplementry", True)),
    ("teleport", "bits-float", _set_first("message", "bits", 0.1)),
    ("teleport", "bits-integer", _set_first("message", "bits", 2)),
    ("teleport", "bits-divide-by-zero", _set_first("message", "bits", "1/0")),
    ("teleport", "bits-exponent", _set_first("message", "bits", "1e5000")),
    ("teleport", "bits-decimal", _set_first("message", "bits", "0.5")),
    ("teleport", "distribution-strings", _string_distribution),
    ("perm-comm-n3", "payload-integer", _set_first("decoded", "payload", 1)),
    ("teleport", "gate-entry-nan", _first_gate_entry([float("nan"), 0.0])),
    ("star-op-n3", "gate-entry-doubled", _first_gate_entry([2.0, 0.0])),
    ("star-op-n3", "haar-base64-truncated", _base64_gate(lambda text: text[:-4])),
    ("star-op-n3", "haar-base64-nan", _base64_gate(_nan_first_entry)),
    ("perm-entangle-n3", "allocate-at-other-party", _set_first("allocate", "party", 2)),
    ("teleport", "gate-without-targets", _gate_without_targets),
    ("teleport", "header-without-registry-with-cap-and-branches", _bare_header_with_cap_and_branches),
    ("teleport", "forty-parties", _header_only(40)),
    ("teleport", "max-qubits-over-the-cap-in-force", _set_first("header", "max_qubits", 25)),
    ("teleport", "forty-parties-cap-100", _forty_parties_cap_100),
)
# (base, name, mutation, EBITNET_MAX_QUBITS): a header-only trace of more parties than a
# lowered cap in force, and two within a raised cap: one of more parties than an int64 cut
# mask holds, one whose cut masks would take more bytes than the audit allows; both
# audits must refuse each with exit 2
CAP_PROBES = (
    ("teleport", "thirteen-parties-cap-12", _header_only(13), "12"),
    ("teleport", "seventy-parties-cap-100", _header_only(70), "100"),
    ("teleport", "forty-parties-cap-100-in-force", _header_only(40), "100"),
)
# (base, name, mutation): cut violations that both audits must report with exit 1
CUT_PROBES = (
    ("teleport", "three-creates", _append(*[{"kind": "ebit_create", "pair": [1, 2]}] * 3)),
    ("teleport", "decoded-9-bits", _append({"kind": "decoded", "at": 2, "from": 1, "bits": "9"})),
)
# (base, name, mutation): a CNOT from 1:q1 to 2:q2 declared local to party 1, after the last event
# of the five-party star: the replay reports the cuts whose monotone it raises, each value to 12
# digits, so a change in how the cut values are summed shows in the report
CNOT = [[[float(z.real), float(z.imag)] for z in row] for row in gates.cnot_unitary()]
MONOTONE_PROBES = (
    ("star-op-n5", "cross-party-cnot", _append({"kind": "local_gate", "party": 1, "targets": [[1, "q1"], [2, "q2"]],
                                                "matrix": CNOT})),
)


def povm_star_run():
    """A recorded POVM of Haar-random rank-1 elements on three random data qubits,
    run at hub 1 of a star: its outcome goes to the spokes as supplementary messages."""
    rng = np.random.default_rng(7)
    run = protocols.new_run(3, gates.random_state(8, rng))
    for spoke in (2, 3):
        run.ledger.grant(spoke, 1, 2)
    povm = engine.Povm(tuple(np.outer(column, column.conj()) for column in gates.haar_unitary(8, rng).T))
    protocols.collective_op_star(run, protocols.CollectiveOp(povm=povm, record=True), hub=1)
    return run


def measurements_run():
    """At party 1, a Bell measurement without discard of its data qubit and a fresh one,
    then a computational measurement of each, the second discarded; at party 2, a
    computational measurement without discard."""
    rng = np.random.default_rng(11)
    run = protocols.new_run(2, gates.random_state(4, rng))
    q1, fresh, q2 = run.data_qubits[1], QubitId(1, "a"), run.data_qubits[2]
    run.step(Allocate(1, (fresh,), "0"))
    for party, targets, basis, discard in ((1, (q1, fresh), "bell", False), (1, (q1,), "computational", False),
                                           (1, (fresh,), "computational", True), (2, (q2,), "computational", False)):
        run.step(LocalMeasure(party, targets, basis, discard, run.ensemble.measurement_count, ()))
    return run


# runs no simulate command makes, built with the library and audited both ways
LIBRARY_RUNS = {"povm-star-n3": povm_star_run, "measurements": measurements_run}


# party counts of the seeded rational graphs given to symmetrise
SYMMETRISE_SIZES = (3, 7, 8, 9)
# (name, path to one value of the teleport seed-7 graphs file, the JSON text put there)
GRAPH_PROBES = (
    ("cell-1e400", ("entanglement", 0, 1), "1e400"),
    ("cell-float", ("communication", 1, 0), "0.5"),
    ("cell-bool", ("communication", 0, 1), "true"),
    ("cell-null", ("entanglement", 1, 0), "null"),
    ("row-string", ("communication", 1), '"00"'),
    ("n-bool", ("n",), "true"),
    ("n-string", ("n",), '"2"'),
    ("n-float", ("n",), "2.0"),
    ("cell-1e5000", ("entanglement", 0, 1), '"1e5000"'),
    ("cell-5000-digits", ("entanglement", 0, 1), "1" + "0" * 4999),
)
# (name, seed-7 run whose graphs file and trace are used, {path to a value: the JSON text put there})
CELL_PROBES = (
    ("cell-minus-zero", "teleport", {("communication", 1, 0): '"-0"'}),
    ("cell-leading-zeros", "teleport", {("communication", 0, 1): '"007"'}),
    ("cells-3-6-against-1-2", "teleport", {("entanglement", 0, 1): '"3/6"', ("entanglement", 1, 0): '"1/2"'}),
    ("cells-1-3-against-1-2", "teleport", {("entanglement", 0, 1): '"1/3"', ("entanglement", 1, 0): '"1/2"'}),
    ("cell-negative-half", "teleport", {("communication", 1, 0): '"-1/2"'}),
    # 2 * 2**62 passes int64, so symmetrise sums on Python ints
    ("cells-past-int64", "teleport", {("entanglement", 0, 1): '"4611686018427387904"',
                                      ("entanglement", 1, 0): "4611686018427387904",
                                      ("communication", 0, 1): '"9223372036854775807/3"'}),
    ("cells-summed-past-the-cap", "star-op-n3", {
        ("communication", 0, 1): '"1/9999999999999999999999"', ("communication", 0, 2): '"5"',
        ("communication", 1, 0): '"123456789012345678901234567890123456789/7"', ("communication", 1, 2): '"1/3"',
        ("communication", 2, 0): '"0"'}),
)


def rational_graph(n: int, rng: random.Random) -> dict:
    """A graphs document with weights p/q, 0 <= p <= 12 and 1 <= q <= 6, as strings."""
    def weight() -> str:
        return f"{rng.randint(0, 12)}/{rng.randint(1, 6)}"

    ent = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            ent[i][j] = ent[j][i] = weight()
    comm = [["0" if i == j else weight() for j in range(n)] for i in range(n)]
    return {"n": n, "entanglement": ent, "communication": comm}


def symmetrise(graph_file: Path, into: Path) -> str:
    """``ebitnet symmetrise`` of ``graph_file``; its stdout and files go to ``into``."""
    result = run_cli(["symmetrise", "--input", str(graph_file), "--output", str(into / "symmetrised")])
    (into / "symmetrise.txt").write_text(result, encoding="utf-8")
    return result


def graph_probe(root: Path, name: str, cells: dict, base: str = "teleport") -> list[str]:
    """symmetrise and both audits of the seed-7 run of ``base``, its graphs file
    carrying each JSON text of ``cells`` at its path; the files go to graph-probes/<name>."""
    protocol = SPECS[base][0]
    source = root / "simulate" / f"{base}-s7"
    graph = json.loads((source / f"{protocol}_graphs.json").read_text(encoding="utf-8"))
    for k, path in enumerate(cells):
        *keys, last = path
        target = graph
        for key in keys:
            target = target[key]
        target[last] = f"@probe{k}@"
    text = json.dumps(graph, sort_keys=True)
    for k, literal in enumerate(cells.values()):
        text = text.replace(f'"@probe{k}@"', literal)
    into = root / "graph-probes" / name
    into.mkdir(parents=True, exist_ok=True)
    graph_file = into / "graphs.json"
    graph_file.write_text(text + "\n", encoding="utf-8")
    return [symmetrise(graph_file, into), *audit_both(source / f"{protocol}_trace.jsonl", graph_file, into)]


def mutate_and_audit(root: Path, base: str, name: str, mutate, rng) -> list[str]:
    """Audit the seed-7 run of ``base`` after ``mutate``; its files go to mutations/<base>-<name>."""
    protocol = SPECS[base][0]
    source = root / "simulate" / f"{base}-s7"
    records = [json.loads(line) for line in (source / f"{protocol}_trace.jsonl").read_text(encoding="utf-8")
               .splitlines()]
    graph = json.loads((source / f"{protocol}_graphs.json").read_text(encoding="utf-8"))
    mutate(records, graph, rng)
    into = root / "mutations" / f"{base}-{name}"
    into.mkdir(parents=True, exist_ok=True)
    (into / "trace.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    (into / "graphs.json").write_text(json.dumps(graph, sort_keys=True) + "\n", encoding="utf-8")
    return audit_both(into / "trace.jsonl", into / "graphs.json", into)


def blas_config() -> str:
    """The configuration string of the OpenBLAS that numpy runs, which names the
    CPU kernel it chose at load, or "unknown BLAS" when numpy does not expose one."""
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)  # its symbols are looked up in its dependencies too
    except (ImportError, OSError):
        return "unknown BLAS"
    # the name in numpy's own wheels, and in a numpy linked to a system OpenBLAS
    for name in ("scipy_openblas_get_config64_", "openblas_get_config"):
        get_config = getattr(lib, name, None)
        if get_config is not None:
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            return get_config().decode("ascii", "replace").strip()
    return "unknown BLAS"


def write_manifest(root: Path) -> int:
    """Write ``MANIFEST`` under ``root``: a header of the numpy version and BLAS configuration
    the outputs were made with, then one ``sha256  path`` line per file under
    ``root``, sorted by path; returns the number of files listed."""
    paths = sorted(path.relative_to(root).as_posix() for path in root.rglob("*")
                   if path.is_file() and path != root / MANIFEST)
    lines = [f"# numpy {np.__version__}", f"# {blas_config()}"]
    lines += [f"{hashlib.sha256((root / path).read_bytes()).hexdigest()}  {path}" for path in paths]
    (root / MANIFEST).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(paths)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--output", default="out/identity", help="output directory (default out/identity)")
    args = ap.parse_args()
    root = Path(args.output)
    outcomes = []

    for spec, (protocol, flags) in SPECS.items():
        for seed in SEEDS:
            into = root / "simulate" / f"{spec}-s{seed}"
            into.mkdir(parents=True, exist_ok=True)
            result = run_cli(["simulate", protocol, "--seed", str(seed), "--output", str(into), *flags])
            (into / "simulate.txt").write_text(result, encoding="utf-8")
            outcomes.append(result)
            outcomes += audit_both(into / f"{protocol}_trace.jsonl", into / f"{protocol}_graphs.json", into)

    for argv in USAGE_ERRORS:
        # star-op --n 1: usage/star-op-n-1; teleport --seed -1: usage/teleport-seed--1
        into = root / "usage" / "-".join(arg.removeprefix("--") for arg in argv)
        into.mkdir(parents=True, exist_ok=True)
        result = run_cli(["simulate", *argv, "--output", str(into)])
        (into / "simulate.txt").write_text(result, encoding="utf-8")
        outcomes.append(result)
    for argv in BOUNDS_USAGE_ERRORS:
        # --n-max 1: usage/bounds-n-max-1
        into = root / "usage" / "-".join(arg.removeprefix("--") for arg in ["bounds", *argv])
        into.mkdir(parents=True, exist_ok=True)
        result = run_cli(["bounds", *argv])
        (into / "bounds.txt").write_text(result, encoding="utf-8")
        outcomes.append(result)

    for b, base in enumerate(MUTATION_BASES):
        protocol = SPECS[base][0]
        graph_file = root / "simulate" / f"{base}-s7" / f"{protocol}_graphs.json"
        graph = json.loads(graph_file.read_text(encoding="utf-8"))
        mutations = dict(MUTATIONS, **(PROBES if graph["n"] >= 3 else {}))
        for m, (name, mutate) in enumerate(mutations.items()):
            outcomes += mutate_and_audit(root, base, name, mutate, random.Random(1000 * b + m))
    for base, name, mutate in LOAD_PROBES + CUT_PROBES + MONOTONE_PROBES:
        outcomes += mutate_and_audit(root, base, name, mutate, None)
    for base, name, mutate, cap in CAP_PROBES:
        with mock.patch.dict(os.environ, EBITNET_MAX_QUBITS=cap):
            outcomes += mutate_and_audit(root, base, name, mutate, None)
    for name, build in LIBRARY_RUNS.items():
        run, into = build(), root / "library" / name
        into.mkdir(parents=True, exist_ok=True)
        n, book = run.n_parties, run.ledger
        bundle = graphs.GraphBundle(n, graphs.EntanglementGraph.from_book(n, book.granted, book.den),
                                    graphs.CommunicationGraph.from_book(n, book.bits_sent, book.den))
        (into / "trace.jsonl").write_text(dump_trace(run.trace), encoding="utf-8")
        (into / "graphs.json").write_text(graphs.export_json(bundle), encoding="utf-8")
        outcomes += audit_both(into / "trace.jsonl", into / "graphs.json", into)

    into = root / "symmetrise" / "four-lab"
    into.mkdir(parents=True, exist_ok=True)
    outcomes.append(symmetrise(FIXTURE, into))
    for n in SYMMETRISE_SIZES:
        into = root / "symmetrise" / f"rational-n{n}"
        into.mkdir(parents=True, exist_ok=True)
        (into / "graphs.json").write_text(json.dumps(rational_graph(n, random.Random(n)), indent=1) + "\n",
                                          encoding="utf-8")
        outcomes.append(symmetrise(into / "graphs.json", into))
    for name, path, literal in GRAPH_PROBES:
        outcomes += graph_probe(root, name, {path: literal})
    for name, base, cells in CELL_PROBES:
        outcomes += graph_probe(root, name, cells, base)
    # a graphs file that is not UTF-8: symmetrise names its path, the audits their graphs file
    into = root / "graph-probes" / "not-utf-8"
    into.mkdir(parents=True, exist_ok=True)
    (into / "graphs.json").write_bytes(b"\xff\xfe")
    result = run_cli(["symmetrise", "--input", str(into / "graphs.json"), "--output", str(into / "symmetrised")])
    result = result.replace(str(root), "<output>")
    (into / "symmetrise.txt").write_text(result, encoding="utf-8")
    outcomes += [result, *audit_both(root / "simulate" / "teleport-s7" / "teleport_trace.jsonl",
                                     into / "graphs.json", into)]

    into = root / "bounds"
    into.mkdir(parents=True, exist_ok=True)
    for n_max in BOUNDS_N_MAX:
        for fmt in ("csv", "json"):
            argv = ["bounds", "--n-max", str(n_max), "--format", fmt]
            table = into / f"bounds-{n_max}.{fmt}"
            for name, result in ((f"stdout-{n_max}-{fmt}", run_cli(argv)),
                                 (f"file-{n_max}-{fmt}", run_cli([*argv, "--output", str(table)]))):
                # the file run's stdout names its path
                result = result.replace(str(root), "<output>")
                (into / f"{name}.txt").write_text(result, encoding="utf-8")
                outcomes.append(result)

    # longer outputs rewritten by shorter ones: the files must hold the bytes a fresh path gets
    into = root / "rewrite"
    into.mkdir(parents=True, exist_ok=True)
    results = [run_cli(["simulate", "star-op", "--seed", "7", "--n", n, "--output", str(into)]) for n in ("5", "3")]
    # the bounds run's stdout names its path
    results += [run_cli(["bounds", "--n-max", n_max, "--output", str(into / "bounds.csv")])
                .replace(str(root), "<output>") for n_max in ("64", "2")]
    fresh = {**{f.name: f for f in (root / "simulate" / "star-op-n3-s7").glob("star-op_*")},
             "bounds.csv": root / "bounds" / "bounds-2.csv"}
    (into / "rewrite.txt").write_text("".join(results) + "".join(
        f"{name}: {'the same bytes as' if (into / name).read_bytes() == path.read_bytes() else 'DIFFERS from'} "
        f"a fresh path\n" for name, path in sorted(fresh.items())), encoding="utf-8")
    outcomes += results

    into = root / "unwritable"
    into.mkdir(parents=True, exist_ok=True)
    (into / "file").write_text("", encoding="utf-8")
    for name, argv in UNWRITABLE_OUTPUTS.items():
        # the messages name the paths; the output directory differs from run to run
        result = run_cli([arg.format(file=into / "file", directory=into) for arg in argv])
        result = result.replace(str(root), "<output>")
        (into / f"{name}.txt").write_text(result, encoding="utf-8")
        outcomes.append(result)

    files = write_manifest(root)
    exits = Counter(result.split("\n", 1)[0] for result in outcomes)
    print(f"{len(outcomes)} commands written to {root}, {files} files listed in {root / MANIFEST}: "
          + ", ".join(f"{count} x {code}" for code, count in sorted(exits.items())))


if __name__ == "__main__":
    main()
