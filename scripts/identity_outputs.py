#!/usr/bin/env python3
"""Write everything the CLI produces for a fixed set of runs into one directory.

Usage: python scripts/identity_outputs.py [--output DIR]   (default out/identity)

For each protocol spec at seeds 7 and 11 it keeps the files of ``ebitnet
simulate`` and the exit code, stdout and stderr of that command and of
``ebitnet audit`` on its outputs, with and without ``--no-replay``.  It also
records a few usage errors, and audits seeded mutations of the small runs'
traces and graph files (dropped, duplicated and swapped events, re-paired
ebits, changed bits, forged creates, decodes and messages, lowered graph
weights, shifted distributions, a relabel moved across parties, re-pointed
consumes, a forged oracle, a header registry cap below the trace's needs,
every message marked supplementary against graphs that grant no communication,
and every measurement index raised by 5, its corrections left as they were).
Load probes of single values that must make both audits exit 2 come last: a
permutation that is not a bijection or is longer than its targets, a header of
another format; parties, integers, booleans, strings and probabilities given as
another JSON type; message bits that are not an exact string amount; a
local gate matrix that is not unitary (a NaN or a doubled entry in [re, im]
pairs); the star-op hub's Haar matrix, which the trace writes as base64 of its
complex128 bytes, with that text truncated or with a NaN written into its
bytes; and an allocation at a party other than its qubits'.
Then ``ebitnet symmetrise`` runs on the four-lab fixture and on seeded rational
graphs up to n = 9 (the brute-force cap is 8), and graph-file probes put one
value that is not a JSON integer or string (``1e400``, ``0.5``, ``true``, a row
given as a string, an ``n`` of ``"2"``), or a cell too long or not an integer
or ``"p/q"`` (``"1e5000"``, a 5000-digit integer), into the teleport graphs:
``symmetrise`` and both audits must exit 2 on each.  ``bounds`` writes its
table as CSV and as JSON at ``--n-max`` 2, 3 and 64, once to a file and once to
stdout (with the half-transfer boundary note at 64).  Last, ``simulate``,
``symmetrise`` and ``bounds`` write to output paths that cannot be written (a
regular file or a directory where the other is needed, a path under
``/dev/null``); each must exit 2 with an ``error:`` line.

The script imports ebitnet from the src/ directory of its own checkout.  To
check that a change leaves the CLI's behaviour byte-identical, run it from two
checkouts into two fresh directories and compare them with ``diff -r``.
"""

import argparse
import base64
import contextlib
import io
import json
import random
import struct
import sys
import traceback
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ebitnet import cli  # noqa: E402

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "four_lab_example.json"

SEEDS = (7, 11)
# spec name -> simulate arguments after the protocol name
SPECS = {
    "teleport": ("teleport", []),
    "teleport-sample": ("teleport", ["--sample", "3"]),
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
    "ps-cp-n3": ("ps-cp", ["--n", "3"]),
    "ps-cp-n5": ("ps-cp", ["--n", "5"]),
    "ps-cp-n7": ("ps-cp", ["--n", "7"]),
}
USAGE_ERRORS = [
    ["star-op", "--n", "1"], ["star-op", "--n", "3", "--hub", "4"], ["star-op", "--n", "3", "--hub", "0"],
    ["ps", "--n", "3"], ["ps", "--n", "0"], ["ps", "--n", "4", "--hub", "5"],
    ["ps-cp", "--n", "4"], ["ps-cp", "--n", "1"], ["perm-entangle", "--n", "1"], ["perm-comm", "--n", "0"],
    ["teleport", "--sample", "-1"],
]
# --n-max values of the bounds tables: the smallest, the first odd n, the cap
BOUNDS_N_MAX = (2, 3, 64)
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

# (base, name, mutation): single values that must fail to load, so both audits exit 2
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
    ("teleport", "bits-float", _set_first("message", "bits", 0.1)),
    ("teleport", "bits-integer", _set_first("message", "bits", 2)),
    ("teleport", "bits-divide-by-zero", _set_first("message", "bits", "1/0")),
    ("teleport", "distribution-strings", _string_distribution),
    ("perm-comm-n3", "payload-integer", _set_first("decoded", "payload", 1)),
    ("teleport", "gate-entry-nan", _first_gate_entry([float("nan"), 0.0])),
    ("star-op-n3", "gate-entry-doubled", _first_gate_entry([2.0, 0.0])),
    ("star-op-n3", "haar-base64-truncated", _base64_gate(lambda text: text[:-4])),
    ("star-op-n3", "haar-base64-nan", _base64_gate(_nan_first_entry)),
    ("perm-entangle-n3", "allocate-at-other-party", _set_first("allocate", "party", 2)),
)


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


def graph_probe(root: Path, name: str, path: tuple, literal: str) -> list[str]:
    """symmetrise and both audits of the teleport seed-7 run, its graphs file carrying
    ``literal`` at ``path``; the files go to graph-probes/<name>."""
    source = root / "simulate" / "teleport-s7"
    graph = json.loads((source / "teleport_graphs.json").read_text(encoding="utf-8"))
    *keys, last = path
    target = graph
    for key in keys:
        target = target[key]
    target[last] = "@probe@"
    into = root / "graph-probes" / name
    into.mkdir(parents=True, exist_ok=True)
    graph_file = into / "graphs.json"
    graph_file.write_text(json.dumps(graph, sort_keys=True).replace('"@probe@"', literal) + "\n",
                          encoding="utf-8")
    return [symmetrise(graph_file, into), *audit_both(source / "teleport_trace.jsonl", graph_file, into)]


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

    for i, argv in enumerate(USAGE_ERRORS):
        into = root / "usage" / f"{i:02d}"
        into.mkdir(parents=True, exist_ok=True)
        result = run_cli(["simulate", *argv, "--output", str(into)])
        (into / "simulate.txt").write_text(result, encoding="utf-8")
        outcomes.append(result)

    for b, base in enumerate(MUTATION_BASES):
        protocol = SPECS[base][0]
        graph_file = root / "simulate" / f"{base}-s7" / f"{protocol}_graphs.json"
        graph = json.loads(graph_file.read_text(encoding="utf-8"))
        mutations = dict(MUTATIONS, **(PROBES if graph["n"] >= 3 else {}))
        for m, (name, mutate) in enumerate(mutations.items()):
            outcomes += mutate_and_audit(root, base, name, mutate, random.Random(1000 * b + m))
    for base, name, mutate in LOAD_PROBES:
        outcomes += mutate_and_audit(root, base, name, mutate, None)

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
        outcomes += graph_probe(root, name, path, literal)

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

    into = root / "unwritable"
    into.mkdir(parents=True, exist_ok=True)
    (into / "file").write_text("", encoding="utf-8")
    for name, argv in UNWRITABLE_OUTPUTS.items():
        # the messages name the paths; the output directory differs from run to run
        result = run_cli([arg.format(file=into / "file", directory=into) for arg in argv])
        result = result.replace(str(root), "<output>")
        (into / f"{name}.txt").write_text(result, encoding="utf-8")
        outcomes.append(result)

    exits = Counter(result.split("\n", 1)[0] for result in outcomes)
    print(f"{len(outcomes)} commands written to {root}: "
          + ", ".join(f"{count} x {code}" for code, count in sorted(exits.items())))


if __name__ == "__main__":
    main()
