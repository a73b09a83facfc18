"""Workloads of the ebitnet benchmark, their generated inputs and output checks.

A workload is a list of steps.  Each step is one real CLI command, run
through ``ebitnet.cli.main(argv)``, with a check of its output that the
benchmark computes on its own (exact ``Fraction`` arithmetic, no ebitnet
code).  Every workload runs ``simulate``, ``audit`` and ``symmetrise`` so that
each end-to-end metric exists on each of them; one command dominates each
workload and the others are small companions.  Why each workload exists is
in README.md next to this file.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

BRUTE_FORCE_MAX = 8  # symmetrise cross-checks against the explicit n! sum up to here


@dataclass
class Step:
    """One CLI command; ``kind`` names the end-to-end metric its time feeds
    (``bounds`` feeds only the pipeline time)."""

    kind: str
    argv: list[str]
    check: Callable[[int, str], list[str]]  # (exit code, stdout) -> problems
    outputs: tuple[Path, ...] = ()  # files, or directories of files, that must repeat byte for byte
    trace_file: Path | None = None


# --------------------------------------------------------------------------
# checks


def _ledger_sums(path: Path) -> tuple[Fraction, Fraction]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    return (sum(map(Fraction, doc["ebits_consumed"].values()), Fraction(0)),
            sum(map(Fraction, doc["bits_sent"].values()), Fraction(0)))


def check_star_simulate(n: int, out: Path) -> Callable[[int, str], list[str]]:
    """simulate star-op: exit 0, every check ok, 2(n-1) ebits and 4(n-1) bits."""
    def check(rc: int, stdout: str) -> list[str]:
        problems = [] if rc == 0 else [f"simulate exited {rc}"]
        problems += [f"simulate check failed: {ln}" for ln in stdout.splitlines()
                     if ln.startswith("star-op:") and ": ok (" not in ln]
        ebits, bits = _ledger_sums(out / "star-op_ledger.json")
        if (ebits, bits) != (2 * (n - 1), 4 * (n - 1)):
            problems.append(f"ledger shows {ebits} ebits and {bits} bits, "
                            f"expected {2 * (n - 1)} and {4 * (n - 1)}")
        return problems
    return check


def check_perm_simulate(n: int) -> Callable[[int, str], list[str]]:
    """simulate perm-comm: exit 0 and n/n messages decoded."""
    def check(rc: int, stdout: str) -> list[str]:
        problems = [] if rc == 0 else [f"simulate exited {rc}"]
        found = re.search(r"(\d+)/(\d+) messages correct", stdout)
        if found is None or found.groups() != (str(n), str(n)):
            problems.append(f"expected {n}/{n} messages decoded, stdout: {stdout.strip()!r}")
        return problems
    return check


def check_audit(replay: bool) -> Callable[[int, str], list[str]]:
    """audit: exit 0, no violations, replayed exactly when asked to."""
    def check(rc: int, stdout: str) -> list[str]:
        problems = [] if rc == 0 else [f"audit exited {rc}"]
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError:
            return problems + [f"audit printed no JSON report: {stdout[:200]!r}"]
        if doc.get("violations"):
            problems.append(f"audit violations: {doc['violations']}")
        if doc.get("replayed") is not replay:
            problems.append(f"audit replayed={doc.get('replayed')}, expected {replay}")
        return problems
    return check


def _read_matrix(rows) -> list[list[Fraction]]:
    return [[Fraction(str(cell)) for cell in row] for row in rows]


def expected_weights(doc: dict) -> dict[str, tuple[Fraction, Fraction]]:
    """Totals and symmetrised edge weights, 2(n-2)!·total and (n-2)!·total."""
    n = int(doc["n"])
    fact = math.factorial(n - 2)
    out = {}
    if "entanglement" in doc:
        total = sum(map(sum, _read_matrix(doc["entanglement"])), Fraction(0)) / 2
        out["entanglement"] = (total, 2 * fact * total)
    if "communication" in doc:
        total = sum(map(sum, _read_matrix(doc["communication"])), Fraction(0))
        out["communication"] = (total, fact * total)
    return out


def check_symmetrise(graph_file: Path, out: Path):
    """symmetrise: the closed form matches the benchmark's own weights, and for
    n <= 8 the cross-check reports ok and every written edge carries them."""
    def check(rc: int, stdout: str) -> list[str]:
        problems = [] if rc == 0 else [f"symmetrise exited {rc}"]
        doc = json.loads(graph_file.read_text(encoding="utf-8"))
        n = int(doc["n"])
        expected = expected_weights(doc)
        written = None
        if n <= BRUTE_FORCE_MAX:
            written = json.loads((out / "symmetrised.json").read_text(encoding="utf-8"))
        for kind, (total, weight) in expected.items():
            letter = kind[0]
            line = f"{kind}: total {total}, symmetrised edge weight {letter} = {weight} (closed form)"
            if line not in stdout:
                problems.append(f"{kind}: expected {line!r}")
            if n > BRUTE_FORCE_MAX:
                continue
            if f"{kind}: brute-force cross-check over {math.factorial(n)} permutations: ok" not in stdout:
                problems.append(f"{kind}: brute-force cross-check did not report ok")
            cells = {c for i, row in enumerate(_read_matrix(written[kind]))
                     for j, c in enumerate(row) if i != j}
            if cells != {weight}:
                problems.append(f"{kind}: symmetrised edges {sorted(map(str, cells))}, expected {weight}")
        return problems
    return check


def check_bounds(path: Path, n_max: int, fmt: str) -> Callable[[int, str], list[str]]:
    """bounds: the teleport column equals 2(n-1) ebits and 4(n-1) bits."""
    def check(rc: int, stdout: str) -> list[str]:
        problems = [] if rc == 0 else [f"bounds exited {rc}"]
        text = path.read_text(encoding="utf-8")
        if fmt == "csv":
            rows = [ln.split(",") for ln in text.splitlines()[1:]]
            got = {(int(r[0]), r[1]): Fraction(r[2]) for r in rows}
        else:
            got = {}
            for rep in json.loads(text):
                got[(rep["n"], "entanglement")] = Fraction(rep["teleport"]["e"])
                got[(rep["n"], "communication")] = Fraction(rep["teleport"]["c"])
        want = {}
        for n in range(2, n_max + 1):
            want[(n, "entanglement")] = Fraction(2 * (n - 1))
            want[(n, "communication")] = Fraction(4 * (n - 1))
        if got != want:
            bad = sorted(k for k in want.keys() | got.keys() if got.get(k) != want.get(k))
            problems.append(f"bounds {fmt}: teleport column wrong at {bad[:4]}")
        return problems
    return check


# --------------------------------------------------------------------------
# inputs


def rational_graph(n: int, rng: random.Random) -> dict:
    """A resource-graph document with rational weights p/q, 0 <= p <= 12, 1 <= q <= 6."""
    def weight() -> str:
        return str(Fraction(rng.randint(0, 12), rng.randint(1, 6)))

    ent = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            ent[i][j] = ent[j][i] = weight()
    comm = [["0" if i == j else weight() for j in range(n)] for i in range(n)]
    return {"n": n, "entanglement": ent, "communication": comm}


def _simulate_steps(protocol: str, n: int, seed: int, work: Path, replay: bool):
    out = work / "sim"
    trace, graph_file = out / f"{protocol}_trace.jsonl", out / f"{protocol}_graphs.json"
    check = check_star_simulate(n, out) if protocol == "star-op" else check_perm_simulate(n)
    audit_argv = ["audit", "--trace", str(trace), "--graphs", str(graph_file)]
    return graph_file, [
        Step("simulate", ["simulate", protocol, "--n", str(n), "--seed", str(seed), "--output", str(out)],
             check, (out,), trace_file=trace),
        Step("audit", audit_argv + ([] if replay else ["--no-replay"]), check_audit(replay)),
    ]


def _symmetrise_step(graph_file: Path, work: Path) -> Step:
    out = work / "sym"
    return Step("symmetrise", ["symmetrise", "--input", str(graph_file), "--output", str(out)],
                check_symmetrise(graph_file, out), (out,))


# Sizes keep one pipeline iteration near a second, so a run holds tens of
# samples; see README.md for the sizes first proposed and why they shrank.
STAR_N, PERM_N, LABS = 6, 9, 7


def star_replay(seed: int, work: Path) -> list[Step]:
    # The dominant step is audit with replay; the companion symmetrise sums
    # the run's own integer star graphs over all n! permutations.
    graph_file, steps = _simulate_steps("star-op", STAR_N, seed, work, replay=True)
    return steps + [_symmetrise_step(graph_file, work)]


def perm_wide(seed: int, work: Path) -> list[Step]:
    # An 18-qubit registry and a dense 512 x 512 permutation in the trace; the
    # companion symmetrise is closed form only (n = 9 is above the brute-force cap).
    graph_file, steps = _simulate_steps("perm-comm", PERM_N, seed, work, replay=False)
    return steps + [_symmetrise_step(graph_file, work)]


def calculus(seed: int, work: Path) -> list[Step]:
    # The dominant step is the 7! = 5040 permutation sum in Fraction
    # arithmetic; the companion star-op at n = 3 gives simulate and audit
    # samples whose ledger equals the bounds' teleport figures at n = 3.
    work.mkdir(parents=True, exist_ok=True)
    graph_file = work / "labs.json"
    graph_file.write_text(json.dumps(rational_graph(LABS, random.Random(seed)), indent=1) + "\n",
                          encoding="utf-8")
    bounds_dir = work / "bounds"
    steps = [_symmetrise_step(graph_file, work)]
    for fmt in ("csv", "json"):
        path = bounds_dir / f"bounds.{fmt}"
        steps.append(Step("bounds", ["bounds", "--n-max", "64", "--format", fmt, "--output", str(path)],
                          check_bounds(path, 64, fmt), (path,)))
    _, companions = _simulate_steps("star-op", 3, seed, work, replay=True)
    return steps + companions


WORKLOADS = {
    "star-replay": (star_replay, f"audit with replay of a {STAR_N}-party Haar star-op: "
                                 "per-cut entropies dominate"),
    "perm-wide": (perm_wide, f"{PERM_N}-party perm-comm on a {2 * PERM_N}-qubit registry, audit "
                             "without replay: trace dump and load dominate"),
    "calculus": (calculus, f"symmetrise a {LABS}-lab rational graph plus bounds to n = 64: "
                           "exact Fraction arithmetic, no statevector"),
}
