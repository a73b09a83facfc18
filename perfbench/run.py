#!/usr/bin/env python3
"""The ebitnet benchmark: times the real CLI entry point, in process, and checks its outputs.

Run from the repository root:

    python3 perfbench/run.py --workload star-replay --seed 1 --seconds 30 --trace 0

Workloads are ``star-replay``, ``perm-wide`` and ``calculus`` (see README.md
here).  Each runs ``ebitnet.cli.main(argv)`` on inputs made from ``--seed``,
repeating a fixed pipeline of commands until ``--seconds`` have passed, and
checks every command's output.  ``--trace 0`` reports the end-to-end metrics
named in BENCHMARK.json; ``--trace 1`` wraps each ebitnet module from outside
and reports the per-layer metrics.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
check and negative control passed, 1 when one failed, and 2 when the sources
or arguments are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import workloads
from yardstick import YARDSTICK_SECONDS, Yardstick

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BLAS_THREADS = 1  # at most nproc; one thread keeps runs on a shared 2-core box steady
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Child mode used to time set-up: import, make the inputs, print the clock, exit.
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_ebitnet():
    """Import ebitnet from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "ebitnet" / "__init__.py").is_file():
        raise ImportError(f"no ebitnet sources at {src}")
    sys.path.insert(0, str(src))
    import ebitnet
    if src.resolve() not in Path(ebitnet.__file__).resolve().parents:
        raise ImportError(f"ebitnet was imported from {ebitnet.__file__}, not from {src}")
    return ebitnet


# --------------------------------------------------------------------------
# running one command


def run_cli(cli_main, argv: list[str]) -> tuple[int | None, float, str, str]:
    """Run ``cli_main(argv)`` with captured output; returns (exit code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli_main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback from the program is a failed operation, not a crash here
            rc = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return rc, elapsed, out.getvalue(), err.getvalue()


def digests(paths) -> dict[str, str]:
    out = {}
    for path in paths:
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            out[str(f)] = hashlib.sha256(f.read_bytes()).hexdigest()
    return out


def negative_controls(cli_main, work: Path, seed: int) -> list[str]:
    """Two tampered inputs that ``audit`` must reject with exit 1; returns problems."""
    out = work / "control"
    rc, _, _, err = run_cli(cli_main, ["simulate", "star-op", "--n", "4", "--seed", str(seed),
                                       "--output", str(out)])
    if rc != 0:
        return [f"control: simulate star-op --n 4 exited {rc}: {err.strip()}"]
    trace, graph_file = out / "star-op_trace.jsonl", out / "star-op_graphs.json"

    doc = json.loads(graph_file.read_text(encoding="utf-8"))
    comm = doc["communication"]
    i, j = next((i, j) for i, row in enumerate(comm) for j, w in enumerate(row) if Fraction(w) > 0)
    comm[i][j] = str(Fraction(comm[i][j]) - 1)
    low_capacity = out / "low_capacity_graphs.json"
    low_capacity.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")

    lines = trace.read_text(encoding="utf-8").splitlines()
    for k, line in enumerate(lines):
        rec = json.loads(line)
        if rec.get("kind") == "local_measure":
            first = sorted(rec["distribution"])[0]
            rec["distribution"][first] += 0.01
            lines[k] = json.dumps(rec, sort_keys=True)
            break
    shifted = out / "shifted_trace.jsonl"
    shifted.write_text("\n".join(lines) + "\n", encoding="utf-8")

    problems = []
    for name, trace_file, graphs, expected in (
        (f"channel {i + 1}->{j + 1} capacity lowered by 1 bit", trace, low_capacity, "channel-capacity"),
        ("one measurement distribution shifted by 0.01", shifted, graph_file, "replay"),
    ):
        rc, _, stdout, _ = run_cli(cli_main, ["audit", "--trace", str(trace_file), "--graphs", str(graphs)])
        try:
            found = {v["check"] for v in json.loads(stdout)["violations"]}
        except (json.JSONDecodeError, KeyError, TypeError):
            found = set()
        if rc != 1 or expected not in found:
            problems.append(f"control not caught ({name}): audit exited {rc}, violations {sorted(found)}")
        else:
            print(f"# control caught: {name} -> exit 1, {expected} violation")
    return problems


# --------------------------------------------------------------------------
# measurement


class Run:
    """Repeats a workload's pipeline, timing and checking every command."""

    def __init__(self, cli_main, steps, yardstick=None):
        self.cli_main = cli_main
        self.steps = steps
        self.yardstick = yardstick
        self.samples: dict[str, list[float]] = defaultdict(list)  # wall clock
        self.pipeline: list[float] = []
        # Times scaled by the yardstick timed just before each command, with
        # "pipeline" for whole iterations; kept only when there is a yardstick.
        self.scaled: dict[str, list[float]] = defaultdict(list)
        self.yardstick_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[int, dict[str, str]] = {}
        self.trace_bytes = 0

    def iterate(self, call=None, after_call=None) -> None:
        call = call or self.cli_main
        total = scaled_total = 0.0
        for index, step in enumerate(self.steps):
            scale = self.speed()
            rc, elapsed, stdout, stderr = run_cli(call, step.argv)
            total += elapsed
            scaled_total += self.record(step.kind, elapsed, scale)
            if after_call is not None:
                after_call(step.kind)
            self.attempted += 1
            problems = self.check(index, step, rc, stdout, stderr)
            if problems:
                self.failed += 1
                self.problems += [f"{step.kind}: {p}" for p in problems]
        self.pipeline.append(total)
        if self.yardstick is not None:
            self.scaled["pipeline"].append(scaled_total)

    def speed(self) -> float | None:
        """Time the yardstick now; returns the factor that scales the next timing."""
        if self.yardstick is None:
            return None
        self.yardstick_s.append(self.yardstick())
        return YARDSTICK_SECONDS / self.yardstick_s[-1]

    def record(self, kind: str, elapsed: float, scale: float | None) -> float:
        """Keep one timing, wall clock and scaled; returns the scaled one (0 without a yardstick)."""
        self.samples[kind].append(elapsed)
        if scale is None:
            return 0.0
        self.scaled[kind].append(elapsed * scale)
        return elapsed * scale

    def check(self, index, step, rc, stdout, stderr) -> list[str]:
        if rc is None:
            return [f"raised: {stderr.strip().splitlines()[-1] if stderr.strip() else '?'}"]
        try:
            problems = step.check(rc, stdout)
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
        if step.trace_file is not None and step.trace_file.is_file():
            self.trace_bytes = step.trace_file.stat().st_size
        # c12: identical flags and seed give byte-identical files, every time.
        got = digests(step.outputs)
        got["<stdout>"] = hashlib.sha256(stdout.encode()).hexdigest()
        ref = self.reference.setdefault(index, got)
        if got != ref:
            changed = sorted(k for k in ref.keys() | got.keys() if ref.get(k) != got.get(k))
            problems.append(f"output not byte-identical to the first run: {changed}")
        return problems

    def repeat_for(self, seconds: float, between=None, **kwargs) -> None:
        """Iterate until ``seconds`` have passed; ``between(progress)`` runs after each iteration."""
        start = time.perf_counter()
        while True:
            self.iterate(**kwargs)
            elapsed = time.perf_counter() - start
            if between is not None:
                between(elapsed / seconds)
            if elapsed >= seconds:
                return


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it (nearest rank)."""
    n = len(samples)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(p / 100 * n))
    return p, sorted(samples)[rank - 1]


def setup_time(workload: str, seed: int) -> float:
    """Wall time from spawning a fresh interpreter to the moment it is ready to time."""
    start = time.monotonic()  # system-wide clock, comparable with the child's
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if child.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {child.stderr.strip()}")
    return float(child.stdout.split()[-1]) - start


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)), "seed": seed, "commit": git_commit(),
        "machine": platform.machine(),
    }


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def declared_metrics(section: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[section]


# --------------------------------------------------------------------------
# the two kinds of run


def end_to_end(run: Run) -> tuple[dict[str, float], dict[str, list[float]], dict[str, list[float]]]:
    """Medians of the yardstick-scaled timings; also returns the scaled and the wall-clock samples."""
    scaled = {f"{kind}_s": values for kind, values in run.scaled.items()}
    wall = {f"{kind}_s": values for kind, values in run.samples.items()}
    wall["pipeline_s"] = run.pipeline
    values = {name: statistics.median(v) for name, v in scaled.items()}
    values["trace_mb"] = run.trace_bytes / 1e6
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return values, scaled, wall


def per_layer(run: Run, tracer, seconds: float) -> dict[str, float]:
    """Alternate untraced and traced iterations, so both see the same machine."""
    per_iteration, per_kind = [], defaultdict(lambda: defaultdict(float))
    untraced, traced = [], []
    current = defaultdict(float)

    def after_call(kind):
        for name, value in tracer.snapshot().items():
            current[name] += value
            per_kind[kind][name] += value
        tracer.reset()

    def traced_main(argv):
        return tracer.span("cli", run.cli_main, argv)

    start = time.perf_counter()
    while True:
        run.iterate()
        untraced.append(run.pipeline[-1])
        tracer.install()
        try:
            run.iterate(call=traced_main, after_call=after_call)
        finally:
            tracer.uninstall()
        traced.append(run.pipeline[-1])
        per_iteration.append(dict(current))
        current.clear()
        if time.perf_counter() - start >= seconds:
            break
    names = {name for snap in per_iteration for name in snap}
    values = {name: statistics.median(snap.get(name, 0.0) for snap in per_iteration) for name in names}
    values.update(tracer.maxima)
    # Each traced iteration against the untraced one just before it, so a
    # host phase of a few seconds slows both sides of a pair alike.
    values["trace_overhead"] = statistics.median(t / u for t, u in zip(traced, untraced)) - 1
    print(f"# {len(traced)} traced and {len(untraced)} untraced iterations, alternating; "
          f"pipeline_s traced {statistics.median(traced):.4f} s, untraced {statistics.median(untraced):.4f} s")
    for kind, totals in per_kind.items():
        top = sorted(((v, k) for k, v in totals.items() if k.endswith(".self_s")), reverse=True)[:4]
        share = ", ".join(f"{k} {v:.3f} s" for v, k in top)
        print(f"# largest self times in {kind}, summed over traced iterations: {share}")
    return values


def report(run: Run, values: dict[str, float], samples: dict[str, list[float]] | None,
           wall: dict[str, list[float]] | None, section: str, correct: bool) -> None:
    metrics = {}
    for spec in declared_metrics(section):
        name, unit = spec["name"], spec["unit"]
        # A layer no call reached has a per-layer value of 0; an end-to-end metric must be measured.
        value = float(values[name] if section == "end_to_end" else values.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        note = ""
        if samples is not None and name in samples:
            tail = tail_percentile(samples[name])
            note = f"  (median of {len(samples[name])} samples; " + (
                f"p{tail[0]} {tail[1]:.6g} {unit}" if tail else "fewer than 11 samples, no tail percentile")
            note += f"; wall clock median {statistics.median(wall[name]):.6g} {unit})"
        print(f"{name:34s} {value:.6g} {unit}{note}")
    error_rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"{'error_rate':34s} {error_rate:.6g} 1  ({run.failed} of {run.attempted} operations failed)")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    try:
        ebitnet = import_ebitnet()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from ebitnet import cli

    build, why = workloads.WORKLOADS[args.workload]
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        steps = build(args.seed, work / "run")
        if args.setup_probe:
            print(time.monotonic())
            return 0
        print(f"# ebitnet benchmark: workload {args.workload} ({why}); "
              f"{args.seconds:g} s, trace {args.trace}")
        print(f"# env: {json.dumps(environment(args.seed), sort_keys=True)}")
        print(f"# ebitnet {ebitnet.__version__} from {Path(ebitnet.__file__).parent}")
        control_problems = negative_controls(cli.main, work, args.seed)
        if args.trace:
            from tracer import Tracer
            run = Run(cli.main, steps)
            values, samples, wall = per_layer(run, Tracer(), args.seconds), None, None
            section = "per_layer"
        else:
            run = Run(cli.main, steps, Yardstick())
            # Set-up probes are spread over the run, so they see the same
            # machine as the timed commands do, and are scaled like them.
            setup = run.samples["setup"]

            def probe():
                scale = run.speed()
                run.record("setup", setup_time(args.workload, args.seed), scale)

            def probe_when_due(progress):
                if len(setup) < min(SETUP_PROBES, 1 + int(progress * SETUP_PROBES)):
                    probe()

            probe()
            run.repeat_for(args.seconds, between=probe_when_due)
            while len(setup) < SETUP_PROBES:
                probe()
            (values, samples, wall), section = end_to_end(run), "end_to_end"
            print(f"# yardstick: median {statistics.median(run.yardstick_s) * 1e3:.4g} ms over "
                  f"{len(run.yardstick_s)} timings, scaled to {YARDSTICK_SECONDS * 1e3:g} ms")
        for problem in control_problems + run.problems[:20]:
            print(f"# FAIL {problem}")
        correct = not control_problems and run.failed == 0
        report(run, values, samples, wall, section, correct)
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
