"""Batch command-line front-end.

Subcommands: ``simulate`` runs a named protocol with a deterministic seed
and writes its trace, ledger summary and initial resource graphs (the
two-party names two-qubit-op, swap-comm and swap-entangle run star-op,
perm-comm and perm-entangle at N = 2);
``bounds`` tabulates every closed-form bound as CSV or JSON; ``symmetrise``
symmetrises a graph file and cross-checks the closed form against the
explicit permutation sum; ``audit`` replays a trace against its resource
graphs and reports violations.

Exit codes: 0 on success with all postconditions held, 1 when a
postcondition or audit check fails, 2 on invalid arguments, malformed
input or an output path that cannot be written, 141 (128 + SIGPIPE) when
stdout is closed before the output is written.  Identical flags and seed
produce byte-identical output files on a fixed BLAS thread count
(``OPENBLAS_NUM_THREADS``): from 128x128 up, the Haar draw's QR gives other
bytes on another thread count.  An existing output file is rewritten in
place (see ``_write``).  The environment
variable EBITNET_MAX_QUBITS overrides the default registry cap of 24 for
``simulate`` and ``audit``; a trace cannot raise the cap in force.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import stat
import sys
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import audit as audit_mod
from . import bounds, engine, gates, graphs, protocols
from .gates import Permutation
from .ledger import dump_trace, load_trace

PROTOCOLS = (
    "teleport", "two-qubit-op", "star-op", "swap-comm", "swap-entangle",
    "perm-entangle", "perm-comm", "ps", "ps-cp",
)


class CliUsageError(ValueError):
    pass


def _max_qubits() -> int:
    raw = os.environ.get("EBITNET_MAX_QUBITS")
    if raw is None:
        return engine.DEFAULT_MAX_QUBITS
    try:
        value = int(raw)
    except ValueError:
        raise CliUsageError(f"EBITNET_MAX_QUBITS must be an integer, got {raw!r}") from None
    if value < 1:
        raise CliUsageError(f"EBITNET_MAX_QUBITS must be positive, got {value}")
    return value


def _output_dir(path: str | Path) -> Path:
    """The directory ``path``, made with its parents if missing."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliUsageError(f"cannot make the directory {path}: {exc}") from None
    return Path(path)


def _write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, rewriting an existing file in place.

    The open has no ``O_TRUNC``: a regular file is cut at the end of what was
    written instead, which on some filesystems costs far less than truncating
    it to zero first.  So a file keeps its inode and mode, a symlink is
    followed, and a write that fails part way leaves a prefix of the new bytes.
    A device or FIFO (``/dev/stdout``, ``/dev/null``) is written, not cut.
    """
    data = memoryview(text.encode("utf-8"))
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)  # the mode open(path, "w") passes
        try:
            written = 0
            try:
                while written < len(data):
                    written += os.write(fd, data[written:])
            finally:
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, written)
        finally:
            os.close(fd)
    except OSError as exc:
        raise CliUsageError(f"cannot write {path}: {exc}") from None


# --------------------------------------------------------------------------
# simulate


# Each simulator returns the run and its checks as (name, ok, detail) tuples.


def _simulate_teleport(n: int, rng: np.random.Generator, hub: int, cap: int):
    state = gates.random_state(2, rng)
    run = protocols.new_run(2, state, max_qubits=cap)
    run.ledger.grant(1, 2, 1)
    moved = protocols.teleport(run, run.data_qubits[1], to=2)
    fid = engine.ensemble_fidelity(run.ensemble, [moved], state)
    led = run.ledger
    consumed, sent = led.total(led.ebits_consumed), led.total(led.bits_sent)
    return run, [
        ("fidelity", fid >= 1 - 1e-10, f"teleported state fidelity {fid:.15f}"),
        ("ledger", consumed == 1 and sent == 2, f"consumed {consumed} ebits, sent {sent} bits"),
    ]


def _simulate_star(n: int, rng: np.random.Generator, hub: int, cap: int, permutation_of=None):
    """The hub-star run of the permutation ``permutation_of(n)``, or of a Haar unitary when None."""
    state = gates.random_state(1 << n, rng)
    if permutation_of is None:
        u = gates.haar_unitary(1 << n, rng)
        op, slots, want = protocols.CollectiveOp(unitary=u), range(1, n + 1), u @ state
    else:
        # slot p(i) ends up holding what slot i held: read in that order, the output is the input
        p = permutation_of(n)
        op, slots, want = protocols.CollectiveOp(permutation=p), [p(i) for i in range(1, n + 1)], state
    run = protocols.new_run(n, state, max_qubits=cap)
    for i in range(1, n + 1):
        if i != hub:
            run.ledger.grant(i, hub, 2)
    protocols.collective_op_star(run, op, hub=hub)
    fid = engine.ensemble_fidelity(run.ensemble, [run.data_qubits[i] for i in slots], want)
    led = run.ledger
    consumed, sent = led.total(led.ebits_consumed), led.total(led.bits_sent)
    star = (graphs.EntanglementGraph.from_book(n, led.ebits_consumed, led.den),
            graphs.CommunicationGraph.from_book(n, led.bits_sent, led.den)) == graphs.star_graphs(n, hub)
    return run, [
        ("fidelity", fid >= 1 - 1e-9, f"output state fidelity {fid:.15f}"),
        ("ledger-matrix", star, "per-pair usage equals the hub star pattern" if star
         else "per-pair usage deviates from the hub star pattern"),
        ("ledger-totals", (consumed, sent) == bounds.teleport_resources(n), f"consumed {consumed}, sent {sent}"),
    ]


def _simulate_perm_entangle(n: int, rng: np.random.Generator, hub: int, cap: int):
    result = protocols.permutation_entangle(Permutation.cyclic_shift(n), cap)
    led = result.run.ledger
    created = led.total(led.ebits_created)
    ens = result.run.ensemble
    ents = engine.split_entropies(ens, [(i, [j]) for i, j in (ens.locate(a) for a, _ in result.pair_qubits)])
    # party 1 shares one pair with party 2 and one with party n
    cut = engine.entanglement_entropy(ens, {1})
    return result.run, [
        ("created", created == n, f"created {created} shared ebits"),
        ("pair-entropy", all(abs(x - 1.0) <= 1e-9 for x in ents),
         f"per-pair entropies {['%.9f' % x for x in ents]}"),
        ("entropy", abs(cut - 2.0) <= 1e-9, f"entanglement across the cut {{1}}: {cut:.12f} ebits"),
    ]


def _simulate_perm_comm(n: int, rng: np.random.Generator, hub: int, cap: int):
    messages = {i: "".join(str(b) for b in rng.integers(0, 2, size=2)) for i in range(1, n + 1)}
    result = protocols.permutation_communicate(Permutation.cyclic_shift(n), messages, cap)
    correct = sum(result.decoded[i] == result.sent[i] for i in result.sent)
    led = result.run.ledger
    consumed, sent = led.total(led.ebits_consumed), led.total(led.bits_sent)
    return result.run, [
        ("decode", result.decoded == result.sent, f"{2 * n} bits conveyed, {correct}/{n} messages correct"),
        ("ledger", consumed == n and sent == 0, f"consumed {consumed} ebits, {sent} channel bits"),
    ]


# protocol -> (simulator, the least --n or None where --n is ignored, the parity --n must have
# or None, whether it runs at a --hub)
_PROTOCOLS = {
    "teleport": (_simulate_teleport, None, None, False),
    "star-op": (_simulate_star, 2, None, True),
    "perm-entangle": (_simulate_perm_entangle, 2, None, False),
    "perm-comm": (_simulate_perm_comm, 2, None, False),
    "ps": (partial(_simulate_star, permutation_of=gates.ps_permutation), 2, 0, True),
    "ps-cp": (partial(_simulate_star, permutation_of=gates.ps_cp_permutation), 3, 1, True),
}
# the two-party runs, which ignore --n and --hub: protocol -> (protocol, n, hub) run instead
_TWO_PARTY = {"two-qubit-op": ("star-op", 2, 2), "swap-comm": ("perm-comm", 2, 1),
              "swap-entangle": ("perm-entangle", 2, 1)}


def _simulate(protocol: str, n: int, rng: np.random.Generator, hub: int, cap: int):
    """Run ``protocol`` after checking --n and --hub; returns (run, checks)."""
    protocol, n, hub = _TWO_PARTY.get(protocol, (protocol, n, hub))
    simulate, least, parity, at_hub = _PROTOCOLS[protocol]
    if least is not None and (n < least or parity not in (None, n % 2)):
        raise CliUsageError(f"{protocol} needs --n >= {least}" if parity is None
                            else f"{protocol} needs an {('even', 'odd')[parity]} --n >= {least}, got {n}")
    if at_hub and not 1 <= hub <= n:
        raise CliUsageError(f"--hub {hub} out of range 1..{n}")
    # a star run holds n + 2 qubits at its peak, a permutation run 2n: refused before any input is drawn
    peak = n + 2 if at_hub else 2 * n
    if least is not None and peak > cap:
        raise CliUsageError(f"{protocol} at --n {n} needs {peak} qubits, over the registry cap of {cap}")
    return simulate(n, rng, hub, cap)


def cmd_simulate(args) -> int:
    cap = _max_qubits()
    if args.seed < 0:
        raise CliUsageError(f"--seed must be a non-negative integer, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    outdir = _output_dir(args.output)  # a path that cannot be written fails before the run
    run, checks = _simulate(args.protocol, args.n, rng, args.hub, cap)
    stem = args.protocol
    _write(outdir / f"{stem}_trace.jsonl", dump_trace(run.trace))
    ledger_doc = dict(run.ledger.summary())
    ledger_doc["checks"] = [{"name": name, "ok": bool(ok), "detail": detail} for name, ok, detail in checks]
    _write(outdir / f"{stem}_ledger.json", json.dumps(ledger_doc, sort_keys=True, indent=2) + "\n")
    n, led = run.n_parties, run.ledger
    bundle = graphs.GraphBundle(n, graphs.EntanglementGraph.from_book(n, led.granted, led.den),
                                graphs.CommunicationGraph.from_book(n, led.bits_sent, led.den))
    _write(outdir / f"{stem}_graphs.json", graphs.export_json(bundle))
    for name, ok, detail in checks:
        print(f"{stem}: {name}: {'ok' if ok else 'FAIL'} ({detail})")
    return 0 if all(ok for _, ok, _ in checks) else 1


# --------------------------------------------------------------------------
# bounds


def cmd_bounds(args) -> int:
    if args.n_max < 2:
        raise CliUsageError(f"--n-max must be at least 2, got {args.n_max}")
    if args.n_max > 64:
        raise CliUsageError(f"--n-max is capped at 64, got {args.n_max}")
    text = bounds.table_csv(args.n_max) if args.format == "csv" else bounds.table_json(args.n_max)
    if args.output:
        path = Path(args.output)
        _output_dir(path.parent)
        _write(path, text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    boundary = bounds.integer_comm_boundary(args.n_max)
    if boundary is not None:
        print(f"note: rounded up, the conditional half-transfer communication bound equals "
              f"the teleportation figure for every odd n >= {boundary} in this range")
    return 0


# --------------------------------------------------------------------------
# symmetrise


def cmd_symmetrise(args) -> int:
    try:
        text = Path(args.input).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliUsageError(f"cannot read {args.input}: {exc}") from None
    bundle = graphs.import_json(text)
    n = bundle.n
    outdir = _output_dir(args.output)
    symmetrised = {}  # kind -> symmetrised graph
    files = {}  # name -> text of each output file, all built before any is written
    # every file holds a graph, so below the cap the pair counts are built once for both graphs' sums
    counts = graphs.pair_counts(n) if n <= graphs.BRUTE_FORCE_MAX else None
    for g in bundle.graphs:
        kind, weight = g.kind, g.symmetrised_weight()
        print(f"{kind}: total {g.total()}, symmetrised edge weight {kind[0]} = {weight} (closed form)")
        if n <= graphs.BRUTE_FORCE_MAX:
            sym = graphs.symmetrise(g, counts)
            # the sum is held in lowest common terms, so each edge is p/q exactly when den is q and its numerator p
            ok = (sym.den, {sym.nums[a - 1][b - 1] for a, b in sym.pairs()}) == (weight.denominator, {weight.numerator})
            print(f"{kind}: brute-force cross-check over {math.factorial(n)} permutations: "
                  f"{'ok' if ok else 'MISMATCH ' + str(sorted({sym.weight(a, b) for a, b in sym.pairs()}))}")
            if not ok:
                return 1
            symmetrised[kind] = sym
        else:
            print(f"{kind}: brute-force cross-check skipped "
                  f"(n = {n} exceeds the cap of {graphs.BRUTE_FORCE_MAX})")
        files[f"{kind}.dot"] = graphs.export_dot(g)
    if symmetrised:
        files["symmetrised.json"] = graphs.export_json(graphs.GraphBundle(n, **symmetrised))
        for kind, g in symmetrised.items():
            files[f"symmetrised_{kind}.dot"] = graphs.export_dot(g, name=f"symmetrised_{kind}")
    for name, text in files.items():
        _write(outdir / name, text)
    # only a four-party input can be the example, so no other builds it
    if n == 4 and bundle.entanglement is not None and bundle.entanglement == graphs.four_lab_example().entanglement:
        print("note: the symmetrised edge weight of this four-lab example is sometimes "
              "quoted as 24; the explicit permutation sum and the closed form both give "
              "48 (the companion communication value, 42, is consistent)")
    return 0


# --------------------------------------------------------------------------
# audit


def cmd_audit(args) -> int:
    cap = _max_qubits()
    try:
        trace = load_trace(Path(args.trace).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CliUsageError(f"trace: {exc}") from None
    # a header may not raise the cap in force: the replay and the cut listing grow with it
    if trace.initial is not None and trace.initial.max_qubits > cap:
        raise CliUsageError(f"trace: its header's max_qubits of {trace.initial.max_qubits} is over the "
                            f"registry cap of {cap}; EBITNET_MAX_QUBITS sets that cap")
    # every party holds a qubit, so no run has more parties than its registry cap: refused before 2^(n-1) cuts
    cap = cap if trace.initial is None else trace.initial.max_qubits
    if trace.n_parties > cap:
        raise CliUsageError(f"trace has {trace.n_parties} parties, more than its registry cap of {cap} qubits")
    try:
        bundle = graphs.import_json(Path(args.graphs).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, graphs.GraphFormatError) as exc:
        raise CliUsageError(f"graphs: {exc}") from None
    report = audit_mod.audit_trace(trace, bundle, replay=not args.no_replay)
    print(json.dumps(dataclasses.asdict(report), sort_keys=True, indent=2))
    return 0 if report.ok else 1


# --------------------------------------------------------------------------
# entry point


@cache  # parse_args leaves the parser as it was, so every call of main shares one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ebitnet",
        description="Simulate collective-operation protocols on separated qubits "
                    "and evaluate their entanglement/communication resource bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a protocol and write trace/ledger/graph files")
    p_sim.add_argument("protocol", choices=PROTOCOLS)
    p_sim.add_argument("--n", type=int, default=3, help="number of parties (where applicable)")
    p_sim.add_argument("--seed", type=int, default=0, help="seed for random inputs (default 0)")
    p_sim.add_argument("--hub", type=int, default=1, help="hub party for star protocols")
    p_sim.add_argument("--output", default="out", help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_bounds = sub.add_parser("bounds", help="tabulate the closed-form resource bounds")
    p_bounds.add_argument("--n-max", type=int, default=12, dest="n_max")
    p_bounds.add_argument("--format", choices=("csv", "json"), default="csv")
    p_bounds.add_argument("--output", default=None, help="output file (default: stdout)")
    p_bounds.set_defaults(func=cmd_bounds)

    p_sym = sub.add_parser("symmetrise", help="symmetrise a resource-graph file")
    p_sym.add_argument("--input", required=True, help="graph JSON file")
    p_sym.add_argument("--output", default="out", help="output directory")
    p_sym.set_defaults(func=cmd_symmetrise)

    p_audit = sub.add_parser("audit", help="check a trace against its resource graphs")
    p_audit.add_argument("--trace", required=True, help="trace JSONL file")
    p_audit.add_argument("--graphs", required=True, help="resource graph JSON file")
    p_audit.add_argument("--no-replay", action="store_true",
                         help="skip the statevector replay checks")
    p_audit.set_defaults(func=cmd_audit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            return args.func(args)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; the interpreter's exit flush must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
