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
produce byte-identical output files; the optional ``--sample`` mode only
prints illustrative draws and never affects exit codes.  The environment
variable EBITNET_MAX_QUBITS overrides the default registry cap of 24.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import audit as audit_mod
from . import bounds, engine, gates, graphs, protocols
from .gates import Permutation
from .ledger import LocalMeasure, dump_trace, load_trace

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
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliUsageError(f"cannot write {path}: {exc}") from None


# --------------------------------------------------------------------------
# simulate


# Each simulator returns the run and its checks as (name, ok, detail) tuples.


def _simulate_teleport(n: int, rng: np.random.Generator, hub: int, cap: int):
    run = protocols.new_run(2, cap)
    state = gates.random_state(2, rng)
    run.ensemble, (q1,) = engine.allocate_qubits(run.ensemble, 1, 1, labels=("q1",))
    run.ensemble = engine.BranchEnsemble.from_amplitudes((q1,), state, cap)
    run.data_qubits[1] = q1
    run.ledger.grant(1, 2, 1)
    run.snapshot_initial()
    moved = protocols.teleport(run, q1, to=2)
    fid = engine.ensemble_fidelity(run.ensemble, [moved], state)
    led = run.ledger
    return run, [
        ("fidelity", fid >= 1 - 1e-10, f"teleported state fidelity {fid:.15f}"),
        ("ledger", led.total_consumed() == 1 and led.total_bits_sent() == 2,
         f"consumed {led.total_consumed()} ebits, sent {led.total_bits_sent()} bits"),
    ]


def _simulate_star(n: int, rng: np.random.Generator, hub: int, cap: int, permutation_of=None):
    """The hub-star run of the permutation ``permutation_of(n)``, or of a Haar unitary when None."""
    run = protocols.new_run(n, cap)
    state = gates.random_state(1 << n, rng)
    if permutation_of is None:
        u = gates.haar_unitary(1 << n, rng)
        op, slots, want = protocols.CollectiveOp(unitary=u), range(1, n + 1), u @ state
    else:
        # slot p(i) ends up holding what slot i held: read in that order, the output is the input
        p = permutation_of(n)
        op, slots, want = protocols.CollectiveOp(permutation=p), [p(i) for i in range(1, n + 1)], state
    protocols.add_data_qubits(run, state)
    for i in range(1, n + 1):
        if i != hub:
            run.ledger.grant(i, hub, 2)
    run.snapshot_initial()
    protocols.collective_op_star(run, op, hub=hub)
    fid = engine.ensemble_fidelity(run.ensemble, [run.data_qubits[i] for i in slots], want)
    led = run.ledger
    ent_star, comm_star = graphs.star_graphs(n, hub)
    star = (led.consumed_matrix(n) == [list(r) for r in ent_star.weights]
            and led.bits_matrix(n) == [list(r) for r in comm_star.weights])
    return run, [
        ("fidelity", fid >= 1 - 1e-9, f"output state fidelity {fid:.15f}"),
        ("ledger-matrix", star, "per-pair usage equals the hub star pattern" if star
         else "per-pair usage deviates from the hub star pattern"),
        ("ledger-totals", led.total_consumed() == 2 * (n - 1) and led.total_bits_sent() == 4 * (n - 1),
         f"consumed {led.total_consumed()}, sent {led.total_bits_sent()}"),
    ]


def _simulate_perm_entangle(n: int, rng: np.random.Generator, hub: int, cap: int):
    result = protocols.permutation_entangle(Permutation.cyclic_shift(n), cap)
    created = result.run.ledger.total_created()
    ents = engine.subset_entropies(result.run.ensemble, [[a] for a, _ in result.pair_qubits])
    # party 1 shares one pair with party 2 and one with party n
    cut = engine.entanglement_entropy(result.run.ensemble, {1})
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
    return result.run, [
        ("decode", result.decoded == result.sent, f"{2 * n} bits conveyed, {correct}/{n} messages correct"),
        ("ledger", led.total_consumed() == n and led.total_bits_sent() == 0,
         f"consumed {led.total_consumed()} ebits, {led.total_bits_sent()} channel bits"),
    ]


_SIMULATORS = {
    "teleport": _simulate_teleport,
    "star-op": _simulate_star,
    "perm-entangle": _simulate_perm_entangle,
    "perm-comm": _simulate_perm_comm,
    "ps": partial(_simulate_star, permutation_of=gates.ps_permutation),
    "ps-cp": partial(_simulate_star, permutation_of=gates.ps_cp_permutation),
}
# protocol -> (smallest --n, the parity --n must have or None); the others ignore --n
_N_RULES = {"star-op": (2, None), "perm-entangle": (2, None), "perm-comm": (2, None),
            "ps": (2, 0), "ps-cp": (3, 1)}
_HUB_PROTOCOLS = ("star-op", "ps", "ps-cp")
# the two-party runs, which ignore --n and --hub: protocol -> (protocol, n, hub) run instead
_TWO_PARTY = {"two-qubit-op": ("star-op", 2, 2), "swap-comm": ("perm-comm", 2, 1),
              "swap-entangle": ("perm-entangle", 2, 1)}


def _simulate(protocol: str, n: int, rng: np.random.Generator, hub: int, cap: int):
    """Run ``protocol`` after checking --n and --hub; returns (run, checks)."""
    protocol, n, hub = _TWO_PARTY.get(protocol, (protocol, n, hub))
    if protocol in _N_RULES:
        least, parity = _N_RULES[protocol]
        if parity is None and n < least:
            raise CliUsageError(f"{protocol} needs --n >= {least}")
        if parity is not None and (n < least or n % 2 != parity):
            raise CliUsageError(f"{protocol} needs an {('even', 'odd')[parity]} --n >= {least}, got {n}")
    if protocol in _HUB_PROTOCOLS and not 1 <= hub <= n:
        raise CliUsageError(f"--hub {hub} out of range 1..{n}")
    return _SIMULATORS[protocol](n, rng, hub, cap)


def cmd_simulate(args) -> int:
    if args.sample < 0:
        raise CliUsageError(f"--sample must be >= 0, got {args.sample}")
    cap = _max_qubits()
    rng = np.random.default_rng(args.seed)
    outdir = _output_dir(args.output)  # a path that cannot be written fails before the run
    run, checks = _simulate(args.protocol, args.n, rng, args.hub, cap)
    stem = args.protocol
    _write(outdir / f"{stem}_trace.jsonl", dump_trace(run.trace))
    ledger_doc = dict(run.ledger.summary())
    ledger_doc["checks"] = [{"name": name, "ok": bool(ok), "detail": detail} for name, ok, detail in checks]
    _write(outdir / f"{stem}_ledger.json", json.dumps(ledger_doc, sort_keys=True, indent=2) + "\n")
    n = run.n_parties
    bundle = graphs.GraphBundle(
        n,
        graphs.EntanglementGraph(n, tuple(tuple(r) for r in run.ledger.granted_matrix(n))),
        graphs.CommunicationGraph(n, tuple(tuple(r) for r in run.ledger.bits_matrix(n))),
    )
    _write(outdir / f"{stem}_graphs.json", graphs.export_json(bundle))
    for name, ok, detail in checks:
        print(f"{stem}: {name}: {'ok' if ok else 'FAIL'} ({detail})")
    if args.sample:
        _print_samples(run, args.sample, args.seed)
    return 0 if all(ok for _, ok, _ in checks) else 1


def _print_samples(run, count: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    for i, ev in enumerate(ev for ev in run.trace.events if isinstance(ev, LocalMeasure)):
        outcomes = [k for k, _ in ev.distribution]
        probs = np.array([p for _, p in ev.distribution])
        draws = rng.choice(outcomes, size=count, p=probs / probs.sum())
        print(f"sample: measurement {i} at party {ev.party}: {' '.join(draws)}")


# --------------------------------------------------------------------------
# bounds


def _amount(value):
    """A bound figure for the JSON table: integers stay numbers, rationals become strings."""
    return value if isinstance(value, int) else str(value)


def cmd_bounds(args) -> int:
    if args.n_max > 64:
        raise CliUsageError(f"--n-max is capped at 64, got {args.n_max}")
    if args.format == "csv":
        lines = [",".join(("n", "kind") + bounds.RESOURCES)]
        for r in bounds.table_rows(args.n_max):
            cells = ("" if r[name] is None else str(r[name]) for name in bounds.RESOURCES)
            lines.append(",".join([str(r["n"]), r["kind"], *cells]))
        text = "\n".join(lines) + "\n"
    else:
        doc = []
        for rep in bounds.bound_table(args.n_max):
            entry = {"n": rep.n, "parity": rep.parity, "optimality_open": rep.optimality_open,
                     "half_transfer_conditional": rep.half_transfer_conditional}
            for name in bounds.RESOURCES:
                e, c = getattr(rep, f"{name}_e"), getattr(rep, f"{name}_c")
                entry[name] = None if e is None else {"e": _amount(e), "c": _amount(c)}
            doc.append(entry)
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
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
    except OSError as exc:
        raise CliUsageError(f"cannot read {args.input}: {exc}") from None
    bundle = graphs.import_json(text)
    n = bundle.n
    outdir = _output_dir(args.output)
    symmetrised = {}  # kind -> symmetrised graph
    # every file holds a graph, so below the cap the pair counts are built once for both graphs' sums
    counts = graphs.pair_counts(n) if n <= graphs.BRUTE_FORCE_MAX else None
    for kind, g in (("entanglement", bundle.entanglement), ("communication", bundle.communication)):
        if g is None:
            continue
        total = graphs.total_entanglement(g) if kind == "entanglement" else graphs.total_communication(g)
        letter = "e" if kind == "entanglement" else "c"
        weight = graphs.symmetrised_edge_weight(kind, total, n)
        print(f"{kind}: total {total}, symmetrised edge weight {letter} = {weight} (closed form)")
        if n <= graphs.BRUTE_FORCE_MAX:
            sym = graphs.symmetrise(g, counts)
            entries = {sym.weights[i][j] for i in range(n) for j in range(n) if i != j}
            ok = entries == {weight}
            print(f"{kind}: brute-force cross-check over {math.factorial(n)} "
                  f"permutations: {'ok' if ok else 'MISMATCH ' + str(sorted(entries))}")
            if not ok:
                return 1
            symmetrised[kind] = sym
        else:
            print(f"{kind}: brute-force cross-check skipped "
                  f"(n = {n} exceeds the cap of {graphs.BRUTE_FORCE_MAX})")
        _write(outdir / f"{kind}.dot", graphs.export_dot(g, name=kind))
    if symmetrised:
        sym_bundle = graphs.GraphBundle(n, **symmetrised)
        _write(outdir / "symmetrised.json", graphs.export_json(sym_bundle))
        for kind, g in symmetrised.items():
            _write(outdir / f"symmetrised_{kind}.dot", graphs.export_dot(g, name=f"symmetrised_{kind}"))
    example = graphs.four_lab_example()
    if bundle.entanglement is not None and bundle.entanglement == example.entanglement:
        print("note: the symmetrised edge weight of this four-lab example is sometimes "
              "quoted as 24; the explicit permutation sum and the closed form both give "
              "48 (the companion communication value, 42, is consistent)")
    return 0


# --------------------------------------------------------------------------
# audit


def cmd_audit(args) -> int:
    try:
        trace = load_trace(Path(args.trace).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CliUsageError(f"trace: {exc}") from None
    try:
        bundle = graphs.import_json(Path(args.graphs).read_text(encoding="utf-8"))
    except (OSError, graphs.GraphFormatError) as exc:
        raise CliUsageError(f"graphs: {exc}") from None
    report = audit_mod.audit_trace(trace, bundle, replay=not args.no_replay)
    print(json.dumps(dataclasses.asdict(report), sort_keys=True, indent=2))
    return 0 if report.ok else 1


# --------------------------------------------------------------------------
# entry point


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
    p_sim.add_argument("--sample", type=int, default=0, metavar="K",
                       help="also print K sampled outcomes per measurement (demo only)")
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
    except (ValueError, engine.RegistryCapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
