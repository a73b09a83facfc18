"""Batch command-line front-end.

Subcommands: ``simulate`` runs a named protocol with a deterministic seed
and writes its trace, ledger summary and initial resource graphs;
``bounds`` tabulates every closed-form bound as CSV or JSON; ``symmetrise``
symmetrises a graph file and cross-checks the closed form against the
explicit permutation sum; ``audit`` replays a trace against its resource
graphs and reports violations.

Exit codes: 0 on success with all postconditions held, 1 when a
postcondition or audit check fails, 2 on invalid arguments or malformed
input.  Identical flags and seed produce byte-identical output files; the
optional ``--sample`` mode only prints illustrative draws and never
affects exit codes.  The environment variable EBITNET_MAX_QUBITS overrides
the default registry cap of 24.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
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


class CliUsageError(Exception):
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


# --------------------------------------------------------------------------
# simulate


def _check(report: dict, name: str, ok: bool, detail: str) -> None:
    report["checks"].append({"name": name, "ok": bool(ok), "detail": detail})


def _simulate_teleport(n: int, rng: np.random.Generator, hub: int, cap: int):
    run = protocols.new_run(2, cap)
    state = gates.random_state(2, rng)
    run.ensemble, (q1,) = engine.allocate_qubits(run.ensemble, 1, 1, labels=("q1",))
    run.ensemble = engine.BranchEnsemble.from_amplitudes((q1,), state, cap)
    run.data_qubits[1] = q1
    run.ledger.grant(1, 2, 1)
    run.snapshot_initial()
    moved = protocols.teleport(run, q1, to=2)
    report = {"checks": []}
    fid = engine.ensemble_fidelity(run.ensemble, [moved], state)
    _check(report, "fidelity", fid >= 1 - 1e-10, f"teleported state fidelity {fid:.15f}")
    _check(report, "ledger", run.ledger.total_consumed() == 1 and run.ledger.total_bits_sent() == 2,
           f"consumed {run.ledger.total_consumed()} ebits, sent {run.ledger.total_bits_sent()} bits")
    return run, report


def _simulate_two_qubit(n: int, rng: np.random.Generator, hub: int, cap: int):
    run = protocols.new_run(2, cap)
    state = gates.random_state(4, rng)
    u = gates.haar_unitary(4, rng)
    protocols.add_data_qubits(run, state)
    run.ledger.grant(1, 2, 2)
    run.snapshot_initial()
    protocols.collective_op_two_qubit(run, protocols.CollectiveOp(unitary=u))
    report = {"checks": []}
    fid = engine.ensemble_fidelity(run.ensemble, protocols.data_order(run), u @ state)
    _check(report, "fidelity", fid >= 1 - 1e-10, f"output state fidelity {fid:.15f}")
    led = run.ledger
    ok = (led.total_consumed() == 2
          and led.bits_sent.get((1, 2)) == 2 and led.bits_sent.get((2, 1)) == 2)
    _check(report, "ledger", ok,
           f"consumed {led.total_consumed()} ebits, bits {dict(led.bits_sent)}")
    return run, report


def _simulate_star(n: int, rng: np.random.Generator, hub: int, cap: int,
                   unitary: np.ndarray | None = None, label: str = "star-op"):
    if n < 2:
        raise CliUsageError(f"{label} needs --n >= 2")
    if not 1 <= hub <= n:
        raise CliUsageError(f"--hub {hub} out of range 1..{n}")
    run = protocols.new_run(n, cap)
    state = gates.random_state(1 << n, rng)
    u = gates.haar_unitary(1 << n, rng) if unitary is None else unitary
    protocols.add_data_qubits(run, state)
    for i in range(1, n + 1):
        if i != hub:
            run.ledger.grant(i, hub, 2)
    run.snapshot_initial()
    protocols.collective_op_star(run, protocols.CollectiveOp(unitary=u), hub=hub)
    report = {"checks": []}
    fid = engine.ensemble_fidelity(run.ensemble, protocols.data_order(run), u @ state)
    _check(report, "fidelity", fid >= 1 - 1e-9, f"output state fidelity {fid:.15f}")
    ent_star, comm_star = graphs.star_graphs(n, hub)
    ok_e = run.ledger.consumed_matrix(n) == [list(r) for r in ent_star.weights]
    ok_c = run.ledger.bits_matrix(n) == [list(r) for r in comm_star.weights]
    _check(report, "ledger-matrix", ok_e and ok_c,
           "per-pair usage equals the hub star pattern" if ok_e and ok_c
           else "per-pair usage deviates from the hub star pattern")
    totals_ok = (run.ledger.total_consumed() == 2 * (n - 1)
                 and run.ledger.total_bits_sent() == 4 * (n - 1))
    _check(report, "ledger-totals", totals_ok,
           f"consumed {run.ledger.total_consumed()}, sent {run.ledger.total_bits_sent()}")
    return run, report


def _simulate_swap_comm(n: int, rng: np.random.Generator, hub: int, cap: int):
    msg_ab = "".join(str(b) for b in rng.integers(0, 2, size=2))
    msg_ba = "".join(str(b) for b in rng.integers(0, 2, size=2))
    result = protocols.swap_communicate_demo(msg_ab, msg_ba, cap)
    report = {"checks": []}
    _check(report, "decode", result.decoded == result.sent,
           f"sent {result.sent}, decoded {result.decoded}")
    led = result.run.ledger
    _check(report, "ledger", led.total_consumed() == 2 and led.total_bits_sent() == 0,
           f"consumed {led.total_consumed()} ebits, {led.total_bits_sent()} channel bits")
    return result.run, report


def _simulate_swap_entangle(n: int, rng: np.random.Generator, hub: int, cap: int):
    result = protocols.swap_entangle_demo(cap)
    report = {"checks": []}
    _check(report, "entropy", abs(result.entropy - 2.0) <= 1e-9,
           f"entanglement across the cut: {result.entropy:.12f} ebits")
    _check(report, "ledger", result.run.ledger.total_created() == 2,
           f"created {result.run.ledger.total_created()} ebits")
    return result.run, report


def _simulate_perm_entangle(n: int, rng: np.random.Generator, hub: int, cap: int):
    if n < 2:
        raise CliUsageError("perm-entangle needs --n >= 2")
    result = protocols.permutation_entangle(Permutation.cyclic_shift(n), cap)
    report = {"checks": []}
    _check(report, "created", result.run.ledger.total_created() == n,
           f"created {result.run.ledger.total_created()} shared ebits")
    ents = [engine.entropy_of_qubits(result.run.ensemble, [a]) for a, _ in result.pair_qubits]
    _check(report, "pair-entropy", all(abs(x - 1.0) <= 1e-9 for x in ents),
           f"per-pair entropies {['%.9f' % x for x in ents]}")
    return result.run, report


def _simulate_perm_comm(n: int, rng: np.random.Generator, hub: int, cap: int):
    if n < 2:
        raise CliUsageError("perm-comm needs --n >= 2")
    messages = {i: "".join(str(b) for b in rng.integers(0, 2, size=2)) for i in range(1, n + 1)}
    result = protocols.permutation_communicate(Permutation.cyclic_shift(n), messages, cap)
    report = {"checks": []}
    _check(report, "decode", result.decoded == result.sent,
           f"{2 * n} bits conveyed, {sum(result.decoded[i] == result.sent[i] for i in result.sent)}"
           f"/{n} messages correct")
    return result.run, report


def _simulate_ps(n: int, rng: np.random.Generator, hub: int, cap: int):
    if n < 2 or n % 2:
        raise CliUsageError(f"ps needs an even --n >= 2, got {n}")
    return _simulate_star(n, rng, hub, cap, unitary=gates.ps_unitary(n), label="ps")


def _simulate_ps_cp(n: int, rng: np.random.Generator, hub: int, cap: int):
    if n < 3 or n % 2 == 0:
        raise CliUsageError(f"ps-cp needs an odd --n >= 3, got {n}")
    return _simulate_star(n, rng, hub, cap, unitary=gates.ps_cp_unitary(n), label="ps-cp")


_SIMULATORS = {
    "teleport": _simulate_teleport,
    "two-qubit-op": _simulate_two_qubit,
    "star-op": _simulate_star,
    "swap-comm": _simulate_swap_comm,
    "swap-entangle": _simulate_swap_entangle,
    "perm-entangle": _simulate_perm_entangle,
    "perm-comm": _simulate_perm_comm,
    "ps": _simulate_ps,
    "ps-cp": _simulate_ps_cp,
}


def cmd_simulate(args) -> int:
    cap = _max_qubits()
    rng = np.random.default_rng(args.seed)
    run, report = _SIMULATORS[args.protocol](args.n, rng, args.hub, cap)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    stem = args.protocol
    (outdir / f"{stem}_trace.jsonl").write_text(dump_trace(run.trace), encoding="utf-8")
    ledger_doc = dict(run.ledger.summary())
    ledger_doc["checks"] = report["checks"]
    (outdir / f"{stem}_ledger.json").write_text(
        json.dumps(ledger_doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    n = run.n_parties
    bundle = graphs.GraphBundle(
        n,
        graphs.EntanglementGraph(n, tuple(tuple(r) for r in run.ledger.granted_matrix(n))),
        graphs.CommunicationGraph(n, tuple(tuple(r) for r in run.ledger.bits_matrix(n))),
    )
    (outdir / f"{stem}_graphs.json").write_text(graphs.export_json(bundle), encoding="utf-8")
    for check in report["checks"]:
        status = "ok" if check["ok"] else "FAIL"
        print(f"{stem}: {check['name']}: {status} ({check['detail']})")
    if args.sample:
        _print_samples(run, args.sample, args.seed)
    return 0 if all(c["ok"] for c in report["checks"]) else 1


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
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        Path(args.output).write_text(text, encoding="utf-8")
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
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    sym_ent = sym_comm = None
    for kind, g in (("entanglement", bundle.entanglement), ("communication", bundle.communication)):
        if g is None:
            continue
        total = graphs.total_entanglement(g) if kind == "entanglement" else graphs.total_communication(g)
        letter = "e" if kind == "entanglement" else "c"
        weight = graphs.symmetrised_edge_weight(kind, total, n)
        print(f"{kind}: total {total}, symmetrised edge weight {letter} = {weight} (closed form)")
        if n <= graphs.BRUTE_FORCE_MAX:
            sym = graphs.symmetrise(g)
            entries = {sym.weights[i][j] for i in range(n) for j in range(n) if i != j}
            ok = entries == {weight}
            print(f"{kind}: brute-force cross-check over {math.factorial(n)} "
                  f"permutations: {'ok' if ok else 'MISMATCH ' + str(sorted(entries))}")
            if not ok:
                return 1
            if kind == "entanglement":
                sym_ent = sym
            else:
                sym_comm = sym
        else:
            print(f"{kind}: brute-force cross-check skipped "
                  f"(n = {n} exceeds the cap of {graphs.BRUTE_FORCE_MAX})")
        (outdir / f"{kind}.dot").write_text(
            graphs.export_dot(g, name=kind), encoding="utf-8")
    if sym_ent is not None or sym_comm is not None:
        sym_bundle = graphs.GraphBundle(n, sym_ent, sym_comm)
        (outdir / "symmetrised.json").write_text(graphs.export_json(sym_bundle), encoding="utf-8")
        for kind, g in (("entanglement", sym_ent), ("communication", sym_comm)):
            if g is not None:
                (outdir / f"symmetrised_{kind}.dot").write_text(
                    graphs.export_dot(g, name=f"symmetrised_{kind}"), encoding="utf-8")
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
    try:
        report = audit_mod.audit_trace(trace, bundle, replay=not args.no_replay)
    except ValueError as exc:
        raise CliUsageError(str(exc)) from None
    doc = {
        "n_parties": report.n_parties,
        "checks_run": report.checks_run,
        "replayed": report.replayed,
        "violations": [
            {"check": v.check, "detail": v.detail, "step": v.step} for v in report.violations
        ],
    }
    print(json.dumps(doc, sort_keys=True, indent=2))
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
        return args.func(args)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (graphs.GraphFormatError, engine.RegistryCapacityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
