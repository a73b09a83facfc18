"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured figures (run with -s to see them live)."""

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np

from ebitnet import bounds, cli, engine, gates, graphs, protocols
from ebitnet.engine import Gate, Povm, QubitId
from ebitnet.gates import Permutation

import oracles

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "four_lab_example.json"


@contextmanager
def criterion(number, label, budget_s):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL — {label}")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number}: PASS — {label} ({elapsed:.2f}s, budget {budget_s}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget ({elapsed:.1f}s)"


def derangements(n):
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))
            if all(p[i - 1] != i for i in range(1, n + 1))]


def test_c01_teleportation_correctness():
    with criterion(1, "teleportation fidelity and per-teleport ledger", 1.0):
        rng = np.random.default_rng(101)
        for _ in range(100):
            state = gates.random_state(2, rng)
            run = protocols.new_run(2, state)
            run.ledger.grant(1, 2, 1)
            moved = protocols.teleport(run, run.data_qubits[1], to=2)
            assert engine.ensemble_fidelity(run.ensemble, [moved], state) >= 1 - 1e-10
            assert run.ledger.total(run.ledger.ebits_consumed) == 1
            assert dict(run.ledger.bits_sent) == {(1, 2): 2}


def test_c02_two_qubit_protocol_accounting():
    with criterion(2, "two-qubit collective op costs and recorded-POVM entropy", 5.0):
        rng = np.random.default_rng(102)
        for _ in range(20):
            state = gates.random_state(4, rng)
            u = gates.haar_unitary(4, rng)
            run = protocols.new_run(2, state)
            run.ledger.grant(1, 2, 2)
            protocols.collective_op_star(run, protocols.CollectiveOp(unitary=u), hub=2)
            assert run.ledger.total(run.ledger.ebits_consumed) == 2
            assert run.ledger.bits_sent[(1, 2)] == 2
            assert run.ledger.bits_sent[(2, 1)] == 2
            assert engine.ensemble_fidelity(run.ensemble, protocols.data_order(run), u @ state) >= 1 - 1e-10
        run = protocols.new_run(2, gates.random_state(4, rng))
        run.ledger.grant(1, 2, 2)
        povm = Povm(tuple(np.eye(4) / 4 for _ in range(4)))
        protocols.collective_op_star(run, protocols.CollectiveOp(povm=povm, record=True), hub=2)
        assert abs(run.ledger.supplementary_bits - 2.0) <= 1e-12


def test_c03_swap_demos():
    with criterion(3, "SWAP communicates 16/16 pairs and establishes 2 ebits", 1.0):
        labels = ["00", "01", "10", "11"]
        for ma, mb in itertools.product(labels, labels):
            result = protocols.permutation_communicate(oracles.two_cycle(), {2: ma, 1: mb})
            assert (result.decoded[2], result.decoded[1]) == (ma, mb)
        entangle = protocols.permutation_entangle(oracles.two_cycle())
        assert abs(engine.entanglement_entropy(entangle.run.ensemble, {1}) - 2.0) <= 1e-9


def test_c04_permutation_maximality():
    with criterion(4, "derangements hit the n-ebit and 2n-bit caps", 30.0):
        rng = np.random.default_rng(104)
        cases = derangements(3) + derangements(4) + [Permutation.cyclic_shift(5),
                                                     Permutation.cyclic_shift(6)]
        assert len(derangements(3)) == 2 and len(derangements(4)) == 9
        for p in cases:
            n = p.n
            ent = protocols.permutation_entangle(p)
            assert ent.run.ledger.total(ent.run.ledger.ebits_created) == n
            for a, b in ent.pair_qubits:
                assert abs(oracles.qubit_entropy(ent.run.ensemble, a) - 1.0) <= 1e-9
                assert abs(oracles.qubit_entropy(ent.run.ensemble, b) - 1.0) <= 1e-9
            msgs = {i: f"{rng.integers(0, 2)}{rng.integers(0, 2)}" for i in range(1, n + 1)}
            comm = protocols.permutation_communicate(p, msgs)
            assert comm.decoded == msgs
            assert comm.run.ledger.total(comm.run.ledger.ebits_consumed) == n


def test_c05_star_protocol():
    with criterion(5, "star protocol fidelity and hub-pattern ledger", 60.0):
        rng = np.random.default_rng(105)
        for n in (3, 4, 5):
            state = gates.random_state(1 << n, rng)
            u = gates.haar_unitary(1 << n, rng)
            run = protocols.new_run(n, state)
            for i in range(2, n + 1):
                run.ledger.grant(i, 1, 2)
            protocols.collective_op_star(run, protocols.CollectiveOp(unitary=u), hub=1)
            assert engine.ensemble_fidelity(
                run.ensemble, protocols.data_order(run), u @ state) >= 1 - 1e-9
            ent, comm = graphs.star_graphs(n, hub=1)
            assert graphs.EntanglementGraph.from_book(n, run.ledger.ebits_consumed, run.ledger.den) == ent
            assert graphs.CommunicationGraph.from_book(n, run.ledger.bits_sent, run.ledger.den) == comm
            assert run.ledger.total(run.ledger.ebits_consumed) == 2 * (n - 1)
            assert run.ledger.total(run.ledger.bits_sent) == 4 * (n - 1)


def test_c06_symmetrisation_oracle(tmp_path, capsys):
    with criterion(6, "brute-force symmetrisation equals closed forms; fixture note", 30.0):
        rng = np.random.default_rng(106)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            kind = rng.choice(["entanglement", "communication"])
            w = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    if i == j or (kind == "entanglement" and j < i):
                        continue
                    val = Fraction(int(rng.integers(0, 12)), int(rng.integers(1, 5)))
                    w[i][j] = val
                    if kind == "entanglement":
                        w[j][i] = val
            g = oracles.graph_of(graphs.EntanglementGraph if kind == "entanglement" else graphs.CommunicationGraph, w)
            sym = graphs.symmetrise(g)
            expect = g.symmetrised_weight()
            assert all(sym.weight(a, b) == expect for a, b in itertools.permutations(range(1, n + 1), 2))
        assert cli.main(["symmetrise", "--input", str(FIXTURE),
                         "--output", str(tmp_path / "sym")]) == 0
        out = capsys.readouterr().out
        assert "c = 42" in out
        assert "e = 48" in out
        assert "sometimes quoted as 24" in out  # the documented-discrepancy note


def test_c07_bound_chain():
    with criterion(7, "exact bound chain for n = 2..32", 1.0):
        for n in range(2, 33):
            tel_e, tel_c = bounds.teleport_resources(n)
            low_e, low_c = bounds.lower_bounds(n)
            cap_e, cap_c = bounds.distillation_caps(n)
            if n % 2 == 0:
                assert (low_e, low_c) == (tel_e, tel_c) == (2 * (n - 1), 4 * (n - 1))
            else:
                ht_e, ht_c = bounds.half_transfer_bounds(n)
                assert cap_e <= low_e <= ht_e <= tel_e
                assert low_e == Fraction(2 * n * (n - 1), n + 1)
                assert ht_e == Fraction(2 * (n - 1) * n * n, n * n + 3)
                rep = oracles.comparison_predicates(n)
                assert rep.odd_bound_equals_cap == (n == 3)
                assert rep.half_transfer_equals_integer == (n == 3)
                int_e, _ = bounds.integer_one_shot_bounds(n)
                assert int_e == 2 * (n - 1) - 1


def test_c08_bound_rederivation():
    with criterion(8, "graph-route rederivation equals closed forms for n = 3..10", 5.0):
        for n in range(3, 11):
            assert oracles.rederive_lower_bounds(n) == bounds.lower_bounds(n)


def test_c09_locc_monotonicity():
    with criterion(9, "average cut entropy never rises over 50 random local traces", 60.0):
        rng = np.random.default_rng(109)
        for _ in range(50):
            n_parties = int(rng.integers(2, 5))
            n_qubits = int(rng.integers(n_parties, 9))
            owners = list(range(1, n_parties + 1))
            owners += [int(rng.integers(1, n_parties + 1)) for _ in range(n_qubits - n_parties)]
            rng.shuffle(owners)
            ids = [QubitId(party, f"q{idx}") for idx, party in enumerate(owners)]
            ens = oracles.one_branch(gates.random_state(1 << n_qubits, rng), ids)
            parties = sorted({q.party for q in ens.registry})
            cuts = [set(c) for r in range(1, len(parties))
                    for c in itertools.combinations(parties, r) if parties[0] in c]
            last = {frozenset(c): engine.entanglement_entropy(ens, c) for c in cuts}
            measurements = 0
            for _ in range(int(rng.integers(4, 9))):
                party = int(rng.choice(parties))
                local = [q for q in ens.registry if q.party == party]
                if not local:
                    continue
                if measurements < 4 and rng.random() < 0.4:
                    target = local[int(rng.integers(0, len(local)))]
                    ens, _ = engine.measure_computational(ens, (target,))
                    measurements += 1
                else:
                    k = 1 if len(local) == 1 else int(rng.integers(1, 3))
                    targets = [local[i] for i in rng.choice(len(local), size=k, replace=False)]
                    ens = engine.apply_gate(ens, Gate(tuple(targets), gates.haar_unitary(1 << k, rng)))
                for c in cuts:
                    value = engine.entanglement_entropy(ens, c)
                    assert value <= last[frozenset(c)] + 1e-9
                    last[frozenset(c)] = value


def test_c10_teleportation_count_oracle():
    with criterion(10, "exhaustive schedule search confirms the 2(n-1) count", 10.0):
        assert oracles.min_teleportation_search(2) == 2 == bounds.teleport_resources(2)[0]
        assert oracles.min_teleportation_search(3) == 4 == bounds.teleport_resources(3)[0]


def test_c11_delta_matrix_checker():
    with criterion(11, "three-lab transfer conditions on difference matrices", 1.0):
        swapping = oracles.DeltaMatrix(3, ((0, -1, 1), (-1, 0, -1), (1, -1, 0)))
        verdict = oracles.delta_three_lab_bound(swapping)
        assert verdict.all_hold
        assert verdict.half_loss_slack == 0  # the half-loss bound is met with equality
        forged = oracles.DeltaMatrix(3, ((0, 1, 1), (1, 0, -4), (1, -4, 0)))
        assert not oracles.delta_three_lab_bound(forged).single_gain_ok
        assert not oracles.delta_three_lab_bound(forged).all_hold


def test_c12_cli_determinism(tmp_path):
    with criterion(12, "identical flags give byte-identical files", 30.0):
        commands = [
            ("simulate", "star-op", "--n", "4", "--seed", "11"),
            ("simulate", "perm-entangle", "--n", "5", "--seed", "2"),
            ("bounds", "--n-max", "12"),
            ("symmetrise", "--input", str(FIXTURE)),
        ]
        for idx, argv in enumerate(commands):
            a = tmp_path / f"a{idx}"
            b = tmp_path / f"b{idx}"
            extra_a: list[str] = ["--output", str(a if argv[0] != "bounds" else a / "table.csv")]
            extra_b: list[str] = ["--output", str(b if argv[0] != "bounds" else b / "table.csv")]
            assert cli.main([*argv, *extra_a]) == 0
            assert cli.main([*argv, *extra_b]) == 0
            files_a = sorted(p for p in a.rglob("*") if p.is_file())
            files_b = sorted(p for p in b.rglob("*") if p.is_file())
            assert [p.name for p in files_a] == [p.name for p in files_b]
            assert files_a, f"{argv} wrote no files"
            for fa, fb in zip(files_a, files_b):
                assert fa.read_bytes() == fb.read_bytes(), fa.name
