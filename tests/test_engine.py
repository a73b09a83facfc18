import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebitnet import audit, cli, engine, gates, ledger, protocols
from ebitnet.engine import BranchEnsemble, Gate, Povm, QubitId
from ebitnet.ledger import Allocate, CollectiveOracle, LocalGate, LocalMeasure, Relabel, Relocate

import oracles
from test_audit import REPLAY_N, random_trace


# qubits x0 and x1 at party 1, x2 and x3 at party 2
TWO_AT_EACH_OF_TWO = tuple(QubitId(party, f"x{i}") for i, party in enumerate((1, 1, 2, 2)))


def bell_pair_ensemble(party_a=1, party_b=1):
    ens = BranchEnsemble.vacuum()
    ens, (a,) = oracles.allocate(ens, party_a, "a")
    ens, (b,) = oracles.allocate(ens, party_b, "b")
    ens = engine.apply_gate(ens, Gate((a,), gates.HADAMARD))
    ens = engine.apply_gate(ens, Gate((a, b), gates.cnot_unitary()))
    return ens, a, b


class TestAllocation:
    def test_single_zero_qubit(self):
        ens, _ = oracles.allocate(BranchEnsemble.vacuum(), 1, "x0")
        assert np.allclose(oracles.dense_vectors(ens)[0], [1, 0])

    def test_bell_construction(self):
        ens, a, b = bell_pair_ensemble()
        assert np.allclose(oracles.dense_vectors(ens)[0], np.array([1, 0, 0, 1]) / math.sqrt(2))

    def test_allocation_extends_every_branch(self):
        ens = BranchEnsemble.vacuum()
        ens, (a,) = oracles.allocate(ens, 1, "a")
        ens = engine.apply_gate(ens, Gate((a,), gates.HADAMARD))
        ens, _ = engine.measure_computational(ens, (a,))
        assert len(ens.branches) == 2
        ens, _ = oracles.allocate(ens, 2, "x1", init="1")
        assert len(ens.branches) == 2
        assert all(abs(b.probability - 0.5) < 1e-12 for b in ens.branches)
        assert ens.num_qubits == 2

    def test_init_string(self):
        ens, _ = oracles.allocate(BranchEnsemble.vacuum(), 1, "x0", "x1", init="10")
        # first new qubit is bit 0, so "10" is index 1
        assert np.argmax(np.abs(oracles.dense_vectors(ens)[0])) == 1

    def test_capacity_cap(self):
        """A step may fill the registry to its cap but not pass it; the engine trusts
        its caller, and ``ProtocolRun.step`` walks ``track_ids`` first."""
        run = protocols.new_run(1, max_qubits=3)
        run.step(Allocate(1, (QubitId(1, "x0"), QubitId(1, "x1"), QubitId(1, "x2")), "000"))
        ensemble = run.ensemble
        with pytest.raises(ValueError, match=r"^adding 1 qubits to 3 would exceed the registry cap of 3$"):
            run.step(Allocate(1, (QubitId(1, "x3"),), "0"))
        assert run.ensemble is ensemble

    def test_duplicate_label_rejected(self):
        run = protocols.new_run(1)
        run.step(Allocate(1, (QubitId(1, "a"),), "0"))
        with pytest.raises(ValueError, match=r"^qubit 1:a is already in the registry$"):
            run.step(Allocate(1, (QubitId(1, "a"),), "0"))
        with pytest.raises(ValueError, match=r"^qubit 1:b is already in the registry$"):
            run.step(Allocate(1, (QubitId(1, "b"), QubitId(1, "b")), "00"))


class TestGates:
    def test_swap_on_basis_state(self):
        ens, (a, b) = oracles.allocate(BranchEnsemble.vacuum(), 1, "x0", "x1", init="10")
        ens = engine.apply_gate(ens, Gate((a, b), oracles.swap_unitary()))
        assert np.argmax(np.abs(oracles.dense_vectors(ens)[0])) == 2

    def test_identity_leaves_state(self):
        ens, a, b = bell_pair_ensemble()
        before = oracles.dense_vectors(ens)[0]
        ens = engine.apply_gate(ens, Gate((a, b), np.eye(4)))
        assert np.allclose(oracles.dense_vectors(ens)[0], before)

    def test_x_on_second_qubit_of_phi_plus(self):
        ens, a, b = bell_pair_ensemble()
        ens = engine.apply_gate(ens, Gate((b,), gates.PAULI_X))
        assert np.allclose(oracles.dense_vectors(ens)[0], oracles.bell_state("01"))

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            Gate((QubitId(1, "a"),), np.array([[1, 0], [0, 2]]))

    def test_unitarity_tolerance(self):
        """A deviation from unitarity ten times UNITARY_TOL is refused; a hundredth of it passes."""
        target = (QubitId(1, "a"),)
        with pytest.raises(ValueError, match="unitary"):
            Gate(target, np.sqrt(1 + 10 * engine.UNITARY_TOL) * np.eye(2))
        Gate(target, np.sqrt(1 + engine.UNITARY_TOL / 100) * np.eye(2))

    @pytest.mark.parametrize("entry", [float("nan"), float("inf")])
    def test_nan_and_inf_entries_rejected(self, entry):
        with pytest.raises(ValueError, match="unitary"), np.errstate(invalid="ignore"):
            Gate((QubitId(1, "a"),), np.array([[entry, 0], [0, 1]]))

    def test_a_gate_without_targets_is_refused(self):
        # it would add a product group of no qubits, so no event on no targets is built
        with pytest.raises(ValueError, match="^a local gate needs at least one target$"):
            LocalGate(1, (), matrix=np.eye(1))
        with pytest.raises(ValueError, match="^a local gate needs at least one target$"):
            LocalGate(1, (), cases=(("0", np.eye(1)),), conditional_on=0)
        with pytest.raises(ValueError, match="^a measurement needs at least one target$"):
            LocalMeasure(1, (), "computational", False, 0, ())

    def test_unknown_target_rejected(self):
        ens, a, b = bell_pair_ensemble()
        with pytest.raises(ValueError, match="unknown target"):
            engine.apply_gate(ens, Gate((QubitId(9, "zz"),), gates.PAULI_X))

    def test_norms_preserved(self):
        rng = np.random.default_rng(11)
        ens = oracles.one_branch(gates.random_state(8, rng))
        ids = ens.registry
        for _ in range(20):
            k = rng.integers(1, 3)
            targets = tuple(rng.choice(len(ids), size=k, replace=False))
            u = gates.haar_unitary(1 << k, rng)
            ens = engine.apply_gate(ens, Gate(tuple(ids[t] for t in targets), u))
            for vec in oracles.dense_vectors(ens):
                assert abs(np.linalg.norm(vec) - 1) < 1e-12


class TestMeasurement:
    def test_one_qubit_of_bell(self):
        ens, a, b = bell_pair_ensemble()
        ens, dist = engine.measure_computational(ens, (a,))
        assert dist == pytest.approx({"0": 0.5, "1": 0.5})
        assert abs(sum(br.probability for br in ens.branches) - 1) < 1e-12

    def test_eigenstate_deterministic(self):
        ens, (a,) = oracles.allocate(BranchEnsemble.vacuum(), 1, "x0")
        ens, dist = engine.measure_computational(ens, (a,))
        assert dist == {"0": pytest.approx(1.0)}
        assert len(ens.branches) == 1

    def test_bell_correlations(self):
        ens, a, b = bell_pair_ensemble()
        _, dist = engine.measure_computational(ens, (a, b))
        assert set(dist) == {"00", "11"}
        assert dist["00"] == pytest.approx(0.5)
        assert dist["11"] == pytest.approx(0.5)

    def test_discard_removes_qubits(self):
        ens, a, b = bell_pair_ensemble()
        ens, _ = engine.measure_computational(ens, (a,), discard=True)
        assert ens.registry == (b,)
        for vec in oracles.dense_vectors(ens):
            assert vec.shape == (2,)

    def test_record_tracks_outcomes(self):
        ens, a, b = bell_pair_ensemble()
        ens, _ = engine.measure_computational(ens, (a,))
        outcomes = {br.record[0] for br in ens.branches}
        assert outcomes == {"0", "1"}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("message", ["00", "01", "10", "11"])
    def test_a_zero_weight_outcome_warns_nothing(self, message):
        """Outcome 1 of |0> weighs exactly 0, and a dense-coding Bell measurement
        has one outcome: the outcomes left out are not normalised, so no division
        warns, and the kept branches are as before."""
        ens = oracles.one_branch([1, 0])
        kept, dist = engine.measure_computational(ens, ens.registry)
        assert dist == {"0": 1.0}
        assert [(b.probability, [f.tolist() for f in b.factors], b.record) for b in kept.branches] == [
            (1.0, [[1, 0]], {0: "0"})]
        run = protocols.new_run(2)
        run.ledger.grant(1, 2, 1)
        assert protocols.superdense_send(run, 1, 2, message) == message
        (meas,) = [e for e in run.trace.events if isinstance(e, LocalMeasure)]
        assert meas.distribution == ((message, 0.9999999999999996),)
        assert [(b.probability, b.factors, b.record) for b in run.ensemble.branches] == [
            (0.9999999999999996, (), {0: message})]


class TestPovm:
    def test_uniform_povm_m4(self):
        rng = np.random.default_rng(0)
        ens = oracles.one_branch(gates.random_state(4, rng))
        ids = ens.registry
        povm = Povm(tuple(np.eye(4) / 4 for _ in range(4)))
        assert engine.measure_povm(ens, povm, ids) == pytest.approx([0.25] * 4)

    def test_projective_on_eigenstate(self):
        ens, (a,) = oracles.allocate(BranchEnsemble.vacuum(), 1, "x0", init="1")
        povm = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        assert engine.measure_povm(ens, povm, (a,)) == pytest.approx([0.0, 1.0])

    def test_uniform_m8_state_independent(self):
        rng = np.random.default_rng(5)
        ens = oracles.one_branch(gates.random_state(8, rng))
        ids = ens.registry
        povm = Povm(tuple(np.eye(8) / 8 for _ in range(8)))
        assert engine.measure_povm(ens, povm, ids) == pytest.approx([0.125] * 8)

    def test_invalid_povm_rejected(self):
        with pytest.raises(ValueError):
            Povm((np.eye(2),) * 2)  # sums to 2I
        with pytest.raises(ValueError):
            Povm((np.array([[1, 0], [0, -0.5]]), np.array([[0, 0], [0, 1.5]])))

    @pytest.mark.parametrize("entry", [float("nan"), float("inf")])
    def test_nan_and_inf_elements_rejected(self, entry):
        """The first check an element meets names it; no comparison lets a NaN through."""
        with pytest.raises(ValueError, match="^POVM element 0 is not Hermitian$"), np.errstate(invalid="ignore"):
            Povm((np.diag([entry, 0.0]), np.diag([0.0, 1.0])))

    def test_nan_probability_sum_rejected(self):
        ens, a, b = bell_pair_ensemble()
        group, _ = ens.locate(a)
        ens.branches[0].factors[group][0] = np.nan  # the factor is the state
        with pytest.raises(AssertionError, match="^POVM probabilities sum to nan$"):
            engine.measure_povm(ens, Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))), (a,))

    def test_dimension_mismatch(self):
        ens, a, b = bell_pair_ensemble()
        povm = Povm((np.eye(2) / 2, np.eye(2) / 2))
        with pytest.raises(ValueError, match="dimension"):
            engine.measure_povm(ens, povm, (a, b))

    def test_statistics_average_over_branches(self):
        # |0> and |1> branches at equal weight: projective stats are 50/50
        ens, a, b = bell_pair_ensemble()
        ens, _ = engine.measure_computational(ens, (a,), discard=True)
        assert len(ens.branches) == 2
        povm = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        assert engine.measure_povm(ens, povm, (b,)) == pytest.approx([0.5, 0.5])


class TestReducedDensity:
    def test_bell_reduction_maximally_mixed(self):
        ens, a, b = bell_pair_ensemble()
        rho = engine.reduced_density(ens, (a,))
        assert np.allclose(rho, np.eye(2) / 2)

    def test_product_state_pure_projector(self):
        ens, (a, b) = oracles.allocate(BranchEnsemble.vacuum(), 1, "x0", "x1")
        ens = engine.apply_gate(ens, Gate((b,), gates.HADAMARD))
        rho = engine.reduced_density(ens, (a,))
        assert np.allclose(rho, np.diag([1.0, 0.0]))
        rho_b = engine.reduced_density(ens, (b,))
        assert np.allclose(rho_b, np.full((2, 2), 0.5))

    def test_whole_system_rank_one(self):
        ens, a, b = bell_pair_ensemble()
        rho = engine.reduced_density(ens, (a, b))
        phi = oracles.bell_state("00")
        assert np.allclose(rho, np.outer(phi, phi.conj()))
        assert abs(np.trace(rho) - 1) < 1e-10

    def test_eigenvalues_match_on_both_sides(self):
        rng = np.random.default_rng(17)
        ens = oracles.one_branch(gates.random_state(32, rng))
        ids = ens.registry
        left = np.linalg.eigvalsh(engine.reduced_density(ens, ids[:2]))
        right = np.linalg.eigvalsh(engine.reduced_density(ens, ids[2:]))
        left = np.sort(left[left > 1e-9])
        right = np.sort(right[right > 1e-9])
        assert np.allclose(left, right, atol=1e-9)


class TestApplyMatrix:
    @given(st.integers(min_value=1, max_value=8), st.booleans(), st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_tensordot_and_moveaxis_bit_for_bit(self, k, adjoint, seed, data):
        rng = np.random.default_rng(seed)
        positions = data.draw(st.permutations(range(k)))[:data.draw(st.integers(min_value=1, max_value=k))]
        m = len(positions)
        vec = gates.random_state(1 << k, rng)
        matrix = gates.haar_unitary(1 << m, rng)
        matrix = matrix.conj().T if adjoint else matrix  # a Bell measurement's undo is such a transposed view
        state_axes = [k - 1 - p for p in positions]
        out = np.tensordot(matrix.reshape((2,) * (2 * m)), vec.reshape((2,) * k),
                           axes=([2 * m - 1 - j for j in range(m)], state_axes))
        want = np.ascontiguousarray(np.moveaxis(out, [m - 1 - j for j in range(m)], state_axes)).reshape(-1)
        assert engine._apply_matrix(vec, positions, matrix, k).tobytes() == want.tobytes()


class TestEntropy:
    def test_bell_pair_one_ebit(self):
        ens, a, b = bell_pair_ensemble(party_a=1, party_b=2)
        assert engine.entanglement_entropy(ens, {1}) == pytest.approx(1.0, abs=1e-9)

    def test_product_state_zero(self):
        ens, _ = oracles.allocate(BranchEnsemble.vacuum(), 1, "x0")
        ens, (b,) = oracles.allocate(ens, 2, "x1")
        ens = engine.apply_gate(ens, Gate((b,), gates.HADAMARD))
        assert engine.entanglement_entropy(ens, {1}) == pytest.approx(0.0, abs=1e-9)

    def test_rounding_gives_no_negative_entropy(self):
        # the party-1 spectrum of |+>|0>, divided by its norm, solves to an eigenvalue a rounding error above 1
        vec = np.array([1, 1, 0, 0]) / np.sqrt(2)
        ens = oracles.one_branch(vec / np.linalg.norm(vec), (QubitId(1, "a"), QubitId(2, "b")))
        value = engine.entanglement_entropy(ens, {1})
        assert value == 0.0 and f"{value:.12f}" == "0.000000000000"

    def test_two_cross_pairs_two_ebits(self):
        # two Bell pairs, each stretched between parties 1 and 2
        ens = BranchEnsemble.vacuum()
        ens, (a1,) = oracles.allocate(ens, 1, "a1")
        ens, (b1,) = oracles.allocate(ens, 2, "b1")
        ens, (a2,) = oracles.allocate(ens, 1, "a2")
        ens, (b2,) = oracles.allocate(ens, 2, "b2")
        for x, y in ((a1, b1), (a2, b2)):
            ens = engine.apply_gate(ens, Gate((x,), gates.HADAMARD))
            ens = engine.apply_gate(ens, Gate((x, y), gates.cnot_unitary()))
        assert engine.entanglement_entropy(ens, {1}) == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("p,counted", [(1e-11, True), (1e-14, False)])
    def test_eigenvalue_cutoff(self, p, counted):
        """A Schmidt weight of 1e-11 adds its -p log2 p (about 36.5 p) to the entropy;
        one of 1e-14 is below EIG_TOL and dropped, leaving about 1.4 p."""
        q1, q2 = QubitId(1, "q1"), QubitId(2, "q2")
        ens = oracles.one_branch([np.sqrt(1 - p), 0, 0, np.sqrt(p)], (q1, q2))
        assert (engine.split_entropies(ens, [(0, [0])])[0] > 10 * p) == counted

    def test_improper_partition_rejected(self):
        ens, a, b = bell_pair_ensemble(party_a=1, party_b=2)
        with pytest.raises(ValueError):
            engine.entanglement_entropy(ens, {1, 2})
        with pytest.raises(ValueError):
            engine.entanglement_entropy(ens, set())

    def test_invariant_under_local_unitaries(self):
        rng = np.random.default_rng(23)
        ens = oracles.one_branch(gates.random_state(16, rng), TWO_AT_EACH_OF_TWO)
        before = engine.entanglement_entropy(ens, {1})
        for q in ens.registry:
            ens = engine.apply_gate(ens, Gate((q,), gates.haar_unitary(2, rng)))
        assert abs(engine.entanglement_entropy(ens, {1}) - before) < 1e-9

    @staticmethod
    def random_ensemble(k, n_branches, seed):
        rng = np.random.default_rng(seed)
        registry = tuple(QubitId(1, f"x{i}") for i in range(k))
        weights = rng.random(n_branches) + 0.1
        branches = [(float(w), gates.random_state(1 << k, rng)) for w in weights / weights.sum()]
        return BranchEnsemble.from_vectors(registry, branches, engine.DEFAULT_MAX_QUBITS)

    @given(st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=2 ** 32 - 1), st.data())
    @settings(max_examples=200, deadline=None)
    def test_both_sides_of_a_cut_have_one_entropy(self, k, n_branches, seed, data):
        """A split given by either side solves the same side, so it has one value, to the bit."""
        ens = self.random_ensemble(k, n_branches, seed)
        bits = data.draw(st.sets(st.integers(min_value=0, max_value=k - 1)))
        rest = [j for j in range(k) if j not in bits]
        assert engine.split_entropies(ens, [(0, bits)]) == engine.split_entropies(ens, [(0, rest)])

    @staticmethod
    def grouped_ensemble(sizes, n_branches, seed):
        """A random ensemble whose branches are products over groups of ``sizes``
        qubits, the qubits held by parties 1..3."""
        rng = np.random.default_rng(seed)
        groups, start = [], 0
        for k in sizes:
            groups.append(tuple(QubitId(int(rng.integers(1, 4)), f"x{start + j}") for j in range(k)))
            start += k
        weights = rng.random(n_branches) + 0.1
        branches = [engine.Branch(float(w), tuple(gates.random_state(1 << k, rng) for k in sizes), {})
                    for w in weights / weights.sum()]
        return BranchEnsemble(tuple(q for g in groups for q in g), branches, engine.DEFAULT_MAX_QUBITS, 0,
                              tuple(groups))

    @given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3),
           st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.sampled_from([None, 1, 4096]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_batched_entropies_land_on_their_subsets(self, sizes, n_branches, seed, chunk_bytes, data):
        """One call over many splits, whose solved sides share a size or not and
        which are solved in chunks of the default size, of a few splits or of
        one, gives each split the bits a call of its own gives it."""
        ens = self.grouped_ensemble(sizes, n_branches, seed)
        split = st.integers(min_value=0, max_value=len(sizes) - 1).flatmap(
            lambda i: st.tuples(st.just(i), st.sets(st.integers(min_value=0, max_value=sizes[i] - 1))))
        splits = data.draw(st.lists(split, max_size=8))
        singles = [engine.split_entropies(ens, [split])[0] for split in splits]
        with pytest.MonkeyPatch.context() as monkeypatch:
            if chunk_bytes is not None:
                monkeypatch.setattr(engine, "ENTROPY_CHUNK_BYTES", chunk_bytes)
            assert engine.split_entropies(ens, splits) == singles

    def test_chunks_cross_a_group_and_hold_their_bound(self, monkeypatch):
        # 4 branches, groups of 4 and 6 qubits: a side-2 split holds 16 * 4 * (2 * 2^k + 16) bytes,
        # 3,072 for the first group and 9,216 for the second.  The chunks run group by group,
        # and the first one ends within the second group
        splits = [(1, [0, 1]), (0, [0, 1]), (1, [2, 3]), (0, [1, 2]), (1, [0, 5])]
        monkeypatch.setattr(engine, "ENTROPY_CHUNK_BYTES", 2 * 9216)
        assert engine._chunks(splits, 4, [4, 6]) == [[1, 3, 0], [2, 4]]
        monkeypatch.setattr(engine, "ENTROPY_CHUNK_BYTES", 1)
        assert engine._chunks(splits, 4, [4, 6]) == [[1], [3], [0], [2], [4]]

    def test_a_sixteen_qubit_factor_is_solved_in_chunks_of_at_most_32_mb(self):
        # every side-8 split of one 16-qubit group, as a ps n=16 replay starts: 6,435 Grams
        # of 256^2 entries, 6.7 GB at once; counted, not allocated
        splits = [(0, list(side)) for side in itertools.combinations(range(16), 8)]
        chunks = engine._chunks(splits, 1, [16])
        per_split = 16 * ((2 << 16) + (1 << 16))
        assert engine.ENTROPY_CHUNK_BYTES == 32 << 20
        assert sorted(s for chunk in chunks for s in chunk) == list(range(len(splits)))
        assert max(len(chunk) for chunk in chunks) * per_split <= engine.ENTROPY_CHUNK_BYTES

    def test_one_eigensolver_call_per_side_size_within_a_chunk(self, monkeypatch):
        ens = self.grouped_ensemble([5, 4, 3], 2, 17)
        splits = [(i, [j]) for i, g in enumerate(ens.groups) for j in range(len(g))] + [(i, [0, 1]) for i in range(3)]
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda grams: calls.append(grams.shape) or eigvalsh(grams))
        engine.split_entropies(ens, splits)
        # the pairs of the 5- and 4-qubit groups are sides of 2, that of the 3-qubit group its third qubit
        assert calls == [(2, 13, 2, 2), (2, 2, 4, 4)]

    def test_measurement_cannot_raise_average_entropy(self):
        rng = np.random.default_rng(29)
        ens = oracles.one_branch(gates.random_state(16, rng), TWO_AT_EACH_OF_TWO)
        before = engine.entanglement_entropy(ens, {1})
        ens, _ = engine.measure_computational(ens, (ens.registry[0],))
        assert engine.entanglement_entropy(ens, {1}) <= before + 1e-9


class TestShannon:
    def test_uniform_four(self):
        assert engine.shannon_entropy([0.25] * 4) == pytest.approx(2.0)

    def test_point_mass(self):
        assert engine.shannon_entropy({"x": 1.0}) == pytest.approx(0.0)

    def test_fair_bit(self):
        assert engine.shannon_entropy((0.5, 0.5)) == pytest.approx(1.0)

    def test_invalid_distribution(self):
        with pytest.raises(ValueError):
            engine.shannon_entropy([0.5, 0.6])
        with pytest.raises(ValueError):
            engine.shannon_entropy([-0.1, 1.1])


class TestBellTools:
    def test_bell_states_orthonormal(self):
        vecs = oracles.bell_states()
        labels = sorted(vecs)
        for i, li in enumerate(labels):
            for lj in labels[i:]:
                ip = abs(np.vdot(vecs[li], vecs[lj]))
                assert ip == pytest.approx(1.0 if li == lj else 0.0, abs=1e-12)

    def test_bell_measure_identifies_each_state(self):
        for label, vec in oracles.bell_states().items():
            ens = oracles.one_branch(vec)
            ids = ens.registry
            _, dist = engine.bell_measure(ens, ids)
            assert max(dist, key=dist.get) == label
            assert dist[label] == pytest.approx(1.0)

    def test_bell_measure_requires_two_targets(self):
        ens, a, b = bell_pair_ensemble()
        with pytest.raises(ValueError):
            engine.bell_measure(ens, (a,))

    def test_bell_measure_without_discard_collapses(self):
        ens, a, b = bell_pair_ensemble()
        ens, dist = engine.bell_measure(ens, (a, b))
        assert dist == {"00": pytest.approx(1.0)}
        assert np.allclose(oracles.dense_vectors(ens)[0], oracles.bell_state("00"))


class TestEmbeddingOracle:
    """The tensordot-based gate embedding against a brute-force full matrix."""

    @staticmethod
    def full_matrix(u, positions, k):
        m = len(positions)
        full = np.zeros((1 << k, 1 << k), dtype=complex)
        for i in range(1 << k):
            g_in = sum(((i >> p) & 1) << j for j, p in enumerate(positions))
            for g_out in range(1 << m):
                out = i
                for j, p in enumerate(positions):
                    out = (out & ~(1 << p)) | (((g_out >> j) & 1) << p)
                full[out, i] += u[g_out, g_in]
        return full

    def test_matches_brute_force_on_random_gates(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            k = int(rng.integers(2, 5))
            m = int(rng.integers(1, min(k, 3) + 1))
            positions = list(rng.choice(k, size=m, replace=False))
            u = gates.haar_unitary(1 << m, rng)
            vec = gates.random_state(1 << k, rng)
            ens = oracles.one_branch(vec)
            ids = ens.registry
            targets = tuple(ids[p] for p in positions)
            got = oracles.dense_vectors(engine.apply_gate(ens, Gate(targets, u)))[0]
            want = self.full_matrix(u, positions, k) @ vec
            assert np.allclose(got, want, atol=1e-12)

    def test_measurement_matches_marginal_enumeration(self):
        rng = np.random.default_rng(38)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            m = int(rng.integers(1, k + 1))
            positions = sorted(rng.choice(k, size=m, replace=False))
            vec = gates.random_state(1 << k, rng)
            ens = oracles.one_branch(vec)
            ids = ens.registry
            _, dist = engine.measure_computational(ens, tuple(ids[p] for p in positions))
            for outcome, prob in dist.items():
                expected = sum(
                    abs(vec[i]) ** 2 for i in range(1 << k)
                    if all(((i >> p) & 1) == int(outcome[j]) for j, p in enumerate(positions))
                )
                assert prob == pytest.approx(expected, abs=1e-12)


class TestBranchVectors:
    def test_reorder_round_trip(self):
        rng = np.random.default_rng(31)
        vec = gates.random_state(8, rng)
        ens = oracles.one_branch(vec)
        ids = ens.registry
        (_, same), = engine.branch_vectors(ens, ids)
        assert np.allclose(same, vec)
        (_, rev), = engine.branch_vectors(ens, ids[::-1])
        # bit j of the reversed order is qubit ids[2-j]
        expected = vec.reshape(2, 2, 2).transpose(2, 1, 0).reshape(-1)
        assert np.allclose(rev, expected)


class TestCoalesce:
    def test_merges_equal_branches(self):
        ens, a, b = bell_pair_ensemble()
        ens, _ = engine.measure_computational(ens, (a,))
        # undo the correlation so both branches are |0> after a conditional flip
        ens = engine.apply_conditional(ens, (b,), {"0": np.eye(2), "1": gates.PAULI_X}, 0)
        ens = engine.apply_conditional(ens, (a,), {"0": np.eye(2), "1": gates.PAULI_X}, 0)
        merged = engine.coalesce(ens)
        assert len(merged.branches) == 1
        assert merged.branches[0].probability == pytest.approx(1.0)

    def test_global_phase_ignored(self):
        two = BranchEnsemble.from_vectors((QubitId(1, "x0"),), [(0.5, [1, 0]), (0.5, [-1, 0])],
                                          engine.DEFAULT_MAX_QUBITS)
        assert len(engine.coalesce(two).branches) == 1

    @pytest.mark.parametrize("first,second,merges", [
        ([1, 0], [math.sqrt(1 - 1e-16), 1e-8], False),
        ([1, 0], [math.sqrt(1 - 1e-24), 1e-12], True),
        ([0.6, 0.8], [0.6 * math.cos(1e-6) - 0.8 * math.sin(1e-6), 0.6 * math.sin(1e-6) + 0.8 * math.cos(1e-6)],
         False),
    ], ids=["1e-08-False", "1e-12-True", "rotated-1e-06-False"])
    def test_tolerance(self, first, second, merges):
        """Branches 1e-8 apart in an amplitude that one of them leaves zero are past
        COALESCE_TOL and stay apart, and 1e-12 apart are within it and merge.  The
        tolerance is absolute: [0.6, 0.8] and the same state rotated by 1e-6 differ
        by 8e-7 and stay apart, however large their amplitudes."""
        two = BranchEnsemble.from_vectors((QubitId(1, "x0"),), [(0.5, first), (0.5, second)],
                                          engine.DEFAULT_MAX_QUBITS)
        assert len(engine.coalesce(two).branches) == (1 if merges else 2)

    def test_branches_that_differ_in_a_later_factor_stay_apart(self):
        # b is measured out of |+>, so the branches agree in every factor but b's
        ens = BranchEnsemble.vacuum()
        ens, (a,) = oracles.allocate(ens, 1, "a")
        ens, (b,) = oracles.allocate(ens, 1, "b")
        ens = engine.apply_gate(ens, Gate((b,), gates.HADAMARD))
        ens, _ = engine.measure_computational(ens, (b,))
        assert len(ens.groups) == 2 and ens.locate(b)[0] == 1
        assert len(engine.coalesce(ens).branches) == 2

    def test_conditioning_without_a_record_is_rejected(self):
        ens, a, b = bell_pair_ensemble()
        with pytest.raises(ValueError, match="no outcome recorded"):
            engine.apply_conditional(ens, (a,), {"0": np.eye(2)}, measurement_index=0)

    def test_conditioning_across_a_coalesce_is_rejected(self):
        # measure a |+> qubit away: both branches leave the same remainder,
        # so they merge and the conflicting outcome record is dropped
        ens = BranchEnsemble.vacuum()
        ens, (a,) = oracles.allocate(ens, 1, "a")
        ens, (b,) = oracles.allocate(ens, 1, "b")
        ens = engine.apply_gate(ens, Gate((a,), gates.HADAMARD))
        ens, _ = engine.measure_computational(ens, (a,), discard=True)
        assert len(ens.branches) == 2
        merged = engine.coalesce(ens)
        assert len(merged.branches) == 1
        with pytest.raises(ValueError, match="no outcome recorded"):
            engine.apply_conditional(merged, (b,), {"0": np.eye(2), "1": np.eye(2)}, 0)


class TestBlockKernelAgainstMasks:
    """Measurement reads each outcome as one row of a reshaped block; the
    per-outcome index masks it replaced are the reference, bit for bit."""

    @pytest.mark.parametrize("discard", [False, True])
    def test_measurement_matches_mask_reference(self, discard):
        rng = np.random.default_rng(5)
        ens = oracles.one_branch(gates.random_state(32, rng))
        ids = ens.registry
        targets = [ids[3], ids[0], ids[4]]
        out, dist = engine.measure_computational(ens, targets, discard=discard)
        [vec] = oracles.dense_vectors(ens)
        idx = np.arange(32)
        expected = {}
        for code in range(8):
            bits = [(code >> j) & 1 for j in range(3)]
            sel = np.ones(32, dtype=bool)
            for q, bit in zip(targets, bits):
                sel &= ((idx >> ens.registry.index(q)) & 1) == bit
            weight = float(np.sum(np.abs(vec[sel]) ** 2))
            kept = vec[sel] if discard else np.where(sel, vec, 0.0)
            expected["".join(map(str, bits))] = (weight, kept / math.sqrt(weight))
        assert dist == {outcome: weight for outcome, (weight, _) in expected.items()}
        assert len(out.branches) == 8
        for b, vec in zip(out.branches, oracles.dense_vectors(out)):
            weight, ref = expected[b.record[0]]
            assert b.probability == weight
            assert vec.tobytes() == ref.tobytes()

    def test_branch_norm_tolerance(self):
        """check() refuses a branch whose norm drifted by 1e-8 and accepts a drift of 1e-11."""
        ens = oracles.one_branch([1.0, 0.0])
        [factor] = ens.branches[0].factors
        factor[0] = 1 + 1e-8
        with pytest.raises(AssertionError, match="branch norm"):
            ens.check()
        factor[0] = 1 + 1e-11
        ens.check()

    def test_probability_sum_tolerance(self):
        """check() refuses branch probabilities summing to 1 + 1e-11 and accepts 1 + 1e-14."""
        ens = BranchEnsemble.from_vectors((QubitId(1, "a"),), [(0.5, [1, 0]), (0.5, [0, 1])],
                                          engine.DEFAULT_MAX_QUBITS)
        ens.branches[1] = ens.branches[1]._replace(probability=0.5 + 1e-11)
        with pytest.raises(AssertionError, match="sum to"):
            ens.check()
        ens.branches[1] = ens.branches[1]._replace(probability=0.5 + 1e-14)
        ens.check()

    def test_nan_amplitude_is_rejected(self):
        with pytest.raises(ValueError, match="^initial state: branch norm nan drifted from 1$"):
            oracles.one_branch([float("nan"), 0.0])


A, B, NAN = QubitId(1, "a"), QubitId(2, "b"), float("nan")
# fault -> (registry, [(p, vector), ...], max_qubits, the refusal); each is a fault the
# trace load refuses in a header's initial state (test_trace_codec.HEADER_FAULTS)
STATE_FAULTS = {
    "duplicate-id": ((A, A), [(1.0, [1, 0, 0, 0])], 24, "registry contains duplicate qubit ids"),
    "negative-p": ((A, B), [(1.5, [1, 0, 0, 0]), (-0.5, [1, 0, 0, 0])], 24,
                   "branch probabilities must not be negative, got [1.5, -0.5]"),
    "nan-p": ((A, B), [(NAN, [1, 0, 0, 0])], 24, "branch probabilities must not be negative, got [nan]"),
    "wrong-length": ((A, B), [(1.0, [1, 0, 0])], 24, "every branch needs 4 amplitudes"),
    "over-cap": ((A, B), [(1.0, [1, 0, 0, 0])], 1, "a registry of 2 qubits exceeds max_qubits 1"),
    "norm-drift": ((A, B), [(1.0, [2, 0, 0, 0])], 24, "initial state: branch norm 2.0 drifted from 1"),
    "nan-amplitude": ((A, B), [(1.0, [NAN, 0, 0, 0])], 24, "initial state: branch norm nan drifted from 1"),
    "zero-qubit-norm-drift": ((), [(1.0, [0.5])], 24, "initial state: branch norm 0.5 drifted from 1"),
    "probability-sum": ((A, B), [(0.5, [1, 0, 0, 0])], 24, "initial state: branch probabilities sum to 0.5"),
    "no-branches": ((A, B), [], 24, "initial state: branch probabilities sum to 0"),
}


@pytest.mark.parametrize("registry,branches,max_qubits,refusal", STATE_FAULTS.values(), ids=STATE_FAULTS.keys())
def test_from_vectors_refuses_what_a_trace_header_refuses(registry, branches, max_qubits, refusal):
    """``from_vectors`` makes both a run's input and a trace's initial state, so it
    refuses each fault with the text the load reports after the line number."""
    header = {"kind": "header", "format": ledger.TRACE_FORMAT, "n_parties": 2, "max_qubits": max_qubits,
              "registry": [[q.party, q.label] for q in registry],
              "branches": [{"p": p, "amplitudes": [[float(z), 0.0] for z in vec]} for p, vec in branches]}
    with pytest.raises(ValueError) as loaded:
        ledger.load_trace(json.dumps(header) + "\n")
    assert str(loaded.value) == f"trace line 1: {refusal}"
    with pytest.raises(ValueError) as built:
        BranchEnsemble.from_vectors(registry, branches, max_qubits)
    assert str(built.value) == refusal


@st.composite
def oracle_cases(draw):
    """A random ensemble of 1..2 branches over 2..7 qubits held by parties 1..n
    (n <= 3), and a permutation oracle on a random ordered subset of its qubits."""
    n = draw(st.integers(min_value=1, max_value=3))
    owners = draw(st.lists(st.integers(min_value=1, max_value=n), min_size=2, max_size=7))
    registry = tuple(QubitId(p, f"x{i}") for i, p in enumerate(owners))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    weights = rng.random(draw(st.integers(min_value=1, max_value=2))) + 0.1
    branches = [(float(w), gates.random_state(1 << len(registry), rng)) for w in weights / weights.sum()]
    order = draw(st.permutations(registry))
    targets = tuple(order[:draw(st.integers(min_value=1, max_value=len(registry)))])
    p = gates.Permutation(tuple(draw(st.permutations(range(1, len(targets) + 1)))))
    oracle = CollectiveOracle(tuple(sorted({q.party for q in targets})), targets, p)
    return n, BranchEnsemble.from_vectors(registry, branches, engine.DEFAULT_MAX_QUBITS), oracle


class TestRelabel:
    @given(oracle_cases())
    @settings(max_examples=240, deadline=None)
    def test_permutation_oracle_equals_the_dense_permutation_unitary(self, case):
        n, ens, oracle = case
        renamed, _ = oracle.apply(ens)
        dense = engine.apply_gate(ens, Gate(oracle.targets, oracles.permutation_unitary(oracle.permutation)))
        assert renamed.branches is ens.branches
        order = list(ens.registry)
        for (p_renamed, v_renamed), (p_dense, v_dense) in zip(engine.branch_vectors(renamed, order),
                                                              engine.branch_vectors(dense, order)):
            assert p_renamed == p_dense
            assert np.array_equal(v_renamed, v_dense)
        for cut in map(audit._parties, audit._Cuts(n).masks.tolist()):
            got = engine.entanglement_entropy(renamed, cut, universe=range(1, n + 1))
            want = engine.entanglement_entropy(dense, cut, universe=range(1, n + 1))
            assert abs(got - want) <= 1e-12

    @staticmethod
    def two_qubit_run():
        run = protocols.new_run(1)
        a, b = QubitId(1, "a"), QubitId(1, "b")
        run.step(Allocate(1, (a, b), "00"))
        return run, a, b

    def test_renames_must_give_distinct_ids(self):
        run, a, b = self.two_qubit_run()
        with pytest.raises(ValueError, match=r"^qubit 1:b is already in the registry$"):
            run.step(Relabel(a, b))
        assert run.ensemble.registry == (a, b)

    def test_unknown_qubit_is_rejected(self):
        run, a, b = self.two_qubit_run()
        with pytest.raises(ValueError, match=r"^qubit 1:nowhere is not in the registry$"):
            run.step(Relabel(QubitId(1, "nowhere"), QubitId(1, "c")))
        assert run.ensemble.registry == (a, b)


class TestFactoredAgainstDense:
    """The factored engine against ``oracles.DenseEnsemble``, event by event."""

    @staticmethod
    def assert_untouched_factors_shared(before, after, ev):
        """Every factor of a group the event did not act on is the factor it was,
        not a copy: a rename shares the branches whole, and any other event shares
        the factors of the groups that hold none of its targets."""
        if isinstance(ev, (CollectiveOracle, Relocate, Relabel)):
            assert after.branches is before.branches
            return
        touched = set(ev.targets) if isinstance(ev, (LocalGate, LocalMeasure)) else set()
        old = {frozenset(g): i for i, g in enumerate(before.groups)}
        for j, group in enumerate(after.groups):
            i = old.get(frozenset(group))
            if i is not None and touched.isdisjoint(group):
                was = {id(b.factors[i]) for b in before.branches}
                assert all(id(b.factors[j]) in was for b in after.branches), (ev, group)

    def assert_engines_agree(self, initial, events):
        ens, dense = initial, oracles.DenseEnsemble(initial)
        for step, ev in enumerate(events):
            before = ens
            ens, dist = ev.apply(ens)
            want = dense.apply(ev)
            assert ens.registry == tuple(dense.registry), step
            assert len(ens.branches) == len(dense.branches), step
            assert [b.record for b in ens.branches] == [record for _, _, record in dense.branches], step
            for branch, got, (p, vec, _) in zip(ens.branches, oracles.dense_vectors(ens), dense.branches):
                assert abs(branch.probability - p) <= 1e-12, step
                assert abs(np.vdot(vec, got)) ** 2 >= 1 - 1e-12, step
            assert (dist is None) == (want is None), step
            if dist is not None:
                assert set(dist) == set(want) and all(abs(dist[k] - want[k]) <= 1e-12 for k in dist), step
            assert [len(b.factors) for b in ens.branches] == [len(ens.groups)] * len(ens.branches)
            assert sorted(q for g in ens.groups for q in g) == sorted(ens.registry)
            assert () not in ens.groups, step
            self.assert_untouched_factors_shared(before, ens, ev)

    def test_an_empty_registry_has_no_group_and_no_factor(self):
        ens = BranchEnsemble.vacuum()
        assert ens.groups == () and [b.factors for b in ens.branches] == [()]
        ens, (x0, x1) = oracles.allocate(ens, 1, "x0", "x1")
        p, q = QubitId(1, "p"), QubitId(2, "q")
        ens = engine.insert_bell_pair(ens, p, q)
        assert ens.groups == ((x0,), (x1,), (p, q))
        assert [len(b.factors) for b in ens.branches] == [3]
        run, _ = cli._simulate("perm-comm", 3, np.random.default_rng(7), 1, engine.DEFAULT_MAX_QUBITS)
        initial = ledger.load_trace(ledger.dump_trace(run.trace)).initial
        assert initial.registry == () and initial.groups == ()
        assert [b.factors for b in initial.branches] == [()]
        assert np.array_equal(oracles.dense_vectors(initial)[0], [1])

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_traces(self, data):
        trace = random_trace(data)
        self.assert_engines_agree(trace.initial, trace.events)

    @staticmethod
    def contents(ens):
        """What an ensemble holds, by value: its registry, groups and measurement
        count, and per branch the probability, a copy of the record and the bytes
        of every factor."""
        return (ens.registry, ens.groups, ens.measurement_count,
                [(b.probability, dict(b.record), [f.tobytes() for f in b.factors]) for b in ens.branches])

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_operations_leave_their_input_unchanged(self, data):
        """No event's ``apply`` writes into the ensemble it is given: its branch
        list, probabilities, records and factor bytes stay as they were, which is
        what lets ensembles share branches, factors and records.  The trace is
        replayed as loaded, so its records start empty."""
        trace = ledger.load_trace(ledger.dump_trace(random_trace(data)))
        ens = trace.initial
        for step, ev in enumerate(trace.events):
            branches, contents = list(ens.branches), self.contents(ens)
            after, _ = ev.apply(ens)
            assert len(ens.branches) == len(branches), step
            assert all(b is was for b, was in zip(ens.branches, branches)), step
            assert self.contents(ens) == contents, step
            ens = after

    @pytest.mark.parametrize("protocol", cli.PROTOCOLS)
    def test_protocol_runs(self, protocol):
        run, _ = cli._simulate(protocol, REPLAY_N.get(protocol, 3), np.random.default_rng(7), 1,
                               engine.DEFAULT_MAX_QUBITS)
        self.assert_engines_agree(run.trace.initial, run.trace.events)



def random_product_ensemble(rng, sizes, n_branches):
    """An ensemble of ``n_branches`` weighted branches over product groups of
    ``sizes`` qubits, all at party 1, each factor of each branch a random state."""
    labels = iter(range(sum(sizes)))
    groups = tuple(tuple(QubitId(1, f"x{next(labels)}") for _ in range(size)) for size in sizes)
    weights = rng.random(n_branches) + 0.1
    branches = [engine.Branch(float(w), tuple(gates.random_state(1 << len(g), rng) for g in groups), {})
                for w in weights / weights.sum()]
    ens = BranchEnsemble(tuple(q for g in groups for q in g), branches, engine.DEFAULT_MAX_QUBITS, 0, groups)
    ens.check()
    return ens


class TestMeasurementJoins:
    """A measurement joins its targets' groups as a gate does, and a Bell
    measurement is that kernel with the basis change fused in."""

    @pytest.mark.parametrize("discard", [False, True])
    def test_targets_in_two_groups_leave_one_joined_group_last(self, discard):
        ens = random_product_ensemble(np.random.default_rng(3), (2, 1, 2, 1), 2)
        g0, g1, g2, g3 = ens.groups
        targets = (g2[0], g0[1])
        measure = LocalMeasure(1, targets, "computational", discard, 0, ())
        out, _ = measure.apply(ens)
        joined = tuple(q for q in g0 + g2 if not discard or q not in targets)
        assert out.groups == (g1, g3, joined)
        TestFactoredAgainstDense().assert_engines_agree(ens, [measure])

    @pytest.mark.parametrize("discard", [False, True])
    @pytest.mark.parametrize("measure", [engine.measure_computational, engine.bell_measure])
    def test_targets_in_the_last_group_move_no_group_and_share_the_rest(self, measure, discard):
        """What keeps every trace a protocol writes byte-identical: its Bell pairs
        already share the last group, so the other groups keep their places."""
        ens = random_product_ensemble(np.random.default_rng(4), (2, 1, 3), 2)
        last = ens.groups[-1]
        out, _ = measure(ens, (last[2], last[0]), discard=discard)
        kept = tuple(q for q in last if not discard or q == last[1])
        assert out.groups == (*ens.groups[:-1], kept)
        assert len(out.branches) == 4 * len(ens.branches)  # random states: no outcome is pruned
        for k, b in enumerate(out.branches):
            assert all(f is g for f, g in zip(b.factors[:-1], ens.branches[k // 4].factors[:-1]))

    @pytest.mark.parametrize("discard", [False, True])
    @pytest.mark.parametrize("seed", range(8))
    def test_bell_measure_equals_the_composed_measurement_bit_for_bit(self, seed, discard):
        """The basis change, a computational measurement and the change back, each
        run on its own, give the same bytes as the fused kernel."""
        rng = np.random.default_rng(seed)
        sizes = tuple(int(s) for s in rng.integers(1, 4, size=int(rng.integers(2, 5))))
        ens = random_product_ensemble(rng, sizes, int(rng.integers(1, 4)))
        pair = tuple(ens.registry[i] for i in rng.choice(ens.num_qubits, size=2, replace=False))
        got, got_dist = engine.bell_measure(ens, pair, discard=discard)
        want = engine._evolve(ens, pair, lambda branch: engine._BELL_BASIS_CHANGE)
        want, want_dist = engine.measure_computational(want, pair, discard=discard)
        if not discard:
            want = engine._evolve(want, pair, lambda branch: engine._BELL_BASIS_CHANGE.conj().T)
        assert got_dist == want_dist
        assert TestFactoredAgainstDense.contents(got) == TestFactoredAgainstDense.contents(want)
