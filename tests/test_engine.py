import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebitnet import audit, engine, gates
from ebitnet.engine import BranchEnsemble, Gate, Povm, QubitId, RegistryCapacityError
from ebitnet.ledger import CollectiveOracle, apply_event


def bell_pair_ensemble(party_a=1, party_b=1):
    ens = BranchEnsemble.vacuum()
    ens, (a,) = engine.allocate_qubits(ens, party_a, 1, labels=("a",))
    ens, (b,) = engine.allocate_qubits(ens, party_b, 1, labels=("b",))
    ens = engine.apply_gate(ens, Gate((a,), gates.HADAMARD))
    ens = engine.apply_gate(ens, Gate((a, b), gates.cnot_unitary()))
    return ens, a, b


class TestAllocation:
    def test_single_zero_qubit(self):
        ens = BranchEnsemble.vacuum()
        ens, _ = engine.allocate_qubits(ens, 1, 1)
        assert np.allclose(ens.branches[0].amplitudes, [1, 0])

    def test_bell_construction(self):
        ens, a, b = bell_pair_ensemble()
        assert np.allclose(ens.branches[0].amplitudes, np.array([1, 0, 0, 1]) / math.sqrt(2))

    def test_allocation_extends_every_branch(self):
        ens = BranchEnsemble.vacuum()
        ens, (a,) = engine.allocate_qubits(ens, 1, 1, labels=("a",))
        ens = engine.apply_gate(ens, Gate((a,), gates.HADAMARD))
        ens, _ = engine.measure_computational(ens, (a,))
        assert len(ens.branches) == 2
        ens, _ = engine.allocate_qubits(ens, 2, 1, init="1")
        assert len(ens.branches) == 2
        assert all(abs(b.probability - 0.5) < 1e-12 for b in ens.branches)
        assert ens.num_qubits == 2

    def test_init_string(self):
        ens = BranchEnsemble.vacuum()
        ens, _ = engine.allocate_qubits(ens, 1, 2, init="10")
        # first new qubit is bit 0, so "10" is index 1
        assert np.argmax(np.abs(ens.branches[0].amplitudes)) == 1

    def test_capacity_cap(self):
        ens = BranchEnsemble.vacuum(max_qubits=3)
        ens, _ = engine.allocate_qubits(ens, 1, 3)
        with pytest.raises(RegistryCapacityError):
            engine.allocate_qubits(ens, 1, 1)

    def test_duplicate_label_rejected(self):
        ens = BranchEnsemble.vacuum()
        ens, _ = engine.allocate_qubits(ens, 1, 1, labels=("a",))
        with pytest.raises(ValueError):
            engine.allocate_qubits(ens, 1, 1, labels=("a",))


class TestGates:
    def test_swap_on_basis_state(self):
        ens = BranchEnsemble.vacuum()
        ens, (a, b) = engine.allocate_qubits(ens, 1, 2, init="10")
        ens = engine.apply_gate(ens, Gate((a, b), gates.swap_unitary()))
        assert np.argmax(np.abs(ens.branches[0].amplitudes)) == 2

    def test_identity_leaves_state(self):
        ens, a, b = bell_pair_ensemble()
        before = ens.branches[0].amplitudes.copy()
        ens = engine.apply_gate(ens, Gate((a, b), np.eye(4)))
        assert np.allclose(ens.branches[0].amplitudes, before)

    def test_x_on_second_qubit_of_phi_plus(self):
        ens, a, b = bell_pair_ensemble()
        ens = engine.apply_gate(ens, Gate((b,), gates.PAULI_X))
        assert np.allclose(ens.branches[0].amplitudes, gates.bell_state("01"))

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

    def test_unknown_target_rejected(self):
        ens, a, b = bell_pair_ensemble()
        with pytest.raises(ValueError, match="unknown target"):
            engine.apply_gate(ens, Gate((QubitId(9, "zz"),), gates.PAULI_X))

    def test_norms_preserved(self):
        rng = np.random.default_rng(11)
        ens = BranchEnsemble.vacuum()
        ens, ids = engine.allocate_qubits(ens, 1, 3)
        ens = BranchEnsemble.from_amplitudes(ids, gates.random_state(8, rng))
        for _ in range(20):
            k = rng.integers(1, 3)
            targets = tuple(rng.choice(len(ids), size=k, replace=False))
            u = gates.haar_unitary(1 << k, rng)
            ens = engine.apply_gate(ens, Gate(tuple(ids[t] for t in targets), u))
            for b in ens.branches:
                assert abs(np.linalg.norm(b.amplitudes) - 1) < 1e-12


class TestMeasurement:
    def test_one_qubit_of_bell(self):
        ens, a, b = bell_pair_ensemble()
        ens, dist = engine.measure_computational(ens, (a,))
        assert dist == pytest.approx({"0": 0.5, "1": 0.5})
        assert abs(sum(br.probability for br in ens.branches) - 1) < 1e-12

    def test_eigenstate_deterministic(self):
        ens = BranchEnsemble.vacuum()
        ens, (a,) = engine.allocate_qubits(ens, 1, 1)
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
        for br in ens.branches:
            assert br.amplitudes.shape == (2,)

    def test_record_tracks_outcomes(self):
        ens, a, b = bell_pair_ensemble()
        ens, _ = engine.measure_computational(ens, (a,))
        outcomes = {br.record[0] for br in ens.branches}
        assert outcomes == {"0", "1"}


class TestPovm:
    def test_uniform_povm_m4(self):
        rng = np.random.default_rng(0)
        ens = BranchEnsemble.vacuum()
        ens, ids = engine.allocate_qubits(ens, 1, 2)
        ens = BranchEnsemble.from_amplitudes(ids, gates.random_state(4, rng))
        povm = Povm(tuple(np.eye(4) / 4 for _ in range(4)))
        assert engine.measure_povm(ens, povm, ids) == pytest.approx([0.25] * 4)

    def test_projective_on_eigenstate(self):
        ens = BranchEnsemble.vacuum()
        ens, (a,) = engine.allocate_qubits(ens, 1, 1, init="1")
        povm = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        assert engine.measure_povm(ens, povm, (a,)) == pytest.approx([0.0, 1.0])

    def test_uniform_m8_state_independent(self):
        rng = np.random.default_rng(5)
        ens = BranchEnsemble.vacuum()
        ens, ids = engine.allocate_qubits(ens, 1, 3)
        ens = BranchEnsemble.from_amplitudes(ids, gates.random_state(8, rng))
        povm = Povm(tuple(np.eye(8) / 8 for _ in range(8)))
        assert engine.measure_povm(ens, povm, ids) == pytest.approx([0.125] * 8)

    def test_invalid_povm_rejected(self):
        with pytest.raises(ValueError):
            Povm((np.eye(2),) * 2)  # sums to 2I
        with pytest.raises(ValueError):
            Povm((np.array([[1, 0], [0, -0.5]]), np.array([[0, 0], [0, 1.5]])))

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
        ens = BranchEnsemble.vacuum()
        ens, (a,) = engine.allocate_qubits(ens, 1, 1)
        ens, (b,) = engine.allocate_qubits(ens, 1, 1)
        ens = engine.apply_gate(ens, Gate((b,), gates.HADAMARD))
        rho = engine.reduced_density(ens, (a,))
        assert np.allclose(rho, np.diag([1.0, 0.0]))
        rho_b = engine.reduced_density(ens, (b,))
        assert np.allclose(rho_b, np.full((2, 2), 0.5))

    def test_whole_system_rank_one(self):
        ens, a, b = bell_pair_ensemble()
        rho = engine.reduced_density(ens, (a, b))
        phi = gates.bell_state("00")
        assert np.allclose(rho, np.outer(phi, phi.conj()))
        assert abs(np.trace(rho) - 1) < 1e-10

    def test_eigenvalues_match_on_both_sides(self):
        rng = np.random.default_rng(17)
        ens = BranchEnsemble.vacuum()
        ens, ids = engine.allocate_qubits(ens, 1, 5)
        ens = BranchEnsemble.from_amplitudes(ids, gates.random_state(32, rng))
        left = np.linalg.eigvalsh(engine.reduced_density(ens, ids[:2]))
        right = np.linalg.eigvalsh(engine.reduced_density(ens, ids[2:]))
        left = np.sort(left[left > 1e-9])
        right = np.sort(right[right > 1e-9])
        assert np.allclose(left, right, atol=1e-9)


class TestEntropy:
    def test_bell_pair_one_ebit(self):
        ens, a, b = bell_pair_ensemble(party_a=1, party_b=2)
        assert engine.entanglement_entropy(ens, {1}) == pytest.approx(1.0, abs=1e-9)

    def test_product_state_zero(self):
        ens = BranchEnsemble.vacuum()
        ens, _ = engine.allocate_qubits(ens, 1, 1)
        ens, (b,) = engine.allocate_qubits(ens, 2, 1)
        ens = engine.apply_gate(ens, Gate((b,), gates.HADAMARD))
        assert engine.entanglement_entropy(ens, {1}) == pytest.approx(0.0, abs=1e-9)

    def test_two_cross_pairs_two_ebits(self):
        # two Bell pairs, each stretched between parties 1 and 2
        ens = BranchEnsemble.vacuum()
        ens, (a1,) = engine.allocate_qubits(ens, 1, 1, labels=("a1",))
        ens, (b1,) = engine.allocate_qubits(ens, 2, 1, labels=("b1",))
        ens, (a2,) = engine.allocate_qubits(ens, 1, 1, labels=("a2",))
        ens, (b2,) = engine.allocate_qubits(ens, 2, 1, labels=("b2",))
        for x, y in ((a1, b1), (a2, b2)):
            ens = engine.apply_gate(ens, Gate((x,), gates.HADAMARD))
            ens = engine.apply_gate(ens, Gate((x, y), gates.cnot_unitary()))
        assert engine.entanglement_entropy(ens, {1}) == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("p,counted", [(1e-11, True), (1e-14, False)])
    def test_eigenvalue_cutoff(self, p, counted):
        """A Schmidt weight of 1e-11 adds its -p log2 p (about 36.5 p) to the entropy;
        one of 1e-14 is below EIG_TOL and dropped, leaving about 1.4 p."""
        q1, q2 = QubitId(1, "q1"), QubitId(2, "q2")
        ens = BranchEnsemble.from_amplitudes((q1, q2), [np.sqrt(1 - p), 0, 0, np.sqrt(p)])
        assert (engine.entropy_of_qubits(ens, [q1]) > 10 * p) == counted

    def test_improper_partition_rejected(self):
        ens, a, b = bell_pair_ensemble(party_a=1, party_b=2)
        with pytest.raises(ValueError):
            engine.entanglement_entropy(ens, {1, 2})
        with pytest.raises(ValueError):
            engine.entanglement_entropy(ens, set())

    def test_invariant_under_local_unitaries(self):
        rng = np.random.default_rng(23)
        ens = BranchEnsemble.vacuum()
        ens, ids = engine.allocate_qubits(ens, 1, 2)
        ens, ids2 = engine.allocate_qubits(ens, 2, 2)
        ens = BranchEnsemble.from_amplitudes(ids + ids2, gates.random_state(16, rng))
        before = engine.entanglement_entropy(ens, {1})
        for q in ids + ids2:
            ens = engine.apply_gate(ens, Gate((q,), gates.haar_unitary(2, rng)))
        assert abs(engine.entanglement_entropy(ens, {1}) - before) < 1e-9

    @given(st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=2 ** 32 - 1), st.data())
    @settings(max_examples=200, deadline=None)
    def test_both_sides_of_a_cut_have_one_entropy(self, k, n_branches, seed, data):
        rng = np.random.default_rng(seed)
        registry = tuple(QubitId(1, f"x{i}") for i in range(k))
        weights = rng.random(n_branches) + 0.1
        branches = [engine.Branch(float(w), gates.random_state(1 << k, rng)) for w in weights / weights.sum()]
        ens = BranchEnsemble(registry, branches)
        subset = data.draw(st.sets(st.sampled_from(registry)))
        rest = [q for q in registry if q not in subset]
        assert abs(engine.entropy_of_qubits(ens, subset) - engine.entropy_of_qubits(ens, rest)) <= 1e-12

    def test_measurement_cannot_raise_average_entropy(self):
        rng = np.random.default_rng(29)
        ens = BranchEnsemble.vacuum()
        ens, ids1 = engine.allocate_qubits(ens, 1, 2)
        ens, ids2 = engine.allocate_qubits(ens, 2, 2)
        ens = BranchEnsemble.from_amplitudes(ids1 + ids2, gates.random_state(16, rng))
        before = engine.entanglement_entropy(ens, {1})
        ens, _ = engine.measure_computational(ens, (ids1[0],))
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
        vecs = gates.bell_states()
        labels = sorted(vecs)
        for i, li in enumerate(labels):
            for lj in labels[i:]:
                ip = abs(np.vdot(vecs[li], vecs[lj]))
                assert ip == pytest.approx(1.0 if li == lj else 0.0, abs=1e-12)

    def test_bell_measure_identifies_each_state(self):
        for label, vec in gates.bell_states().items():
            ens = BranchEnsemble.vacuum()
            ens, ids = engine.allocate_qubits(ens, 1, 2)
            ens = BranchEnsemble.from_amplitudes(ids, vec)
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
        assert np.allclose(ens.branches[0].amplitudes, gates.bell_state("00"))


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
            ens = BranchEnsemble.vacuum()
            ens, ids = engine.allocate_qubits(ens, 1, k)
            ens = BranchEnsemble.from_amplitudes(ids, vec)
            targets = tuple(ids[p] for p in positions)
            got = engine.apply_gate(ens, Gate(targets, u)).branches[0].amplitudes
            want = self.full_matrix(u, positions, k) @ vec
            assert np.allclose(got, want, atol=1e-12)

    def test_measurement_matches_marginal_enumeration(self):
        rng = np.random.default_rng(38)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            m = int(rng.integers(1, k + 1))
            positions = sorted(rng.choice(k, size=m, replace=False))
            vec = gates.random_state(1 << k, rng)
            ens = BranchEnsemble.vacuum()
            ens, ids = engine.allocate_qubits(ens, 1, k)
            ens = BranchEnsemble.from_amplitudes(ids, vec)
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
        ens = BranchEnsemble.vacuum()
        ens, ids = engine.allocate_qubits(ens, 1, 3)
        vec = gates.random_state(8, rng)
        ens = BranchEnsemble.from_amplitudes(ids, vec)
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
        ens = BranchEnsemble.vacuum()
        ens, (a,) = engine.allocate_qubits(ens, 1, 1)
        two = BranchEnsemble(
            ens.registry,
            [
                engine.Branch(0.5, np.array([1, 0], dtype=complex)),
                engine.Branch(0.5, np.array([-1, 0], dtype=complex)),
            ],
        )
        assert len(engine.coalesce(two).branches) == 1

    def test_conditioning_without_a_record_is_rejected(self):
        ens, a, b = bell_pair_ensemble()
        with pytest.raises(ValueError, match="no outcome recorded"):
            engine.apply_conditional(ens, (a,), {"0": np.eye(2)}, measurement_index=0)

    def test_conditioning_across_a_coalesce_is_rejected(self):
        # measure a |+> qubit away: both branches leave the same remainder,
        # so they merge and the conflicting outcome record is dropped
        ens = BranchEnsemble.vacuum()
        ens, (a,) = engine.allocate_qubits(ens, 1, 1, labels=("a",))
        ens, (b,) = engine.allocate_qubits(ens, 1, 1, labels=("b",))
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
        ens = BranchEnsemble.vacuum()
        ens, ids = engine.allocate_qubits(ens, 1, 5)
        ens = BranchEnsemble.from_amplitudes(ids, gates.random_state(32, rng))
        targets = [ids[3], ids[0], ids[4]]
        out, dist = engine.measure_computational(ens, targets, discard=discard)
        vec = ens.branches[0].amplitudes
        idx = np.arange(32)
        expected = {}
        for code in range(8):
            bits = [(code >> j) & 1 for j in range(3)]
            sel = np.ones(32, dtype=bool)
            for q, bit in zip(targets, bits):
                sel &= ((idx >> ens.position(q)) & 1) == bit
            weight = float(np.sum(np.abs(vec[sel]) ** 2))
            kept = vec[sel] if discard else np.where(sel, vec, 0.0)
            expected["".join(map(str, bits))] = (weight, kept / math.sqrt(weight))
        assert dist == {outcome: weight for outcome, (weight, _) in expected.items()}
        assert len(out.branches) == 8
        for b in out.branches:
            weight, ref = expected[b.record[0]]
            assert b.probability == weight
            assert b.amplitudes.tobytes() == ref.tobytes()

    def test_branch_norm_tolerance(self):
        """check() refuses a branch whose norm drifted by 1e-8 and accepts a drift of 1e-11."""
        ens = BranchEnsemble.from_amplitudes((QubitId(1, "a"),), [1.0, 0.0])
        ens.branches[0].amplitudes[0] = 1 + 1e-8
        with pytest.raises(AssertionError, match="branch norm"):
            ens.check()
        ens.branches[0].amplitudes[0] = 1 + 1e-11
        ens.check()

    def test_probability_sum_tolerance(self):
        """check() refuses branch probabilities summing to 1 + 1e-11 and accepts 1 + 1e-14."""
        ens = BranchEnsemble((QubitId(1, "a"),), [engine.Branch(0.5, np.array([1, 0], dtype=complex)),
                                                  engine.Branch(0.5, np.array([0, 1], dtype=complex))])
        ens.branches[1].probability = 0.5 + 1e-11
        with pytest.raises(AssertionError, match="sum to"):
            ens.check()
        ens.branches[1].probability = 0.5 + 1e-14
        ens.check()

    def test_nan_amplitude_is_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            BranchEnsemble.from_amplitudes((QubitId(1, "a"),), [float("nan"), 0.0])


@st.composite
def oracle_cases(draw):
    """A random ensemble of 1..2 branches over 2..7 qubits held by parties 1..n
    (n <= 3), and a permutation oracle on a random ordered subset of its qubits."""
    n = draw(st.integers(min_value=1, max_value=3))
    owners = draw(st.lists(st.integers(min_value=1, max_value=n), min_size=2, max_size=7))
    registry = tuple(QubitId(p, f"x{i}") for i, p in enumerate(owners))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    weights = rng.random(draw(st.integers(min_value=1, max_value=2))) + 0.1
    branches = [engine.Branch(float(w), gates.random_state(1 << len(registry), rng))
                for w in weights / weights.sum()]
    order = draw(st.permutations(registry))
    targets = tuple(order[:draw(st.integers(min_value=1, max_value=len(registry)))])
    p = gates.Permutation(tuple(draw(st.permutations(range(1, len(targets) + 1)))))
    oracle = CollectiveOracle(tuple(sorted({q.party for q in targets})), targets, p)
    return n, BranchEnsemble(registry, branches), oracle


class TestRelabel:
    @given(oracle_cases())
    @settings(max_examples=240, deadline=None)
    def test_permutation_oracle_equals_the_dense_permutation_unitary(self, case):
        n, ens, oracle = case
        renamed, _ = apply_event(ens, oracle)
        dense = engine.apply_gate(ens, Gate(oracle.targets, gates.permutation_unitary(oracle.permutation)))
        assert renamed.branches is ens.branches
        order = list(ens.registry)
        for (p_renamed, v_renamed), (p_dense, v_dense) in zip(engine.branch_vectors(renamed, order),
                                                              engine.branch_vectors(dense, order)):
            assert p_renamed == p_dense
            assert np.array_equal(v_renamed, v_dense)
        for cut in audit._cuts(n):
            got = engine.entanglement_entropy(renamed, cut, universe=range(1, n + 1))
            want = engine.entanglement_entropy(dense, cut, universe=range(1, n + 1))
            assert abs(got - want) <= 1e-12

    def test_renames_must_give_distinct_ids(self):
        ens, a, b = bell_pair_ensemble(1, 2)
        with pytest.raises(ValueError, match="already in use"):
            engine.relabel_qubits(ens, {a: b})

    def test_unknown_qubit_is_rejected(self):
        ens, a, b = bell_pair_ensemble(1, 2)
        with pytest.raises(ValueError, match="unknown target qubit"):
            engine.relabel_qubits(ens, {QubitId(1, "nowhere"): QubitId(1, "c")})
