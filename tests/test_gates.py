import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebitnet import gates
from ebitnet.gates import Permutation

import oracles


def apply_to_basis(u: np.ndarray, bits: list[int]) -> list[int]:
    """Send a computational basis state through u; u must be a permutation matrix."""
    idx = sum(b << i for i, b in enumerate(bits))
    out = np.argmax(np.abs(u[:, idx]))
    return [(out >> i) & 1 for i in range(len(bits))]


@st.composite
def permutations(draw, max_n=5):
    n = draw(st.integers(min_value=2, max_value=max_n))
    mapping = list(range(1, n + 1))
    perm = draw(st.permutations(mapping))
    return Permutation(tuple(perm))


class TestPermutation:
    def test_bijection_required(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))

    def test_derangement_flag(self):
        assert Permutation((2, 1)).is_derangement
        assert not Permutation((1, 3, 2)).is_derangement
        assert Permutation.cyclic_shift(5).is_derangement

    @given(permutations())
    def test_inverse(self, p):
        pinv = p.inverse()
        for i in range(1, p.n + 1):
            assert pinv(p(i)) == i

    def test_cyclic_shift_moves_forward(self):
        p = Permutation.cyclic_shift(4)
        assert p.mapping == (2, 3, 4, 1)


class TestPermutationUnitary:
    def test_three_cycle_on_basis(self):
        # state of slot i moves to slot i+1: |abc> -> |cab>
        u = oracles.permutation_unitary(Permutation.cyclic_shift(3))
        assert apply_to_basis(u, [1, 0, 0]) == [0, 1, 0]
        assert apply_to_basis(u, [1, 1, 0]) == [0, 1, 1]

    def test_swap_is_two_slot_permutation(self):
        assert np.allclose(oracles.swap_unitary(), oracles.permutation_unitary(oracles.two_cycle()))

    def test_swap_exchanges_product_states(self):
        rng = np.random.default_rng(3)
        a = gates.random_state(2, rng)
        b = gates.random_state(2, rng)
        joint = np.kron(b, a)  # slot 1 is bit 0 (least significant kron factor)
        swapped = oracles.swap_unitary() @ joint
        assert np.allclose(swapped, np.kron(a, b))

    @given(permutations(max_n=4))
    @settings(max_examples=30, deadline=None)
    def test_unitary_is_permutation_matrix(self, p):
        u = oracles.permutation_unitary(p)
        assert np.allclose(np.abs(u) @ np.ones(u.shape[0]), 1)
        assert np.allclose(u @ u.conj().T, np.eye(u.shape[0]))

    @given(permutations(max_n=4))
    @settings(max_examples=30, deadline=None)
    def test_composition(self, p):
        u = oracles.permutation_unitary(p)
        uinv = oracles.permutation_unitary(p.inverse())
        assert np.allclose(uinv @ u, np.eye(u.shape[0]))


class TestPsOperations:
    def test_ps4_swaps_adjacent_pairs(self):
        u = oracles.ps_unitary(4)
        # |abcd> -> |badc>
        assert apply_to_basis(u, [1, 0, 0, 0]) == [0, 1, 0, 0]
        assert apply_to_basis(u, [0, 0, 1, 0]) == [0, 0, 0, 1]
        assert apply_to_basis(u, [1, 0, 1, 1]) == [0, 1, 1, 1]

    def test_ps_cp3_is_three_cycle(self):
        u = oracles.ps_cp_unitary(3)
        assert apply_to_basis(u, [1, 0, 0]) == [0, 1, 0]

    def test_ps_cp7_leaves_no_slot_fixed(self):
        assert gates.ps_cp_permutation(7).is_derangement
        assert gates.ps_cp_permutation(9).is_derangement

    def test_parity_validation(self):
        with pytest.raises(ValueError):
            gates.ps_permutation(3)
        with pytest.raises(ValueError):
            gates.ps_cp_permutation(4)
        with pytest.raises(ValueError):
            gates.ps_cp_permutation(1)

    def test_ps_permutations_are_derangements(self):
        for n in (2, 4, 6, 8):
            assert gates.ps_permutation(n).is_derangement
        for n in (3, 5, 7):
            assert gates.ps_cp_permutation(n).is_derangement


class TestLocalEquivalence:
    def test_hadamard_dressed_swap_recovers(self):
        locals1 = [gates.HADAMARD, gates.HADAMARD]
        locals2 = [gates.HADAMARD, gates.HADAMARD]
        t = oracles.dress_with_locals(oracles.swap_unitary(), locals1, locals2)
        back = oracles.local_equivalence_conjugate(t, locals1, locals2)
        assert np.max(np.abs(back - oracles.swap_unitary())) < 1e-10

    def test_identity_locals_leave_operator(self):
        t = oracles.ps_unitary(4)
        back = oracles.local_equivalence_conjugate(t, [np.eye(2)] * 4, [np.eye(2)] * 4)
        assert np.allclose(back, t)

    def test_random_locals_recover_permutation(self):
        rng = np.random.default_rng(41)
        u_p = oracles.permutation_unitary(Permutation.cyclic_shift(3))
        pre = [gates.haar_unitary(2, rng) for _ in range(3)]
        post = [gates.haar_unitary(2, rng) for _ in range(3)]
        t = oracles.dress_with_locals(u_p, pre, post)
        back = oracles.local_equivalence_conjugate(t, pre, post)
        # equal up to (here: exactly, no phase freedom in the construction)
        assert np.max(np.abs(back - u_p)) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            oracles.local_equivalence_conjugate(np.eye(4), [np.eye(2)] * 3, [np.eye(2)] * 3)
