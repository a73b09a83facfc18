import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ebitnet import bounds

import oracles

odd_n = st.integers(min_value=1, max_value=30).map(lambda k: 2 * k + 1)


class TestClosedForms:
    @pytest.mark.parametrize("n,e,c", [(2, 2, 4), (4, 6, 12), (7, 12, 24)])
    def test_teleport_resources(self, n, e, c):
        assert bounds.teleport_resources(n) == (e, c)

    @pytest.mark.parametrize("n,e,c", [(2, 2, 4), (4, 4, 8), (6, 6, 12)])
    def test_distillation_caps(self, n, e, c):
        assert bounds.distillation_caps(n) == (e, c)

    def test_cap_saturates_teleport_only_at_two(self):
        assert bounds.distillation_caps(2) == bounds.teleport_resources(2)
        for n in range(4, 13):
            cap_e, cap_c = bounds.distillation_caps(n)
            tel_e, tel_c = bounds.teleport_resources(n)
            assert cap_e < tel_e and cap_c < tel_c

    @pytest.mark.parametrize("n,e,c", [
        (4, 6, 12),
        (3, 3, 6),
        (5, Fraction(20, 3), Fraction(40, 3)),
    ])
    def test_lower_bounds(self, n, e, c):
        assert bounds.lower_bounds(n) == (e, c)

    def test_small_n_rejected(self):
        for fn in (bounds.teleport_resources, bounds.distillation_caps, bounds.lower_bounds):
            with pytest.raises(ValueError):
                fn(1)


class TestIntegerOneShot:
    def test_n3(self):
        assert bounds.integer_one_shot_bounds(3) == (3, 6)
        assert 3 == 2 * 2 - 1

    def test_n5(self):
        e, c = bounds.integer_one_shot_bounds(5)
        assert e == 7 == math.ceil(Fraction(20, 3))
        assert c == 14 == 16 - 2  # two bits under the teleportation figure

    @given(odd_n)
    def test_ebit_ceiling_is_one_under_teleport(self, n):
        e, _ = bounds.integer_one_shot_bounds(n)
        assert e == 2 * (n - 1) - 1

    @given(odd_n)
    def test_bit_ceiling_gap(self, n):
        _, c = bounds.integer_one_shot_bounds(n)
        gap = 4 * (n - 1) - c
        assert gap == (2 if n in (3, 5) else 3)

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            bounds.integer_one_shot_bounds(4)


class TestHalfTransferBounds:
    def test_n3_equality_case(self):
        assert bounds.half_transfer_bounds(3) == (3, 6)

    def test_n5(self):
        assert bounds.half_transfer_bounds(5) == (Fraction(50, 7), Fraction(100, 7))

    def test_approaches_teleport_from_below(self):
        prev_ratio = Fraction(0)
        for n in range(3, 101, 2):
            ht_e, _ = bounds.half_transfer_bounds(n)
            tel_e, _ = bounds.teleport_resources(n)
            ratio = ht_e / tel_e
            assert ratio < 1
            assert ratio > prev_ratio
            prev_ratio = ratio
        assert prev_ratio > Fraction(999, 1000)

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            bounds.half_transfer_bounds(6)


class TestBoundChain:
    @given(odd_n)
    def test_chain_for_odd_n(self, n):
        cap_e, _ = bounds.distillation_caps(n)
        low_e, _ = bounds.lower_bounds(n)
        ht_e, _ = bounds.half_transfer_bounds(n)
        tel_e, _ = bounds.teleport_resources(n)
        assert cap_e <= low_e <= ht_e <= tel_e
        if n == 3:
            assert cap_e == low_e == ht_e
        else:
            assert cap_e < low_e < ht_e < tel_e

    @given(st.integers(min_value=1, max_value=30).map(lambda k: 2 * k))
    def test_even_lower_equals_teleport(self, n):
        assert bounds.lower_bounds(n) == bounds.teleport_resources(n)


class TestComparisonPredicates:
    def test_n3_both_equalities(self):
        rep = oracles.comparison_predicates(3)
        assert rep.odd_bound_equals_cap
        assert rep.half_transfer_equals_integer
        assert rep.odd_bound_vs_cap == 0 and rep.half_transfer_vs_integer == 0

    def test_n4_strict(self):
        rep = oracles.comparison_predicates(4)
        assert rep.odd_bound_vs_cap == Fraction(24, 5) - 4
        assert not rep.odd_bound_equals_cap

    def test_n12_integer_comm_reaches_teleport(self):
        assert oracles.comparison_predicates(12).integer_comm_equals_teleport

    def test_integer_comm_boundary(self):
        # ceil(conditional communication bound) == teleport figure from n = 11 on
        assert bounds.integer_comm_boundary(15) == 11
        assert not oracles.comparison_predicates(9).integer_comm_equals_teleport
        for n in (11, 13, 15, 21):
            assert oracles.comparison_predicates(n).integer_comm_equals_teleport


class TestIntegerRules:
    """The bounds build each figure as one Fraction and each ceiling by integer
    division; the oracles multiply Fractions and take math.ceil."""

    @pytest.mark.parametrize("n_max", range(3, 65))
    def test_integer_comm_boundary_equals_the_fraction_scan(self, n_max):
        boundary = None
        for n in range(3, n_max + 1, 2):
            if oracles.comparison_predicates(n).integer_comm_equals_teleport:
                boundary = n if boundary is None else boundary
            else:
                boundary = None
        assert bounds.integer_comm_boundary(n_max) == boundary

    @given(st.integers(min_value=1, max_value=500).map(lambda k: 2 * k + 1))
    def test_one_shot_ceilings_are_the_ceilings_of_the_lower_bounds(self, n):
        e, c = bounds.lower_bounds(n)
        assert bounds.integer_one_shot_bounds(n) == (math.ceil(e), math.ceil(c))

    @given(st.integers(min_value=1, max_value=500).map(lambda k: 2 * k + 1))
    def test_single_fractions_equal_the_scaled_products(self, n):
        lower, half = Fraction(n, n + 1), Fraction(n * n, n * n + 3)
        assert bounds.lower_bounds(n) == (2 * lower * (n - 1), 4 * lower * (n - 1))
        assert bounds.half_transfer_bounds(n) == (2 * half * (n - 1), 4 * half * (n - 1))


class TestTeleportationCount:
    @pytest.mark.parametrize("n,count", [(2, 2), (3, 4), (5, 8)])
    def test_formula(self, n, count):
        # one ebit per teleportation: the count is the protocol's ebit total
        assert bounds.teleport_resources(n)[0] == count

    def test_search_matches_formula(self):
        for n in (2, 3, 4):
            assert oracles.min_teleportation_search(n) == bounds.teleport_resources(n)[0]

    def test_search_cap(self):
        with pytest.raises(ValueError):
            oracles.min_teleportation_search(5)


class TestRederivation:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_graph_route_equals_closed_form(self, n):
        assert oracles.rederive_lower_bounds(n) == bounds.lower_bounds(n)

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
    def test_half_transfer_route_through_expendable_pool(self, n):
        # the conditional odd-n bound, rebuilt from the gaining-edge pattern:
        # n! runs must put 2*n! ebits on each swapped pair and n! on each
        # cycle pair; beyond what those edges hold, at most half of the
        # weight on all other edges may move over
        from ebitnet import graphs
        from ebitnet.gates import ps_cp_permutation

        gain = oracles.permutation_gain_edges(ps_cp_permutation(n).mapping, "entanglement")
        unit = oracles.regular_complete(n, 1, "entanglement")
        direct_per_e = Fraction(len(gain))          # gaining edges hold e each
        expendable_per_e = oracles.expendable_resources(unit, gain)
        created = Fraction(math.factorial(n) * n)
        e_min = created / (direct_per_e + expendable_per_e / 2)
        scale = graphs.symmetrised_edge_weight("entanglement", 1, n)
        ht_e, ht_c = bounds.half_transfer_bounds(n)
        assert e_min / scale == ht_e
        assert ht_c == 2 * ht_e


class TestReports:
    def test_report_n3_flags(self):
        rep = bounds.bound_report(3)
        assert rep.optimality_open
        assert rep.half_transfer_conditional
        assert rep.teleport_e == 4 and rep.lower_e == 3
        assert rep.half_transfer_e == 3 and rep.cap_e == 3
        assert rep.integer_one_shot_e == 3

    def test_report_even_has_no_odd_columns(self):
        rep = bounds.bound_report(4)
        assert rep.half_transfer_e is None and rep.integer_one_shot_e is None
        assert not rep.optimality_open

    def test_bound_table_rows(self):
        table = bounds.bound_table(9)
        assert [r.n for r in table] == list(range(2, 10))
        by_n = {r.n: r for r in table}
        assert by_n[4].teleport_e == 6
        assert by_n[9].lower_e == Fraction(72, 5)

    def test_table_rows_shape(self):
        rows = bounds.table_rows(4)
        assert len(rows) == 6  # three n values, two resource kinds
        assert {r["kind"] for r in rows} == {"entanglement", "communication"}
        n4e = [r for r in rows if r["n"] == 4 and r["kind"] == "entanglement"][0]
        assert n4e["teleport"] == 6 and n4e["half_transfer"] is None

    def test_chain_for_all_n_up_to_32(self):
        for rep in bounds.bound_table(32):
            assert rep.cap_e <= rep.lower_e or rep.n == 2
            assert rep.lower_e <= rep.teleport_e
            if rep.parity == "odd":
                assert rep.lower_e <= rep.half_transfer_e <= rep.teleport_e
