import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebitnet import cli, graphs
from ebitnet.graphs import CommunicationGraph, EntanglementGraph, GraphFormatError

import oracles
from oracles import DeltaMatrix, Partition, fraction_matrix, regular_complete

small_fractions = st.fractions(min_value=0, max_value=9, max_denominator=4)


@st.composite
def entanglement_graphs(draw, min_n=2, max_n=5):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    w = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w[i][j] = w[j][i] = draw(small_fractions)
    return EntanglementGraph(n, tuple(tuple(r) for r in w))


@st.composite
def communication_graphs(draw, min_n=2, max_n=5):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    w = [[draw(small_fractions) if i != j else Fraction(0) for j in range(n)] for i in range(n)]
    return CommunicationGraph(n, tuple(tuple(r) for r in w))


def reference_symmetrise(g):
    return oracles.fraction_symmetrise(fraction_matrix(g))


def rational_graphs(n, rng):
    """An entanglement and a communication graph on n vertices with weights p/q,
    0 <= p <= 12 and 1 <= q <= 6."""
    def weight():
        return Fraction(rng.randint(0, 12), rng.randint(1, 6))

    ent = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            ent[i][j] = ent[j][i] = weight()
    comm = [[Fraction(0) if i == j else weight() for j in range(n)] for i in range(n)]
    return EntanglementGraph(n, tuple(map(tuple, ent))), CommunicationGraph(n, tuple(map(tuple, comm)))


def permute_graph(g, perm):
    n = g.n
    w = tuple(tuple(g.nums[perm[i]][perm[j]] for j in range(n)) for i in range(n))
    return type(g)(n, [[(x, g.den) for x in row] for row in w])


@given(st.one_of(entanglement_graphs(max_n=6), communication_graphs(max_n=6)))
@settings(max_examples=60, deadline=None)
def test_graph_book_total_and_closed_form_follow_its_kind(g):
    """Whether a graph is directed decides its book, its total and its closed
    form: the book gives the graph back, the total is the matrix sum (halved when
    undirected), and the closed form is every off-diagonal cell of the explicit sum."""
    assert type(g).from_book(g.n, g.book(), g.den) == g
    matrix_sum = sum((x for row in fraction_matrix(g) for x in row), Fraction(0))
    assert g.total() == (matrix_sum if g.directed else matrix_sum / 2)
    sym = graphs.symmetrise(g)
    assert {sym.weight(a, b) for a, b in itertools.permutations(range(1, g.n + 1), 2)} == {g.symmetrised_weight()}


class TestTotals:
    def test_four_lab_example_entanglement(self):
        ex = graphs.four_lab_example()
        # hand sum of the documented matrix: 3 + 2 + 6 + 1
        assert ex.entanglement.total() == 12

    def test_four_lab_example_communication(self):
        ex = graphs.four_lab_example()
        # hand sum: 1 + 4 + 2 + 9 + 5
        assert ex.communication.total() == 21

    def test_zero_graphs(self):
        z = regular_complete(4, 0)
        assert z.total() == 0
        zc = regular_complete(4, 0, "communication")
        assert zc.total() == 0

    @given(st.integers(min_value=2, max_value=8), small_fractions)
    def test_regular_complete_total(self, n, e):
        g = regular_complete(n, e)
        assert g.total() == e * n * (n - 1) / 2


class TestStarGraphs:
    @pytest.mark.parametrize("n,ents,bits", [(2, 2, 4), (4, 6, 12), (6, 10, 20)])
    def test_totals(self, n, ents, bits):
        ge, gc = graphs.star_graphs(n)
        assert ge.total() == ents
        assert gc.total() == bits

    def test_hub_spokes_weight_two(self):
        ge, gc = graphs.star_graphs(5, hub=3)
        for i in range(1, 6):
            for j in range(1, 6):
                expected = Fraction(2) if (i == 3) != (j == 3) else Fraction(0)
                assert ge.weight(i, j) == expected
                assert gc.weight(i, j) == expected

    def test_star_cross_partition_hub_vs_rest(self):
        ge, _ = graphs.star_graphs(5)
        assert oracles.cross_partition(ge, Partition(5, frozenset({1}))) == 2 * 4


class TestSymmetrise:
    def test_fixture_communication_42(self):
        ex = graphs.four_lab_example()
        sym = graphs.symmetrise(ex.communication)
        assert {sym.weight(a, b) for a, b in sym.pairs()} == {42}
        assert ex.communication.symmetrised_weight() == 42

    def test_fixture_entanglement_48(self):
        # the explicit sum over all 24 vertex permutations; a figure caption
        # elsewhere quotes 24 for this example, which fails this oracle
        ex = graphs.four_lab_example()
        sym = graphs.symmetrise(ex.entanglement)
        assert {sym.weight(a, b) for a, b in itertools.permutations(range(1, 5), 2)} == {48}
        assert ex.entanglement.symmetrised_weight() == 48

    def test_total_scales_by_factorial(self):
        ex = graphs.four_lab_example()
        sym = graphs.symmetrise(ex.entanglement)
        assert sym.total() == math.factorial(4) * 12

    @given(entanglement_graphs())
    @settings(max_examples=40, deadline=None)
    def test_closed_form_matches_brute_force_entanglement(self, g):
        sym = graphs.symmetrise(g)
        w = g.symmetrised_weight()
        assert {sym.weight(a, b) for a, b in itertools.permutations(range(1, g.n + 1), 2)} == {w}
        assert fraction_matrix(sym) == reference_symmetrise(g)

    @given(communication_graphs())
    @settings(max_examples=40, deadline=None)
    def test_closed_form_matches_brute_force_communication(self, g):
        sym = graphs.symmetrise(g)
        w = g.symmetrised_weight()
        assert {sym.weight(a, b) for a, b in itertools.permutations(range(1, g.n + 1), 2)} == {w}
        assert fraction_matrix(sym) == reference_symmetrise(g)

    def test_already_regular_self_consistency(self):
        for n in (2, 3, 4, 5):
            g = regular_complete(n, Fraction(3, 2))
            sym = graphs.symmetrise(g)
            w = g.symmetrised_weight()
            assert fraction_matrix(sym)[0][1] == w == math.factorial(n) * Fraction(3, 2)

    @given(entanglement_graphs(max_n=4))
    @settings(max_examples=20, deadline=None)
    def test_permutation_invariance(self, g):
        sym = graphs.symmetrise(g)
        for perm in itertools.permutations(range(g.n)):
            assert graphs.symmetrise(permute_graph(g, perm)) == sym

    @given(entanglement_graphs(max_n=4))
    @settings(max_examples=15, deadline=None)
    def test_idempotent_up_to_scale(self, g):
        once = graphs.symmetrise(g)
        twice = graphs.symmetrise(once)
        f = math.factorial(g.n)
        assert fraction_matrix(twice) == tuple(tuple(f * x for x in row) for row in fraction_matrix(once))

    def test_n8_rational_graph_matches_reference(self):
        rng = random.Random(8)
        w = [[Fraction(0) if i == j else Fraction(rng.randint(0, 12), rng.randint(1, 6))
              for j in range(8)] for i in range(8)]
        g = CommunicationGraph(8, tuple(map(tuple, w)))
        assert fraction_matrix(graphs.symmetrise(g)) == reference_symmetrise(g)

    def test_sums_past_int64_match_reference(self):
        """Scaled numerators near 2**55 fit int64, but 7! of them do not: the sum
        must run on Python ints (int64 sums wrap silently)."""
        n = 7
        w = [[Fraction(0)] * n for _ in range(n)]
        for k, (i, j) in enumerate(itertools.combinations(range(n), 2)):
            w[i][j] = w[j][i] = Fraction(2**55 + 7919 * k, 3)
        g = EntanglementGraph(n, tuple(map(tuple, w)))
        top = max(map(max, g.nums))
        assert top < 2**63 <= top * math.factorial(n)
        sym = graphs.symmetrise(g)
        assert fraction_matrix(sym) == reference_symmetrise(g)
        assert fraction_matrix(sym)[0][1] == g.symmetrised_weight()

    @pytest.mark.parametrize("n", range(1, graphs.BRUTE_FORCE_MAX + 1))
    def test_permutation_table_holds_every_permutation_once(self, n):
        table = graphs._permutation_table(n)
        assert table.shape == (math.factorial(n), n)
        assert (np.sort(table, axis=1) == np.arange(n)).all()
        assert len(np.unique(table, axis=0)) == math.factorial(n)
        if n <= 7:
            assert {tuple(row) for row in table.tolist()} == set(itertools.permutations(range(n)))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_pair_counts_match_a_count_over_itertools(self, n):
        want = np.zeros((n, n, n, n), np.int64)
        for perm in itertools.permutations(range(n)):
            for i, j in itertools.product(range(n), repeat=2):
                want[i, perm[i], j, perm[j]] += 1
        assert (graphs._pair_counts(graphs._permutation_table(n)) == want).all()

    @pytest.mark.parametrize("n", range(6, graphs.BRUTE_FORCE_MAX + 1))
    def test_pair_counts_of_the_largest_tables(self, n):
        """(n-1)! permutations send i to a, and (n-2)! send i to a and j != i to b != a."""
        counts = graphs._pair_counts(graphs._permutation_table(n))
        i, a, j, b = np.ix_(range(n), range(n), range(n), range(n))
        want = np.where((i == j) & (a == b), math.factorial(n - 1),
                        np.where((i != j) & (a != b), math.factorial(n - 2), 0))
        assert (counts == want).all()

    @pytest.mark.parametrize("n,builds", [(2, 1), (5, 1), (8, 1), (9, 0)])
    def test_one_symmetrise_command_builds_the_pair_counts_at_most_once(self, n, builds, tmp_path,
                                                                         monkeypatch, capsys):
        """Both graphs of a file share one kernel below the cap; at n = 9 only the
        closed form runs.  The written sums are those of each graph on its own."""
        sizes, pair_counts = [], graphs._pair_counts

        def counting(table):
            sizes.append(len(table))
            return pair_counts(table)

        monkeypatch.setattr(graphs, "_pair_counts", counting)
        ent, comm = rational_graphs(n, random.Random(n))
        src = tmp_path / "g.json"
        src.write_text(graphs.export_json(graphs.GraphBundle(n, ent, comm)), encoding="utf-8")
        assert cli.main(["symmetrise", "--input", str(src), "--output", str(tmp_path / "o")]) == 0
        assert "MISMATCH" not in capsys.readouterr().out
        assert sizes == [math.factorial(n)] * builds
        if builds:
            alone = graphs.GraphBundle(n, graphs.symmetrise(ent), graphs.symmetrise(comm))
            assert (tmp_path / "o" / "symmetrised.json").read_text(encoding="utf-8") == graphs.export_json(alone)

    def test_brute_force_cap(self):
        big = regular_complete(9, 1)
        with pytest.raises(ValueError, match="capped"):
            graphs.symmetrise(big)
        # the closed form still answers
        assert big.symmetrised_weight() == 2 * math.factorial(7) * 36

    def test_edge_weight_n2(self):
        assert EntanglementGraph(2, ((0, 5), (5, 0))).symmetrised_weight() == 10
        with pytest.raises(ValueError, match="at least 2 parties"):
            CommunicationGraph(1, ((0,),)).symmetrised_weight()


class TestCrossPartition:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_even_split_formula(self, n):
        e = Fraction(7, 3)
        g = regular_complete(n, e)
        assert oracles.cross_partition(g, Partition.even_odd(n)) == Fraction(n, 2) ** 2 * e

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_odd_split_formula(self, n):
        e = Fraction(4, 5)
        g = regular_complete(n, e)
        assert oracles.cross_partition(g, Partition.even_odd(n)) == Fraction(n * n - 1, 4) * e

    def test_communication_needs_direction(self):
        g = regular_complete(4, 1, "communication")
        p = Partition.even_odd(4)
        with pytest.raises(ValueError, match="direction"):
            oracles.cross_partition(g, p)
        assert oracles.cross_partition(g, p, "a_to_b") == 4
        assert oracles.cross_partition(g, p, "b_to_a") == 4

    @given(entanglement_graphs(min_n=3, max_n=5), st.data())
    @settings(max_examples=25, deadline=None)
    def test_depends_only_on_cut_for_regular(self, g, data):
        del g  # only used to draw a size
        n = 5
        reg = regular_complete(n, Fraction(2))
        size = data.draw(st.integers(min_value=1, max_value=n - 1))
        side = frozenset(data.draw(st.permutations(list(range(1, n + 1))))[:size])
        value = oracles.cross_partition(reg, Partition(n, side))
        assert value == Fraction(2) * size * (n - size)

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            Partition(3, frozenset())
        with pytest.raises(ValueError):
            Partition(3, frozenset({1, 2, 3}))
        with pytest.raises(ValueError):
            Partition(3, frozenset({5}))

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_minimum_edge_weight_meets_creation_exactly(self, n):
        # at the smallest edge weight that lets the n!-fold pairwise swap
        # run, the even/odd cut carries exactly the n!*n ebits it creates
        e_min = Fraction(4 * math.factorial(n), n)
        g = regular_complete(n, e_min)
        assert oracles.cross_partition(g, Partition.even_odd(n)) == math.factorial(n) * n


class TestExpendable:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_pairwise_swap_entanglement(self, n):
        from ebitnet.gates import ps_permutation

        e = Fraction(3)
        g = regular_complete(n, e)
        gain = oracles.permutation_gain_edges(ps_permutation(n).mapping, "entanglement")
        assert oracles.expendable_resources(g, gain) == Fraction(n * n - 2 * n) * e / 2

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_pairwise_swap_communication(self, n):
        from ebitnet.gates import ps_permutation

        c = Fraction(3)
        g = regular_complete(n, c, "communication")
        gain = oracles.permutation_gain_edges(ps_permutation(n).mapping, "communication")
        assert oracles.expendable_resources(g, gain) == Fraction(n * n - 2 * n) * c

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_ps_cp_entanglement(self, n):
        from ebitnet.gates import ps_cp_permutation

        e = Fraction(5, 2)
        g = regular_complete(n, e)
        gain = oracles.permutation_gain_edges(ps_cp_permutation(n).mapping, "entanglement")
        expected = (Fraction(n * n, 2) - n - Fraction(3, 2)) * e
        assert oracles.expendable_resources(g, gain) == expected


class TestHalfTransfer:
    def test_equality_at_minimum_edge_weight(self):
        n = 4
        e_min = Fraction(4 * math.factorial(n), n)
        chk = oracles.half_transfer_check(e_min, n, Fraction(math.factorial(n) * n))
        assert chk.satisfied and chk.slack == 0

    def test_nothing_created_trivially_satisfied(self):
        chk = oracles.half_transfer_check(Fraction(1), 4, 0)
        assert chk.satisfied and chk.slack > 0

    def test_doubled_weight_leaves_slack(self):
        n = 4
        e_min = Fraction(4 * math.factorial(n), n)
        chk = oracles.half_transfer_check(2 * e_min, n, Fraction(math.factorial(n) * n))
        assert chk.satisfied and chk.slack > 0

    def test_overclaiming_fails(self):
        n = 4
        e_min = Fraction(4 * math.factorial(n), n)
        chk = oracles.half_transfer_check(e_min, n, Fraction(math.factorial(n) * n) + 1)
        assert not chk.satisfied and chk.slack < 0

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            oracles.half_transfer_check(Fraction(1), 3, 0)


class TestDeltaBound:
    def test_entanglement_swapping_instance(self):
        # pair (1,3) gains 1 ebit, pairs (1,2) and (2,3) each lose 1
        d = DeltaMatrix(3, ((0, -1, 1), (-1, 0, -1), (1, -1, 0)))
        v = oracles.delta_three_lab_bound(d)
        assert v.row_sums_ok and v.single_gain_ok and v.half_loss_ok
        assert v.half_loss_slack == 0
        assert v.gaining_pair == (1, 3)
        assert v.all_hold

    def test_zero_matrix_trivially_holds(self):
        d = DeltaMatrix(3, ((0, 0, 0), (0, 0, 0), (0, 0, 0)))
        v = oracles.delta_three_lab_bound(d)
        assert v.all_hold and v.half_loss_ok is None

    def test_two_positive_entries_rejected(self):
        d = DeltaMatrix(3, ((0, 1, 1), (1, 0, -4), (1, -4, 0)))
        v = oracles.delta_three_lab_bound(d)
        assert not v.single_gain_ok
        assert not v.all_hold
        # two gains force a positive row sum as well: (b) follows from (a)
        assert not v.row_sums_ok

    def test_excessive_gain_fails_half_loss(self):
        d = DeltaMatrix(3, ((0, 2, -1), (2, 0, -1), (-1, -1, 0)))
        v = oracles.delta_three_lab_bound(d)
        assert v.single_gain_ok
        assert not v.half_loss_ok
        assert v.half_loss_slack == -1
        assert not v.all_hold
        # a gain above half the loss also breaks a row sum: (c) follows from (a)
        assert not v.row_sums_ok

    def test_wrong_dimension(self):
        d = DeltaMatrix(2, ((0, 1), (1, 0)))
        with pytest.raises(ValueError):
            oracles.delta_three_lab_bound(d)


class TestSerialization:
    def test_json_round_trip(self):
        ex = graphs.four_lab_example()
        text = graphs.export_json(ex)
        back = graphs.import_json(text)
        assert back.entanglement == ex.entanglement
        assert back.communication == ex.communication
        assert back.entanglement.total() == 12
        assert graphs.export_json(back) == text

    def test_dot_for_empty_two_vertex_graph(self):
        g = regular_complete(2, 0)
        dot = graphs.export_dot(g)
        assert "1;" in dot and "2;" in dot
        assert "--" not in dot  # no weighted edges

    def test_dot_directed_vs_undirected(self):
        ex = graphs.four_lab_example()
        assert graphs.export_dot(ex.entanglement).startswith("graph")
        assert 'digraph' in graphs.export_dot(ex.communication)
        assert '1 -- 2 [label="3"];' in graphs.export_dot(ex.entanglement)
        assert '2 -> 4 [label="9"];' in graphs.export_dot(ex.communication)

    def test_asymmetric_entanglement_rejected(self):
        doc = '{"n": 2, "entanglement": [["0", "1"], ["2", "0"]]}'
        with pytest.raises(GraphFormatError, match=r"entanglement\[0\]\[1\]"):
            graphs.import_json(doc)

    def test_position_tagged_errors(self):
        with pytest.raises(GraphFormatError, match=r"entanglement\[1\]\[0\]"):
            graphs.import_json('{"n": 2, "entanglement": [["0", "0"], ["x", "0"]]}')
        with pytest.raises(GraphFormatError, match=r"\[1\]: expected 2 entries"):
            graphs.import_json('{"n": 2, "entanglement": [["0", "0"], ["0"]]}')
        with pytest.raises(GraphFormatError, match="invalid JSON"):
            graphs.import_json("{nope")
        with pytest.raises(GraphFormatError, match='"n"'):
            graphs.import_json('{"entanglement": []}')

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphFormatError, match="negative"):
            graphs.import_json('{"n": 2, "entanglement": [["0", "-1"], ["-1", "0"]]}')
        # a cell that is already a Fraction is checked too
        with pytest.raises(GraphFormatError, match=r"\[0\]\[1\]: negative"):
            CommunicationGraph(2, ((Fraction(0), Fraction(-1, 2)), (Fraction(0), Fraction(0))))

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(GraphFormatError, match="diagonal"):
            graphs.import_json('{"n": 2, "communication": [["1", "0"], ["0", "0"]]}')
        with pytest.raises(GraphFormatError, match=r"\[1\]\[1\]: diagonal"):
            EntanglementGraph(2, ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(1, 3))))

    @pytest.mark.parametrize("doc,where", [
        ('{"n": 2, "entanglement": [[0, 1e400], [1e400, 0]]}', r"entanglement\[0\]\[1\]: .*Infinity"),
        ('{"n": 2, "communication": [[0, 0.5], [0, 0]]}', r"communication\[0\]\[1\]: .*0\.5"),
        ('{"n": 2, "communication": [[0, 0], [true, 0]]}', r"communication\[1\]\[0\]: .*true"),
        ('{"n": 2, "communication": [[0, null], [0, 0]]}', r"communication\[0\]\[1\]: .*null"),
        ('{"n": 2, "communication": [[0, 0], "00"]}', r"communication\[1\]: expected a list"),
        ('{"n": 2, "communication": "0000"}', r"communication: expected a list"),
        ('{"n": true, "communication": [[0, 1], [1, 0]]}', r'"n": not an integer: true'),
        ('{"n": "2", "communication": [[0, 1], [1, 0]]}', r'"n": not an integer: "2"'),
        ('{"n": 2.0, "communication": [[0, 1], [1, 0]]}', r'"n": not an integer: 2\.0'),
    ])
    def test_cells_and_n_must_be_json_integers_or_strings(self, doc, where):
        with pytest.raises(GraphFormatError, match=where):
            graphs.import_json(doc)

    @pytest.mark.parametrize("cell,message", [
        ('"1e5000"', r'\[0\]\[1\]: not an integer or "p/q" string of at most 64 characters: "1e5000"$'),
        ("1" + "0" * 4999, r"\[0\]\[1\]: an integer of 5000 digits is longer than 64: 10{19}\.\.\. "
                           r"\(5000 characters\)$"),
        ('"' + "1" * 65 + '"', r'\[0\]\[1\]: not an integer or "p/q" string of at most 64 characters'),
        ('"0.5"', r'\[0\]\[1\]: not an integer or "p/q" string'),
        ('" 1/2"', r'\[0\]\[1\]: not an integer or "p/q" string'),
        ('"1/-2"', r'\[0\]\[1\]: not an integer or "p/q" string'),
    ])
    def test_cells_are_bounded_integer_or_p_q_strings(self, cell, message):
        with pytest.raises(GraphFormatError, match=r"^communication" + message):
            graphs.import_json('{"n": 2, "communication": [[0, %s], [0, 0]]}' % cell)

    def test_cells_of_64_characters_load(self):
        big, ratio = "9" * 64, "1" * 31 + "/" + "3" * 32
        g = graphs.import_json('{"n": 2, "communication": [[0, %s], ["%s", 0]]}' % (big, ratio)).communication
        assert fraction_matrix(g) == ((0, int(big)), (Fraction(ratio), 0))

    @pytest.mark.parametrize("doc,where", [
        ('{"n": 2, "entanglement": [[0, "1e5000"], [1, 0]]}', "entanglement[0][1]: "),
        ('{"n": 2, "entanglement": [[0, 1%s], [1, 0]]}' % ("0" * 4999), "entanglement[0][1]: "),
        ("[" * 100_000 + "]" * 100_000, "top level: JSON nested too deeply"),
    ], ids=["exponent", "5000-digits", "nested-too-deeply"])
    def test_overlong_cells_exit_two_from_symmetrise_and_audit(self, tmp_path, capsys, doc, where):
        # a cell past the length bound, or a file nested past the decoder's recursion limit
        assert cli.main(["simulate", "teleport", "--seed", "7", "--output", str(tmp_path)]) == 0
        src = tmp_path / "g.json"
        src.write_text(doc, encoding="utf-8")
        capsys.readouterr()
        trace = str(tmp_path / "teleport_trace.jsonl")
        for argv in (["symmetrise", "--input", str(src), "--output", str(tmp_path / "o")],
                     ["audit", "--trace", trace, "--graphs", str(src)],
                     ["audit", "--trace", trace, "--graphs", str(src), "--no-replay"]):
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert where in err and len(err) < 200, err

    def test_integer_and_string_cells_mix(self):
        g = graphs.import_json('{"n": 2, "communication": [[0, 3], ["1/2", "0"]]}').communication
        assert fraction_matrix(g) == ((0, 3), (Fraction(1, 2), 0))

    def test_numerators_share_the_lcm_of_the_reduced_denominators(self):
        """"4/2" reduces to 2 and "0/9" to 0 before the lcm is taken: 1/2, 1/3 and 1/2 give 6, not 12 or 36."""
        g = graphs.import_json('{"n": 3, "communication": [["0", "1/2", "4/2"], ["1/3", "0", "0/9"], '
                               '["2/4", "007", "-0"]]}').communication
        assert (g.den, g.nums) == (6, ((0, 3, 12), (2, 0, 0), (3, 42, 0)))
        assert g == CommunicationGraph(3, ((0, Fraction(1, 2), 2), (Fraction(1, 3), 0, 0), (Fraction(1, 2), 7, 0)))
        assert g.total() == Fraction(62, 6)

    def test_cells_are_written_in_lowest_terms(self):
        """A cell held over the common denominator is written reduced: 12/6 as "2", 3/6 as "1/2"."""
        bundle = graphs.import_json('{"n": 2, "communication": [["0", "4/2"], ["3/6", "0"]], '
                                    '"entanglement": [["0", "1/3"], ["2/6", "0"]]}')
        assert json.loads(graphs.export_json(bundle)) == {
            "n": 2, "communication": [["0", "2"], ["1/2", "0"]], "entanglement": [["0", "1/3"], ["1/3", "0"]]}
        assert '1 -> 2 [label="2"]' in graphs.export_dot(bundle.communication)
        assert '2 -> 1 [label="1/2"]' in graphs.export_dot(bundle.communication)
        assert '1 -- 2 [label="1/3"]' in graphs.export_dot(bundle.entanglement)

    @pytest.mark.parametrize("doc,message", [
        ('[["0", "1/2"], ["3/6", "0"]]', None),
        ('[["0", "1/3"], ["1/2", "0"]]', r"^entanglement\[0\]\[1\]: matrix must be symmetric \(1/3 != 1/2\)$"),
        ('[["0", "-2/4"], ["-1/2", "0"]]', r"^entanglement\[0\]\[1\]: negative weight -1/2$"),
        ('[["0", "1/0"], ["1/2", "0"]]', r"^entanglement\[0\]\[1\]: not a rational: '1/0'$"),
        ('[["-0/3", "1"], ["1", "0"]]', None),
        ('[["0/3", "1"], ["1", "1/3"]]', r"^entanglement\[1\]\[1\]: diagonal must be zero$"),
    ], ids=["equal-unreduced", "unequal", "negative", "zero-denominator", "minus-zero", "diagonal"])
    def test_cell_checks_run_on_integers_with_the_fraction_messages(self, doc, message):
        text = '{"n": 2, "entanglement": %s}' % doc
        if message is None:
            want = oracles.read_fraction_graphs(text)[1]["entanglement"]
            assert fraction_matrix(graphs.import_json(text).entanglement) == want
        else:
            with pytest.raises(GraphFormatError, match=message):
                graphs.import_json(text)
            with pytest.raises(GraphFormatError, match=message):
                oracles.read_fraction_graphs(text)

    def test_symmetrise_of_an_overflowing_cell_exits_two(self, tmp_path, capsys):
        src = tmp_path / "g.json"
        src.write_text('{"n": 2, "entanglement": [[0, 1e400], [1e400, 0]]}')
        assert cli.main(["symmetrise", "--input", str(src), "--output", str(tmp_path / "o")]) == 2
        assert "entanglement[0][1]" in capsys.readouterr().err

    def test_infinite_weight_in_memory_rejected(self):
        inf = float("inf")
        with pytest.raises(GraphFormatError, match=r"entanglement\[0\]\[1\]"):
            EntanglementGraph(2, ((0, inf), (inf, 0)))
        with pytest.raises(GraphFormatError, match=r"delta\[0\]\[1\]"):
            DeltaMatrix(2, ((0, inf), (inf, 0)))

    def test_fraction_cells(self):
        doc = '{"n": 2, "entanglement": [["0", "3/2"], ["3/2", "0"]]}'
        g = graphs.import_json(doc).entanglement
        assert g.weight(1, 2) == Fraction(3, 2)
        assert g.total() == Fraction(3, 2)


# denominators whose lcm passes 2**63: (10**12 + 39) * 3**30 is about 2 * 10**26
LARGE_DENOMINATORS = (10**12 + 39, 3**30, 2**61 - 1)


@st.composite
def weight_values(draw, allow_zero=True):
    """A nonnegative p/q, small or with up to 64 digits above a denominator that may be large."""
    num = draw(st.one_of(st.integers(0, 12), st.integers(0, 10**64 - 1)))
    den = draw(st.one_of(st.integers(1, 6), st.sampled_from(LARGE_DENOMINATORS)))
    return Fraction(num if allow_zero or num else 1, den)


@st.composite
def cell_texts(draw, value: Fraction):
    """``value`` as a file may hold it: a JSON integer, or a string with leading zeros,
    a "-" on a zero, or p/q scaled by 2 or 3 ("4/2", "0/9")."""
    p, q = value.numerator, value.denominator
    if q == 1 and draw(st.booleans()):
        return p
    k = draw(st.sampled_from((1, 1, 2, 3)))
    sign = "-" if p == 0 and draw(st.booleans()) else ""
    zeros = "0" * draw(st.integers(0, 2))
    tail = f"/{'0' * draw(st.integers(0, 2))}{q * k}" if q * k != 1 or draw(st.booleans()) else ""
    return f"{sign}{zeros}{p * k}{tail}"


@st.composite
def graph_files(draw):
    """A graph file on n <= 5 parties, its cells drawn as ``cell_texts``; every other
    one gets one cell that may break a check: asymmetric, on the diagonal, negative,
    over 64 characters or "1/0"."""
    n = draw(st.integers(1, 5))
    kinds = draw(st.sets(st.sampled_from(("entanglement", "communication")), min_size=1))
    doc: dict = {"n": n}
    for kind in sorted(kinds):
        values = [[Fraction(0)] * n for _ in range(n)]
        for i, j in itertools.permutations(range(n), 2):
            if kind == "communication" or i < j:
                values[i][j] = draw(weight_values())
                if kind == "entanglement":
                    values[j][i] = values[i][j]
        doc[kind] = [[draw(cell_texts(v)) for v in row] for row in values]
    if draw(st.booleans()):
        kind = draw(st.sampled_from(sorted(kinds)))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        changed = weight_values(allow_zero=False).flatmap(cell_texts)
        doc[kind][i][j] = draw(st.one_of(
            changed, changed,
            weight_values(allow_zero=False).map(lambda v: f"-{v}"),
            st.sampled_from(("1/0", "-0/0", "1" * 65, "7/" + "3" * 62))))
    return json.dumps(doc)


@given(graph_files())
@settings(max_examples=200, deadline=None)
def test_integer_graphs_read_check_sum_and_write_as_the_fraction_reader(text):
    """Every draw reads, checks, totals, symmetrises and writes as the reader that held
    one Fraction per cell, and every refusal carries its message; a written cell past
    the reader's cap is refused, naming its kind, position and length."""
    try:
        n, matrices = oracles.read_fraction_graphs(text)
    except GraphFormatError as exc:
        with pytest.raises(GraphFormatError) as got:
            graphs.import_json(text)
        assert str(got.value) == str(exc)
        return
    bundle = graphs.import_json(text)
    assert bundle.n == n and {g.kind: fraction_matrix(g) for g in bundle.graphs} == matrices
    assert graphs.export_json(bundle) == oracles.fraction_export_json(n, matrices)
    sums = {}
    for g in bundle.graphs:
        w = matrices[g.kind]
        assert g.den == math.lcm(*(x.denominator for row in w for x in row))
        assert g.book() == {(i + 1, j + 1): w[i][j] * g.den for i, j in oracles.fraction_pairs(g.kind, n) if w[i][j]}
        assert graphs.export_dot(g) == oracles.fraction_export_dot(g.kind, w)
        assert g.total() == oracles.fraction_total(g.kind, w)
        if n >= 2:
            assert g.symmetrised_weight() == oracles.fraction_symmetrised_weight(g.kind, w)
        else:
            with pytest.raises(ValueError, match="at least 2 parties"):
                g.symmetrised_weight()
        sums[g.kind] = graphs.symmetrise(g)
        assert fraction_matrix(sums[g.kind]) == oracles.fraction_symmetrise(w)
    summed = graphs.GraphBundle(n, **sums)
    long = [(g.kind, i, j, len(str(x))) for g in summed.graphs for i, row in enumerate(fraction_matrix(g))
            for j, x in enumerate(row) if len(str(x)) > graphs.CELL_MAX_CHARS]
    if not long:
        assert graphs.export_json(summed) == oracles.fraction_export_json(n, {k: fraction_matrix(g) for k, g in sums.items()})
    else:
        kind, i, j, length = long[0]
        with pytest.raises(GraphFormatError, match=rf"^{kind}\[{i}\]\[{j}\]: cannot write a weight of {length} "):
            graphs.export_json(summed)
