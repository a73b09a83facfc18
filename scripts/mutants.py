#!/usr/bin/env python3
"""Check that the tests notice a broken check: one single-line mutant per row.

Usage: python scripts/mutants.py [--quick]

Each row of ``MUTANTS`` names a file, an exact piece of its text, the text
to put in its place, and the tests expected to fail once it is there.  For
each row the script copies the tree (src, tests, fixtures, scripts, pyproject.toml)
into a temporary directory, applies the edit and runs only the named tests.
The mutant is killed when one of them fails, and survives when they all pass.
The named tests are first run once on an unmutated copy; they must pass.

Exit codes: 0 when every mutant is killed, 1 when one survives, 2 when the
table is stale (a piece of old text not found exactly once) or a named test
fails on the unmutated tree.  ``--quick`` runs only the rows marked quick; the
old text of every row is checked either way, so a stale row fails both.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TREE = ("src", "tests", "fixtures", "scripts", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    quick: bool = False


PROTOCOLS = "tests/test_protocols.py::"
AUDIT = "tests/test_audit.py::"
CODEC = "tests/test_trace_codec.py::"
ENGINE = "tests/test_engine.py::"
GRAPHS = "tests/test_graphs.py::"
BOUNDS = "tests/test_bounds.py::"
WRITER = "tests/test_cli.py::TestWriter::"
SERIES = AUDIT + "test_monotone_series_matches_the_per_branch_formula"
AGREE = AUDIT + "test_the_engine_and_the_audit_give_one_value_per_cut"
MUTANTS = (
    Mutant("step refuses only below zero", "src/ebitnet/protocols.py",
           "self.ledger.held(*event.pair) < 1:", "self.ledger.held(*event.pair) < 0:",
           (PROTOCOLS + "TestResourceBook::test_step_refuses_a_consume_without_a_held_ebit",
            PROTOCOLS + "TestTeleport::test_without_ebits_refuses_and_leaves_ledger",
            PROTOCOLS + "TestSuperdense::test_insufficient_ebits"), quick=True),
    Mutant("held-nonnegative one ebit late", "src/ebitnet/audit.py",
           "books.held(*ev.pair) < 0", "books.held(*ev.pair) < -1",
           (AUDIT + "TestAuditViolations::test_overconsumption_flagged",
            AUDIT + "test_forged_trace_report_is_exact")),
    Mutant("supplementary messages charged in full, past their POVM cover", "src/ebitnet/ledger.py",
           "        if self.supplementary:", "        if False:",
           (PROTOCOLS + "TestCollectiveTwoQubit::test_recorded_uniform_povm_supplementary",
            AUDIT + "test_cut_checks_match_brute_force_reference"), quick=True),
    Mutant("supplementary bits beyond the POVM cover go free", "src/ebitnet/ledger.py",
           "if bits or not self.supplementary:", "if not self.supplementary:",
           (AUDIT + "test_supplementary_messages_beyond_the_povm_cover_are_charged",
            AUDIT + "test_cut_checks_match_brute_force_reference"), quick=True),
    Mutant("POVM distribution taken from the record", "src/ebitnet/ledger.py",
           "return ens, {str(r): p for r, p in enumerate(probs) if p > 0.0}",
           "return ens, dict(self.distribution)",
           (AUDIT + "TestAuditViolations::test_tampered_povm_distribution_caught_by_replay",)),
    Mutant("a POVM may discard its targets", "src/ebitnet/ledger.py",
           "if self.povm is not None and self.discard:", "if False:",
           (CODEC + "test_audit_of_malformed_golden_trace_exits_two_with_its_line[replay-povm-discard]",)),
    Mutant("an allocation may name qubits at another party", "src/ebitnet/ledger.py",
           '_check_parties("an allocation", (self.party,), self.qubits)', "pass",
           (CODEC + "test_malformed_event_is_rejected_with_its_line[allocate-off-party]",
            CODEC + "test_audit_of_malformed_golden_trace_exits_two_with_its_line[no-replay-allocate-off-party]")),
    Mutant("a party above n_parties read", "src/ebitnet/ledger.py",
           "if not 1 <= raw <= n_parties:", "if not 1 <= raw:",
           (CODEC + "test_out_of_range_party_is_rejected_with_its_line",)),
    Mutant("an ebit consumption may name qubits off its pair", "src/ebitnet/ledger.py",
           '_check_parties("an ebit consumption", self.pair, self.qubits)', "pass",
           (CODEC + "test_malformed_event_is_rejected_with_its_line[consume-qubits-off-pair]",)),
    Mutant("an oracle may name targets off its parties", "src/ebitnet/ledger.py",
           '_check_parties("an oracle", self.parties, self.targets)', "pass",
           (CODEC + "test_malformed_event_is_rejected_with_its_line[oracle-parties-off-targets]",)),
    Mutant("decoded bits keyed (at, from)", "src/ebitnet/ledger.py",
           "(self.from_party, self.at_party)", "(self.at_party, self.from_party)",
           (PROTOCOLS + "TestResourceBook::test_decoded_bits_are_booked_from_sender_to_receiver",
            AUDIT + "test_forged_trace_report_is_exact")),
    Mutant("dense-coding allowance of 3 bits", "src/ebitnet/audit.py",
           "allowance = 2 * used", "allowance = 3 * used",
           (AUDIT + "test_forged_trace_report_is_exact",
            AUDIT + "test_cut_checks_match_brute_force_reference")),
    Mutant("decodes into the cut counted as out of it", "src/ebitnet/audit.py",
           '("into", into[3:])', '("into", out[3:])',
           (AUDIT + "test_forged_trace_report_is_exact",
            AUDIT + "test_cut_checks_match_brute_force_reference")),
    Mutant("an undirected book drops its reversed terms", "src/ebitnet/audit.py",
           "        if not directed:", "        if False:",
           (AUDIT + "test_cut_sums_match_the_cross_partition_oracle",
            AUDIT + "test_forged_trace_report_is_exact",
            AUDIT + "test_cut_checks_match_brute_force_reference")),
    Mutant("a rescale to a new denominator skips the consumed ebits", "src/ebitnet/ledger.py",
           "(self.ebits_consumed, self.ebits_created, self.bits_sent,", "(self.ebits_created, self.bits_sent,",
           (PROTOCOLS + "TestResourceBook::test_an_amount_over_a_new_denominator_rescales_every_book",
            AUDIT + "test_cut_checks_match_brute_force_reference"), quick=True),
    Mutant("the audit's books start over den 1, not the entanglement graph's", "src/ebitnet/audit.py",
           "ResourceLedger(den=ent.den, granted=ent.book())", "ResourceLedger(granted=ent.book())",
           (AUDIT + "test_cut_checks_match_brute_force_reference",)),
    Mutant("channel capacity reached counts as exceeded", "src/ebitnet/audit.py",
           "bits * comm.den > comm.nums", "bits * comm.den >= comm.nums",
           (AUDIT + "TestAuditCleanRuns::test_star_run_is_clean",)),
    Mutant("registry cap one qubit short at load", "src/ebitnet/ledger.py",
           "len(ids) + len(added) > max_qubits", "len(ids) + len(added) >= max_qubits",
           (CODEC + "test_registry_may_reach_max_qubits_but_not_pass_it",), quick=True),
    Mutant("a cut is spanned by nothing", "src/ebitnet/audit.py",
           "return (part != 0) & (part != masks)", "return part != part",
           (AUDIT + "test_forged_trace_report_is_exact",
            AUDIT + "test_cut_checks_match_brute_force_reference",
            AUDIT + "TestAuditCleanRuns::test_permutation_protocols_clean")),
    Mutant("a one-party oracle spans the cuts around its party", "src/ebitnet/ledger.py",
           "property(lambda self: self.parties)", "property(lambda self: (*self.parties, 0))",
           (AUDIT + "test_one_party_oracle_exempts_no_cut",)),
    Mutant("permutation size not checked at load", "src/ebitnet/ledger.py",
           "if self.permutation.n != len(self.targets):", "if False:",
           (CODEC + "test_malformed_event_is_rejected_with_its_line",)),
    Mutant("trace format /1 still read", "src/ebitnet/ledger.py",
           'if rec.get("format") != TRACE_FORMAT:',
           'if rec.get("format") not in (TRACE_FORMAT, "ebitnet-trace/1"):',
           (CODEC + "test_malformed_header_is_rejected_on_line_1",
            CODEC + "test_audit_of_malformed_trace_exits_two_without_traceback")),
    Mutant("step applies an event without walking its qubit ids", "src/ebitnet/protocols.py",
           "track_ids(set(self.ensemble.registry), event, self.ensemble.max_qubits)", "pass",
           (ENGINE + "TestAllocation::test_capacity_cap",
            ENGINE + "TestRelabel::test_renames_must_give_distinct_ids",
            PROTOCOLS + "TestResourceBook::test_step_that_fails_to_apply_books_nothing"), quick=True),
    Mutant("step walks only the events that name a qubit", "src/ebitnet/protocols.py",
           "if event.named or event.added:", "if event.named:",
           (ENGINE + "TestAllocation::test_capacity_cap",
            ENGINE + "TestAllocation::test_duplicate_label_rejected")),
    Mutant("the walk lets an event name a qubit twice", "src/ebitnet/ledger.py",
           "if len(set(named)) != len(named):", "if False:",
           (AUDIT + "TestReplay::test_a_gate_whose_targets_repeat_is_refused_before_it_applies",
            AUDIT + "TestReplay::test_an_oracle_whose_targets_repeat_is_refused_by_the_walk_alone")),
    Mutant("an oracle names the keys of its renames, where a repeated target collapses",
           "src/ebitnet/ledger.py",
           "named = removed = added = property(lambda self: self.targets)", "pass",
           (AUDIT + "TestReplay::test_an_oracle_whose_targets_repeat_is_refused_by_the_walk_alone",)),
    Mutant("unitarity tolerance 100x looser", "src/ebitnet/engine.py",
           "if not err <= UNITARY_TOL:", "if not err <= 100 * UNITARY_TOL:",
           (ENGINE + "TestGates::test_unitarity_tolerance",)),
    Mutant("NaN unitarity deviation passes", "src/ebitnet/engine.py",
           "if not err <= UNITARY_TOL:", "if err > UNITARY_TOL:",
           (ENGINE + "TestGates::test_nan_and_inf_entries_rejected",)),
    Mutant("probability-sum tolerance 1000x looser", "src/ebitnet/engine.py",
           "NORM_TOL = 1e-12", "NORM_TOL = 1e-9",
           (ENGINE + "TestBlockKernelAgainstMasks::test_probability_sum_tolerance",)),
    Mutant("entropy eigenvalue cutoff 1000x higher", "src/ebitnet/engine.py",
           "EIG_TOL = 1e-12", "EIG_TOL = 1e-9",
           (ENGINE + "TestEntropy::test_eigenvalue_cutoff",)),
    Mutant("branch-norm tolerance 1000x looser", "src/ebitnet/engine.py",
           "if not abs(norm - 1.0) <= 1e-9:  # negated so that a NaN norm fails",
           "if not abs(norm - 1.0) <= 1e-6:  # negated so that a NaN norm fails",
           (ENGINE + "TestBlockKernelAgainstMasks::test_branch_norm_tolerance",)),
    Mutant("measurement index not checked", "src/ebitnet/audit.py",
           "if isinstance(ev, LocalMeasure) and ev.index != ens.measurement_count:", "if False:",
           (AUDIT + "TestAuditViolations::test_tampered_measurement_index_caught_by_replay",)),
    Mutant("replay distribution tolerance 1000x looser", "src/ebitnet/audit.py",
           "abs(recorded[k] - dist[k]) <= 1e-9", "abs(recorded[k] - dist[k]) <= 1e-6",
           (AUDIT + "test_replay_distribution_tolerance",)),
    Mutant("monotone tolerance 1000x looser", "src/ebitnet/audit.py",
           "ENTROPY_TOL = 1e-9", "ENTROPY_TOL = 1e-6",
           (AUDIT + "test_monotone_tolerance",)),
    Mutant("held ebits not dropped on a consume", "src/ebitnet/audit.py",
           "held - den * _spanned(", "held - 0 * den * _spanned(",
           (AUDIT + "TestAuditCleanRuns::test_star_run_is_clean",
            AUDIT + "test_cross_party_relabel_report_is_exact")),
    Mutant("message bits coerced from any JSON value", "src/ebitnet/ledger.py",
           "    if type(raw) is not str:", "    if (raw := str(raw)) is None:",
           (CODEC + "test_malformed_event_is_rejected_with_its_line",)),
    Mutant("the audit's cut sums run in int64 past its range", "src/ebitnet/audit.py",
           "2**63", "2**200",
           (AUDIT + "test_cut_checks_past_int64_match_brute_force_reference",
            AUDIT + "test_cut_arrays_match_the_scalar_references")),
    Mutant("symmetrise sums in int64 past its range", "src/ebitnet/graphs.py",
           "2**63", "2**200",
           (GRAPHS + "TestSymmetrise::test_sums_past_int64_match_reference",), quick=True),
    Mutant("the permutation table misses the last insert position", "src/ebitnet/graphs.py",
           "for pos in range(k + 1):", "for pos in range(k):",
           (GRAPHS + "TestSymmetrise::test_permutation_table_holds_every_permutation_once",
            GRAPHS + "TestSymmetrise::test_n8_rational_graph_matches_reference"), quick=True),
    Mutant("the pair counts drop the last permutation of the table", "src/ebitnet/graphs.py",
           "np.eye(n, dtype=np.float32)[table]", "np.eye(n, dtype=np.float32)[table[:-1]]",
           (GRAPHS + "TestSymmetrise::test_pair_counts_of_the_largest_tables",
            GRAPHS + "TestSymmetrise::test_n8_rational_graph_matches_reference")),
    Mutant("symmetrise builds the pair counts once per graph", "src/ebitnet/cli.py",
           "counts = graphs.pair_counts(n) if n <= graphs.BRUTE_FORCE_MAX else None", "counts = None",
           (GRAPHS + "TestSymmetrise::test_one_symmetrise_command_builds_the_pair_counts_at_most_once",)),
    Mutant("an undirected graph from a book fills one triangle", "src/ebitnet/graphs.py",
           "            if not cls.directed:", "            if False:",
           (GRAPHS + "test_graph_book_total_and_closed_form_follow_its_kind",)),
    Mutant("the closed form doubles a directed graph", "src/ebitnet/graphs.py",
           "(1 if self.directed else 2) * math.factorial", "2 * math.factorial",
           (GRAPHS + "test_graph_book_total_and_closed_form_follow_its_kind",
            GRAPHS + "TestSymmetrise::test_fixture_communication_42")),
    # a graph's cells as integer numerators over the lcm of their reduced denominators
    Mutant("a negative numerator is accepted", "src/ebitnet/graphs.py",
           "or min(flat, default=0) < 0):", "or False):",
           (GRAPHS + "TestSerialization::test_negative_weight_rejected",
            GRAPHS + "TestSerialization::test_cell_checks_run_on_integers_with_the_fraction_messages[negative]")),
    Mutant("an undirected graph skips its symmetry check", "src/ebitnet/graphs.py",
           "if not self.directed and nums != tuple(zip(*nums)):", "if False:",
           (GRAPHS + "TestSerialization::test_asymmetric_entanglement_rejected",
            GRAPHS + "TestSerialization::test_cell_checks_run_on_integers_with_the_fraction_messages[unequal]")),
    Mutant("a cell is written without its gcd reduction", "src/ebitnet/graphs.py",
           "g = math.gcd(num, den)", "g = 1",
           (GRAPHS + "TestSerialization::test_cells_are_written_in_lowest_terms",)),
    # the reader's lcm needs no row: over any common multiple, the graph's one gcd gives the same lcm
    Mutant("a graph keeps the denominator it is given, not the lcm of its reduced weights'", "src/ebitnet/graphs.py",
           "g = math.gcd(den, *flat)", "g = 1",
           (GRAPHS + "TestSerialization::test_a_graph_holds_its_numerators_in_lowest_terms",
            GRAPHS + "TestSymmetrise::test_one_symmetrise_command_builds_the_pair_counts_at_most_once")),
    Mutant("a graph takes numerators of any type", "src/ebitnet/graphs.py",
           "{*map(type, flat)} - {int}", "set()",
           (GRAPHS + "TestSerialization::test_a_graph_takes_only_int_numerators",)),
    Mutant("a graph file's zero denominator is read", "src/ebitnet/graphs.py",
           "if any(d == 0 for _, d in texts.values()):", "if False:",
           (GRAPHS + "TestSerialization::test_cell_checks_run_on_integers_with_the_fraction_messages[zero-denominator]",
            GRAPHS + "TestSerialization::test_a_repeated_bad_cell_is_refused_at_its_first_position[zero-denominator]")),
    Mutant("an undirected total is not halved", "src/ebitnet/graphs.py",
           "self.den if self.directed else 2 * self.den", "self.den",
           (GRAPHS + "TestTotals::test_four_lab_example_entanglement",
            GRAPHS + "TestSerialization::test_fraction_cells")),
    Mutant("a graph file's cell may pass the length cap", "src/ebitnet/graphs.py",
           "len(text) <= CELL_MAX_CHARS and _CELL.fullmatch(text)", "_CELL.fullmatch(text)",
           (GRAPHS + "TestSerialization::test_cells_are_bounded_integer_or_p_q_strings",)),
    Mutant("a cell past the reader's cap is written", "src/ebitnet/graphs.py",
           "if max(map(len, itertools.chain(*cells)), default=0) > CELL_MAX_CHARS:", "if False:",
           ("tests/test_cli.py::TestSymmetrise::"
            "test_a_sum_whose_cells_the_reader_would_refuse_exits_two_before_it_is_written",)),
    # the read layers: each distinct graph cell is read once, and trace amounts and lines by one rule each
    Mutant("amounts read by Fraction(str) again", "src/ebitnet/ledger.py",
           "ratio = cell_ratio(raw)", "ratio = Fraction(raw).as_integer_ratio()",
           (CODEC + "test_message_bits_follow_the_graph_cell_grammar",)),
    Mutant("a repeat of a cell's first 64 characters skips the length and regex checks", "src/ebitnet/graphs.py",
           "texts.get(cell)", "texts.get(cell[:CELL_MAX_CHARS])",
           (GRAPHS + "TestSerialization::test_a_repeated_bad_cell_is_refused_at_its_first_position",)),
    Mutant("a trace line decoded without the byte-order mark case", "src/ebitnet/ledger.py",
           "            if ln.startswith(_BOM):", "            if False:",
           (CODEC + "test_a_line_is_refused_as_json_loads_refuses_it",)),
    Mutant("integer ceilings round down", "src/ebitnet/bounds.py",
           "integer_one_shot=(-(-low // den) * den, -(-2 * low // den) * den)",
           "integer_one_shot=(low // den * den, 2 * low // den * den)",
           (BOUNDS + "TestIntegerRules::test_one_shot_ceilings_are_the_ceilings_of_the_lower_bounds",
            BOUNDS + "TestIntegerRules::test_report_numerators_over_den_equal_the_fraction_figures"), quick=True),
    Mutant("the boundary scan rounds the conditional bits down", "src/ebitnet/bounds.py",
           'if -(-rep.figures["half_transfer"][1] // rep.den) * rep.den',
           'if (rep.figures["half_transfer"][1] // rep.den) * rep.den',
           (BOUNDS + "TestIntegerRules::test_integer_comm_boundary_equals_the_fraction_scan",)),
    Mutant("the CSV bits row prints the ebit figure", "src/ebitnet/bounds.py",
           "_text(pair[i], rep.den)", "_text(pair[0], rep.den)",
           (BOUNDS + "TestReports::test_tables_read_back_to_the_report_figures",
            BOUNDS + "TestIntegerRules::test_tables_equal_the_fraction_oracle_byte_for_byte")),
    Mutant("half_transfer_conditional is true at even n", "src/ebitnet/bounds.py",
           "property(lambda self: self.n % 2 == 1)", "property(lambda self: True)",
           (BOUNDS + "TestReports::test_tables_read_back_to_the_report_figures",
            BOUNDS + "TestReports::test_report_even_has_no_odd_columns")),
    Mutant("the half-transfer bits are the ebit figure", "src/ebitnet/bounds.py",
           "half_transfer=(half, 2 * half)", "half_transfer=(half, half)",
           (BOUNDS + "TestIntegerRules::test_single_fractions_equal_the_scaled_products",
            BOUNDS + "TestIntegerRules::test_report_numerators_over_den_equal_the_fraction_figures")),
    # the report's checks, each on integer numerators over the report's den
    Mutant("the lower bound may exceed the teleportation figure", "src/ebitnet/bounds.py",
           "        if le > te or lc > tc:", "        if False:",
           (BOUNDS + "TestReports::test_report_refuses_a_lower_bound_over_teleportation_or_a_negative_figure",)),
    Mutant("the cap may reach the lower bound at n >= 4", "src/ebitnet/bounds.py",
           "if cap > low or cap == low and self.n >= 4:", "if cap > low:",
           (BOUNDS + "TestReports::test_report_refuses_a_cap_not_below_the_lower_bound",)),
    Mutant("the cap may exceed the lower bound", "src/ebitnet/bounds.py",
           "if cap > low or cap == low and self.n >= 4:", "if cap == low and self.n >= 4:",
           (BOUNDS + "TestReports::test_report_refuses_a_cap_not_below_the_lower_bound",)),
    Mutant("a negative figure passes the report", "src/ebitnet/bounds.py",
           "        if any(v < 0 for v in (te, tc, le, lc, cape, capc)):", "        if False:",
           (BOUNDS + "TestReports::test_report_refuses_a_lower_bound_over_teleportation_or_a_negative_figure",)),
    Mutant("a dense state's norms read from its factors, so a branch over no qubits has none",
           "src/ebitnet/engine.py",
           "            for vec in vectors:", "            for vec in (f for b in ens.branches for f in b.factors):",
           (CODEC + "test_a_branch_over_no_qubits_needs_an_amplitude_of_modulus_one",
            ENGINE + "test_from_vectors_refuses_what_a_trace_header_refuses[zero-qubit-norm-drift]")),
    Mutant("an allocation's init string is not checked at load", "src/ebitnet/ledger.py",
           'if not self.qubits or len(self.init) != len(self.qubits) or set(self.init) - {"0", "1"}:',
           "if not self.qubits:",
           (CODEC + "test_malformed_event_is_rejected_with_its_line[init-22]",
            CODEC + "test_malformed_event_is_rejected_with_its_line[init-too-short]")),
    Mutant("a header-only trace's parties held to the default cap, not the one in force", "src/ebitnet/cli.py",
           "cap = cap if trace.initial is None else trace.initial.max_qubits",
           "cap = engine.DEFAULT_MAX_QUBITS if trace.initial is None else trace.initial.max_qubits",
           (AUDIT + "TestAuditViolations::test_more_parties_than_the_registry_cap_exit_two"
                    "[no-replay-13-parties-cap-12-in-force]",)),
    Mutant("a dense state may weigh a branch negatively", "src/ebitnet/engine.py",
           "if not all(p >= 0 for p in probabilities):", "if False:",
           (CODEC + "test_malformed_header_is_rejected_on_line_1[negative-p]",
            ENGINE + "test_from_vectors_refuses_what_a_trace_header_refuses[negative-p]")),
    Mutant("a local gate is built without its unitarity check", "src/ebitnet/ledger.py",
           "engine.check_unitary(self.matrices, len(self.targets))", "pass",
           (PROTOCOLS + "TestResourceBook::test_step_refuses_a_non_unitary_gate",
            CODEC + "test_malformed_event_is_rejected_with_its_line",
            CODEC + "test_first_non_unitary_gate_is_reported_across_matrix_sizes",
            CODEC + "test_first_non_unitary_case_of_a_conditional_gate_is_reported",
            CODEC + "test_gate_local_gate_and_trace_load_give_one_shape_refusal",
            AUDIT + "test_unitarity_is_checked_once_per_path")),
    Mutant("the stacked unitarity check covers only a gate event's first matrix", "src/ebitnet/engine.py",
           "np.matmul(stack.conj().swapaxes(1, 2), stack)", "np.matmul(stack[:1].conj().swapaxes(1, 2), stack[:1])",
           (CODEC + "test_first_non_unitary_case_of_a_conditional_gate_is_reported",)),
    Mutant("a gate matrix of the wrong size passes", "src/ebitnet/engine.py",
           "if mat.shape != (dim, dim):", "if False:",
           (CODEC + "test_gate_local_gate_and_trace_load_give_one_shape_refusal",)),
    # the one locality rule: each event's nonlocal_detail, which step refuses and the audit reports
    Mutant("a gate or measurement declared local answers local wherever its targets are", "src/ebitnet/ledger.py",
           'return f"event declared local to party {self.party} targets {strangers}" if strangers else None',
           "return None",
           (PROTOCOLS + "TestResourceBook::test_step_refuses_a_nonlocal_event",
            AUDIT + "test_forged_trace_report_is_exact[nonlocal-gate]",
            AUDIT + "test_forged_trace_report_is_exact[mixed]"), quick=True),
    Mutant("a relabel across parties answers local", "src/ebitnet/ledger.py",
           "if self.old.party != self.new.party:", "if False:",
           (PROTOCOLS + "TestResourceBook::test_step_refuses_a_nonlocal_event[relabel]",
            AUDIT + "test_forged_trace_report_is_exact[cross-party-relabel]",
            AUDIT + "test_cross_party_relabel_report_is_exact")),
    Mutant("step applies an event that is not local", "src/ebitnet/protocols.py",
           "if event.nonlocal_detail is not None:", "if False:",
           (PROTOCOLS + "TestResourceBook::test_step_refuses_a_nonlocal_event",)),
    Mutant("decode base64 without the length check", "src/ebitnet/ledger.py",
           "if len(data) != nbytes:", "if False:",
           (CODEC + "test_malformed_base64_array_is_rejected_with_its_line",)),
    Mutant("base64 pad bits not checked", "src/ebitnet/ledger.py",
           " or rest and text[rest - 4] not in _ZERO_PAD_DIGITS[rest]:", ":",
           (CODEC + "test_the_pad_bit_check_agrees_with_re_encoding",
            CODEC + "test_malformed_base64_array_is_rejected_with_its_line[c128-non-canonical]")),
    Mutant("write every dense array as base64", "src/ebitnet/ledger.py",
           "if arr.size >= BASE64_MIN_ENTRIES:", "if True:",
           (CODEC + "test_a_pauli_gate_record_is_written_as_in_format_3",
            CODEC + "test_golden_trace_round_trips_byte_for_byte")),
    Mutant("coalesce tolerance 1000x looser", "src/ebitnet/engine.py",
           "COALESCE_TOL = 1e-10", "COALESCE_TOL = 1e-7",
           (ENGINE + "TestCoalesce::test_tolerance",)),
    Mutant("coalesce tolerance grows with the amplitudes", "src/ebitnet/engine.py",
           "(np.abs(x - y) <= COALESCE_TOL)", "(np.abs(x - y) <= COALESCE_TOL + 1e-5 * np.abs(y))",
           (ENGINE + "TestCoalesce::test_tolerance[rotated-1e-06-False]",)),
    Mutant("NaN POVM element passes the Hermitian check", "src/ebitnet/engine.py",
           "if not np.max(np.abs(e - e.conj().T)) <= POVM_TOL:", "if np.max(np.abs(e - e.conj().T)) > POVM_TOL:",
           (ENGINE + "TestPovm::test_nan_and_inf_elements_rejected",)),
    Mutant("NaN POVM probability sum passes", "src/ebitnet/engine.py",
           "if not abs(total - 1.0) <= 1e-10:", "if abs(total - 1.0) > 1e-10:",
           (ENGINE + "TestPovm::test_nan_probability_sum_rejected",)),
    Mutant("POVM cover counted from the record, not the elements", "src/ebitnet/ledger.py",
           "(len(self.povm.elements) - 1).bit_length()", "(len(self.distribution) - 1).bit_length()",
           (AUDIT + "test_povm_cover_is_capped_by_its_element_count",)),
    Mutant("a record may hold a key its kind does not have", "src/ebitnet/ledger.py",
           '_refuse_keys(rec, _RECORD_KEYS[cls], f"a {kind} record")', "pass",
           (CODEC + "test_a_record_refuses_a_key_its_kind_does_not_have[misspelt-message]",
            CODEC + "test_a_record_refuses_a_key_its_kind_does_not_have[gate-extra]")),
    Mutant("a local gate may have no targets", "src/ebitnet/ledger.py",
           'raise ValueError("a local gate needs at least one target")', "pass",
           (CODEC + "test_malformed_event_is_rejected_with_its_line[gate-no-targets]",
            CODEC + "test_malformed_event_is_rejected_with_its_line[case-no-targets]")),
    Mutant("a Bell record may name 3 targets", "src/ebitnet/ledger.py",
           'if self.basis == "bell" and len(self.targets) != 2:', "if False:",
           (CODEC + "test_audit_of_malformed_golden_trace_exits_two_with_its_line[no-replay-bell-on-three]",)),
    Mutant("a missing required key reaches the event's constructor", "src/ebitnet/ledger.py",
           "        elif required:", "        elif False:",
           (CODEC + "test_a_record_without_a_required_key_is_refused_by_its_json_name",)),
    Mutant("a header without a registry may hold a cap and branches", "src/ebitnet/ledger.py",
           '_refuse_keys(rec, _BARE_HEADER_KEYS, "a header record without a registry")', "pass",
           (CODEC + "test_malformed_header_is_rejected_on_line_1[max_qubits-without-registry]",
            CODEC + "test_a_record_refuses_a_key_its_kind_does_not_have[bare-header-branches]")),
    Mutant("a POVM element's shape is read before it is checked", "src/ebitnet/engine.py",
           "if len(shape) != 2 or shape[0] != shape[1] or not shape[0]:", "if False:",
           (CODEC + "test_a_key_dropped_or_replaced_raises_only_a_trace_line_value_error",
            CODEC + "test_a_povm_element_that_is_not_a_square_matrix_is_refused_by_its_shape")),
    # the registry walk of ledger.track_ids at load, and the qubit ids each event names, removes and adds
    Mutant("an unknown qubit passes the load walk", "src/ebitnet/ledger.py",
           "if q not in ids:", "if False:",
           (CODEC + "test_malformed_event_is_rejected_with_its_line[relabel-unknown-qubit]",
            CODEC + "test_audit_of_malformed_trace_exits_two_without_traceback[no-replay-relabel-nowhere]")),
    Mutant("a reused qubit id passes the load walk", "src/ebitnet/ledger.py",
           "if q in ids:", "if False:",
           (CODEC + "test_malformed_event_is_rejected_with_its_line[allocate-existing-qubit]",
            CODEC + "test_audit_of_malformed_trace_exits_two_without_traceback[no-replay-allocate-existing]")),
    Mutant("a rename adds its old ids, not its new ones", "src/ebitnet/ledger.py",
           "tuple(self.renames.values())", "tuple(self.renames)",
           (AUDIT + "test_the_load_walk_of_qubit_ids_follows_the_replayed_registry",)),
    Mutant("a measurement removes its targets whether or not it discards them", "src/ebitnet/ledger.py",
           "self.targets if self.discard else ()", "self.targets",
           (AUDIT + "test_the_load_walk_of_qubit_ids_follows_the_replayed_registry",)),
    # the product groups each engine operation builds with its factors, one row per operation; the
    # replay reads the groups from the ensemble, so its cuts are valued on groups that miss the factors
    Mutant("a gate joins no groups", "src/ebitnet/engine.py",
           "groups = (*(ensemble.groups[i] for i in apart), tuple([q for i in hit for q in ensemble.groups[i]]))",
           "groups = ensemble.groups",
           (SERIES + "[perm-entangle]", SERIES + "[swap-entangle]")),
    Mutant("a Bell measurement skips its basis change", "src/ebitnet/engine.py",
           "_measure(ensemble, pair, discard, _BELL_BASIS_CHANGE)", "_measure(ensemble, pair, discard, None)",
           (SERIES + "[star-op]", AUDIT + "TestAuditCleanRuns::test_star_run_is_clean")),
    Mutant("discarded qubits stay in their group", "src/ebitnet/engine.py",
           "left = tuple([q for q in joined[-1] if q not in gone])", "left = joined[-1]",
           (SERIES + "[star-op]",
            AUDIT + "test_monotone_values_every_cut_at_every_step_and_solves_only_after_state_changes")),
    Mutant("a consumed pair split into two groups", "src/ebitnet/engine.py",
           "(*ensemble.groups, *new_groups)", "(*ensemble.groups, *[(q,) for group in new_groups for q in group])",
           (SERIES + "[teleport]", SERIES + "[perm-comm]")),
    Mutant("relabels, relocations and oracles rename no group member", "src/ebitnet/engine.py",
           "groups = tuple([tuple(map(renames.get, group, group)) for group in ensemble.groups])",
           "groups = ensemble.groups",
           (SERIES + "[perm-comm]", AUDIT + "test_cross_party_relabel_report_is_exact")),
    # the split entropies the replay carries from step to step (audit._carry), and the batched solve behind them
    Mutant("keep a measured group's splits that do not straddle its targets", "src/ebitnet/audit.py",
           "elif isinstance(ev, LocalGate) and key.issuperset(named):",
           "elif isinstance(ev, (LocalGate, LocalMeasure)) and key.issuperset(named):",
           (AUDIT + "test_a_measurement_within_a_group_solves_its_splits_again",
            SERIES + "[star-op]"), quick=True),
    Mutant("keep a split that a gate straddles", "src/ebitnet/audit.py",
           "if split & targets in (0, targets)}", "if True}",
           (AUDIT + "test_a_gate_with_a_target_at_another_party_is_solved_again",
            AUDIT + "test_replay_solves_and_eigensolver_calls_are_pinned")),
    Mutant("keep the groups a gate joins", "src/ebitnet/audit.py",
           "if key.isdisjoint(named):",
           "if key.isdisjoint(named) or isinstance(ev, LocalGate) and not key.issuperset(named):",
           (AUDIT + "test_a_gate_that_joins_groups_is_solved_again",)),
    Mutant("a touched pair half treated as fresh", "src/ebitnet/audit.py",
           "if q in fresh:", "if False:",
           (AUDIT + "test_only_a_bell_discard_with_a_fresh_half_is_a_teleport",)),
    Mutant("a teleport rename on a Bell measurement without discard", "src/ebitnet/audit.py",
           'ev.basis == "bell" and ev.discard:', 'ev.basis == "bell":',
           (AUDIT + "test_only_a_bell_discard_with_a_fresh_half_is_a_teleport",)),
    Mutant("a renamed entry keeps its stale cut vector", "src/ebitnet/audit.py",
           "carried[frozenset(slots)] = slots, entropies, None", "carried[frozenset(slots)] = slots, entropies, vector",
           (AUDIT + "test_carried_cut_vectors_equal_fresh_ones_bit_for_bit",
            AUDIT + "test_a_relocation_across_parties_solves_its_group_again")),
    Mutant("a filtered entry keeps its cut vector", "src/ebitnet/audit.py",
           "vector if len(kept) == len(entropies) else None", "vector",
           (AUDIT + "test_carried_cut_vectors_equal_fresh_ones_bit_for_bit",
            AUDIT + "test_a_gate_with_a_target_at_another_party_is_solved_again")),
    Mutant("a rename not applied to the slots", "src/ebitnet/audit.py",
           "slots = tuple(map(renames.get, slots, slots))", "pass",
           (AUDIT + "test_only_a_bell_discard_with_a_fresh_half_is_a_teleport",
            AUDIT + "test_replay_solves_and_eigensolver_calls_are_pinned")),
    # the factored engine: a gate or a measurement in the kron of its targets' factors, the other
    # factors shared, and coalesce comparing factor by factor
    Mutant("a join across two factors gathers the first factor only", "src/ebitnet/engine.py",
           "_kron([b.factors[i] for i in hit])", "_kron([b.factors[i] for i in hit[:1]])",
           (ENGINE + "TestFactoredAgainstDense::test_random_traces",
            ENGINE + "TestEntropy::test_two_cross_pairs_two_ebits")),
    Mutant("joined factors kron'd with the first factor on the high bits", "src/ebitnet/engine.py",
           "np.multiply.outer(f, vec)", "np.multiply.outer(vec, f)",
           (ENGINE + "TestFactoredAgainstDense::test_random_traces",
            ENGINE + "TestFactoredAgainstDense::test_protocol_runs")),
    Mutant("a gate copies the factors it does not touch", "src/ebitnet/engine.py",
           "(*(b.factors[i] for i in apart), factor)", "(*(b.factors[i].copy() for i in apart), factor)",
           (ENGINE + "TestFactoredAgainstDense::test_protocol_runs",)),
    Mutant("coalesce compares only the first factor", "src/ebitnet/engine.py",
           "zip(canon_k, canon)", "zip(canon_k[:1], canon[:1])",
           (ENGINE + "TestCoalesce::test_branches_that_differ_in_a_later_factor_stay_apart",
            ENGINE + "TestFactoredAgainstDense::test_random_traces")),
    Mutant("batched results land in the wrong split", "src/ebitnet/engine.py",
           "zip(chunk, per_branch)", "zip(chunk[::-1], per_branch)",
           (ENGINE + "TestEntropy::test_batched_entropies_land_on_their_subsets",)),
    # one side rule and one sum order: a party cut has one value in the engine and the audit
    Mutant("a half split is solved on the side the caller gives", "src/ebitnet/engine.py",
           "key=lambda m: (m.bit_count(), m))", "key=lambda m: (m.bit_count(), m != mask))",
           (AGREE,)),
    Mutant("a party cut adds its groups' terms in reverse order", "src/ebitnet/engine.py",
           "for term in split_entropies(ensemble, splits):", "for term in split_entropies(ensemble, splits)[::-1]:",
           (AGREE,)),
    # branches are values that ensembles share: no operation writes into its input
    Mutant("a measurement writes its outcome into the record it shares with its input", "src/ebitnet/engine.py",
           "record = dict(b.record)", "record = b.record",
           (ENGINE + "TestFactoredAgainstDense::test_operations_leave_their_input_unchanged",)),
    Mutant("a reduced density orders its subset by registry position", "src/ebitnet/engine.py",
           "_join(ensemble, subset)",
           "_join(ensemble, sorted(subset, key=ensemble.registry.index))",
           (PROTOCOLS + "TestCollectiveStar::test_povm_bits_follow_the_target_order_at_every_hub",)),
    # the one measurement kernel: an outcome is one row of the joined factor's block
    Mutant("a kept outcome is put back from the wrong row", "src/ebitnet/engine.py",
           "block[code] = state", "block[code ^ 1] = state",
           (ENGINE + "TestBlockKernelAgainstMasks::test_measurement_matches_mask_reference",)),
    # the one layout: a gate is the product with the _block of its reversed targets
    Mutant("a gate blocks its targets unreversed", "src/ebitnet/engine.py",
           "_block(vec, positions[::-1], k)", "_block(vec, positions, k)",
           (ENGINE + "TestApplyMatrix::test_equals_tensordot_and_moveaxis_bit_for_bit",)),
    Mutant("a Bell measurement without discard skips the basis change back", "src/ebitnet/engine.py",
           "state = _apply_matrix(state, positions, basis_change.conj().T, size)", "pass",
           (ENGINE + "TestBellTools::test_bell_measure_without_discard_collapses",
            ENGINE + "TestMeasurementJoins::test_bell_measure_equals_the_composed_measurement_bit_for_bit")),
    # the one output writer rewrites a file in place: cut at the end of the new bytes, opened with mode 0o666
    Mutant("an output file is rewritten without being cut", "src/ebitnet/cli.py",
           "os.ftruncate(fd, written)", "pass",
           (WRITER + "test_a_shorter_table_over_a_longer_file_leaves_no_stale_tail",
            WRITER + "test_a_write_that_fails_part_way_leaves_a_prefix_of_the_new_bytes")),
    Mutant("a new output file is opened with os.open's default mode", "src/ebitnet/cli.py",
           "os.O_WRONLY | os.O_CREAT, 0o666)", "os.O_WRONLY | os.O_CREAT)",
           (WRITER + "test_a_rewrite_keeps_the_inode_and_mode_and_a_new_file_gets_0o666_under_the_umask",)),
    Mutant("a device output is cut too", "src/ebitnet/cli.py",
           "if stat.S_ISREG(os.fstat(fd).st_mode):", "if True:",
           (WRITER + "test_a_device_is_written_without_being_cut",)),
    # a change to written bytes alone, which the committed output manifest sees
    Mutant("the audit report is printed with an indent of 1", "src/ebitnet/cli.py",
           "json.dumps(dataclasses.asdict(report), sort_keys=True, indent=2)",
           "json.dumps(dataclasses.asdict(report), sort_keys=True, indent=1)",
           ("tests/test_scripts.py::test_script_exits_zero_with_defaults[identity_outputs.py]",)),
)


def copy_tree(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in TREE:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=ignore)
        else:
            shutil.copy2(source, into / name)


def run_tests(tree: Path, tests) -> int:
    """The pytest exit code of ``tests`` run in ``tree``, stopping at the first failure."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                          cwd=tree, env=env, capture_output=True, text=True)
    return proc.returncode


def fail(message: str) -> None:
    print(message, file=sys.stderr)
    raise SystemExit(2)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--quick", action="store_true", help="run only the rows marked quick")
    args = ap.parse_args()
    rows = [row for row in MUTANTS if row.quick or not args.quick]

    for row in MUTANTS:
        count = (ROOT / row.path).read_text(encoding="utf-8").count(row.old)
        if count != 1:
            fail(f"stale row {row.name!r}: {row.old!r} occurs {count} times in {row.path}")

    with tempfile.TemporaryDirectory() as scratch:
        clean = Path(scratch) / "clean"
        copy_tree(clean)
        if run_tests(clean, sorted({test for row in rows for test in row.tests})) != 0:
            fail("the named tests do not all pass on the unmutated tree")

        survivors = 0
        for i, row in enumerate(rows):
            tree = Path(scratch) / f"mutant{i}"
            copy_tree(tree)
            path = tree / row.path
            path.write_text(path.read_text(encoding="utf-8").replace(row.old, row.new), encoding="utf-8")
            start = time.perf_counter()
            code = run_tests(tree, row.tests)
            if code not in (0, 1, 2):  # 2: the mutant broke collection, which kills it too
                fail(f"pytest exited {code} on row {row.name!r}; check its test names")
            survivors += code == 0
            print(f"{'survived' if code == 0 else 'killed':<8}  {row.name}  ({row.path}, "
                  f"{time.perf_counter() - start:.1f} s)")
            shutil.rmtree(tree)

    print(f"{len(rows) - survivors} of {len(rows)} mutants killed")
    if survivors:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
