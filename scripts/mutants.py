#!/usr/bin/env python3
"""Check that the tests notice a broken check: one single-line mutant per row.

Usage: python scripts/mutants.py [--quick]

Each row of ``MUTANTS`` names a file, an exact piece of its text, the text
to put in its place, and the tests expected to fail once it is there.  For
each row the script copies the tree (src, tests, fixtures, pyproject.toml)
into a temporary directory, applies the edit and runs only the named tests.
The mutant is killed when one of them fails, and survives when they all pass.
The named tests are first run once on an unmutated copy; they must pass.

Exit codes: 0 when every mutant is killed, 1 when one survives, 2 when the
table is stale (a piece of old text not found exactly once) or a named test
fails on the unmutated tree.  ``--quick`` runs only the rows marked quick.
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
TREE = ("src", "tests", "fixtures", "pyproject.toml")


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
    Mutant("supplementary messages charged", "src/ebitnet/ledger.py",
           "isinstance(event, ClassicalMessage) and not event.supplementary:",
           "isinstance(event, ClassicalMessage):",
           (PROTOCOLS + "TestCollectiveTwoQubit::test_recorded_uniform_povm_supplementary",
            AUDIT + "test_cut_checks_match_brute_force_reference"), quick=True),
    Mutant("decoded bits keyed (at, from)", "src/ebitnet/ledger.py",
           "(event.from_party, event.at_party)", "(event.at_party, event.from_party)",
           (PROTOCOLS + "TestResourceBook::test_decoded_bits_are_booked_from_sender_to_receiver",
            AUDIT + "test_forged_trace_report_is_exact")),
    Mutant("dense-coding allowance of 3 bits", "src/ebitnet/audit.py",
           "allowance = 2 * _across(", "allowance = 3 * _across(",
           (AUDIT + "test_forged_trace_report_is_exact",
            AUDIT + "test_cut_checks_match_brute_force_reference")),
    Mutant("channel capacity reached counts as exceeded", "src/ebitnet/audit.py",
           "if bits > cap:", "if bits >= cap:",
           (AUDIT + "TestAuditCleanRuns::test_star_run_is_clean",)),
    Mutant("registry cap one qubit short at load", "src/ebitnet/ledger.py",
           "len(ids) + len(added) > max_qubits", "len(ids) + len(added) >= max_qubits",
           (CODEC + "test_registry_may_reach_max_qubits_but_not_pass_it",), quick=True),
    Mutant("cut values reused after any rename", "src/ebitnet/audit.py",
           " and _owners(ens) == _owners(before)", "",
           (AUDIT + "test_monotone_series_matches_the_per_branch_formula[swap-entangle]",
            AUDIT + "test_monotone_series_matches_the_per_branch_formula[perm-comm]",
            AUDIT + "test_monotone_is_evaluated_once_per_cut_after_every_state_change_only",
            AUDIT + "test_cross_party_relabel_report_is_exact")),
    Mutant("a cut is spanned by nothing", "src/ebitnet/audit.py",
           "return any(p in side for p in parties) and not all(p in side for p in parties)",
           "return all(p in side for p in parties) and not any(p in side for p in parties)",
           (AUDIT + "test_forged_trace_report_is_exact",
            AUDIT + "test_cut_checks_match_brute_force_reference",
            AUDIT + "TestAuditCleanRuns::test_permutation_protocols_clean")),
    Mutant("permutation size not checked at load", "src/ebitnet/ledger.py",
           "if self.permutation.n != len(self.targets):", "if False:",
           (CODEC + "test_malformed_event_is_rejected_with_its_line",)),
    Mutant("trace format /1 still read", "src/ebitnet/ledger.py",
           'if rec.get("format") != TRACE_FORMAT:',
           'if rec.get("format") not in (TRACE_FORMAT, "ebitnet-trace/1"):',
           (CODEC + "test_malformed_header_is_rejected_on_line_1",
            CODEC + "test_audit_of_malformed_trace_exits_two_without_traceback")),
    Mutant("renames may collide", "src/ebitnet/engine.py",
           'raise ValueError(f"qubit id {twice!r} already in use")', "pass",
           (ENGINE + "TestRelabel::test_renames_must_give_distinct_ids",)),
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
           "if not abs(norm - 1.0) <= 1e-9:\n                raise AssertionError",
           "if not abs(norm - 1.0) <= 1e-6:\n                raise AssertionError",
           (ENGINE + "TestBlockKernelAgainstMasks::test_branch_norm_tolerance",)),
    Mutant("replay distribution tolerance 1000x looser", "src/ebitnet/audit.py",
           "abs(recorded[k] - dist[k]) <= 1e-9", "abs(recorded[k] - dist[k]) <= 1e-6",
           (AUDIT + "test_replay_distribution_tolerance",)),
    Mutant("monotone tolerance 1000x looser", "src/ebitnet/audit.py",
           "ENTROPY_TOL = 1e-9", "ENTROPY_TOL = 1e-6",
           (AUDIT + "test_monotone_tolerance",)),
    Mutant("held ebits not dropped on a consume", "src/ebitnet/audit.py",
           "held[cut] -= 1", "held[cut] -= 0",
           (AUDIT + "TestAuditCleanRuns::test_star_run_is_clean",
            AUDIT + "test_cross_party_relabel_report_is_exact")),
    Mutant("message bits coerced from any JSON value", "src/ebitnet/ledger.py",
           "return Fraction(_str(raw))", "return Fraction(raw)",
           (CODEC + "test_malformed_event_is_rejected_with_its_line",)),
    Mutant("symmetrise sums in int64 past its range", "src/ebitnet/graphs.py",
           "2**63", "2**200",
           (GRAPHS + "TestSymmetrise::test_sums_past_int64_match_reference",), quick=True),
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

    for row in rows:
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
