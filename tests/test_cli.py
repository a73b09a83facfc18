import errno
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ebitnet import bounds, cli, ledger

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "fixtures" / "four_lab_example.json"


def run_cli(*argv):
    return cli.main(list(argv))


class TestSimulate:
    @pytest.mark.parametrize("protocol,extra", [
        ("teleport", []),
        ("two-qubit-op", []),
        ("star-op", ["--n", "4"]),
        ("swap-comm", []),
        ("swap-entangle", []),
        ("perm-entangle", ["--n", "5"]),
        ("perm-comm", ["--n", "4"]),
        ("ps", ["--n", "4"]),
        ("ps-cp", ["--n", "3"]),
    ])
    def test_protocols_exit_zero_and_write_files(self, protocol, extra, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("simulate", protocol, "--seed", "1", "--output", str(out), *extra) == 0
        assert (out / f"{protocol}_trace.jsonl").exists()
        assert (out / f"{protocol}_ledger.json").exists()
        assert (out / f"{protocol}_graphs.json").exists()
        text = capsys.readouterr().out
        assert "FAIL" not in text

    def test_star_with_alternative_hub(self, tmp_path, capsys):
        out = tmp_path / "hub"
        assert run_cli("simulate", "star-op", "--n", "3", "--hub", "2",
                       "--output", str(out)) == 0
        capsys.readouterr()
        assert run_cli("audit", "--trace", str(out / "star-op_trace.jsonl"),
                       "--graphs", str(out / "star-op_graphs.json")) == 0
        graphs_doc = json.loads((out / "star-op_graphs.json").read_text())
        # hub row/column carry the weight-2 spokes
        assert graphs_doc["entanglement"][1] == ["2", "0", "2"]

    def test_hub_out_of_range_is_usage_error(self, tmp_path):
        assert run_cli("simulate", "star-op", "--n", "3", "--hub", "9",
                       "--output", str(tmp_path)) == 2

    def test_ps_odd_n_is_usage_error(self, tmp_path, capsys):
        assert run_cli("simulate", "ps", "--n", "3", "--output", str(tmp_path)) == 2
        assert "even" in capsys.readouterr().err

    def test_ps_cp_even_n_is_usage_error(self, tmp_path, capsys):
        assert run_cli("simulate", "ps-cp", "--n", "4", "--output", str(tmp_path)) == 2

    def test_negative_seed_is_usage_error_naming_its_flag(self, tmp_path, capsys):
        assert run_cli("simulate", "teleport", "--seed", "-1", "--output", str(tmp_path)) == 2
        assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -1\n"
        assert not list(tmp_path.iterdir())

    def test_unknown_protocol_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", "nonsense", "--output", str(tmp_path))
        assert exc.value.code == 2

    def test_registry_cap_env_override(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("EBITNET_MAX_QUBITS", "4")
        # star with n = 4 needs 6 live qubits at its peak; the cap refuses
        assert run_cli("simulate", "star-op", "--n", "4", "--output", str(tmp_path / "x")) == 2
        monkeypatch.setenv("EBITNET_MAX_QUBITS", "junk")
        assert run_cli("simulate", "teleport", "--output", str(tmp_path / "y")) == 2

    @pytest.mark.parametrize("protocol,n,need", [
        ("star-op", 25, 27), ("perm-comm", 13, 26), ("perm-entangle", 13, 26)])
    def test_a_star_run_over_the_registry_cap_exits_two_before_drawing_its_inputs(self, protocol, n, need,
                                                                                   tmp_path, capsys):
        # a star run holds n + 2 qubits at its peak, and its 2^25-dimensional Haar input would need
        # 8 PiB; a permutation run holds 2n, and is refused before its n messages or permutation
        assert run_cli("simulate", protocol, "--n", str(n), "--output", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err == f"error: {protocol} at --n {n} needs {need} qubits, over the registry cap of 24\n"
        assert list(tmp_path.iterdir()) == []

    def test_a_trace_audits_under_the_cap_it_was_simulated_under_and_no_larger(self, tmp_path, monkeypatch,
                                                                               capsys):
        monkeypatch.setenv("EBITNET_MAX_QUBITS", "30")
        assert run_cli("simulate", "perm-comm", "--n", "3", "--output", str(tmp_path)) == 0
        trace = tmp_path / "perm-comm_trace.jsonl"
        files = ("--trace", str(trace), "--graphs", str(tmp_path / "perm-comm_graphs.json"))
        assert '"max_qubits": 30' in trace.read_text(encoding="utf-8")
        capsys.readouterr()
        assert run_cli("audit", *files) == 0
        assert json.loads(capsys.readouterr().out)["violations"] == []
        monkeypatch.delenv("EBITNET_MAX_QUBITS")
        assert run_cli("audit", *files) == 2
        assert capsys.readouterr().err == ("error: trace: its header's max_qubits of 30 is over the registry "
                                           "cap of 24; EBITNET_MAX_QUBITS sets that cap\n")

    def test_simulated_trace_passes_audit(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert run_cli("simulate", "star-op", "--n", "3", "--output", str(out)) == 0
        capsys.readouterr()
        assert run_cli(
            "audit", "--trace", str(out / "star-op_trace.jsonl"),
            "--graphs", str(out / "star-op_graphs.json"),
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations"] == []
        assert doc["replayed"] is True

    @pytest.mark.parametrize("protocol,extra", [
        ("teleport", []),
        ("two-qubit-op", []),
        ("star-op", ["--n", "3"]),
        ("swap-comm", []),
        ("swap-entangle", []),
        ("perm-entangle", ["--n", "4"]),
        ("perm-comm", ["--n", "3"]),
        ("ps", ["--n", "4"]),
        ("ps-cp", ["--n", "3"]),
    ])
    def test_every_simulation_passes_its_own_audit(self, protocol, extra, tmp_path):
        out = tmp_path / "run"
        assert run_cli("simulate", protocol, "--seed", "2", "--output", str(out), *extra) == 0
        assert run_cli(
            "audit", "--trace", str(out / f"{protocol}_trace.jsonl"),
            "--graphs", str(out / f"{protocol}_graphs.json"),
        ) == 0

    def test_ps_runs_at_n_12_without_a_dense_matrix(self, tmp_path, capsys):
        # the hub permutation is a rename, so no 2^n x 2^n matrix enters the trace
        assert run_cli("simulate", "ps", "--n", "12", "--seed", "1", "--output", str(tmp_path)) == 0
        trace = tmp_path / "ps_trace.jsonl"
        assert trace.stat().st_size < 1 << 20
        records = [json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()]
        widths = {max(len(matrix), *(len(row) for row in matrix))
                  for rec in records if rec["kind"] == "local_gate"
                  for matrix in ([rec["matrix"]] if "matrix" in rec else rec["cases"].values())}
        assert widths and max(widths) <= 4
        assert [(rec["parties"], len(rec["targets"])) for rec in records if rec["kind"] == "oracle"] == [([1], 12)]
        assert run_cli("audit", "--no-replay", "--trace", str(trace),
                       "--graphs", str(tmp_path / "ps_graphs.json")) == 0
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize("two_party,general", [
        ("two-qubit-op", ["star-op", "--n", "2", "--hub", "2"]),
        ("swap-entangle", ["perm-entangle", "--n", "2"]),
        ("swap-comm", ["perm-comm", "--n", "2"]),
    ])
    def test_two_party_names_are_the_general_runs_at_n_2(self, two_party, general, tmp_path, capsys):
        # seed 7 draws the same message for both receivers, so swap-comm's draw order does not show
        assert run_cli("simulate", two_party, "--seed", "7", "--n", "5", "--hub", "3",
                       "--output", str(tmp_path / "a")) == 0
        assert run_cli("simulate", *general, "--seed", "7", "--output", str(tmp_path / "b")) == 0
        for suffix in ("trace.jsonl", "ledger.json", "graphs.json"):
            assert ((tmp_path / "a" / f"{two_party}_{suffix}").read_bytes()
                    == (tmp_path / "b" / f"{general[0]}_{suffix}").read_bytes())


class TestBounds:
    def test_csv_table(self, tmp_path):
        out = tmp_path / "table.csv"
        assert run_cli("bounds", "--n-max", "4", "--output", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,kind,teleport,lower,half_transfer,cap,integer_one_shot"
        assert len(lines) == 1 + 6  # n in {2,3,4}, two kinds each
        n4 = [ln for ln in lines if ln.startswith("4,entanglement")][0]
        assert n4.split(",")[2] == "6"

    def test_minimal_table(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli("bounds", "--n-max", "2", "--output", str(out)) == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert rows[0].startswith("2,entanglement,2,2,,2,")
        assert rows[1].startswith("2,communication,4,4,,4,")

    def test_boundary_note(self, capsys):
        assert run_cli("bounds", "--n-max", "12", "--format", "csv") == 0
        out = capsys.readouterr().out
        assert "odd n >= 11" in out

    def test_json_format_carries_flags(self, tmp_path):
        out = tmp_path / "t.json"
        assert run_cli("bounds", "--n-max", "3", "--format", "json", "--output", str(out)) == 0
        doc = json.loads(out.read_text())
        n3 = [r for r in doc if r["n"] == 3][0]
        assert n3["optimality_open"] is True
        assert n3["half_transfer"] == {"e": "3", "c": "6"}

    def test_n_max_cap(self, capsys):
        assert run_cli("bounds", "--n-max", "100") == 2

    @pytest.mark.parametrize("n_max", ["1", "0", "-5"])
    def test_n_max_below_two_is_refused_naming_its_flag(self, n_max, capsys):
        assert run_cli("bounds", "--n-max", n_max) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: --n-max must be at least 2, got {n_max}\n")


class TestSymmetrise:
    def test_fixture_values_and_note(self, tmp_path, capsys):
        out = tmp_path / "sym"
        assert run_cli("symmetrise", "--input", str(FIXTURE), "--output", str(out)) == 0
        text = capsys.readouterr().out
        assert "e = 48" in text
        assert "c = 42" in text
        assert "cross-check over 24 permutations: ok" in text
        assert "sometimes quoted as 24" in text
        assert (out / "symmetrised.json").exists()
        assert (out / "entanglement.dot").exists()

    def test_two_vertex_single_edge(self, tmp_path, capsys):
        doc = '{"n": 2, "entanglement": [["0", "5"], ["5", "0"]]}'
        src = tmp_path / "g.json"
        src.write_text(doc)
        assert run_cli("symmetrise", "--input", str(src), "--output", str(tmp_path / "o")) == 0
        text = capsys.readouterr().out
        assert "e = 10" in text  # 2 * (n-2)! * total = 2 * 5
        assert "sometimes quoted" not in text

    def test_large_n_skips_brute_force(self, tmp_path, capsys):
        n = 9
        w = [["0" if i == j else "1" for j in range(n)] for i in range(n)]
        src = tmp_path / "g9.json"
        src.write_text(json.dumps({"n": n, "entanglement": w}))
        assert run_cli("symmetrise", "--input", str(src), "--output", str(tmp_path / "o")) == 0
        assert "skipped" in capsys.readouterr().out

    def test_malformed_input_exits_two(self, tmp_path, capsys):
        src = tmp_path / "bad.json"
        src.write_text('{"n": 2, "entanglement": [["0", "1"], ["2", "0"]]}')
        assert run_cli("symmetrise", "--input", str(src), "--output", str(tmp_path / "o")) == 2
        assert "symmetric" in capsys.readouterr().err

    def test_a_sum_whose_cells_the_reader_would_refuse_exits_two_before_it_is_written(self, tmp_path, capsys):
        """Cells within the 64-character cap can sum to 85 characters; such a result
        is refused with exit 2 before any output file is written, since no reader
        would take back its symmetrised.json."""
        cells = ["1/9999999999999999999999", "5", "123456789012345678901234567890123456789/7", "1/3"]
        assert max(map(len, cells)) <= 64
        comm = [["0", cells[0], cells[1]], [cells[2], "0", cells[3]], ["0", "0", "0"]]
        src, out = tmp_path / "g.json", tmp_path / "o"
        src.write_text(json.dumps({"n": 3, "communication": comm}))
        assert run_cli("symmetrise", "--input", str(src), "--output", str(out)) == 2
        captured = capsys.readouterr()
        assert "cross-check over 6 permutations: ok" in captured.out
        assert captured.err.startswith("error: communication[0][1]: cannot write a weight of 85 characters, "
                                       "more than the 64 a graph file's cell holds: 12345678901234567890...")
        assert captured.err.count("\n") == 1
        assert not (out / "symmetrised.json").exists()
        assert not any(out.iterdir())

    def test_missing_file_exits_two(self, tmp_path):
        assert run_cli("symmetrise", "--input", str(tmp_path / "no.json"),
                       "--output", str(tmp_path / "o")) == 2

    def test_a_file_that_is_not_utf8_is_refused_naming_its_path(self, tmp_path, capsys):
        src = tmp_path / "g.json"
        src.write_bytes(b"\xff\xfe")
        assert run_cli("symmetrise", "--input", str(src), "--output", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == (f"error: cannot read {src}: 'utf-8' codec can't decode byte 0xff "
                                           "in position 0: invalid start byte\n")
        assert not (tmp_path / "o").exists()


class TestAuditCommand:
    def test_forged_trace_exits_one(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        trace.write_text("\n".join([
            json.dumps({"kind": "header", "format": ledger.TRACE_FORMAT, "n_parties": 2}),
            json.dumps({"kind": "ebit_create", "pair": [1, 2]}),
        ]) + "\n")
        g = tmp_path / "g.json"
        g.write_text('{"n": 2, "entanglement": [["0", "0"], ["0", "0"]]}')
        assert run_cli("audit", "--trace", str(trace), "--graphs", str(g)) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["violations"]

    def test_malformed_trace_exits_two(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text("garbage\n")
        g = tmp_path / "g.json"
        g.write_text('{"n": 2, "entanglement": [["0", "0"], ["0", "0"]]}')
        assert run_cli("audit", "--trace", str(trace), "--graphs", str(g)) == 2

    @pytest.mark.parametrize("which", ["trace", "graphs"])
    def test_a_file_that_is_not_utf8_is_refused_naming_which(self, which, tmp_path, capsys):
        files = {"trace": tmp_path / "t.jsonl", "graphs": tmp_path / "g.json"}
        files["trace"].write_text(json.dumps({"kind": "header", "format": ledger.TRACE_FORMAT, "n_parties": 2}) + "\n")
        files["graphs"].write_text('{"n": 2, "entanglement": [["0", "0"], ["0", "0"]]}')
        files[which].write_bytes(b"\xff\xfe")
        assert run_cli("audit", "--trace", str(files["trace"]), "--graphs", str(files["graphs"])) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: {which}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n")


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("simulate", "star-op", "--n", "4", "--seed", "7"),
        ("simulate", "perm-comm", "--n", "4", "--seed", "3"),
        ("simulate", "two-qubit-op", "--seed", "5"),
    ])
    def test_repeated_runs_are_byte_identical(self, argv, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run_cli(*argv, "--output", str(a)) == 0
        assert run_cli(*argv, "--output", str(b)) == 0
        files = sorted(p.name for p in a.iterdir())
        assert files == sorted(p.name for p in b.iterdir())
        for name in files:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_bounds_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli("bounds", "--n-max", "16", "--output", str(a)) == 0
        assert run_cli("bounds", "--n-max", "16", "--output", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()


class TestWriter:
    """An output file is rewritten in place: no stale tail, the same inode and mode,
    symlinks followed, and devices written without being cut."""

    def test_a_shorter_table_over_a_longer_file_leaves_no_stale_tail(self, tmp_path):
        fresh, rewritten = tmp_path / "fresh.csv", tmp_path / "t.csv"
        assert run_cli("bounds", "--n-max", "2", "--output", str(fresh)) == 0
        assert run_cli("bounds", "--n-max", "64", "--output", str(rewritten)) == 0
        assert rewritten.stat().st_size > fresh.stat().st_size
        assert run_cli("bounds", "--n-max", "2", "--output", str(rewritten)) == 0
        assert rewritten.read_bytes() == fresh.read_bytes()

    def test_a_rewrite_keeps_the_inode_and_mode_and_a_new_file_gets_0o666_under_the_umask(self, tmp_path):
        out = tmp_path / "t.csv"
        old_umask = os.umask(0o027)
        try:
            assert run_cli("bounds", "--n-max", "64", "--output", str(out)) == 0
        finally:
            os.umask(old_umask)
        assert out.stat().st_mode & 0o777 == 0o666 & ~0o027
        out.chmod(0o604)
        inode = out.stat().st_ino
        assert run_cli("bounds", "--n-max", "3", "--output", str(out)) == 0
        assert (out.stat().st_ino, out.stat().st_mode & 0o777) == (inode, 0o604)

    def test_an_output_through_a_symlink_writes_its_target(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("old\n" * 1000, encoding="utf-8")
        link.symlink_to(target)
        assert run_cli("bounds", "--n-max", "2", "--output", str(link)) == 0
        assert link.is_symlink() and link.readlink() == target
        assert target.read_text(encoding="utf-8") == bounds.table_csv(2)

    def test_a_device_is_written_without_being_cut(self, capsys):
        assert run_cli("bounds", "--output", os.devnull) == 0
        assert capsys.readouterr().out.startswith(f"wrote {os.devnull}\n")

    def test_a_write_that_fails_part_way_leaves_a_prefix_of_the_new_bytes(self, tmp_path, monkeypatch):
        out = tmp_path / "t.csv"
        out.write_bytes(b"o" * 5000)
        write = os.write
        calls = []

        def write_100_bytes_then_fail(fd, data):
            calls.append(len(data))
            if len(calls) > 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write(fd, data[:100])

        monkeypatch.setattr(cli.os, "write", write_100_bytes_then_fail)
        with pytest.raises(cli.CliUsageError, match=re.escape(f"cannot write {out}: [Errno {errno.ENOSPC}]")):
            cli._write(out, "n" * 1000)
        monkeypatch.undo()
        assert calls == [1000, 900]
        assert out.read_bytes() == b"n" * 100


@pytest.mark.parametrize("argv", [["bounds", "--n-max", "64"], ["audit"]], ids=["bounds", "audit"])
def test_closed_stdout_exits_141_without_traceback(argv, tmp_path, capsys):
    if argv == ["audit"]:
        assert run_cli("simulate", "star-op", "--seed", "7", "--output", str(tmp_path)) == 0
        argv = ["audit", "--trace", str(tmp_path / "star-op_trace.jsonl"),
                "--graphs", str(tmp_path / "star-op_graphs.json")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout now fails with EPIPE
    try:
        proc = subprocess.run([sys.executable, "-m", "ebitnet.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


@pytest.mark.parametrize("argv", [
    ["simulate", "teleport", "--output", "{file}"],
    ["simulate", "teleport", "--output", "/dev/null/x"],
    ["symmetrise", "--input", str(FIXTURE), "--output", "/dev/null/x"],
    ["bounds", "--output", "/dev/null/x/b.csv"],
    ["bounds", "--output", "{directory}"],
], ids=["simulate-to-a-file", "simulate-under-a-file", "symmetrise-under-a-file",
        "bounds-under-a-file", "bounds-to-a-directory"])
def test_unwritable_output_exits_two_without_traceback(argv, tmp_path, monkeypatch, capsys):
    (tmp_path / "file").write_text("")
    argv = [arg.format(file=tmp_path / "file", directory=tmp_path) for arg in argv]
    # simulate refuses the path before it runs the protocol
    monkeypatch.setattr(cli, "_simulate", lambda *args: pytest.fail("the protocol ran"))
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot ") and err.count("\n") == 1
