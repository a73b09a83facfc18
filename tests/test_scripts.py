"""Each script under scripts/ runs to completion with its default arguments
(``mutants.py`` with ``--quick``: its full set runs pytest once per row).

The run of ``identity_outputs.py`` also compares the sha256 manifest it writes
with the committed ``fixtures/identity.sha256``.  Byte identity is promised
for one numpy version and BLAS kernel, which the manifest's header names: on
another, only the directories whose files hold no float are compared, and the
test is skipped with the fingerprint named."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
ARGS = {"mutants.py": ["--quick"]}
MANIFEST = ROOT / "fixtures" / "identity.sha256"
# the output directories whose bytes no float computation reaches: under a numpy whose
# qr, norm and eigvalsh were nudged in their last bits, only the others changed
FLOAT_FREE = ("bounds/", "graph-probes/", "symmetrise/", "unwritable/", "usage/")


def read_manifest(path: Path) -> tuple[list[str], dict[str, str]]:
    """The header lines of a manifest, and its sha256 of each path."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = [line for line in lines if line.startswith("#")]
    return header, dict(line.split("  ", 1)[::-1] for line in lines if not line.startswith("#"))


def check_manifest(made: Path) -> None:
    header, hashes = read_manifest(made)
    want_header, want = read_manifest(MANIFEST)
    if header != want_header:
        hashes, want = ({path: h for path, h in files.items() if path.startswith(FLOAT_FREE)}
                        for files in (hashes, want))
    changed = sorted(path for path in hashes.keys() | want.keys() if hashes.get(path) != want.get(path))
    assert not changed, f"{len(changed)} outputs differ from {MANIFEST.name}: {changed[:20]}"
    if header != want_header:
        pytest.skip(f"outputs made on {' / '.join(line[2:] for line in header)}, not the manifest's "
                    f"{' / '.join(line[2:] for line in want_header)}: compared only {', '.join(FLOAT_FREE)}")


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_exits_zero_with_defaults(script, tmp_path):
    # on one BLAS thread, as the manifest was made: a thread count may change the bytes of a float
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(script), *ARGS.get(script.name, [])], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if script.name == "identity_outputs.py":
        check_manifest(tmp_path / "out" / "identity" / "identity.sha256")
