"""Same behaviour, op by op: the committed per-op digests of each benchmark
workload's first seed-1 cycle, rerun by ``scripts/output_digests.py``.

A change that alters output on purpose regenerates the file of each
workload it touches in the same commit (see the script's docstring) and
says which op lines changed and why."""

import platform
import subprocess
import sys
from pathlib import Path

import networkx
import pytest

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).resolve().parent / "digests"


@pytest.mark.parametrize("workload", ["search", "bracket", "certify"])
def test_per_op_digests_match_the_committed_ones(workload):
    want = (DIGESTS / f"{workload}.txt").read_text().splitlines()
    command, versions = want[:2]
    # another version may hash or order differently: look into it, do not skip it
    here = f"# python {platform.python_version()}, networkx {networkx.__version__}"
    assert versions == here, f"digests made under {versions[2:]}, running {here[2:]}"

    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digests.py"), workload,
         "--seed", command.rsplit(" ", 1)[1]],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    got = proc.stdout.splitlines()
    for mine, theirs in zip(got, want):
        assert mine == theirs, f"first op that differs:\n  now:  {mine}\n  file: {theirs}"
    assert len(got) == len(want), f"{len(got)} ops now, {len(want)} committed"
