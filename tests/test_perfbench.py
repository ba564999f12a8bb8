"""The benchmark under perfbench/ still runs against this package.

perfbench calls sboxeval through ``import sboxeval as se``; a name it needs
that the package no longer has would otherwise surface only as a failed
benchmark run.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sboxeval

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_name_perfbench_calls_exists():
    used = set()
    for name in ("worker.py", "selftest.py"):
        used |= set(re.findall(r"\bse\.(\w+)", (PERFBENCH / name).read_text()))
    assert "fwht_parallel" in used  # the scan still sees how perfbench calls sboxeval
    assert sorted(n for n in used if not hasattr(sboxeval, n)) == []


def test_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", ["screen8", "stream_wide", "stream_tall_cli"])
def test_traced_run_is_correct(workload):
    # The benchmark's own call path: three traced boxes through every
    # per-layer call and cli.main, in retain and in stream mode, and for
    # stream_tall_cli one `python -m sboxeval.cli nl` process per box.
    # Writes only into perfbench/out/.
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "11", "--seconds", "0", "--trace", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert final["correct"] is True and final["failed"] == 0, proc.stdout + proc.stderr
