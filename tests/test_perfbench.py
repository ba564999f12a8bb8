"""The benchmark under perfbench/ still runs against this package.

perfbench calls sboxeval through ``import sboxeval as se``; a name it needs
that the package no longer has would otherwise surface only as a failed
benchmark run.
"""

import re
import subprocess
import sys
from pathlib import Path

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
