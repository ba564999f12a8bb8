"""Smoke test: the walkthroughs in demos/ run and print their key results."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_aes_nonlinearity_every_method_says_112():
    out = run_demo("aes_nonlinearity.py")
    assert out.count("nl = 112") == 6


def test_oracle_crosscheck_agrees():
    out = run_demo("oracle_crosscheck.py")
    assert "992/992 entries equal" in out
    assert "fused maxima vs spectrum rescan: identical" in out
    values = re.findall(r"^nl by .* = (\d+) ", out, flags=re.M)
    assert len(values) == 3 and len(set(values)) == 1


def test_streaming_large_box_stream_equals_retain():
    out = run_demo("streaming_large_box.py")
    retain = re.search(r"measured peak, retain: .* nl = (\d+)", out)
    stream = re.search(r"measured peak, stream: .* nl = (\d+)", out)
    assert retain and stream
    assert retain.group(1) == stream.group(1)


def test_layout_speedup_prints_every_size_and_its_csv():
    out = run_demo("layout_speedup.py")
    sizes = re.findall(r"^\s*(\d+)x(\d+)\s+[\d.]+\s+[\d.]+\s+[\d.]+x$", out, flags=re.M)
    assert sizes == [(b, b) for b in ("8", "9", "10", "11")]
    csv_lines = out[out.index("method,n,m,workers"):].splitlines()
    assert csv_lines[0] == "method,n,m,workers,repetitions,mean_ms,stddev_ms,transform_only_mean_ms"
    rows = [line.split(",")[:5] for line in csv_lines[1:]]
    assert rows == [
        [method, b, b, "1", "3"]
        for b in ("8", "9", "10", "11")
        for method in ("rowmajor", "transposed")
    ]
