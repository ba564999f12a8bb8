"""Runs commands for run.py and times them: one JSON request per stdin line,
one JSON reply per stdout line.

A child's peak resident set size as the kernel reports it includes the
memory of the process that started it, up to its exec.  run.py holds
reference spectra and numpy, so the CLI processes of stream_tall_cli are
started from this small process instead, whose own footprint stays below
theirs.
"""

import json
import resource
import subprocess
import sys
import time

for line in sys.stdin:
    request = json.loads(line)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            request["argv"], env=request["env"], cwd=request["cwd"], capture_output=True, timeout=request["timeout"]
        )
        reply = {"code": proc.returncode, "stdout": proc.stdout.decode(errors="replace"),
                 "stderr": proc.stderr.decode(errors="replace")}
    except subprocess.TimeoutExpired:
        reply = {"code": None, "stdout": "", "stderr": f"timed out after {request['timeout']} s"}
    reply["ms"] = (time.perf_counter() - t0) * 1e3
    reply["children_peak_kib"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps(reply), flush=True)
