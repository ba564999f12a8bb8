"""The sboxeval benchmark: closed-loop nonlinearity workloads, checked against
an independent reference.

    python3 perfbench/run.py --workload screen8 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

Run it from the root of a checkout; sboxeval is loaded from ``src/`` there.
One caller in one process drives each workload and sends the next box only
when the previous result is back.  Every evaluation passes ``workers=2``.
With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it reports per-layer metrics from calls into sboxeval's exported functions.
The last line of stdout is one JSON object; a fuller record, with the host,
goes to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from multiprocessing import Pipe
from pathlib import Path

# The reference runs in this process between timed evaluations; one BLAS
# thread keeps it from spinning on the cores the next evaluation needs.
# Children get the caller's environment unchanged.
CHILD_ENV = dict(os.environ)
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from reference import check_box  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKERS = 2
SETUPS = 5  # set-ups per run; setup_s is their median
TRACED_BOXES = 3  # at least, so that per-layer figures are medians of three
TIMEOUT_S = 150  # longest wait for one reply or one CLI process
NL_LINE = re.compile(r"nl = (\d+) \(argmin v = (\d+)\)")


@dataclass(frozen=True)
class Workload:
    n: int
    m: int
    bijective: bool
    mode: str
    probe_ref_ms: float  # median probe time on the reference host (see README)
    spectrum: bool = False  # the evaluation returns the retained spectrum
    cli: bool = False  # each evaluation is one CLI process
    aes_first: bool = False


WORKLOADS = {
    "screen8": Workload(8, 8, True, "retain", 6.8, aes_first=True),
    "retain12": Workload(12, 12, True, "retain", 377.0, spectrum=True),
    "stream_wide": Workload(6, 14, False, "stream", 301.0),
    "stream_tall_cli": Workload(16, 8, False, "stream", 293.0, cli=True),
}


def aes_table() -> np.ndarray:
    """AES SubBytes from its definition: inverse in GF(2^8), then the affine map."""
    table = [0x63] * 256
    p = q = 1
    while True:
        p ^= (p << 1) ^ (0x1B if p & 0x80 else 0)  # p *= 3
        p &= 0xFF
        q ^= q << 1  # q /= 3
        q ^= q << 2
        q ^= q << 4
        q &= 0xFF
        if q & 0x80:
            q ^= 0x09
        rot = lambda k: ((q << k) | (q >> (8 - k))) & 0xFF  # noqa: E731
        table[p] = q ^ rot(1) ^ rot(2) ^ rot(3) ^ rot(4) ^ 0x63
        if p == 1:
            return np.array(table, dtype=np.uint32)


def boxes(w: Workload, seed: int):
    """Endless seeded box tables for a workload; the same seed gives the same boxes."""
    rng = np.random.default_rng([seed, w.n, w.m])
    if w.aes_first:
        yield aes_table()
    while True:
        if w.bijective:
            yield rng.permutation(1 << w.n).astype(np.uint32)
        else:
            yield rng.integers(0, 1 << w.m, size=1 << w.n, dtype=np.uint32)


def render(w: Workload, table: np.ndarray) -> str:
    """The .sbox text: header "n m", then 16 hex entries per line."""
    lines = [f"{w.n} {w.m}"]
    lines += [" ".join(f"0x{int(e):X}" for e in table[i : i + 16]) for i in range(0, table.size, 16)]
    return "\n".join(lines) + "\n"


class Worker:
    """One evaluating process (perfbench/worker.py) and the connection to it."""

    def __init__(self, w: Workload):
        self.conn, child = Pipe()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(SRC), str(child.fileno())],
            pass_fds=[child.fileno()],
            stdout=subprocess.DEVNULL,
            env=CHILD_ENV,
        )
        child.close()
        self.conn.send({"mode": w.mode, "spectrum": w.spectrum, "workers": WORKERS})
        self.recv()

    def recv(self):
        if not self.conn.poll(TIMEOUT_S):
            raise TimeoutError("the evaluating process did not answer")
        return self.conn.recv()

    def ask(self, op: str, w: Workload, table: np.ndarray, **extra) -> dict:
        self.conn.send({"op": op, "n": w.n, "m": w.m, "table": table.tobytes(), **extra})
        reply = self.recv()
        if op == "eval" and w.spectrum and "error" not in reply:
            reply["spectrum"] = np.frombuffer(self.conn.recv_bytes(), dtype=np.int32).reshape(-1, 1 << w.n)
        return reply

    def peak_kib(self) -> int:
        self.conn.send({"op": "peak"})
        return self.recv()

    def close(self) -> None:
        try:
            self.conn.send({"op": "quit"})
            self.proc.wait(timeout=TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.conn.close()


class Launcher:
    """Starts and times the CLI processes (perfbench/launcher.py explains why from there)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=CHILD_ENV, text=True,
        )
        self.peak_kib = 0

    def run(self, argv: list[str], env: dict) -> dict:
        request = {"argv": argv, "env": env, "cwd": str(ROOT), "timeout": TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        self.peak_kib = reply["children_peak_kib"]
        return reply

    def nl(self, w: Workload, path: Path) -> tuple[dict, float]:
        """One ``python -m sboxeval.cli nl`` process; returns its answer and its wall ms."""
        argv = [sys.executable, "-m", "sboxeval.cli", "nl", str(path), "--mode", w.mode, "--workers", str(WORKERS)]
        reply = self.run(argv, dict(CHILD_ENV, PYTHONPATH=str(SRC)))
        found = NL_LINE.search(reply["stdout"])
        if reply["code"] != 0 or found is None:
            return {"error": f"exit {reply['code']}: {reply['stderr'].strip()}"}, reply["ms"]
        return {"nl": int(found[1]), "argmin_v": int(found[2])}, reply["ms"]

    def close(self) -> None:
        stop(self.proc)


class Prober:
    """Times the host-speed probe (see probe.py) in processes of its own."""

    def __init__(self, w: Workload):
        self.argv = [sys.executable, str(BENCH / "probe.py"), str(w.n), str(w.m), w.mode]
        self.launcher = Launcher() if w.cli else None
        self.proc = None if w.cli else subprocess.Popen(
            self.argv + ["--serve"], stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=CHILD_ENV, text=True
        )

    def ms(self) -> float:
        if self.launcher is not None:
            return self.launcher.run(self.argv, CHILD_ENV)["ms"]
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        if self.launcher is not None:
            self.launcher.close()
        else:
            stop(self.proc)


def stop(proc: subprocess.Popen) -> None:
    """Close a line-protocol child's stdin, so that it ends, and wait for it."""
    proc.stdin.close()
    try:
        proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def import_ms() -> float:
    """Time of ``import sboxeval`` in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import sboxeval; print((time.perf_counter() - t) * 1e3)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC)], env=CHILD_ENV, capture_output=True, check=True, timeout=TIMEOUT_S
    )
    return float(out.stdout)


class Tally:
    """Attempted and failed evaluations; a wrong answer also clears ``correct``."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True
        self.problems: list[str] = []

    def check(self, w: Workload, table: np.ndarray, reply: dict, is_aes: bool = False) -> None:
        self.attempted += 1
        if "error" in reply:
            self.failed += 1
            self.problems.append(reply["error"])
            return
        wrong = check_box(table, w.n, w.m, reply["nl"], reply["argmin_v"], reply.get("spectrum"))
        if is_aes and reply["nl"] != 112:
            wrong.append(f"AES nl is {reply['nl']}, not 112")
        if wrong:
            self.failed += 1
            self.correct = False
            self.problems.extend(wrong)


def box_file(w: Workload, table: np.ndarray) -> tuple[Path, str]:
    text = render(w, table)
    path = OUT / f"box-{w.n}x{w.m}.sbox"
    path.write_text(text)
    return path, text


def measure(w: Workload, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """The untraced run: set-up, then evaluations until ``seconds`` of evaluation time.

    Times are reported at the reference host speed (see probe.py): scaled by
    ``w.probe_ref_ms`` over the run's median probe time, and for the tail,
    each evaluation by the probe run just before it.
    """
    gen = boxes(w, seed)
    first = next(gen)
    setups: list[float] = []
    probes: list[float] = []
    evals: list[float] = []
    launcher = Launcher() if w.cli else None
    worker = prober = None
    try:
        for _ in range(SETUPS):
            if w.cli:
                _, ms = launcher.nl(w, box_file(w, first)[0])
                setups.append(ms / 1e3)
                continue
            if worker is not None:
                worker.close()
            t0 = time.perf_counter()
            worker = Worker(w)
            worker.ask("eval", w, first)
            setups.append(time.perf_counter() - t0)
        prober = Prober(w)
        table = first
        while sum(evals) < seconds * 1e3:
            probes.append(prober.ms())
            if w.cli:
                reply, ms = launcher.nl(w, box_file(w, table)[0])
            else:
                t0 = time.perf_counter()
                reply = worker.ask("eval", w, table)
                ms = reply.get("ms", (time.perf_counter() - t0) * 1e3)
            evals.append(ms)
            tally.check(w, table, reply, is_aes=w.aes_first and len(evals) == 1)
            table = next(gen)
        peak_kib = launcher.peak_kib if w.cli else worker.peak_kib()
    finally:
        for proc in (worker, launcher, prober):
            if proc is not None:
                proc.close()
    scale = w.probe_ref_ms / statistics.median(probes)
    coefs = len(evals) * (1 << w.n) * ((1 << w.m) - 1)
    metrics = {
        "setup_s": (statistics.median(setups) * scale, "s"),
        "eval_ms_p50": (statistics.median(evals) * scale, "ms"),
        "eval_ms_p95": (float(np.percentile(np.divide(evals, probes), 95)) * w.probe_ref_ms, "ms"),
        "mcoef_per_s": (coefs / (sum(evals) * scale / 1e3) / 1e6, "Mcoef/s"),
        "peak_rss_mib": (peak_kib / 1024, "MiB"),
    }
    return metrics, {"scale": scale, "setup_s": setups, "eval_ms": evals, "probe_ms": probes}


def trace(w: Workload, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """The traced run: per-layer times on successive boxes for ``seconds`` of wall time."""
    gen = boxes(w, seed)
    imports = [import_ms() for _ in range(SETUPS)]
    worker = Worker(w)
    launcher = Launcher() if w.cli else None
    spans: list[dict] = []
    try:
        worker.ask("eval", w, next(boxes(w, seed)))  # warm-up, as in the untraced run
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or tally.attempted < TRACED_BOXES:
            table = next(gen)
            path, text = box_file(w, table)
            t0 = time.perf_counter()
            if w.cli:
                reply, cli_ms = launcher.nl(w, path)
                tally.check(w, table, reply)
            t = worker.ask("trace", w, table, text=text, path=str(path))
            t["box"] = (time.perf_counter() - t0) * 1e3
            if w.cli and "error" not in t:
                t["eval"] = cli_ms
            else:
                tally.check(w, table, t)
            if "error" not in t:
                spans.append(t)
    finally:
        worker.close()
        if launcher is not None:
            launcher.close()
    if not spans:
        raise RuntimeError("no box could be traced: " + "; ".join(tally.problems))

    imp = statistics.median(imports)
    coefs = (1 << w.n) * ((1 << w.m) - 1)

    def med(f) -> float:
        return statistics.median(f(t) for t in spans)

    def build_path(t: dict) -> float:
        return t["build"] if w.mode == "retain" else t["polarity_rows"]

    def layers(t: dict) -> float:
        total = build_path(t) + t["butterfly"] + t["reduce"]
        return total + imp + t["parse"] if w.cli else total

    metrics = {
        "cli.import_ms": (imp, "ms"),
        "cli.main_ms": (med(lambda t: t["cli_main"]), "ms"),
        "sbox.parse_ms": (med(lambda t: t["parse"]), "ms"),
        "sbox.build_ms": (med(lambda t: t["build"]), "ms"),
        "sbox.polarity_row_us": (med(lambda t: t["polarity_rows"]) * 1e3 / ((1 << w.m) - 1), "us"),
        "walsh.butterfly_ms": (med(lambda t: t["butterfly"]), "ms"),
        "walsh.ns_per_coef": (med(lambda t: t["butterfly"]) * 1e6 / coefs, "ns"),
        "nonlinearity.reduce_ms": (med(lambda t: t["reduce"]), "ms"),
        "parallel.overhead_ms": (med(lambda t: t["parallel_1w"] - build_path(t) - t["butterfly"]), "ms"),
        "parallel.speedup_2w": (med(lambda t: t["parallel_1w"] / t["parallel_2w"]), "x"),
        "memory.spectrum_peak_mib": (med(lambda t: t["spectrum_peak_bytes"]) / 2**20, "MiB"),
        "memory.estimate_mib": (med(lambda t: t["estimate_bytes"]) / 2**20, "MiB"),
        "trace.coverage": (med(lambda t: layers(t) / t["eval"]), "ratio"),
        "trace.overhead_ms": (med(lambda t: t["box"] - t["eval"]), "ms"),
    }
    return metrics, {"import_ms": imports, "boxes": spans}


def host() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    w = WORKLOADS[name]
    tally = Tally()
    metrics, samples = (trace if traced else measure)(w, seed, seconds, tally)
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(f"{name}: attempted {tally.attempted}, failed {tally.failed}, correct {tally.correct}")
    for k, (v, u) in metrics.items():
        print(f"  {k:<26} {v:12.4f} {u}")
    for problem in tally.problems[:10]:
        print(f"  FAILED: {problem}", file=sys.stderr)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced), "host": host(),
              "result": result, "samples": samples}
    (OUT / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(record, indent=1))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sboxeval" / "__init__.py").is_file():
        print(f"error: no sboxeval sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
