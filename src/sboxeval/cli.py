"""Command-line frontend: evaluate, dump, benchmark, generate, verify.

Results go to stdout; everything else goes to stderr so output can be piped.
Exit codes are stable: 0 success, 1 usage, 2 parse, 3 memory budget,
4 size guard, 5 verification failure.  Any other exception is a bug and
propagates with its traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Sequence

import numpy as np

from . import bench
from .memory import MemoryBudgetError, default_budget
from .nonlinearity import (
    METHODS,
    MethodOptionError,
    SizeCapError,
    check_method,
    evaluate,
    nonlinearity_bruteforce,
    nonlinearity_from_maxima,
    nonlinearity_from_spectrum,
)
from .parallel import default_workers, fwht_parallel
from .sbox import MAX_BITS, SBox, SBoxFormatError, generate_sbox, parse_sbox, render_sbox
from .walsh import fwht_rowmajor, walsh_direct, write_spectrum

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_MEMORY = 3
EXIT_SIZE = 4
EXIT_VERIFY = 5

WSPEC_MAX_BITS = 10  # text dumps beyond 10x10 are multi-GiB
VERIFY_MAX_BITS = 8  # the direct oracle sweep is O(2^{2n+m})

MAX_MEM_ENV = "SBOX_EVAL_MAX_MEM"


class UsageError(Exception):
    """Command-line input that argparse cannot reject on its own (exit 1)."""


# The exit code of every error the CLI reports, found along the exception's MRO.
EXIT_CODES = {
    UsageError: EXIT_USAGE,
    MethodOptionError: EXIT_USAGE,
    SBoxFormatError: EXIT_PARSE,
    UnicodeDecodeError: EXIT_PARSE,
    OSError: EXIT_PARSE,
    MemoryBudgetError: EXIT_MEMORY,
    MemoryError: EXIT_MEMORY,
    SizeCapError: EXIT_SIZE,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_in(low: int, high: int | None = None):
    """argparse type: an integer in low..high, unbounded above when high is None."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low or (high is not None and value > high):
            bound = f">= {low}" if high is None else f"in {low}..{high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


_positive_int = _int_in(1)
_byte_count = _int_in(0)
_bit_count = _int_in(1, MAX_BITS)


def _load_sbox(path: str) -> SBox:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_sbox(fh.read())


def _resolve_budget(args) -> int | None:
    if getattr(args, "max_mem", None) is not None:
        return args.max_mem
    env = os.environ.get(MAX_MEM_ENV)
    if env is not None:
        try:
            return _byte_count(env)
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"{MAX_MEM_ENV}: {exc}") from None
    return default_budget()


@contextlib.contextmanager
def _output(path: str | None):
    """The file at ``path`` opened for writing (a usage error if it cannot be), or stdout."""
    if path is None:
        yield sys.stdout
        return
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write --out {path}: {exc.strerror or exc}") from None
    with fh:
        yield fh


def cmd_nl(args) -> int:
    check_method(args.method, args.workers, args.mode)
    budget = _resolve_budget(args)
    s = _load_sbox(args.path)
    result = evaluate(s, method=args.method, workers=args.workers, mode=args.mode, max_bytes=budget)
    print(f"nl = {result.value} (argmin v = {result.argmin_v})")
    return EXIT_OK


def cmd_walsh(args) -> int:
    s = _load_sbox(args.path)
    if s.n > WSPEC_MAX_BITS or s.m > WSPEC_MAX_BITS:
        raise SizeCapError(
            f"refusing to dump a {s.n}x{s.m} spectrum as text "
            f"(limit {WSPEC_MAX_BITS}x{WSPEC_MAX_BITS})"
        )
    spectrum, _ = fwht_parallel(s, 1, "retain", _resolve_budget(args))
    with _output(args.out) as out:
        write_spectrum(spectrum, out)
    return EXIT_OK


def cmd_bench(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise UsageError(f"--methods names no method; choose from {tuple(METHODS)}")
    for m in methods:
        check_method(m, mode=args.mode)
    try:
        workers = [_positive_int(w) for w in args.workers.split(",")]
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"--workers: {exc}") from None
    budget = _resolve_budget(args)
    s = _load_sbox(args.path)
    # Opened first, so an unwritable --out fails before any run is timed.
    with _output(args.out) as out:
        records = bench.run_benchmark(
            s,
            methods,
            worker_counts=workers,
            repetitions=args.reps,
            mode=args.mode,
            max_bytes=budget,
        )
        bench.write_csv(records, out)
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.bijective and args.n != args.m:
        raise UsageError(f"--bijective requires n == m, got {args.n}x{args.m}")
    s = generate_sbox(args.n, args.m, args.seed, args.bijective)
    with _output(args.out) as out:
        out.write(render_sbox(s))
    return EXIT_OK


def _check(name: str, ok: bool, failures: list[str]) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}")
    if not ok:
        failures.append(name)


def cmd_verify(args) -> int:
    s = _load_sbox(args.path)
    if s.n > VERIFY_MAX_BITS or s.m > VERIFY_MAX_BITS:
        raise SizeCapError(
            f"verify needs n, m <= {VERIFY_MAX_BITS} (oracle cost); got {s.n}x{s.m}"
        )
    budget = _resolve_budget(args)
    max_workers = args.max_workers or default_workers()

    ref_spec, maxima = fwht_parallel(s, 1, "retain", budget)
    spectrum = ref_spec
    if args.inject_corruption:
        rows = spectrum.rows.copy()
        rows[0, 0] += 2  # negative control: break one spectrum element
        spectrum = type(spectrum)(spectrum.n, spectrum.m, rows)

    failures: list[str] = []

    oracle_ok = np.array_equal(fwht_rowmajor(s, budget).rows, spectrum.rows)
    if oracle_ok:
        for v in range(1, 1 << s.m):
            row = spectrum.rows[v - 1]
            if any(int(row[u]) != walsh_direct(s, u, v) for u in range(1 << s.n)):
                oracle_ok = False
                break
    _check("direct-oracle equivalence", oracle_ok, failures)

    sums = np.sum(spectrum.rows.astype(np.int64) ** 2, axis=1)
    _check("parseval", bool(np.all(sums == 1 << (2 * s.n))), failures)

    scan = nonlinearity_from_spectrum(spectrum)
    reduced = nonlinearity_from_maxima(maxima)
    brute = nonlinearity_bruteforce(s)
    _check(
        "triple nonlinearity agreement",
        scan.value == reduced.value == brute.value,
        failures,
    )
    print(f"nl = {reduced.value}", file=sys.stderr)

    # An 8x8 box is one retain block but 128 stream blocks, so only the
    # stream runs put a second thread to work.
    det_ok = True
    for workers in range(2, max_workers + 1):
        spec_w, cm_w = fwht_parallel(s, workers=workers, max_bytes=budget)
        _, cm_stream = fwht_parallel(s, workers, "stream", budget)
        if not (
            np.array_equal(spec_w.rows, ref_spec.rows)
            and np.array_equal(cm_w.values, maxima.values)
            and np.array_equal(cm_stream.values, maxima.values)
        ):
            det_ok = False
            break
    _check(f"thread determinism (1..{max_workers} workers)", det_ok, failures)

    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="sbox-eval", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, modes=True):
        p.add_argument("--max-mem", type=_byte_count, default=None, metavar="BYTES",
                       help=f"spectrum memory budget (default: env {MAX_MEM_ENV} "
                            "or 75%% of physical RAM)")
        if modes:
            p.add_argument("--mode", choices=("retain", "stream"), default="retain",
                           help="keep the whole spectrum, or stream one block "
                                "of rows per worker (default: retain)")

    p_nl = sub.add_parser("nl", help="compute the nonlinearity of an S-box")
    p_nl.add_argument("path", help=".sbox file")
    p_nl.add_argument("--method", choices=METHODS, default="parallel")
    p_nl.add_argument("--workers", type=_positive_int, default=None,
                      help="worker count for --method parallel (default: all cores)")
    add_common(p_nl)
    p_nl.set_defaults(func=cmd_nl)

    p_walsh = sub.add_parser("walsh", help="dump the Walsh spectrum as text")
    p_walsh.add_argument("path", help=".sbox file")
    p_walsh.add_argument("--out", default=None, help=".wspec output (default: stdout)")
    add_common(p_walsh, modes=False)
    p_walsh.set_defaults(func=cmd_walsh)

    p_bench = sub.add_parser("bench", help="time the transform variants")
    p_bench.add_argument("path", help=".sbox file")
    p_bench.add_argument("--methods", default="rowmajor,transposed,fused,parallel",
                         help="comma-separated method list")
    p_bench.add_argument("--workers", default="1",
                         help="comma-separated worker counts for parallel runs")
    p_bench.add_argument("--reps", type=_positive_int, default=5)
    p_bench.add_argument("--out", default=None, help="CSV output (default: stdout)")
    add_common(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_gen = sub.add_parser("gen", help="generate a random S-box")
    p_gen.add_argument("n", type=_bit_count)
    p_gen.add_argument("m", type=_bit_count)
    p_gen.add_argument("--seed", type=_int_in(0), default=0)
    p_gen.add_argument("--bijective", action="store_true")
    p_gen.add_argument("--out", default=None, help=".sbox output (default: stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_verify = sub.add_parser("verify", help="run the oracle and invariant checks")
    p_verify.add_argument("path", help=".sbox file")
    p_verify.add_argument("--max-workers", type=_positive_int, default=None,
                          help="upper end of the determinism sweep")
    p_verify.add_argument("--inject-corruption", action="store_true",
                          help=argparse.SUPPRESS)
    add_common(p_verify, modes=False)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        code = next(EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in EXIT_CODES)
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        if code == EXIT_MEMORY:
            print("hint: --mode stream avoids retaining the full spectrum",
                  file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
