"""Self-test of the benchmark's checks at tiny shapes, with a negative control.

    python3 perfbench/selftest.py

1. The Hadamard-product reference equals the defining sum
   W(u, v) = sum_x (-1)^{v.S(x) XOR u.x} entry by entry.
2. Genuine sboxeval outputs pass every check, and AES gives nl = 112.
3. One corrupted nl value and one corrupted spectrum entry each count as a
   failed evaluation.
Exits 1 if any of these does not hold.
"""

from __future__ import annotations

import sys

import numpy as np

from reference import spectrum_blocks
from run import SRC, Tally, Workload, aes_table

sys.path.insert(0, str(SRC))
import sboxeval as se  # noqa: E402

SHAPES = [(1, 1), (3, 3), (4, 4), (4, 6), (5, 3), (6, 2)]


def parity(a: np.ndarray) -> np.ndarray:
    return (np.bitwise_count(a) & 1).astype(np.int64)


def defining_sum(table: np.ndarray, n: int, m: int) -> np.ndarray:
    x = np.arange(1 << n, dtype=np.uint32)
    v = np.arange(1, 1 << m, dtype=np.uint32)
    g = parity(v[:, None] & table[None, :])  # (mask, x)
    lin = parity(x[:, None] & x[None, :])  # (u, x)
    return ((-1) ** (g[:, None, :] ^ lin[None, :, :])).sum(axis=2)


def tally_of(w: Workload, table: np.ndarray, reply: dict, is_aes: bool = False) -> Tally:
    tally = Tally()
    tally.check(w, table, reply, is_aes)
    return tally


def main() -> int:
    errors: list[str] = []
    rng = np.random.default_rng(0)
    for n, m in SHAPES:
        bijective = n == m
        table = (rng.permutation(1 << n) if bijective else rng.integers(0, 1 << m, 1 << n)).astype(np.uint32)
        w = Workload(n, m, bijective, "retain", probe_ref_ms=1.0, spectrum=True)
        ref = np.concatenate([block for _, block in spectrum_blocks(table, n, m)])
        if not np.array_equal(ref, defining_sum(table, n, m)):
            errors.append(f"{n}x{m}: reference differs from the defining sum")

        spectrum, _ = se.fwht_parallel(se.SBox(n, m, table), workers=2, mode="retain")
        result = se.nonlinearity_from_spectrum(spectrum)
        reply = {"nl": result.value, "argmin_v": result.argmin_v, "spectrum": spectrum.rows}
        if tally_of(w, table, reply).failed:
            errors.append(f"{n}x{m}: a genuine evaluation failed the checks")

        bad_nl = dict(reply, nl=result.value + 1)
        bad_entry = dict(reply, spectrum=spectrum.rows.copy())
        bad_entry["spectrum"][-1, -1] += 2  # keeps parity, breaks Parseval and the reference
        for what, bad in (("nl value", bad_nl), ("spectrum entry", bad_entry)):
            t = tally_of(w, table, bad)
            if (t.attempted, t.failed, t.correct) != (1, 1, False):
                errors.append(f"{n}x{m}: a corrupted {what} was not counted as a failed evaluation")

    aes = aes_table()
    w8 = Workload(8, 8, True, "retain", probe_ref_ms=1.0, aes_first=True)
    result = se.evaluate(se.SBox(8, 8, aes), method="parallel", workers=2)
    reply = {"nl": result.value, "argmin_v": result.argmin_v}
    if result.value != 112 or tally_of(w8, aes, reply, is_aes=True).failed:
        errors.append(f"AES: nl {result.value} at v = {result.argmin_v} did not pass as 112")
    if not tally_of(w8, aes, dict(reply, nl=111), is_aes=True).failed:
        errors.append("AES: nl 111 was not counted as a failed evaluation")

    for e in errors:
        print(f"FAIL {e}")
    print("selftest:", "FAILED" if errors else f"ok ({len(SHAPES)} shapes and AES, with negative controls)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
