"""S-box representation, parsing, generation, and polarity truth tables.

An S-box maps n-bit inputs to m-bit outputs through a lookup table of 2^n
entries.  Bit i of an entry is the i-th coordinate function; the XOR of the
coordinates selected by an output mask v is the component combination g_v,
and its +/-1 (polarity) form is what the Walsh transform consumes.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .memory import RETAIN_BLOCK_ENTRIES, block_rows, check_budget, memory_estimate

MAX_BITS = 24  # keeps index math in 64-bit range and memory bounded

# AES SubBytes table (FIPS-197).
AES_SBOX = (
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B, 0xFE, 0xD7, 0xAB, 0x76,
    0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0, 0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0,
    0xB7, 0xFD, 0x93, 0x26, 0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2, 0xEB, 0x27, 0xB2, 0x75,
    0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0, 0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84,
    0x53, 0xD1, 0x00, 0xED, 0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F, 0x50, 0x3C, 0x9F, 0xA8,
    0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5, 0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2,
    0xCD, 0x0C, 0x13, 0xEC, 0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14, 0xDE, 0x5E, 0x0B, 0xDB,
    0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C, 0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79,
    0xE7, 0xC8, 0x37, 0x6D, 0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F, 0x4B, 0xBD, 0x8B, 0x8A,
    0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E, 0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E,
    0xE1, 0xF8, 0x98, 0x11, 0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F, 0xB0, 0x54, 0xBB, 0x16,
)


class SBoxFormatError(ValueError):
    """Malformed .sbox input; carries the offending line number (1-based)."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True, eq=False)
class SBox:
    """Lookup table of 2^n unsigned m-bit words, immutable after construction."""

    n: int
    m: int
    table: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (1 <= self.n <= MAX_BITS):
            raise ValueError(f"n must be in 1..{MAX_BITS}, got {self.n}")
        if not (1 <= self.m <= MAX_BITS):
            raise ValueError(f"m must be in 1..{MAX_BITS}, got {self.m}")
        table = np.ascontiguousarray(self.table, dtype=np.uint32)
        if table.shape != (1 << self.n,):
            raise ValueError(
                f"table must have {1 << self.n} entries, got {table.size}"
            )
        if table.size and int(table.max()) >= (1 << self.m):
            bad = int(np.argmax(table >= (1 << self.m)))
            raise ValueError(
                f"entry {int(table[bad])} at index {bad} does not fit in "
                f"{self.m} bits"
            )
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SBox):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and np.array_equal(self.table, other.table)
        )


def aes_sbox() -> SBox:
    return SBox(8, 8, np.array(AES_SBOX, dtype=np.uint32))


def identity_sbox(n: int) -> SBox:
    return SBox(n, n, np.arange(1 << n, dtype=np.uint32))


def generate_sbox(n: int, m: int, seed: int, bijective: bool = False) -> SBox:
    """Deterministic random S-box; bijective mode shuffles 0..2^n-1 (needs n == m)."""
    if bijective and n != m:
        raise ValueError(f"bijective S-box requires n == m, got {n}x{m}")
    rng = np.random.default_rng(seed)
    if bijective:
        table = rng.permutation(1 << n).astype(np.uint32)
    else:
        table = rng.integers(0, 1 << m, size=1 << n, dtype=np.uint32)
    return SBox(n, m, table)


# Kept with polarity_truth_table for the per-layer trace of perfbench/worker.py.
@dataclass(frozen=True)
class PolarityTruthTable:
    """(2^m - 1) x 2^n matrix; rows[v-1][x] = (-1)^{g_v(x)} for masks v = 1..2^m-1.

    Mask-major storage: each row is one component combination, contiguous in
    memory, so per-column transforms sweep a single array.  The all-zero mask
    is omitted (its combination is constant and carries no information).
    """

    n: int
    m: int
    rows: np.ndarray = field(repr=False)


def polarity_rows(s: SBox, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
    """Fill out[i] with the polarity row of mask lo + i, for masks lo..hi-1.

    One broadcast over the whole (hi - lo, 2^n) block: +1 where g_v(x) = 0,
    -1 where g_v(x) = 1.  ``out`` may be any view of that shape, strided or
    not; temporaries are the size of the block.
    """
    masks = np.arange(lo, hi, dtype=np.uint32)
    out[...] = np.bitwise_count(masks[:, None] & s.table[None, :]) & np.uint8(1)
    out *= -2
    out += 1
    return out


# Kept for the per-layer trace of perfbench/worker.py, which fills row by row.
def polarity_row(s: SBox, v: int, out: np.ndarray | None = None) -> np.ndarray:
    """Fill (or allocate) one polarity row: +1 where g_v(x)=0, -1 where g_v(x)=1."""
    if out is None:
        out = np.empty(1 << s.n, dtype=np.int32)
    polarity_rows(s, v, v + 1, out[None])
    return out


def fill_polarity(s: SBox, rows: np.ndarray) -> None:
    """Fill every row of a (2^m - 1) x 2^n view, one block of masks per call."""
    step = block_rows(s.n, RETAIN_BLOCK_ENTRIES)
    for lo in range(1, 1 << s.m, step):
        hi = min(lo + step, 1 << s.m)
        polarity_rows(s, lo, hi, rows[lo - 1 : hi - 1])


# Kept for the per-layer trace of perfbench/worker.py (its "build" layer).
def polarity_truth_table(s: SBox, max_bytes: int | None = None) -> PolarityTruthTable:
    check_budget(memory_estimate(s.n, s.m, mode="retain"), max_bytes)
    rows = np.empty(((1 << s.m) - 1, 1 << s.n), dtype=np.int32)
    fill_polarity(s, rows)
    return PolarityTruthTable(s.n, s.m, rows)


def _parse_int(token: str) -> int:
    if token.lower().startswith("0x"):
        return int(token, 16)
    return int(token, 10)


def parse_sbox(text: str) -> SBox:
    """Parse the .sbox text format.

    Line 1 holds "n m"; the remaining whitespace-separated tokens are the
    2^n entries, decimal or 0x-hex.  '#' starts a comment to end of line.
    """
    header: tuple[int, int] | None = None
    entries: list[int] = []
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if header is None:
            if not tokens:
                continue
            if len(tokens) != 2:
                raise SBoxFormatError(
                    f"header must be 'n m', got {len(tokens)} token(s)", lineno
                )
            try:
                n, m = _parse_int(tokens[0]), _parse_int(tokens[1])
            except ValueError:
                raise SBoxFormatError(
                    f"non-numeric header token in {tokens!r}", lineno
                ) from None
            if not (1 <= n <= MAX_BITS) or not (1 <= m <= MAX_BITS):
                raise SBoxFormatError(
                    f"n and m must be in 1..{MAX_BITS}, got {n} and {m}", lineno
                )
            header = (n, m)
            continue
        n, m = header
        for pos, tok in enumerate(tokens, start=1):
            try:
                value = _parse_int(tok)
            except ValueError:
                raise SBoxFormatError(
                    f"non-numeric entry {tok!r} (token {pos})", lineno
                ) from None
            if not (0 <= value < (1 << m)):
                raise SBoxFormatError(
                    f"entry {value} (token {pos}) does not fit in {m} bits",
                    lineno,
                )
            entries.append(value)
    if header is None:
        raise SBoxFormatError("empty input: missing 'n m' header")
    n, m = header
    expected = 1 << n
    if len(entries) != expected:
        raise SBoxFormatError(f"expected {expected} entries, found {len(entries)}")
    return SBox(n, m, np.array(entries, dtype=np.uint32))


def render_sbox(s: SBox) -> str:
    """Inverse of parse_sbox: header line, then 16 hex entries per line."""
    digits = (s.m + 3) // 4
    lines = [f"{s.n} {s.m}"]
    table = s.table
    for start in range(0, table.size, 16):
        chunk = table[start : start + 16]
        lines.append(" ".join(f"0x{int(e):0{digits}X}" for e in chunk))
    return "\n".join(lines) + "\n"
