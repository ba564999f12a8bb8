"""Walsh-Hadamard spectra and nonlinearity of S-boxes.

One transform engine, ``fwht_parallel``, keeps each spectrum column in one
contiguous row of a mask-major (transposed) store, fills and butterflies
cache-sized blocks of those rows with one numpy call per step, harvests
per-column maxima from each finished block, and spreads the columns over a
thread pool by a static partition, with bit-identical results for any
worker count.  Brute-force oracles (the defining spectrum sum and the
affine-distance search) back every fast path.
"""

from .bench import (
    BenchRecord,
    BenchVerificationError,
    SpeedupRow,
    read_csv,
    run_benchmark,
    speedup_report,
    write_csv,
)
from .memory import MemoryBudgetError, memory_estimate, spectrum_allocations
from .nonlinearity import (
    METHODS,
    NonlinearityResult,
    SizeCapError,
    evaluate,
    nonlinearity_bruteforce,
    nonlinearity_from_maxima,
    nonlinearity_from_spectrum,
)
from .parallel import (
    default_workers,
    fwht_parallel,
    partition_columns,
)
from .sbox import (
    AES_SBOX,
    PolarityTruthTable,
    SBox,
    SBoxFormatError,
    aes_sbox,
    generate_sbox,
    identity_sbox,
    parse_sbox,
    polarity_row,
    polarity_rows,
    polarity_truth_table,
    render_sbox,
)
from .walsh import (
    ColumnMaxima,
    WalshSpectrum,
    fwht_column_in_place,
    fwht_rowmajor,
    fwht_rows_in_place,
    walsh_direct,
    write_spectrum,
)

__all__ = [
    "AES_SBOX",
    "BenchRecord",
    "BenchVerificationError",
    "ColumnMaxima",
    "METHODS",
    "MemoryBudgetError",
    "NonlinearityResult",
    "PolarityTruthTable",
    "SBox",
    "SBoxFormatError",
    "SizeCapError",
    "SpeedupRow",
    "WalshSpectrum",
    "aes_sbox",
    "default_workers",
    "evaluate",
    "fwht_column_in_place",
    "fwht_parallel",
    "fwht_rowmajor",
    "fwht_rows_in_place",
    "generate_sbox",
    "identity_sbox",
    "memory_estimate",
    "nonlinearity_bruteforce",
    "nonlinearity_from_maxima",
    "nonlinearity_from_spectrum",
    "parse_sbox",
    "partition_columns",
    "polarity_row",
    "polarity_rows",
    "polarity_truth_table",
    "read_csv",
    "render_sbox",
    "run_benchmark",
    "spectrum_allocations",
    "speedup_report",
    "walsh_direct",
    "write_csv",
    "write_spectrum",
]

__version__ = "0.1.0"
