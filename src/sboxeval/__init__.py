"""Walsh-Hadamard spectra and nonlinearity of S-boxes.

One transform engine, ``fwht_parallel``, keeps each spectrum column in one
contiguous row of a mask-major (transposed) store, fills and transforms
cache-sized blocks of those rows, harvests per-column maxima from each
finished block, and gives each thread of a pool a contiguous run of whole
blocks from the storage plan, with bit-identical results for any worker
count.  Rows shorter than 2^16 entries take the integer butterfly, one numpy
call per step; longer rows take exact float32 BLAS products, one per
Sylvester factor of H_n.  Brute-force oracles (the defining spectrum
sum and the affine-distance search) back every fast path.
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
    MethodOptionError,
    NonlinearityResult,
    SizeCapError,
    check_method,
    evaluate,
    nonlinearity_bruteforce,
    nonlinearity_from_maxima,
    nonlinearity_from_spectrum,
)
from .parallel import default_workers, fwht_parallel
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
    "MethodOptionError",
    "NonlinearityResult",
    "PolarityTruthTable",
    "SBox",
    "SBoxFormatError",
    "SizeCapError",
    "SpeedupRow",
    "WalshSpectrum",
    "aes_sbox",
    "check_method",
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
