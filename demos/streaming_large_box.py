#!/usr/bin/env python3
# Evaluating a large box without the large spectrum. Retain mode holds all
# (2^m - 1) x 2^n spectrum integers; stream mode holds one block buffer per
# worker and throws each block of columns away once its maxima are harvested. The
# allocation tracker shows the difference is exactly what the estimate says.

from sboxeval import (
    fwht_parallel,
    generate_sbox,
    memory_estimate,
    nonlinearity_from_maxima,
    spectrum_allocations,
)

n = m = 12
workers = 2
s = generate_sbox(n, m, seed=7, bijective=True)
print(f"box: random bijective {n}x{m}")
print(f"estimate, retain: {memory_estimate(n, m):>12,} bytes")
print(f"estimate, stream: {memory_estimate(n, m, mode='stream', workers=workers):>12,}"
      f" bytes ({workers} workers)")
print()

spectrum_allocations.reset_peak()
_, maxima = fwht_parallel(s, workers=workers, mode="retain")
retain_peak = spectrum_allocations.peak_bytes
retain_nl = nonlinearity_from_maxima(maxima).value

spectrum_allocations.reset_peak()
_, maxima = fwht_parallel(s, workers=workers, mode="stream")
stream_peak = spectrum_allocations.peak_bytes
stream_nl = nonlinearity_from_maxima(maxima).value

print(f"measured peak, retain: {retain_peak:>12,} bytes   nl = {retain_nl}")
print(f"measured peak, stream: {stream_peak:>12,} bytes   nl = {stream_nl}")
print()
print(f"stream keeps {retain_peak // max(stream_peak, 1)}x less spectrum storage "
      "resident and returns the same answer.")
print()
print("At 16x16 the retained spectrum alone is "
      f"{memory_estimate(16, 16) / 2**30:.0f} GiB, while streaming with 10 "
      f"workers needs {memory_estimate(16, 16, mode='stream', workers=10) / 2**20:.0f} MiB.")
