#!/usr/bin/env python3
# Why trust the butterfly? Because the slow definitions say the same thing.
# This walkthrough takes one random 5x5 bijection and checks every fast-path
# number against an independent route:
#   * each spectrum entry against the literal correlation sum,
#   * the per-column maxima against a rescan of the retained spectrum,
#   * the nonlinearity against an exhaustive affine-distance search,
#   * each row against the Parseval identity sum(W^2) = 2^{2n}.

import numpy as np

from sboxeval import (
    fwht_parallel,
    generate_sbox,
    nonlinearity_bruteforce,
    nonlinearity_from_maxima,
    nonlinearity_from_spectrum,
    walsh_direct,
)

s = generate_sbox(5, 5, seed=3, bijective=True)
print(f"box: random bijective {s.n}x{s.m}, seed 3")

spectrum, maxima = fwht_parallel(s, 1, "retain")

mismatches = sum(
    int(spectrum.rows[v - 1, u]) != walsh_direct(s, u, v)
    for v in range(1, 32)
    for u in range(32)
)
print(f"butterfly vs direct sum: {992 - mismatches}/992 entries equal")

rescan = (32 - np.abs(spectrum.rows).max(axis=1)) // 2
print(f"fused maxima vs spectrum rescan: "
      f"{'identical' if np.array_equal(maxima.values, rescan) else 'DIFFER'}")

scan = nonlinearity_from_spectrum(spectrum)
reduced = nonlinearity_from_maxima(maxima)
brute = nonlinearity_bruteforce(s)
print(f"nl by spectrum scan   = {scan.value} (argmin v = {scan.argmin_v})")
print(f"nl by maxima reduce   = {reduced.value} (argmin v = {reduced.argmin_v})")
print(f"nl by affine distance = {brute.value} (argmin v = {brute.argmin_v})")

parseval = np.sum(spectrum.rows.astype(np.int64) ** 2, axis=1)
print(f"Parseval rows holding sum(W^2) = 2^10: "
      f"{int(np.count_nonzero(parseval == 1024))}/31")

# bijections have balanced components: W(0, v) = 0 for every v != 0
print(f"balanced components (W(0,v)=0): "
      f"{int(np.count_nonzero(spectrum.rows[:, 0] == 0))}/31")
