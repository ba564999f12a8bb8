"""Every entry of the method registry against the oracles, on edge shapes."""

import pytest

from sboxeval import (
    METHODS,
    generate_sbox,
    memory_estimate,
    nonlinearity_bruteforce,
    spectrum_allocations,
    walsh_direct,
)
from sboxeval.nonlinearity import STREAM_METHODS, WORKER_METHODS

# n = 1, m >> n, n >> m, and both skews of an odd pair
EDGE_SHAPES = [(1, 1), (1, 6), (6, 1), (3, 5), (5, 3)]
WORKERS = 3

CASES = [
    (method, shape, mode)
    for method in METHODS
    for shape in EDGE_SHAPES
    for mode in (("retain", "stream") if method in STREAM_METHODS else ("retain",))
]


@pytest.mark.parametrize("method,shape,mode", CASES)
def test_registry_entry_matches_oracles(method, shape, mode):
    n, m = shape
    s = generate_sbox(n, m, seed=10 * n + m)
    spectrum_allocations.reset_peak()
    result, spectrum = METHODS[method](s, WORKERS, mode, None, None)

    brute = nonlinearity_bruteforce(s)
    assert (result.value, result.argmin_v) == (brute.value, brute.argmin_v)

    if mode == "stream":
        assert spectrum is None
    if spectrum is not None:
        assert spectrum.rows.shape == ((1 << m) - 1, 1 << n)
        for v in range(1, 1 << m):
            for u in range(1 << n):
                assert spectrum.value(u, v) == walsh_direct(s, u, v)

    workers = WORKERS if method in WORKER_METHODS else 1
    estimate = memory_estimate(n, m, mode=mode, workers=workers)
    assert spectrum_allocations.peak_bytes <= estimate
    assert spectrum_allocations.current_bytes == 0
