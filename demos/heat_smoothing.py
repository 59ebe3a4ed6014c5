"""Heat-semigroup smoothing of white noise, measured in Besov scales.

Spatial white noise on the 2-torus sits at regularity -1 (in the L^2
block scale).  Applying the heat semigroup for a time t buys delta
derivatives at the cost of a factor t^{-delta/2}.  This script measures
that exponent with the discrete Besov estimator and a least-squares fit.
"""

import numpy as np

from parafield import (NoiseSpec, besov_norm, enhance, make_grid, noise_slices,
                       semigroup)

N = 64
N_SAMPLES = 8
grid = make_grid(N)
spec = NoiseSpec(seed=1)
ts = 2.0 ** np.arange(-10, -2)

print(f"heat smoothing on a {N} x {N} grid, {N_SAMPLES} noise samples")
for delta in (0.5, 1.0):
    logs = np.zeros(ts.size)
    for s in range(N_SAMPLES):
        # the raw noise (eps = 0) of stream s, read at its one time
        [xi] = next(noise_slices([enhance(spec, 0.0, grid, [0.0], s)]))
        denom = besov_norm(xi, -1.0, 2)
        for i, t in enumerate(ts):
            num = besov_norm(semigroup(xi, float(t)), -1.0 + delta, 2)
            logs[i] += np.log(num / denom) / N_SAMPLES
    slope = np.polyfit(np.log(ts), logs, 1)[0]
    print(f"  delta = {delta}: measured slope {slope:+.4f}, "
          f"theory {-delta / 2:+.4f}")
