"""The renormalization constant and its logarithmic divergence.

The resonant product of the mollified noise with its Duhamel integral
has a diverging expectation c_eps ~ kappa log(1/eps).  The analytic
per-mode formula is fitted against log(1/eps) and cross-checked with a
small Monte Carlo estimate at one mollification level.
"""

import numpy as np

from parafield import (NoiseSpec, enhance, final_slice, make_grid,
                       renorm_constant)
from parafield.bony import resonant

N = 32
grid = make_grid(N)
spec = NoiseSpec(seed=7)
times = np.array([0.0, 0.5, 1.0])
ladder = [2.0 ** -k for k in range(2, 8)]

cs = [float(renorm_constant(spec, e, times, grid)(1.0)) for e in ladder]
xs = np.log(1.0 / np.asarray(ladder))
kappa, b = np.polyfit(xs, cs, 1)
print(f"c_eps(t = 1) on a {N} x {N} grid:")
for e, c in zip(ladder, cs):
    print(f"  eps = {e:<8.5g} c_eps = {c:.4f}")
print(f"  linear fit: c_eps ~ {kappa:.3f} log(1/eps) {b:+.3f}")

eps_mc, n_mc = 0.1, 64
vals = np.empty(n_mc)
noises = enhance(spec, eps_mc, grid, times, stream_id=range(n_mc))
for s, en in enumerate(noises):
    [xi], [X] = final_slice([en])  # only the final X slice is made
    vals[s] = resonant(X, xi).mean()
c_ref = float(noises[0].c_eps(1.0))
print(f"  Monte Carlo at eps = {eps_mc}: {vals.mean():.4f} "
      f"+/- {vals.std(ddof=1) / np.sqrt(n_mc):.4f} (analytic {c_ref:.4f})")
