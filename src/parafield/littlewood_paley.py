"""Dyadic frequency decomposition and a discrete Besov estimator.

The blocks are sharp annular indicators: block -1 holds the zero mode
only, block l >= 0 holds Euclidean wavenumbers in [2^l, 2^{l+1}).  This
gives an exact partition of unity on the retained modes, hence exact
reconstruction and an exact Bony identity downstream.  The partition
is a function of the grid alone: ``dyadic_blocks`` builds it once per
grid size, and every operator that needs blocks looks it up from the
grid of its input, so no caller chooses or passes one.  A Field keeps
its own dealiased block stack (``DyadicPartition.dealiased_blocks``),
so an operand that enters several Bony products is transformed once,
and the stack is freed with the Field.  A dealiased stack omits the
top block l = L_max: it holds |k| >= N/2, while the 2/3 rule keeps
|kx|, |ky| <= N//3, so |k| <= sqrt(2) N/3 and that block of a
dealiased spectrum is exactly zero.

The discrete Besov quantity is an *estimator*: tests downstream use
trends and ratios, never absolute constants.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .torus import Field, TorusGrid

__all__ = [
    "DyadicPartition",
    "dyadic_blocks",
    "besov_norm",
]

class DyadicPartition:
    """Littlewood-Paley block weights rho_l on a torus grid.

    ``weights[i]`` corresponds to block index ``ells[i]``; the weights
    sum to one on every non-Nyquist mode.
    """

    def __init__(self, grid: TorusGrid):
        self.grid = grid
        N = grid.N
        self.L_max = int(np.ceil(np.log2(N / 2)))
        self.ells = list(range(-1, self.L_max + 1))
        absk = np.sqrt(grid.k2)
        keep = ~grid.nyquist
        ws = []
        for ell in self.ells:
            if ell == -1:
                w = (absk < 1.0).astype(np.float64)
            else:
                w = ((absk >= 2.0 ** ell) & (absk < 2.0 ** (ell + 1)))
                w = w.astype(np.float64)
            ws.append(w * keep)
        self.weights = np.stack(ws)
        self.weights.flags.writeable = False
        # diagonal resonant weight sum_{|i-j|<=1} rho_i rho_j per mode
        wr = np.zeros_like(absk)
        for i in range(len(ws)):
            for j in range(max(0, i - 1), min(len(ws), i + 2)):
                wr += ws[i] * ws[j]
        wr.flags.writeable = False
        self.resonant_weight = wr

    def block_fields(self, spectrum: np.ndarray,
                     stop: int | None = None) -> np.ndarray:
        """The block projections ``weights[:stop]`` (all by default) of a
        spectrum on the grid, as values of shape (n_blocks, N, N)."""
        N = self.grid.N
        return np.fft.irfft2(self.weights[:stop] * spectrum[None, :, :],
                             s=(N, N))

    def dealiased_blocks(self, f: Field) -> np.ndarray:
        """``block_fields(f.spectrum * f.grid.dealias)`` without its top
        block, which dealiasing empties; read-only, blocks -1 .. L_max-1.

        The stack is kept on the Field, which is immutable, on first
        use.  Two threads that fill it at once compute the same bits, so
        it takes no lock.
        """
        blocks = f._blocks
        if blocks is None:
            blocks = self.block_fields(f.spectrum * f.grid.dealias, stop=-1)
            blocks.flags.writeable = False
            f._blocks = blocks
        return blocks


@lru_cache(maxsize=None)
def dyadic_blocks(grid: TorusGrid) -> DyadicPartition:
    """The partition of the grid, built on the first call for its size."""
    return DyadicPartition(grid)


def _lq_norm(vals: np.ndarray, q, spacing: float) -> float:
    if np.isinf(q):
        return float(np.max(np.abs(vals)))
    return float((np.sum(np.abs(vals) ** q) * spacing ** 2) ** (1.0 / q))


def besov_norm(f: Field, gamma: float, q_space=np.inf,
               q_sum=np.inf) -> float:
    """Discrete Besov estimator: l^{q_sum} over blocks of 2^{l*gamma} ||Delta_l f||_{L^{q_space}}."""
    part = dyadic_blocks(f.grid)
    blocks = part.block_fields(f.spectrum)
    terms = np.array([
        2.0 ** (ell * gamma) * _lq_norm(blocks[i], q_space, f.grid.spacing)
        for i, ell in enumerate(part.ells)
    ])
    if np.isinf(q_sum):
        return float(np.max(terms))
    return float(np.sum(terms ** q_sum) ** (1.0 / q_sum))
