"""Empirical-measure distances and chaos metrics.

The p-Wasserstein distance between equal-size uniform ensembles is the
exact optimal-assignment value on the pairwise cost matrix, found by the
shortest-augmenting-path method of Jonker and Volgenant (Computing 38,
1987) in the form given by Crouse (IEEE Trans. Aerosp. Electron. Syst.
52(4), 2016).  The ground metric on fields is the grid L^2 distance.
"""

from __future__ import annotations

import numpy as np

from .noise import _rng

__all__ = ["linear_sum_assignment", "ground_distance_matrix", "wasserstein",
           "chaos_metric", "subsample_ensemble"]

MAX_EXACT_ATOMS = 512


def linear_sum_assignment(cost) -> tuple:
    """Exact minimum-cost assignment of a square cost matrix.

    Returns ``(rows, cols)`` with ``rows = arange(n)``, so that
    ``cost[rows, cols].sum()`` is minimal.  Shortest augmenting paths
    (Crouse 2016), one row at a time, with scipy's scan order and
    tie-breaking: columns are scanned from the last, and among the
    columns at the lowest path cost a free one, which ends the path, is
    preferred.  A constant matrix gives the identity.
    """
    C = np.asarray(cost, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError("need a square cost matrix")
    if not np.isfinite(C).all():
        raise ValueError("cost matrix has non-finite entries")
    n = len(C)
    u, v = np.zeros(n), np.zeros(n)
    path = np.full(n, -1)
    col4row = np.full(n, -1)
    row4col = np.full(n, -1)
    for cur in range(n):
        # spc: shortest path cost to each column still in the scan, inf
        # once the column leaves it (its cost is then kept in fin); vw is
        # v with -inf at the columns that left, so their reduced cost is
        # inf and never shortens a path
        spc = np.full(n, np.inf)
        fin = np.zeros(n)
        vw = v.copy()
        remaining = list(range(n - 1, -1, -1))  # the scan order
        pos = remaining[:]  # pos[j]: index of column j in remaining
        others, cols = [], []  # rows and columns the path search reached
        i, low, sink = cur, 0.0, -1
        while sink < 0:
            r = low + C[i] - u[i] - vw
            shorter = r < spc
            path[shorter] = i
            np.copyto(spc, r, where=shorter)
            low = spc.min()
            ties = np.flatnonzero(spc == low).tolist()
            free = [t for t in ties if row4col[t] < 0]
            j = (max(free, key=pos.__getitem__) if free
                 else min(ties, key=pos.__getitem__))
            fin[j], spc[j], vw[j] = low, np.inf, -np.inf
            cols.append(j)
            last = remaining.pop()
            if last != j:
                remaining[pos[j]] = last
                pos[last] = pos[j]
            if free:
                sink = j
            else:
                i = int(row4col[j])
                others.append(i)
        u[cur] += low
        u[others] += low - fin[col4row[others]]
        v[cols] -= low - fin[cols]
        j, i = sink, -1
        while i != cur:
            i = int(path[j])
            row4col[j] = i
            col4row[i], j = j, int(col4row[i])
    return np.arange(n), col4row


def _as_values(atoms):
    return np.stack([a.values for a in atoms])


def ground_distance_matrix(xs: list, ys: list) -> np.ndarray:
    """Pairwise grid L^2 distances ||x_i - y_j||."""
    X = _as_values(xs).reshape(len(xs), -1)
    Y = _as_values(ys).reshape(len(ys), -1)
    x2 = (X ** 2).sum(1)[:, None]
    y2 = (Y ** 2).sum(1)[None, :]
    d2 = np.maximum(x2 + y2 - 2.0 * X @ Y.T, 0.0)
    return np.sqrt(d2) * xs[0].grid.spacing


def wasserstein(mu_atoms: list, nu_atoms: list, p: float = 2) -> float:
    """Exact W_p between equal-size uniform ensembles of fields.

    min over pairings sigma of (1/n sum_i d(x_i, y_sigma(i))^p)^{1/p},
    via the shortest-augmenting-path assignment on the cost matrix
    (Crouse 2016; see ``linear_sum_assignment``).
    """
    if len(mu_atoms) != len(nu_atoms):
        raise ValueError(
            "exact mode needs equal atom counts; subsample the larger "
            "ensemble (see subsample_ensemble)")
    n = len(mu_atoms)
    if n == 0:
        raise ValueError("empty ensembles: W_p needs at least one atom")
    if n > MAX_EXACT_ATOMS:
        raise ValueError(f"exact mode capped at {MAX_EXACT_ATOMS} atoms")
    cost = ground_distance_matrix(mu_atoms, nu_atoms) ** p
    rows, cols = linear_sum_assignment(cost)
    return float((cost[rows, cols].mean()) ** (1.0 / p))


def subsample_ensemble(atoms: list, size: int, seed: int = 0) -> list:
    """Seeded uniform subsample without replacement."""
    if size > len(atoms):
        raise ValueError("cannot subsample beyond the ensemble size")
    idx = _rng(seed, len(atoms)).choice(len(atoms), size=size, replace=False)
    return [atoms[i] for i in sorted(idx)]


def chaos_metric(particle_runs: dict, reference: list, p: float = 2,
                 seed: int = 0) -> list:
    """Distance-to-mean-field table across system sizes.

    ``particle_runs`` maps n to a list of K runs, each run a list of n
    terminal-time fields.  For each n the primary statistic is W_p
    between the first-particle law across runs and the reference
    ensemble (subsampled to K atoms); the secondary statistic averages
    W_p(mu^n_T, reference subsampled to n) over runs.
    """
    if not reference:
        raise ValueError("empty reference ensemble")
    table = []
    for n in sorted(particle_runs):
        runs = particle_runs[n]
        if not runs:
            raise ValueError("empty ensemble for n = %d" % n)
        K = len(runs)
        first = [run[0] for run in runs]
        ref_K = subsample_ensemble(reference, min(K, len(reference)), seed)
        d_first = wasserstein(first[:len(ref_K)], ref_K, p)
        per_run = []
        for r, run in enumerate(runs):
            ref_n = subsample_ensemble(reference, min(n, len(reference)),
                                       seed + 1 + r)
            per_run.append(wasserstein(run[:len(ref_n)], ref_n, p))
        table.append({"n": n, "K": K, "p": p,
                      "distance": d_first,
                      "measure_distance": float(np.mean(per_run)),
                      "stderr": float(np.std(per_run) / np.sqrt(len(per_run)))})
    return table
