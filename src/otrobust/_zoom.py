"""Coarse-to-fine lattice search over products of simplex-ball sets.

Shared machinery for the brute-force oracles.  A weight block of size n
lives on {w >= 0, sum w = n, ||w - 1|| <= R}; the lattice runs over the
first n-1 coordinates of each block and the last coordinate closes the sum
exactly.  Each level grids the bounding box of the surviving candidates at a
finer resolution and keeps every point whose objective is within a Lipschitz
margin of the incumbent, so the final answer is within
``lipschitz * total_dim * resolution`` of the continuous optimum.
"""
from __future__ import annotations

import numpy as np

_SHRINK = 4
_MAX_POINTS = 4_000_000


def _rescale(W: np.ndarray) -> None:
    """Clip the rows of W at 0 and scale each to sum n, in place; a row
    with nothing left becomes all ones."""
    n = W.shape[1]
    np.maximum(W, 0.0, out=W)
    s = W.sum(axis=1)
    W *= (n / np.maximum(s, 1e-300))[:, None]
    W[~(s > 0)] = 1.0


def _project_block(W: np.ndarray, R: float) -> np.ndarray:
    """Push near-feasible rows onto {w>=0, sum=n, ||w-1||<=R} (approximate),
    in place."""
    _rescale(W)
    W -= 1.0
    nrm = np.linalg.norm(W, axis=1, keepdims=True)
    W *= np.minimum(1.0, R / np.maximum(nrm, 1e-300))
    W += 1.0
    _rescale(W)
    return W


def _split(F: np.ndarray, sizes) -> list:
    """(columns, last) per block of the lattice points F: the block's free
    coordinates as columns of F, and the coordinate that closes its sum."""
    out, at = [], 0
    for n in sizes:
        cols = [F[:, k] for k in range(at, at + n - 1)]
        total = cols[0].copy() if cols else np.zeros(F.shape[0])
        for c in cols[1:]:
            total += c
        out.append((cols, n - total))
        at += n - 1
    return out


def _near_feasible(cols: list, last: np.ndarray, R: float,
                   slack: float) -> np.ndarray:
    """Rows within slack of the block's simplex-ball set, coordinate by
    coordinate.  The squares are summed in the order ``np.linalg.norm``
    sums a row, so the verdict is the row-wise norm's, bit for bit."""
    n = len(cols) + 1
    first, *rest = cols + [last]
    ok = first >= -slack
    sq = np.square(first - 1.0)
    for c in rest:
        ok &= c >= -slack
        sq += np.square(c - 1.0)
    return ok & (np.sqrt(sq) <= R + slack * n)


def _grid_box(lo: np.ndarray, hi: np.ndarray, res: float) -> np.ndarray:
    """The lattice over the box [lo, hi] at spacing res, one point per row
    in the order of ``np.meshgrid(indexing="ij")``, filled column by column
    into one Fortran-ordered array."""
    axes = [np.arange(l, h + res / 2, res) for l, h in zip(lo, hi)]
    lens = [len(ax) for ax in axes]
    count = int(np.prod(lens))
    if count > _MAX_POINTS:
        raise MemoryError(f"lattice of {count} points exceeds budget")
    F = np.empty((count, len(axes)), order="F")
    grid = F.T.reshape(len(axes), *lens)  # a view: one axis per column
    for k, ax in enumerate(axes):
        grid[k] = ax.reshape([-1 if i == k else 1 for i in range(len(axes))])
    return F


def zoom_minimize(objective, sizes, radii, resolution, lipschitz, coarse=0.25):
    """Minimize `objective` over a product of scaled simplex-ball blocks.

    objective: callable taking a list of (N, n_i) weight arrays, one per
        block, returning (N,) values; rows passed in are exactly feasible.
    Returns (list of per-block optimal weight vectors, optimal value).
    """
    sizes = list(sizes)
    radii = [float(r) for r in radii]
    dims = [n - 1 for n in sizes]
    tot_dim = sum(dims)
    lipschitz = max(float(lipschitz), 1e-12)

    def blocks_at(F):
        """The points F as one (N, n) weight array per block."""
        return [np.column_stack(cols + [last]) for cols, last in
                _split(F, sizes)]

    if tot_dim == 0:
        blocks = blocks_at(np.zeros((1, 0)))
        val = float(np.asarray(objective(blocks))[0])
        return [W[0] for W in blocks], val

    lo = np.empty(tot_dim)
    hi = np.empty(tot_dim)
    at = 0
    for n, R in zip(sizes, radii):
        lo[at : at + n - 1] = max(0.0, 1.0 - R)
        hi[at : at + n - 1] = min(float(n), 1.0 + R)
        at += n - 1

    res = max(coarse, resolution)
    best_val = np.inf
    best_blocks = None
    while True:
        F = None
        for shrink in (None, 8, 4, 2, 1):
            if shrink is not None:
                # box too fine for the budget: shrink around the incumbent
                c = _best_free(best_blocks)
                lo = np.maximum(lo, c - shrink * res)
                hi = np.minimum(hi, c + shrink * res)
            try:
                F = _grid_box(lo, hi, res)
                break
            except MemoryError:
                if shrink == 1:
                    raise
        keep = np.ones(F.shape[0], dtype=bool)
        for (cols, last), R in zip(_split(F, sizes), radii):
            keep &= _near_feasible(cols, last, R, slack=res)
        F = F[keep] if keep.any() else np.ones((1, tot_dim))
        blocks = [_project_block(W, R) for W, R in zip(blocks_at(F), radii)]
        vals = np.asarray(objective(blocks), dtype=float)
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val = float(vals[k])
            best_blocks = [W[k].copy() for W in blocks]
        if res <= resolution * (1 + 1e-9):
            break
        margin = 3.0 * lipschitz * tot_dim * res
        sel = vals <= best_val + margin
        Fs = F[sel]
        lo = np.maximum(lo, Fs.min(axis=0) - res)
        hi = np.minimum(hi, Fs.max(axis=0) + res)
        res = max(res / _SHRINK, resolution)
    return best_blocks, best_val


def _best_free(blocks):
    return np.concatenate([W[:-1] for W in blocks])
