"""The lattice search against a row-wise reference: the same lattice, the
same kept set and the same returned points, bit for bit."""
import numpy as np

from otrobust import _zoom
from otrobust.measures import weight_radius
from otrobust.weights import brute_force_weights


def _reference_zoom(objective, sizes, radii, resolution, lipschitz,
                    coarse=0.25):
    """zoom_minimize computed point by point on (N, n) row blocks: a
    meshgrid lattice, rows closed by concatenation, np.linalg.norm along
    rows and a projection by np.where."""
    dims = [n - 1 for n in sizes]
    tot_dim = sum(dims)

    def split(F):
        out, at = [], 0
        for n in sizes:
            head = F[:, at:at + n - 1]
            last = n - head.sum(axis=1, keepdims=True)
            out.append(np.concatenate([head, last], axis=1))
            at += n - 1
        return out

    def project(W, R):
        n = W.shape[1]
        for step in range(2):
            W = np.maximum(W, 0.0)
            s = W.sum(axis=1, keepdims=True)
            W = np.where(s > 0, W * (n / np.maximum(s, 1e-300)), 1.0)
            if step == 0:
                d = W - 1.0
                nrm = np.linalg.norm(d, axis=1, keepdims=True)
                W = 1.0 + d * np.minimum(1.0, R / np.maximum(nrm, 1e-300))
        return W

    def grid(lo, hi, res):
        axes = [np.arange(l, h + res / 2, res) for l, h in zip(lo, hi)]
        count = int(np.prod([len(ax) for ax in axes]))
        if count > _zoom._MAX_POINTS:
            raise MemoryError
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    lo = np.concatenate([np.full(n - 1, max(0.0, 1.0 - R))
                         for n, R in zip(sizes, radii)])
    hi = np.concatenate([np.full(n - 1, min(float(n), 1.0 + R))
                         for n, R in zip(sizes, radii)])
    res = max(coarse, resolution)
    best_val, best = np.inf, None
    while True:
        for shrink in (None, 8, 4, 2, 1):
            if shrink is not None:
                c = np.concatenate([W[:-1] for W in best])
                lo = np.maximum(lo, c - shrink * res)
                hi = np.minimum(hi, c + shrink * res)
            try:
                F = grid(lo, hi, res)
                break
            except MemoryError:
                if shrink == 1:
                    raise
        keep = np.ones(F.shape[0], dtype=bool)
        for W, R, n in zip(split(F), radii, sizes):
            keep &= np.all(W >= -res, axis=1)
            keep &= np.linalg.norm(W - 1.0, axis=1) <= R + res * n
        F = F[keep]
        if F.shape[0] == 0:
            F = np.ones((1, tot_dim))
        blocks = [project(W, R) for W, R in zip(split(F), radii)]
        vals = np.asarray(objective(blocks), dtype=float)
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val, best = float(vals[k]), [W[k].copy() for W in blocks]
        if res <= resolution * (1 + 1e-9):
            break
        sel = vals <= best_val + 3.0 * lipschitz * tot_dim * res
        lo = np.maximum(lo, F[sel].min(axis=0) - res)
        hi = np.minimum(hi, F[sel].max(axis=0) + res)
        res = max(res / _zoom._SHRINK, resolution)
    return best, best_val


def _criterion_2_stream():
    """The (d, rho) instances of acceptance criterion 2, in its order."""
    rng = np.random.default_rng(7)
    rhos = [0.0, 0.05, 0.1, 0.5, 2.0]
    for trial in range(200):
        n = int(rng.integers(2, 5))
        yield rng.normal(0.0, 2.0, n), rhos[trial % len(rhos)]


def _reference_weights(d, rho, resolution):
    n, R = d.size, weight_radius(rho, d.size)
    if R <= 0:
        return np.ones(n)
    blocks, _ = _reference_zoom(lambda b: b[0] @ d, [n], [R], resolution,
                                np.abs(d).max())
    w = np.maximum(blocks[0], 0.0)
    return w * (n / w.sum())


def test_brute_force_weights_bitwise_on_criterion_2():
    """Every 2- and 3-atom instance of the stream, and its first 4-atom one
    at each radius (a 4-atom instance takes up to a second)."""
    taken = set()
    for d, rho in _criterion_2_stream():
        if d.size == 4:
            if rho in taken:
                continue
            taken.add(rho)
        w = brute_force_weights(d, rho, grid_resolution=1e-3).w
        np.testing.assert_array_equal(w, _reference_weights(d, rho, 1e-3))


def test_multi_block_zoom_bitwise():
    """Several blocks of different sizes, as brute_force_robust uses."""
    rng = np.random.default_rng(12)
    for sizes, radii in (([3, 2], [0.3, 0.2]), ([2, 2, 2], [0.2, 0.4, 0.1]),
                         ([3, 1], [0.5, 0.0])):
        g = [rng.normal(size=n) for n in sizes]

        def objective(blocks):
            return np.abs(sum(W @ gi for W, gi in zip(blocks, g)))

        ours = _zoom.zoom_minimize(objective, sizes, radii, 2e-3, 1.0)
        ref = _reference_zoom(objective, sizes, radii, 2e-3, 1.0)
        assert ours[1] == ref[1]
        for W, V in zip(ours[0], ref[0]):
            np.testing.assert_array_equal(W, V)


def test_near_feasible_matches_row_norm_at_the_boundary():
    """Points whose distance to the centre is the radius to within a few
    ulps get the same verdict as the row-wise norm."""
    rng = np.random.default_rng(13)
    n, R, slack = 4, 0.7, 1e-3
    head = rng.normal(size=(200_000, n - 1))
    W = np.column_stack([head, n - head.sum(axis=1)])
    d = W - 1.0
    W = 1.0 + d * ((R + slack * n) / np.linalg.norm(d, axis=1))[:, None]
    F = W[:, :-1]
    (cols, last), = _zoom._split(F, [n])
    ours = _zoom._near_feasible(cols, last, R, slack)
    closed = np.column_stack([F, n - F.sum(axis=1)])
    ref = np.all(closed >= -slack, axis=1)
    ref &= np.linalg.norm(closed - 1.0, axis=1) <= R + slack * n
    np.testing.assert_array_equal(ours, ref)
    assert 0 < ours.sum() < ours.size
