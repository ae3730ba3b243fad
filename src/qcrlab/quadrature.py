"""Adaptive panel quadrature on a vectorised integrand.

A 15-point Gauss--Kronrod rule is applied per panel and panels whose
error estimate is too large are bisected.  The integrand is evaluated on
all nodes of all new panels in one array call, which keeps Python
overhead per refinement step constant.  Kronrod nodes are interior, so
integrable endpoint singularities placed on panel edges (via ``points``)
never get evaluated directly.

Convergence is driven by the *relative* error alone: the integrands this
package cares about are often exponentially small but smooth in
log-magnitude, and an absolute floor would silently accept an unresolved
result.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import QuadratureError

# Gauss-Kronrod 15/7 nodes and weights on [-1, 1] (QUADPACK values).
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

# full 15-node layout: [-x0 .. -x6, 0, x6 .. x0]
_NODES = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])
_W_KRON = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
_W_GAUSS = np.zeros(15)
_W_GAUSS[1:14:2] = np.concatenate([_WG[:3], [_WG[3]], _WG[2::-1]])
# panels narrower than this, relative to the larger limit, are not split
_WIDTH_FLOOR = 8.0 * np.finfo(float).eps


# First-round panels refined together by one loop.  The node arrays grow
# with the panels in flight, so this bounds peak memory when thousands of
# integrals are requested.  A loop takes as many problems as fit, at least
# one: 13 F(E) problems with their 36 breakpoints each, or all the pieces
# of a ramp, which have none.
_MAX_PANELS = 512


class QuadResult(NamedTuple):
    value: float | np.ndarray
    error: float | np.ndarray


def _panel_eval(f: Callable, lo: np.ndarray, hi: np.ndarray,
                owner: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod value and error estimate for each panel [lo_i, hi_i].

    ``f`` gets the flattened nodes, paired with each node's problem index
    when ``owner`` is given.
    """
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi)[:, None] + half[:, None] * _NODES).ravel()
    arg = x if owner is None else (x, owner.repeat(len(_NODES)))
    vals = np.asarray(f(arg), dtype=float).reshape(-1, len(_NODES))
    # row sums, not a matrix-vector product: BLAS may round a row
    # differently depending on its neighbours, numpy's row sum does not
    kron = half * (vals * _W_KRON).sum(axis=1)
    err = np.abs(kron - half * (vals * _W_GAUSS).sum(axis=1))
    # a panel with a non-finite node has a non-finite estimate
    if not np.isfinite(err).all():
        bad = ~np.isfinite(vals).all(axis=1)
        err[bad] = np.inf
        kron[bad] = 0.0
    return kron, err


def adaptive_quad(f: Callable, a, b, *,
                  points=(),
                  epsrel: float = 1e-11,
                  max_panels: int = 20000) -> QuadResult:
    """Integrate ``f`` over ``[a, b]``, bisecting panels until converged.

    ``a`` and ``b`` may be 1-d arrays, which integrates one problem per
    entry in a single refinement loop.  Each problem converges, stalls
    or runs out of panels on its own, exactly as it would alone, so the
    results do not depend on which other problems share the batch.

    Parameters
    ----------
    f:
        Vectorised integrand, called with one argument.  For scalar
        limits that is a 1-d ndarray of nodes; for array limits it is the
        pair ``(x, owner)`` where ``owner[i]`` indexes the problem that
        node ``x[i]`` belongs to.
    points:
        Interior breakpoints (kinks, integrable singularities): a
        sequence shared by every problem, or one row per problem.  They
        become panel edges and are never evaluated; entries outside
        ``(a, b)``, including NaN padding, are ignored.
    epsrel:
        Problem ``k`` converges once ``sum(err_k) <= epsrel*|integral_k|``.

    Returns
    -------
    QuadResult
        Integral estimates and accumulated error estimates, as floats
        for scalar limits and as arrays otherwise.

    Raises
    ------
    QuadratureError
        For the first problem that stalls or exceeds ``max_panels``; its
        message gives the problem's limits, ``achieved`` its error and
        ``problem`` its index.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    batch = a.ndim > 0 or b.ndim > 0
    lo, hi = np.broadcast_arrays(a, b)
    lo, hi = lo.ravel(), hi.ravel()
    if not (np.isfinite(lo) & np.isfinite(hi)).all():
        raise ValueError("integration limits must be finite")
    # one row of breakpoints, shared, or one row per problem
    pts = np.asarray(points, dtype=float)
    if pts.ndim < 2:
        pts = pts.reshape(1, -1)
    if len(pts) not in (1, lo.size):
        raise ValueError("points must be shared or given per problem")
    value = np.zeros(lo.size)
    error = np.zeros(lo.size)
    step = max(1, _MAX_PANELS // (pts.shape[1] + 1))
    for start in range(0, lo.size, step):
        sl = slice(start, start + step)
        _refine(f, lo[sl], hi[sl], pts if len(pts) == 1 else pts[sl], start,
                batch, epsrel, max_panels, value[sl], error[sl])
    if batch:
        return QuadResult(value, error)
    return QuadResult(float(value[0]), float(error[0]))


def _refine(f, a, b, pts, start, batch, epsrel, max_panels, value, error):
    """Refinement loop over the problems ``start .. start+len(a)-1``,
    adding each result into ``value`` and ``error``, which start at 0."""
    m = a.size
    # breakpoints inside (a, b) become edges; the rest collapse onto a and
    # leave empty panels, dropped below with those of empty intervals
    col_a = a[:, None]
    edges = np.concatenate(
        [col_a, np.sort(np.where((pts > col_a) & (pts < b[:, None]), pts,
                                 col_a), axis=1), b[:, None]], axis=1)
    nonempty = edges[:, 1:] > edges[:, :-1]
    own = np.nonzero(nonempty)[0]
    lo, hi = edges[:, :-1][nonempty], edges[:, 1:][nonempty]
    if not lo.size:     # every interval empty: never call the integrand
        return
    vals, errs = _panel_eval(f, lo, hi, own + start if batch else None)
    while True:
        # bincount adds each problem's panels in array order, and that
        # order depends on the problem alone.  A problem keeps its panels
        # until it converges, so from then on it adds zeros
        total = np.bincount(own, vals, m)
        toterr = np.bincount(own, errs, m)
        tol = epsrel * np.abs(total)
        done = (toterr <= tol) | (toterr == 0.0)
        np.add(value, total, out=value, where=done)
        np.add(error, toterr, out=error, where=done)
        if done.all():
            return
        live = ~done
        count = np.bincount(own, minlength=m)
        active = live[own]
        width_floor = _WIDTH_FLOOR * np.maximum(
            np.maximum(np.abs(a), np.abs(b)), 1e-300)
        split = (active & (errs > (tol / np.maximum(count, 1))[own])
                 & (hi - lo > width_floor[own]))
        nsplit = np.bincount(own, split, m)
        stalled = live & (nsplit == 0)
        over = live & (count + nsplit > max_panels)
        failed = np.flatnonzero(stalled | over)
        if failed.size:
            k = failed[0]
            what = ("stalled" if stalled[k]
                    else f"exceeded {max_panels} panels")
            raise QuadratureError(
                f"quadrature over [{float(a[k])!r}, {float(b[k])!r}] "
                f"{what} at error {toterr[k]:.3e} (tolerance {tol[k]:.3e})",
                achieved=float(toterr[k]), problem=int(start + k))
        keep = active & ~split
        slo, shi, sown = lo[split], hi[split], own[split]
        smid = 0.5 * (slo + shi)
        lo = np.concatenate([lo[keep], slo, smid])
        hi = np.concatenate([hi[keep], smid, shi])
        own = np.concatenate([own[keep], sown, sown])
        # the halves sit at the end
        new = slice(lo.size - 2 * slo.size, None)
        new_vals, new_errs = _panel_eval(
            f, lo[new], hi[new], own[new] + start if batch else None)
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])
