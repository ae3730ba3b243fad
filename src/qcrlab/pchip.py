"""Monotone piecewise-cubic Hermite interpolation (PCHIP) in numpy.

Knot slopes are the weighted harmonic means of Fritsch and Butland
(SIAM J. Sci. Stat. Comput. 5, 300 (1984)), with Moler's one-sided
shape-preserving end slopes.  The coefficients and the order in which a
cubic is summed follow scipy's ``PchipInterpolator``, so the values agree
with it bit for bit without importing scipy.
"""

from __future__ import annotations

import numpy as np


def _end_slope(h0, h1, m0, m1):
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    flips = np.sign(d) != np.sign(m0)
    overshoots = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(flips, 0.0, np.where(overshoots, 3.0 * m0, d))[None]


class Pchip:
    """PCHIP through ``y`` (knots along axis 0) at increasing knots ``x``.

    ``c[k, i]`` multiplies ``(v - x[i])**(3 - k)`` on interval ``i``.
    Calls take an array of points; outside ``[x[0], x[-1]]`` the end
    cubics extrapolate.
    """

    def __init__(self, x, y):
        self.x = x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        h = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
        m = np.diff(y, axis=0) / h
        if len(x) == 2:
            d = np.concatenate([m, m])
        else:
            w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
            kink = ((np.sign(m[1:]) != np.sign(m[:-1]))
                    | (m[1:] == 0) | (m[:-1] == 0))
            with np.errstate(all="ignore"):
                hmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
                inner = np.where(kink, 0.0, 1.0 / hmean)
            d = np.concatenate([_end_slope(h[0], h[1], m[0], m[1]), inner,
                                _end_slope(h[-1], h[-2], m[-1], m[-2])])
        t = (d[:-1] + d[1:] - 2 * m) / h
        self.c = np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))

    def __call__(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        i = np.clip(np.searchsorted(self.x, v, side="right") - 1,
                    0, len(self.x) - 2)
        s = (v - self.x[i]).reshape(v.shape + (1,) * (self.c.ndim - 2))
        # ascending powers, each built by repeated products, as scipy does
        res, z = 0.0, 1.0
        for ck in self.c[::-1, i]:
            res = res + ck * z
            z = z * s
        return res
