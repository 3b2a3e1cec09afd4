"""Differentiation kernels for the (p, q, z) grids.

p and q are periodic on [0, 1) and are differentiated spectrally, by a
cached read-only dense Fourier matrix (the rFFT derivative of the identity)
applied along the axis in one batched matmul; at the small p, q sizes used
here that beats an rFFT/irFFT pair per call. z is differentiated with
4th-order finite differences, either on a closed interval (one-sided
stencils of the same order at the ends) or on a periodic interval (central
stencils throughout). Stencil weights come from Fornberg's recursion, so
the boundary closures keep full order; the recursion runs once per
distinct stencil (one central stencil, two one-sided ones at each closed
end), not once per row.

Tabulated z-profiles are interpolated by `CubicSpline`, a not-a-knot
cubic spline that carries its first two derivatives and its exact
antiderivative.
"""
from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "fornberg_weights",
    "z_derivative_matrix",
    "spectral_derivative",
    "CubicSpline",
]


def fornberg_weights(x0: float, x: np.ndarray, m: int) -> np.ndarray:
    """Finite-difference weights for the m-th derivative at x0 on nodes x.

    Fornberg's recursion (Math. Comp. 51, 1988). Returns the weight of each
    node; len(x) must exceed m.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n <= m:
        raise ValueError(f"need more than {m} nodes for derivative order {m}")
    c = np.zeros((n, m + 1))
    c1 = 1.0
    c4 = x[0] - x0
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def z_derivative_matrix(n: int, dz: float, order: int = 1,
                        periodic: bool = False) -> np.ndarray:
    """Dense n-by-n matrix applying d^order/dz^order at 4th order.

    Closed interval: 5-point central stencils inside, one-sided 5-point
    (order 1) or 6-point (order 2) stencils at the ends, so n >= 5 or 6.
    Periodic interval: 5-point central stencils with wraparound, so n >= 5.
    Each distinct stencil is computed once, from its node offsets to the
    row's own point.
    """
    if order not in (1, 2):
        raise ValueError("only first and second derivatives are provided")
    width = 5 if order == 1 or periodic else 6
    if n < width:
        raise ValueError(f"need at least {width} z points for order-{order} "
                         f"stencils, got {n}")
    D = np.zeros((n, n))
    offsets = np.arange(-2, 3)
    rows = np.arange(n) if periodic else np.arange(2, n - 2)
    D[rows[:, None], (rows[:, None] + offsets) % n] = \
        fornberg_weights(0.0, offsets * dz, order)
    if not periodic:
        for i in (0, 1, n - 2, n - 1):
            idx = np.arange(width) if i < 2 else np.arange(n - width, n)
            D[i, idx] = fornberg_weights(0.0, (idx - i) * dz, order)
    return D


@functools.lru_cache(maxsize=64)
def _fourier_matrix(n: int, order: int) -> np.ndarray:
    """Read-only matrix whose column j is the rFFT derivative of e_j."""
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=1.0 / n)
    if order % 2 == 1 and n % 2 == 0:
        k[-1] = 0.0
    mult = ((1j * k) ** order)[:, None]
    D = np.fft.irfft(np.fft.rfft(np.eye(n), axis=0) * mult, n=n, axis=0)
    D.flags.writeable = False
    return D


def spectral_derivative(f: np.ndarray, axis: int, order: int = 1) -> np.ndarray:
    """Fourier derivative of a real field along a periodic axis.

    The axis is assumed to sample [0, 1) uniformly without the endpoint,
    as p and q do. The Nyquist mode is zeroed for odd derivative orders.
    """
    f = np.asarray(f)
    n = f.shape[axis]
    axis %= f.ndim
    D = _fourier_matrix(n, order)
    stacked = f.reshape(math.prod(f.shape[:axis]), n,
                        math.prod(f.shape[axis + 1:]))
    return (D @ stacked).reshape(f.shape)


class CubicSpline:
    """Not-a-knot cubic spline through (z_samples, values).

    The knot slopes solve the slope form of the spline equations, with
    not-a-knot rows at both ends (the third derivative is continuous at
    the second and the second-to-last knot), by a dense `np.linalg.solve`;
    the cubic Hermite formulas then give each piece's coefficients. Piece
    i is sum_k c[k, i] (z - z_i)^k, evaluated in ascending powers with the
    power built by repeated multiplication; outside the knots the end
    pieces extrapolate. This reproduces the usual library spline of the
    same name to round-off (checked in the tests).

    `spline(z, nu)` evaluates the spline (nu = 0), its first or second
    derivative (nu = 1, 2) or its antiderivative (nu = -1), which is zero
    at the first knot and continuous. All four piece sets are computed at
    construction.
    """

    def __init__(self, z_samples: np.ndarray, values: np.ndarray):
        x = np.asarray(z_samples, dtype=float)
        y = np.asarray(values, dtype=float)
        if x.ndim != 1 or x.size < 4:
            raise ValueError("z_samples must be a 1-D array of at least 4 "
                             f"knots, got shape {x.shape}")
        if y.shape != x.shape:
            raise ValueError(f"values has shape {y.shape}, z_samples has "
                             f"shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("z_samples must be finite")
        if not np.all(np.isfinite(y)):
            raise ValueError("values must be finite")
        dx = np.diff(x)
        if not np.all(dx > 0):
            raise ValueError("z_samples must be strictly increasing")
        n = x.size
        slope = np.diff(y) / dx
        A = np.zeros((n, n))
        b = np.empty(n)
        i = np.arange(1, n - 1)
        A[i, i - 1] = dx[1:]
        A[i, i] = 2 * (dx[:-1] + dx[1:])
        A[i, i + 1] = dx[:-1]
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        d = x[2] - x[0]
        A[0, :2] = dx[1], d
        b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        A[-1, -2:] = d, dx[-2]
        b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
        s = np.linalg.solve(A, b)
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        c = np.stack([y[:-1], s[:-1], (slope - s[:-1]) / dx - t, t / dx])
        anti = np.vstack([np.zeros(n - 1), c / np.arange(1.0, 5.0)[:, None]])
        # each piece's constant is the integral over the pieces before it
        anti[0, 1:] = np.cumsum(self._evaluate(anti[:, :-1], dx[:-1]))
        self.x = x
        self._pieces = {-1: anti, 0: c,
                        1: c[1:] * np.array([1.0, 2.0, 3.0])[:, None],
                        2: c[2:] * np.array([2.0, 6.0])[:, None]}

    @staticmethod
    def _evaluate(coeffs: np.ndarray, s: np.ndarray) -> np.ndarray:
        """sum_k coeffs[k] s^k, accumulated in ascending powers."""
        out = coeffs[0]
        power = s
        for ck in coeffs[1:-1]:
            out = out + ck * power
            power = power * s
        return out + coeffs[-1] * power

    def __call__(self, z: np.ndarray, nu: int = 0) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        # the piece of z: i with x_i <= z < x_{i+1}, the end pieces beyond
        i = np.searchsorted(self.x[1:-1], z, side="right")
        return self._evaluate(self._pieces[nu].take(i, axis=1),
                              z - self.x.take(i))
