"""Differentiation kernels for the (p, q, z) grids.

p and q are periodic on [0, 1) and are differentiated spectrally, by a
cached read-only dense Fourier matrix (the rFFT derivative of the identity)
applied along the axis in one batched matmul; at the small p, q sizes used
here that beats an rFFT/irFFT pair per call. z is differentiated with
4th-order finite differences, either on a closed interval (one-sided
stencils of the same order at the ends) or on a periodic interval (central
stencils throughout). Stencil weights come from Fornberg's recursion, so
the boundary closures keep full order.
"""
from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "fornberg_weights",
    "z_derivative_matrix",
    "spectral_derivative",
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
    (order 1) or 6-point (order 2) stencils at the ends. Periodic interval:
    central stencils with wraparound.
    """
    if order not in (1, 2):
        raise ValueError("only first and second derivatives are provided")
    width = 5 if order == 1 else 6
    if n < width:
        raise ValueError(f"need at least {width} z points for order-{order} "
                         f"stencils, got {n}")
    D = np.zeros((n, n))
    if periodic:
        offsets = np.arange(-2, 3)
        w = fornberg_weights(0.0, offsets * dz, order)
        for off, wk in zip(offsets, w):
            D[np.arange(n), (np.arange(n) + off) % n] += wk
        return D
    half = 2
    for i in range(n):
        if half <= i < n - half and order == 1:
            idx = np.arange(i - half, i + half + 1)
        elif half <= i < n - half and order == 2:
            idx = np.arange(i - half, i + half + 1)
        elif i < half:
            idx = np.arange(0, width)
        else:
            idx = np.arange(n - width, n)
        D[i, idx] = fornberg_weights(i * dz, idx * dz, order)
    return D


@functools.lru_cache(maxsize=64)
def _fourier_matrix(n: int, order: int, length: float) -> np.ndarray:
    """Read-only matrix whose column j is the rFFT derivative of e_j."""
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=length / n)
    if order % 2 == 1 and n % 2 == 0:
        k[-1] = 0.0
    mult = ((1j * k) ** order)[:, None]
    D = np.fft.irfft(np.fft.rfft(np.eye(n), axis=0) * mult, n=n, axis=0)
    D.flags.writeable = False
    return D


def spectral_derivative(f: np.ndarray, axis: int, order: int = 1,
                        length: float = 1.0) -> np.ndarray:
    """Fourier derivative of a real field along a periodic axis.

    The axis is assumed to sample [0, length) uniformly without the
    endpoint. The Nyquist mode is zeroed for odd derivative orders.
    """
    f = np.asarray(f)
    n = f.shape[axis]
    axis %= f.ndim
    D = _fourier_matrix(n, order, float(length))
    stacked = f.reshape(math.prod(f.shape[:axis]), n,
                        math.prod(f.shape[axis + 1:]))
    return (D @ stacked).reshape(f.shape)
