"""Diagonal frame metrics and orthonormal-frame vector calculus.

The metric family handled here is

    ds^2 = Omega(z) [ e^{-2 lam z} dp^2 + e^{2 lam z} dq^2 + dz^2 ]

on p, q periodic in [0, 1) and z in a closed interval, i.e. diagonal
metrics with scale factors

    h_p = w(z) e^{-lam z},   h_q = w(z) e^{lam z},   h_z = w(z),

where w = Omega^{1/2}. All differential operators (grad, div, curl, scalar
and vector Laplacian) are the general orthogonal-coordinates expressions in
these scale factors, evaluated with spectral derivatives in p, q and
4th-order finite differences in z. Metric factors and their z-derivatives
enter analytically, so operators applied to constant frame fields are exact
up to roundoff.

Orientation convention: (e_p, e_q, e_z) is right-handed, e_p x e_q = e_z.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .differentiation import spectral_derivative, z_derivative_matrix

__all__ = [
    "ConformalFactor",
    "FrameMetric",
    "Grid3D",
    "FrameField",
    "FrameOperators",
    "grad",
    "div",
    "curl",
    "laplacian_scalar",
    "vector_laplacian",
]

ZProfile = Callable[[np.ndarray], np.ndarray]


def _const_profile(c: float) -> ZProfile:
    return lambda z: np.full_like(np.asarray(z, dtype=float), c)


@dataclass(frozen=True)
class ConformalFactor:
    """Positive scalar factor Omega(z) multiplying a base metric.

    `value` maps z to Omega(z) > 0 and `log_derivative` to d/dz ln Omega.
    `kind` is one of identity, constant, exponential, tabulated; the
    identity kind is the exact no-op (value 1, log-derivative 0).
    """

    kind: str
    value: ZProfile
    log_derivative: ZProfile
    exponent: float = 0.0
    constant: float = 1.0

    @classmethod
    def identity(cls) -> "ConformalFactor":
        return cls("identity", _const_profile(1.0), _const_profile(0.0))

    @classmethod
    def from_constant(cls, c: float) -> "ConformalFactor":
        if c <= 0:
            raise ValueError(f"conformal factor must be positive, got {c}")
        return cls("constant", _const_profile(float(c)), _const_profile(0.0),
                   constant=float(c))

    @classmethod
    def exponential(cls, a: float) -> "ConformalFactor":
        """Omega(z) = exp(a z); the log-derivative is identically a."""
        a = float(a)
        return cls("exponential", lambda z: np.exp(a * np.asarray(z, dtype=float)),
                   _const_profile(a), exponent=a)

    @classmethod
    def tabulated(cls, z_samples: np.ndarray, values: np.ndarray) -> "ConformalFactor":
        from scipy.interpolate import CubicSpline

        values = np.asarray(values, dtype=float)
        if np.any(values <= 0):
            raise ValueError("tabulated conformal factor must be positive")
        spline = CubicSpline(np.asarray(z_samples, dtype=float), values)
        dspline = spline.derivative()
        return cls("tabulated", spline, lambda z: dspline(z) / spline(z))

    @property
    def is_trivial(self) -> bool:
        return self.kind == "identity" or (self.kind == "constant" and self.constant == 1.0)

    def sqrt_profile(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """w = Omega^{1/2} with its first two z-derivatives.

        Exact closed forms per kind; the tabulated kind differentiates its
        spline.
        """
        z = np.asarray(z, dtype=float)
        if self.kind == "identity":
            one = np.ones_like(z)
            zero = np.zeros_like(z)
            return one, zero, zero
        if self.kind == "constant":
            w = np.full_like(z, np.sqrt(self.constant))
            zero = np.zeros_like(z)
            return w, zero, zero
        if self.kind == "exponential":
            w = np.exp(0.5 * self.exponent * z)
            return w, 0.5 * self.exponent * w, 0.25 * self.exponent ** 2 * w
        om = self.value(z)
        w = np.sqrt(om)
        dlog = self.log_derivative(z)
        dw = 0.5 * w * dlog
        # numerical second derivative of w via the log-derivative's slope
        eps = 1e-5 * max(1.0, float(np.max(np.abs(z))) if z.size else 1.0)
        d2log = (self.log_derivative(z + eps) - self.log_derivative(z - eps)) / (2 * eps)
        d2w = 0.5 * (d2log + 0.5 * dlog ** 2) * w
        return w, dw, d2w


@dataclass(frozen=True)
class FrameMetric:
    """Stretched metric with optional conformal factor.

    lam is the stretching rate per unit z. With a trivial factor the scale
    factors are exactly (e^{-lam z}, e^{lam z}, 1); the metric determinant
    is the squared product of the scale factors, i.e. Omega^3.
    """

    lam: float
    omega: ConformalFactor = field(default_factory=ConformalFactor.identity)
    z_min: float = 0.0
    z_max: float = 1.0

    def __post_init__(self):
        if self.z_max <= self.z_min:
            raise ValueError("z range is empty")
        zs = np.linspace(self.z_min, self.z_max, 33)
        if np.any(self.omega.value(zs) <= 0):
            raise ValueError("conformal factor is not positive on the z range")

    def scale_factors(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        z = np.asarray(z, dtype=float)
        w, _, _ = self.omega.sqrt_profile(z)
        return w * np.exp(-self.lam * z), w * np.exp(self.lam * z), w

    def scale_factor_derivatives(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """d/dz of each scale factor, from the factor's closed forms."""
        z = np.asarray(z, dtype=float)
        w, dw, _ = self.omega.sqrt_profile(z)
        return ((dw - self.lam * w) * np.exp(-self.lam * z),
                (dw + self.lam * w) * np.exp(self.lam * z), dw)

    def determinant(self, z: np.ndarray) -> np.ndarray:
        h1, h2, h3 = self.scale_factors(z)
        return (h1 * h2 * h3) ** 2

    def volume_weight(self, z: np.ndarray) -> np.ndarray:
        """sqrt(det g) = Omega^{3/2}; the p,q exponentials cancel."""
        h1, h2, h3 = self.scale_factors(z)
        return h1 * h2 * h3

    def grid(self, n_p: int = 32, n_q: int = 32, n_z: int = 128,
             z_periodic: bool = False) -> "Grid3D":
        return Grid3D(n_p, n_q, n_z, self.z_min, self.z_max, z_periodic)


@dataclass(frozen=True)
class Grid3D:
    """Tensor grid over (p, q, z); p and q periodic on [0, 1).

    z either samples the closed interval [z_min, z_max] inclusively or, in
    periodic mode, samples [z_min, z_max) uniformly without the endpoint.
    """

    n_p: int
    n_q: int
    n_z: int
    z_min: float = 0.0
    z_max: float = 1.0
    z_periodic: bool = False

    def __post_init__(self):
        min_nz = 5 if self.z_periodic else 6
        if self.n_p < 2 or self.n_q < 2 or self.n_z < min_nz:
            raise ValueError(
                f"grid too small for the stencils: need n_p, n_q >= 2 and "
                f"n_z >= {min_nz}, got ({self.n_p}, {self.n_q}, {self.n_z})")

    @property
    def p(self) -> np.ndarray:
        return np.arange(self.n_p) / self.n_p

    @property
    def q(self) -> np.ndarray:
        return np.arange(self.n_q) / self.n_q

    @property
    def z(self) -> np.ndarray:
        if self.z_periodic:
            return self.z_min + np.arange(self.n_z) * self.dz
        return np.linspace(self.z_min, self.z_max, self.n_z)

    @property
    def dz(self) -> float:
        span = self.z_max - self.z_min
        return span / self.n_z if self.z_periodic else span / (self.n_z - 1)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n_p, self.n_q, self.n_z)

    def mesh(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return np.meshgrid(self.p, self.q, self.z, indexing="ij")

    def z_weights(self) -> np.ndarray:
        """Quadrature weights along z (trapezoid closed, uniform periodic)."""
        w = np.full(self.n_z, self.dz)
        if not self.z_periodic:
            w[0] *= 0.5
            w[-1] *= 0.5
        return w

    def interior_z_slice(self) -> slice:
        """Middle third of the z samples, the measurement region in closed mode."""
        return slice(self.n_z // 3, 2 * self.n_z // 3)


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        bad = int(np.size(a) - np.count_nonzero(np.isfinite(a)))
        raise ValueError(f"{what} contains {bad} non-finite values")


@dataclass(frozen=True)
class FrameField:
    """Vector field stored as three scalar grids in the orthonormal frame."""

    grid: Grid3D
    data: np.ndarray  # shape (3, n_p, n_q, n_z)

    def __post_init__(self):
        if self.data.shape != (3, *self.grid.shape):
            raise ValueError(f"field shape {self.data.shape} does not match "
                             f"grid {(3, *self.grid.shape)}")

    @classmethod
    def from_components(cls, grid: Grid3D, bp: np.ndarray, bq: np.ndarray,
                        bz: np.ndarray) -> "FrameField":
        data = np.stack([np.broadcast_to(np.asarray(c, dtype=float), grid.shape)
                         for c in (bp, bq, bz)])
        return cls(grid, np.ascontiguousarray(data))

    @classmethod
    def from_callables(cls, grid: Grid3D, fp, fq, fz) -> "FrameField":
        P, Q, Z = grid.mesh()
        return cls.from_components(grid, fp(P, Q, Z), fq(P, Q, Z), fz(P, Q, Z))

    @classmethod
    def unit(cls, grid: Grid3D, axis: int) -> "FrameField":
        data = np.zeros((3, *grid.shape))
        data[axis] = 1.0
        return cls(grid, data)

    @property
    def bp(self) -> np.ndarray:
        return self.data[0]

    @property
    def bq(self) -> np.ndarray:
        return self.data[1]

    @property
    def bz(self) -> np.ndarray:
        return self.data[2]


class FrameOperators:
    """grad/div/curl/Laplacian on a fixed (metric, grid) pair.

    Precomputes the z-differentiation matrices and all metric coefficient
    profiles. Inputs are never mutated; every result is checked finite.
    """

    def __init__(self, metric: FrameMetric, grid: Grid3D):
        self.metric = metric
        self.grid = grid
        z = grid.z
        self.d1 = z_derivative_matrix(grid.n_z, grid.dz, 1, grid.z_periodic)
        self.d2 = z_derivative_matrix(grid.n_z, grid.dz, 2, grid.z_periodic)
        h1, h2, h3 = metric.scale_factors(z)
        dh1, dh2, dh3 = metric.scale_factor_derivatives(z)
        self.h = (h1, h2, h3)
        self.inv_h = (1.0 / h1, 1.0 / h2, 1.0 / h3)
        G = h1 * h2 * h3
        self.vol = G
        # div B = (1/h1) dp Bp + (1/h2) dq Bq + (1/h3) dz Bz + c_div Bz
        self.c_div = (dh1 * h2 + h1 * dh2) / G
        # curl coefficient profiles: h_i'/(h_i h3)
        self.c_curl_p = dh1 / (h1 * h3)
        self.c_curl_q = dh2 / (h2 * h3)
        # scalar Laplacian z-part: (1/G)[(h1 h2/h3)' dz + (h1 h2/h3) dzz]
        Pz = h1 * h2 / h3
        dPz = (dh1 * h2 + h1 * dh2 - h1 * h2 * dh3 / h3) / h3
        self.c_lap_dz = dPz / G
        self.c_lap_dzz = Pz / G

    # -- derivative helpers -------------------------------------------------

    def dp(self, f: np.ndarray) -> np.ndarray:
        return spectral_derivative(f, axis=0, order=1)

    def dq(self, f: np.ndarray) -> np.ndarray:
        return spectral_derivative(f, axis=1, order=1)

    def dz(self, f: np.ndarray) -> np.ndarray:
        return np.tensordot(f, self.d1, axes=(f.ndim - 1, 1))

    def dzz(self, f: np.ndarray) -> np.ndarray:
        return np.tensordot(f, self.d2, axes=(f.ndim - 1, 1))

    # -- operators ----------------------------------------------------------

    def grad(self, f: np.ndarray) -> FrameField:
        f = np.asarray(f, dtype=float)
        _require_finite(f, "grad input")
        out = np.stack([
            self.inv_h[0] * self.dp(f),
            self.inv_h[1] * self.dq(f),
            self.inv_h[2] * self.dz(f),
        ])
        _require_finite(out, "grad output")
        return FrameField(self.grid, out)

    def div(self, B: FrameField) -> np.ndarray:
        _require_finite(B.data, "div input")
        out = (self.inv_h[0] * self.dp(B.bp)
               + self.inv_h[1] * self.dq(B.bq)
               + self.inv_h[2] * self.dz(B.bz)
               + self.c_div * B.bz)
        _require_finite(out, "div output")
        return out

    def curl(self, B: FrameField) -> FrameField:
        _require_finite(B.data, "curl input")
        cp = (self.inv_h[1] * self.dq(B.bz)
              - self.inv_h[2] * self.dz(B.bq) - self.c_curl_q * B.bq)
        cq = (self.inv_h[2] * self.dz(B.bp) + self.c_curl_p * B.bp
              - self.inv_h[0] * self.dp(B.bz))
        cz = self.inv_h[0] * self.dp(B.bq) - self.inv_h[1] * self.dq(B.bp)
        out = np.stack([cp, cq, cz])
        _require_finite(out, "curl output")
        return FrameField(self.grid, out)

    def laplacian_scalar(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        _require_finite(f, "laplacian input")
        out = (self.inv_h[0] ** 2 * spectral_derivative(f, 0, 2)
               + self.inv_h[1] ** 2 * spectral_derivative(f, 1, 2)
               + self.c_lap_dz * self.dz(f)
               + self.c_lap_dzz * self.dzz(f))
        _require_finite(out, "laplacian output")
        return out

    def vector_laplacian(self, B: FrameField) -> FrameField:
        """grad(div B) - curl(curl B), the frame vector Laplacian."""
        gd = self.grad(self.div(B))
        cc = self.curl(self.curl(B))
        return FrameField(self.grid, gd.data - cc.data)

    # -- norms --------------------------------------------------------------

    def _measure(self) -> np.ndarray:
        w = self.vol * self.grid.z_weights() / (self.grid.n_p * self.grid.n_q)
        if not self.grid.z_periodic:
            mask = np.zeros(self.grid.n_z)
            mask[self.grid.interior_z_slice()] = 1.0
            w = w * mask
        return w

    def l2_norm(self, a: np.ndarray) -> float:
        """Volume-weighted L2 norm of a scalar or stacked-component array.

        Closed-interval grids integrate over the interior third only (the
        measurement region); periodic grids integrate over the full domain.
        """
        rows = a.reshape(-1, a.shape[-1])
        return float(np.sqrt(np.einsum("iz,iz->z", rows, rows) @ self._measure()))

    def component_norms(self, B: FrameField) -> np.ndarray:
        per_z = np.einsum("cpqz,cpqz->cz", B.data, B.data)
        return np.sqrt(per_z @ self._measure())


# -- one-shot functional facade ----------------------------------------------


def grad(metric: FrameMetric, grid: Grid3D, f: np.ndarray) -> FrameField:
    return FrameOperators(metric, grid).grad(f)


def div(metric: FrameMetric, grid: Grid3D, B: FrameField) -> np.ndarray:
    return FrameOperators(metric, grid).div(B)


def curl(metric: FrameMetric, grid: Grid3D, B: FrameField) -> FrameField:
    return FrameOperators(metric, grid).curl(B)


def laplacian_scalar(metric: FrameMetric, grid: Grid3D, f: np.ndarray) -> np.ndarray:
    return FrameOperators(metric, grid).laplacian_scalar(f)


def vector_laplacian(metric: FrameMetric, grid: Grid3D, B: FrameField) -> FrameField:
    return FrameOperators(metric, grid).vector_laplacian(B)
