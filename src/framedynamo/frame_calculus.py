"""Diagonal coframes, frame metrics and orthonormal-frame vector calculus.

A diagonal coframe (`CoframeBasis`) is one routine z -> (h, h', h'') of
the scale factors of h_p^2 dp^2 + h_q^2 dq^2 + h_z^2 dz^2. The paper's
metric family is the coframe `FrameMetric`,

    ds^2 = Omega(z) [ e^{-2 lam z} dp^2 + e^{2 lam z} dq^2 + dz^2 ],
    h_i = w(z) e^{r_i z},   r = (-lam, lam, 0),   w = Omega^{1/2},

on p, q periodic in [0, 1) and z on the interval of a `Grid3D`. Omega
comes in two families: the closed form c e^{a z} (identity, constant and
exponential factors), which supplies w, w', w'' and its characteristic
foot points exactly, and a tabulated not-a-knot cubic spline
(`differentiation.CubicSpline`, plain numpy), whose derivatives and
antiderivative are those of its cubic pieces; its foot points bisect that
antiderivative. `FrameOperators` evaluates grad, div, curl and the vector
Laplacian of any coframe, the general orthogonal-coordinates expressions,
with spectral derivatives in p, q and 4th-order finite differences in z;
the z matrices of the last few z grids are cached read-only
(`_z_matrices`), so operators on one grid share one pair. Scale factors
and their z-derivatives enter analytically, so operators applied to
constant frame fields are exact up to roundoff.

Orientation convention: (e_p, e_q, e_z) is right-handed, e_p x e_q = e_z.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .differentiation import (CubicSpline, spectral_derivative,
                              z_derivative_matrix)

__all__ = [
    "CoframeBasis",
    "ConformalFactor",
    "FrameMetric",
    "Grid3D",
    "FrameField",
    "FrameOperators",
]

@dataclass(frozen=True)
class ConformalFactor:
    """Positive scalar factor Omega(z) multiplying a base metric.

    Two families. The closed-form family is Omega = c e^{a z}: identity is
    (c, a) = (1, 0), `from_constant(c)` is (c, 0) and `exponential(a)` is
    (1, a); it owns its closed forms for Omega^{1/2} and its derivatives,
    the characteristic foot point and the z-uniform flag (a = 0). The
    tabulated family interpolates samples with a not-a-knot `CubicSpline`,
    which carries Omega', Omega'' and the antiderivative that `foot_point`
    inverts.
    """

    constant: float = 1.0
    exponent: float = 0.0
    spline: CubicSpline | None = None  # tabulated family only

    def __post_init__(self):
        if not 0 < self.constant < np.inf:
            raise ValueError("conformal factor must be positive and finite, "
                             f"got {self.constant}")
        if not np.isfinite(self.exponent):
            raise ValueError(
                f"conformal exponent must be finite, got {self.exponent}")

    @classmethod
    def identity(cls) -> "ConformalFactor":
        return cls()

    @classmethod
    def from_constant(cls, c: float) -> "ConformalFactor":
        return cls(constant=float(c))

    @classmethod
    def exponential(cls, a: float) -> "ConformalFactor":
        """Omega(z) = exp(a z); the log-derivative is identically a."""
        return cls(exponent=float(a))

    @classmethod
    def from_spec(cls, spec: str, key: str) -> "ConformalFactor":
        """identity, constant:<c> or exponential:<a>; the ValueError names
        the config key the spec came from."""
        if spec == "identity":
            return cls.identity()
        for kind, arg, build in (("constant", "c", cls.from_constant),
                                 ("exponential", "a", cls.exponential)):
            if spec.startswith(kind + ":"):
                try:
                    value = float(spec.split(":", 1)[1])
                except ValueError:
                    raise ValueError(f"{key}: expected {kind}:<{arg}> with a "
                                     f"number {arg}, got {spec!r}") from None
                return build(value)
        raise ValueError(f"{key}: expected identity, constant:<c> or "
                         f"exponential:<a>, got {spec!r}")

    @classmethod
    def tabulated(cls, z_samples: np.ndarray, values: np.ndarray) -> "ConformalFactor":
        """Not-a-knot cubic spline through positive samples of Omega.

        `CubicSpline` rejects fewer than 4 knots, z_samples that are not
        strictly increasing, non-finite samples and mismatched lengths.
        """
        values = np.asarray(values, dtype=float)
        if np.any(values <= 0):
            raise ValueError("tabulated conformal factor must be positive")
        return cls(spline=CubicSpline(z_samples, values))

    @property
    def z_uniform(self) -> bool:
        """Omega does not depend on z (closed form with a = 0)."""
        return self.spline is None and self.exponent == 0.0

    def value(self, z: np.ndarray) -> np.ndarray:
        """Omega(z); raises ValueError unless it is finite and positive at
        every z.

        A tabulated factor is positive at its knots, but its spline need
        not be between or beyond them; the closed form c e^{a z} can
        overflow to +inf.
        """
        z = np.asarray(z, dtype=float)
        if self.spline is not None:
            om = self.spline(z)
        else:
            with np.errstate(over="ignore"):
                om = self.constant * np.exp(self.exponent * z)
        if not np.all(np.isfinite(om) & (om > 0)):
            raise ValueError("conformal factor is not finite and positive on "
                             "the z points")
        return om

    def log_derivative(self, z: np.ndarray) -> np.ndarray:
        """d/dz ln Omega."""
        z = np.asarray(z, dtype=float)
        if self.spline is not None:
            return self.spline(z, 1) / self.spline(z)
        return np.full_like(z, self.exponent)

    def sqrt_profile(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """w = Omega^{1/2} with its first two z-derivatives.

        Closed form: w = sqrt(c) e^{a z/2}, w' = (a/2) w, w'' = (a^2/4) w.
        The tabulated family takes Omega' and Omega'' from its spline:
        w' = (1/2) w Omega'/Omega, w'' = (1/2) w (Omega''/Omega
        - (1/2) (Omega'/Omega)^2).
        """
        z = np.asarray(z, dtype=float)
        if self.spline is None:
            w = np.sqrt(self.constant) * np.exp(0.5 * self.exponent * z)
            return w, 0.5 * self.exponent * w, 0.25 * self.exponent ** 2 * w
        om = self.value(z)
        w = np.sqrt(om)
        dlog = self.spline(z, 1) / om
        return (w, 0.5 * w * dlog,
                0.5 * w * (self.spline(z, 2) / om - 0.5 * dlog ** 2))

    def foot_point(self, z: np.ndarray, v: float, t: float) -> np.ndarray:
        """Foot z0 of the characteristic dz/dt = v/Omega(z) through z at t.

        The closed form inverts exactly: z0 = z - (v/c) t for a = 0, else
        ln(e^{a z} - a (v/c) t)/a, NaN where that logarithm is undefined
        (the characteristic escapes). A tabulated factor solves
        int_{z0}^{z} Omega(u) du = v t for all z at once, with the spline's
        exact antiderivative F = spline(z, -1) (quartic pieces, zero at the
        first knot, and extrapolated through the end pieces like the
        spline): the bracket, sized from min Omega over z, grows upstream
        (against sign(v t)) by doubling, up to 60 times, and is then
        bisected to adjacent floats. Points with no sign change in the
        bracket have no finite foot (NaN).
        """
        z = np.asarray(z, dtype=float)
        if self.spline is None:
            a = self.exponent
            if a == 0.0:
                return z - (v / self.constant) * t
            arg = np.exp(a * z) - a * (v / self.constant) * t
            with np.errstate(invalid="ignore"):
                return np.where(arg > 0, np.log(np.maximum(arg, 1e-300)) / a,
                                np.nan)
        z = np.atleast_1d(z)
        d = np.sign(v * t)  # 0 leaves every foot at z
        # z0 is reached once d (F(z) - F(z0)) >= |v t|; F increases, so this
        # holds from the foot point upstream and fails at z0 = z
        target = d * self.spline(z, -1) - abs(v * t)
        reached = lambda z0, goal: d * self.spline(z0, -1) <= goal
        span = abs(v * t) / max(1e-12, float(np.min(self.value(z))))
        trials = z - d * span * 2.0 ** np.arange(60)[:, None]  # (60, len(z))
        hit = reached(trials, target)
        found = hit.any(axis=0)
        lo, target = z[found], target[found]  # lo not reached, hi reached
        hi = trials[np.argmax(hit, axis=0), np.arange(z.size)][found]
        while True:
            mid = 0.5 * (lo + hi)
            if np.all((mid == lo) | (mid == hi)):
                break
            up = reached(mid, target)
            hi = np.where(up, mid, hi)
            lo = np.where(up, lo, mid)
        z0 = np.full_like(z, np.nan)
        z0[found] = hi
        return z0


class CoframeBasis:
    """Diagonal coframe given by one routine z -> (h, h', h'').

    `profile(z)` returns h, h', h'', each of shape (3, *z.shape), legs
    ordered (p, q, z); `label` names the coframe in errors and reports.
    `scale_factors` is the one checked accessor every pipeline reads, and
    `structure_rates` the one place the connection coefficients are formed.
    """

    def __init__(self, profile: Callable, label: str = "coframe"):
        self.profile = profile
        self.label = label

    @classmethod
    def exponential(cls, rates: Sequence[float],
                    label: str = "coframe") -> "CoframeBasis":
        """Scale factors h_i(z) = exp(rate_i z); the rates must be finite."""
        r = np.asarray(rates, dtype=float)
        if not np.all(np.isfinite(r)):
            raise ValueError(f"rates must be finite, got {tuple(r.tolist())}")

        def profile(z):
            k = r.reshape(3, *(1,) * z.ndim)
            a = np.exp(k * z)
            return a, k * a, k * k * a

        return cls(profile, label)

    @classmethod
    def from_samples(cls, z_samples: np.ndarray, coeff_samples: Sequence[np.ndarray],
                     label: str = "tabulated") -> "CoframeBasis":
        """Scale factors h_p, h_q, h_z interpolated from samples on z_samples.

        Each is a not-a-knot `CubicSpline` through its samples; its first
        and second derivatives are the spline's own, exact on the cubic
        pieces and extrapolated through the end pieces. `CubicSpline`
        rejects fewer than 4 knots, z_samples that are not strictly
        increasing, non-finite samples and mismatched lengths.
        """
        if len(coeff_samples) != 3:
            raise ValueError("coeff_samples must hold the samples of three "
                             f"coefficients, got {len(coeff_samples)}")
        splines = [CubicSpline(z_samples, c) for c in coeff_samples]

        def profile(z):
            return tuple(np.stack([s(z, nu) for s in splines]) for nu in range(3))

        return cls(profile, label)

    def scale_factors(self, z: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(h, h', h'') on z; raises ValueError, with no warning, unless
        h > 0 and all three are finite on every z point."""
        z = np.asarray(z, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            h = self.profile(z)
        if not (np.all(h[0] > 0) and np.all(np.isfinite(h))):
            raise ValueError(f"{self.label}: scale factors must be finite "
                             "and positive, and their first two derivatives "
                             "finite, on the z points")
        return h

    def structure_rates(self, z: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(h, c, c') on z: the scale factors, c_i = h_i'/(h_z h_i) and
        their z-derivatives, from one evaluation of the profile.

        c and c' may overflow; their readers check them.
        """
        h, dh, d2h = self.scale_factors(z)
        with np.errstate(over="ignore", invalid="ignore"):
            c = dh / (h[2] * h)
            dc = d2h / (h[2] * h) - c * (dh[2] / h[2] + dh / h)
        return h, c, dc


@dataclass(frozen=True)
class FrameMetric(CoframeBasis):
    """The coframe of the stretched metric with optional conformal factor.

    lam is the stretching rate per unit z and must be finite. With the
    identity factor the scale factors are exactly (e^{-lam z}, e^{lam z},
    1); the metric determinant is the squared product of the scale factors,
    i.e. Omega^3. The metric has no z range of its own: the `Grid3D` it is
    sampled on owns it. The label defaults to "lam=<lam>".
    """

    lam: float
    omega: ConformalFactor = field(default_factory=ConformalFactor.identity)
    label: str = field(default="", kw_only=True)

    def __post_init__(self):
        if not np.isfinite(self.lam):
            raise ValueError(f"lam must be finite, got {self.lam}")
        if not self.label:
            object.__setattr__(self, "label", f"lam={self.lam:g}")

    def profile(self, z: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """h_i = w e^{r_i z} with r = (-lam, lam, 0), and h_i', h_i''.

        w = Omega^{1/2} and its derivatives come from
        `ConformalFactor.sqrt_profile`, so h' = (w' + r w) e^{r z} and
        h'' = (w'' + 2 r w' + r^2 w) e^{r z}.
        """
        r = np.array([-self.lam, self.lam, 0.0]).reshape(3, *(1,) * z.ndim)
        w, dw, d2w = self.omega.sqrt_profile(z)
        e = np.exp(r * z)
        return w * e, (dw + r * w) * e, (d2w + 2 * r * dw + r * r * w) * e

    def grid(self, n_p: int = 32, n_q: int = 32, n_z: int = 128,
             z_periodic: bool = False) -> "Grid3D":
        """A grid on the default z interval [0, 1]."""
        return Grid3D(n_p, n_q, n_z, z_periodic=z_periodic)


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
        if not self.z_max > self.z_min:
            raise ValueError(
                f"z range [{self.z_min}, {self.z_max}] is empty")
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


def overflow_safe_norms(norm: Callable[[np.ndarray], np.ndarray],
                        fields: np.ndarray,
                        weights: np.ndarray | None = None) -> np.ndarray:
    """norm(fields), normed again where its squares overflowed.

    norm maps fields stacked on leading axes, (*lead, ...), to their norms,
    shape lead, each the square root of a weighted sum of squares of the
    field's entries; a field with entries above ~1.3e154 overflows the
    squares and reads inf, or NaN where a weight of 0 multiplies an inf
    square. Only fields whose norm is not finite are normed again: entries
    whose weight along the last axis (`weights`, if given) is 0 are set to
    0, the field is scaled by 2^-e with e the binary exponent of its max
    remaining |entry|, and its norm scaled back by 2^e. A power of two
    scales exactly, so every finite norm keeps its bits and costs no extra
    pass, and an entry of weight 0 can neither poison a norm nor set its
    scale. A field whose norm exceeds the double range reads inf, and one
    holding inf or NaN where it is weighted (e = 0) keeps the norm it had.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.asarray(norm(fields))
        over = ~np.isfinite(out)
        if over.any():
            big = fields[over]
            if weights is not None:
                big = np.where(weights != 0, big, 0.0)
            e = np.frexp(np.abs(big).reshape(len(big), -1).max(axis=1))[1]
            scaled = np.ldexp(big, -e.reshape(-1, *(1,) * (big.ndim - 1)))
            out[over] = np.ldexp(norm(scaled), e)
    return out


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        bad = int(np.size(a) - np.count_nonzero(np.isfinite(a)))
        raise ValueError(f"{what} contains {bad} non-finite values")


@dataclass(frozen=True)
class FrameField:
    """Vector field stored as three scalar grids in the orthonormal frame.

    A p or q axis of length 1 stands for a field constant along it, as in
    the collapsed state `evolve` advances; the operators and norms of
    `FrameOperators` treat it as broadcast over the grid.
    """

    grid: Grid3D
    data: np.ndarray  # shape (3, n_p or 1, n_q or 1, n_z)

    def __post_init__(self):
        n_p, n_q, n_z = self.grid.shape
        shape = self.data.shape
        if not (len(shape) == 4 and shape[0] == 3 and shape[1] in (1, n_p)
                and shape[2] in (1, n_q) and shape[3] == n_z):
            raise ValueError(f"field shape {shape} does not match grid "
                             f"{(3, *self.grid.shape)} (p, q axes may be 1)")

    @classmethod
    def from_components(cls, grid: Grid3D, bp: np.ndarray, bq: np.ndarray,
                        bz: np.ndarray) -> "FrameField":
        data = np.stack([np.broadcast_to(np.asarray(c, dtype=float), grid.shape)
                         for c in (bp, bq, bz)])
        return cls(grid, np.ascontiguousarray(data))

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


def _field_data(B: FrameField | np.ndarray, grid: Grid3D,
                what: str) -> np.ndarray:
    """The data of B, an array or a FrameField on `grid`."""
    if isinstance(B, FrameField) and B.grid != grid:
        raise ValueError(f"{what}: the field is on {B.grid}, not on {grid}")
    return B.data if isinstance(B, FrameField) else B


@functools.lru_cache(maxsize=4)
def _z_matrices(n_z: int, dz: float,
                periodic: bool) -> tuple[np.ndarray, np.ndarray]:
    """The read-only first and second z-derivative matrices of a z grid.

    Cached for the last 4 z grids, so every `FrameOperators` on one grid
    shares one pair, and a caller's operator and the one `evolve` builds
    form them once; the cache keeps up to 4 pairs of n_z-by-n_z matrices
    after the operators are gone.
    """
    mats = tuple(z_derivative_matrix(n_z, dz, order, periodic)
                 for order in (1, 2))
    for D in mats:
        D.flags.writeable = False
    return mats


class FrameOperators:
    """grad/div/curl/vector Laplacian on a fixed (coframe, grid) pair.

    Precomputes the coframe's coefficient profiles, and takes its read-only
    z-differentiation matrices from `_z_matrices`; raises ValueError unless
    its scale factors are finite and positive on grid.z. Inputs are never
    mutated; every result is checked finite. A FrameField on another grid
    is rejected with ValueError, whatever its shape.
    """

    def __init__(self, coframe: CoframeBasis, grid: Grid3D):
        self.grid = grid
        self.d1, self.d2 = _z_matrices(grid.n_z, grid.dz, grid.z_periodic)
        h, c, _ = coframe.structure_rates(grid.z)
        self.inv_h = tuple(1.0 / h)
        # curl coefficients c_i = h_i'/(h_i h_z); div B = (1/h_p) dp Bp
        # + (1/h_q) dq Bq + (1/h_z) dz Bz + (c_p + c_q) Bz
        self.c_curl_p, self.c_curl_q = c[0], c[1]
        self.c_div = c[0] + c[1]
        # z measure of the norms: sqrt(det g) dz, restricted to the interior
        # third on closed grids; the norms take the p,q mean against it
        measure = h[0] * h[1] * h[2] * grid.z_weights()
        if not grid.z_periodic:
            mask = np.zeros(grid.n_z)
            mask[grid.interior_z_slice()] = 1.0
            measure = measure * mask
        self.measure = measure

    # -- derivative helpers -------------------------------------------------

    def dp(self, f: np.ndarray) -> np.ndarray:
        return spectral_derivative(f, axis=-3, order=1)

    def dq(self, f: np.ndarray) -> np.ndarray:
        return spectral_derivative(f, axis=-2, order=1)

    def dz(self, f: np.ndarray) -> np.ndarray:
        return (f.reshape(-1, f.shape[-1]) @ self.d1.T).reshape(f.shape)

    def dzz(self, f: np.ndarray) -> np.ndarray:
        return (f.reshape(-1, f.shape[-1]) @ self.d2.T).reshape(f.shape)

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

    def div(self, B: FrameField | np.ndarray,
            components: slice = slice(0, 3)) -> np.ndarray:
        """Divergence of a field, or of fields stacked on leading axes.

        B is a FrameField or an array (..., k, n_p', n_q', n_z) of the k
        frame components `components` of (p, q, z), all three by default;
        the result drops the component axis. The z-derivative is one matmul
        with a batch per field, so each field of a stack gets exactly the
        figures of a call on it alone.

        Terms that are exactly zero are not formed: those of a component B
        does not hold, the dp term of a field constant along p (an axis of
        length 1), the dq term of one constant along q, and the terms of a
        component that is identically zero over the whole input. The input
        is checked finite first, so each of them would add exactly +-0: the
        figures are those of the four-term sum, up to the sign of a zero,
        and a field with no term left has divergence 0.
        """
        data = _field_data(B, self.grid, "div")
        held = range(3)[components]
        if data.ndim < 4 or data.shape[-4] != len(held):
            raise ValueError(f"div: shape {data.shape} is not (..., "
                             f"{len(held)}, n_p, n_q, n_z)")
        self._pq_points(data)
        _require_finite(data, "div input")
        # a component not held forms no term, as an all-zero one forms none
        comps = dict(zip(held, np.moveaxis(data, -4, 0)))
        bp, bq, bz = (comps.get(c, np.zeros((1, 1, 1))) for c in range(3))
        terms = []
        if bp.shape[-3] > 1 and bp.any():
            terms.append(self.inv_h[0] * self.dp(bp))
        if bq.shape[-2] > 1 and bq.any():
            terms.append(self.inv_h[1] * self.dq(bq))
        if bz.any():
            per_field = (-1, bz.shape[-3] * bz.shape[-2], bz.shape[-1])
            terms += [self.inv_h[2] * np.matmul(bz.reshape(per_field),
                                                self.d1.T).reshape(bz.shape),
                      self.c_div * bz]
        if not terms:
            return np.zeros(data.shape[:-4] + data.shape[-3:])
        out = sum(terms[1:], terms[0])
        _require_finite(out, "div output")
        return out

    def curl(self, B: FrameField) -> FrameField:
        _require_finite(_field_data(B, self.grid, "curl"), "curl input")
        cp = (self.inv_h[1] * self.dq(B.bz)
              - self.inv_h[2] * self.dz(B.bq) - self.c_curl_q * B.bq)
        cq = (self.inv_h[2] * self.dz(B.bp) + self.c_curl_p * B.bp
              - self.inv_h[0] * self.dp(B.bz))
        cz = self.inv_h[0] * self.dp(B.bq) - self.inv_h[1] * self.dq(B.bp)
        out = np.stack([cp, cq, cz])
        _require_finite(out, "curl output")
        return FrameField(self.grid, out)

    def vector_laplacian(self, B: FrameField) -> FrameField:
        """grad(div B) - curl(curl B), the frame vector Laplacian."""
        gd = self.grad(self.div(B))
        cc = self.curl(self.curl(B))
        return FrameField(self.grid, gd.data - cc.data)

    # -- norms --------------------------------------------------------------

    def _pq_points(self, a: np.ndarray) -> int:
        """Number of p,q points of a (..., n_p or 1, n_q or 1, n_z) array."""
        n_p, n_q, n_z = a.shape[-3:]
        if n_p not in (1, self.grid.n_p) or n_q not in (1, self.grid.n_q) \
                or n_z != self.grid.n_z:
            raise ValueError(f"array shape {a.shape} does not end in grid "
                             f"{self.grid.shape} (p, q axes may be 1)")
        return n_p * n_q

    def l2_norm(self, a: np.ndarray) -> float:
        """Volume-weighted L2 norm of a scalar or stacked-component array.

        The squared field is averaged over p and q and integrated against
        sqrt(det g) dz, so a p or q axis of length 1 (a field constant
        along it) gives the same figure as the full grid. Closed-interval
        grids integrate over the interior third only (the measurement
        region); periodic grids integrate over the full domain. A field
        whose squares overflow is normed again, scaled by a power of two
        and with its entries outside the measurement region set to 0
        (`overflow_safe_norms`), so its norm is finite while the field is
        finite in that region and its norm is in the double range.
        """
        n = self._pq_points(a)
        return float(overflow_safe_norms(
            lambda r: np.sqrt(np.einsum("...iz,...iz->...z", r, r)
                              @ self.measure / n),
            a.reshape(-1, a.shape[-1]), self.measure))

    def component_norms(self, B: FrameField | np.ndarray) -> np.ndarray:
        """Per-component L2 norms, each the p,q mean as in `l2_norm`.

        B is a FrameField or an array (..., C, n_p', n_q', n_z) of fields of
        C components stacked on leading axes; the result has shape (..., C).
        Each field's norms are one matrix-vector product over its
        components, so a field of a stack gets exactly the figures of a
        call on it alone. Measured, C = 1 gives exactly the figures of
        `l2_norm`; C >= 2 may differ from them in the last bit, by row (C = 2
        equals rows 0 and 1 of C = 3). Fields whose squares overflow are
        normed as in `l2_norm`.
        """
        data = _field_data(B, self.grid, "component_norms")
        n = self._pq_points(data)
        return overflow_safe_norms(
            lambda d: np.sqrt(np.einsum("...pqz,...pqz->...z", d, d)
                              @ self.measure / n), data, self.measure)
