"""Twisted flux-rope model: curve frames, tube metric factor, dynamo bounds.

A rope is a thin magnetic tube around a space curve with curvature
kappa(s) and torsion tau(s). The tangent/normal/binormal triad satisfies

    t' = kappa n,   n' = -kappa t + tau b,   b' = -tau n,

`frenet_integrate` advances the triad by a 4th-order Magnus method: each
step is one rotation about the step's averaged Darboux vector, so the triad
stays orthonormal to round-off without renormalisation (Iserles,
Munthe-Kaas, Norsett & Zanna, Acta Numerica 9, 2000; Blanes, Casas, Oteo &
Ros, Phys. Rep. 470, 2009). The triads are the prefix products of those
rotations, formed by a doubling scan rather than one step at a time.

The rope has one owner: `RopeParams` carries its radius r and the
constant curvature kappa and torsion tau of its axis, and the tube, B_theta,
continuity and CSV functions read them from there. Only `frenet_integrate`
takes kappa(s) and tau(s) as profiles of s (floats or callables).

The tube cross-section angle winds as theta(s) = theta0 - tau s.
The tube metric deviates from flat by K(s) = 1 - r kappa cos theta(s).
The endpoint dynamo quantities are the poloidal/toroidal amplification
ratio tau*omega*r/gamma^2, the radius bound r > gamma^2/(omega tau), and
the poloidal amplitude B_theta = B0 exp(gamma t - int (1 - K) dtheta).
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .differentiation import z_derivative_matrix

__all__ = [
    "FrenetCurve",
    "RopeParams",
    "TubeMetric",
    "NoDynamoBoundError",
    "frenet_integrate",
    "MAX_FRENET_STEPS",
    "tube_metric_factor",
    "amplification_ratio",
    "dynamo_radius_bound",
    "is_dynamo",
    "btheta_solution",
    "continuity_residual",
    "continuity_solution",
    "rope_csv",
]


class NoDynamoBoundError(ValueError):
    """The radius bound gamma^2/(omega tau) needs omega*tau > 0."""


def _as_profile(f, s: np.ndarray) -> np.ndarray:
    if callable(f):
        return np.asarray(f(s), dtype=float) * np.ones_like(s)
    return np.full_like(s, float(f))


@dataclass(frozen=True)
class FrenetCurve:
    """Discretized curve with its orthonormal triad per arclength sample."""

    s: np.ndarray
    x: np.ndarray       # (m, 3) positions
    t: np.ndarray       # (m, 3) tangents
    n: np.ndarray       # (m, 3) normals
    b: np.ndarray       # (m, 3) binormals

    def orthonormality_drift(self) -> float:
        """Worst deviation of the triad from orthonormality."""
        worst = 0.0
        for u, v in ((self.t, self.t), (self.n, self.n), (self.b, self.b)):
            worst = max(worst, float(np.max(np.abs(np.sum(u * v, axis=1) - 1.0))))
        for u, v in ((self.t, self.n), (self.t, self.b), (self.n, self.b)):
            worst = max(worst, float(np.max(np.abs(np.sum(u * v, axis=1)))))
        return worst

    def binormal_residual(self) -> float:
        """max |b - t x n|."""
        return float(np.max(np.abs(self.b - np.cross(self.t, self.n))))


# the most steps `frenet_integrate` takes: about 0.45 GB of working arrays
MAX_FRENET_STEPS = 10 ** 6

# Gauss-Legendre nodes of [0, 1] for the two-point Magnus step
_GAUSS = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)


def frenet_integrate(kappa, tau, s_max: float, ds: float) -> FrenetCurve:
    """Integrate the frame equations with a 4th-order Magnus method.

    With F the matrix of rows (t, n, b), F' = -[w]x F for the body-frame
    Darboux vector w = (tau, 0, kappa). Each step of size h samples w at
    the two Gauss points, w1 and w2, and rotates the frame by
    F <- R(theta)^T F with theta = (h/2)(w1 + w2) + (sqrt(3) h^2/12) w1 x w2
    (Rodrigues), so the triad stays orthonormal to round-off. Positions
    integrate t by the corrected trapezoid rule, whose h^2/12 end terms
    use t' = kappa n. Both are 4th order in h; constant kappa and tau
    rotate the frame exactly.

    The curve ends at s_max: it takes n = ceil(s_max/ds) steps of equal
    size h = s_max/n <= ds, so s = 0, h, ..., n h (a ratio s_max/ds at
    most a relative 1e-12 above a whole number, as round-off leaves it,
    rounds down to that number); s_max = 0 gives the starting point
    alone, and more than MAX_FRENET_STEPS steps (an infinite s_max/ds
    among them) raise ValueError before anything is allocated. The frame after step k is the product R_k^T ... R_1^T of the
    step rotations, formed by a doubling prefix scan (Hillis & Steele,
    CACM 29, 1986): ceil(log2(n)) batched matmuls, each combining every
    partial product with the one d steps before it, for d = 1, 2, 4, ...

    kappa and tau may be floats or callables of s; kappa must be
    non-negative and kappa*h <= 0.1 everywhere (step-size guard). The
    curve starts at the origin with the triad (t, n, b) = (e_x, e_y, e_z).
    """
    if not 0.0 < ds < np.inf:
        raise ValueError(f"ds must be positive and finite, got {ds}")
    if not 0.0 <= s_max < np.inf:
        raise ValueError(f"s_max must be non-negative and finite, got {s_max}")
    ratio = s_max / ds * (1.0 - 1e-12)
    if not ratio <= MAX_FRENET_STEPS:
        raise ValueError(f"ds={ds:g} is too small for s_max={s_max:g}: it "
                         f"takes {s_max / ds:.7g} steps, more than "
                         f"MAX_FRENET_STEPS={MAX_FRENET_STEPS}")
    steps = math.ceil(ratio)
    h = s_max / steps if steps else ds
    m = steps + 1
    s = np.arange(m) * h
    kap = _as_profile(kappa, s)
    if np.any(kap < 0):
        raise ValueError("curvature profile must be non-negative")
    if np.max(kap) * h > 0.1:
        raise ValueError(f"step too large: max kappa*h = {np.max(kap) * h:.3g} > 0.1")

    # per-step rotation vectors theta, shape (m - 1, 3)
    w1, w2 = (np.stack([_as_profile(tau, s[:-1] + c * h),
                        np.zeros(m - 1),
                        _as_profile(kappa, s[:-1] + c * h)], axis=1)
              for c in _GAUSS)
    theta = 0.5 * h * (w1 + w2) + (np.sqrt(3.0) * h ** 2 / 12.0) * np.cross(w1, w2)
    # R = I + a [theta]x + b [theta]x^2, a = sin|theta|/|theta|,
    # b = 2 sin^2(|theta|/2)/|theta|^2 (no 1 - cos cancellation)
    ang = np.linalg.norm(theta, axis=1)
    safe = np.where(ang > 0.0, ang, 1.0)  # theta = 0 gives R = I for any a, b
    a = np.sin(ang) / safe
    b = 2.0 * (np.sin(0.5 * ang) / safe) ** 2
    # rows theta x e_j make K = [theta]x^T, so R^T = I + a K + b K^2
    K = np.cross(theta[:, None, :], np.eye(3))
    rot_t = np.eye(3) + a[:, None, None] * K + b[:, None, None] * (K @ K)

    # frames[k] = R_k^T ... R_1^T: after the pass with stride d, frames[k]
    # holds the product of the 2d rotations up to step k (fewer near k = 0)
    frames = np.empty((m, 3, 3))
    frames[0] = np.eye(3)
    frames[1:] = rot_t
    d = 1
    while d < m - 1:
        frames[d + 1:] = frames[d + 1:] @ frames[1:m - d]
        d *= 2
    ts, ns, bs = frames[:, 0], frames[:, 1], frames[:, 2]

    kn = kap[:, None] * ns
    xs = np.zeros((m, 3))
    xs[1:] = np.cumsum(0.5 * h * (ts[:-1] + ts[1:])
                       + (h ** 2 / 12.0) * (kn[:-1] - kn[1:]), axis=0)
    return FrenetCurve(s, xs, ts, ns, bs)


@dataclass(frozen=True)
class RopeParams:
    """The rope: the only source of its radius, curvature and torsion.

    r is the tube radius and kappa/tau the constant curvature and torsion
    of its axis; the tube winding, B_theta, the continuity profile, the
    CSV and the endpoint formulas all read them from here. gamma is the
    exponential growth rate of the poloidal amplitude (the exponent in
    e^{gamma t}); omega is the cross-section rotation rate; theta0 the
    reference angle. Every field must be finite, r and kappa
    non-negative; gamma = 0 and negative omega and tau are accepted.
    """

    r: float
    omega: float = 1.0
    gamma: float = 1.0
    tau: float = 1.0
    kappa: float = 1.0
    theta0: float = 0.0
    b_amplitude: float = 1.0  # B0 of the poloidal solution

    def __post_init__(self):
        for name, value in vars(self).items():
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.r < 0:
            raise ValueError(f"tube radius r must be non-negative, got {self.r}")
        if self.kappa < 0:
            raise ValueError(f"curvature kappa must be non-negative, "
                             f"got {self.kappa}")


@dataclass(frozen=True)
class TubeMetric:
    """Tube stretch factor K(s) = 1 - r kappa cos theta(s)."""

    s: np.ndarray
    K: np.ndarray
    theta: np.ndarray
    thin: bool


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid-rule integral of y over x, 0 at x[0]."""
    out = np.zeros(len(x))
    out[1:] = np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)
    return out


def tube_metric_factor(params: RopeParams, s: np.ndarray) -> TubeMetric:
    """K(s) along the rope; rejects self-intersecting tubes (K <= 0)."""
    s = np.asarray(s, dtype=float)
    if params.r * params.kappa >= 1.0:
        raise ValueError("tube radius exceeds 1/kappa: metric factor "
                         "would vanish")
    theta = params.theta0 - cumulative_trapezoid(np.full_like(s, params.tau), s)
    K = 1.0 - params.r * params.kappa * np.cos(theta)
    if np.any(K <= 0):
        raise ValueError("tube metric factor is non-positive somewhere")
    return TubeMetric(s, K, theta, thin=bool(np.max(np.abs(1.0 - K)) < 0.05))


def amplification_ratio(params: RopeParams) -> float:
    """Poloidal-to-toroidal ratio tau*omega*r/gamma^2; positive means dynamo."""
    if params.gamma == 0.0:
        raise ValueError("amplification ratio is undefined for gamma = 0")
    return params.tau * params.omega * params.r / params.gamma ** 2


def dynamo_radius_bound(params: RopeParams) -> float:
    """Lower radius bound gamma^2/(omega tau) for rope dynamo action."""
    ot = params.omega * params.tau
    if ot <= 0.0:
        raise NoDynamoBoundError(
            f"omega*tau = {ot:g} <= 0: no dynamo radius bound exists")
    return params.gamma ** 2 / ot


def is_dynamo(params: RopeParams) -> bool:
    """Radius predicate r > gamma^2/(omega tau); False when no bound exists."""
    try:
        return params.r > dynamo_radius_bound(params)
    except NoDynamoBoundError:
        return False


def btheta_solution(params: RopeParams, tube: TubeMetric,
                    t: float | np.ndarray) -> np.ndarray:
    """Poloidal amplitude B0 exp(gamma t - int (1 - K) dtheta) over s.

    The angle integral accumulates along the stored theta(s) (dtheta =
    -tau ds), evaluated with the trapezoid rule. Returns shape (len(s),)
    for scalar t, else (len(t), len(s)).
    """
    integral = cumulative_trapezoid(1.0 - tube.K, tube.theta)
    t_arr = np.expand_dims(np.asarray(t, dtype=float), -1)
    return params.b_amplitude * np.exp(params.gamma * t_arr - integral)


def continuity_residual(params: RopeParams, s: np.ndarray, v_theta: np.ndarray,
                        dv_theta: np.ndarray | None = None) -> np.ndarray:
    """Residual of ds(v_theta) + v_theta r tau kappa = 0.

    The derivative is 4th-order finite-differenced unless supplied
    analytically; differencing needs s strictly increasing and uniformly
    spaced (to a relative 1e-9) with at least 5 points, and raises
    ValueError otherwise.
    """
    s = np.asarray(s, dtype=float)
    v = np.asarray(v_theta, dtype=float)
    if dv_theta is None:
        if s.ndim != 1 or s.size < 5:
            raise ValueError(f"s must be a 1-D array of at least 5 points, "
                             f"got shape {s.shape}")
        step = np.diff(s)
        if not (np.all(step > 0) and np.ptp(step) <= 1e-9 * step[0]):
            raise ValueError("s must be strictly increasing and uniformly "
                             "spaced to finite-difference v_theta")
        D = z_derivative_matrix(len(s), float(s[1] - s[0]), 1)
        dv_theta = D @ v
    return dv_theta + v * params.r * params.tau * params.kappa


def continuity_solution(params: RopeParams, s: np.ndarray,
                        v0: float = 1.0) -> np.ndarray:
    """Exact angular-flow profile v_theta(s) = v0 exp(-r int tau kappa ds)."""
    s = np.asarray(s, dtype=float)
    integrand = np.full_like(s, params.tau * params.kappa)
    return v0 * np.exp(-params.r * cumulative_trapezoid(integrand, s))


def rope_csv(params: RopeParams, tube: TubeMetric, v_theta: np.ndarray,
             b_theta: np.ndarray) -> str:
    """CSV block (s, kappa, tau, K, theta, v_theta, B_theta)."""
    buf = io.StringIO()
    buf.write("s,kappa,tau,K,theta,v_theta,B_theta\n")
    for i in range(len(tube.s)):
        buf.write("%.15g,%.15g,%.15g,%.15g,%.15g,%.15g,%.15g\n" % (
            tube.s[i], params.kappa, params.tau, tube.K[i], tube.theta[i],
            v_theta[i], b_theta[i]))
    return buf.getvalue()
