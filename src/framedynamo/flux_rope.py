"""Twisted flux-rope model: curve frames, tube metric factor, dynamo bounds.

A rope is a thin magnetic tube around a space curve with curvature
kappa(s) and torsion tau(s). The tangent/normal/binormal triad satisfies

    t' = kappa n,   n' = -kappa t + tau b,   b' = -tau n,

`frenet_integrate` advances the triad by a 4th-order Magnus method: each
step is one rotation about the step's averaged Darboux vector, so the triad
stays orthonormal to round-off without renormalisation (Iserles,
Munthe-Kaas, Norsett & Zanna, Acta Numerica 9, 2000; Blanes, Casas, Oteo &
Ros, Phys. Rep. 470, 2009).

The tube cross-section angle winds as theta(s) = theta0 - int tau ds.
The tube metric deviates from flat by K(s) = 1 - r kappa(s) cos theta(s).
The endpoint dynamo quantities are the poloidal/toroidal amplification
ratio tau*omega*r/gamma^2, the radius bound r > gamma^2/(omega tau), and
the poloidal amplitude B_theta = B0 exp(gamma t - int (1 - K) dtheta).
"""
from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .differentiation import z_derivative_matrix

__all__ = [
    "FrenetCurve",
    "RopeParams",
    "TubeMetric",
    "NoDynamoBoundError",
    "frenet_integrate",
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
    kappa: np.ndarray
    tau: np.ndarray
    ds: float

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


# Gauss-Legendre nodes of [0, 1] for the two-point Magnus step
_GAUSS = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)


def frenet_integrate(kappa, tau, s_max: float, ds: float,
                     x0=(0.0, 0.0, 0.0),
                     t0=(1.0, 0.0, 0.0), n0=(0.0, 1.0, 0.0)) -> FrenetCurve:
    """Integrate the frame equations with a 4th-order Magnus method.

    With F the matrix of rows (t, n, b), F' = -[w]x F for the body-frame
    Darboux vector w = (tau, 0, kappa). Each step of size h samples w at
    the two Gauss points, w1 and w2, and rotates the frame by
    F <- R(theta)^T F with theta = (h/2)(w1 + w2) + (sqrt(3) h^2/12) w1 x w2
    (Rodrigues), so the triad stays orthonormal to round-off. Positions
    integrate t by the corrected trapezoid rule, whose h^2/12 end terms
    use t' = kappa n. Both are 4th order in ds; constant kappa and tau
    rotate the frame exactly.

    kappa and tau may be floats or callables of s; kappa must be
    non-negative and kappa*ds <= 0.1 everywhere (step-size guard).
    t0 and n0 set the initial triad: t0 must be non-zero and n0 not
    parallel to it (n0 is projected orthogonal to t0).
    """
    if not 0.0 < ds < np.inf:
        raise ValueError(f"ds must be positive and finite, got {ds}")
    if not 0.0 <= s_max < np.inf:
        raise ValueError(f"s_max must be non-negative and finite, got {s_max}")
    m = int(round(s_max / ds)) + 1
    s = np.arange(m) * ds
    kap = _as_profile(kappa, s)
    tor = _as_profile(tau, s)
    if np.any(kap < 0):
        raise ValueError("curvature profile must be non-negative")
    if np.max(kap) * ds > 0.1:
        raise ValueError(f"step too large: max kappa*ds = {np.max(kap) * ds:.3g} > 0.1")

    t0 = np.asarray(t0, dtype=float)
    n0 = np.asarray(n0, dtype=float)
    t_len = np.linalg.norm(t0)
    if not t_len > 0.0:
        raise ValueError(f"t0 must be a non-zero vector, got {t0}")
    t0 = t0 / t_len
    n_perp = n0 - np.dot(n0, t0) * t0
    n_len = np.linalg.norm(n_perp)
    if not n_len > 1e-12 * np.linalg.norm(n0):
        raise ValueError(f"n0 must not be parallel to t0, got n0 = {n0}")
    n0 = n_perp / n_len

    # per-step rotation vectors theta, shape (m - 1, 3)
    w1, w2 = (np.stack([_as_profile(tau, s[:-1] + c * ds),
                        np.zeros(m - 1),
                        _as_profile(kappa, s[:-1] + c * ds)], axis=1)
              for c in _GAUSS)
    theta = 0.5 * ds * (w1 + w2) + (np.sqrt(3.0) * ds ** 2 / 12.0) * np.cross(w1, w2)
    # R = I + a [theta]x + b [theta]x^2, a = sin|theta|/|theta|,
    # b = 2 sin^2(|theta|/2)/|theta|^2 (no 1 - cos cancellation)
    ang = np.linalg.norm(theta, axis=1)
    safe = np.where(ang > 0.0, ang, 1.0)  # theta = 0 gives R = I for any a, b
    a = np.sin(ang) / safe
    b = 2.0 * (np.sin(0.5 * ang) / safe) ** 2
    # rows theta x e_j make K = [theta]x^T, so R^T = I + a K + b K^2
    K = np.cross(theta[:, None, :], np.eye(3))
    rot_t = np.eye(3) + a[:, None, None] * K + b[:, None, None] * (K @ K)

    frames = np.empty((m, 3, 3))
    frames[0] = t0, n0, np.cross(t0, n0)
    for i in range(m - 1):
        np.matmul(rot_t[i], frames[i], out=frames[i + 1])
    ts, ns, bs = frames[:, 0], frames[:, 1], frames[:, 2]

    kn = kap[:, None] * ns
    xs = np.empty((m, 3))
    xs[0] = x0
    xs[1:] = xs[0] + np.cumsum(0.5 * ds * (ts[:-1] + ts[1:])
                               + (ds ** 2 / 12.0) * (kn[:-1] - kn[1:]), axis=0)
    return FrenetCurve(s, xs, ts, ns, bs, kap, tor, ds)


@dataclass(frozen=True)
class RopeParams:
    """Scalar rope parameters.

    gamma is the exponential growth rate of the poloidal amplitude (the
    exponent in e^{gamma t}); omega is the cross-section rotation rate;
    tau/kappa the (scalar) torsion and curvature entering the endpoint
    formulas; theta0 the reference angle.
    """

    r: float
    omega: float = 1.0
    gamma: float = 1.0
    tau: float = 1.0
    kappa: float = 1.0
    theta0: float = 0.0
    b_amplitude: float = 1.0  # B0 of the poloidal solution

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("tube radius must be non-negative")


@dataclass(frozen=True)
class TubeMetric:
    """Tube stretch factor K(s) = 1 - r kappa(s) cos theta(s)."""

    s: np.ndarray
    K: np.ndarray
    theta: np.ndarray
    thin: bool


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid-rule integral of y over x, 0 at x[0]."""
    out = np.zeros(len(x))
    out[1:] = np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)
    return out


def tube_metric_factor(params: RopeParams, kappa_profile, tau_profile,
                       s: np.ndarray) -> TubeMetric:
    """K(s) along the rope; rejects self-intersecting tubes (K <= 0)."""
    s = np.asarray(s, dtype=float)
    kap = _as_profile(kappa_profile, s)
    tor = _as_profile(tau_profile, s)
    if params.r * np.max(kap, initial=0.0) >= 1.0:
        raise ValueError("tube radius exceeds 1/max(kappa): metric factor "
                         "would vanish")
    theta = params.theta0 - cumulative_trapezoid(tor, s)
    K = 1.0 - params.r * kap * np.cos(theta)
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


def is_dynamo(params: RopeParams, r: float | None = None) -> bool:
    """Radius predicate r > gamma^2/(omega tau); False when no bound exists."""
    try:
        bound = dynamo_radius_bound(params)
    except NoDynamoBoundError:
        return False
    return (params.r if r is None else r) > bound


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


def continuity_residual(s: np.ndarray, v_theta: np.ndarray, r: float,
                        kappa_profile, tau_profile,
                        dv_theta: np.ndarray | None = None) -> np.ndarray:
    """Residual of ds(v_theta) + v_theta r tau kappa = 0.

    The derivative is 4th-order finite-differenced unless supplied
    analytically.
    """
    s = np.asarray(s, dtype=float)
    v = np.asarray(v_theta, dtype=float)
    kap = _as_profile(kappa_profile, s)
    tor = _as_profile(tau_profile, s)
    if dv_theta is None:
        D = z_derivative_matrix(len(s), float(s[1] - s[0]), 1)
        dv_theta = D @ v
    return dv_theta + v * r * tor * kap


def continuity_solution(s: np.ndarray, r: float, kappa_profile, tau_profile,
                        v0: float = 1.0) -> np.ndarray:
    """Exact angular-flow profile v_theta(s) = v0 exp(-r int tau kappa ds)."""
    s = np.asarray(s, dtype=float)
    kap = _as_profile(kappa_profile, s)
    tor = _as_profile(tau_profile, s)
    return v0 * np.exp(-r * cumulative_trapezoid(tor * kap, s))


def rope_csv(tube: TubeMetric, kappa_profile, tau_profile,
             v_theta: np.ndarray, b_theta: np.ndarray) -> str:
    """CSV block (s, kappa, tau, K, theta, v_theta, B_theta)."""
    s = tube.s
    kap = _as_profile(kappa_profile, s)
    tor = _as_profile(tau_profile, s)
    buf = io.StringIO()
    buf.write("s,kappa,tau,K,theta,v_theta,B_theta\n")
    for i in range(len(s)):
        buf.write("%.15g,%.15g,%.15g,%.15g,%.15g,%.15g,%.15g\n" % (
            s[i], kap[i], tor[i], tube.K[i], tube.theta[i], v_theta[i],
            b_theta[i]))
    return buf.getvalue()
