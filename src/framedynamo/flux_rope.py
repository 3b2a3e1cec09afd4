"""Twisted flux-rope model: curve frames, tube metric factor, dynamo bounds.

A rope is a thin magnetic tube around a space curve with curvature
kappa(s) and torsion tau(s). The tangent/normal/binormal triad satisfies

    t' = kappa n,   n' = -kappa t + tau b,   b' = -tau n,

and the tube cross-section angle winds as theta(s) = theta0 - int tau ds.
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


def _frenet_rate(y: np.ndarray, kappa: float, tau: float) -> np.ndarray:
    x, t, n, b = y.reshape(4, 3)
    return np.concatenate([t, kappa * n, -kappa * t + tau * b, -tau * n])


def _orthonormalize(y: np.ndarray) -> np.ndarray:
    x, t, n, b = y.reshape(4, 3).copy()
    t /= np.linalg.norm(t)
    n -= np.dot(n, t) * t
    n /= np.linalg.norm(n)
    b = np.cross(t, n)
    return np.concatenate([x, t, n, b])


def frenet_integrate(kappa, tau, s_max: float, ds: float,
                     x0=(0.0, 0.0, 0.0),
                     t0=(1.0, 0.0, 0.0), n0=(0.0, 1.0, 0.0)) -> FrenetCurve:
    """Integrate the frame equations with RK4 and per-step renormalization.

    kappa and tau may be floats or callables of s; kappa must be
    non-negative and kappa*ds <= 0.1 everywhere (step-size guard).
    """
    m = int(round(s_max / ds)) + 1
    s = np.arange(m) * ds
    kap = _as_profile(kappa, s)
    tor = _as_profile(tau, s)
    if np.any(kap < 0):
        raise ValueError("curvature profile must be non-negative")
    if np.max(kap) * ds > 0.1:
        raise ValueError(f"step too large: max kappa*ds = {np.max(kap) * ds:.3g} > 0.1")

    kap_f = kappa if callable(kappa) else (lambda si: float(kappa))
    tor_f = tau if callable(tau) else (lambda si: float(tau))

    t0 = np.asarray(t0, dtype=float)
    n0 = np.asarray(n0, dtype=float) - np.dot(n0, t0) * t0 / np.dot(t0, t0)
    t0 = t0 / np.linalg.norm(t0)
    n0 = n0 / np.linalg.norm(n0)
    y = np.concatenate([np.asarray(x0, dtype=float), t0, n0, np.cross(t0, n0)])

    xs = np.empty((m, 3))
    ts = np.empty((m, 3))
    ns = np.empty((m, 3))
    bs = np.empty((m, 3))

    def store(i, yv):
        xs[i], ts[i], ns[i], bs[i] = yv.reshape(4, 3)

    store(0, y)
    for i in range(m - 1):
        si = s[i]
        k1 = _frenet_rate(y, kap_f(si), tor_f(si))
        k2 = _frenet_rate(y + 0.5 * ds * k1, kap_f(si + 0.5 * ds), tor_f(si + 0.5 * ds))
        k3 = _frenet_rate(y + 0.5 * ds * k2, kap_f(si + 0.5 * ds), tor_f(si + 0.5 * ds))
        k4 = _frenet_rate(y + ds * k3, kap_f(si + ds), tor_f(si + ds))
        y = y + ds / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        y = _orthonormalize(y)
        store(i + 1, y)
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
