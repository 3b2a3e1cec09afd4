"""Twisted flux-rope model: curve frames, tube metric factor, dynamo bounds.

A rope is a thin magnetic tube around a space curve, its axis, of constant
curvature kappa and torsion tau. The tangent/normal/binormal triad satisfies

    t' = kappa n,   n' = -kappa t + tau b,   b' = -tau n,

a rotation of the triad at the constant Darboux vector, so the axis is a
helix (a circle for tau = 0, a line for kappa = 0). `frenet_integrate`
forms the triad in closed form by Rodrigues' formula, orthonormal to
round-off at every sample, and integrates the positions by the corrected
trapezoid rule.

The rope has one owner: `RopeParams` carries its radius r and the
constant curvature kappa and torsion tau of its axis, and the tube,
B_theta, continuity and CSV functions read them from there; its callers
pass kappa and tau to `frenet_integrate`.

The tube cross-section angle winds as theta(s) = theta0 - tau (s - s0).
The tube metric deviates from flat by K(s) = 1 - r kappa cos theta(s).
The endpoint dynamo quantities are the poloidal/toroidal amplification
ratio tau*omega*r/gamma^2, the radius bound r > gamma^2/(omega tau), and
the poloidal amplitude B_theta = B0 exp(gamma t - int (1 - K) dtheta),
int (1 - K) dtheta = r kappa (sin theta - sin theta0): every integral
along the rope is in closed form, from its first sample s0, and only the
axis positions are a quadrature.
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


# the most steps `frenet_integrate` takes: its tracemalloc peak is 216 B a
# step, about 0.22 GB, of which the returned curve holds 104 B a step
MAX_FRENET_STEPS = 10 ** 6


def frenet_integrate(kappa: float, tau: float, s_max: float,
                     ds: float) -> FrenetCurve:
    """The axis of constant curvature kappa and torsion tau: its triad in
    closed form, its positions by quadrature.

    With F the matrix of rows (t, n, b), F' = -[w]x F for the constant
    body-frame Darboux vector w = (tau, 0, kappa), so F(s) = R(s)^T F(0)
    exactly, R(s) the rotation by phi = |w| s about u = w/|w|. Rodrigues'
    formula forms it for all samples at once,
    R^T = cos(phi) I + 2 sin^2(phi/2) u u^T - sin(phi) [u]x, with the
    versine 2 sin^2(phi/2) in place of 1 - cos(phi), which cancels; the
    triad is orthonormal to round-off at every s, however long the arc.
    Positions integrate t by the corrected trapezoid rule, whose h^2/12
    end terms use t' = kappa n: 4th order in h, the one discretisation
    error of the curve.

    The curve ends at s_max: it takes n = ceil(s_max/ds) steps of equal
    size h = s_max/n <= ds, so s = 0, h, ..., n h (a ratio s_max/ds at
    most a relative 1e-12 above a whole number, as round-off leaves it,
    rounds down to that number); s_max = 0 gives the starting point
    alone, and more than MAX_FRENET_STEPS steps (an infinite s_max/ds
    among them) raise ValueError before anything is allocated.

    kappa must be non-negative, and kappa*h and |tau|*h at most 0.1
    (step-size guard of the position rule, which also keeps phi finite).
    The curve starts at the origin with the triad (t, n, b) =
    (e_x, e_y, e_z).
    """
    kappa, tau, s_max, ds = map(float, (kappa, tau, s_max, ds))
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
    if kappa < 0:
        raise ValueError(f"curvature kappa must be non-negative, got {kappa}")
    # Python float products: inf where they overflow, with no warning
    kh, th = kappa * h, tau * h
    for name, step in (("kappa", kh), ("|tau|", abs(th))):
        if not step <= 0.1:
            raise ValueError(f"step too large: max {name}*h = {step:.3g} > 0.1")

    # phi_k = k |w| h from the guarded |w| h <= 0.15, which cannot overflow
    wh = math.hypot(kh, th)
    ux, uz = (th / wh, kh / wh) if wh else (1.0, 0.0)
    k = np.arange(steps + 1)
    s, phi = k * h, k * wh
    sin, vers = np.sin(phi), 2.0 * np.sin(0.5 * phi) ** 2
    cos = 1.0 - vers
    # the rows of R^T, with u = (ux, 0, uz)
    ts = np.column_stack([cos + vers * ux * ux, sin * uz, vers * ux * uz])
    ns = np.column_stack([-sin * uz, cos, sin * ux])
    bs = np.column_stack([vers * ux * uz, -sin * ux, cos + vers * uz * uz])

    kn = kappa * ns
    xs = np.zeros((steps + 1, 3))
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


def tube_metric_factor(params: RopeParams, s: np.ndarray) -> TubeMetric:
    """K(s) along the rope; rejects self-intersecting tubes (K <= 0)."""
    s = np.asarray(s, dtype=float)
    if params.r * params.kappa >= 1.0:
        raise ValueError("tube radius exceeds 1/kappa: metric factor "
                         "would vanish")
    theta = params.theta0 - params.tau * (s - s[:1])
    K = 1.0 - params.r * params.kappa * np.cos(theta)
    if np.any(K <= 0):
        raise ValueError("tube metric factor is non-positive somewhere")
    return TubeMetric(s, K, theta, thin=bool(np.max(np.abs(1.0 - K)) < 0.05))


def _quotient(num: tuple[float, ...], den: tuple[float, ...]) -> float:
    """prod(num)/prod(den); inf where it overflows or den holds a zero.

    The binary exponents (math.frexp) are summed apart from the mantissas,
    so no intermediate product under- or overflows, only the quotient
    itself; where the plain float expression, multiplied left to right,
    has no intermediate under- or overflow, the two agree bit for bit.
    """
    def split(factors):
        mant, exp = 1.0, 0
        for x in factors:
            m, e = math.frexp(x)
            mant, exp = mant * m, exp + e
        return mant, exp

    (mn, en), (md, ed) = split(num), split(den)
    if md == 0.0:
        return math.inf
    try:
        return math.ldexp(mn / md, en - ed)
    except OverflowError:
        return math.inf


def amplification_ratio(params: RopeParams) -> float:
    """Poloidal-to-toroidal ratio tau*omega*r/gamma^2; positive means dynamo.

    Raises ValueError unless it is finite (gamma^2 = 0 has none); an
    intermediate product that would under- or overflow does not count.
    """
    ratio = _quotient((params.tau, params.omega, params.r),
                      (params.gamma, params.gamma))
    if not math.isfinite(ratio):
        raise ValueError("amplification ratio tau*omega*r/gamma^2 is not "
                         f"finite for gamma = {params.gamma:g}")
    return ratio


def dynamo_radius_bound(params: RopeParams) -> float:
    """Lower radius bound gamma^2/(omega tau) for rope dynamo action.

    A bound exists where omega and tau have the same sign, read from the
    signs since their product may underflow to 0 (so NoDynamoBoundError
    names omega and tau, not their product); raises ValueError
    unless the bound is finite (an intermediate product that would under-
    or overflow does not count).
    """
    if np.sign(params.omega) * np.sign(params.tau) <= 0:
        raise NoDynamoBoundError(
            f"omega*tau <= 0 for omega = {params.omega:g} and tau = "
            f"{params.tau:g}: no dynamo radius bound exists")
    bound = _quotient((params.gamma, params.gamma), (params.omega, params.tau))
    if not math.isfinite(bound):
        raise ValueError("dynamo radius bound gamma^2/(omega tau) is not "
                         f"finite for gamma = {params.gamma:g}, omega = "
                         f"{params.omega:g} and tau = {params.tau:g}")
    return bound


def is_dynamo(params: RopeParams) -> bool:
    """Radius predicate r > gamma^2/(omega tau); False when no bound exists."""
    try:
        return params.r > dynamo_radius_bound(params)
    except NoDynamoBoundError:
        return False


def btheta_solution(params: RopeParams, tube: TubeMetric,
                    t: float | np.ndarray) -> np.ndarray:
    """Poloidal amplitude B0 exp(gamma t - int (1 - K) dtheta) over s.

    The angle integral is r kappa (sin theta - sin theta0) on the stored
    theta(s). Returns shape (len(s),) for scalar t, else (len(t), len(s));
    t and the amplitude must be finite.
    """
    if not np.all(np.isfinite(t)):
        raise ValueError(f"t must be finite, got {t}")
    integral = params.r * params.kappa * (np.sin(tube.theta)
                                          - np.sin(params.theta0))
    t_arr = np.expand_dims(np.asarray(t, dtype=float), -1)
    with np.errstate(over="ignore", invalid="ignore"):
        b = params.b_amplitude * np.exp(params.gamma * t_arr - integral)
    if not np.all(np.isfinite(b)):
        raise ValueError(f"B_theta overflows for gamma = {params.gamma:g} "
                         f"and B0 = {params.b_amplitude:g}")
    return b


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
        # the end closures (rows 0, 1, 3, 4) and central stencil (row 2) of
        # the 5-point matrix; the stencil is 5 shifted products, O(n) memory
        D = z_derivative_matrix(5, float(s[1] - s[0]), 1)
        dv_theta = np.empty((len(s), *v.shape[1:]))
        dv_theta[:2], dv_theta[-2:] = D[:2] @ v[:5], D[3:] @ v[-5:]
        dv_theta[2:-2] = sum(w * v[k:len(s) - 4 + k]
                             for k, w in enumerate(D[2]))
    return dv_theta + v * params.r * params.tau * params.kappa


def continuity_solution(params: RopeParams, s: np.ndarray,
                        v0: float = 1.0) -> np.ndarray:
    """Exact angular-flow profile v_theta(s) = v0 exp(-r tau kappa (s - s0))."""
    if not np.isfinite(v0):
        raise ValueError(f"v0 = v_theta(0) must be finite, got {v0}")
    s = np.asarray(s, dtype=float)
    return v0 * np.exp(-params.r * params.tau * params.kappa * (s - s[:1]))


def rope_csv(params: RopeParams, tube: TubeMetric, v_theta: np.ndarray,
             b_theta: np.ndarray) -> str:
    """CSV block (s, kappa, tau, K, theta, v_theta, B_theta)."""
    buf = io.StringIO()
    columns = np.broadcast_arrays(tube.s, params.kappa, params.tau, tube.K,
                                  tube.theta, v_theta, b_theta)
    np.savetxt(buf, np.column_stack(columns), fmt="%.15g", delimiter=",",
               header="s,kappa,tau,K,theta,v_theta,B_theta", comments="")
    return buf.getvalue()
