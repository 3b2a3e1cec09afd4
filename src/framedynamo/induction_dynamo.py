"""Magnetic induction evolution in the stretched frame and its oracles.

The flow is (0, 0, v) with constant v; with a conformal factor Omega(z) the
advection acts through the effective speed v_eff = v / Omega. The ideal
(eta = 0) component system is

    dt Bp = -v_eff dz Bp - lam v_eff Bp
    dt Bq = -v_eff dz Bq + lam v_eff Bq
    dt Bz = -v_eff dz Bz + v (ln Omega)' / Omega * Bz

so Bq grows at +lam v_eff, Bp decays at -lam v_eff, and Bz picks up the
conformal stretching factor Omega(z)/Omega(z0) along characteristics.
Resistive terms follow the component equations of the stretched frame:
eta[(Lap - lam^2) B_{p,q} - 2 lam e^{+-lam z} d_{p,q} Bz] for the p, q slots
and eta[Lap - 2 lam dz] Bz, plus first-order z-corrections proportional to
(ln Omega)'.

The right-hand side is evaluated in fused form: every term that couples
z points only (advection, growth, stretching and, with eta > 0, dzz, the
(ln Omega)' corrections, -2 lam dz and -lam^2) is folded into one
n_z-by-n_z matrix per component and applied in one batched matmul. Only
e^{+-2 lam z} dpp/dqq and the d_{p,q} Bz cross terms remain separate.

The system dB/dt = L B is linear and autonomous, so one classical RK4 step
of size h is exactly B <- P(h L) B, P(x) = 1 + x + x^2/2 + x^3/6 + x^4/24,
and s steps are B <- P(h L)^s B. With eta = 0, L couples z points only, so
the whole interval between two samples is one precomputed n_z-by-n_z
propagator per component; the fields inside an interval are never formed.

Everything with eta = 0 has an exact method-of-characteristics solution
(`characteristics_oracle`), used as ground truth for the RK4 solver.
"""
from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .differentiation import spectral_derivative
from .frame_calculus import (ConformalFactor, FrameField, FrameMetric,
                             FrameOperators, Grid3D)

__all__ = [
    "CatMap",
    "cat_map_eigen",
    "CAT_STRETCH_RATE",
    "InitialField",
    "DynamoScenario",
    "EvolutionSeries",
    "EvolutionResult",
    "NumericalError",
    "induction_rhs",
    "evolve",
    "characteristics_oracle",
    "GrowthFit",
    "growth_fit",
    "stable_dt",
]


class NumericalError(RuntimeError):
    """Raised when the time integration produces non-finite values."""


# -- cat map ------------------------------------------------------------------


@dataclass(frozen=True)
class CatMap:
    """The hyperbolic torus map [[2, 1], [1, 1]] and its eigenstructure."""

    matrix: np.ndarray
    eigenvalues: tuple[float, float]   # (chi1 > 1, chi2 < 1)
    eigenvectors: np.ndarray           # columns, matching eigenvalue order

    @property
    def stretch_rate(self) -> float:
        """ln chi1, the stretching exponent per unit z."""
        return float(np.log(self.eigenvalues[0]))


def cat_map_eigen() -> CatMap:
    m = np.array([[2.0, 1.0], [1.0, 1.0]])
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    return CatMap(m, (float(vals[0]), float(vals[1])), vecs)


CAT_STRETCH_RATE = float(np.log((3.0 + np.sqrt(5.0)) / 2.0))


# -- scenario -----------------------------------------------------------------


@dataclass(frozen=True)
class InitialField:
    """Initial magnetic field as per-component callables of (p, q, z).

    Callables must accept broadcast arrays and be defined for every z the
    characteristics can reach; set `z_limited` when they are only valid on
    the metric's z interval, so the oracle can flag left-behind points.
    """

    bp: Callable = None
    bq: Callable = None
    bz: Callable = None
    z_limited: bool = False

    def __post_init__(self):
        zero = lambda p, q, z: np.zeros(np.broadcast(p, q, z).shape)
        object.__setattr__(self, "bp", self.bp or zero)
        object.__setattr__(self, "bq", self.bq or zero)
        object.__setattr__(self, "bz", self.bz or zero)

    @classmethod
    def q_slot(cls, g: Callable) -> "InitialField":
        return cls(bq=lambda p, q, z: g(z) * np.ones(np.broadcast(p, q, z).shape))

    @classmethod
    def p_slot(cls, g: Callable) -> "InitialField":
        return cls(bp=lambda p, q, z: g(z) * np.ones(np.broadcast(p, q, z).shape))

    @classmethod
    def z_slot(cls, g: Callable) -> "InitialField":
        return cls(bz=lambda p, q, z: g(z) * np.ones(np.broadcast(p, q, z).shape))

    @classmethod
    def pq_profiles(cls, gp: Callable, gq: Callable) -> "InitialField":
        """z-profiles in the p and q slots; exactly divergence-free."""
        return cls(bp=lambda p, q, z: gp(z) * np.ones(np.broadcast(p, q, z).shape),
                   bq=lambda p, q, z: gq(z) * np.ones(np.broadcast(p, q, z).shape))

    @classmethod
    def solenoidal_pz(cls, lam: float, h: Callable, dh: Callable) -> "InitialField":
        """Divergence-free field with p and z structure.

        Bz = cos(2 pi p) h(z), Bp = -e^{-lam z} h'(z) sin(2 pi p) / (2 pi),
        so e^{lam z} dp Bp + dz Bz = 0 analytically.
        """
        return cls(
            bp=lambda p, q, z: -np.exp(-lam * z) * dh(z) * np.sin(2 * np.pi * p) / (2 * np.pi),
            bz=lambda p, q, z: np.cos(2 * np.pi * p) * h(z),
        )

    @classmethod
    def random_fourier(cls, seed: int, n_modes: int = 3, slot: str = "q") -> "InitialField":
        """Smooth random 1-periodic z-profile in one frame slot."""
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=n_modes) / np.arange(1, n_modes + 1)
        phases = rng.uniform(0, 2 * np.pi, size=n_modes)

        def g(z):
            out = np.zeros_like(np.asarray(z, dtype=float))
            for k in range(n_modes):
                out += amps[k] * np.sin(2 * np.pi * (k + 1) * z + phases[k])
            return out + 2.0  # offset keeps the norm away from zero

        return {"p": cls.p_slot, "q": cls.q_slot, "z": cls.z_slot}[slot](g)

    def on_grid(self, grid: Grid3D) -> FrameField:
        return FrameField.from_callables(grid, self.bp, self.bq, self.bz)


def stable_dt(metric: FrameMetric, grid: Grid3D, flow_speed: float,
              cfl: float = 0.4) -> float:
    """Advective time step dt = cfl * dz / max |v_eff|."""
    veff = np.abs(flow_speed / metric.omega.value(grid.z))
    vmax = float(np.max(veff))
    if vmax == 0.0:
        return cfl * grid.dz
    return cfl * grid.dz / vmax


@dataclass(frozen=True)
class DynamoScenario:
    """Everything needed to run one induction evolution."""

    metric: FrameMetric
    grid: Grid3D
    flow_speed: float
    initial_field: InitialField
    t_end: float
    dt: float
    resistivity: float = 0.0
    # steps per sample interval; an ideal run advances a whole interval per
    # matmul. 0: choose automatically (~200 samples); capped at n_steps
    sample_stride: int = 0
    overflow_factor: float = 1e12
    probe_weights: dict[str, Callable] = field(default_factory=dict)

    def __post_init__(self):
        if self.resistivity < 0:
            raise ValueError("resistivity must be non-negative")
        if self.t_end <= 0 or self.dt <= 0:
            raise ValueError("t_end and dt must be positive")
        if self.grid.z_min != self.metric.z_min or self.grid.z_max != self.metric.z_max:
            raise ValueError("grid and metric z ranges disagree")
        vmax = float(np.max(np.abs(self.flow_speed / self.metric.omega.value(self.grid.z))))
        if vmax > 0 and self.dt > 0.5 * self.grid.dz / vmax + 1e-15:
            raise ValueError(
                f"dt={self.dt:g} violates the advective bound "
                f"0.5*dz/|v_eff|max={0.5 * self.grid.dz / vmax:g}")
        if self.grid.z_periodic and self.metric.omega.kind not in ("identity", "constant"):
            raise ValueError("periodic z requires a z-uniform conformal factor")

    @property
    def n_steps(self) -> int:
        return int(np.ceil(self.t_end / self.dt - 1e-12))

    @property
    def stride(self) -> int:
        if self.sample_stride > 0:
            return min(self.sample_stride, self.n_steps)
        return max(1, self.n_steps // 200)


# -- right-hand side ----------------------------------------------------------


class _RHS:
    """Fused right-hand side; `zmat_t` holds each component's z-operator."""

    def __init__(self, scenario: DynamoScenario):
        m, g = scenario.metric, scenario.grid
        self.op = FrameOperators(m, g)
        z = g.z
        lam, v, eta = m.lam, scenario.flow_speed, scenario.resistivity
        om = m.omega.value(z)
        dlog = m.omega.log_derivative(z)
        w = v / om                            # effective advection speed
        corr = 0.5 * dlog / om                # (1/2) Omega^{-2} Omega'
        rate = np.stack([-lam * w - eta * (lam ** 2 + lam * corr),
                         lam * w - eta * (lam ** 2 - lam * corr),
                         v * dlog / om])
        d1, d2 = self.op.d1, self.op.d2
        base = eta * d2 - (w + eta * corr)[:, None] * d1
        mats = np.stack([base, base, base - 2.0 * eta * lam * d1])
        mats[:, np.arange(g.n_z), np.arange(g.n_z)] += rate
        self.zmat_t = np.ascontiguousarray(mats.transpose(0, 2, 1))
        self.eta = eta
        self.c_pp = eta * np.exp(2.0 * lam * z)
        self.c_qq = eta * np.exp(-2.0 * lam * z)
        self.c_cross_p = 2.0 * eta * lam * np.exp(lam * z)
        self.c_cross_q = 2.0 * eta * lam * np.exp(-lam * z)

    def __call__(self, data: np.ndarray, out: np.ndarray | None = None
                 ) -> np.ndarray:
        if out is None:
            out = np.empty(data.shape)
        n_z = data.shape[-1]
        np.matmul(data.reshape(3, -1, n_z), self.zmat_t,
                  out=out.reshape(3, -1, n_z))
        if self.eta > 0:
            for axis, coef in ((1, self.c_pp), (2, self.c_qq)):
                dd = spectral_derivative(data, axis, 2)
                dd *= coef
                out += dd
            out[0] -= self.c_cross_p * self.op.dp(data[2])
            out[1] -= self.c_cross_q * self.op.dq(data[2])
        return out


def induction_rhs(scenario: DynamoScenario, B: FrameField,
                  t: float = 0.0) -> FrameField:
    """Right-hand side of the induction system at one instant."""
    del t  # the system is autonomous; kept for rate-function symmetry
    rhs = _RHS(scenario)
    if not np.all(np.isfinite(B.data)):
        raise ValueError("induction_rhs: field contains non-finite values")
    return FrameField(scenario.grid, rhs(B.data))


# -- evolution ----------------------------------------------------------------


@dataclass
class EvolutionSeries:
    """Sampled norms along an evolution.

    l2 norms are volume-weighted (sqrt(det g) measure); div_rel is
    ||div B||_2 / ||B||_2 over the measurement region. On closed-interval
    grids the measurement region is the interior third of z; on periodic
    grids it is the full domain.
    """

    t: np.ndarray
    l2: np.ndarray        # (n, 3) per component
    total_l2: np.ndarray  # (n,)
    div_rel: np.ndarray   # (n,)
    probes: dict[str, np.ndarray]
    truncated: bool = False

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("t,norm_bp,norm_bq,norm_bz,div_residual\n")
        for n in range(len(self.t)):
            buf.write("%.15g,%.15g,%.15g,%.15g,%.15g\n" % (
                self.t[n], self.l2[n, 0], self.l2[n, 1], self.l2[n, 2],
                self.div_rel[n]))
        return buf.getvalue()


@dataclass
class EvolutionResult:
    """Final field, sampled series, and what the run did and why it stopped."""

    field: FrameField
    series: EvolutionSeries
    steps: int           # RK4 steps taken
    dt: float            # step size, t_end / n_steps
    stop_reason: str     # "completed" or "overflow guard"


def evolve(scenario: DynamoScenario) -> EvolutionResult:
    """Classical 4-stage Runge-Kutta integration of the induction system.

    A step applies P(h L). With eta = 0, L couples z points only, so P(h L)
    is an n_z-by-n_z matrix per component, built by Horner's rule, and the
    run advances one sample interval of `stride` steps per batched matmul
    with P(h L)^stride (the last interval with P(h L)^(n_steps mod stride)).
    The fields between two samples are never formed, so a non-finite field
    is reported at the end of its sample interval. With eta > 0 the p, q
    terms couple p, q points, so each step is four RHS calls:
    k = L b; k = L(b + c k) for c = h/4, h/3, h/2; b += h k, and a
    non-finite field is reported at its step.

    The run samples at t = 0, at every `stride` steps and at t_end, and
    stops early with stop_reason "overflow guard" once a sampled norm
    exceeds `overflow_factor` times the initial one.
    """
    rhs = _RHS(scenario)
    grid = scenario.grid
    b = scenario.initial_field.on_grid(grid).data.copy()
    if not np.all(np.isfinite(b)):
        raise ValueError("initial field contains non-finite values")
    nsteps = scenario.n_steps
    dt = scenario.t_end / nsteps
    stride = scenario.stride
    op = rhs.op
    measure = op._measure()
    probe_w = {name: np.asarray(fn(grid.z), dtype=float) * measure
               for name, fn in scenario.probe_weights.items()}

    times, l2s, totals, divs = [], [], [], []
    probes: dict[str, list] = {name: [] for name in probe_w}

    def record(t, data):
        fld = FrameField(grid, data)
        comp = op.component_norms(fld)
        total = float(np.sqrt(np.sum(comp ** 2)))
        divnorm = op.l2_norm(op.div(fld))
        times.append(t)
        l2s.append(comp)
        totals.append(total)
        divs.append(divnorm / total if total > 0 else 0.0)
        for name, w in probe_w.items():
            probes[name].append(float(np.sqrt(
                np.einsum("pqz,pqz,z->", data[1], data[1], w))))
        return total

    initial_total = record(0.0, b)
    guard = scenario.overflow_factor * max(initial_total, 1e-300)
    stop_reason = "completed"
    ideal = scenario.resistivity == 0.0
    if ideal:
        # P(A)^T = P(A^T), so Horner applies to the transposed layout as is;
        # one component at a time keeps the n_z-by-n_z temporaries few
        diag = np.arange(grid.n_z)
        propagators = {n: np.empty_like(rhs.zmat_t)
                       for n in {stride, nsteps % stride} - {0}}
        for comp, zmat in enumerate(rhs.zmat_t):
            a = dt * zmat
            poly = a / 4.0
            for c in (3.0, 2.0, 1.0):
                poly[diag, diag] += 1.0
                poly = (a / c) @ poly
            poly[diag, diag] += 1.0
            for n, power in propagators.items():
                power[comp] = np.linalg.matrix_power(poly, n)
        nxt = np.empty_like(b)
        rows = (3, -1, grid.n_z)
    else:
        stage, k = np.empty_like(b), np.empty_like(b)
    step = 0
    while step < nsteps:
        end = min(step + stride, nsteps)
        while step < end:
            if ideal:
                np.matmul(b.reshape(rows), propagators[end - step],
                          out=nxt.reshape(rows))
                b, nxt = nxt, b
                step = end
            else:
                rhs(b, out=k)
                for c in (dt / 4.0, dt / 3.0, dt / 2.0):
                    np.multiply(k, c, out=stage)
                    stage += b
                    rhs(stage, out=k)
                k *= dt
                b += k
                step += 1
            if not np.all(np.isfinite(b)):
                raise NumericalError(f"non-finite field at step {step} "
                                     f"(t={step * dt:g})")
        if record(step * dt, b) > guard:
            stop_reason = "overflow guard"
            break

    series = EvolutionSeries(
        t=np.array(times), l2=np.array(l2s),
        total_l2=np.array(totals), div_rel=np.array(divs),
        probes={k: np.array(v) for k, v in probes.items()},
        truncated=stop_reason != "completed")
    return EvolutionResult(FrameField(grid, b), series, step, dt, stop_reason)


# -- method of characteristics -------------------------------------------------


def _trace_back(scenario: DynamoScenario, z: np.ndarray, t: float) -> np.ndarray:
    """Characteristic foot points z0 with dz/dt = v_eff(z) = v/Omega(z)."""
    om = scenario.metric.omega
    v = scenario.flow_speed
    if om.kind == "identity":
        return z - v * t
    if om.kind == "constant":
        return z - (v / om.constant) * t
    if om.kind == "exponential":
        a = om.exponent
        if a == 0.0:
            return z - v * t
        arg = np.exp(a * z) - a * v * t
        with np.errstate(invalid="ignore"):
            return np.where(arg > 0, np.log(np.maximum(arg, 1e-300)) / a, np.nan)
    # tabulated factor: invert t = int_{z0}^{z} Omega(u)/v du pointwise
    from scipy.integrate import quad
    from scipy.optimize import brentq

    def shoot(zi):
        f = lambda z0: quad(lambda u: om.value(np.array([u]))[0] / v, z0, zi,
                            limit=200)[0] - t
        # f(zi) = -t < 0; expand the bracket downstream until f flips sign
        span = abs(v) * t / max(1e-12, float(np.min(om.value(scenario.grid.z))))
        lo = zi - span
        for _ in range(60):
            if f(lo) >= 0.0:
                return brentq(f, lo, zi + 1e-12)
            span *= 2.0
            lo = zi - span
        return np.nan  # characteristic escapes: no finite foot point

    return np.array([shoot(zi) for zi in np.atleast_1d(z)])


def characteristics_oracle(scenario: DynamoScenario, t: float
                           ) -> tuple[FrameField, np.ndarray]:
    """Exact ideal solution at time t, and a validity mask over z.

    Requires eta = 0. Components translate along z-characteristics and pick
    up exp(-lam (z - z0)), exp(+lam (z - z0)), Omega(z)/Omega(z0)
    respectively. Points whose foot leaves a z-limited initial condition's
    domain are masked out and flagged by the mask.
    """
    if scenario.resistivity != 0.0:
        raise ValueError("characteristics oracle requires zero resistivity")
    grid = scenario.grid
    z = grid.z
    z0 = _trace_back(scenario, z, t)
    mask = np.isfinite(z0)
    if scenario.initial_field.z_limited:
        mask &= (z0 >= scenario.metric.z_min - 1e-12) & \
                (z0 <= scenario.metric.z_max + 1e-12)
    z0_safe = np.where(mask, z0, scenario.metric.z_min)
    lam = scenario.metric.lam
    om = scenario.metric.omega
    shift = z - z0_safe
    fac_p = np.exp(-lam * shift)
    fac_q = np.exp(+lam * shift)
    fac_z = om.value(z) / om.value(z0_safe)
    P, Q, _ = grid.mesh()
    Z0 = np.broadcast_to(z0_safe, grid.shape)
    init = scenario.initial_field
    data = np.stack([
        init.bp(P, Q, Z0) * fac_p,
        init.bq(P, Q, Z0) * fac_q,
        init.bz(P, Q, Z0) * fac_z,
    ]) * np.where(mask, 1.0, np.nan)
    return FrameField(grid, data), mask


# -- growth fitting -----------------------------------------------------------


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares exponential rate of a norm series."""

    t: np.ndarray
    log_norm: np.ndarray
    rate: float
    theory_rate: float
    residual_rms: float
    window: tuple[float, float]

    @property
    def relative_error(self) -> float:
        if self.theory_rate == 0.0:
            return abs(self.rate)
        return abs(self.rate - self.theory_rate) / abs(self.theory_rate)

    def report(self) -> str:
        return ("growth rate fit\n"
                f"  fitted rate   : {self.rate:.12g}\n"
                f"  theory rate   : {self.theory_rate:.12g}\n"
                f"  relative error: {self.relative_error:.6g}\n"
                f"  fit residual  : {self.residual_rms:.6g}\n"
                f"  window        : [{self.window[0]:.3g}, {self.window[1]:.3g}] "
                "of the series\n")


def growth_fit(t: np.ndarray, norms: np.ndarray, theory_rate: float = 0.0,
               window: tuple[float, float] = (0.4, 1.0)) -> GrowthFit:
    """Fit log||B|| against t over a trailing fraction of the series.

    The window is a fraction pair of the sample count; its start must skip
    at least the first 20% of samples (initial transient).
    """
    t = np.asarray(t, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if window[0] < 0.2:
        raise ValueError("fit window must exclude the first 20% of samples")
    if np.any(norms <= 0):
        raise ValueError("norm series must be strictly positive for a log fit")
    n = len(t)
    lo, hi = int(window[0] * n), int(window[1] * n)
    if hi - lo < 20:
        raise ValueError(f"need at least 20 samples past the transient, "
                         f"got {hi - lo}")
    tw, yw = t[lo:hi], np.log(norms[lo:hi])
    slope, intercept = np.polyfit(tw, yw, 1)
    resid = yw - (slope * tw + intercept)
    return GrowthFit(t, np.log(norms), float(slope), float(theory_rate),
                     float(np.sqrt(np.mean(resid ** 2))), window)
