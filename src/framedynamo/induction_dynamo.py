"""Magnetic induction evolution in the stretched frame and its oracles.

The flow is (0, 0, v) with constant v; with a conformal factor Omega(z) it
advects at the effective speed v_eff = v / Omega, written w below. With
c = (1/2) (ln Omega)'/Omega and Lap = e^{2 lam z} dpp + e^{-2 lam z} dqq
+ dzz, the component equations of the stretched frame are

    dt Bp = -w dz Bp - lam w Bp
            + eta [(Lap - lam^2) Bp - 2 lam e^{lam z} dp Bz - c (dz + lam) Bp]
    dt Bq = -w dz Bq + lam w Bq
            + eta [(Lap - lam^2) Bq - 2 lam e^{-lam z} dq Bz - c (dz - lam) Bq]
    dt Bz = -w dz Bz + v (ln Omega)'/Omega Bz
            + eta [(Lap - 2 lam dz) Bz - c dz Bz]

so Bq grows at +lam w, Bp decays at -lam w, and Bz picks up the conformal
stretching factor Omega(z)/Omega(z0) along characteristics.

Only the terms that an accepted run reaches are evaluated. The resistive
p, q terms carry e^{+-lam z}, which is not z-periodic, and closed z has no
boundary condition for eta dzz, so `DynamoScenario` accepts eta > 0 only
on periodic z with an initial field constant along p and q. On such a
field dpp, dqq and the dp, dq Bz cross terms vanish, and the operator keeps
the field constant along p and q; periodic z needs a z-uniform Omega, so
c = 0. What remains couples z points only:

    dt Bp = eta dzz Bp - w dz Bp - (lam w + eta lam^2) Bp
    dt Bq = eta dzz Bq - w dz Bq + (lam w - eta lam^2) Bq
    dt Bz = eta dzz Bz - (w + 2 eta lam) dz Bz + v (ln Omega)'/Omega Bz

Each component's right-hand side is one n_z-by-n_z matrix L.

The system dB/dt = L B is linear and autonomous, so one classical RK4 step
of size h is exactly B <- P(h L) B, P(x) = 1 + x + x^2/2 + x^3/6 + x^4/24,
and s steps are B <- P(h L)^s B. Since L couples z points only, `evolve`
forms each sampled state from the initial one, or from the sample before
it, in one go; the fields between two samples are never formed.
- On periodic z, Omega is z-uniform, so L has constant coefficients on a
  wrap-around stencil: it is circulant, diagonal in the z Fourier modes,
  with eigenvalues mu_k the discrete Fourier transform of its first
  column. The state n steps on is irfft(rfft(B0) P(h mu)^n); no
  n_z-by-n_z matrix is applied.
- On closed z the one-sided end rows make L non-circulant. Each interval
  of s steps is one batched matmul with the dense n_z-by-n_z propagator
  P(h L)^s, built once per run.

Because L couples z points only, it also keeps a field that is constant
along p or q exactly constant along it. `evolve` therefore builds and
holds its state at the smallest shape that broadcasts exactly to the
initial field, (3, n_p', n_q', n_z) with n_p' in {1, n_p} and n_q' in
{1, n_q}: the Arnold q-slot run advances 1 x 1 x n_z profiles, a field
with p,q structure the full grid, by the same code. The sampled states
are formed in chunks; each chunk is checked for finite values and
against the overflow guard, and the norms and div_rel of its states are
computed in one batched pass.

Every run also carries a real-axis step bound. Its fastest real decay,
of the z Nyquist mode of Bp (of Bq when lam v < 0), is
eta (16/(3 dz^2) + lam^2) + |lam| max|w|: the stretching decay alone for
eta = 0, and for eta > 0 that of the accepted resistive L, which is z-only
on periodic z with a z-uniform Omega. RK4 is stable on the negative real
axis down to -RK4_REAL_AXIS_LIMIT.

Everything with eta = 0 has an exact method-of-characteristics solution
(`characteristics_oracle`), used as ground truth for the RK4 solver.
"""
from __future__ import annotations

import io
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .frame_calculus import (ConformalFactor, FrameField, FrameMetric,
                             FrameOperators, Grid3D)

__all__ = [
    "CatMap",
    "cat_map_eigen",
    "CAT_STRETCH_RATE",
    "InitialField",
    "named_initial_field",
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
    "ADVECTIVE_LIMIT",
    "RK4_REAL_AXIS_LIMIT",
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


def cat_map_eigen() -> CatMap:
    m = np.array([[2.0, 1.0], [1.0, 1.0]])
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    return CatMap(m, (float(vals[0]), float(vals[1])), vecs)


# ln chi1 = ln((3 + sqrt 5)/2), the stretching exponent per unit z
CAT_STRETCH_RATE = float(np.log((3.0 + np.sqrt(5.0)) / 2.0))


# -- scenario -----------------------------------------------------------------


def _z_profile(g: Callable) -> Callable:
    """The component callable of z-profile g: g(z) broadcast to (p, q, z)."""
    return lambda p, q, z: np.broadcast_to(g(z), np.broadcast(p, q, z).shape)


@dataclass(frozen=True)
class InitialField:
    """Initial magnetic field as per-component callables of (p, q, z).

    `on_grid`, `evolve` and `characteristics_oracle` call each callable
    once on an open mesh, p shaped (n_p, 1, 1), q (1, n_q, 1) and z
    (1, 1, n_z), so a callable must return an array that broadcasts to
    the shape of its broadcast arguments. Callables must be defined for
    every z the characteristics can reach; set `z_limited` when they are
    only valid on the grid's z interval, so the oracle can flag
    left-behind points.
    The zero default and the slot constructors (`q_slot`, `z_slot`,
    `pq_profiles`) evaluate their z-profile on the z argument alone and
    return a read-only broadcast view of it.
    """

    bp: Callable = None
    bq: Callable = None
    bz: Callable = None
    z_limited: bool = False

    def __post_init__(self):
        zero = _z_profile(lambda z: np.zeros(np.shape(z)))
        object.__setattr__(self, "bp", self.bp or zero)
        object.__setattr__(self, "bq", self.bq or zero)
        object.__setattr__(self, "bz", self.bz or zero)

    @classmethod
    def q_slot(cls, g: Callable) -> "InitialField":
        return cls(bq=_z_profile(g))

    @classmethod
    def z_slot(cls, g: Callable) -> "InitialField":
        return cls(bz=_z_profile(g))

    @classmethod
    def pq_profiles(cls, gp: Callable, gq: Callable) -> "InitialField":
        """z-profiles in the p and q slots; exactly divergence-free."""
        return cls(bp=_z_profile(gp), bq=_z_profile(gq))

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
    def random_fourier(cls, seed: int) -> "InitialField":
        """Smooth random 1-periodic z-profile of three modes in the q slot."""
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=3) / np.arange(1, 4)
        phases = rng.uniform(0, 2 * np.pi, size=3)

        def g(z):
            out = np.zeros_like(np.asarray(z, dtype=float))
            for k in range(3):
                out += amps[k] * np.sin(2 * np.pi * (k + 1) * z + phases[k])
            return out + 2.0  # offset keeps the norm away from zero

        return cls.q_slot(g)

    def on_grid(self, grid: Grid3D) -> FrameField:
        return FrameField.from_callables(grid, self.bp, self.bq, self.bz)


def named_initial_field(name: str, lam: float = 0.0, seed: int = 0) -> InitialField:
    """The named initial fields: q_sine, q_random, pq_mixed, solenoidal.

    q_sine puts 2 + sin 2 pi z in the q slot, q_random is
    `random_fourier(seed)`, pq_mixed puts 2 + sin 2 pi z and 2 + cos 2 pi z
    in the p and q slots, and solenoidal is `solenoidal_pz` with
    h = sin 2 pi z on the stretching rate lam.
    """
    if name == "q_sine":
        return InitialField.q_slot(lambda z: 2.0 + np.sin(2 * np.pi * z))
    if name == "q_random":
        return InitialField.random_fourier(seed)
    if name == "pq_mixed":
        return InitialField.pq_profiles(
            lambda z: 2.0 + np.sin(2 * np.pi * z),
            lambda z: 2.0 + np.cos(2 * np.pi * z))
    if name == "solenoidal":
        return InitialField.solenoidal_pz(
            lam, lambda z: np.sin(2 * np.pi * z),
            lambda z: 2 * np.pi * np.cos(2 * np.pi * z))
    raise ValueError(f"init: unknown initial field {name!r}")


# the largest advective number dt max|v_eff| / dz a scenario accepts
ADVECTIVE_LIMIT = 0.5
# RK4 is stable for real decay rates |mu| dt up to this
RK4_REAL_AXIS_LIMIT = 2.785


def _step_rates(metric: FrameMetric, grid: Grid3D, flow_speed: float,
                resistivity: float) -> tuple[float, float]:
    """max |v_eff| and the fastest real decay rate.

    A step dt has the advective number dt max|v_eff| / dz and the real-axis
    number dt times the decay eta (16/(3 dz^2) + lam^2) + |lam| max|v_eff|.
    At the z Nyquist mode the 4th-order central dzz stencil takes
    16/(3 dz^2), the central dz stencil vanishes, and the -eta lam^2 shift
    and the stretching decay -|lam| v_eff of Bp (of Bq when lam v < 0) add
    to it (see the module docstring). Raises ValueError unless Omega > 0
    on grid.z.
    """
    vmax = float(np.max(np.abs(flow_speed / metric.omega.value(grid.z))))
    decay = (resistivity * (16.0 / (3.0 * grid.dz ** 2) + metric.lam ** 2)
             + abs(metric.lam) * vmax)
    return vmax, decay


def stable_dt(metric: FrameMetric, grid: Grid3D, flow_speed: float,
              cfl: float = 0.4, resistivity: float = 0.0) -> float:
    """The smaller of the advective and the real-axis time step.

    The advective step is cfl * dz / max |v_eff| (cfl * dz with no flow).
    The real-axis step puts the real-axis number at the same fraction
    cfl / ADVECTIVE_LIMIT of RK4_REAL_AXIS_LIMIT that the advective number
    takes of ADVECTIVE_LIMIT, so cfl = 0.4 keeps both at 80% of what
    `DynamoScenario` accepts. Raises ValueError for a non-finite
    flow_speed and unless 0 < cfl < inf.
    """
    if not np.isfinite(flow_speed):
        raise ValueError(f"flow_speed must be finite, got {flow_speed}")
    if not 0.0 < cfl < np.inf:
        raise ValueError(f"cfl must be positive and finite, got {cfl}")
    vmax, decay = _step_rates(metric, grid, flow_speed, resistivity)
    dt = cfl * grid.dz / vmax if vmax > 0.0 else cfl * grid.dz
    if decay > 0.0:
        dt = min(dt, cfl / ADVECTIVE_LIMIT * RK4_REAL_AXIS_LIMIT / decay)
    return dt


def _collapse_pq(data: np.ndarray) -> np.ndarray:
    """An array (..., n_p, n_q, n_z) at the smallest shape that broadcasts
    exactly to it.

    It comes back as a view (..., n_p', n_q', n_z), with the p or q axis cut
    to length 1 where the whole array is exactly constant along it. An axis
    of stride 0, as in a broadcast view, is constant without any
    comparison; any other is compared exactly: there is no tolerance, and a
    NaN equals nothing.
    """
    if data.strides[-3] == 0 or (data == data[..., :1, :, :]).all():
        data = data[..., :1, :, :]
    if data.strides[-2] == 0 or (data == data[..., :1, :]).all():
        data = data[..., :1, :]
    return data


def _initial_state(initial: InitialField, grid: Grid3D) -> np.ndarray:
    """The initial field at the smallest shape that broadcasts exactly to it.

    Each component callable is called once on the open mesh, as in
    `InitialField.on_grid`, and its result is cut by `_collapse_pq` before
    anything is broadcast or stacked, so a z-profile never fills the grid.
    Returns a fresh contiguous (3, n_p', n_q', n_z) array; raises ValueError
    if the initial field has a non-finite value.
    """
    P, Q, Z = np.ix_(grid.p, grid.q, grid.z)
    comps = [_collapse_pq(np.broadcast_to(np.asarray(c(P, Q, Z), dtype=float),
                                          grid.shape))
             for c in (initial.bp, initial.bq, initial.bz)]
    shape = np.broadcast_shapes(*(c.shape for c in comps))
    state = np.stack([np.broadcast_to(c, shape) for c in comps])
    if not np.all(np.isfinite(state)):
        raise ValueError("initial field contains non-finite values")
    return state


def _require_constant_along_pq(data: np.ndarray) -> None:
    """Raise unless a field, at the shape `_collapse_pq` or `_initial_state`
    gives it, is constant along p and q.

    Shared by `DynamoScenario` and `induction_rhs` for resistivity > 0.
    """
    if data.shape[1:3] != (1, 1):
        raise ValueError(
            "resistivity > 0 requires a field constant along p and q: the "
            "resistive p, q terms carry e^{+-lam z}, which is not "
            "z-periodic, and closed z has no boundary condition for them")


@dataclass(frozen=True)
class DynamoScenario:
    """Everything needed to run one induction evolution.

    Accepted: an int sample_stride >= 0; overflow_factor > 0 (inf turns
    the guard off); finite resistivity >= 0; finite flow_speed; finite
    t_end, dt > 0; Omega > 0 on grid.z; dt within the advective bound
    0.5 dz / max|v_eff| and the real-axis bound
    dt (eta (16/(3 dz^2) + lam^2) + |lam| max|v_eff|) <= RK4_REAL_AXIS_LIMIT;
    periodic z only with a z-uniform factor. Resistivity > 0 is accepted
    only with an initial field exactly constant along p and q on the grid,
    and then only on periodic z, since closed z has no boundary condition
    for eta dzz (see the module docstring).
    Anything else raises ValueError.
    """

    metric: FrameMetric
    grid: Grid3D
    flow_speed: float
    initial_field: InitialField
    t_end: float
    dt: float
    resistivity: float = 0.0
    # steps per sample interval; a run forms only the sampled states
    # (see `evolve`). 0: choose automatically (~200 samples); capped at
    # n_steps
    sample_stride: int = 0
    overflow_factor: float = 1e12

    def __post_init__(self):
        stride = self.sample_stride
        if (isinstance(stride, bool) or not isinstance(stride, (int, np.integer))
                or stride < 0):
            raise ValueError("sample_stride must be an int >= 0 (0: choose "
                             f"automatically), got {stride!r}")
        if not self.overflow_factor > 0:
            raise ValueError("overflow_factor must be positive and not NaN "
                             f"(inf turns the guard off), got "
                             f"{self.overflow_factor}")
        if not 0.0 <= self.resistivity < np.inf:
            raise ValueError("resistivity must be finite and non-negative, "
                             f"got {self.resistivity}")
        if not np.isfinite(self.flow_speed):
            raise ValueError(f"flow_speed must be finite, got {self.flow_speed}")
        for name in ("t_end", "dt"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {value}")
        vmax, decay = _step_rates(self.metric, self.grid, self.flow_speed,
                                  self.resistivity)
        if vmax > 0 and self.dt > ADVECTIVE_LIMIT * self.grid.dz / vmax + 1e-15:
            raise ValueError(
                f"dt={self.dt:g} violates the advective bound "
                f"0.5*dz/|v_eff|max={ADVECTIVE_LIMIT * self.grid.dz / vmax:g}")
        if self.grid.z_periodic and not self.metric.omega.z_uniform:
            raise ValueError("periodic z requires a z-uniform conformal factor")
        if self.resistivity > 0:
            _require_constant_along_pq(_initial_state(self.initial_field,
                                                      self.grid))
            if not self.grid.z_periodic:
                raise ValueError(
                    "resistivity > 0 requires periodic z: closed z has no "
                    "boundary condition for the diffusion term eta dzz")
        if decay * self.dt > RK4_REAL_AXIS_LIMIT * (1.0 + 1e-12):
            raise ValueError(
                f"dt={self.dt:g} violates the real-axis bound "
                f"dt*(eta*(16/(3 dz^2) + lam^2) + |lam|*max|v_eff|) <= "
                f"{RK4_REAL_AXIS_LIMIT} "
                f"(RK4's real-axis limit), dt <= "
                f"{RK4_REAL_AXIS_LIMIT / decay:g}")

    @property
    def n_steps(self) -> int:
        return int(np.ceil(self.t_end / self.dt - 1e-12))

    @property
    def stride(self) -> int:
        if self.sample_stride > 0:
            return min(self.sample_stride, self.n_steps)
        return max(1, self.n_steps // 200)


# -- right-hand side ----------------------------------------------------------


def _z_operators(scenario: DynamoScenario, op: FrameOperators,
                 cols: slice = slice(None)) -> np.ndarray:
    """Columns `cols` of each component's z-operator L, shape (3, n_z, n).

    L is the fused z-only operator of the module docstring,
    eta d2 - w d1 + rate, with -2 eta lam d1 more for Bz.
    """
    m, g = scenario.metric, scenario.grid
    lam, v, eta = m.lam, scenario.flow_speed, scenario.resistivity
    om = m.omega.value(g.z)
    w = v / om                            # effective advection speed
    rate = np.stack([-lam * w - eta * lam ** 2,
                     lam * w - eta * lam ** 2,
                     v * m.omega.log_derivative(g.z) / om])
    d1, d2 = op.d1[:, cols], op.d2[:, cols]
    base = eta * d2 - w[:, None] * d1
    mats = np.stack([base, base, base - 2.0 * eta * lam * d1])
    diag = np.arange(g.n_z)[cols]
    mats[:, diag, np.arange(len(diag))] += rate[:, diag]
    return mats


class _RHS:
    """Fused right-hand side; `zmat_t` holds each component's z-operator."""

    def __init__(self, scenario: DynamoScenario,
                 op: FrameOperators | None = None):
        self.op = op or FrameOperators(scenario.metric, scenario.grid)
        self.zmat_t = np.ascontiguousarray(
            _z_operators(scenario, self.op).transpose(0, 2, 1))

    def __call__(self, data: np.ndarray) -> np.ndarray:
        n_z = data.shape[-1]
        return np.matmul(data.reshape(3, -1, n_z),
                         self.zmat_t).reshape(data.shape)


def induction_rhs(scenario: DynamoScenario, B: FrameField) -> FrameField:
    """Right-hand side of the induction system at one instant.

    Rejects what `DynamoScenario` rejects: with resistivity > 0, a field
    that is not constant along p and q.
    """
    if not np.all(np.isfinite(B.data)):
        raise ValueError("induction_rhs: field contains non-finite values")
    if scenario.resistivity > 0:
        _require_constant_along_pq(_collapse_pq(B.data))
    return FrameField(scenario.grid, _RHS(scenario)(B.data))


# -- evolution ----------------------------------------------------------------


@dataclass
class EvolutionSeries:
    """Sampled norms along an evolution.

    l2 norms are volume-weighted (the p,q mean against sqrt(det g) dz, see
    `FrameOperators.l2_norm`); div_rel is ||div B||_2 / ||B||_2 over the
    measurement region. On closed-interval grids the measurement region is
    the interior third of z; on periodic grids it is the full domain.
    """

    t: np.ndarray
    l2: np.ndarray        # (n, 3) per component
    total_l2: np.ndarray  # (n,)
    div_rel: np.ndarray   # (n,)
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
    cfl_advective: float  # dt max|v_eff| / dz, accepted up to ADVECTIVE_LIMIT
    # dt (eta (16/(3 dz^2) + lam^2) + |lam| max|v_eff|), accepted up to
    # RK4_REAL_AXIS_LIMIT
    cfl_real_axis: float
    # the run's wall time by layer, in seconds: set-up (initial field,
    # operators, and the RK4 symbol and initial spectrum on periodic z or
    # the dense propagators on closed z); forming the sampled states (the
    # spectral products and irfft on periodic z, the propagator matmuls on
    # closed z) with their finite check and overflow-guard norms; and the
    # batched diagnostics passes (norms, total L2, div_rel)
    build_s: float
    advance_s: float
    sample_s: float


# bytes of sampled states `evolve` holds before one batched diagnostics pass
_HISTORY_BYTES = 1 << 20


def _totals(op: FrameOperators, states: np.ndarray) -> np.ndarray:
    """Total L2 of each state stacked on axis 0, as in the series."""
    return np.sqrt(np.sum(op.component_norms(states) ** 2, axis=1))


def _diagnostics(op: FrameOperators, states: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Component norms, total L2 and div_rel of states stacked on axis 0.

    One batched pass; every state gets exactly the figures of
    `component_norms` and `l2_norm(div)` / total on it alone.
    """
    l2 = op.component_norms(states)
    total = np.sqrt(np.sum(l2 ** 2, axis=1))
    div_l2 = op.component_norms(op.div(states)[:, None])[:, 0]
    div_rel = np.divide(div_l2, total, out=np.zeros_like(total),
                        where=total > 0)
    return l2, total, div_rel


def _dense_fill(scenario: DynamoScenario, op: FrameOperators, dt: float,
                intervals: set[int], b: np.ndarray) -> Callable:
    """The closed-z advance by dense propagators P(h L)^n.

    The returned fill(lengths, out) writes into out[i] the state lengths[i]
    steps after the one before it (b at first), one batched matmul each;
    the caller keeps the last state written until the next call reads it.
    """
    zmat_t = _RHS(scenario, op).zmat_t
    n_z = zmat_t.shape[-1]
    # P(A)^T = P(A^T), so Horner applies to the transposed layout as is;
    # one component at a time keeps the n_z-by-n_z temporaries few
    diag = np.arange(n_z)
    propagators = {n: np.empty_like(zmat_t) for n in intervals}
    for comp, zmat in enumerate(zmat_t):
        a = dt * zmat
        poly = a / 4.0
        for c in (3.0, 2.0, 1.0):
            poly[diag, diag] += 1.0
            poly = (a / c) @ poly
        poly[diag, diag] += 1.0
        for n, power in propagators.items():
            power[comp] = np.linalg.matrix_power(poly, n)
    rows = (3, -1, n_z)
    last = b

    def fill(lengths, out):
        nonlocal last
        for n, state in zip(lengths, out):
            np.matmul(last.reshape(rows), propagators[n],
                      out=state.reshape(rows))
            last = state

    return fill


def _spectral_fill(scenario: DynamoScenario, op: FrameOperators, dt: float,
                   intervals: set[int], b: np.ndarray,
                   per_pass: int) -> Callable:
    """The periodic-z advance: every state straight from rfft(b).

    The eigenvalues mu of each circulant L are the rfft of its first
    column. The returned fill(lengths, out), for at most `per_pass`
    states, writes into out[i] the state n = lengths[0] + ... + lengths[i]
    steps after the last one written before (b at first) as
    irfft(rfft(b) P(h mu)^n_b), n_b its step count from b, a running
    product of the interval symbols. Overflow is left to the caller's
    finite check.
    """
    x = dt * np.fft.rfft(_z_operators(scenario, op, slice(0, 1))[..., 0])
    symbol = 1.0 + x / 4.0
    for c in (3.0, 2.0, 1.0):
        symbol = 1.0 + x / c * symbol
    with np.errstate(over="ignore", invalid="ignore"):
        symbols = {n: symbol ** n for n in intervals}
    spectrum = np.fft.rfft(b)
    products = np.empty((per_pass, *spectrum.shape), dtype=complex)
    lead = np.ones_like(symbol)  # P(h mu)^n at the last state written

    def fill(lengths, out):
        nonlocal lead
        product = products[:len(out)]
        with np.errstate(over="ignore", invalid="ignore"):
            powers = np.cumprod(np.stack([lead, *map(symbols.get, lengths)]),
                                axis=0)[1:]
            np.multiply(spectrum, powers[:, :, None, None, :], out=product)
            np.fft.irfft(product, n=out.shape[-1], axis=-1, out=out)
        lead = powers[-1]

    return fill


def evolve(scenario: DynamoScenario) -> EvolutionResult:
    """Classical 4-stage Runge-Kutta integration of the induction system.

    A step applies P(h L). The run samples at t = 0, at every `stride`
    steps and at t_end, and forms only the sampled states (see the module
    docstring): on periodic z each as irfft(rfft(B0) P(h mu)^n)
    (`_spectral_fill`), on closed z by one matmul per interval with the
    dense P(h L)^stride, the last with P(h L)^(n_steps mod stride)
    (`_dense_fill`). A non-finite field is therefore reported at the end
    of its sample interval.

    The state is the initial field at the smallest shape that broadcasts
    exactly to it (`_initial_state`): a p or q axis along which the field
    is exactly constant has length 1, and since L keeps that constancy
    exactly, it stays so. The returned field is broadcast to the full grid
    once, as a fresh array.

    The sampled states go in chunks into a ring that keeps up to
    _HISTORY_BYTES of states (one state at least; two on closed z, where
    each matmul reads one slot and writes another). The ring's first slot
    holds the only copy of the initial state. Each chunk is checked for
    finite values, and the overflow guard stops the run with stop_reason
    "overflow guard" at the first sample whose total L2 exceeds
    `overflow_factor` times the initial one; a non-finite sample before
    that raises NumericalError. The series (norms, total L2, div_rel)
    comes from `_diagnostics`, one batched pass per chunk up to the stop,
    with exactly the figures of a pass per sample. The run reports its
    wall time split into build_s, advance_s and sample_s.
    """
    start = time.perf_counter()
    grid = scenario.grid
    op = FrameOperators(scenario.metric, grid)
    b = _initial_state(scenario.initial_field, grid)
    nsteps = scenario.n_steps
    dt = scenario.t_end / nsteps
    stride = scenario.stride
    steps = np.append(np.arange(0, nsteps, stride), nsteps)
    per_pass = min(max(1, _HISTORY_BYTES // b.nbytes), len(steps))
    ring = np.empty((per_pass if grid.z_periodic else max(2, per_pass),
                     *b.shape))
    ring[0] = b
    b = ring[0]  # the ring holds the only copy of the initial state
    intervals = {stride, nsteps % stride} - {0}
    if grid.z_periodic:
        fill = _spectral_fill(scenario, op, dt, intervals, b, per_pass)
    else:
        fill = _dense_fill(scenario, op, dt, intervals, b)
    guard = scenario.overflow_factor * max(_totals(op, b[None])[0], 1e-300)
    build_s = time.perf_counter() - start

    parts, stop_reason = [], "completed"
    sample_s = advance_s = 0.0
    for k, first in enumerate(range(0, len(steps), per_pass)):
        begin = time.perf_counter()
        at = k * per_pass % len(ring)
        chunk = ring[at:at + min(per_pass, len(steps) - first)]
        new = max(first, 1)  # the first sample this chunk computes
        states = chunk[new - first:]
        if len(states):
            fill(np.diff(steps[new - 1:first + len(chunk)]), states)
            finite = np.isfinite(states).all(axis=(1, 2, 3, 4))
            ok = len(states) if finite.all() else int(np.argmin(finite))
            over = np.flatnonzero(_totals(op, states[:ok]) > guard)
            if len(over):
                stop_reason = "overflow guard"
                chunk = chunk[:new - first + over[0] + 1]
            elif ok < len(states):
                step = int(steps[new + ok])
                raise NumericalError(f"non-finite field at step {step} "
                                     f"(t={step * dt:g})")
        sampled = time.perf_counter()
        advance_s += sampled - begin
        parts.append(_diagnostics(op, chunk))
        sample_s += time.perf_counter() - sampled
        if stop_reason != "completed":
            break

    b = chunk[-1]
    kept = first + len(chunk)
    l2, total, div_rel = (np.concatenate(x) for x in zip(*parts))
    series = EvolutionSeries(t=steps[:kept] * dt, l2=l2, total_l2=total,
                             div_rel=div_rel,
                             truncated=stop_reason != "completed")
    field = FrameField(grid, np.broadcast_to(b, (3, *grid.shape)).copy())
    vmax, decay = _step_rates(scenario.metric, grid, scenario.flow_speed,
                              scenario.resistivity)
    return EvolutionResult(field, series, int(steps[kept - 1]), dt,
                           stop_reason, cfl_advective=dt * vmax / grid.dz,
                           cfl_real_axis=dt * decay, build_s=build_s,
                           advance_s=advance_s, sample_s=sample_s)


# -- method of characteristics -------------------------------------------------


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
    z0 = scenario.metric.omega.foot_point(z, scenario.flow_speed, t)
    mask = np.isfinite(z0)
    if scenario.initial_field.z_limited:
        mask &= (z0 >= grid.z_min - 1e-12) & (z0 <= grid.z_max + 1e-12)
    z0_safe = np.where(mask, z0, grid.z_min)
    lam = scenario.metric.lam
    om = scenario.metric.omega
    shift = z - z0_safe
    # per-z factors with the mask folded in: x * (f * 1) = x * f exactly,
    # and x * (f * nan) = nan, so each point is one product
    factors = np.stack([np.exp(-lam * shift), np.exp(+lam * shift),
                        om.value(z) / om.value(z0_safe)]
                       ) * np.where(mask, 1.0, np.nan)
    P, Q, Z0 = np.ix_(grid.p, grid.q, z0_safe)
    init = scenario.initial_field
    data = np.empty((3, *grid.shape))
    for out, comp, factor in zip(data, (init.bp, init.bq, init.bz), factors):
        np.multiply(comp(P, Q, Z0), factor, out=out)
    return FrameField(grid, data), mask


# -- growth fitting -----------------------------------------------------------


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares exponential rate of a norm series."""

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

    The window is a fraction pair (start, end) of the sample count with
    0.2 <= start < end <= 1: it skips at least the first 20% of samples
    (initial transient) and ends inside the series.
    """
    t = np.asarray(t, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if not 0.2 <= window[0] < window[1] <= 1.0:
        raise ValueError(f"fit window {tuple(window)} must satisfy "
                         "0.2 <= start < end <= 1: it excludes the first 20% "
                         "of samples and ends inside the series")
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
    return GrowthFit(float(slope), float(theory_rate),
                     float(np.sqrt(np.mean(resid ** 2))), window)
