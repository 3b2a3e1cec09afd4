"""Magnetic induction evolution in the stretched frame and its oracles.

The flow is (0, 0, v) with constant v; with a conformal factor Omega(z) it
advects at the effective speed v_eff = v / Omega, written w below. In
frame components it is u = (0, 0, v / sqrt(Omega)), and it is compressible
where Omega varies: div u = v Omega' / (2 Omega^2), which reads 0.25 for
v = 1 and Omega = e^{0.5 z} at z = 0 (`FrameOperators.div` agrees to
2e-13 on 4 x 4 x 257 closed z), and 0 for a z-uniform Omega. The
incompressible alternative would be u_z = v / Omega; which of the two the
paper means is not settled here.
`DynamoScenario` accepts eta > 0 only on periodic z, which needs a
z-uniform Omega, and with an initial field constant along p and q: the
resistive p, q terms carry e^{+-lam z}, which is not z-periodic, and closed
z has no boundary condition for eta dzz. On every field it accepts, the
equations evaluated couple z points only:

    dt Bp = eta dzz Bp - w dz Bp - (lam w + eta lam^2) Bp
    dt Bq = eta dzz Bq - w dz Bq + (lam w - eta lam^2) Bq
    dt Bz = eta dzz Bz - (w + 2 eta lam) dz Bz + v (ln Omega)'/Omega Bz

so Bq grows at +lam w, Bp decays at -lam w, and Bz picks up the conformal
stretching factor Omega(z)/Omega(z0) along characteristics. `_rates` forms
w and the three diagonal rates, and the real-axis step bound reads its
fastest real decay from them (`_step_rates`). Each component's right-hand
side is one n_z-by-n_z matrix L, whose one home is `_RHS`: built once per
scenario, it applies L and produces a run's sampled states (`sampled`).

The system dB/dt = L B is linear and autonomous, so one classical RK4 step
of size h is exactly B <- P(h L) B, P(x) = 1 + x + x^2/2 + x^3/6 + x^4/24,
and s steps are B <- P(h L)^s B. `_RHS.sampled` builds P(h L)^s once per
run for each sample interval length s, by one Horner loop on a stack of
matrices, and then forms the sampled states chunk by chunk as they are
drawn; the fields between two samples are never formed. A run samples
every max(1, n_steps // 200) steps and stops at the first sample past
OVERFLOW_FACTOR times its initial norm; both are module constants, and
`DynamoScenario` has no knob for either.
- On periodic z, Omega is z-uniform, so L has constant coefficients on a
  wrap-around stencil: it is circulant, diagonal in the z Fourier modes,
  with eigenvalues mu_k the discrete Fourier transform of its first
  column, which is all `_RHS` holds of it. The stack is one 1 x 1 matrix
  h mu_k per component and mode, and the state n steps after the initial
  state B0 is irfft(rfft(B0) P(h mu)^n); no n_z-by-n_z matrix is applied.
  Each chunk continues the running product of the interval symbols from
  the one the chunk before it ended on, and scales the spectrum of B0, so
  a run's states are the same to the bit however its chunks split.
- On closed z the one-sided end rows make L non-circulant. `_RHS` holds
  each component's dense n_z-by-n_z L, the stack is h L, and each
  interval of s steps is one batched matmul with P(h L)^s of the state
  before, across chunks as within one.

Because L couples z points only, it also keeps a field that is constant
along p or q exactly constant along it. `evolve` therefore builds and
holds its state at the smallest shape that broadcasts exactly to the
initial field, (3, n_p', n_q', n_z) with n_p' in {1, n_p} and n_q' in
{1, n_q}: the Arnold q-slot run advances 1 x 1 x n_z profiles, a field
with p,q structure the full grid, by the same code. The run returns its
final state at that shape, and `characteristics_oracle` its solution
likewise: a `FrameField` takes p and q axes of length 1 as constant along
them, and its norms are p,q means, so comparing the two touches n_z points
per component for a z-profile, never the full grid.

L is also block-diagonal by component, so a component that starts
identically zero stays exactly zero. `evolve` finds the live components
once, from the initial state (exactly, as `_collapse_pq` compares: any
non-zero entry makes a component live), a basic slice of the component
axis (`_live_components`), and its sampled states hold those alone,
(k, n_p', n_q', n_z) for k live components: `_RHS.sampled` propagates
the live stack, and `evolve` finite-checks, norms and diagnoses it,
telling `FrameOperators.div` which components it holds. The dead ones
are 0 in the series' norms and in the returned field and stored nowhere
else: the Arnold run holds Bq alone.

Everything with eta = 0 has an exact method-of-characteristics solution
(`characteristics_oracle`), used as ground truth for the RK4 solver.
`growth_fit` fits log||B|| against t by the closed-form least-squares line
of the centred normal equations.
"""
from __future__ import annotations

import io
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .frame_calculus import (ConformalFactor, FrameField, FrameMetric,
                             FrameOperators, Grid3D, _field_data,
                             overflow_safe_norms)

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
    "MAX_STEPS",
    "OVERFLOW_FACTOR",
    "fit_window",
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
        """The full-shape, contiguous and writeable field on the grid."""
        P, Q, Z = np.ix_(grid.p, grid.q, grid.z)
        return FrameField.from_components(grid, self.bp(P, Q, Z),
                                          self.bq(P, Q, Z), self.bz(P, Q, Z))


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
# the most steps a scenario takes: step indices up to it are exact in float64
MAX_STEPS = 2 ** 53
# a run stops at the first sample whose total L2 exceeds this times sample 0's
OVERFLOW_FACTOR = 1e12
# a run samples every max(1, n_steps // _SAMPLE_INTERVALS) steps
_SAMPLE_INTERVALS = 200


def _rates(metric: FrameMetric, grid: Grid3D, flow_speed: float,
           resistivity: float) -> tuple[np.ndarray, np.ndarray]:
    """w = v / Omega on grid.z, and the diagonal rates (3, n_z) of the
    module docstring's Bp, Bq and Bz equations. The input check that
    `stable_dt` and `DynamoScenario` share: ValueError unless
    0 <= resistivity < inf, flow_speed is finite, and Omega > 0 and the
    scale factors are finite and positive on grid.z (h'' carries lam^2, so
    a lam whose square overflows is rejected before the rates square it)."""
    if not 0.0 <= resistivity < np.inf:
        raise ValueError("resistivity must be finite and non-negative, "
                         f"got {resistivity}")
    if not np.isfinite(flow_speed):
        raise ValueError(f"flow_speed must be finite, got {flow_speed}")
    metric.scale_factors(grid.z)
    lam, v, eta, z = metric.lam, flow_speed, resistivity, grid.z
    om = metric.omega.value(z)
    w = v / om
    rate = np.stack([-lam * w - eta * lam ** 2,
                     lam * w - eta * lam ** 2,
                     v * metric.omega.log_derivative(z) / om])
    return w, rate


def _step_rates(w: np.ndarray, rate: np.ndarray, resistivity: float,
                dz: float) -> tuple[float, float]:
    """max |v_eff| and the fastest real decay rate, from `_rates`' output.

    A step dt has the advective number dt max|v_eff| / dz and the real-axis
    number dt times this decay. The real-axis rule: at the z Nyquist mode
    the 4th-order central dzz stencil decays at eta 16/(3 dz^2) and the
    central dz stencil vanishes, and the fastest decay among the diagonal
    rates, over the three components and grid.z, adds to it.
    """
    decay = resistivity * (16.0 / (3.0 * dz ** 2)) - float(np.min(rate))
    return float(np.max(np.abs(w))), decay


def stable_dt(metric: FrameMetric, grid: Grid3D, flow_speed: float,
              cfl: float = 0.4, resistivity: float = 0.0) -> float:
    """The smaller of the advective and the real-axis time step.

    The advective step is cfl * dz / max |v_eff| (cfl * dz with no flow).
    The real-axis step puts the real-axis number of `_step_rates` at the
    same fraction cfl / ADVECTIVE_LIMIT of RK4_REAL_AXIS_LIMIT that the
    advective number takes of ADVECTIVE_LIMIT, so cfl = 0.4 keeps both at
    80% of what `DynamoScenario` accepts. Raises ValueError unless
    0 < cfl < inf, and for what `_rates` rejects.
    """
    if not 0.0 < cfl < np.inf:
        raise ValueError(f"cfl must be positive and finite, got {cfl}")
    vmax, decay = _step_rates(*_rates(metric, grid, flow_speed, resistivity),
                              resistivity, grid.dz)
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


def _collapsed_on_mesh(initial: InitialField, grid: Grid3D,
                       z: np.ndarray) -> np.ndarray:
    """The field of `initial` on the grid's p, q and the n_z points z, at the
    smallest shape that broadcasts exactly to it.

    Each component callable is called once on the open mesh
    `np.ix_(grid.p, grid.q, z)`, as in `InitialField.on_grid`, and its
    result is cut by `_collapse_pq` before anything is broadcast or
    stacked, so a z-profile never fills the grid. Returns a fresh
    contiguous (3, n_p', n_q', n_z) array, each component written into it
    by one broadcasting assignment.
    """
    P, Q, Z = np.ix_(grid.p, grid.q, z)
    comps = []
    for c in (initial.bp, initial.bq, initial.bz):
        value = np.asarray(c(P, Q, Z), dtype=float)
        if value.shape != grid.shape:
            value = np.broadcast_to(value, grid.shape)
        comps.append(_collapse_pq(value))
    out = np.empty((3, *np.broadcast_shapes(*(c.shape for c in comps))))
    for slot, c in zip(out, comps):
        slot[...] = c
    return out


def _initial_state(initial: InitialField, grid: Grid3D) -> np.ndarray:
    """The initial field at the smallest shape that broadcasts exactly to it
    (`_collapsed_on_mesh` on grid.z).

    Raises ValueError if the initial field has a non-finite value.
    """
    state = _collapsed_on_mesh(initial, grid, grid.z)
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

    Accepted: finite resistivity >= 0; finite flow_speed; finite t_end,
    dt > 0 with t_end/dt <= MAX_STEPS; Omega > 0 and scale factors h > 0,
    with h, h', h'' finite, on grid.z; dt within the advective bound,
    dt max|v_eff| / dz at most ADVECTIVE_LIMIT, and the real-axis bound,
    dt times the decay of `_step_rates` at most RK4_REAL_AXIS_LIMIT, each
    to a relative 1e-12; periodic z only with a
    z-uniform factor. Resistivity > 0 is accepted only with an initial
    field exactly constant along p and q on the grid, and then only on
    periodic z, since closed z has no boundary condition for eta dzz (see
    the module docstring). Anything else raises ValueError.

    Construction forms `_rates` once and checks dt with their `_step_rates`;
    only then does it build its operator `_RHS`, which runs and
    `induction_rhs` read.
    """

    metric: FrameMetric
    grid: Grid3D
    flow_speed: float
    initial_field: InitialField
    t_end: float
    dt: float
    resistivity: float = 0.0

    def __post_init__(self):
        w, rate = _rates(self.metric, self.grid, self.flow_speed,
                         self.resistivity)
        for name in ("t_end", "dt"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {value}")
        if self.t_end / MAX_STEPS > self.dt:
            raise ValueError(f"dt={self.dt:g} is too small for t_end="
                             f"{self.t_end:g}: it takes more than "
                             f"MAX_STEPS={MAX_STEPS} steps")
        vmax, decay = _step_rates(w, rate, self.resistivity, self.grid.dz)
        if self.dt * vmax / self.grid.dz > ADVECTIVE_LIMIT * (1.0 + 1e-12):
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
                f"dt={self.dt:g} violates the real-axis bound: dt times "
                f"the fastest real decay rate {decay:g} must be at most "
                f"{RK4_REAL_AXIS_LIMIT} (RK4's real-axis limit), so dt <= "
                f"{RK4_REAL_AXIS_LIMIT / decay:g}")
        # not a field: the one home of the scenario's operator L
        object.__setattr__(self, "_rhs", _RHS(self, w, rate, (vmax, decay)))

    @property
    def theory_rate(self) -> float | None:
        """The paper's closed-form growth rate of Bq's mean (k = 0) mode,
        lam v / c - eta lam^2 for a z-uniform Omega = c; None for a
        z-dependent Omega, which has none. It is the oracle a fitted rate
        is compared with, so it does not read the rates of `_rates`."""
        omega, lam = self.metric.omega, self.metric.lam
        if not omega.z_uniform:
            return None
        return (lam * self.flow_speed / omega.constant
                - self.resistivity * lam ** 2)

    @property
    def n_steps(self) -> int:
        return int(np.ceil(self.t_end / self.dt - 1e-12))

    @property
    def stride(self) -> int:
        """Steps per sample interval (see `evolve`)."""
        return max(1, self.n_steps // _SAMPLE_INTERVALS)

    @property
    def n_samples(self) -> int:
        """Samples of a completed run: t = 0, every `stride` steps, t_end."""
        return -(-self.n_steps // self.stride) + 1


# -- right-hand side ----------------------------------------------------------


class _RHS:
    """The induction operator L of one scenario (eta d2 - w d1 + rate, with
    -2 eta lam d1 more for Bz, one block per component), its step rates and
    its `FrameOperators`: built once by `DynamoScenario`, and the only code
    that picks the spectral or the dense path. It applies L (`__call__`)
    and produces a run's sampled states (`sampled`), and holds nothing of
    a run. Periodic z is admitted only with a z-uniform Omega, so the
    blocks are circulant there and `blocks` holds their first columns
    (3, n_z); on closed z, the transposed dense blocks (3, n_z, n_z)."""

    def __init__(self, scenario: DynamoScenario, w: np.ndarray,
                 rate: np.ndarray, step_rates: tuple[float, float]):
        m, g, eta = scenario.metric, scenario.grid, scenario.resistivity
        self.step_rates = step_rates  # (max |v_eff|, decay) of `_step_rates`
        self.op = FrameOperators(m, g)
        self.circulant = g.z_periodic
        cols = slice(0, 1) if self.circulant else slice(None)
        d1, d2 = self.op.d1[:, cols], self.op.d2[:, cols]
        base = eta * d2 - w[:, None] * d1
        mats = np.stack([base, base, base - 2.0 * eta * m.lam * d1])
        diag = np.arange(g.n_z)[cols]
        mats[:, diag, np.arange(len(diag))] += rate[:, diag]
        self.blocks = (mats[..., 0] if self.circulant else
                       np.ascontiguousarray(mats.transpose(0, 2, 1)))

    def __call__(self, data: np.ndarray) -> np.ndarray:
        """L applied to a field (3, n_p', n_q', n_z) by one dense matmul; a
        circulant block is expanded, L[i, j] = column[(i - j) mod n_z], and
        laid out as the dense blocks are (an FFT apply differs in the last
        bits, and matmul's bits may depend on its operand's layout)."""
        mats, n_z = self.blocks, data.shape[-1]
        if self.circulant:
            wrap = (np.arange(n_z) - np.arange(n_z)[:, None]) % n_z
            mats = np.ascontiguousarray(mats[:, wrap])
        return np.matmul(data.reshape(3, -1, n_z), mats).reshape(data.shape)

    def sampled(self, b: np.ndarray, dt: float, steps: np.ndarray,
                live: slice):
        """The sampled states of a run from its initial state b (k, n_p',
        n_q', n_z) of the `live` components, at the steps `steps` of size
        dt: an iterator over chunks (m, k, n_p', n_q', n_z) of them, each
        of up to _HISTORY_BYTES (one state at least; k = 0: one chunk). Slot
        0 of the first chunk holds the only copy of b.

        P(h L)^n is built on the live blocks, for the first and the last gap
        n of `steps`, before this returns; a chunk is formed only when it is
        drawn. Circulant: a state is irfft(rfft(b) P(h mu)^n), the symbol
        product one cumprod continued from chunk to chunk, so a state's bits
        do not depend on where the chunks split; the rows are gathered,
        multiplied and, for a z-profile, scaled by rfft(b) in one buffer.
        Dense: P(h L)^n is transposed for a row-vector matmul (P(A)^T =
        P(A^T)), and a state is one batched matmul of the one before.
        Overflow to inf or NaN is left to the caller.
        """
        stride, tail = steps[1] - steps[0], steps[-1] - steps[-2]
        a = dt * (np.fft.rfft(self.blocks[live])[..., None, None]
                  if self.circulant else self.blocks[live])
        eye = np.eye(a.shape[-1])
        poly = eye + a / 4.0
        for c in (3.0, 2.0, 1.0):
            poly = eye + (a / c) @ poly
        with np.errstate(over="ignore", invalid="ignore"):
            # one power where the two gaps are equal
            powers = np.stack([np.linalg.matrix_power(poly, n)
                               for n in dict.fromkeys((stride, tail))])
        if self.circulant:
            powers = powers[..., 0, 0]
        per_chunk = (max(1, _HISTORY_BYTES // b.nbytes) if b.nbytes
                     else len(steps))

        def chunks(last):
            # last: the initial state, then the last state formed
            product = None
            for begin in range(0, len(steps), per_chunk):
                chunk = np.empty((min(per_chunk, len(steps) - begin),
                                  *last.shape))
                states = chunk
                if not begin:
                    chunk[0] = last
                    last, states = chunk[0], chunk[1:]
                    if self.circulant:
                        spectrum = np.fft.rfft(last)
                # the power of each state's gap: the last gap's is the last
                which = np.zeros(len(states), np.intp)
                if begin + len(chunk) == len(steps):
                    which[-1:] = len(powers) - 1
                with np.errstate(over="ignore", invalid="ignore"):
                    if not self.circulant:
                        k, n_p, n_q, n_z = last.shape
                        rows = (k, n_p * n_q, n_z)
                        for i, state in zip(which, states):
                            # a state's p, q and z axes are contiguous, so
                            # both reshapes are views and matmul writes
                            # into the chunk
                            np.matmul(last.reshape(rows), powers[i],
                                      out=state.reshape(rows))
                            last = state
                    elif len(states):
                        lead = product is not None
                        # the product carried in, the chunk's interval
                        # symbols and a spare row, so that cumprod forms
                        # every product in a run of two or more: numpy forms
                        # such a run, whose output overlaps its input, by
                        # its scalar loop, and a lone product by its vector
                        # loop, which rounds differently
                        chain = np.empty((lead + len(states) + 1,
                                          *powers.shape[1:]), powers.dtype)
                        if lead:
                            chain[0] = product
                        chain[lead:-1] = powers[0]
                        chain[-2] = powers[which[-1]]
                        chain[-1] = 0.0
                        np.cumprod(chain, axis=0, out=chain)
                        product = chain[-2].copy()
                        symbols = chain[lead:-1, :, None, None, :]
                        # a z-profile's spectra (m, k, 1, 1, n_z // 2 + 1)
                        # overwrite the symbols they scale
                        profile = last.shape[1:3] == (1, 1)
                        spectra = np.multiply(spectrum, symbols,
                                              out=symbols if profile else None)
                        np.fft.irfft(spectra, n=last.shape[-1], axis=-1,
                                     out=states)
                        # the caller reads the chunk while this frame waits
                        del chain, symbols, spectra
                last = chunk[-1]
                yield chunk

        return chunks(b)


def induction_rhs(scenario: DynamoScenario, B: FrameField) -> FrameField:
    """Right-hand side of the induction system at one instant: the
    scenario's `_RHS` applied to B.

    Rejects a field on another grid than the scenario's, and what
    `DynamoScenario` rejects: with resistivity > 0, a field that is not
    constant along p and q.
    """
    data = _field_data(B, scenario.grid, "induction_rhs")
    if not np.all(np.isfinite(data)):
        raise ValueError("induction_rhs: field contains non-finite values")
    if scenario.resistivity > 0:
        _require_constant_along_pq(_collapse_pq(data))
    return FrameField(scenario.grid, scenario._rhs(data))


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
        np.savetxt(buf, np.column_stack([self.t, self.l2, self.div_rel]),
                   fmt="%.15g", delimiter=",", comments="",
                   header="t,norm_bp,norm_bq,norm_bz,div_residual")
        return buf.getvalue()


@dataclass
class EvolutionResult:
    """Final field, sampled series, and what the run did and why it stopped."""

    field: FrameField    # final state, (3, n_p', n_q', n_z) as in `evolve`
    series: EvolutionSeries
    steps: int           # RK4 steps taken
    dt: float            # step size, t_end / n_steps
    stop_reason: str     # "completed" or "overflow guard"
    cfl_advective: float  # dt max|v_eff| / dz, accepted up to ADVECTIVE_LIMIT
    # dt times the decay of `_step_rates`, accepted up to RK4_REAL_AXIS_LIMIT
    cfl_real_axis: float
    # the run's wall time by layer, in seconds: set-up (initial field and
    # propagators; L is built with the scenario); forming the sampled
    # states, their finite check and norms; the batched div passes (div_rel)
    build_s: float
    advance_s: float
    sample_s: float


# bytes of live components `evolve` holds before one batched diagnostics pass
_HISTORY_BYTES = 1 << 20


def _total(l2: np.ndarray) -> np.ndarray:
    """Total L2 of component norms l2 (..., 3), as in the series."""
    return overflow_safe_norms(lambda c: np.sqrt(np.sum(c ** 2, axis=-1)), l2)


def _diagnostics(op: FrameOperators, states: np.ndarray, live: slice,
                 total: np.ndarray) -> np.ndarray:
    """div_rel of states stacked on axis 0, each holding the `live`
    components, given their total L2 (`_total` of their norms).

    One batched pass; every state gets exactly the figure of
    `l2_norm(div)` / total on it alone. A stack whose div is exactly zero,
    as when no div term forms (the q-slot and p,q-profile runs), reads 0
    with no norm pass: its norms would be +0, and so would each quotient.
    """
    div = op.div(states, live)
    if not div.any():
        return np.zeros_like(total)
    div_l2 = op.component_norms(div[:, None])[:, 0]
    return np.divide(div_l2, total, out=np.zeros_like(total),
                     where=total > 0)


def _live_components(state: np.ndarray) -> slice:
    """The components of a state (3, ...) that are not identically zero, as
    a basic slice of its component axis.

    The test is exact, as in `_collapse_pq`: a component is live if any
    entry is non-zero, with no tolerance. Any subset of three indices is an
    arithmetic progression, so the slice is a view (`1:2`, `0:3:2`, ...);
    an all-zero state gives the empty slice `0:0`.
    """
    live = np.flatnonzero(state.reshape(3, -1).any(axis=1))
    if not len(live):
        return slice(0, 0)
    step = int(live[1] - live[0]) if len(live) > 1 else 1
    return slice(int(live[0]), int(live[-1]) + 1, step)


def evolve(scenario: DynamoScenario) -> EvolutionResult:
    """Classical 4-stage Runge-Kutta integration of the induction system.

    A step applies P(h L). The run samples at t = 0, every
    `scenario.stride` steps and t_end (`scenario.n_samples` samples), and
    forms only the sampled states (see the module docstring); a non-finite
    field is therefore reported at the end of its sample interval. The
    state is held, and the final one returned as a fresh contiguous copy,
    at the smallest shape that broadcasts exactly to the initial field
    (`_initial_state`), (3, n_p', n_q', n_z).
    Only the components not identically zero in the initial state
    (`_live_components`) are held, advanced, checked finite, normed and
    diagnosed; the others read exactly 0 in the l2 series and final field.

    L, its `FrameOperators` (norms and div) and the step rates of the CFL
    figures are the scenario's `_RHS`, built with the scenario; each run
    samples its initial state and builds its propagators afresh.

    The states are drawn from `_RHS.sampled` in chunks (m, k, n_p', n_q',
    n_z) of up to _HISTORY_BYTES of live components, the first chunk's
    slot 0 holding the only copy of the initial state's live part; a
    state's bits do not depend on where the chunks split. `evolve` only
    reads them: each chunk is checked for finite values and its finite
    prefix normed once; the overflow guard stops the run with stop_reason
    "overflow guard" at the first sample whose total L2 exceeds
    OVERFLOW_FACTOR times sample 0's, and a non-finite sample before that
    raises NumericalError. No chunk past the stop is drawn or formed.
    The series keeps those norms, and `_diagnostics` adds div_rel, one
    batched pass per chunk up to the stop (with no norm pass where the div
    is exactly zero); every figure equals that of a pass per sample. The
    run reports its wall time split into build_s, advance_s and sample_s.
    """
    start = time.perf_counter()
    grid, rhs = scenario.grid, scenario._rhs
    b = _initial_state(scenario.initial_field, grid)
    live = _live_components(b)
    nsteps = scenario.n_steps
    dt = scenario.t_end / nsteps
    steps = np.append(np.arange(0, nsteps, scenario.stride), nsteps)
    chunks = rhs.sampled(b[live], dt, steps, live)
    build_s = time.perf_counter() - start

    parts, stop_reason, kept = [], "completed", 0
    sample_s = advance_s = 0.0
    begin = time.perf_counter()
    for chunk in chunks:
        finite = np.isfinite(chunk).all(axis=(1, 2, 3, 4))
        ok = len(chunk) if finite.all() else int(np.argmin(finite))
        l2 = np.zeros((ok, 3))  # a dead component's norm is exactly 0
        l2[:, live] = rhs.op.component_norms(chunk[:ok])
        total = _total(l2)
        if not kept:
            guard = OVERFLOW_FACTOR * max(total[0], 1e-300)
        over = np.flatnonzero(total > guard)
        if len(over):
            stop_reason = "overflow guard"
            ok = over[0] + 1
        elif ok < len(chunk):
            step = int(steps[kept + ok])
            raise NumericalError(f"non-finite field at step {step} "
                                 f"(t={step * dt:g})")
        chunk, l2, total = chunk[:ok], l2[:ok], total[:ok]
        b, kept = chunk[-1], kept + ok
        sampled = time.perf_counter()
        advance_s += sampled - begin
        parts.append((l2, total, _diagnostics(rhs.op, chunk, live, total)))
        begin = time.perf_counter()
        sample_s += begin - sampled
        if stop_reason != "completed":
            break

    l2, total, div_rel = (np.concatenate(x) for x in zip(*parts))
    series = EvolutionSeries(t=steps[:kept] * dt, l2=l2, total_l2=total,
                             div_rel=div_rel,
                             truncated=stop_reason != "completed")
    field = FrameField(grid, np.zeros((3, *b.shape[1:])))
    field.data[live] = b
    vmax, decay = rhs.step_rates
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
    domain are masked out (NaN) and flagged by the mask.

    The initial field is evaluated on the foot points z0 by
    `_collapsed_on_mesh`, so the solution comes back, like `evolve`'s field,
    as a fresh contiguous (3, n_p', n_q', n_z) array at the smallest shape
    that broadcasts exactly to it: a z-profile costs n_z points, not the
    grid.
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
    data = _collapsed_on_mesh(scenario.initial_field, grid, z0_safe)
    data *= factors[:, None, None, :]
    return FrameField(grid, data), mask


# -- growth fitting -----------------------------------------------------------


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares exponential rate of a norm series, and the rate it is
    compared with (None: no comparison)."""

    rate: float
    theory_rate: float | None
    residual_rms: float
    window: tuple[float, float]

    @property
    def relative_error(self) -> float:
        """|rate - theory| / |theory|; NaN for theory None or 0, and where
        the quotient overflows (a subnormal theory), which have no
        relative error."""
        if not self.theory_rate:
            return float("nan")
        err = abs(self.rate - self.theory_rate) / abs(self.theory_rate)
        return err if np.isfinite(err) else float("nan")

    def report(self) -> str:
        """The fit as text; the theory rate only with one, the relative
        error only where it is defined."""
        theory = "" if self.theory_rate is None else (
            f"  theory rate   : {self.theory_rate:.12g}\n")
        if not np.isnan(self.relative_error):
            theory += f"  relative error: {self.relative_error:.6g}\n"
        return ("growth rate fit\n"
                f"  fitted rate   : {self.rate:.12g}\n"
                + theory +
                f"  fit residual  : {self.residual_rms:.6g}\n"
                f"  window        : [{self.window[0]:.3g}, {self.window[1]:.3g}] "
                "of the series\n")


def fit_window(n: int, window: tuple[float, float]) -> slice:
    """The slice of a series of n samples that a growth fit reads.

    window = (start, end) are fractions of n, 0.2 <= start < end <= 1 (the
    first 20% is transient); ValueError unless so and 20 samples are kept."""
    if not 0.2 <= window[0] < window[1] <= 1.0:
        raise ValueError(f"fit window {tuple(window)} must satisfy "
                         "0.2 <= start < end <= 1: it excludes the first 20% "
                         "of samples and ends inside the series")
    lo, hi = int(window[0] * n), int(window[1] * n)
    if hi - lo < 20:
        raise ValueError(f"need at least 20 samples past the transient, "
                         f"got {hi - lo}")
    return slice(lo, hi)


def growth_fit(t: np.ndarray, norms: np.ndarray,
               theory_rate: float | None = None,
               window: tuple[float, float] = (0.4, 1.0)) -> GrowthFit:
    """Fit log||B|| against t over the samples `fit_window` keeps.

    The least-squares line comes from the centred normal equations: with
    t and y = log||B|| less their window means, the rate is
    sum(t y) / sum(t^2) and the residual y - rate t, less its mean.
    ValueError if the window's t are all equal, which fixes no rate.
    """
    t = np.asarray(t, dtype=float)
    norms = np.asarray(norms, dtype=float)
    keep = fit_window(len(t), window)
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(norms))):
        raise ValueError("t and the norm series must be finite for a log fit")
    if not np.all(norms > 0):
        raise ValueError("norm series must be strictly positive for a log fit")
    tw, yw = t[keep], np.log(norms[keep])
    tc, yc = tw - tw.mean(), yw - yw.mean()
    spread = tc @ tc
    if not (tw.min() < tw.max() and spread > 0):
        raise ValueError("the fit window's t must not all be equal")
    slope = (tc @ yc) / spread
    resid = yc - slope * tc
    # the residual of a least-squares line sums to 0; t far from 0 rounds
    # its mean by an ulp of t, which shifts every residual by rate * ulp
    resid -= resid.mean()
    theory = None if theory_rate is None else float(theory_rate)
    return GrowthFit(float(slope), theory,
                     float(np.sqrt(np.mean(resid ** 2))), window)
