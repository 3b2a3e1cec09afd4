"""The benchmark's workloads: their inputs, set-up, solves and oracles.

Each workload is a list of problems. A problem solves something with the
library and returns the gates its output must pass; an exception, a
truncated or non-finite evolution, or a missed gate makes the problem a
failed operation. Library calls go through module attributes
(`dyn.evolve`, ...) so that a traced run sees them.

* arnold-growth: the paper's headline run, the ideal Arnold q-slot field
  on 32x32x128 periodic z. Dense z-derivatives, RHS elementwise work, RK4
  temporaries and div/norm sampling do nearly all the work.
* resistive-growth: the same field with eta = 1e-3, against its closed
  form. Spectral p,q derivatives dominate here and barely run in
  arnold-growth, so an ideal-only speed-up that slows the resistive path
  shows.
* oracle-suite: many small problems with per-call overhead and operator
  set-up dominating, and the only workload touching exterior_geometry and
  flux_rope. The seed picks its random initial profile.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from framedynamo import induction_dynamo as dyn
from framedynamo.frame_calculus import ConformalFactor, FrameMetric, FrameOperators
from framedynamo.verification import AcceptanceSuite

LAM = dyn.CAT_STRETCH_RATE
CFL = 0.4
RK4_REAL_AXIS_LIMIT = 2.785  # RK4 is stable for real decay rates |lambda dt| below this


@dataclass(frozen=True)
class Gate:
    """One oracle comparison: `measured` against `limit`.

    Gates are upper limits unless `at_least` is set. `passed` carries the
    verdict of a library check that has conditions besides its figure.
    """

    name: str
    measured: float
    limit: float
    at_least: bool = False
    passed: bool = True

    @property
    def ratio(self) -> float:
        """measured/limit (limit/measured for at-least gates); <= 1 passes."""
        m = float(self.measured)
        if not np.isfinite(m):
            return float("inf")
        if self.at_least:
            return self.limit / m if m > 0 else float("inf")
        return m / self.limit

    @property
    def ok(self) -> bool:
        return bool(self.passed) and self.ratio <= 1.0


Problem = tuple[str, Callable[[], list[Gate]]]


def _profile(z):
    return 2.0 + np.sin(2 * np.pi * z)


def growth_scenario(n_p: int, n_q: int, n_z: int, t_end: float,
                    eta: float = 0.0) -> dyn.DynamoScenario:
    """The Arnold q-slot run: identity factor, v = 1, 2 + sin 2 pi z."""
    metric = FrameMetric(LAM)
    grid = metric.grid(n_p, n_q, n_z, z_periodic=True)
    return dyn.DynamoScenario(
        metric=metric, grid=grid, flow_speed=1.0,
        initial_field=dyn.InitialField.q_slot(_profile), t_end=t_end,
        dt=dyn.stable_dt(metric, grid, 1.0, cfl=CFL), resistivity=eta)


def resistive_exact(sc: dyn.DynamoScenario, t: float) -> np.ndarray:
    """Closed-form resistive q-slot field at time t (identity factor).

    Bq = e^{(lam v - eta lam^2) t} [2 + e^{-4 pi^2 eta t} sin 2 pi (z - v t)]
    and Bp = Bz = 0, since the field has no p, q structure.
    """
    lam, v, eta = sc.metric.lam, sc.flow_speed, sc.resistivity
    z = sc.grid.z
    bq = np.exp((lam * v - eta * lam ** 2) * t) * (
        2.0 + np.exp(-4 * np.pi ** 2 * eta * t) * np.sin(2 * np.pi * (z - v * t)))
    out = np.zeros((3, *sc.grid.shape))
    out[1] = bq
    return out


def cfl_numbers(sc: dyn.DynamoScenario) -> dict[str, float]:
    """Advective and diffusive step numbers of a scenario.

    The diffusive number is eta dt times the largest decay rate of the
    resistive operator: the p and q Nyquist modes weighted by e^{+-2 lam z},
    the 4th-order central dzz stencil (16/3 dz^-2) and the -lam^2 shift.
    RK4 is stable while it stays below RK4_REAL_AXIS_LIMIT. (Closed-z
    grids have one-sided end stencils; the figure is for the interior.)
    """
    g, m = sc.grid, sc.metric
    dt = sc.t_end / sc.n_steps
    z = g.z
    vmax = float(np.max(np.abs(sc.flow_speed / m.omega.value(z))))
    rate = (float(np.max(np.exp(2 * m.lam * z))) * (np.pi * g.n_p) ** 2
            + float(np.max(np.exp(-2 * m.lam * z))) * (np.pi * g.n_q) ** 2
            + 16.0 / (3.0 * g.dz ** 2) + m.lam ** 2)
    return {"cfl_advective": dt * vmax / g.dz,
            "cfl_diffusive": sc.resistivity * dt * rate}


def scenario_record(sc: dyn.DynamoScenario) -> dict:
    """Grid, t_end, steps, dt, eta and CFL numbers, for the result record."""
    return {"grid": list(sc.grid.shape), "z_periodic": sc.grid.z_periodic,
            "t_end": sc.t_end, "steps": sc.n_steps,
            "dt": sc.t_end / sc.n_steps, "eta": sc.resistivity,
            **cfl_numbers(sc)}


def evolved(sc: dyn.DynamoScenario) -> dyn.EvolutionResult:
    """evolve(), treating a truncated or non-finite run as a failure."""
    res = dyn.evolve(sc)
    if res.series.truncated:
        raise RuntimeError("evolution truncated by the overflow guard")
    if not np.all(np.isfinite(res.field.data)):
        raise RuntimeError("evolution ended with a non-finite field")
    return res


def rel_l2(op: FrameOperators, data: np.ndarray, ref: np.ndarray) -> float:
    return op.l2_norm(data - ref) / op.l2_norm(ref)


def oracle_error(sc: dyn.DynamoScenario, op: FrameOperators) -> float:
    """Relative L2 error of evolve() against the characteristics oracle."""
    res = evolved(sc)
    oracle, mask = dyn.characteristics_oracle(sc, sc.t_end)
    if not mask.all():
        raise RuntimeError("characteristics oracle left points undefined")
    return rel_l2(op, res.field.data, oracle.data)


class Workload:
    """Set-up builds scenarios, operators and initial fields; problems solve."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.scenarios: dict[str, dyn.DynamoScenario] = {}
        self.ops: dict[str, FrameOperators] = {}

    def build(self) -> dict[str, dyn.DynamoScenario]:
        raise NotImplementedError

    def setup(self) -> None:
        self.scenarios = self.build()
        self.ops = {k: FrameOperators(sc.metric, sc.grid)
                    for k, sc in self.scenarios.items()}
        # sampled as a caller does before evolving, so setup_s includes it
        self.initial = {k: sc.initial_field.on_grid(sc.grid)
                        for k, sc in self.scenarios.items()}

    def problems(self) -> list[Problem]:
        raise NotImplementedError

    def describe(self) -> dict:
        return {k: scenario_record(sc) for k, sc in self.scenarios.items()}


class ArnoldGrowth(Workload):
    name = "arnold-growth"

    def build(self):
        return {"arnold": growth_scenario(32, 32, 128, t_end=2.0)}

    def solve(self) -> list[Gate]:
        sc, op = self.scenarios["arnold"], self.ops["arnold"]
        res = evolved(sc)
        fit = dyn.growth_fit(res.series.t, res.series.l2[:, 1],
                             theory_rate=LAM * sc.flow_speed)
        oracle, _ = dyn.characteristics_oracle(sc, sc.t_end)
        return [Gate("growth-rate-vs-lam-v", fit.relative_error, 0.01),
                Gate("l2-vs-characteristics",
                     rel_l2(op, res.field.data, oracle.data), 0.02)]

    def problems(self):
        return [("arnold-growth", self.solve)]


class ResistiveGrowth(Workload):
    name = "resistive-growth"
    ETA = 1e-3

    def build(self):
        return {"resistive": growth_scenario(32, 32, 128, t_end=0.25,
                                             eta=self.ETA)}

    def solve(self) -> list[Gate]:
        sc, op = self.scenarios["resistive"], self.ops["resistive"]
        res = evolved(sc)
        return [Gate("l2-vs-closed-form",
                     rel_l2(op, res.field.data, resistive_exact(sc, sc.t_end)),
                     1e-5)]

    def problems(self):
        return [("resistive-growth", self.solve)]


def _mixed_scenario(n_z: int) -> dyn.DynamoScenario:
    metric = FrameMetric(LAM)
    grid = metric.grid(4, 4, n_z, z_periodic=True)
    gq = lambda z: 2.0 + np.cos(2 * np.pi * z) + 0.5 * np.sin(4 * np.pi * z)
    return dyn.DynamoScenario(
        metric=metric, grid=grid, flow_speed=1.0,
        initial_field=dyn.InitialField.pq_profiles(_profile, gq), t_end=2.0,
        dt=dyn.stable_dt(metric, grid, 1.0, cfl=CFL))


def _closed_scenario(omega: ConformalFactor) -> dyn.DynamoScenario:
    """Closed z; the interior third is measured, out of the inflow's reach."""
    metric = FrameMetric(LAM, omega)
    grid = metric.grid(16, 16, 128, z_periodic=False)
    init = dyn.InitialField.q_slot(lambda z: 1.5 + 0.5 * np.cos(2 * np.pi * z))
    return dyn.DynamoScenario(metric=metric, grid=grid, flow_speed=1.0,
                              initial_field=init, t_end=0.25,
                              dt=dyn.stable_dt(metric, grid, 1.0, cfl=CFL))


class OracleSuite(Workload):
    name = "oracle-suite"
    SUITE_CHECKS = ("check_frame_identities", "check_curvature_pipeline",
                    "check_conformal_identity", "check_flux_rope")

    def build(self):
        zs = np.linspace(-1.0, 2.0, 301)
        tab = ConformalFactor.tabulated(zs, 1.0 + 0.3 * np.sin(2 * np.pi * zs))
        metric = FrameMetric(LAM)
        grid = metric.grid(4, 4, 128, z_periodic=True)
        random = dyn.DynamoScenario(
            metric=metric, grid=grid, flow_speed=1.0,
            initial_field=dyn.InitialField.random_fourier(self.seed),
            t_end=2.0, dt=dyn.stable_dt(metric, grid, 1.0, cfl=CFL))
        return {"mixed-128": _mixed_scenario(128),
                "mixed-256": _mixed_scenario(256),
                "closed-exponential": _closed_scenario(
                    ConformalFactor.exponential(0.5)),
                "closed-tabulated": _closed_scenario(tab),
                "random-profile": random}

    def _suite_check(self, suite: AcceptanceSuite, method: str) -> list[Gate]:
        r = getattr(suite, method)()
        return [Gate(r.name, r.measured, r.limit, passed=r.passed)]

    def _mixed_order(self) -> list[Gate]:
        base = oracle_error(self.scenarios["mixed-128"], self.ops["mixed-128"])
        fine = oracle_error(self.scenarios["mixed-256"], self.ops["mixed-256"])
        return [Gate("mixed-l2-vs-characteristics", base, 0.02),
                Gate("mixed-convergence-order", float(np.log2(base / fine)),
                     3.5, at_least=True)]

    def _oracle(self, key: str, limit: float) -> list[Gate]:
        return [Gate(f"{key}-l2-vs-characteristics",
                     oracle_error(self.scenarios[key], self.ops[key]), limit)]

    def problems(self):
        suite = AcceptanceSuite()
        checks = [(m.removeprefix("check_").replace("_", "-"),
                   lambda m=m: self._suite_check(suite, m))
                  for m in self.SUITE_CHECKS]
        return checks + [
            ("mixed-order", self._mixed_order),
            ("closed-exponential", lambda: self._oracle("closed-exponential", 1e-5)),
            ("closed-tabulated", lambda: self._oracle("closed-tabulated", 1e-5)),
            ("random-profile", lambda: self._oracle("random-profile", 1e-3)),
        ]


WORKLOADS = {w.name: w for w in (ArnoldGrowth, ResistiveGrowth, OracleSuite)}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
