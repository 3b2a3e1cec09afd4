"""Acceptance matrix: the end-to-end checks behind `verify-all`.

Each check returns a CheckResult with the measured figure and its limit;
the pytest acceptance module asserts them and the CLI prints them. Every
evolution is an entry of `_RUNS`, evolved once per suite and shared
between checks; the divergence audit reads every entry, whichever checks
ran before it. The curvature and flux-rope checks import their modules when
they run, so importing this one loads neither.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .frame_calculus import (ConformalFactor, FrameField, FrameMetric,
                             FrameOperators)
from .induction_dynamo import (CAT_STRETCH_RATE, DynamoScenario,
                               EvolutionResult, InitialField,
                               characteristics_oracle, evolve, growth_fit,
                               named_initial_field, stable_dt)

__all__ = ["CheckResult", "AcceptanceSuite", "format_summary"]

DIV_FLOOR = 1e-12  # roundoff floor for fields whose discrete div is exact
IDENTITY_PAIR_FACTOR = 4.0  # the constant factor c of the conformal identity

_Q_SINE = named_initial_field("q_sine")
# the mixed runs' q profile carries a second harmonic; it is not pq_mixed
_MIXED = InitialField.pq_profiles(
    lambda z: 2.0 + np.sin(2 * np.pi * z),
    lambda z: 2.0 + np.cos(2 * np.pi * z) + 0.5 * np.sin(4 * np.pi * z))
# every evolution of the suite: name -> (lam, Omega spec, (n_p, n_q, n_z),
# periodic z, v, initial field, t_end); dt is stable_dt at cfl 0.4
_RUNS = {
    "arnold-growth": (CAT_STRETCH_RATE, "identity", (32, 32, 128), True,
                      1.0, _Q_SINE, 2.0),
    "conformal-growth": (CAT_STRETCH_RATE, "constant:2", (32, 32, 128), True,
                         1.0, _Q_SINE, 2.0),
    **{f"mixed-nz{n}": (CAT_STRETCH_RATE, "identity", (4, 4, n), True,
                        1.0, _MIXED, 2.0) for n in (128, 256)},
    # the identity factor at v = 1/c and the constant factor c at v = 1
    "identity-pair": (CAT_STRETCH_RATE, "identity", (8, 8, 128), True,
                      1.0 / IDENTITY_PAIR_FACTOR, _Q_SINE, 1.0),
    "identity-pair-constant": (CAT_STRETCH_RATE,
                               f"constant:{IDENTITY_PAIR_FACTOR}",
                               (8, 8, 128), True, 1.0, _Q_SINE, 1.0),
    "closed-solenoidal": (1.0, "identity", (16, 16, 128), False, 1.0,
                          named_initial_field("solenoidal", 1.0), 0.25),
}


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    limit: float
    details: str = ""
    runtime_s: float = 0.0  # set by run_all; includes shared runs it built

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status}  {self.name}: measured {self.measured:.6g} "
                f"(limit {self.limit:.6g})")


def _coordinate_curl_eq_p(metric: FrameMetric, z: np.ndarray) -> np.ndarray:
    """The frame p component of curl(e_q) from the coordinate-basis formula.

    Independent of FrameOperators: e_q lowers to the covariant component
    V_q = h_q, (curl V)^p = eps^{pzq} d_z V_q / sqrt(g) = -h_q' / sqrt(g),
    and the frame component is h_p times that.
    """
    h, dh, _ = metric.scale_factors(z)
    return -dh[1] / (h[0] * h[1] * h[2]) * h[0]


class AcceptanceSuite:
    """Runs the acceptance matrix; each run of `_RUNS` is evolved once."""

    def __init__(self, out_dir: str | Path | None = None):
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self._runs: dict[str, tuple[DynamoScenario, EvolutionResult]] = {}

    def _run(self, name: str) -> tuple[DynamoScenario, EvolutionResult]:
        """The scenario of `_RUNS[name]` and its evolution, built on first use."""
        if name not in self._runs:
            lam, omega, shape, z_periodic, v, initial, t_end = _RUNS[name]
            metric = FrameMetric(lam, ConformalFactor.from_spec(omega, name))
            grid = metric.grid(*shape, z_periodic=z_periodic)
            sc = DynamoScenario(
                metric=metric, grid=grid, flow_speed=v, initial_field=initial,
                t_end=t_end, dt=stable_dt(metric, grid, v, cfl=0.4))
            self._runs[name] = sc, evolve(sc)
        return self._runs[name]

    def _oracle_error(self, name: str) -> float:
        """The relative L2 gap of run `name` to the characteristics oracle."""
        sc, res = self._run(name)
        oracle, mask = characteristics_oracle(sc, sc.t_end)
        if not mask.all():
            raise ValueError(f"{name}: characteristics oracle undefined at "
                             f"{np.sum(~mask)} of {mask.size} z points")
        op = sc._rhs.op
        return op.l2_norm(res.field.data - oracle.data) / op.l2_norm(oracle.data)

    # -- criteria -------------------------------------------------------------

    def check_arnold_growth(self) -> CheckResult:
        sc, res = self._run("arnold-growth")
        fit = growth_fit(res.series.t, res.series.l2[:, 1],
                         theory_rate=sc.theory_rate)
        runtime = res.build_s + res.advance_s + res.sample_s
        return CheckResult(
            "arnold-fast-dynamo-growth", fit.relative_error <= 0.01
            and runtime < 120.0, fit.relative_error, 0.01,
            f"fitted {fit.rate:.8f} vs theory {fit.theory_rate:.8f}; "
            f"runtime {runtime:.1f}s (budget 120s)")

    def check_conformal_speed(self) -> CheckResult:
        sc, res = self._run("conformal-growth")
        fit = growth_fit(res.series.t, res.series.l2[:, 1],
                         theory_rate=sc.theory_rate)
        return CheckResult(
            "conformal-speed-change", fit.relative_error <= 0.01,
            fit.relative_error, 0.01,
            f"fitted {fit.rate:.8f} vs lam*v/c = {fit.theory_rate:.8f}")

    def check_solver_vs_oracle(self) -> CheckResult:
        # default-resolution error on the growth run, then the two-component
        # scenario and one z-refinement step
        err_default = self._oracle_error("arnold-growth")
        err_base, err_fine = (self._oracle_error(f"mixed-nz{n}")
                              for n in (128, 256))
        order = float(np.log2(err_base / err_fine))
        passed = err_default <= 0.02 and err_base <= 0.02 and order >= 3.5
        return CheckResult(
            "solver-vs-characteristics", passed, err_default, 0.02,
            f"default-grid error {err_default:.3e}; mixed-field error "
            f"{err_base:.3e} -> {err_fine:.3e}, order {order:.2f} (>= 3.5)")

    def check_frame_identities(self) -> CheckResult:
        lam = 1.0
        metric = FrameMetric(lam)
        grid = metric.grid(8, 8, 128)
        op = FrameOperators(metric, grid)
        e_p = FrameField.unit(grid, 0)
        e_q = FrameField.unit(grid, 1)
        e_z = FrameField.unit(grid, 2)
        errs = {}
        curl_ep = op.curl(e_p)
        errs["curl_ep"] = np.max(np.abs(curl_ep.data - (-lam) * e_q.data)) / lam
        lap_ep = op.vector_laplacian(e_p)
        errs["lap_ep"] = np.max(np.abs(lap_ep.data - (-lam ** 2) * e_p.data)) / lam ** 2
        errs["lap_ez"] = np.max(np.abs(op.vector_laplacian(e_z).data)) / lam ** 2
        # the q-slot sign, arbitrated by the coordinate-basis curl
        curl_eq = op.curl(e_q)
        oracle = _coordinate_curl_eq_p(metric, grid.z)
        errs["curl_eq_vs_oracle"] = float(np.max(np.abs(
            curl_eq.data[0] - oracle)))
        agrees_minus = np.allclose(curl_eq.data[0], -lam, atol=1e-9)
        worst = max(errs.values())
        details = ("curl e_p = -lam e_q and curl e_q = -lam e_p both "
                   "confirmed by the coordinate oracle (the p<->q swap "
                   "reverses orientation, so no sign flips); "
                   + ", ".join(f"{k}={v:.2e}" for k, v in errs.items()))
        return CheckResult("frame-identities",
                           worst <= 1e-6 and agrees_minus, worst, 1e-6, details)

    def check_curvature_pipeline(self) -> CheckResult:
        # imported here, so a caller that runs no curvature check never
        # loads the module
        from .exterior_geometry import (christoffel_oracle, curvature,
                                        curvature_comparison, named_coframe,
                                        solve_connection)
        z = np.linspace(0.0, 1.0, 65)
        lam = 1.0
        worst = 0.0
        rows = []
        flat_max = 0.0
        for name in ("flat", "arnold", "constant:4", "stretched",
                     "stretched_half"):
            basis = named_coframe(name, lam)
            cart = curvature(solve_connection(basis, z))
            orac = christoffel_oracle(basis, z)
            diff = cart.max_difference(orac)
            # read on the oracle: the cartan build's are 0 by construction
            sym = max(orac.antisymmetry_residual(), orac.bianchi_residual())
            worst = max(worst, diff, sym)
            if name == "flat":
                flat_max = cart.max_abs()
            rows.append(f"{name}: |cartan-oracle|={diff:.2e}, "
                        f"oracle antisym/bianchi={sym:.2e}")
        rows.append(f"flat max {flat_max:.2e} (<=1e-10)")
        if self.out_dir is not None:
            # report-only comparison with the quoted closed forms
            header, table = curvature_comparison("stretched_half", lam, z)
            self.out_dir.mkdir(parents=True, exist_ok=True)
            (self.out_dir / "curvature.txt").write_text(header + table)
            rows.append("stretched_half comparison written to curvature.txt")
        passed = worst <= 1e-8 and flat_max <= 1e-10
        return CheckResult("curvature-pipeline-equivalence", passed, worst,
                           1e-8, "; ".join(rows))

    def check_conformal_identity(self) -> CheckResult:
        # a constant factor c at speed v advects at v/c, as the identity at
        # speed v/c does, so the fields agree; the measure c^{3/2} scales
        # the norms by c^{3/4}, and div carries c^{-1/2}
        c = IDENTITY_PAIR_FACTOR
        s_base, s_c = (self._run(name)[1].series
                       for name in ("identity-pair", "identity-pair-constant"))
        norm_scale = c ** 0.75
        gap = max(
            float(np.max(np.abs(s_base.l2 - s_c.l2 / norm_scale))),
            float(np.max(np.abs(s_base.div_rel - s_c.div_rel * np.sqrt(c)))),
            float(np.max(np.abs(s_base.total_l2 - s_c.total_l2 / norm_scale)))
        ) if np.array_equal(s_base.t, s_c.t) else float("inf")
        return CheckResult(
            "conformal-identity", gap <= 1e-12, gap, 1e-12,
            f"constant({c:g}) at v = 1 reproduces the identity at v = 1/{c:g} "
            f"at the same sample times: norms scaled by {c:g}^(3/4), div_rel "
            f"by {c:g}^(-1/2)")

    def check_flux_rope(self) -> CheckResult:
        # imported here for the reason `check_curvature_pipeline` gives
        from .flux_rope import (RopeParams, amplification_ratio,
                                btheta_solution, dynamo_radius_bound,
                                frenet_integrate, is_dynamo,
                                tube_metric_factor)
        errs = {}
        # circle closure
        circle = frenet_integrate(1.0, 0.0, 2 * np.pi, 2 * np.pi / 4096)
        errs["circle_closure"] = float(np.linalg.norm(circle.x[-1] - circle.x[0]))
        # helix radius and pitch against the closed form
        kap = tau = 0.5
        om = np.sqrt(kap ** 2 + tau ** 2)
        helix = frenet_integrate(kap, tau, 20.0, 0.004)
        u = (tau * helix.t[0] + kap * helix.b[0]) / om
        p0 = helix.x[0] + (kap / om ** 2) * helix.n[0]
        rel = helix.x - p0
        axial = rel @ u
        radial = np.linalg.norm(rel - axial[:, None] * u, axis=1)
        errs["helix_radius"] = float(np.max(np.abs(radial - kap / om ** 2)))
        slope = np.polyfit(helix.s, axial, 1)[0]
        errs["helix_pitch"] = float(abs(slope / om - tau / om ** 2))
        geom_ok = max(errs.values()) <= 1e-6
        # amplification ratio: exact arithmetic on dyadic rationals
        exact_ok = (
            amplification_ratio(RopeParams(r=1.0, omega=1.0, gamma=1.0, tau=1.0)) == 1.0
            and amplification_ratio(RopeParams(r=0.25, omega=0.5, gamma=0.5, tau=2.0))
            == 2.0 * 0.5 * 0.25 / 0.5 ** 2
            and amplification_ratio(RopeParams(r=0.5, omega=2.0, gamma=1.0, tau=0.0)) == 0.0)
        # bound predicate
        pred_ok = (
            dynamo_radius_bound(RopeParams(r=1, omega=1, gamma=1, tau=1)) == 1.0
            and is_dynamo(RopeParams(r=0.3, omega=2.0, gamma=1.0, tau=2.0))
            and not is_dynamo(RopeParams(r=0.2, omega=2.0, gamma=1.0, tau=2.0))
            and not is_dynamo(RopeParams(r=10.0, omega=-1.0, gamma=1.0, tau=1.0)))
        # thin-tube limit: uniform convergence to B0 e^{gamma t}
        s = np.linspace(0, 2 * np.pi, 513)
        devs = []
        for r in (0.2, 0.1, 0.05, 0.025):
            params = RopeParams(r=r, gamma=0.7, tau=1.0, kappa=1.0)
            tube = tube_metric_factor(params, s)
            bt = btheta_solution(params, tube, 1.3)
            devs.append(float(np.max(np.abs(
                bt / (params.b_amplitude * np.exp(params.gamma * 1.3)) - 1.0))))
        thin_ok = all(d2 < 0.6 * d1 for d1, d2 in zip(devs, devs[1:])) \
            and devs[-1] <= 0.025 * 1.0 * 2 * np.pi * 1.001
        worst = max(errs.values())
        passed = geom_ok and exact_ok and pred_ok and thin_ok
        return CheckResult(
            "flux-rope", passed, worst, 1e-6,
            ", ".join(f"{k}={v:.2e}" for k, v in errs.items())
            + f"; ratio-exact={exact_ok}, bound-predicate={pred_ok}, "
            f"thin-tube devs={['%.3e' % d for d in devs]}")

    def check_divergence_preservation(self) -> CheckResult:
        worst_ratio = 0.0
        rows = []
        for name in _RUNS:
            series = self._run(name)[1].series.div_rel
            limit = 10.0 * series[0] + DIV_FLOOR
            ratio = float(np.max(series)) / limit
            worst_ratio = max(worst_ratio, ratio)
            rows.append(f"{name}: max {np.max(series):.2e} vs "
                        f"10*initial+floor {limit:.2e}")
        return CheckResult(
            "divergence-preservation", worst_ratio <= 1.0, worst_ratio, 1.0,
            "; ".join(rows))

    # -- driver ---------------------------------------------------------------

    def run_all(self) -> list[CheckResult]:
        checks = [
            self.check_arnold_growth,
            self.check_conformal_speed,
            self.check_solver_vs_oracle,
            self.check_frame_identities,
            self.check_curvature_pipeline,
            self.check_conformal_identity,
            self.check_flux_rope,
            self.check_divergence_preservation,
        ]
        results = []
        for check in checks:
            t0 = time.perf_counter()
            result = check()
            result.runtime_s = time.perf_counter() - t0
            results.append(result)
        return results


def format_summary(results: list[CheckResult]) -> str:
    lines = [r.line() for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
