"""Command-line front end.

    framedynamo <command> [--config FILE] [--out DIR] [--seed N]

Commands: evolve, curvature, fluxrope, catmap, verify-all. Configuration is
an INI-style file with one section per command and key = value entries;
unknown keys are rejected. Artifacts are CSV/plain-text files written under
--out with at least 15 significant digits per number. Exit codes: 0 on
success, 1 on configuration or validation errors, 2 on numerical failure.
"""
from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .exterior_geometry import (christoffel_oracle, comparison_table,
                                conformal_coframe, curvature, flat_coframe,
                                solve_connection, stretched_coframe,
                                stretched_coframe_half)
from .flux_rope import (NoDynamoBoundError, RopeParams, amplification_ratio,
                        btheta_solution, continuity_solution,
                        dynamo_radius_bound, frenet_integrate, is_dynamo,
                        rope_csv, tube_metric_factor)
from .frame_calculus import ConformalFactor, FrameMetric
from .induction_dynamo import (CAT_STRETCH_RATE, DynamoScenario, InitialField,
                               NumericalError, cat_map_eigen, evolve,
                               growth_fit, stable_dt)
from .verification import format_summary, run_all

__all__ = ["main", "RunConfig", "ConfigError"]

COMMANDS = ("evolve", "curvature", "fluxrope", "catmap", "verify-all")


class ConfigError(ValueError):
    pass


_DEFAULTS: dict[str, dict[str, str]] = {
    "evolve": {
        "lam": "catmap", "v": "1.0", "eta": "0.0", "omega": "identity",
        "n_p": "32", "n_q": "32", "n_z": "128", "z_periodic": "true",
        "t_end": "2.0", "cfl": "0.4", "dt": "auto", "init": "q_sine",
        "fit_start": "0.4", "fit_end": "1.0", "seed": "0",
    },
    "curvature": {
        "metric": "stretched", "lam": "1.0", "n_z": "65",
        "z_min": "0.0", "z_max": "1.0",
    },
    "fluxrope": {
        "kappa": "1.0", "tau": "1.0", "s_max": "6.283185307179586",
        "ds": "0.002", "r": "0.1", "omega": "1.0", "gamma": "1.0",
        "theta0": "0.0", "b_amplitude": "1.0", "t": "1.0", "v_theta0": "1.0",
    },
    "catmap": {},
    "verify-all": {},
}


@dataclass
class RunConfig:
    """Validated parameters for one command invocation."""

    command: str
    out_dir: Path
    seed: int = 0
    values: dict[str, str] = field(default_factory=dict)

    def get(self, key: str) -> str:
        return self.values[key]

    def get_float(self, key: str) -> float:
        try:
            return float(self.values[key])
        except ValueError as exc:
            raise ConfigError(f"[{self.command}] {key}: expected a number, "
                              f"got {self.values[key]!r}") from exc

    def get_int(self, key: str) -> int:
        try:
            return int(self.values[key])
        except ValueError as exc:
            raise ConfigError(f"[{self.command}] {key}: expected an integer, "
                              f"got {self.values[key]!r}") from exc

    def get_bool(self, key: str) -> bool:
        v = self.values[key].strip().lower()
        if v in ("true", "yes", "1", "on"):
            return True
        if v in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"[{self.command}] {key}: expected a boolean, "
                          f"got {self.values[key]!r}")


def load_config(command: str, config_path: str | None, out_dir: str,
                seed: int | None) -> RunConfig:
    """Merge file values over defaults; reject unknown keys strictly."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; "
                          f"choose from {', '.join(COMMANDS)}")
    values = dict(_DEFAULTS[command])
    if config_path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(config_path) as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"config parse error: {exc}") from exc
        if parser.has_section(command):
            for key, val in parser.items(command):
                if key not in values:
                    raise ConfigError(
                        f"[{command}] unknown key {key!r}; allowed: "
                        f"{', '.join(sorted(values)) or '(none)'}")
                values[key] = val
    cfg = RunConfig(command, Path(out_dir), seed if seed is not None else 0,
                    values)
    if seed is None and "seed" in values:
        cfg.seed = cfg.get_int("seed")
    return cfg


# -- command implementations ----------------------------------------------------


def _parse_omega(spec: str) -> ConformalFactor:
    if spec == "identity":
        return ConformalFactor.identity()
    if spec.startswith("constant:"):
        return ConformalFactor.from_constant(float(spec.split(":", 1)[1]))
    if spec.startswith("exponential:"):
        return ConformalFactor.exponential(float(spec.split(":", 1)[1]))
    raise ConfigError(f"omega: expected identity, constant:<c> or "
                      f"exponential:<a>, got {spec!r}")


def _parse_lam(spec: str) -> float:
    if spec == "catmap":
        return CAT_STRETCH_RATE
    return float(spec)


def _initial_field(kind: str, lam: float, seed: int) -> InitialField:
    if kind == "q_sine":
        return InitialField.q_slot(lambda z: 2.0 + np.sin(2 * np.pi * z))
    if kind == "q_random":
        return InitialField.random_fourier(seed)
    if kind == "pq_mixed":
        return InitialField.pq_profiles(
            lambda z: 2.0 + np.sin(2 * np.pi * z),
            lambda z: 2.0 + np.cos(2 * np.pi * z))
    if kind == "solenoidal":
        return InitialField.solenoidal_pz(
            lam, lambda z: np.sin(2 * np.pi * z),
            lambda z: 2 * np.pi * np.cos(2 * np.pi * z))
    raise ConfigError(f"init: unknown initial field {kind!r}")


def cmd_evolve(cfg: RunConfig) -> int:
    lam = _parse_lam(cfg.get("lam"))
    omega = _parse_omega(cfg.get("omega"))
    metric = FrameMetric(lam, omega)
    grid = metric.grid(cfg.get_int("n_p"), cfg.get_int("n_q"),
                       cfg.get_int("n_z"), z_periodic=cfg.get_bool("z_periodic"))
    v = cfg.get_float("v")
    dt_spec = cfg.get("dt")
    dt = stable_dt(metric, grid, v, cfg.get_float("cfl")) \
        if dt_spec == "auto" else float(dt_spec)
    scenario = DynamoScenario(
        metric=metric, grid=grid, flow_speed=v,
        initial_field=_initial_field(cfg.get("init"), lam, cfg.seed),
        t_end=cfg.get_float("t_end"), dt=dt,
        resistivity=cfg.get_float("eta"))
    result = evolve(scenario)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    (cfg.out_dir / "series.csv").write_text(result.series.to_csv())
    if result.series.truncated:
        # a halted run may keep too few samples for a growth fit
        print(f"wrote {cfg.out_dir / 'series.csv'}")
        print("WARNING: evolution halted at the overflow guard; "
              "series.csv holds the partial run", file=sys.stderr)
        return 2
    window = (cfg.get_float("fit_start"), cfg.get_float("fit_end"))
    omega_mean = float(np.mean(1.0 / omega.value(grid.z)))
    fit = growth_fit(result.series.t, result.series.l2[:, 1],
                     theory_rate=lam * v * omega_mean, window=window)
    (cfg.out_dir / "growth.txt").write_text(fit.report())
    print(f"wrote {cfg.out_dir / 'series.csv'} and growth.txt")
    print(fit.report(), end="")
    return 0


def cmd_curvature(cfg: RunConfig) -> int:
    lam = cfg.get_float("lam")
    z = np.linspace(cfg.get_float("z_min"), cfg.get_float("z_max"),
                    cfg.get_int("n_z"))
    name = cfg.get("metric")
    if name == "flat":
        basis = flat_coframe()
    elif name == "arnold":
        basis = conformal_coframe(FrameMetric(lam), "arnold")
    elif name.startswith("constant:"):
        c = float(name.split(":", 1)[1])
        basis = conformal_coframe(
            FrameMetric(lam, ConformalFactor.from_constant(c)), name)
    elif name == "stretched":
        basis = stretched_coframe(lam)
    elif name == "stretched_half":
        basis = stretched_coframe_half(lam)
    else:
        raise ConfigError(f"metric: unknown metric {name!r}")
    conn = solve_connection(basis, z)
    cart = curvature(conn)
    orac = christoffel_oracle(basis, z)
    paper_forms = {
        "R^p_qpq": lambda zz: lam * np.exp(-lam * zz / 2),
        "R^q_zqz": lambda zz: 0.5 * lam ** 2 * np.exp(-lam * zz),
        "R^p_zpq": lambda zz: 0.0,
    }
    header = (
        f"metric: {basis.label} (lam={lam:g})\n"
        f"cartan-vs-oracle max difference : {cart.max_difference(orac):.6e}\n"
        f"structure-equation residual     : {conn.structure_residual():.6e}\n"
        f"antisymmetry residual           : {cart.antisymmetry_residual():.6e}\n"
        f"first-bianchi residual          : {cart.bianchi_residual():.6e}\n"
        f"pair-symmetry residual          : {cart.pair_symmetry_residual():.6e}\n"
        "closed-form columns are report-only; the oracle column is the "
        "reference\n\n")
    table = comparison_table(cart, orac, paper_forms,
                             stride=max(1, len(z) // 9))
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    (cfg.out_dir / "curvature.txt").write_text(header + table)
    print(f"wrote {cfg.out_dir / 'curvature.txt'}")
    print(header, end="")
    return 0


def cmd_fluxrope(cfg: RunConfig) -> int:
    params = RopeParams(
        r=cfg.get_float("r"), omega=cfg.get_float("omega"),
        gamma=cfg.get_float("gamma"), tau=cfg.get_float("tau"),
        kappa=cfg.get_float("kappa"), theta0=cfg.get_float("theta0"),
        b_amplitude=cfg.get_float("b_amplitude"))
    s_max, ds = cfg.get_float("s_max"), cfg.get_float("ds")
    curve = frenet_integrate(params.kappa, params.tau, s_max, ds)
    tube = tube_metric_factor(params, params.kappa, params.tau, curve.s)
    v_theta = continuity_solution(curve.s, params.r, params.kappa, params.tau,
                                  cfg.get_float("v_theta0"))
    b_theta = btheta_solution(params, tube, cfg.get_float("t"))
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    (cfg.out_dir / "rope.csv").write_text(
        rope_csv(tube, params.kappa, params.tau, v_theta, b_theta))
    print(f"wrote {cfg.out_dir / 'rope.csv'}")
    print(f"triad orthonormality drift : {curve.orthonormality_drift():.3e}")
    print(f"amplification ratio        : {amplification_ratio(params):.12g}")
    try:
        bound = dynamo_radius_bound(params)
        print(f"dynamo radius bound        : {bound:.12g} "
              f"(r={params.r:g} -> {'dynamo' if is_dynamo(params) else 'no dynamo'})")
    except NoDynamoBoundError as exc:
        print(f"dynamo radius bound        : none ({exc})")
    print(f"thin-tube flag             : {tube.thin}")
    return 0


def cmd_catmap(cfg: RunConfig) -> int:
    cm = cat_map_eigen()
    chi1, chi2 = cm.eigenvalues
    print("cat map [[2, 1], [1, 1]]")
    print(f"chi1 = {chi1:.12g}")
    print(f"chi2 = {chi2:.12g}")
    print(f"chi1*chi2 = {chi1 * chi2:.12g}")
    print(f"stretch rate ln(chi1) = {cm.stretch_rate:.12g}")
    print(f"stretch direction: ({cm.eigenvectors[0, 0]:+.12g}, "
          f"{cm.eigenvectors[1, 0]:+.12g})")
    print(f"contract direction: ({cm.eigenvectors[0, 1]:+.12g}, "
          f"{cm.eigenvectors[1, 1]:+.12g})")
    return 0


def cmd_verify_all(cfg: RunConfig) -> int:
    results = run_all(cfg.out_dir)
    summary = format_summary(results)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    (cfg.out_dir / "verify.txt").write_text(
        summary + "\n" + "\n".join(f"{r.name}: {r.details}" for r in results)
        + "\n")
    print(summary, end="")
    return 0 if all(r.passed for r in results) else 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="framedynamo",
        description="stretched-metric dynamo workbench")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for synthetic initial fields")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.command, args.config, args.out, args.seed)
        handler = {
            "evolve": cmd_evolve,
            "curvature": cmd_curvature,
            "fluxrope": cmd_fluxrope,
            "catmap": cmd_catmap,
            "verify-all": cmd_verify_all,
        }[args.command]
        return handler(cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
