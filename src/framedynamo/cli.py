"""Command-line front end.

    framedynamo <command> [--config FILE] [--out DIR] [--seed N]

Commands: evolve, curvature, fluxrope, catmap, verify-all, each with its
handler and config defaults in the one table `COMMANDS`. Configuration is
an INI-style file with one section per command and key = value entries;
unknown keys are rejected. --seed alone sets the seed of synthetic
initial fields (`init = q_random`); no config key sets it. Artifacts are
CSV/plain-text files written under --out with at least 15 significant
digits per number; evolve also writes what the run did as run.json (steps,
dt, CFL numbers, stop reason and wall time by layer), also for a run that
turns non-finite, up to its last finite sample; verify-all writes
its matrix as verify.json (name, passed, measured, limit and runtime_s per
check). Exit codes: 0 on success, 1 on configuration or validation errors
(a rejected config writes nothing), 2 on numerical failure or a run
stopped early.
"""
from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .exterior_geometry import curvature_comparison
from .flux_rope import (NoDynamoBoundError, RopeParams, amplification_ratio,
                        btheta_solution, continuity_solution,
                        dynamo_radius_bound, frenet_integrate, is_dynamo,
                        rope_csv, tube_metric_factor)
from .frame_calculus import ConformalFactor, FrameMetric
from .induction_dynamo import (CAT_STRETCH_RATE, DynamoScenario,
                               EvolutionResult, NumericalError, cat_map_eigen,
                               evolve, fit_window, growth_fit,
                               named_initial_field, stable_dt)
from .verification import AcceptanceSuite, format_summary

__all__ = ["main", "RunConfig", "ConfigError"]


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Validated parameters for one command invocation."""

    command: str
    out_dir: Path
    seed: int = 0
    values: dict[str, str] = field(default_factory=dict)

    def get(self, key: str) -> str:
        return self.values[key]

    def _parse(self, key: str, parse, expected: str):
        text = self.values[key]
        try:
            return parse(text)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"[{self.command}] {key}: expected {expected}, "
                              f"got {text!r}") from exc

    def get_float(self, key: str) -> float:
        return self._parse(key, float, "a number")

    def get_int(self, key: str) -> int:
        return self._parse(key, int, "an integer")

    def get_bool(self, key: str) -> bool:
        words = {"true": True, "yes": True, "1": True, "on": True,
                 "false": False, "no": False, "0": False, "off": False}
        return self._parse(key, lambda text: words[text.strip().lower()],
                           "a boolean")


def load_config(command: str, config_path: str | None, out_dir: str,
                seed: int) -> RunConfig:
    """Merge file values over defaults; reject unknown keys strictly."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; "
                          f"choose from {', '.join(COMMANDS)}")
    values = dict(COMMANDS[command][1])
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
    return RunConfig(command, Path(out_dir), seed, values)


# -- command implementations ----------------------------------------------------


# what an evolve run reports in run.json, read from its EvolutionResult
_RUN_KEYS = ("steps", "dt", "cfl_advective", "cfl_real_axis", "stop_reason",
             "build_s", "advance_s", "sample_s")


def _write_run(cfg: RunConfig, result: EvolutionResult) -> None:
    """Write an evolve run's series.csv and run.json and print its figures."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    (cfg.out_dir / "series.csv").write_text(result.series.to_csv())
    run = {key: getattr(result, key) for key in _RUN_KEYS}
    (cfg.out_dir / "run.json").write_text(json.dumps(run, indent=2) + "\n")
    print(f"wrote {cfg.out_dir / 'series.csv'} and run.json")
    print(" ".join(f"{key}={value:.6g}" if isinstance(value, float)
                   else f"{key}={value}" for key, value in run.items()))


def cmd_evolve(cfg: RunConfig) -> int:
    lam = CAT_STRETCH_RATE if cfg.get("lam") == "catmap" \
        else cfg.get_float("lam")
    metric = FrameMetric(lam, ConformalFactor.from_spec(cfg.get("omega"),
                                                        "omega"))
    grid = metric.grid(cfg.get_int("n_p"), cfg.get_int("n_q"),
                       cfg.get_int("n_z"), z_periodic=cfg.get_bool("z_periodic"))
    v, eta = cfg.get_float("v"), cfg.get_float("eta")
    dt = stable_dt(metric, grid, v, cfg.get_float("cfl"), resistivity=eta) \
        if cfg.get("dt") == "auto" else cfg.get_float("dt")
    scenario = DynamoScenario(
        metric=metric, grid=grid, flow_speed=v,
        initial_field=named_initial_field(cfg.get("init"), lam, cfg.seed),
        t_end=cfg.get_float("t_end"), dt=dt, resistivity=eta)
    window = (cfg.get_float("fit_start"), cfg.get_float("fit_end"))
    # a run too short for the fit is a config error: raise before writing
    fit_window(scenario.n_samples, window)
    try:
        result = evolve(scenario)
    except NumericalError as exc:
        # record the run up to its last finite sample, then fail with exit 2
        _write_run(cfg, exc.result)
        raise
    _write_run(cfg, result)
    if result.stop_reason != "completed":
        # a halted run may keep too few samples for a growth fit
        print(f"WARNING: evolution stopped early ({result.stop_reason}); "
              "series.csv holds the partial run", file=sys.stderr)
        return 2
    bq_norms = result.series.l2[:, 1]
    if not np.any(bq_norms):
        print("note: the Bq norm is identically 0, so there is no growth "
              "rate to fit; growth.txt not written")
        return 0
    theory = scenario.theory_rate
    fit = growth_fit(result.series.t, bq_norms, theory_rate=theory,
                     window=window)
    (cfg.out_dir / "growth.txt").write_text(fit.report())
    print(f"wrote {cfg.out_dir / 'growth.txt'}")
    if theory is None:
        print("note: Omega depends on z, so the Bq growth has no closed-form "
              "rate to compare the fit with")
    print(fit.report(), end="")
    return 0


def cmd_curvature(cfg: RunConfig) -> int:
    lam = cfg.get_float("lam")
    z_min, z_max, n_z = (cfg.get_float("z_min"), cfg.get_float("z_max"),
                         cfg.get_int("n_z"))
    for key, ok, expected in (
            ("z_min", np.isfinite(z_min), "a finite number"),
            ("z_max", np.isfinite(z_max - z_min),
             "a finite number a finite distance from z_min"),
            ("n_z", n_z >= 1, "an integer >= 1")):
        if not ok:
            raise ConfigError(f"[curvature] {key}: expected {expected}, got "
                              f"{cfg.get(key)!r}")
    z = np.linspace(z_min, z_max, n_z)
    header, table = curvature_comparison(cfg.get("metric"), lam, z)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    (cfg.out_dir / "curvature.txt").write_text(header + table)
    print(f"wrote {cfg.out_dir / 'curvature.txt'}")
    print(header, end="")
    return 0


def cmd_fluxrope(cfg: RunConfig) -> int:
    params = RopeParams(**{f.name: cfg.get_float(f.name)
                           for f in fields(RopeParams)})
    s_max, ds = cfg.get_float("s_max"), cfg.get_float("ds")
    curve = frenet_integrate(params.kappa, params.tau, s_max, ds)
    tube = tube_metric_factor(params, curve.s)
    v_theta = continuity_solution(params, curve.s, cfg.get_float("v_theta0"))
    b_theta = btheta_solution(params, tube, cfg.get_float("t"))
    ratio = amplification_ratio(params)  # may reject: before any write
    try:
        bound = (f"{dynamo_radius_bound(params):.12g} (r={params.r:g} -> "
                 f"{'dynamo' if is_dynamo(params) else 'no dynamo'})")
    except NoDynamoBoundError as exc:
        bound = f"none ({exc})"
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    (cfg.out_dir / "rope.csv").write_text(
        rope_csv(params, tube, v_theta, b_theta))
    print(f"wrote {cfg.out_dir / 'rope.csv'}")
    print(f"triad orthonormality drift : {curve.orthonormality_drift():.3e}")
    print(f"amplification ratio        : {ratio:.12g}")
    print(f"dynamo radius bound        : {bound}")
    print(f"thin-tube flag             : {tube.thin}")
    return 0


def cmd_catmap(cfg: RunConfig) -> int:
    cm = cat_map_eigen()
    chi1, chi2 = cm.eigenvalues
    print("cat map [[2, 1], [1, 1]]")
    print(f"chi1 = {chi1:.12g}")
    print(f"chi2 = {chi2:.12g}")
    print(f"chi1*chi2 = {chi1 * chi2:.12g}")
    print(f"stretch rate ln(chi1) = {CAT_STRETCH_RATE:.12g}")
    print(f"stretch direction: ({cm.eigenvectors[0, 0]:+.12g}, "
          f"{cm.eigenvectors[1, 0]:+.12g})")
    print(f"contract direction: ({cm.eigenvectors[0, 1]:+.12g}, "
          f"{cm.eigenvectors[1, 1]:+.12g})")
    return 0


def cmd_verify_all(cfg: RunConfig) -> int:
    results = AcceptanceSuite(cfg.out_dir).run_all()
    summary = format_summary(results)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    (cfg.out_dir / "verify.txt").write_text(
        summary + "\n" + "\n".join(f"{r.name}: {r.details}" for r in results)
        + "\n")
    (cfg.out_dir / "verify.json").write_text(json.dumps(
        [{"name": r.name, "passed": bool(r.passed),
          "measured": float(r.measured), "limit": float(r.limit),
          "runtime_s": r.runtime_s} for r in results],
        indent=2) + "\n")
    print(summary, end="")
    return 0 if all(r.passed for r in results) else 2


# name -> (handler, default config values), in the order of the usage text;
# the defaults' keys are the only keys a config file may set for the command
COMMANDS = {
    "evolve": (cmd_evolve, {
        "lam": "catmap", "v": "1.0", "eta": "0.0", "omega": "identity",
        "n_p": "32", "n_q": "32", "n_z": "128", "z_periodic": "true",
        "t_end": "2.0", "cfl": "0.4", "dt": "auto", "init": "q_sine",
        "fit_start": "0.4", "fit_end": "1.0",
    }),
    "curvature": (cmd_curvature, {
        "metric": "stretched", "lam": "1.0", "n_z": "65",
        "z_min": "0.0", "z_max": "1.0",
    }),
    "fluxrope": (cmd_fluxrope, {
        "kappa": "1.0", "tau": "1.0", "s_max": "6.283185307179586",
        "ds": "0.002", "r": "0.1", "omega": "1.0", "gamma": "1.0",
        "theta0": "0.0", "b_amplitude": "1.0", "t": "1.0", "v_theta0": "1.0",
    }),
    "catmap": (cmd_catmap, {}),
    "verify-all": (cmd_verify_all, {}),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="framedynamo",
        description="stretched-metric dynamo workbench")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for synthetic initial fields")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.command, args.config, args.out, args.seed)
        return COMMANDS[args.command][0](cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
