import json
import re
import warnings

import numpy as np
import pytest

from framedynamo import frame_calculus
from framedynamo.cli import main
from framedynamo.frame_calculus import ConformalFactor, FrameMetric
from framedynamo.induction_dynamo import (CAT_STRETCH_RATE,
                                          RK4_REAL_AXIS_LIMIT, DynamoScenario,
                                          evolve, named_initial_field,
                                          stable_dt)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catmap_prints_eigenvalues(capsys):
    code, out, _ = run_cli(capsys, "catmap")
    assert code == 0
    assert "2.61803398875" in out
    assert "0.962423650119" in out
    assert "chi1*chi2 = 1" in out


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_evolve_zero_flow_constant_norms(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[evolve]\n"
        "v = 0.0\n"
        "n_p = 4\n"
        "n_q = 4\n"
        "n_z = 64\n"
        "t_end = 0.5\n"
        "dt = 0.002\n")
    code, out, err = run_cli(capsys, "evolve", "--config", str(cfg),
                             "--out", str(tmp_path / "o"))
    assert code == 0, err
    rows = (tmp_path / "o" / "series.csv").read_text().strip().split("\n")[1:]
    norms = np.array([float(r.split(",")[2]) for r in rows])
    np.testing.assert_allclose(norms, norms[0], rtol=1e-12)
    assert (tmp_path / "o" / "growth.txt").exists()


@pytest.mark.parametrize("setting, theory", [("v = 0.0", "0"),
                                             ("lam = 5e-324", "4.94065645841e-324")])
def test_evolve_zero_flow_reports_no_relative_error(tmp_path, capsys, setting,
                                                    theory):
    # the theory rate lam v / c is 0 at v = 0, and a rate of 0 has no
    # relative error: the fitted rate is compared with it by eye only. At
    # lam = 5e-324 it is subnormal, and the quotient read inf.
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[evolve]\n{setting}\nn_p = 4\nn_q = 4\n")
    out_dir = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "evolve", "--config", str(cfg),
                                 "--out", str(out_dir))
    assert code == 0, err
    report = (out_dir / "growth.txt").read_text()
    assert report in out
    for text in (out, report):
        assert f"  theory rate   : {theory}\n" in text
        assert "relative error" not in text
    rows = (out_dir / "series.csv").read_text().strip().split("\n")[1:]
    assert np.all(np.isfinite([[float(x) for x in r.split(",")] for r in rows]))


def test_evolve_bounds_the_step_by_bz_conformal_rate(tmp_path, capsys):
    # Bz's rate v (ln Omega)'/Omega = -50 e^{50 z} was left out of the
    # real-axis bound: dt = auto took 1.54e-23, Bz's norm grew from 5.7e-8
    # to 4.6e5 in 26 steps and the norms warned "invalid value encountered
    # in matmul"; the bound now keeps the run stable and every number finite
    cfg = tmp_path / "run.ini"
    cfg.write_text("[evolve]\nlam = 1\nz_periodic = false\n"
                   "omega = exponential:-50\nn_p = 4\nn_q = 4\nn_z = 6\n"
                   "init = solenoidal\nt_end = 3e-21\n")
    out_dir = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "evolve", "--config", str(cfg),
                                 "--out", str(out_dir))
    assert code == 0, err
    run = json.loads((out_dir / "run.json").read_text())
    assert run["stop_reason"] == "completed"
    assert run["cfl_real_axis"] <= RK4_REAL_AXIS_LIMIT
    number = (r"(?i)[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?"
              r"|\b(?:inf|infinity|nan)\b")
    for text in (out, (out_dir / "series.csv").read_text(),
                 (out_dir / "run.json").read_text()):
        assert all(np.isfinite(float(x)) for x in re.findall(number, text))


def test_evolve_is_deterministic(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[evolve]\n"
        "init = q_random\n"
        "n_p = 4\n"
        "n_q = 4\n"
        "n_z = 64\n"
        "t_end = 0.2\n")
    for sub in ("a", "b"):
        code, _, err = run_cli(capsys, "evolve", "--config", str(cfg),
                               "--out", str(tmp_path / sub), "--seed", "42")
        assert code == 0, err
    assert (tmp_path / "a" / "series.csv").read_bytes() == \
        (tmp_path / "b" / "series.csv").read_bytes()


def test_evolve_seed_changes_random_field(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[evolve]\ninit = q_random\nn_p = 4\nn_q = 4\nn_z = 64\n"
                   "t_end = 0.2\n")
    run_cli(capsys, "evolve", "--config", str(cfg),
            "--out", str(tmp_path / "a"), "--seed", "1")
    run_cli(capsys, "evolve", "--config", str(cfg),
            "--out", str(tmp_path / "b"), "--seed", "2")
    assert (tmp_path / "a" / "series.csv").read_bytes() != \
        (tmp_path / "b" / "series.csv").read_bytes()


def test_evolve_overflow_guard_reported_as_truncation(tmp_path, capsys):
    # Bq grows as e^{300 t}, so the norm hits the overflow guard after a few
    # samples, too few for a growth fit
    cfg = tmp_path / "run.ini"
    cfg.write_text("[evolve]\nlam = 300\nn_p = 4\nn_q = 4\n")
    code, out, err = run_cli(capsys, "evolve", "--config", str(cfg),
                             "--out", str(tmp_path / "o"))
    assert code == 2, err
    assert "overflow guard" in err and "error:" not in err
    rows = (tmp_path / "o" / "series.csv").read_text().strip().split("\n")
    assert 2 <= len(rows) - 1 < 20
    assert not (tmp_path / "o" / "growth.txt").exists()
    run = json.loads((tmp_path / "o" / "run.json").read_text())
    assert run["stop_reason"] == "overflow guard"
    # the run stopped at the sample that tripped the guard
    assert run["steps"] * run["dt"] == pytest.approx(float(rows[-1].split(",")[0]))
    assert "stop_reason=overflow guard" in out


def test_evolve_writes_what_the_run_did(tmp_path, capsys):
    # run.json holds the EvolutionResult figures of the same scenario
    cfg = tmp_path / "run.ini"
    cfg.write_text("[evolve]\nn_p = 4\nn_q = 4\nn_z = 64\nt_end = 0.5\n")
    code, out, err = run_cli(capsys, "evolve", "--config", str(cfg),
                             "--out", str(tmp_path / "o"))
    assert code == 0, err
    run = json.loads((tmp_path / "o" / "run.json").read_text())
    assert list(run) == ["steps", "dt", "cfl_advective", "cfl_real_axis",
                         "stop_reason", "build_s", "advance_s", "sample_s"]
    metric = FrameMetric(CAT_STRETCH_RATE)
    grid = metric.grid(4, 4, 64, z_periodic=True)
    ref = evolve(DynamoScenario(
        metric=metric, grid=grid, flow_speed=1.0,
        initial_field=named_initial_field("q_sine"), t_end=0.5,
        dt=stable_dt(metric, grid, 1.0)))
    for key in ("steps", "dt", "cfl_advective", "cfl_real_axis",
                "stop_reason"):
        assert run[key] == getattr(ref, key), key
    assert run["steps"] == 80 and run["stop_reason"] == "completed"
    assert run["cfl_advective"] == pytest.approx(0.4, rel=1e-12)
    assert all(run[k] >= 0.0 for k in ("build_s", "advance_s", "sample_s"))
    line = next(l for l in out.splitlines() if l.startswith("steps="))
    assert "steps=80 " in line and "stop_reason=completed" in line
    assert all(f"{key}=" in line for key in run)


def test_evolve_auto_dt_includes_diffusive_bound(tmp_path, capsys):
    # the advective step alone is unstable for this resistivity
    cfg = tmp_path / "run.ini"
    cfg.write_text("[evolve]\neta = 0.05\nn_p = 8\nn_q = 8\nn_z = 64\n")
    code, out, err = run_cli(capsys, "evolve", "--config", str(cfg),
                             "--out", str(tmp_path / "o"))
    assert code == 0, err
    assert (tmp_path / "o" / "growth.txt").exists()


def test_evolve_theory_rate_includes_resistive_decay(tmp_path, capsys):
    # the k = 0 mode grows at lam v <1/Omega> - eta lam^2
    cfg = tmp_path / "run.ini"
    cfg.write_text("[evolve]\neta = 0.01\nn_p = 4\nn_q = 4\n")
    code, out, err = run_cli(capsys, "evolve", "--config", str(cfg),
                             "--out", str(tmp_path / "o"))
    assert code == 0, err
    lam = np.log((3.0 + np.sqrt(5.0)) / 2.0)
    line = next(l for l in out.splitlines() if "theory rate" in l)
    assert float(line.split(":")[1]) == pytest.approx(lam - 0.01 * lam ** 2,
                                                      rel=0, abs=1e-9)


@pytest.mark.parametrize("omega,theory", [("identity", 1.0),
                                          ("constant:2", 0.5),
                                          ("exponential:0.5", None)])
def test_evolve_theory_rate_only_for_a_z_uniform_omega(omega, theory,
                                                       tmp_path, capsys):
    # Omega = c grows Bq at lam v / c - eta lam^2, `theory_rate`; Omega =
    # e^{0.5 z} on closed z, like a tabulated Omega, has no closed-form rate,
    # so the run reports the fitted rate alone
    lam = np.log((3.0 + np.sqrt(5.0)) / 2.0)
    factor = ConformalFactor.from_spec(omega, "omega")
    zs = np.linspace(-1.0, 2.0, 31)
    cases = ([(factor, 0.0), (factor, 0.01)] if theory is not None else
             [(factor, 0.0), (ConformalFactor.tabulated(
                 zs, 1.0 + 0.3 * np.sin(zs)), 0.0)])
    for factor, eta in cases:
        metric = FrameMetric(lam, factor)
        grid = metric.grid(4, 4, 128, z_periodic=theory is not None)
        sc = DynamoScenario(
            metric=metric, grid=grid, flow_speed=1.0,
            initial_field=named_initial_field("q_sine"), t_end=0.25,
            dt=stable_dt(metric, grid, 1.0, resistivity=eta),
            resistivity=eta)
        assert sc.theory_rate == (None if theory is None
                                  else theory * lam - eta * lam ** 2)
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[evolve]\nomega = {omega}\nn_p = 4\nn_q = 4\n"
                   + ("z_periodic = false\nt_end = 0.25\n" if theory is None
                      else ""))
    out_dir = tmp_path / "o"
    code, out, err = run_cli(capsys, "evolve", "--config", str(cfg),
                             "--out", str(out_dir))
    assert code == 0, err
    report = (out_dir / "growth.txt").read_text()
    assert "fitted rate" in report and report in out
    if theory is None:
        assert "no closed-form rate" in out
        for text in (out, report):
            assert "theory rate" not in text and "relative error" not in text
        return
    rate = next(l for l in out.splitlines() if "theory rate" in l)
    assert float(rate.split(":")[1]) == pytest.approx(theory * lam, rel=1e-9)
    error = next(l for l in out.splitlines() if "relative error" in l)
    assert float(error.split(":")[1]) < 0.01


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[evolve]\nvelocity = 1.0\n")
    code, _, err = run_cli(capsys, "evolve", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
    assert code == 1
    assert "unknown key" in err and "velocity" in err


def test_config_bad_value_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[evolve]\nv = fast\n")
    code, _, err = run_cli(capsys, "evolve", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
    assert code == 1
    assert "expected a number" in err


def test_config_syntax_error_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[evolve\nv = 1\n")
    code, _, err = run_cli(capsys, "evolve", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
    assert code == 1
    assert "parse error" in err


def test_config_cfl_violation_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[evolve]\nn_z = 64\ndt = 0.5\nt_end = 1.0\n")
    code, _, err = run_cli(capsys, "evolve", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
    assert code == 1
    assert "advective bound" in err


def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    # n_z = 1000000 asked for 7.28 TiB of z matrices and ended in a
    # traceback; the patch raises where they would be allocated, on the
    # default n_z, so this test allocates no large array
    def no_memory(n_z, dz, periodic):
        raise MemoryError(f"Unable to allocate the {n_z}x{n_z} z matrices")

    monkeypatch.setattr(frame_calculus, "_z_matrices", no_memory)
    cfg = tmp_path / "run.ini"
    cfg.write_text("[evolve]\nn_p = 2\nn_q = 2\n")
    code, out, err = run_cli(capsys, "evolve", "--config", str(cfg),
                             "--out", str(tmp_path / "o"))
    assert code == 1
    assert re.fullmatch(r"error: out of memory: Unable to allocate the "
                        r"(\d+)x\1 z matrices\n", err)
    assert out == ""
    assert not (tmp_path / "o").exists()


def test_config_negative_cfl_rejected_by_name(tmp_path, capsys):
    # the auto step used to come out negative and be reported as a bad dt
    cfg = tmp_path / "run.ini"
    cfg.write_text("[evolve]\ncfl = -1\nn_p = 4\nn_q = 4\n")
    code, _, err = run_cli(capsys, "evolve", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
    assert code == 1
    assert err.startswith("error:") and "cfl must be positive" in err
    assert "dt must be" not in err


def test_config_fit_window_past_series_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[evolve]\nn_p = 4\nn_q = 4\nn_z = 64\nt_end = 0.2\n"
                   "fit_end = 5\n")
    code, _, err = run_cli(capsys, "evolve", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
    assert code == 1
    assert "error:" in err and "fit window" in err
    assert not (tmp_path / "o").exists()


def test_config_resistive_field_with_pq_structure_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[evolve]\ninit = solenoidal\neta = 0.01\n"
                   "n_p = 4\nn_q = 4\nn_z = 64\n")
    code, _, err = run_cli(capsys, "evolve", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
    assert code == 1
    assert "error:" in err and "constant along p and q" in err


def test_config_resistive_closed_z_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[evolve]\nz_periodic = false\neta = 0.01\n"
                   "n_p = 4\nn_q = 4\nn_z = 64\n")
    code, _, err = run_cli(capsys, "evolve", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
    assert code == 1
    assert "error:" in err and "periodic z" in err


def test_config_infinite_end_time_rejected(tmp_path, capsys):
    # used to end in an OverflowError traceback from n_steps
    cfg = tmp_path / "run.ini"
    cfg.write_text("[evolve]\nn_p = 4\nn_q = 4\nn_z = 32\nt_end = inf\n")
    code, _, err = run_cli(capsys, "evolve", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
    assert code == 1
    assert "error: t_end must be positive and finite, got inf" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("section, text", [
    ("evolve", "omega: expected exponential:<a> with a number a, "
               "got 'exponential:abc'"),
    ("curvature", "metric: expected constant:<c> with a number c, "
                  "got 'constant:abc'"),
])
def test_config_bad_numeric_suffix_rejected(tmp_path, capsys, section, text):
    key, value = text.split(":")[0], text.split("got ")[1].strip("'")
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    code, _, err = run_cli(capsys, section, "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
    assert code == 1
    assert f"error: {text}" in err


@pytest.mark.parametrize("section, setting, text", [
    ("evolve", "omega = exponential:inf\nn_p = 4\nn_q = 4",
     "conformal exponent must be finite, got inf"),
    ("curvature", "metric = constant:inf",
     "conformal factor must be positive and finite, got inf"),
])
def test_config_non_finite_factor_rejected(tmp_path, capsys, section,
                                           setting, text):
    # used to warn on inf * 0 before the error line, and to end in a
    # RuntimeWarning traceback under python -W error
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{section}]\n{setting}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, section, "--config", str(cfg),
                               "--out", str(tmp_path / "o"))
    assert code == 1
    assert err == f"error: {text}\n"


def test_config_seed_key_rejected(tmp_path, capsys):
    # --seed is the only way to set the seed
    cfg = tmp_path / "run.ini"
    cfg.write_text("[evolve]\ninit = q_random\nseed = 3\n")
    code, _, err = run_cli(capsys, "evolve", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
    assert code == 1
    assert err == ("error: [evolve] unknown key 'seed'; allowed: cfl, dt, "
                   "eta, fit_end, fit_start, init, lam, n_p, n_q, n_z, omega, "
                   "t_end, v, z_periodic\n")


@pytest.mark.parametrize("section, text", [
    ("curvature", "metric: unknown metric 'bogus'"),
    ("evolve", "init: unknown initial field 'bogus'"),
])
def test_config_unknown_name_rejected(tmp_path, capsys, section, text):
    key = text.split(":")[0]
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{section}]\n{key} = bogus\n")
    code, _, err = run_cli(capsys, section, "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
    assert code == 1
    assert f"error: {text}" in err


@pytest.mark.parametrize("key", ["lam", "dt"])
def test_config_bad_number_rejected_by_name(tmp_path, capsys, key):
    # lam and dt also take a word (catmap, auto); anything else is a number
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[evolve]\n{key} = abc\n")
    code, _, err = run_cli(capsys, "evolve", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
    assert code == 1
    assert f"error: [evolve] {key}: expected a number, got 'abc'" in err


def test_evolve_solenoidal_skips_the_growth_fit(tmp_path, capsys):
    # Bq is identically 0, so there is no Bq growth rate to fit
    cfg = tmp_path / "run.ini"
    cfg.write_text("[evolve]\ninit = solenoidal\nn_p = 4\nn_q = 4\n"
                   "n_z = 64\nt_end = 0.2\n")
    out_dir = tmp_path / "o"
    code, out, err = run_cli(capsys, "evolve", "--config", str(cfg),
                             "--out", str(out_dir))
    assert code == 0, err
    assert "note: the Bq norm is identically 0" in out
    assert (out_dir / "series.csv").exists() and (out_dir / "run.json").exists()
    assert not (out_dir / "growth.txt").exists()


def test_verify_all_and_curvature_command_write_the_same_report(tmp_path,
                                                                capsys):
    from framedynamo.verification import AcceptanceSuite

    assert AcceptanceSuite(tmp_path / "verify").check_curvature_pipeline().passed
    cfg = tmp_path / "c.ini"
    cfg.write_text("[curvature]\nmetric = stretched_half\nn_z = 65\n"
                   "lam = 1\n")
    code, _, err = run_cli(capsys, "curvature", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
    assert code == 0, err
    assert (tmp_path / "verify" / "curvature.txt").read_bytes() \
        == (tmp_path / "o" / "curvature.txt").read_bytes()


def test_curvature_command_writes_table(tmp_path, capsys):
    code, out, err = run_cli(capsys, "curvature", "--out", str(tmp_path / "o"))
    assert code == 0, err
    text = (tmp_path / "o" / "curvature.txt").read_text()
    assert "cartan-vs-oracle max difference" in text
    assert "R^q_zqz" in text
    # the pipelines agree even though the quoted closed forms differ
    gap = float(text.split("cartan-vs-oracle max difference :")[1].split()[0])
    assert gap <= 1e-8


def test_curvature_flat_metric(tmp_path, capsys):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[curvature]\nmetric = flat\n")
    code, out, _ = run_cli(capsys, "curvature", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
    assert code == 0
    assert "flat" in (tmp_path / "o" / "curvature.txt").read_text()


def test_fluxrope_command_writes_csv(tmp_path, capsys):
    code, out, err = run_cli(capsys, "fluxrope", "--out", str(tmp_path / "o"))
    assert code == 0, err
    rows = (tmp_path / "o" / "rope.csv").read_text().strip().split("\n")
    assert rows[0] == "s,kappa,tau,K,theta,v_theta,B_theta"
    assert len(rows) > 100
    assert "amplification ratio" in out
    assert "dynamo radius bound" in out


def test_fluxrope_one_torsion_end_to_end(tmp_path, capsys):
    # the CSV winds, and the printed ratio is computed, at the same kappa,
    # tau and r: those of the configured rope
    cfg = tmp_path / "f.ini"
    cfg.write_text("[fluxrope]\nkappa = 0.7\ntau = -0.4\nr = 0.3\n"
                   "theta0 = 0.2\n")
    code, out, err = run_cli(capsys, "fluxrope", "--config", str(cfg),
                             "--out", str(tmp_path / "o"))
    assert code == 0, err
    csv = tmp_path / "o" / "rope.csv"
    assert csv.read_text().split("\n")[0] == "s,kappa,tau,K,theta,v_theta,B_theta"
    s, kappa, tau, K, theta, _, _ = np.loadtxt(csv, delimiter=",", skiprows=1).T
    assert len(s) > 100
    assert np.all(kappa == 0.7) and np.all(tau == -0.4)
    np.testing.assert_allclose(theta, 0.2 + 0.4 * s, rtol=0, atol=1e-12)
    np.testing.assert_allclose(K, 1.0 - 0.21 * np.cos(theta), rtol=0, atol=1e-13)
    lines = out.splitlines()
    assert "amplification ratio        : -0.12" in lines
    assert any(line.startswith("dynamo radius bound        : none (")
               for line in lines)


@pytest.mark.parametrize("config", [
    "omega = 1e-200\ngamma = 1e-200\ntau = 1e-200\n",
    # |tau| h <= 0.1 needs ds <= 1e-201, and B_theta = e^{gamma t} needs t = 0
    "omega = 1e200\ngamma = 1e200\ntau = 1e200\ns_max = 1e-199\n"
    "ds = 1e-201\nt = 0\n",
])
def test_fluxrope_extreme_but_finite_rope_inputs(tmp_path, capsys, config):
    # tau*omega*r/gamma^2 = gamma^2/(omega tau) = 1 although the plain
    # products under- or overflow; this exited 1 with "is not finite"
    cfg = tmp_path / "f.ini"
    cfg.write_text("[fluxrope]\nr = 1\nkappa = 0.5\n" + config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "fluxrope", "--config", str(cfg),
                                 "--out", str(tmp_path / "o"))
    assert code == 0, err
    lines = out.splitlines()
    assert "amplification ratio        : 1" in lines
    assert "dynamo radius bound        : 1 (r=1 -> no dynamo)" in lines


def test_fluxrope_no_bound_signaled(tmp_path, capsys):
    cfg = tmp_path / "f.ini"
    cfg.write_text("[fluxrope]\nomega = -1.0\n")
    code, out, _ = run_cli(capsys, "fluxrope", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
    assert code == 0
    assert "none" in out


def test_fluxrope_invalid_radius_rejected(tmp_path, capsys):
    cfg = tmp_path / "f.ini"
    cfg.write_text("[fluxrope]\nr = 2.0\n")
    code, _, err = run_cli(capsys, "fluxrope", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
    assert code == 1
    assert "radius exceeds" in err


def test_fluxrope_zero_step_rejected(tmp_path, capsys):
    cfg = tmp_path / "f.ini"
    cfg.write_text("[fluxrope]\nds = 0\n")
    code, _, err = run_cli(capsys, "fluxrope", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
    assert code == 1
    assert "error: ds must be positive" in err


def test_fluxrope_subnormal_step_rejected(tmp_path, capsys):
    # s_max/ds overflows to inf: an error line and exit 1, not a traceback
    cfg = tmp_path / "f.ini"
    cfg.write_text("[fluxrope]\nds = 1e-320\n")
    code, _, err = run_cli(capsys, "fluxrope", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
    assert code == 1
    assert err.startswith("error: ds=") and "inf steps" in err
    assert not (tmp_path / "o" / "rope.csv").exists()


def test_fluxrope_non_finite_radius_rejected(tmp_path, capsys):
    cfg = tmp_path / "f.ini"
    cfg.write_text("[fluxrope]\nr = nan\n")
    code, _, err = run_cli(capsys, "fluxrope", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
    assert code == 1
    assert "error: r must be finite" in err
    assert not (tmp_path / "o" / "rope.csv").exists()


def test_verify_all_writes_json_matrix(tmp_path, capsys, monkeypatch):
    from framedynamo.verification import AcceptanceSuite, CheckResult

    names = [m for m in vars(AcceptanceSuite) if m.startswith("check_")]
    assert len(names) == 8
    for i, method in enumerate(names):
        result = CheckResult(method, passed=np.bool_(i != 2), measured=0.5 * i,
                             limit=np.float64(1.0))
        monkeypatch.setattr(AcceptanceSuite, method,
                            lambda self, r=result: r)
    code, out, _ = run_cli(capsys, "verify-all", "--out", str(tmp_path))
    assert code == 2
    assert "7/8 checks passed" in out
    entries = json.loads((tmp_path / "verify.json").read_text())
    assert [e["name"] for e in entries] == names
    for i, e in enumerate(entries):
        assert set(e) == {"name", "passed", "measured", "limit", "runtime_s"}
        assert e["passed"] is (i != 2)
        assert e["measured"] == 0.5 * i and e["limit"] == 1.0
        assert 0.0 <= e["runtime_s"] < 1.0


def test_csv_numbers_carry_full_precision(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    # 80 steps: 81 samples, enough for the growth fit
    cfg.write_text("[evolve]\nn_p = 4\nn_q = 4\nn_z = 64\nt_end = 0.5\n")
    code, _, err = run_cli(capsys, "evolve", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
    assert code == 0, err
    rows = (tmp_path / "o" / "series.csv").read_text().strip().split("\n")[1:]
    # a value like the q norm must round-trip at 15 significant digits
    val = rows[3].split(",")[2]
    assert len(val.replace(".", "").replace("-", "").lstrip("0")) >= 12
    assert f"{float(val):.15g}" == val


# -- the command table ------------------------------------------------------------


def test_commands_table_drives_argparse_and_load_config(tmp_path, capsys,
                                                        monkeypatch):
    from framedynamo import cli

    assert list(cli.COMMANDS) == ["evolve", "curvature", "fluxrope", "catmap",
                                  "verify-all"]
    for name, (_, defaults) in cli.COMMANDS.items():
        assert cli.load_config(name, None, "o", 0).values == defaults
    # a command with no defaults takes no config key
    assert [n for n, (_, d) in cli.COMMANDS.items() if not d] \
        == ["catmap", "verify-all"]
    for name in ("catmap", "verify-all"):
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(f"[{name}]\nlam = 1.0\n")
        code, _, err = run_cli(capsys, name, "--config", str(cfg),
                               "--out", str(tmp_path / "o"))
        assert code == 1
        assert err == f"error: [{name}] unknown key 'lam'; allowed: (none)\n"
    # an entry added to the table is a command, with its own keys
    seen = []
    monkeypatch.setitem(cli.COMMANDS, "probe",
                        (lambda cfg: seen.append(cfg.values) or 0, {"x": "1"}))
    cfg = tmp_path / "probe.ini"
    cfg.write_text("[probe]\nx = 2\n")
    assert main(["probe", "--config", str(cfg)]) == 0
    assert seen == [{"x": "2"}]


def test_fluxrope_passes_every_rope_field_from_the_config(tmp_path, capsys):
    from dataclasses import fields

    from framedynamo.cli import COMMANDS
    from framedynamo.flux_rope import (RopeParams, btheta_solution,
                                       continuity_solution, frenet_integrate,
                                       rope_csv, tube_metric_factor)

    names = [f.name for f in fields(RopeParams)]
    assert len(names) == 7 and set(names) <= set(COMMANDS["fluxrope"][1])
    values = dict(zip(names, (0.05, 2.5, 0.9, 1.3, 0.7, 0.3, 1.7)))
    cfg = tmp_path / "f.ini"
    cfg.write_text("[fluxrope]\n" + "".join(f"{k} = {v}\n"
                                            for k, v in values.items())
                   + "t = 0.6\nv_theta0 = 1.1\n")
    code, _, err = run_cli(capsys, "fluxrope", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
    assert code == 0, err
    params = RopeParams(**values)
    curve = frenet_integrate(params.kappa, params.tau, 2 * np.pi, 0.002)
    tube = tube_metric_factor(params, curve.s)
    expected = rope_csv(params, tube,
                        continuity_solution(params, curve.s, 1.1),
                        btheta_solution(params, tube, 0.6))
    assert (tmp_path / "o" / "rope.csv").read_text() == expected


# -- inputs rejected with an error line, not a traceback or a warning -------------


@pytest.mark.parametrize("section, setting, text", [
    # an evolve step count past MAX_STEPS ended in a KeyError traceback from
    # evolve, and one whose t_end/dt overflows in an OverflowError from n_steps
    ("evolve", "n_p = 4\nn_q = 4\ndt = 1e-300",
     "dt=1e-300 is too small for t_end=2: it takes more than "
     "MAX_STEPS=9007199254740992 steps"),
    ("evolve", "n_p = 4\nn_q = 4\nt_end = 1e300\ndt = 1e-300",
     "dt=1e-300 is too small for t_end=1e+300: it takes more than "
     "MAX_STEPS=9007199254740992 steps"),
    # warned from the exponential coframe, then failed without naming lam
    ("curvature", "metric = stretched\nlam = inf", "lam must be finite, got inf"),
    ("curvature", "metric = stretched_half\nlam = nan",
     "lam must be finite, got nan"),
    ("curvature", "metric = flat\nlam = inf", "lam must be finite, got inf"),
    # exited 0 with a nan column in rope.csv
    ("fluxrope", "t = nan", "t must be finite, got nan"),
    ("fluxrope", "v_theta0 = nan", "v0 = v_theta(0) must be finite, got nan"),
    # wrote series.csv and run.json, then found 16 samples in the fit window
    ("evolve", "n_z = 5", "need at least 20 samples past the transient, got 16"),
    # warned "overflow encountered in exp" and sampled NaN norms
    ("evolve", "lam = 800", "lam=800: scale factors must be finite and "
     "positive, and their first two derivatives finite, on the z points"),
    ("curvature", "metric = arnold\nlam = 1e300", "arnold (lam=1e+300): scale "
     "factors must be finite and positive, and their first two derivatives "
     "finite, on the z points"),
    # an OverflowError traceback from lam ** 2 in stable_dt
    ("evolve", "lam = 1e300", "lam=1e+300: scale factors must be finite and "
     "positive, and their first two derivatives finite, on the z points"),
    # gamma^2 underflows: a ZeroDivisionError traceback after rope.csv, or a
    # ratio of inf; gamma^2 overflows: an OverflowError traceback
    ("fluxrope", "gamma = 1e-200", "amplification ratio tau*omega*r/gamma^2 "
     "is not finite for gamma = 1e-200"),
    ("fluxrope", "gamma = 1e-160", "amplification ratio tau*omega*r/gamma^2 "
     "is not finite for gamma = 1e-160"),
    ("fluxrope", "gamma = 1e200", "B_theta overflows for gamma = 1e+200 "
     "and B0 = 1"),
    ("fluxrope", "gamma = 1e200\nt = 0", "dynamo radius bound "
     "gamma^2/(omega tau) is not finite for gamma = 1e+200, omega = 1 and "
     "tau = 1"),
    # omega*tau underflowed to 0: exit 0 with "no dynamo radius bound"
    ("fluxrope", "omega = 1e-200\ntau = 1e-200", "dynamo radius bound "
     "gamma^2/(omega tau) is not finite for gamma = 1, omega = 1e-200 and "
     "tau = 1e-200"),
    # the step rotation overflowed: a warning, and exit 0 with a ratio 1e+299
    ("fluxrope", "tau = 1e300", "step too large: max |tau|*h = 2e+297 > 0.1"),
    # warned and then failed in the coframe, or failed inside a reduction
    ("curvature", "z_max = inf",
     "[curvature] z_max: expected a finite number a finite distance from "
     "z_min, got 'inf'"),
    ("curvature", "z_min = nan",
     "[curvature] z_min: expected a finite number, got 'nan'"),
    ("curvature", "z_min = -1e308\nz_max = 1e308",
     "[curvature] z_max: expected a finite number a finite distance from "
     "z_min, got '1e308'"),
    ("curvature", "n_z = 0", "[curvature] n_z: expected an integer >= 1, "
     "got '0'"),
])
def test_config_unusable_input_rejected_up_front(tmp_path, capsys, section,
                                                 setting, text):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[{section}]\n{setting}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, section, "--config", str(cfg),
                               "--out", str(tmp_path / "o"))
    assert code == 1
    assert err == f"error: {text}\n"
    assert not (tmp_path / "o").exists()
