import json

import numpy as np
import pytest

from framedynamo.cli import main
from framedynamo.frame_calculus import FrameMetric
from framedynamo.induction_dynamo import (CAT_STRETCH_RATE, DynamoScenario,
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
    cfg.write_text("[evolve]\nn_p = 4\nn_q = 4\nn_z = 64\nt_end = 0.1\n")
    run_cli(capsys, "evolve", "--config", str(cfg), "--out", str(tmp_path / "o"))
    rows = (tmp_path / "o" / "series.csv").read_text().strip().split("\n")[1:]
    # a value like the q norm must round-trip at 15 significant digits
    val = rows[3].split(",")[2]
    assert len(val.replace(".", "").replace("-", "").lstrip("0")) >= 12
    assert f"{float(val):.15g}" == val
