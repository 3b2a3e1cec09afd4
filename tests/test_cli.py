import numpy as np
import pytest

from framedynamo.cli import main


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
    # the explicit step is unstable for this resistivity, so the norm hits
    # the overflow guard after a few samples, too few for a growth fit
    cfg = tmp_path / "run.ini"
    cfg.write_text("[evolve]\neta = 0.05\nn_p = 8\nn_q = 8\n")
    code, out, err = run_cli(capsys, "evolve", "--config", str(cfg),
                             "--out", str(tmp_path / "o"))
    assert code == 2, err
    assert "overflow guard" in err and "error:" not in err
    rows = (tmp_path / "o" / "series.csv").read_text().strip().split("\n")
    assert 2 <= len(rows) - 1 < 20
    assert not (tmp_path / "o" / "growth.txt").exists()


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


def test_csv_numbers_carry_full_precision(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[evolve]\nn_p = 4\nn_q = 4\nn_z = 64\nt_end = 0.1\n")
    run_cli(capsys, "evolve", "--config", str(cfg), "--out", str(tmp_path / "o"))
    rows = (tmp_path / "o" / "series.csv").read_text().strip().split("\n")[1:]
    # a value like the q norm must round-trip at 15 significant digits
    val = rows[3].split(",")[2]
    assert len(val.replace(".", "").replace("-", "").lstrip("0")) >= 12
    assert f"{float(val):.15g}" == val
