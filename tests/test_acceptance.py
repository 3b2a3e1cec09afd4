"""End-to-end acceptance matrix.

Runs the full verification suite once and asserts every criterion at its
stated tolerance, printing one pass/fail line per criterion (visible with
pytest -s or in failure output).
"""
import json
import re
from pathlib import Path

import numpy as np
import pytest

from framedynamo import verification
from framedynamo.frame_calculus import ConformalFactor
from framedynamo.induction_dynamo import (InitialField, evolve,
                                          named_initial_field)
from framedynamo.verification import AcceptanceSuite


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    return AcceptanceSuite(out_dir=tmp_path_factory.mktemp("verify"))


def _assert_check(result):
    print(result.line())
    print(f"      {result.details}")
    assert result.passed, f"{result.name}: measured {result.measured:.6g} " \
                          f"exceeds limit {result.limit:.6g}; {result.details}"


def test_criterion_1_arnold_fast_dynamo_growth(suite):
    """Fitted q-slot growth rate matches lam*v within 1% at 32x32x128,
    t_end = 2, within the two-minute budget."""
    result = suite.check_arnold_growth()
    _assert_check(result)
    assert result.measured <= 0.01


def test_criterion_2_conformal_speed_change(suite):
    """A constant factor of 2 halves the measured growth rate (1%)."""
    result = suite.check_conformal_speed()
    _assert_check(result)


def test_criterion_3_solver_vs_characteristics(suite):
    """Ideal runs track the characteristics oracle to 2% at the default
    resolution and converge at order >= 3.5 under one z refinement."""
    result = suite.check_solver_vs_oracle()
    _assert_check(result)
    assert "order" in result.details


def test_criterion_4_frame_identities(suite):
    """curl e_p = -lam e_q, vector Laplacian eigenrelations, and the
    oracle-arbitrated q-slot curl sign, all at 1e-6 relative error."""
    result = suite.check_frame_identities()
    _assert_check(result)


def test_criterion_5_curvature_pipeline(suite):
    """Structure-equation curvature equals the Christoffel oracle at 1e-8
    on the metric test matrix; flat components below 1e-10; the oracle's
    antisymmetry and first-Bianchi residuals below 1e-8 (the structure-
    equation build's are 0 by construction); closed-form comparison table
    emitted."""
    result = suite.check_curvature_pipeline()
    _assert_check(result)
    table = (suite.out_dir / "curvature.txt").read_text()
    assert "R^q_zqz" in table and "oracle" in table


def test_criterion_6_conformal_identity(suite):
    """A constant factor c = 4 at v = 1 reproduces the plain-metric series
    at v = 1/4, rescaled by c^(3/4) (norms) and c^(-1/2) (div_rel), to
    1e-12 in every emitted quantity."""
    result = suite.check_conformal_identity()
    _assert_check(result)


def test_conformal_identity_fails_when_the_factor_is_dropped(monkeypatch):
    monkeypatch.setattr(verification.ConformalFactor, "from_constant",
                        lambda c: ConformalFactor.identity())
    result = AcceptanceSuite().check_conformal_identity()
    assert not result.passed and result.measured > 1e-3


def test_criterion_7_flux_rope(suite):
    """Circle closure and helix radius/pitch at 1e-6; exact amplification
    arithmetic; radius-bound predicate; thin-tube uniform limit."""
    result = suite.check_flux_rope()
    _assert_check(result)


def test_criterion_8_divergence_preservation():
    """Relative div-B residual stays within 10x its initial value (plus a
    roundoff floor) in every ideal evolution of the suite."""
    # a fresh suite: the audit covers all 7 runs whatever ran before it
    result = AcceptanceSuite().check_divergence_preservation()
    _assert_check(result)
    assert result.details.count("vs 10*initial+floor") == 7


def test_verify_all_cli_matches(tmp_path, capsys):
    """The verify-all command reports the same matrix, all passing."""
    from framedynamo.cli import main

    code = main(["verify-all", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "8/8 checks passed" in out
    assert (tmp_path / "verify.txt").exists()
    assert (tmp_path / "curvature.txt").exists()
    for name in ("arnold-fast-dynamo-growth", "conformal-speed-change",
                 "solver-vs-characteristics", "frame-identities",
                 "curvature-pipeline-equivalence", "conformal-identity",
                 "flux-rope", "divergence-preservation"):
        assert f"PASS  {name}" in out
    entries = json.loads((tmp_path / "verify.json").read_text())
    assert len(entries) == 8
    assert all(e["passed"] is True and e["runtime_s"] > 0 for e in entries)


def _table_number(text):
    """A formatted figure as the README table writes it: 8.14e-7, not
    8.14e-07."""
    return re.sub(r"e([+-])0*(?=\d)",
                  lambda m: "e-" if m[1] == "-" else "e", text)


def test_readme_claims_table_shows_the_measured_figures(suite):
    """Each verify-all entry's README row shows its measured figure to
    three significant digits and its limit."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    results = suite.run_all()
    assert len(results) == 8
    for r in results:
        figures = (f"{_table_number(f'{r.measured:.3g}')} "
                   f"({_table_number(f'{r.limit:g}')})")
        assert f"| `{r.name}` | {figures} |" in readme, (r.name, figures)


def test_oracle_error_rejects_undefined_oracle_points(monkeypatch):
    # on closed z, inflow points trace back past z_min, where a z-limited
    # initial field is undefined
    init = InitialField(
        bq=lambda p, q, z: np.full(np.broadcast(p, q, z).shape, 2.0),
        z_limited=True)
    monkeypatch.setitem(verification._RUNS, "mixed-nz32",
                        (1.0, "identity", (2, 2, 32), False, 1.0, init, 0.1))
    with pytest.raises(ValueError, match="mixed-nz32: characteristics oracle"):
        AcceptanceSuite()._oracle_error("mixed-nz32")


def test_run_all_evolves_each_run_once(monkeypatch):
    scenarios = []

    def spy(sc):
        scenarios.append(sc)
        return evolve(sc)

    monkeypatch.setattr(verification, "evolve", spy)
    suite = AcceptanceSuite()
    assert all(r.passed for r in suite.run_all())
    runs = [suite._run(name)[0] for name in verification._RUNS]  # cached
    assert len(scenarios) == len(verification._RUNS) == 7
    assert {id(sc) for sc in runs} == {id(sc) for sc in scenarios}


def test_divergence_audit_has_one_row_per_run(monkeypatch):
    # a run added to the table is audited without being listed anywhere else
    monkeypatch.setitem(verification._RUNS, "added-run",
                        (1.0, "identity", (2, 2, 32), True, 1.0,
                         named_initial_field("q_sine"), 0.1))
    result = AcceptanceSuite().check_divergence_preservation()
    rows = result.details.split("; ")
    assert [row.split(":")[0] for row in rows] == list(verification._RUNS)
    assert result.passed
