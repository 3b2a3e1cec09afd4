import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

# every name the package once re-exported from its modules
MODULE_NAMES = (
    "ConformalFactor", "FrameField", "FrameMetric", "FrameOperators", "Grid3D",
    "CoframeBasis", "ConnectionForms", "CurvatureReport", "christoffel_oracle",
    "curvature", "exterior_derivative", "solve_connection",
    "CAT_EIGENVALUES", "CAT_EIGENVECTORS", "DynamoScenario", "GrowthFit",
    "InitialField",
    "characteristics_oracle", "evolve", "growth_fit", "induction_rhs",
    "FrenetCurve", "RopeParams", "TubeMetric", "amplification_ratio",
    "btheta_solution", "dynamo_radius_bound", "frenet_integrate",
    "tube_metric_factor",
)


def test_import_framedynamo_loads_no_module_and_binds_no_name():
    # each name lives in its module only; the package is its docstring
    code = f"""
import sys
import framedynamo
print(sorted(m for m in sys.modules if m.startswith("framedynamo.")))
print(sorted(n for n in {MODULE_NAMES!r} + ("__version__", "__all__")
             if hasattr(framedynamo, n)))
"""
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split("\n")[:2] == ["[]", "[]"]
    assert len(MODULE_NAMES) == 29


def test_import_verification_loads_no_curvature_or_flux_rope_module():
    # the curvature and flux-rope checks import their modules when they run
    code = """
import sys
import framedynamo.verification
print(sorted(m for m in sys.modules if m.startswith("framedynamo.")))
"""
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split("\n")[0] == str([
        "framedynamo.differentiation", "framedynamo.frame_calculus",
        "framedynamo.induction_dynamo", "framedynamo.verification"])
