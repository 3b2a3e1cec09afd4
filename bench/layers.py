"""What a traced run wraps, and the per-layer metrics it derives.

Layers are the library's modules. Each span name is "<module>.<what>";
every metric is "<span>.<field>". Counts and times are per workload pass
(totals divided by the number of traced passes); rates and ratios are
computed from the totals.
"""
from __future__ import annotations

from spans import Target

FC = "framedynamo.frame_calculus"
DIFF = "framedynamo.differentiation"
DYN = "framedynamo.induction_dynamo"
EXT = "framedynamo.exterior_geometry"
ROPE = "framedynamo.flux_rope"
VER = "framedynamo.verification"

SUITE_CHECKS = ("frame_identities", "curvature_pipeline",
                "conformal_identity", "flux_rope")


def _matmul_cost(args, kwargs, result):
    """Computed cost of a dense z-derivative: f (..., n) times an n-by-n matrix."""
    f = args[1]
    n = f.shape[-1]
    return {"flop": 2.0 * f.size * n,
            "bytes": float(f.nbytes + result.nbytes + 8 * n * n)}


def _evolve_counts(args, kwargs, result):
    sc, t = args[0], result.series.t
    return {"steps": round(t[-1] / (sc.t_end / sc.n_steps)), "samples": len(t)}


TARGETS = [
    Target(f"{FC}:FrameOperators.dz", "frame_calculus.dz", _matmul_cost),
    Target(f"{FC}:FrameOperators.dzz", "frame_calculus.dzz", _matmul_cost),
    Target(f"{DIFF}:spectral_derivative", "differentiation.spectral_derivative"),
    Target(f"{FC}:FrameOperators.dp", "frame_calculus.dp_dq"),
    Target(f"{FC}:FrameOperators.dq", "frame_calculus.dp_dq"),
    Target(f"{FC}:FrameOperators.div", "frame_calculus.div"),
    Target(f"{FC}:FrameOperators.component_norms", "frame_calculus.norms"),
    Target(f"{FC}:FrameOperators.l2_norm", "frame_calculus.norms"),
    Target(f"{DYN}:evolve", "induction_dynamo.evolve", _evolve_counts),
    # counted, not a span: RHS elementwise work stays in evolve's self time
    Target(f"{DYN}:_RHS.__call__", None, lambda a, k, r: {"rhs_evals": 1},
           "induction_dynamo.evolve"),
    Target(f"{FC}:FrameOperators.__init__", "frame_calculus.FrameOperators.init"),
    Target(f"{DIFF}:z_derivative_matrix", "differentiation.z_derivative_matrix"),
    Target(f"{DYN}:characteristics_oracle", "induction_dynamo.characteristics_oracle"),
    Target(f"{DYN}:growth_fit", "induction_dynamo.growth_fit"),
    Target(f"{EXT}:solve_connection", "exterior_geometry.solve_connection"),
    Target(f"{EXT}:curvature", "exterior_geometry.curvature"),
    Target(f"{EXT}:christoffel_oracle", "exterior_geometry.christoffel_oracle"),
    Target(f"{ROPE}:frenet_integrate", "flux_rope.frenet_integrate",
           lambda a, k, r: {"steps": len(r.s) - 1}),
] + [Target(f"{VER}:AcceptanceSuite.check_{c}", f"verification.check.{c}")
     for c in SUITE_CHECKS]

# field -> (unit, better)
FIELDS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "total_s": ("s", "lower"),
    "flop": ("flop", "lower"),
    "bytes": ("B", "lower"),
    "gflop_s": ("GFLOP/s", "higher"),
    "steps": ("count", "lower"),
    "rhs_evals": ("count", "lower"),
    "samples": ("count", "lower"),
    "sample_ratio": ("ratio", "lower"),
}

KERNEL = ("calls", "self_s", "flop", "bytes", "gflop_s")
SPAN_FIELDS = {
    "frame_calculus.dz": KERNEL,
    "frame_calculus.dzz": KERNEL,
    "differentiation.spectral_derivative": ("calls", "self_s"),
    "frame_calculus.dp_dq": ("calls", "self_s"),
    "frame_calculus.div": ("calls", "self_s"),
    "frame_calculus.norms": ("calls", "self_s"),
    "induction_dynamo.evolve": ("calls", "total_s", "self_s", "steps",
                                "rhs_evals", "samples", "sample_ratio"),
    "frame_calculus.FrameOperators.init": ("calls", "total_s"),
    "differentiation.z_derivative_matrix": ("calls", "total_s"),
    "induction_dynamo.characteristics_oracle": ("calls", "total_s"),
    "induction_dynamo.growth_fit": ("calls", "total_s"),
    "exterior_geometry.solve_connection": ("calls", "total_s"),
    "exterior_geometry.curvature": ("calls", "total_s"),
    "exterior_geometry.christoffel_oracle": ("calls", "total_s"),
    "flux_rope.frenet_integrate": ("calls", "total_s", "steps"),
    **{f"verification.check.{c}": ("calls", "total_s") for c in SUITE_CHECKS},
}

OVERHEAD = ("trace.overhead_s", "s", "lower")


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [(f"{span}.{field}", *FIELDS[field])
             for span, fields in SPAN_FIELDS.items() for field in fields]
    return specs + [OVERHEAD]


def _value(st: dict, field: str, passes: int) -> float:
    get = lambda key: st.get(key, 0.0)
    if field == "gflop_s":
        return get("flop") / get("self_s") / 1e9 if get("self_s") > 0 else 0.0
    if field == "sample_ratio":
        return get("samples") / get("steps") if get("steps") > 0 else 0.0
    return get(field) / passes


def layer_metrics(stats: dict, passes: int, overhead_s: float) -> dict[str, float]:
    """Per-layer metric values from a tracer's per-name stats."""
    out = {f"{span}.{field}": _value(stats.get(span, {}), field, passes)
           for span, fields in SPAN_FIELDS.items() for field in fields}
    out[OVERHEAD[0]] = overhead_s
    return out
