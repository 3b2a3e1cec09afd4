import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framedynamo.differentiation import spectral_derivative
from framedynamo.frame_calculus import (ConformalFactor, FrameField,
                                        FrameMetric, FrameOperators)
from framedynamo.induction_dynamo import (CAT_STRETCH_RATE, DynamoScenario,
                                          InitialField, NumericalError,
                                          cat_map_eigen,
                                          characteristics_oracle, evolve,
                                          growth_fit, induction_rhs, stable_dt)


def q_sine():
    return InitialField.q_slot(lambda z: 2.0 + np.sin(2 * np.pi * z))


def scenario(lam=CAT_STRETCH_RATE, omega=None, v=1.0, eta=0.0, n_z=96,
             n_pq=4, t_end=0.5, periodic=True, init=None, cfl=0.4, **kw):
    metric = FrameMetric(lam, omega or ConformalFactor.identity())
    grid = metric.grid(n_pq, n_pq, n_z, z_periodic=periodic)
    return DynamoScenario(
        metric=metric, grid=grid, flow_speed=v,
        initial_field=init or q_sine(), t_end=t_end,
        dt=stable_dt(metric, grid, v, cfl), resistivity=eta, **kw)


# -- cat map -------------------------------------------------------------------


def test_cat_map_eigenstructure():
    cm = cat_map_eigen()
    chi1, chi2 = cm.eigenvalues
    assert chi1 == pytest.approx((3 + np.sqrt(5)) / 2, abs=1e-12)
    assert chi1 * chi2 == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.det(cm.matrix) == pytest.approx(1.0, abs=1e-12)
    assert cm.stretch_rate == pytest.approx(0.9624236501192069, abs=1e-12)
    # eigenvector directions diagonalize the map
    for k in range(2):
        v = cm.eigenvectors[:, k]
        np.testing.assert_allclose(cm.matrix @ v, cm.eigenvalues[k] * v,
                                   atol=1e-12)


# -- scenario validation ---------------------------------------------------------


def test_scenario_rejects_cfl_violation():
    metric = FrameMetric(1.0)
    grid = metric.grid(4, 4, 64, z_periodic=True)
    with pytest.raises(ValueError, match="advective bound"):
        DynamoScenario(metric=metric, grid=grid, flow_speed=1.0,
                       initial_field=q_sine(), t_end=1.0,
                       dt=2.0 * grid.dz)


def test_scenario_rejects_negative_resistivity():
    with pytest.raises(ValueError, match="resistivity"):
        scenario(eta=-1e-3)


def test_scenario_rejects_periodic_with_varying_factor():
    with pytest.raises(ValueError, match="z-uniform"):
        scenario(omega=ConformalFactor.exponential(1.0))


# -- right-hand side -------------------------------------------------------------


def test_rhs_zero_flow_ideal_is_zero():
    sc = scenario(v=0.0, t_end=1.0)
    B = sc.initial_field.on_grid(sc.grid)
    out = induction_rhs(sc, B)
    np.testing.assert_allclose(out.data, np.zeros_like(out.data), atol=1e-14)


def test_rhs_q_slot_advection_plus_growth():
    # lam = v = 1, eta = 0, B = f(z) e_q: rhs_q = -f'(z) + f(z)
    sc = scenario(lam=1.0, n_z=128)
    z = sc.grid.z
    f = 2.0 + np.sin(2 * np.pi * z)
    df = 2 * np.pi * np.cos(2 * np.pi * z)
    B = FrameField.from_components(sc.grid, 0.0, f, 0.0)
    out = induction_rhs(sc, B)
    np.testing.assert_allclose(
        out.bq, np.broadcast_to(-df + f, sc.grid.shape), rtol=1e-5, atol=1e-5)
    np.testing.assert_allclose(out.bp, np.zeros(sc.grid.shape), atol=1e-12)


def test_rhs_conformal_effective_advection_coefficient():
    # Omega = e^z: the advection/growth coefficient is v/Omega; on a
    # constant q field the rhs reduces to lam * v * e^{-z}
    metric = FrameMetric(1.0, ConformalFactor.exponential(1.0))
    grid = metric.grid(4, 4, 65, z_periodic=False)
    sc = DynamoScenario(metric=metric, grid=grid, flow_speed=1.0,
                        initial_field=q_sine(), t_end=0.1,
                        dt=stable_dt(metric, grid, 1.0))
    B = FrameField.from_components(grid, 0.0, 1.0, 0.0)
    out = induction_rhs(sc, B)
    expect = np.exp(-grid.z)
    np.testing.assert_allclose(out.bq, np.broadcast_to(expect, grid.shape),
                               atol=1e-12)
    assert out.bq[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
    assert out.bq[0, 0, -1] == pytest.approx(0.36787944117144233, abs=1e-12)


def termwise_rhs(sc, data):
    """The induction right-hand side term by term, one operator per term."""
    m, g = sc.metric, sc.grid
    op = FrameOperators(m, g)
    z = g.z
    lam, v, eta = m.lam, sc.flow_speed, sc.resistivity
    om = m.omega.value(z)
    dlog = m.omega.log_derivative(z)
    w = v / om
    bp, bq, bz = data
    out = np.stack([-w * op.dz(bp) - lam * w * bp,
                    -w * op.dz(bq) + lam * w * bq,
                    -w * op.dz(bz) + v * dlog / om * bz])
    if eta > 0:
        e_plus, e_minus = np.exp(lam * z), np.exp(-lam * z)
        corr = 0.5 * dlog / om

        def lap(f):
            return (e_plus ** 2 * spectral_derivative(f, 0, 2)
                    + e_minus ** 2 * spectral_derivative(f, 1, 2) + op.dzz(f))

        out[0] += eta * (lap(bp) - lam ** 2 * bp
                         - 2 * lam * e_plus * op.dp(bz)) \
            - eta * corr * (op.dz(bp) + lam * bp)
        out[1] += eta * (lap(bq) - lam ** 2 * bq
                         - 2 * lam * e_minus * op.dq(bz)) \
            - eta * corr * (op.dz(bq) - lam * bq)
        out[2] += eta * (lap(bz) - 2 * lam * op.dz(bz)) - eta * corr * op.dz(bz)
    return out


def pqz_field():
    """A field with p, q and z structure in every slot (not solenoidal)."""
    s, c = np.sin, np.cos
    tau = 2 * np.pi
    return InitialField(
        bp=lambda p, q, z: (1.5 + s(tau * z)) * c(tau * q) + 0.3 * s(tau * p),
        bq=lambda p, q, z: (2.0 + c(tau * z)) * (1 + 0.5 * s(tau * p + 0.3)),
        bz=lambda p, q, z: c(tau * p) * s(tau * q) * (1 + z) + 0.2 * c(tau * z))


_TAB_Z = np.linspace(-1.0, 2.0, 301)
OMEGAS = {
    "identity": ConformalFactor.identity,
    "exponential": lambda: ConformalFactor.exponential(0.5),
    "tabulated": lambda: ConformalFactor.tabulated(
        _TAB_Z, 1.0 + 0.3 * np.sin(2 * np.pi * _TAB_Z)),
}


@pytest.mark.parametrize("eta", [0.0, 1e-2])
@pytest.mark.parametrize("omega,periodic", [
    ("identity", True), ("identity", False),
    ("exponential", False), ("tabulated", False)])
def test_fused_rhs_matches_termwise_formula(omega, periodic, eta):
    metric = FrameMetric(0.9, OMEGAS[omega]())
    grid = metric.grid(6, 5, 24, z_periodic=periodic)
    sc = DynamoScenario(metric=metric, grid=grid, flow_speed=1.3,
                        initial_field=pqz_field(), t_end=0.1,
                        dt=stable_dt(metric, grid, 1.3), resistivity=eta)
    B = sc.initial_field.on_grid(grid)
    op = FrameOperators(metric, grid)
    # both resistive cross terms are exercised
    assert np.max(np.abs(op.dp(B.bz))) > 1.0
    assert np.max(np.abs(op.dq(B.bz))) > 1.0
    ref = termwise_rhs(sc, B.data)
    got = induction_rhs(sc, B).data
    np.testing.assert_allclose(got, ref, rtol=0,
                               atol=1e-12 * np.max(np.abs(ref)))


def test_rhs_rejects_nonfinite_field():
    sc = scenario()
    data = np.zeros((3, *sc.grid.shape))
    data[1, 0, 0, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        induction_rhs(sc, FrameField(sc.grid, data))


# -- evolve -----------------------------------------------------------------------


def test_evolve_no_flow_is_identity():
    sc = scenario(v=0.0, t_end=1.0, n_z=64)
    res = evolve(sc)
    init = sc.initial_field.on_grid(sc.grid)
    rel = np.max(np.abs(res.field.data - init.data)) / np.max(np.abs(init.data))
    assert rel <= 1e-10


def test_evolve_q_growth_and_p_decay_rates():
    gp = lambda z: 2.0 + np.cos(2 * np.pi * z)
    sc = scenario(init=InitialField.pq_profiles(
        gp, lambda z: 2.0 + np.sin(2 * np.pi * z)), t_end=1.5, n_z=96)
    res = evolve(sc)
    lam = sc.metric.lam
    fit_q = growth_fit(res.series.t, res.series.l2[:, 1], theory_rate=lam)
    fit_p = growth_fit(res.series.t, res.series.l2[:, 0], theory_rate=-lam)
    assert fit_q.relative_error <= 1e-3
    assert fit_p.relative_error <= 1e-3
    assert fit_q.residual_rms < 1e-4


def test_evolve_matches_characteristics_oracle():
    sc = scenario(t_end=0.5, n_z=96)
    res = evolve(sc)
    oracle, mask = characteristics_oracle(sc, sc.t_end)
    assert mask.all()
    op = FrameOperators(sc.metric, sc.grid)
    err = op.l2_norm(res.field.data - oracle.data) / op.l2_norm(oracle.data)
    assert err <= 1e-4


def test_evolve_conformal_z_component_stretching():
    # nonconstant Omega feeds the z slot through Omega(z)/Omega(z0); the
    # solver must track the exact characteristics solution
    metric = FrameMetric(1.0, ConformalFactor.exponential(1.0))
    grid = metric.grid(4, 4, 129, z_periodic=False)
    init = InitialField.z_slot(lambda z: 1.5 + 0.5 * np.cos(2 * np.pi * z))
    sc = DynamoScenario(metric=metric, grid=grid, flow_speed=1.0,
                        initial_field=init, t_end=0.25,
                        dt=stable_dt(metric, grid, 1.0))
    res = evolve(sc)
    oracle, _ = characteristics_oracle(sc, sc.t_end)
    sl = grid.interior_z_slice()
    diff = res.field.data[..., sl] - oracle.data[..., sl]
    err = np.sqrt(np.sum(diff ** 2)) / np.sqrt(np.sum(oracle.data[..., sl] ** 2))
    assert err <= 1e-5


def textbook_rk4_fields(sc):
    """Fields after 0, 1, ..., n_steps out-of-place RK4 steps on
    `induction_rhs`, in the textbook order."""
    rate = lambda x: induction_rhs(sc, FrameField(sc.grid, x)).data
    dt = sc.t_end / sc.n_steps
    b = sc.initial_field.on_grid(sc.grid).data.copy()
    fields = [b]
    for _ in range(sc.n_steps):
        k1 = rate(b)
        k2 = rate(b + 0.5 * dt * k1)
        k3 = rate(b + 0.5 * dt * k2)
        k4 = rate(b + dt * k3)
        b = b + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        fields.append(b)
    return fields


def textbook_rk4(sc):
    return textbook_rk4_fields(sc)[-1]


# eta > 0 runs the Horner RHS stages; eta = 0 the precomputed step matrix,
# whose one-sided rows are covered by the closed-z cases
@pytest.mark.parametrize("eta,omega,periodic", [
    pytest.param(1e-2, "identity", True, id="resistive-periodic"),
    pytest.param(0.0, "identity", True, id="ideal-periodic"),
    pytest.param(0.0, "exponential", False, id="ideal-closed-exponential"),
    pytest.param(0.0, "tabulated", False, id="ideal-closed-tabulated"),
])
def test_evolve_matches_textbook_rk4(eta, omega, periodic):
    sc = scenario(eta=eta, omega=OMEGAS[omega](), periodic=periodic, n_z=32,
                  n_pq=4, t_end=0.1, init=pqz_field())
    init = sc.initial_field.on_grid(sc.grid)
    before = init.data.copy()
    b = textbook_rk4(sc)
    first, second = evolve(sc), evolve(sc)
    np.testing.assert_allclose(first.field.data, b, rtol=0,
                               atol=1e-13 * np.max(np.abs(b)))
    np.testing.assert_array_equal(first.field.data, second.field.data)
    assert not np.shares_memory(first.field.data, second.field.data)
    np.testing.assert_array_equal(init.data, before)
    np.testing.assert_array_equal(sc.initial_field.on_grid(sc.grid).data,
                                  before)


# stride 3 over a step count that is not a multiple of 3 uses both the
# P^3 interval propagator and the P^(n_steps mod 3) one for the last interval;
# a stride beyond n_steps is capped at n_steps, one interval for the run
@pytest.mark.parametrize("omega,periodic,stride", [
    pytest.param("identity", True, 3, id="periodic-identity"),
    pytest.param("exponential", False, 3, id="closed-exponential"),
    pytest.param("identity", True, 100, id="stride-beyond-n-steps"),
])
def test_ideal_sample_intervals_match_step_by_step_rk4(omega, periodic, stride):
    sc = scenario(omega=OMEGAS[omega](), periodic=periodic, n_z=32, n_pq=4,
                  t_end=0.1, init=pqz_field(), sample_stride=stride)
    n = sc.n_steps
    assert n % 3 != 0 and n > 3
    fields = textbook_rk4_fields(sc)
    res = evolve(sc)
    b = fields[-1]
    tol = 1e-13 * np.max(np.abs(b))
    # closed z has no inflow condition, so round-off in the one-sided rows at
    # z_min grows along the run and rounds differently through P^3 than
    # through the textbook loop: 1.2e-13 max|B| at z_min here, 1e-15 inside
    inflow = 0 if periodic else 2
    np.testing.assert_allclose(res.field.data[..., inflow:], b[..., inflow:],
                               rtol=0, atol=tol)
    np.testing.assert_allclose(res.field.data, b, rtol=0, atol=3 * tol)
    dt = sc.t_end / n
    sampled = [*range(0, n, stride), n]
    np.testing.assert_array_equal(res.series.t, np.array(sampled) * dt)
    assert res.series.t[-1] == pytest.approx(sc.t_end, rel=1e-15)
    assert (res.steps, res.dt, res.stop_reason) == (n, dt, "completed")
    assert not res.series.truncated
    op = FrameOperators(sc.metric, sc.grid)
    for i, step in enumerate(sampled):
        fld = FrameField(sc.grid, fields[step])
        comp = op.component_norms(fld)
        total = np.sqrt(np.sum(comp ** 2))
        np.testing.assert_allclose(res.series.l2[i], comp, rtol=1e-12)
        np.testing.assert_allclose(res.series.div_rel[i],
                                   op.l2_norm(op.div(fld)) / total,
                                   rtol=1e-12)


@st.composite
def ideal_one_step_scenarios(draw):
    """Random ideal scenarios whose run is exactly one RK4 step."""
    lam = draw(st.floats(-1.5, 1.5))
    v = draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)))
    kind = draw(st.sampled_from(["identity", "constant", "exponential"]))
    if kind == "identity":
        omega = ConformalFactor.identity()
    elif kind == "constant":
        omega = ConformalFactor.from_constant(draw(st.floats(0.5, 2.0)))
    else:
        omega = ConformalFactor.exponential(draw(st.floats(-1.0, 1.0)))
    n_pq = draw(st.sampled_from([2, 4]))
    metric = FrameMetric(lam, omega)
    grid = metric.grid(n_pq, n_pq, draw(st.integers(8, 48)),
                       z_periodic=kind != "exponential")
    dt = stable_dt(metric, grid, v)
    return DynamoScenario(metric=metric, grid=grid, flow_speed=v,
                          initial_field=pqz_field(), t_end=dt, dt=dt)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(ideal_one_step_scenarios())
def test_ideal_step_matrix_is_one_textbook_rk4_step(sc):
    assert sc.n_steps == 1
    b = textbook_rk4(sc)
    np.testing.assert_allclose(evolve(sc).field.data, b, rtol=0,
                               atol=1e-13 * np.max(np.abs(b)))


def test_evolve_overflow_guard_truncates():
    sc = scenario(t_end=20.0, n_z=64, overflow_factor=1e3, sample_stride=50)
    res = evolve(sc)
    assert res.series.truncated
    assert res.stop_reason == "overflow guard"
    assert res.steps < sc.n_steps and res.steps % 50 == 0
    assert res.series.t[-1] == res.steps * res.dt < 20.0
    # partial series is returned, not silently discarded
    assert len(res.series.t) >= 2


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_evolve_nan_raises_numerical_error():
    # resistive term far outside the explicit stability region blows up;
    # sparse sampling keeps the overflow guard from halting first
    sc = scenario(eta=5.0, t_end=1.0, n_z=64, overflow_factor=1e290,
                  sample_stride=10 ** 6,
                  init=InitialField.q_slot(lambda z: np.sin(8 * np.pi * z)))
    with pytest.raises(NumericalError):
        evolve(sc)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_ideal_overflow_inside_one_interval_raises_numerical_error():
    # e^{lam v t_end} = e^{900} overflows double before the only sample at
    # t_end, so the guard never sees it; the interval's end field is inf/nan
    sc = scenario(lam=300.0, t_end=3.0, n_z=32, overflow_factor=1e300,
                  sample_stride=10 ** 6)
    with pytest.raises(NumericalError, match=f"step {sc.n_steps} "):
        evolve(sc)


def test_resistive_damping_is_monotonic_in_eta():
    rates = []
    for eta in (0.0, 2e-3, 5e-3):
        sc = scenario(eta=eta, t_end=1.0, n_z=96,
                      init=InitialField.q_slot(lambda z: np.sin(2 * np.pi * z) + 2.0))
        res = evolve(sc)
        fit = growth_fit(res.series.t, res.series.l2[:, 1])
        rates.append(fit.rate)
    assert rates[0] > rates[1] > rates[2]


def test_series_csv_format():
    sc = scenario(t_end=0.3, n_z=64)
    res = evolve(sc)
    csv = res.series.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "t,norm_bp,norm_bq,norm_bz,div_residual"
    first = lines[1].split(",")
    assert len(first) == 5
    assert float(first[0]) == 0.0
    # at least 12 significant digits survive the round-trip
    val = float(lines[2].split(",")[2])
    assert f"{val:.15g}" == lines[2].split(",")[2]
    assert csv.endswith("\n") and "\r" not in csv


# -- characteristics oracle -------------------------------------------------------


def test_oracle_pure_advection():
    sc = scenario(lam=0.0, t_end=0.25, n_z=64,
                  init=InitialField.q_slot(lambda z: np.sin(2 * np.pi * z)))
    oracle, _ = characteristics_oracle(sc, 0.25)
    z = sc.grid.z
    expect = np.sin(2 * np.pi * (z - 0.25))
    np.testing.assert_allclose(oracle.bq,
                               np.broadcast_to(expect, sc.grid.shape),
                               atol=1e-13)


def test_oracle_growth_factor_at_unit_time():
    # lam = v = 1, t = 1: q component is e * g(z - 1)
    g = lambda z: 2.0 + np.sin(2 * np.pi * z)
    sc = scenario(lam=1.0, t_end=1.0, n_z=64, init=InitialField.q_slot(g))
    oracle, _ = characteristics_oracle(sc, 1.0)
    z = sc.grid.z
    np.testing.assert_allclose(
        oracle.bq, np.broadcast_to(np.e * g(z - 1.0), sc.grid.shape),
        rtol=1e-12)


def test_oracle_exponential_factor_foot_points():
    # Omega = e^z, v = 1: from z0 = 0 the characteristic is z(t) = ln(1 + t),
    # so tracing back from z at time t gives z0 = ln(e^z - t)
    metric = FrameMetric(1.0, ConformalFactor.exponential(1.0))
    grid = metric.grid(4, 4, 65, z_periodic=False)
    g = lambda z: np.exp(np.sin(2 * np.pi * z))
    sc = DynamoScenario(metric=metric, grid=grid, flow_speed=1.0,
                        initial_field=InitialField.q_slot(g), t_end=0.3,
                        dt=stable_dt(metric, grid, 1.0))
    t = 0.3
    oracle, mask = characteristics_oracle(sc, t)
    assert mask.all()
    z = grid.z
    z0 = np.log(np.exp(z) - t)
    expect = g(z0) * np.exp(z - z0)
    np.testing.assert_allclose(oracle.bq, np.broadcast_to(expect, grid.shape),
                               rtol=1e-12)


def test_oracle_tabulated_factor_matches_exponential():
    zs = np.linspace(-2.0, 2.0, 801)
    tab = ConformalFactor.tabulated(zs, np.exp(zs))
    metric = FrameMetric(1.0, tab)
    grid = metric.grid(2, 2, 9, z_periodic=False)
    sc = DynamoScenario(metric=metric, grid=grid, flow_speed=1.0,
                        initial_field=q_sine(), t_end=0.2,
                        dt=stable_dt(metric, grid, 1.0))
    from framedynamo.induction_dynamo import _trace_back
    z0 = _trace_back(sc, grid.z, 0.2)
    np.testing.assert_allclose(z0, np.log(np.exp(grid.z) - 0.2), atol=1e-7)


def test_oracle_domain_restriction_flagged():
    g = lambda z: 2.0 + np.sin(2 * np.pi * z)
    metric = FrameMetric(1.0)
    grid = metric.grid(4, 4, 65, z_periodic=False)
    sc = DynamoScenario(
        metric=metric, grid=grid, flow_speed=1.0,
        initial_field=InitialField(
            bq=lambda p, q, z: g(z) * np.ones(np.broadcast(p, q, z).shape),
            z_limited=True),
        t_end=0.5, dt=stable_dt(metric, grid, 1.0))
    oracle, mask = characteristics_oracle(sc, 0.5)
    assert not mask.all() and mask.any()
    # masked points are z < v t, where the foot leaves the interval
    np.testing.assert_array_equal(mask, grid.z >= 0.5 - 1e-12)
    assert np.all(np.isnan(oracle.bq[:, :, ~mask]))


def test_oracle_rejects_resistive_scenarios():
    sc = scenario(eta=1e-3, t_end=0.5)
    with pytest.raises(ValueError, match="zero resistivity"):
        characteristics_oracle(sc, 0.1)


def test_localized_growth_rate_for_varying_factor():
    # falsifiable version of the z-dependent rate: a windowed norm in the
    # interior grows at about lam * v / Omega(z_center) over short times.
    # The uniform initial profile isolates the accumulated growth factor
    # from plain advection of profile shape through the window.
    metric = FrameMetric(1.0, ConformalFactor.exponential(1.0))
    grid = metric.grid(4, 4, 129, z_periodic=False)
    zc, width = 0.5, 0.3

    def window(z):
        w = np.cos(np.pi * (z - zc) / width) ** 2
        return np.where(np.abs(z - zc) < width / 2, w, 0.0)

    sc = DynamoScenario(metric=metric, grid=grid, flow_speed=1.0,
                        initial_field=InitialField.q_slot(lambda z: 1.0 + 0 * z),
                        t_end=0.12, dt=stable_dt(metric, grid, 1.0),
                        probe_weights={"mid": window})
    res = evolve(sc)
    theory = 1.0 * 1.0 * np.exp(-zc)
    fit = growth_fit(res.series.t, res.series.probes["mid"], theory_rate=theory)
    assert fit.relative_error <= 0.12


# -- divergence preservation ------------------------------------------------------


def test_divergence_residual_stays_bounded():
    metric = FrameMetric(1.0)
    grid = metric.grid(8, 8, 96, z_periodic=False)
    init = InitialField.solenoidal_pz(
        1.0, lambda z: np.sin(2 * np.pi * z),
        lambda z: 2 * np.pi * np.cos(2 * np.pi * z))
    sc = DynamoScenario(metric=metric, grid=grid, flow_speed=1.0,
                        initial_field=init, t_end=0.25,
                        dt=stable_dt(metric, grid, 1.0))
    res = evolve(sc)
    d = res.series.div_rel
    assert d[0] > 0
    assert np.max(d) <= 10.0 * d[0] + 1e-12


# -- growth fit -------------------------------------------------------------------


def test_growth_fit_exact_line():
    t = np.linspace(0, 4, 100)
    fit = growth_fit(t, np.exp(0.5 * t), theory_rate=0.5)
    assert fit.rate == pytest.approx(0.5, abs=1e-12)
    assert fit.residual_rms <= 1e-12
    assert fit.relative_error <= 1e-12


def test_growth_fit_reports_noise_residual():
    rng = np.random.default_rng(0)
    t = np.linspace(0, 4, 200)
    fit = growth_fit(t, np.exp(0.3 * t + 0.01 * rng.normal(size=200)))
    assert fit.residual_rms > 1e-4


def test_growth_fit_rejects_short_series():
    t = np.linspace(0, 1, 20)
    with pytest.raises(ValueError, match="20 samples"):
        growth_fit(t, np.exp(t))


def test_growth_fit_rejects_nonpositive_norms():
    t = np.linspace(0, 1, 100)
    y = np.exp(t)
    y[3] = 0.0
    with pytest.raises(ValueError, match="positive"):
        growth_fit(t, y)


def test_growth_fit_enforces_transient_cut():
    t = np.linspace(0, 1, 100)
    with pytest.raises(ValueError, match="20%"):
        growth_fit(t, np.exp(t), window=(0.1, 1.0))


def test_growth_fit_report_text():
    t = np.linspace(0, 4, 100)
    rep = growth_fit(t, np.exp(0.5 * t), theory_rate=0.5).report()
    assert "fitted rate" in rep and "0.5" in rep
