import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framedynamo import induction_dynamo
from framedynamo.differentiation import spectral_derivative
from framedynamo.frame_calculus import (ConformalFactor, FrameField,
                                        FrameMetric, FrameOperators, Grid3D)
from framedynamo.induction_dynamo import (CAT_STRETCH_RATE,
                                          RK4_REAL_AXIS_LIMIT, DynamoScenario,
                                          InitialField, NumericalError,
                                          _collapse_pq, _initial_state,
                                          cat_map_eigen,
                                          characteristics_oracle, evolve,
                                          growth_fit, induction_rhs,
                                          named_initial_field, stable_dt)


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
    assert CAT_STRETCH_RATE == pytest.approx(np.log(chi1), abs=1e-12)
    assert CAT_STRETCH_RATE == pytest.approx(0.9624236501192069, abs=1e-12)
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


@pytest.mark.parametrize("kwargs, match", [
    ({"v": np.nan}, "flow_speed must be finite"),
    ({"v": np.inf}, "flow_speed must be finite"),
    ({"eta": np.nan}, "resistivity must be finite and non-negative"),
    ({"eta": np.inf}, "resistivity must be finite and non-negative"),
    ({"t_end": np.inf}, "t_end must be positive and finite"),
    ({"t_end": np.nan}, "t_end must be positive and finite"),
    ({"dt": np.inf}, "dt must be positive and finite"),
    ({"dt": np.nan}, "dt must be positive and finite"),
    ({"lam": np.nan}, "lam must be finite"),
    ({"lam": np.inf}, "lam must be finite"),
])
def test_scenario_rejects_non_finite_inputs(kwargs, match):
    # NaN fails every < and <= check: v or eta = nan ran into a numerical
    # failure, t_end = inf overflowed in n_steps, and lam = nan failed in
    # evolve with a misleading divergence message
    args = {"lam": 1.0, "v": 1.0, "eta": 0.0, "t_end": 0.5, "dt": 1e-3,
            **kwargs}
    with pytest.raises(ValueError, match=match):
        metric = FrameMetric(args["lam"])
        DynamoScenario(metric=metric, grid=metric.grid(4, 4, 32),
                       flow_speed=args["v"], initial_field=q_sine(),
                       t_end=args["t_end"], dt=args["dt"],
                       resistivity=args["eta"])


@pytest.mark.parametrize("kwargs, match", [
    # -5 was read as "choose automatically", 2.5 failed inside evolve
    ({"sample_stride": -5}, "^sample_stride must be an int >= 0"),
    ({"sample_stride": 2.5}, "^sample_stride must be an int >= 0"),
    ({"sample_stride": 3.0}, "^sample_stride must be an int >= 0"),
    ({"sample_stride": True}, "^sample_stride must be an int >= 0"),
    # NaN switched the guard off, <= 0 stopped every run after one interval
    ({"overflow_factor": np.nan}, "^overflow_factor must be positive"),
    ({"overflow_factor": 0.0}, "^overflow_factor must be positive"),
    ({"overflow_factor": -1e3}, "^overflow_factor must be positive"),
    ({"overflow_factor": -np.inf}, "^overflow_factor must be positive"),
])
def test_scenario_rejects_ill_posed_knobs(kwargs, match):
    with pytest.raises(ValueError, match=match):
        scenario(n_z=32, t_end=0.1, **kwargs)


def test_scenario_accepts_integer_strides_and_an_infinite_guard():
    for stride in (0, 3, np.int64(3)):
        assert scenario(n_z=32, t_end=0.1, sample_stride=stride).stride \
            == (1 if stride == 0 else 3)
    # lam v t = 38.5: the default factor 1e12 would stop this run
    res = evolve(scenario(n_z=32, t_end=40.0, overflow_factor=np.inf))
    assert res.stop_reason == "completed" and res.series.t[-1] == 40.0


def test_scenario_rejects_periodic_with_varying_factor():
    with pytest.raises(ValueError, match="z-uniform"):
        scenario(omega=ConformalFactor.exponential(1.0))


def solenoidal():
    return named_initial_field("solenoidal", 1.0)


@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "closed"])
@pytest.mark.parametrize("init", [solenoidal, lambda: pqz_field()],
                         ids=["solenoidal-pz", "pqz"])
def test_scenario_rejects_resistive_field_with_pq_structure(init, periodic):
    with pytest.raises(ValueError, match="constant along p and q.*"
                       "not z-periodic.*no boundary condition"):
        scenario(eta=1e-3, periodic=periodic, init=init())


@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "closed"])
def test_scenario_accepts_ideal_pq_fields(periodic):
    for init in (solenoidal(), pqz_field()):
        assert scenario(periodic=periodic, init=init).resistivity == 0.0


def test_scenario_accepts_resistive_z_only_field_on_periodic_z():
    assert scenario(eta=1e-3, init=z_field()).resistivity > 0


def test_scenario_rejects_resistive_closed_z():
    # closed z has no boundary condition for eta dzz
    with pytest.raises(ValueError, match="requires periodic z.*"
                       "no boundary condition"):
        scenario(eta=1e-3, periodic=False, init=z_field())


def test_stable_dt_takes_the_smaller_of_advective_and_diffusive_step():
    metric = FrameMetric(CAT_STRETCH_RATE)
    grid = metric.grid(8, 8, 64, z_periodic=True)
    advective = 0.4 * grid.dz
    assert stable_dt(metric, grid, 1.0, cfl=0.4) == advective
    assert stable_dt(metric, grid, 1.0, 0.4, resistivity=0.0) == advective
    # diffusion, the -eta lam^2 shift and Bp's stretching decay lam v_eff
    decay = (0.05 * (16.0 / (3.0 * grid.dz ** 2) + CAT_STRETCH_RATE ** 2)
             + CAT_STRETCH_RATE * 1.0)
    # the same fraction 0.4 / 0.5 of the RK4 real-axis limit
    assert stable_dt(metric, grid, 1.0, cfl=0.4, resistivity=0.05) == \
        pytest.approx(0.8 * RK4_REAL_AXIS_LIMIT / decay, rel=1e-15)
    assert stable_dt(metric, grid, 1.0, resistivity=1e-6) == advective
    # no flow: the diffusive step, not cfl * dz
    assert stable_dt(metric, grid, 0.0, resistivity=0.05) < advective


@pytest.mark.parametrize("v", [np.nan, np.inf, -np.inf])
def test_stable_dt_rejects_non_finite_flow_speed(v):
    # a NaN speed used to give the step of v = 0
    metric = FrameMetric(1.0)
    with pytest.raises(ValueError, match="flow_speed must be finite"):
        stable_dt(metric, Grid3D(4, 4, 32), v)


@pytest.mark.parametrize("cfl", [-1.0, 0.0, np.nan, np.inf])
def test_stable_dt_rejects_cfl_outside_zero_to_infinity(cfl):
    # cfl = -1 or NaN used to give a negative or NaN step
    metric = FrameMetric(1.0)
    with pytest.raises(ValueError, match="cfl must be positive and finite"):
        stable_dt(metric, Grid3D(4, 4, 32), 1.0, cfl)


def test_scenario_rejects_dt_above_the_diffusive_bound():
    # the advective step alone would run into the overflow guard
    with pytest.raises(ValueError, match="real-axis bound.*2.785"):
        scenario(eta=0.05, n_z=64, n_pq=8, t_end=0.5)
    metric = FrameMetric(CAT_STRETCH_RATE)
    grid = metric.grid(8, 8, 64, z_periodic=True)
    limit = RK4_REAL_AXIS_LIMIT / (0.05 * (16.0 / (3.0 * grid.dz ** 2)
                                          + CAT_STRETCH_RATE ** 2)
                                   + CAT_STRETCH_RATE * 1.0)
    make = lambda dt: DynamoScenario(
        metric=metric, grid=grid, flow_speed=1.0, initial_field=q_sine(),
        t_end=0.5, dt=dt, resistivity=0.05)
    assert make(limit).dt == limit
    with pytest.raises(ValueError, match="real-axis bound"):
        make(1.001 * limit)


def test_diffusive_bound_counts_the_stretching_decay_of_bp():
    # at eta (16/(3 dz^2) + lam^2) dt = 2.785 alone, Bp's decay -lam v_eff
    # pushed its z Nyquist mode past RK4's real-axis limit and Bp grew from
    # 2.1 to 4e8 over 2000 steps; that dt is now rejected, and both the
    # largest accepted dt and stable_dt's let Bp decay monotonically
    metric = FrameMetric(1.5)
    grid = metric.grid(2, 2, 16, z_periodic=True)
    eta, v = 0.05, 0.3
    make = lambda dt: DynamoScenario(
        metric=metric, grid=grid, flow_speed=v,
        initial_field=named_initial_field("pq_mixed"), t_end=2000 * dt,
        dt=dt, resistivity=eta)
    diffusion = eta * (16.0 / (3.0 * grid.dz ** 2) + 1.5 ** 2)
    with pytest.raises(ValueError, match="real-axis bound"):
        make(RK4_REAL_AXIS_LIMIT / diffusion)
    for dt in (RK4_REAL_AXIS_LIMIT / (diffusion + 1.5 * v),
               stable_dt(metric, grid, v, resistivity=eta)):
        res = evolve(make(dt))
        bp = res.series.l2[:, 0]
        assert res.stop_reason == "completed" and res.steps == 2000
        assert np.all(np.diff(bp) <= 0) and bp[-1] < 1e-12 * bp[0]


def test_ideal_run_honours_the_real_axis_bound():
    # at dt = 0.4 dz, lam v dt = 3.75 lies past RK4's real-axis limit and
    # Bp's norm goes from 2.1 to 412 where the exact Bp decays by e^-15;
    # stable_dt's step lets Bp decay monotonically
    metric = FrameMetric(300.0)
    grid = metric.grid(2, 2, 32, z_periodic=True)
    make = lambda dt: DynamoScenario(
        metric=metric, grid=grid, flow_speed=1.0,
        initial_field=named_initial_field("pq_mixed"), t_end=0.05, dt=dt)
    with pytest.raises(ValueError, match="real-axis bound"):
        make(0.4 * grid.dz)
    dt = stable_dt(metric, grid, 1.0)
    assert dt == pytest.approx(0.8 * RK4_REAL_AXIS_LIMIT / 300.0, rel=1e-15)
    res = evolve(make(dt))
    bp = res.series.l2[:, 0]
    assert res.stop_reason == "completed"
    assert np.all(np.diff(bp) < 0) and bp[-1] < 1e-2 * bp[0]


def test_scenario_rejects_nonpositive_factor_on_the_grid():
    # positive on [0, 1], negative spline extrapolation on the rest of [0, 2]
    zs = np.linspace(0, 1, 21)
    metric = FrameMetric(1.0, ConformalFactor.tabulated(zs, 1.0 - 0.95 * zs))
    grid = Grid3D(4, 4, 33, z_min=0.0, z_max=2.0)
    with pytest.raises(ValueError, match="not finite and positive"):
        stable_dt(metric, grid, 1.0)
    with pytest.raises(ValueError, match="not finite and positive"):
        DynamoScenario(metric=metric, grid=grid, flow_speed=1.0,
                       initial_field=q_sine(), t_end=0.1, dt=1e-3)


def test_scenario_rejects_overflowing_factor():
    # Omega(1) = e^800 = +inf used to pass the positivity check; the run was
    # accepted and failed only in evolve with a non-finite divergence
    metric = FrameMetric(1.0, ConformalFactor.exponential(800.0))
    grid = Grid3D(2, 2, 32)
    with pytest.raises(ValueError, match="finite"):
        stable_dt(metric, grid, 1.0)
    with pytest.raises(ValueError, match="finite"):
        DynamoScenario(metric=metric, grid=grid, flow_speed=1.0,
                       initial_field=q_sine(), t_end=0.1, dt=1e-3)


def test_resistive_q_sine_with_auto_dt_completes_and_matches_closed_form():
    metric = FrameMetric(CAT_STRETCH_RATE)
    grid = metric.grid(8, 8, 64, z_periodic=True)
    eta, t_end = 0.05, 0.5
    sc = DynamoScenario(metric=metric, grid=grid, flow_speed=1.0,
                        initial_field=q_sine(), t_end=t_end,
                        dt=stable_dt(metric, grid, 1.0, resistivity=eta),
                        resistivity=eta)
    res = evolve(sc)
    assert res.stop_reason == "completed" and res.steps == sc.n_steps
    lam, z = CAT_STRETCH_RATE, grid.z
    bq = np.exp((lam - eta * lam ** 2) * t_end) * (
        2.0 + np.exp(-4 * np.pi ** 2 * eta * t_end)
        * np.sin(2 * np.pi * (z - t_end)))
    np.testing.assert_allclose(res.field.bq, np.broadcast_to(bq, grid.shape),
                               rtol=1e-5)


def test_evolution_reports_its_cfl_numbers():
    ideal = scenario(t_end=0.3, n_z=64)
    res = evolve(ideal)
    assert res.cfl_advective == pytest.approx(res.dt / ideal.grid.dz, rel=1e-14)
    assert res.cfl_advective <= 0.4 * (1 + 1e-14)
    # Bp's stretching decay lam v_eff alone
    assert res.cfl_real_axis == pytest.approx(res.dt * ideal.metric.lam,
                                              rel=1e-14)
    resistive = scenario(eta=2e-3, t_end=0.3, n_z=64, v=0.5)
    res = evolve(resistive)
    assert res.cfl_advective == pytest.approx(0.5 * res.dt / resistive.grid.dz,
                                              rel=1e-14)
    dz, lam = resistive.grid.dz, resistive.metric.lam
    assert res.cfl_real_axis == pytest.approx(
        res.dt * (2e-3 * (16.0 / (3.0 * dz ** 2) + lam ** 2) + lam * 0.5),
        rel=1e-14)
    assert 0 < res.cfl_real_axis <= RK4_REAL_AXIS_LIMIT


def test_evolution_reports_its_wall_time_split():
    for sc in (scenario(t_end=0.3, n_z=64),
               scenario(eta=2e-3, t_end=0.3, n_z=64, v=0.5)):
        start = time.perf_counter()
        res = evolve(sc)
        wall = time.perf_counter() - start
        parts = (res.build_s, res.advance_s, res.sample_s)
        assert all(part >= 0.0 for part in parts)
        assert sum(parts) <= wall


def test_periodic_exponential_factor_with_zero_rate_is_identity():
    # e^{0 z} is z-uniform, so periodic z accepts it, and it is the identity
    base = evolve(scenario(t_end=0.2)).series
    flat = evolve(scenario(omega=ConformalFactor.exponential(0.0), t_end=0.2)).series
    for name in ("t", "l2", "total_l2", "div_rel"):
        assert np.array_equal(getattr(flat, name), getattr(base, name)), name


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


def z_field():
    """A field with z structure in every slot and none along p or q."""
    s, c = np.sin, np.cos
    tau = 2 * np.pi
    ones = lambda p, q, z: np.ones(np.broadcast(p, q, z).shape)
    return InitialField(
        bp=lambda p, q, z: (1.5 + s(tau * z)) * ones(p, q, z),
        bq=lambda p, q, z: (2.0 + c(tau * z) + 0.3 * s(2 * tau * z)) * ones(p, q, z),
        bz=lambda p, q, z: (0.2 * c(tau * z) + 0.5 * s(3 * tau * z)) * ones(p, q, z))


_TAB_Z = np.linspace(-1.0, 2.0, 301)
OMEGAS = {
    "identity": ConformalFactor.identity,
    "exponential": lambda: ConformalFactor.exponential(0.5),
    "tabulated": lambda: ConformalFactor.tabulated(
        _TAB_Z, 1.0 + 0.3 * np.sin(2 * np.pi * _TAB_Z)),
}


# resistive scenarios exist on periodic z only, and there the right-hand
# side accepts only fields constant along p and q
@pytest.mark.parametrize("omega,periodic,eta", [
    ("identity", True, 0.0), ("identity", False, 0.0),
    ("exponential", False, 0.0), ("tabulated", False, 0.0),
    ("identity", True, 1e-2)])
def test_fused_rhs_matches_termwise_formula(omega, periodic, eta):
    metric = FrameMetric(0.9, OMEGAS[omega]())
    grid = metric.grid(6, 5, 24, z_periodic=periodic)
    sc = DynamoScenario(metric=metric, grid=grid, flow_speed=1.3,
                        initial_field=z_field(), t_end=0.1,
                        dt=stable_dt(metric, grid, 1.3), resistivity=eta)
    B = (z_field() if eta > 0 else pqz_field()).on_grid(grid)
    ref = termwise_rhs(sc, B.data)
    got = induction_rhs(sc, B).data
    np.testing.assert_allclose(got, ref, rtol=0,
                               atol=1e-12 * np.max(np.abs(ref)))


def test_rhs_rejects_resistive_field_with_pq_structure():
    sc = scenario(eta=1e-3, init=z_field())
    with pytest.raises(ValueError, match="constant along p and q.*"
                       "not z-periodic.*no boundary condition"):
        induction_rhs(sc, pqz_field().on_grid(sc.grid))


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


@pytest.mark.parametrize("slot", [
    pytest.param(InitialField.z_slot, id="z-slot"),
    pytest.param(InitialField.q_slot, id="q-slot"),
])
def test_evolve_conformal_z_component_stretching(slot):
    # nonconstant Omega feeds the z slot through Omega(z)/Omega(z0), and
    # the q slot grows at the local rate lam v/Omega(z); the solver must
    # track the exact characteristics solution
    metric = FrameMetric(1.0, ConformalFactor.exponential(1.0))
    grid = metric.grid(4, 4, 129, z_periodic=False)
    init = slot(lambda z: 1.5 + 0.5 * np.cos(2 * np.pi * z))
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


# every run applies the precomputed step matrix; its resistive terms are
# covered by the periodic z-only case, its one-sided rows by the closed-z cases
@pytest.mark.parametrize("eta,omega,periodic", [
    pytest.param(1e-2, "identity", True, id="resistive-periodic"),
    pytest.param(0.0, "identity", True, id="ideal-periodic"),
    pytest.param(0.0, "exponential", False, id="ideal-closed-exponential"),
    pytest.param(0.0, "tabulated", False, id="ideal-closed-tabulated"),
])
def test_evolve_matches_textbook_rk4(eta, omega, periodic):
    sc = scenario(eta=eta, omega=OMEGAS[omega](), periodic=periodic, n_z=32,
                  n_pq=4, t_end=0.1, init=z_field() if eta > 0 else pqz_field())
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
def one_step_scenarios(draw, resistive=False):
    """Random scenarios whose run is exactly one RK4 step: ideal ones on the
    p, q, z field, resistive ones (eta in [0, 0.05]) on the z-only field
    with periodic z and a z-uniform factor."""
    lam = draw(st.floats(-1.5, 1.5))
    v = draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)))
    kinds = ["identity", "constant"] + ([] if resistive else ["exponential"])
    kind = draw(st.sampled_from(kinds))
    if kind == "identity":
        omega = ConformalFactor.identity()
    elif kind == "constant":
        omega = ConformalFactor.from_constant(draw(st.floats(0.5, 2.0)))
    else:
        omega = ConformalFactor.exponential(draw(st.floats(-1.0, 1.0)))
    if resistive:
        n_pq, init, periodic = 4, z_field(), True
        eta = draw(st.floats(0.0, 0.05))
    else:
        n_pq, init = draw(st.sampled_from([2, 4])), pqz_field()
        periodic, eta = kind != "exponential", 0.0
    metric = FrameMetric(lam, omega)
    grid = metric.grid(n_pq, n_pq, draw(st.integers(8, 48)),
                       z_periodic=periodic)
    dt = stable_dt(metric, grid, v, resistivity=eta)
    return DynamoScenario(metric=metric, grid=grid, flow_speed=v,
                          initial_field=init, t_end=dt, dt=dt,
                          resistivity=eta)


def assert_one_textbook_rk4_step(sc):
    assert sc.n_steps == 1
    b = textbook_rk4(sc)
    np.testing.assert_allclose(evolve(sc).field.data, b, rtol=0,
                               atol=1e-13 * np.max(np.abs(b)))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(one_step_scenarios())
def test_ideal_step_matrix_is_one_textbook_rk4_step(sc):
    assert_one_textbook_rk4_step(sc)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(one_step_scenarios(resistive=True))
def test_resistive_step_matrix_is_one_textbook_rk4_step(sc):
    assert_one_textbook_rk4_step(sc)


def pq_field(const_p, const_q, bump=False):
    """A field with z structure in every slot, and p or q structure unless
    it is constant along that axis; `bump` raises one cell of a field
    constant along p and q by one ulp."""
    tau = 2 * np.pi
    along_p = (lambda p: 0.0 * p) if const_p else (lambda p: 0.3 * np.sin(tau * p))
    along_q = (lambda q: 0.0 * q) if const_q else (lambda q: 0.4 * np.cos(tau * q))

    def slot(k):
        def f(p, q, z):
            out = ((1.5 + k + np.sin(tau * z + k)) * (1.0 + along_p(p))
                   * (1.0 + along_q(q)))
            if bump and k == 1:
                out[1, 0, 3] = np.nextafter(out[1, 0, 3], np.inf)
            return out
        return f

    return InitialField(bp=slot(0), bq=slot(1), bz=slot(2))


@st.composite
def pq_scenarios(draw):
    """Short multi-interval runs on fields constant along p, q, both,
    neither, or both but for one ulp; resistive only where the field is
    constant along p and q, on periodic z."""
    kind = draw(st.sampled_from(["p", "q", "both", "neither", "ulp"]))
    const_p = kind in ("p", "both", "ulp")
    const_q = kind in ("q", "both", "ulp")
    periodic = draw(st.booleans())
    omega = ConformalFactor.identity() if periodic else draw(st.sampled_from(
        [ConformalFactor.identity(), ConformalFactor.exponential(0.7)]))
    eta = draw(st.floats(0.0, 0.05)) if kind == "both" and periodic else 0.0
    metric = FrameMetric(draw(st.floats(-1.5, 1.5)), omega)
    grid = metric.grid(draw(st.integers(2, 4)), draw(st.integers(2, 4)),
                       draw(st.integers(8, 24)), z_periodic=periodic)
    v = draw(st.floats(-2.0, 2.0))
    dt = stable_dt(metric, grid, v, resistivity=eta)
    sc = DynamoScenario(metric=metric, grid=grid, flow_speed=v,
                        initial_field=pq_field(const_p, const_q, kind == "ulp"),
                        t_end=draw(st.integers(1, 5)) * dt, dt=dt,
                        resistivity=eta,
                        sample_stride=draw(st.integers(1, 3)))
    expect = (3, 1 if const_p and kind != "ulp" else grid.n_p,
              1 if const_q and kind != "ulp" else grid.n_q, grid.n_z)
    return sc, expect


@settings(derandomize=True, deadline=None, max_examples=40)
@given(pq_scenarios())
def test_collapsed_state_matches_full_grid_rk4(case):
    sc, collapsed_shape = case
    init = sc.initial_field.on_grid(sc.grid).data
    assert _collapse_pq(init).shape == collapsed_shape
    fields = textbook_rk4_fields(sc)
    res = evolve(sc)
    b = fields[-1]
    assert res.field.data.shape == b.shape and res.field.data.flags.c_contiguous
    tol = 1e-13 * np.max(np.abs(b))
    # closed z: the one-sided rows at z_min round differently, as in
    # test_ideal_sample_intervals_match_step_by_step_rk4
    inflow = 0 if sc.grid.z_periodic else 2
    np.testing.assert_allclose(res.field.data[..., inflow:], b[..., inflow:],
                               rtol=0, atol=tol)
    np.testing.assert_allclose(res.field.data, b, rtol=0, atol=3 * tol)
    op = FrameOperators(sc.metric, sc.grid)
    steps = np.rint(res.series.t / res.dt).astype(int)
    for i, step in enumerate(steps):
        comp = op.component_norms(FrameField(sc.grid, fields[step]))
        np.testing.assert_allclose(res.series.l2[i], comp, rtol=1e-12)
        np.testing.assert_allclose(res.series.total_l2[i],
                                   np.sqrt(np.sum(comp ** 2)), rtol=1e-12)


def test_q_sine_arnold_run_has_exactly_zero_div_rel():
    # the state is 1 x 1 x n_z, so its p and q derivatives are exactly 0,
    # and so are Bp and Bz
    sc = scenario(n_pq=32, n_z=128, t_end=2.0)
    first, second = evolve(sc), evolve(sc)
    assert len(first.series.div_rel) > 200
    assert np.all(first.series.div_rel == 0.0)
    assert first.field.data.shape == (3, 32, 32, 128)
    assert first.field.data.flags.c_contiguous
    assert not np.shares_memory(first.field.data, second.field.data)


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
    # a resistive run growing as e^{(lam v - eta lam^2) t} = e^{840} overflows
    # double; sparse sampling keeps the overflow guard from halting first.
    # cfl 0.2 keeps dt within the real-axis bound, which Bp's stretching
    # decay lam v = 300 dominates here
    sc = scenario(lam=300.0, eta=1e-3, t_end=4.0, n_z=32, overflow_factor=1e290,
                  cfl=0.2,
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


# -- batched diagnostics ---------------------------------------------------------


def per_sample_series(sc, states):
    """The series of a pass per sample: `component_norms`, their total and
    `l2_norm(div)` / total, on each state alone."""
    op = FrameOperators(sc.metric, sc.grid)
    l2, totals, divs = [], [], []
    for data in states:
        fld = FrameField(sc.grid, data)
        comp = op.component_norms(fld)
        total = float(np.sqrt(np.sum(comp ** 2)))
        l2.append(comp)
        totals.append(total)
        divs.append(op.l2_norm(op.div(fld)) / total if total > 0 else 0.0)
    return np.array(l2), np.array(totals), np.array(divs)


def evolve_keeping_states(sc, monkeypatch):
    """evolve(sc), a copy of every state its diagnostics passes see, and the
    number of states in each pass."""
    states, passes = [], []
    batched = induction_dynamo._diagnostics

    def spy(op, stacked):
        states.extend(stacked.copy())
        passes.append(len(stacked))
        return batched(op, stacked)

    monkeypatch.setattr(induction_dynamo, "_diagnostics", spy)
    return evolve(sc), states, passes


def assert_series_is_per_sample(sc, res, states):
    stride, n = sc.stride, sc.n_steps
    steps = [*range(0, n, stride), n][:len(states)]
    assert len(res.series.t) == len(states)
    assert np.array_equal(res.series.t, np.array(steps) * res.dt)
    # every pass sees new states: no slot of the ring is diagnosed twice
    assert not any(np.array_equal(a, b) for a, b in zip(states, states[1:]))
    l2, totals, divs = per_sample_series(sc, states)
    assert np.array_equal(res.series.l2, l2)
    assert np.array_equal(res.series.total_l2, totals)
    assert np.array_equal(res.series.div_rel, divs)
    assert np.array_equal(res.field.data,
                          np.broadcast_to(states[-1], res.field.data.shape))


# the Arnold and resistive runs are those of the benchmark; the closed-z
# tabulated, the solenoidal (p, z) and the 32 x 32 x 128 p, q, z runs have
# non-zero div_rel
@pytest.mark.parametrize("case", ["arnold", "resistive", "closed-tabulated",
                                  "solenoidal", "full-grid"])
def test_evolve_series_matches_per_sample_reference(case, monkeypatch):
    sc = {
        "arnold": lambda: scenario(n_pq=32, n_z=128, t_end=2.0),
        "resistive": lambda: scenario(eta=1e-3, n_pq=32, n_z=128,
                                      t_end=0.25),
        "closed-tabulated": lambda: scenario(
            omega=OMEGAS["tabulated"](), periodic=False, n_z=64,
            t_end=0.25, init=pqz_field()),
        "solenoidal": lambda: scenario(
            n_pq=32, n_z=128, t_end=0.5,
            init=named_initial_field("solenoidal", CAT_STRETCH_RATE)),
        "full-grid": lambda: scenario(n_pq=32, n_z=128, t_end=0.05,
                                      init=pqz_field(), sample_stride=4),
    }[case]()
    res, states, _ = evolve_keeping_states(sc, monkeypatch)
    assert res.stop_reason == "completed" and res.steps == sc.n_steps
    assert_series_is_per_sample(sc, res, states)
    if case == "arnold":
        # and they are the states at their sample times: ||Bq|| = e^{lam v t}
        np.testing.assert_allclose(
            res.series.l2[:, 1],
            res.series.l2[0, 1] * np.exp(CAT_STRETCH_RATE * res.series.t),
            rtol=1e-8)
    if case not in ("arnold", "resistive"):
        assert np.all(res.series.div_rel[1:] > 0)


def test_diagnostics_passes_fill_the_byte_cap(monkeypatch):
    cap = induction_dynamo._HISTORY_BYTES
    # Arnold: 215 states of 3 x 1 x 1 x 128 doubles, 0.66 MB, in one pass
    sc = scenario(n_pq=32, n_z=128, t_end=2.0)
    res, states, passes = evolve_keeping_states(sc, monkeypatch)
    assert passes == [215] and len(states) * states[0].nbytes < cap
    # solenoidal: 3 x 32 x 1 x 128 doubles, ten states per pass
    sc = scenario(n_pq=32, n_z=128, t_end=2.0,
                  init=named_initial_field("solenoidal", CAT_STRETCH_RATE))
    res, states, passes = evolve_keeping_states(sc, monkeypatch)
    per_pass = cap // states[0].nbytes
    assert per_pass == 10 and len(passes) == 22
    assert passes[:-1] == [per_pass] * 21 and sum(passes) == 215
    assert_series_is_per_sample(sc, res, states)


def test_full_grid_history_flushes_each_state_within_the_memory_of_one(
        monkeypatch):
    # a 3 x 32 x 32 x 128 state is 3 MB, over the history's byte cap
    sc = scenario(n_pq=32, n_z=128, t_end=0.05, init=pqz_field(),
                  sample_stride=1)
    evolve(sc)  # warm the caches tracemalloc would count
    tracemalloc.start()
    try:
        evolve(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    res, states, passes = evolve_keeping_states(sc, monkeypatch)
    state_bytes = states[0].nbytes
    assert state_bytes > induction_dynamo._HISTORY_BYTES
    assert passes == [1] * (sc.n_steps + 1) and sc.n_steps >= 10
    assert_series_is_per_sample(sc, res, states)
    # a pass per sample peaked at 3.44 states (10.3 MB) on this run: two
    # states, the returned field and the div temporaries; the batched
    # passes may hold at most one state more
    assert peak <= 4.44 * state_bytes


def test_overflow_guard_stops_where_a_pass_per_sample_stops(monkeypatch):
    sc = scenario(t_end=20.0, n_z=64, overflow_factor=1e3, sample_stride=50)
    res, states, _ = evolve_keeping_states(sc, monkeypatch)
    _, totals, _ = per_sample_series(sc, states)
    # a pass per sample stopped after the first sample whose total L2
    # exceeded overflow_factor times the initial one
    tripped = np.flatnonzero(totals > sc.overflow_factor * max(totals[0],
                                                               1e-300))
    assert len(tripped) > 0 and tripped[0] == len(states) - 1
    stop = int(tripped[0]) * 50
    assert (res.steps, res.stop_reason) == (stop, "overflow guard")
    assert res.series.t[-1] == stop * res.dt
    assert_series_is_per_sample(sc, res, states)


# -- periodic z in Fourier space against the dense propagators -------------------


def dense_reference(sc):
    """The sample steps and sampled states of `sc` by dense propagation.

    Each component's P(h L) is built by Horner's rule from `_RHS`'s
    z-operators and raised to each interval length by `matrix_power`; the
    collapsed initial state is advanced one interval per matmul, up to the
    end of the run or the first non-finite state.
    """
    zmat_t = induction_dynamo._RHS(sc).zmat_t
    n, stride = sc.n_steps, sc.stride
    dt = sc.t_end / n
    n_z = zmat_t.shape[-1]
    diag = np.arange(n_z)
    propagators = {k: np.empty_like(zmat_t) for k in {stride, n % stride} - {0}}
    for comp, zmat in enumerate(zmat_t):
        a = dt * zmat
        poly = a / 4.0
        for c in (3.0, 2.0, 1.0):
            poly[diag, diag] += 1.0
            poly = (a / c) @ poly
        poly[diag, diag] += 1.0
        for k, power in propagators.items():
            power[comp] = np.linalg.matrix_power(poly, k)
    steps = [*range(0, n, stride), n]
    states = [_initial_state(sc.initial_field, sc.grid)]
    for prev, step in zip(steps, steps[1:]):
        if not np.isfinite(states[-1]).all():
            break
        nxt = np.empty_like(states[-1])
        np.matmul(states[-1].reshape(3, -1, n_z), propagators[step - prev],
                  out=nxt.reshape(3, -1, n_z))
        states.append(nxt)
    return steps[:len(states)], states


def cap_history(monkeypatch, sc, states):
    """Cap the ring at `states` sampled states of `sc` (None: leave it)."""
    if states is not None:
        state_bytes = _initial_state(sc.initial_field, sc.grid).nbytes
        monkeypatch.setattr(induction_dynamo, "_HISTORY_BYTES",
                            states * state_bytes)


# 80 steps: a stride of 8 divides them, 7 leaves a last interval of 3, and
# 1000 is capped at 80; a cap of 3 states spreads the run over many chunks
@pytest.mark.parametrize("chunk", [None, 3], ids=["one-pass", "chunks-of-3"])
@pytest.mark.parametrize("stride", [8, 7, 1000],
                         ids=["dividing", "partial", "beyond"])
@pytest.mark.parametrize("eta,init", [
    pytest.param(0.0, z_field, id="ideal-collapsed"),
    pytest.param(1e-2, z_field, id="resistive-collapsed"),
    pytest.param(0.0, pqz_field, id="ideal-full-grid"),
])
def test_periodic_run_matches_the_dense_propagators(eta, init, stride, chunk,
                                                    monkeypatch):
    sc = scenario(eta=eta, n_z=32, n_pq=4, t_end=1.0, init=init(),
                  sample_stride=stride)
    assert sc.n_steps == 80
    cap_history(monkeypatch, sc, chunk)
    steps, states = dense_reference(sc)
    res, kept, passes = evolve_keeping_states(sc, monkeypatch)
    assert (res.steps, res.stop_reason) == (80, "completed")
    assert res.dt == sc.t_end / 80
    assert np.array_equal(res.series.t, np.array(steps) * res.dt)
    assert res.series.t[-1] == 80 * res.dt
    if chunk:
        assert passes == [3] * (len(steps) // 3) + [len(steps) % 3] * (
            len(steps) % 3 > 0)
    assert_series_is_per_sample(sc, res, kept)
    b = np.broadcast_to(states[-1], res.field.data.shape)
    assert np.max(np.abs(b)) > 1.0
    tol = 1e-12 * np.max(np.abs(b))
    np.testing.assert_allclose(res.field.data, b, rtol=0, atol=tol)
    for got, want in zip(kept, states):
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)
    l2, totals, divs = per_sample_series(sc, states)
    np.testing.assert_allclose(res.series.l2, l2, rtol=0, atol=tol)
    np.testing.assert_allclose(res.series.total_l2, totals, rtol=0, atol=tol)
    np.testing.assert_allclose(res.series.div_rel, divs, rtol=0, atol=1e-12)


# the closed-z path is the dense propagation itself, bit for bit; a cap of
# one or two states makes each interval's matmul read the other ring slot
@pytest.mark.parametrize("chunk", [None, 1, 2],
                         ids=["one-pass", "chunks-of-1", "chunks-of-2"])
@pytest.mark.parametrize("omega", ["exponential", "tabulated"])
def test_closed_run_is_the_dense_propagation(omega, chunk, monkeypatch):
    sc = scenario(omega=OMEGAS[omega](), periodic=False, n_z=32, t_end=0.25,
                  init=pqz_field(), sample_stride=3)
    assert sc.n_steps % 3 != 0
    cap_history(monkeypatch, sc, chunk)
    steps, states = dense_reference(sc)
    res = evolve(sc)
    assert res.steps == sc.n_steps
    assert np.array_equal(res.series.t, np.array(steps) * res.dt)
    assert np.array_equal(res.field.data,
                          np.broadcast_to(states[-1], res.field.data.shape))
    l2, totals, divs = per_sample_series(sc, states)
    assert np.array_equal(res.series.l2, l2)
    assert np.array_equal(res.series.total_l2, totals)
    assert np.array_equal(res.series.div_rel, divs)


@pytest.mark.parametrize("chunk", [None, 10], ids=["one-pass", "chunks-of-10"])
def test_overflow_guard_inside_a_chunk_stops_at_the_dense_step(chunk,
                                                             monkeypatch):
    sc = scenario(t_end=20.0, n_z=64, overflow_factor=1e3, sample_stride=50)
    cap_history(monkeypatch, sc, chunk)
    steps, states = dense_reference(sc)
    _, totals, _ = per_sample_series(sc, states)
    stop = int(np.flatnonzero(totals > 1e3 * totals[0])[0])
    # the guard trips inside a chunk, not at its last sample
    assert 0 < stop < len(steps) - 1 and (stop + 1) % (chunk or 65) != 0
    res, kept, _ = evolve_keeping_states(sc, monkeypatch)
    assert (res.steps, res.stop_reason) == (steps[stop], "overflow guard")
    # no later sample is diagnosed
    assert len(kept) == len(res.series.t) == stop + 1
    assert res.series.t[-1] == steps[stop] * res.dt


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("stride", [250, 10 ** 6])
def test_overflow_to_inf_raises_at_the_dense_step(stride):
    # growth e^{(lam v - eta lam^2) t} = e^{210 t} overflows double near
    # t = 3.4; the guard is off, since a finite guard trips on a sample past
    # 1e154, whose squares overflow the norm
    sc = scenario(lam=300.0, eta=1e-3, t_end=4.0, n_z=32,
                  overflow_factor=np.inf, cfl=0.2, sample_stride=stride,
                  init=InitialField.q_slot(lambda z: np.sin(8 * np.pi * z)))
    steps, states = dense_reference(sc)
    assert not np.isfinite(states[-1]).all()
    step = steps[len(states) - 1]
    assert step == (1000 if stride == 250 else sc.n_steps)
    with pytest.raises(NumericalError,
                       match=f"^non-finite field at step {step} "):
        evolve(sc)


NON_FINITE_ABOVE_HALF = {
    "z-profile": InitialField.q_slot(lambda z: np.where(z > 0.5, np.nan, 1.0)),
    "full-array": InitialField(bq=lambda p, q, z: np.where(
        z + 0 * p + 0 * q > 0.5, np.nan, 1.0)),
    "inf": InitialField.z_slot(lambda z: np.where(z > 0.5, np.inf, 1.0)),
}


@pytest.mark.parametrize("init", NON_FINITE_ABOVE_HALF.values(),
                         ids=NON_FINITE_ABOVE_HALF.keys())
@pytest.mark.parametrize("eta", [0.0, 1e-3])
def test_non_finite_initial_field_is_reported_as_non_finite(init, eta):
    # with eta > 0 the scenario itself rejects it, before asking whether
    # the field is constant along p and q; with eta = 0 evolve does
    with pytest.raises(ValueError,
                       match="^initial field contains non-finite values$"):
        evolve(scenario(eta=eta, init=init, t_end=0.1))


@pytest.mark.parametrize("init,shape", [
    (q_sine(), (1, 1)), (named_initial_field("pq_mixed"), (1, 1)),
    (named_initial_field("q_random", seed=4), (1, 1)),
    (named_initial_field("solenoidal", CAT_STRETCH_RATE), (8, 1)),
    (z_field(), (1, 1)), (pqz_field(), (8, 6)),
    (pq_field(True, False), (1, 6)), (pq_field(False, True), (8, 1)),
    (pq_field(True, True, bump=True), (8, 6)),
], ids=["q_sine", "pq_mixed", "q_random", "solenoidal", "z_field", "pqz",
        "const-p", "const-q", "ulp"])
@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "closed"])
def test_initial_state_is_the_collapsed_field_on_the_grid(init, shape,
                                                          periodic):
    grid = Grid3D(8, 6, 32, z_periodic=periodic)
    state = _initial_state(init, grid)
    full = init.on_grid(grid).data
    assert state.shape == (3, *shape, 32) == _collapse_pq(full).shape
    assert np.array_equal(state, _collapse_pq(full))
    assert state.flags.c_contiguous and state.flags.writeable


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
    # the foot lies upstream: below z for v > 0, above it for v < 0
    zs = np.linspace(-2.0, 2.0, 801)
    tab = ConformalFactor.tabulated(zs, np.exp(zs))
    grid = FrameMetric(1.0, tab).grid(2, 2, 9, z_periodic=False)
    for v in (1.0, -1.0):
        z0 = tab.foot_point(grid.z, v, 0.2)
        want = ConformalFactor.exponential(1.0).foot_point(grid.z, v, 0.2)
        np.testing.assert_allclose(z0, want, rtol=0, atol=1e-9)


def test_tabulated_trace_back_matches_quadrature_root_finding():
    from scipy.integrate import quad
    from scipy.optimize import brentq

    zs = np.linspace(-1.0, 2.0, 301)
    tab = ConformalFactor.tabulated(zs, 1.0 + 0.3 * np.sin(2 * np.pi * zs))
    grid = FrameMetric(1.0, tab).grid(2, 2, 128, z_periodic=False)
    t = 0.25

    def foot(zi):
        # the spline's knots split the integral into exact cubic pieces
        travel = lambda z0: quad(tab.spline, z0, zi,
                                 points=zs[(zs > z0) & (zs < zi)],
                                 epsabs=1e-14, epsrel=1e-14, limit=400)[0] - t
        return brentq(travel, zi - 0.5, zi, xtol=1e-15, rtol=1e-15)

    z = grid.z[::8]
    want = np.array([foot(zi) for zi in z])
    np.testing.assert_allclose(tab.foot_point(z, 1.0, t), want, rtol=0,
                               atol=1e-12)


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


@pytest.mark.parametrize("window", [(0.4, 5.0), (0.9, 0.5), (0.5, 0.5)])
def test_growth_fit_rejects_window_outside_series(window):
    t = np.linspace(0, 1, 100)
    with pytest.raises(ValueError, match=re.escape(str(window))):
        growth_fit(t, np.exp(t), window=window)


def test_growth_fit_report_text():
    t = np.linspace(0, 4, 100)
    rep = growth_fit(t, np.exp(0.5 * t), theory_rate=0.5).report()
    assert "fitted rate" in rep and "0.5" in rep


# -- evaluation contract ---------------------------------------------------------


def counted(g, sizes):
    """g, recording the number of z points of every call in `sizes`."""
    def wrapped(z):
        sizes.append(np.size(z))
        return g(z)
    return wrapped


@pytest.mark.parametrize("slot", ["q_slot", "z_slot", "pq_profiles"])
def test_z_profiles_are_evaluated_on_n_z_points(slot):
    # the open mesh: a z-profile costs n_z evaluations, not n_p n_q n_z
    sizes = []
    g = counted(lambda z: 2.0 + np.sin(2 * np.pi * z), sizes)
    init = (InitialField.pq_profiles(g, g) if slot == "pq_profiles"
            else getattr(InitialField, slot)(g))
    sc = scenario(n_pq=32, n_z=128, init=init, t_end=0.1)
    n_calls = 2 if slot == "pq_profiles" else 1
    for run in (lambda: init.on_grid(sc.grid),
                lambda: characteristics_oracle(sc, 0.1)):
        sizes.clear()
        run()
        assert sizes == [128] * n_calls


@pytest.mark.parametrize("name", ["q_sine", "q_random", "pq_mixed",
                                  "solenoidal"])
@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "closed"])
def test_on_grid_matches_the_full_mesh_evaluation(name, periodic):
    init = named_initial_field(name, CAT_STRETCH_RATE, seed=5)
    grid = Grid3D(32, 32, 128, z_periodic=periodic)
    P, Q, Z = grid.mesh()
    ref = np.stack([np.broadcast_to(c(P, Q, Z), grid.shape)
                    for c in (init.bp, init.bq, init.bz)])
    data = init.on_grid(grid).data
    assert np.array_equal(data, ref)
    assert data.shape == (3, *grid.shape)
    assert data.flags.c_contiguous and data.flags.writeable


def test_slot_constructors_return_read_only_broadcast_views():
    grid = Grid3D(4, 4, 16)
    P, Q, Z = np.ix_(grid.p, grid.q, grid.z)
    out = InitialField.q_slot(lambda z: 1.0 + z).bq(P, Q, Z)
    assert out.shape == grid.shape and not out.flags.writeable
    assert np.array_equal(out, np.broadcast_to(1.0 + grid.z, grid.shape))
