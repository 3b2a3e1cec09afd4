import dataclasses
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
from framedynamo.induction_dynamo import (ADVECTIVE_LIMIT, CAT_EIGENVALUES,
                                          CAT_EIGENVECTORS, CAT_STRETCH_RATE,
                                          RK4_REAL_AXIS_LIMIT, DynamoScenario,
                                          EvolutionSeries, GrowthFit,
                                          InitialField, NumericalError,
                                          _collapse_pq, _initial_state,
                                          _rates, _step_rates,
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


def sample_every(monkeypatch, sc, stride):
    """Patch the module's sample count so that `sc` samples every `stride`
    steps; stride = n_steps is one interval for the whole run."""
    n = sc.n_steps
    intervals = [k for k in range(1, n + 1) if n // k == stride]
    assert intervals, f"no sample count gives stride {stride} over {n} steps"
    monkeypatch.setattr(induction_dynamo, "_SAMPLE_INTERVALS", intervals[0])
    assert sc.stride == stride


def guard_at(monkeypatch, factor):
    """Patch the overflow guard's factor (inf: no guard)."""
    monkeypatch.setattr(induction_dynamo, "OVERFLOW_FACTOR", factor)


# -- cat map -------------------------------------------------------------------


def test_cat_map_eigenstructure():
    # the closed forms against a numerical eigensolver, eigenvalues in
    # descending order and eigenvectors up to their sign
    m = np.array([[2.0, 1.0], [1.0, 1.0]])
    vals, vecs = np.linalg.eigh(m)
    chi1, chi2 = CAT_EIGENVALUES
    np.testing.assert_allclose(CAT_EIGENVALUES, vals[::-1], rtol=0,
                               atol=1e-14)
    assert chi1 == pytest.approx((3 + np.sqrt(5)) / 2, abs=1e-12)
    assert chi1 * chi2 == pytest.approx(1.0, abs=1e-12)
    assert CAT_STRETCH_RATE == np.log(chi1)
    assert CAT_STRETCH_RATE == pytest.approx(0.9624236501192069, abs=1e-12)
    for u, chi, ref in zip(CAT_EIGENVECTORS, CAT_EIGENVALUES, vecs.T[::-1]):
        u = np.array(u)
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(abs(u @ ref), 1.0, rtol=0, atol=1e-14)
        np.testing.assert_allclose(m @ u, chi * u, rtol=0, atol=1e-14)
    # today's signs: stretching along -(phi, 1), contracting along (1, -phi)
    assert np.all(np.sign(CAT_EIGENVECTORS) == [[-1, -1], [1, -1]])


# -- scenario validation ---------------------------------------------------------


def test_scenario_rejects_cfl_violation():
    metric = FrameMetric(1.0)
    grid = metric.grid(4, 4, 64, z_periodic=True)
    with pytest.raises(ValueError, match="advective bound"):
        DynamoScenario(metric=metric, grid=grid, flow_speed=1.0,
                       initial_field=q_sine(), t_end=1.0,
                       dt=2.0 * grid.dz)


def test_advective_bound_is_relative_not_an_absolute_slack():
    # v = 1e14 takes the bound 0.5 dz / v to 3.9e-17, so dt = 1e-15, an
    # advective number of 12.8, was within the old absolute slack of 1e-15
    metric = FrameMetric(0.0)
    grid = metric.grid(2, 2, 128, z_periodic=True)
    with pytest.raises(ValueError, match="advective bound"):
        DynamoScenario(metric=metric, grid=grid, flow_speed=1e14,
                       initial_field=q_sine(), t_end=4e-13, dt=1e-15)
    # the bound itself is accepted, also at v = 1e14
    for v in (1.0, 1e14):
        dt = stable_dt(metric, grid, v, cfl=ADVECTIVE_LIMIT)
        sc = DynamoScenario(metric=metric, grid=grid, flow_speed=v,
                            initial_field=q_sine(), t_end=100 * dt, dt=dt)
        assert sc.dt * v / grid.dz == pytest.approx(ADVECTIVE_LIMIT,
                                                    rel=1e-15)


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


def test_scenario_step_count_bound():
    # t_end/dt past the bound ended in a KeyError from evolve (near 1.2e18
    # steps) or, once it overflowed, in an OverflowError from n_steps
    MAX_STEPS = induction_dynamo.MAX_STEPS
    metric = FrameMetric(1.0)
    grid = metric.grid(4, 4, 5, z_periodic=True)

    def build(t_end, dt):
        return DynamoScenario(metric=metric, grid=grid, flow_speed=1.0,
                              initial_field=q_sine(), t_end=t_end, dt=dt)

    sc = build(1e-3, 1e-3 / MAX_STEPS)
    assert MAX_STEPS == 2 ** 53 and sc.n_steps == MAX_STEPS
    # matrix_power makes the cost grow with log(n_steps) only
    result = evolve(sc)
    assert result.stop_reason == "completed" and result.steps == MAX_STEPS
    assert result.series.t[-1] == 1e-3
    for t_end, dt in ((1e-3, np.nextafter(1e-3 / MAX_STEPS, 0.0)),
                      (2.0, 1e-300), (1e300, 1e-300)):
        text = f"dt={dt:g} is too small for t_end={t_end:g}: it takes more "
        with pytest.raises(ValueError, match="^" + re.escape(text)):
            build(t_end, dt)


def test_periodic_grid_of_five_z_points_evolves():
    # 5 is the documented periodic minimum, but the order-2 operator asked
    # for the 6 points of the closed end closure
    metric = FrameMetric(1.0)
    grid = Grid3D(4, 4, 5, z_periodic=True)
    op = FrameOperators(metric, grid)
    assert op.d2.shape == (5, 5)
    sc = DynamoScenario(metric=metric, grid=grid, flow_speed=1.0,
                        initial_field=q_sine(), t_end=1.0,
                        dt=stable_dt(metric, grid, 1.0))
    result = evolve(sc)
    assert result.stop_reason == "completed"
    assert np.all(np.isfinite(result.series.total_l2))


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


@settings(derandomize=True, deadline=None, max_examples=200)
@given(lam=st.floats(-5.0, 5.0), v=st.floats(-10.0, 10.0),
       eta=st.floats(0.0, 1.0), c=st.floats(0.1, 10.0),
       n_z=st.sampled_from([5, 32, 128]))
def test_z_uniform_decay_is_the_diffusive_and_stretching_decay(lam, v, eta,
                                                               c, n_z):
    # for Omega = c, Bz's rate is 0 and the fastest decay is Bp's (Bq's for
    # lam v < 0) on top of the dzz stencil's: the formula the bound was
    # derived by hand from before it read the operator's rates
    metric = FrameMetric(lam, ConformalFactor.from_constant(c))
    grid = metric.grid(2, 2, n_z, z_periodic=True)
    vmax, decay = _step_rates(*_rates(metric, grid, v, eta), eta, grid.dz)
    assert vmax == abs(v / c)
    oracle = eta * (16.0 / (3.0 * grid.dz ** 2) + lam ** 2) + abs(lam) * vmax
    assert decay == pytest.approx(oracle, rel=1e-15, abs=0.0)


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


@pytest.mark.parametrize("eta", [np.nan, -1.0, np.inf])
def test_stable_dt_rejects_unusable_resistivity(eta):
    # NaN and -1 used to give the step of eta = 0, and inf a step of 0
    metric = FrameMetric(1.0)
    with pytest.raises(ValueError, match="resistivity must be finite and "
                       "non-negative"):
        stable_dt(metric, Grid3D(4, 4, 32, z_periodic=True), 1.0,
                  resistivity=eta)


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


@pytest.mark.parametrize(
    "lam, omega, n_z, periodic, init, t_end, unstable_dt, decay, comp, "
    "shrink", [
        # at dt = 0.4 dz, lam v dt = 3.75 lies past RK4's real-axis limit
        # and Bp's norm goes from 2.1 to 412 where the exact Bp decays by
        # e^-15
        (300.0, ConformalFactor.identity(), 32, True, "pq_mixed", 0.05,
         0.4 / 32, 300.0, 0, 1e-2),
        # Bz's rate v (ln Omega)'/Omega = -50 e^{50 z} was left out of the
        # bound: at dt = 1.54e-23 it put h v (ln Omega)'/Omega at -4.0 at
        # z = 1, and Bz's norm grew from 5.7e-8 to 4.6e5 in 26 steps; the
        # decay is confined to z near 1, so the norm only has to fall
        (1.0, ConformalFactor.exponential(-50.0), 6, False, "solenoidal",
         3e-21, 1.54e-23, 50.0 * np.exp(50.0), 2, 1.0),
    ], ids=["bp-stretching", "bz-conformal"])
def test_ideal_run_honours_the_real_axis_bound(lam, omega, n_z, periodic,
                                               init, t_end, unstable_dt,
                                               decay, comp, shrink):
    # the fastest decay sets stable_dt, and its step keeps the decaying
    # component's norm decreasing
    metric = FrameMetric(lam, omega)
    grid = metric.grid(2, 2, n_z, z_periodic=periodic)
    make = lambda dt: DynamoScenario(
        metric=metric, grid=grid, flow_speed=1.0,
        initial_field=named_initial_field(init, lam), t_end=t_end, dt=dt)
    with pytest.raises(ValueError, match="real-axis bound.*2.785"):
        make(unstable_dt)
    dt = stable_dt(metric, grid, 1.0)
    assert dt == pytest.approx(0.8 * RK4_REAL_AXIS_LIMIT / decay, rel=1e-15)
    res = evolve(make(dt))
    norm = res.series.l2[:, comp]
    assert res.stop_reason == "completed"
    assert np.all(np.diff(norm) < 0) and norm[-1] < shrink * norm[0]


def test_scenario_rejects_overflowing_scale_factors():
    # lam = 800 was accepted: e^{800 z} overflowed in evolve, which warned
    # and sampled NaN norms (inf times a zero measure); stable_dt rejects
    # it too, before lam^2 can overflow
    metric = FrameMetric(800.0)
    grid = Grid3D(2, 2, 32, z_periodic=True)
    with pytest.raises(ValueError, match="^lam=800: scale factors must be "
                       "finite and positive"):
        stable_dt(metric, grid, 1.0)
    with pytest.raises(ValueError, match="^lam=800: scale factors must be "
                       "finite and positive"):
        DynamoScenario(metric=metric, grid=grid, flow_speed=1.0,
                       initial_field=q_sine(), t_end=0.1, dt=1e-4)


def test_scenario_holds_only_what_a_caller_sets():
    # the sample stride and the overflow guard are module constants
    assert [f.name for f in dataclasses.fields(DynamoScenario)] == [
        "metric", "grid", "flow_speed", "initial_field", "t_end", "dt",
        "resistivity"]
    assert induction_dynamo.OVERFLOW_FACTOR == 1e12
    for t_end, n_steps, stride in ((0.1, 8, 1), (2.0, 160, 1),
                                   (5.0, 400, 2), (20.0, 1600, 8)):
        sc = scenario(n_z=32, t_end=t_end)
        assert (sc.n_steps, sc.stride) == (n_steps, stride)
        assert sc.n_samples == len([*range(0, n_steps, stride), n_steps])


def test_scenario_rejects_nonpositive_factor_on_the_grid():
    # positive on its knots [0, 1], negative spline extrapolation on the
    # rest of [0, 2], which is off the knots
    zs = np.linspace(0, 1, 21)
    metric = FrameMetric(1.0, ConformalFactor.tabulated(zs, 1.0 - 0.95 * zs))
    grid = Grid3D(4, 4, 33, z_min=0.0, z_max=2.0)
    with pytest.raises(ValueError, match=r"data only on its knots \[0, 1\]"):
        stable_dt(metric, grid, 1.0)
    with pytest.raises(ValueError, match=r"data only on its knots \[0, 1\]"):
        DynamoScenario(metric=metric, grid=grid, flow_speed=1.0,
                       initial_field=q_sine(), t_end=0.1, dt=1e-3)


def test_scenario_rejects_a_grid_past_the_knots():
    # e^z sampled on [0, 1] stays positive when extrapolated to 1.5, but
    # the spline is data only on its knots
    zs = np.linspace(0, 1, 11)
    metric = FrameMetric(1.0, ConformalFactor.tabulated(zs, np.exp(zs)))
    grid = Grid3D(4, 4, 33, z_min=0.0, z_max=1.5)
    match = r"data only on its knots \[0, 1\], got z in \[0, 1\.5\]"
    with pytest.raises(ValueError, match=match):
        stable_dt(metric, grid, 1.0)
    with pytest.raises(ValueError, match=match):
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
    np.testing.assert_allclose(np.broadcast_to(res.field.bq, grid.shape),
                               np.broadcast_to(bq, grid.shape), rtol=1e-5)


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


def curl_gaps(omega, periodic, n_z):
    """Max relative gap over z between the Bp, Bq rows of the scenario's
    `_RHS` and the frame calculus's curl(u x B), u = (0, 0, v / sqrt(Omega)),
    on the p,q-constant pq_mixed field; closed z leaves out 4 points at each
    end, where the one-sided stencils differ."""
    metric = FrameMetric(0.7, omega)
    grid = metric.grid(4, 4, n_z, z_periodic=periodic)
    init = named_initial_field("pq_mixed")
    sc = DynamoScenario(metric=metric, grid=grid, flow_speed=1.3,
                        initial_field=init, t_end=0.1,
                        dt=stable_dt(metric, grid, 1.3))
    B = init.on_grid(grid)
    u = 1.3 / np.sqrt(omega.value(grid.z))
    u_cross_b = FrameField.from_components(grid, -u * B.bq, u * B.bp, 0.0)
    ref = FrameOperators(metric, grid).curl(u_cross_b).data
    got = sc._rhs(B.data)
    keep = slice(None) if periodic else slice(4, -4)
    return [np.max(np.abs(got[c, ..., keep] - ref[c, ..., keep]))
            / np.max(np.abs(ref[c, ..., keep])) for c in (0, 1)]


# Bz is left out: for a field constant along p and q the z component of
# any curl vanishes, so curl(u x B) leaves Bz unchanged, while the Bz row
# advects it and adds v (ln Omega)'/Omega Bz; the two differ by O(1) even
# for a z-uniform Omega on a non-solenoidal Bz, and which Bz equation is
# meant is still open
def test_rhs_bp_bq_rows_are_the_frame_curl_of_u_cross_b():
    # Omega = e^{0.5 z}: the 4th-order stencils' truncation, order 4
    coarse, fine = (curl_gaps(ConformalFactor.exponential(0.5), False, n)
                    for n in (129, 257))
    assert max(coarse) <= 6e-8 and max(fine) <= 4e-9
    assert min(np.log2(np.divide(coarse, fine))) >= 3.5
    # Omega = 2 on periodic z: both are the same stencil, to round-off
    for n in (129, 257):
        assert max(curl_gaps(ConformalFactor.from_constant(2.0), True,
                             n)) <= 1e-13
    # a 61-knot spline: its (ln Omega)' is only as smooth as the spline, so
    # a bound, not an order
    knots = np.linspace(-1.0, 2.0, 61)
    tab = ConformalFactor.tabulated(knots,
                                    1.0 + 0.3 * np.sin(2 * np.pi * knots))
    assert max(curl_gaps(tab, False, 129)) <= 3e-5
    assert max(curl_gaps(tab, False, 257)) <= 6e-6


def dense_stencil_product(sc, data):
    """Each component's dense L, eta d2 - w d1 + rate (-2 eta lam d1 more
    for Bz), from the frame operators' z matrices, applied by one matmul
    with its contiguous transpose."""
    m, g, eta = sc.metric, sc.grid, sc.resistivity
    op = FrameOperators(m, g)
    w = sc.flow_speed / m.omega.value(g.z)
    rate = [-m.lam * w - eta * m.lam ** 2, m.lam * w - eta * m.lam ** 2,
            sc.flow_speed * m.omega.log_derivative(g.z) / m.omega.value(g.z)]
    base = eta * op.d2 - w[:, None] * op.d1
    mats = np.stack([base, base, base - 2.0 * eta * m.lam * op.d1])
    mats += np.stack([np.diag(r) for r in rate])
    return np.matmul(data.reshape(3, -1, g.n_z),
                     np.ascontiguousarray(mats.transpose(0, 2, 1))
                     ).reshape(data.shape)


@pytest.mark.parametrize("periodic,omega", [
    (True, ConformalFactor.from_constant(2.0)),
    (False, ConformalFactor.exponential(0.5))], ids=["periodic", "closed"])
def test_rhs_holds_a_circulant_column_and_applies_the_dense_stencil(periodic,
                                                                   omega):
    # periodic z keeps each circulant block's first column only, yet applies
    # the same dense stencil product bit for bit: an FFT apply differs in
    # the last bits
    n_z, eta = 257, (1e-3 if periodic else 0.0)
    metric = FrameMetric(0.7, omega)
    grid = metric.grid(4, 4, n_z, z_periodic=periodic)
    init = named_initial_field("pq_mixed")
    sc = DynamoScenario(metric=metric, grid=grid, flow_speed=1.3,
                        initial_field=init, t_end=0.1, resistivity=eta,
                        dt=stable_dt(metric, grid, 1.3, resistivity=eta))
    B = init.on_grid(grid)
    assert np.array_equal(induction_rhs(sc, B).data,
                          dense_stencil_product(sc, B.data))
    held = {k: v.shape for k, v in vars(sc._rhs).items()
            if isinstance(v, np.ndarray)}
    assert held == {"blocks": (3, n_z) if periodic else (3, n_z, n_z)}


def test_rhs_rejects_resistive_field_with_pq_structure():
    sc = scenario(eta=1e-3, init=z_field())
    with pytest.raises(ValueError, match="constant along p and q.*"
                       "not z-periodic.*no boundary condition"):
        induction_rhs(sc, pqz_field().on_grid(sc.grid))


def test_rhs_rejects_a_field_from_another_grid_of_the_same_shape():
    # a q-field on [0, 3] has the shape of one on the scenario's [0, 1]
    sc = scenario(n_z=64)
    other = Grid3D(4, 4, 64, z_max=3.0, z_periodic=True)
    assert other.shape == sc.grid.shape and other != sc.grid
    with pytest.raises(ValueError, match=re.escape(
            f"induction_rhs: the field is on {other}, not on {sc.grid}")):
        induction_rhs(sc, q_sine().on_grid(other))


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
    np.testing.assert_allclose(np.broadcast_to(first.field.data, b.shape), b,
                               rtol=0, atol=1e-13 * np.max(np.abs(b)))
    np.testing.assert_array_equal(first.field.data, second.field.data)
    assert not np.shares_memory(first.field.data, second.field.data)
    np.testing.assert_array_equal(init.data, before)
    np.testing.assert_array_equal(sc.initial_field.on_grid(sc.grid).data,
                                  before)


# stride 3 over 10 steps uses both the P^3 interval propagator and the
# P^(n_steps mod 3) one for the last interval; a stride of n_steps is one
# interval for the run
@pytest.mark.parametrize("omega,periodic,stride", [
    pytest.param("identity", True, 3, id="periodic-identity"),
    pytest.param("exponential", False, 3, id="closed-exponential"),
    pytest.param("identity", True, 10, id="one-interval"),
])
def test_ideal_sample_intervals_match_step_by_step_rk4(omega, periodic, stride,
                                                       monkeypatch):
    sc = scenario(omega=OMEGAS[omega](), periodic=periodic, n_z=32, n_pq=4,
                  t_end=0.125, init=pqz_field())
    n = sc.n_steps
    assert n == 10
    sample_every(monkeypatch, sc, stride)
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
    np.testing.assert_allclose(np.broadcast_to(evolve(sc).field.data, b.shape),
                               b, rtol=0, atol=1e-13 * np.max(np.abs(b)))


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
    # the phase keeps p = 0 and p = 1/2 apart: 1 + 0.3 sin(pi) rounds to 1
    along_p = ((lambda p: 0.0 * p) if const_p
               else (lambda p: 0.3 * np.sin(tau * p + 1.0)))
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
    constant along p and q, on periodic z. Each comes with the sample count
    its run is to take, so its stride is n_steps // that count."""
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
                        resistivity=eta)
    expect = (3, 1 if const_p and kind != "ulp" else grid.n_p,
              1 if const_q and kind != "ulp" else grid.n_q, grid.n_z)
    return sc, expect, draw(st.integers(1, 5))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(pq_scenarios())
def test_collapsed_state_matches_full_grid_rk4(case):
    sc, collapsed_shape, intervals = case
    init = sc.initial_field.on_grid(sc.grid).data
    assert _collapse_pq(init).shape == collapsed_shape
    fields = textbook_rk4_fields(sc)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(induction_dynamo, "_SAMPLE_INTERVALS", intervals)
        assert sc.stride == max(1, sc.n_steps // intervals)
        res = evolve(sc)
    b = fields[-1]
    # the run returns its state at the collapsed shape
    assert res.field.data.shape == collapsed_shape
    assert res.field.data.flags.c_contiguous
    got = np.broadcast_to(res.field.data, b.shape)
    tol = 1e-13 * np.max(np.abs(b))
    # closed z: the one-sided rows at z_min round differently, as in
    # test_ideal_sample_intervals_match_step_by_step_rk4
    inflow = 0 if sc.grid.z_periodic else 2
    np.testing.assert_allclose(got[..., inflow:], b[..., inflow:],
                               rtol=0, atol=tol)
    np.testing.assert_allclose(got, b, rtol=0, atol=3 * tol)
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
    assert first.field.data.shape == (3, 1, 1, 128)
    assert first.field.data.flags.c_contiguous
    assert not np.shares_memory(first.field.data, second.field.data)


def test_evolve_overflow_guard_truncates(monkeypatch):
    sc = scenario(t_end=20.0, n_z=64)
    guard_at(monkeypatch, 1e3)
    sample_every(monkeypatch, sc, 50)
    res = evolve(sc)
    assert res.series.truncated
    assert res.stop_reason == "overflow guard"
    assert res.steps < sc.n_steps and res.steps % 50 == 0
    assert res.series.t[-1] == res.steps * res.dt < 20.0
    # partial series is returned, not silently discarded
    assert len(res.series.t) >= 2


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_evolve_nan_raises_numerical_error(monkeypatch):
    # a resistive run growing as e^{(lam v - eta lam^2) t} = e^{840} overflows
    # double; sparse sampling keeps the overflow guard from halting first.
    # cfl 0.2 keeps dt within the real-axis bound, which Bp's stretching
    # decay lam v = 300 dominates here
    sc = scenario(lam=300.0, eta=1e-3, t_end=4.0, n_z=32, cfl=0.2,
                  init=InitialField.q_slot(lambda z: np.sin(8 * np.pi * z)))
    guard_at(monkeypatch, 1e290)
    sample_every(monkeypatch, sc, sc.n_steps)
    with pytest.raises(NumericalError):
        evolve(sc)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_ideal_overflow_inside_one_interval_raises_numerical_error(
        monkeypatch):
    # e^{lam v t_end} = e^{900} overflows double before the only sample at
    # t_end, so the guard never sees it; the interval's end field is inf/nan
    sc = scenario(lam=300.0, t_end=3.0, n_z=32)
    guard_at(monkeypatch, 1e300)
    sample_every(monkeypatch, sc, sc.n_steps)
    with pytest.raises(NumericalError, match=f"step {sc.n_steps} "):
        evolve(sc)


# -- batched diagnostics ---------------------------------------------------------


def live_stack(sc):
    """The components `evolve` holds for `sc`, as a slice, and the bytes of
    one state that holds them."""
    initial = _initial_state(sc.initial_field, sc.grid)
    live = induction_dynamo._live_components(initial)
    return live, initial[live].nbytes


def per_sample_series(sc, states):
    """The series of a pass per sample on each state (3, ...) alone: the
    `component_norms` of its live components, stacked as `evolve` holds
    them, with 0 for the others; their total; and `l2_norm(div)` / total
    of the three components."""
    op = FrameOperators(sc.metric, sc.grid)
    live, _ = live_stack(sc)
    l2, totals, divs = [], [], []
    for data in states:
        comp = np.zeros(3)
        comp[live] = op.component_norms(np.ascontiguousarray(data[live]))
        total = float(np.sqrt(np.sum(comp ** 2)))
        l2.append(comp)
        totals.append(total)
        divs.append(op.l2_norm(op.div(FrameField(sc.grid, data))) / total
                    if total > 0 else 0.0)
    return np.array(l2), np.array(totals), np.array(divs)


# the unpatched batched pass, which each spy below calls
DIAGNOSTICS = induction_dynamo._diagnostics


def evolve_keeping_states(sc, monkeypatch):
    """evolve(sc), a copy of every state its diagnostics passes see, and the
    number of states in each pass (`keep_states`)."""
    states, passes = keep_states(sc, monkeypatch)
    return evolve(sc), states, passes


def keep_states(sc, monkeypatch):
    """Two lists that each later run of `sc` fills: a copy of every state
    its diagnostics passes see, and the number of states in each pass.

    A pass sees the live components alone (`live_stack`); each state is
    kept as a field (3, ...) whose other components are 0.
    """
    states, passes = [], []
    held, _ = live_stack(sc)

    def spy(op, stacked, live, total):
        assert live == held and stacked.shape[1] == len(range(3)[live])
        full = np.zeros((len(stacked), 3, *stacked.shape[2:]))
        full[:, live] = stacked
        states.extend(full)
        passes.append(len(stacked))
        return DIAGNOSTICS(op, stacked, live, total)

    monkeypatch.setattr(induction_dynamo, "_diagnostics", spy)
    return states, passes


def assert_series_is_per_sample(sc, res, states):
    stride, n = sc.stride, sc.n_steps
    steps = [*range(0, n, stride), n][:len(states)]
    assert len(res.series.t) == len(states)
    assert np.array_equal(res.series.t, np.array(steps) * res.dt)
    # every pass sees new states: no state is diagnosed twice (the states
    # of an all-zero field are all equal, so only non-zero ones can tell)
    assert not any(np.array_equal(a, b) for a, b in zip(states, states[1:])
                   if a.any())
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
                                      init=pqz_field()),
    }[case]()
    if case == "full-grid":
        sample_every(monkeypatch, sc, 4)
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
    # the cap counts the live components a state holds
    cap = induction_dynamo._HISTORY_BYTES
    # Arnold: 215 states of Bq alone, 1 x 1 x 128 doubles, 0.22 MB, in one
    # pass
    sc = scenario(n_pq=32, n_z=128, t_end=2.0)
    res, states, passes = evolve_keeping_states(sc, monkeypatch)
    assert passes == [215] and len(states) * live_stack(sc)[1] < cap
    # solenoidal: Bp and Bz, 2 x 32 x 1 x 128 doubles, 16 states per pass
    sc = scenario(n_pq=32, n_z=128, t_end=2.0,
                  init=named_initial_field("solenoidal", CAT_STRETCH_RATE))
    res, states, passes = evolve_keeping_states(sc, monkeypatch)
    per_pass = cap // live_stack(sc)[1]
    assert per_pass == 16 and len(passes) == 14
    assert passes[:-1] == [per_pass] * 13 and sum(passes) == 215
    assert_series_is_per_sample(sc, res, states)


# the Arnold run and a closed-z q-slot run, as in the oracle-suite workload
@pytest.mark.parametrize("case", ["arnold", "closed-tabulated"])
def test_one_live_component_series_is_l2_norm(case, monkeypatch):
    # a run holds Bq alone, so its norms are those of `l2_norm` on Bq
    sc = scenario(n_pq=32, n_z=128, t_end=2.0) if case == "arnold" else \
        scenario(omega=OMEGAS["tabulated"](), periodic=False, n_pq=16,
                 n_z=128, t_end=0.25, init=InitialField.q_slot(
                     lambda z: 1.5 + 0.5 * np.cos(2 * np.pi * z)))
    res, states, _ = evolve_keeping_states(sc, monkeypatch)
    op = FrameOperators(sc.metric, sc.grid)
    assert len(states) == len(res.series.t) == sc.n_samples
    assert np.array_equal(res.series.l2[:, 1],
                          [op.l2_norm(data[1]) for data in states])
    assert np.array_equal(res.series.total_l2, res.series.l2[:, 1])
    assert not res.series.l2[:, [0, 2]].any()


def test_warmed_arnold_run_peaks_below_one_mib():
    # the run holds Bq alone: a chunk of 215 states of 128 doubles, and the
    # spectra and symbol powers of its one advance
    sc = scenario(n_pq=32, n_z=128, t_end=2.0)
    evolve(sc)  # warm the caches tracemalloc would count
    tracemalloc.start()
    try:
        evolve(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_full_grid_history_flushes_each_state_within_the_memory_of_one(
        monkeypatch):
    # a 3 x 32 x 32 x 128 state is 3 MB, over the history's byte cap
    # 16 steps: every step is sampled
    sc = scenario(n_pq=32, n_z=128, t_end=0.05, init=pqz_field())
    assert sc.stride == 1
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
    # the spectral advance of one sample peaks at about 4.17 states: the
    # state before, the new one, and the rfft of the first with its
    # product by the symbol powers, about 1.08 states each
    assert peak <= 4.44 * state_bytes


def test_overflow_guard_stops_where_a_pass_per_sample_stops(monkeypatch):
    sc = scenario(t_end=20.0, n_z=64)
    guard_at(monkeypatch, 1e3)
    sample_every(monkeypatch, sc, 50)
    res, states, _ = evolve_keeping_states(sc, monkeypatch)
    _, totals, _ = per_sample_series(sc, states)
    # a pass per sample stopped after the first sample whose total L2
    # exceeded OVERFLOW_FACTOR times the initial one
    tripped = np.flatnonzero(
        totals > induction_dynamo.OVERFLOW_FACTOR * max(totals[0], 1e-300))
    assert len(tripped) > 0 and tripped[0] == len(states) - 1
    stop = int(tripped[0]) * 50
    assert (res.steps, res.stop_reason) == (stop, "overflow guard")
    assert res.series.t[-1] == stop * res.dt
    assert_series_is_per_sample(sc, res, states)


# -- periodic z in Fourier space against the dense propagators -------------------


def dense_reference(sc):
    """The sample steps and sampled states of `sc` by dense propagation.

    Each component's P(h L) is built by Horner's rule from the scenario's
    `_RHS`, its transposed dense blocks on closed z and, on periodic z,
    their expansion by `_RHS.__call__` on the identity, and raised to each
    interval length by `matrix_power`; the collapsed initial state is
    advanced one interval per matmul, up to the end of the run or the
    first non-finite state.
    """
    rhs = sc._rhs
    zmat_t = (rhs(np.stack([np.eye(sc.grid.n_z)] * 3)) if rhs.circulant
              else rhs.blocks)
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


def assert_dead_components_stay_zero(sc, res, states):
    """The components that are identically zero in the initial state are
    exactly 0 in every sampled state, in the l2 series and in the final
    field, a contiguous (3, ...) array."""
    dead = [c for c, comp in enumerate(_initial_state(sc.initial_field,
                                                      sc.grid))
            if not comp.any()]
    assert not any(np.any(data[dead]) for data in states)
    assert not np.any(res.series.l2[:, dead])
    assert res.field.data.shape[0] == 3 and res.field.data.flags.c_contiguous
    assert not np.any(res.field.data[dead])
    return dead


# one field per set of live components, with the slice `evolve` advances:
# Bq, Bz, Bp and Bq, Bp and Bz (the strided slice), and none; `z_field` and
# `pqz_field` have all three
LIVE_FIELDS = {
    "q-slot": (slice(1, 2), lambda: InitialField.q_slot(
        lambda z: 2.0 + np.sin(2 * np.pi * z))),
    "z-slot": (slice(2, 3), lambda: InitialField.z_slot(
        lambda z: 1.5 + np.cos(2 * np.pi * z))),
    "pq-profiles": (slice(0, 2), lambda: named_initial_field("pq_mixed")),
    "solenoidal-pz": (slice(0, 3, 2), lambda: InitialField.solenoidal_pz(
        CAT_STRETCH_RATE, lambda z: 3.0 * np.sin(2 * np.pi * z),
        lambda z: 6.0 * np.pi * np.cos(2 * np.pi * z))),
    "zero": (slice(0, 0), InitialField),
}


@pytest.mark.parametrize("live,init", [*LIVE_FIELDS.values(),
                                       (slice(0, 3), z_field),
                                       (slice(0, 3), pqz_field)],
                         ids=[*LIVE_FIELDS, "z-field", "full-grid"])
def test_live_components_are_the_slice_of_the_non_zero_ones(live, init):
    state = _initial_state(init(), Grid3D(4, 4, 32, z_periodic=True))
    got = induction_dynamo._live_components(state)
    # a basic slice, so the live part of a state is a view
    assert isinstance(got, slice) and range(3)[got] == range(3)[live]
    assert list(range(3)[got]) == [c for c in range(3) if state[c].any()]


def cap_history(monkeypatch, sc, states):
    """Cap a chunk at `states` sampled states of `sc` (None: leave it), in
    the bytes of the live components a state holds; a state of none holds
    0 bytes, so a chunk then takes every state."""
    if states is not None:
        monkeypatch.setattr(induction_dynamo, "_HISTORY_BYTES",
                            states * live_stack(sc)[1])


# the Arnold run and the oracle-suite's 4 x 4 x 256 mixed p, q run, 215
# samples each: caps of 214 and 107 states leave a last chunk of one state,
# 72, 54 and 43 make 3 to 5 full chunks, and 3 and 2 states make many
@pytest.mark.parametrize("per_chunk", [214, 107, 72, 54, 43, 3, 2])
@pytest.mark.parametrize("case", ["arnold", "mixed-256"])
def test_periodic_run_does_not_depend_on_its_chunk_split(case, per_chunk,
                                                         monkeypatch):
    sc = scenario(n_pq=32, n_z=128, t_end=2.0) if case == "arnold" else \
        scenario(n_pq=4, n_z=256, t_end=2.0, init=InitialField.pq_profiles(
            lambda z: 2.0 + np.sin(2 * np.pi * z),
            lambda z: 2.0 + np.cos(2 * np.pi * z)
            + 0.5 * np.sin(4 * np.pi * z)))
    whole, whole_states, passes = evolve_keeping_states(sc, monkeypatch)
    assert passes == [215]
    cap_history(monkeypatch, sc, per_chunk)
    res, states, passes = evolve_keeping_states(sc, monkeypatch)
    assert len(passes) == -(-215 // per_chunk)
    assert np.array_equal(states, whole_states)
    assert np.array_equal(res.field.data, whole.field.data)
    for name in ("t", "l2", "total_l2", "div_rel"):
        assert np.array_equal(getattr(res.series, name),
                              getattr(whole.series, name))


def spy_component_norms(monkeypatch):
    """The shapes of the stacks `FrameOperators.component_norms` norms."""
    calls, norms = [], FrameOperators.component_norms

    def spy(self, B):
        calls.append(np.shape(B))
        return norms(self, B)

    monkeypatch.setattr(FrameOperators, "component_norms", spy)
    return calls


@pytest.mark.parametrize("per_chunk", [None, 72], ids=["one-chunk",
                                                      "three-chunks"])
def test_a_div_that_forms_no_term_is_not_normed(per_chunk, monkeypatch):
    # the Arnold run's states hold Bq alone, constant along q: no div term
    sc = scenario(n_pq=32, n_z=128, t_end=2.0)
    cap_history(monkeypatch, sc, per_chunk)
    calls = spy_component_norms(monkeypatch)
    divs = []
    monkeypatch.setattr(FrameOperators, "div",
                        lambda self, *args: divs.append(args))
    res, _, passes = evolve_keeping_states(sc, monkeypatch)
    # the states' norms only, one call per chunk, and no div pass
    assert len(calls) == len(passes) == (1 if per_chunk is None else 3)
    assert not divs
    assert all(shape[1:] == (1, 1, 1, 128) for shape in calls)
    assert res.series.div_rel.shape == (215,)
    assert np.all(res.series.div_rel == 0.0)
    assert not np.signbit(res.series.div_rel).any()


def test_a_div_that_forms_terms_is_normed(monkeypatch):
    # the closed-z solenoidal run of the divergence audit: Bp and Bz, with
    # p and z structure
    sc = scenario(lam=1.0, periodic=False, n_pq=16, n_z=128, t_end=0.25,
                  init=named_initial_field("solenoidal", 1.0))
    calls = spy_component_norms(monkeypatch)
    res, states, passes = evolve_keeping_states(sc, monkeypatch)
    # per chunk, the states' norms and their div's
    assert len(passes) > 1 and len(calls) == 2 * len(passes)
    assert [shape[1] for shape in calls] == [2, 1] * len(passes)
    assert_series_is_per_sample(sc, res, states)
    assert np.all(res.series.div_rel[1:] > 0)


# 80 steps: a stride of 8 divides them, 7 leaves a last interval of 3, and
# 80 is one interval; a cap of 1 to 3 states spreads the run over many
# chunks (a state of no live component holds 0 bytes: one chunk)
@pytest.mark.parametrize("chunk", [None, 1, 2, 3],
                         ids=["one-pass", "chunks-of-1", "chunks-of-2",
                              "chunks-of-3"])
@pytest.mark.parametrize("stride", [8, 7, 80],
                         ids=["dividing", "partial", "one-interval"])
@pytest.mark.parametrize("eta,init", [
    pytest.param(0.0, z_field, id="ideal-collapsed"),
    pytest.param(1e-2, z_field, id="resistive-collapsed"),
    pytest.param(0.0, pqz_field, id="ideal-full-grid"),
] + [pytest.param(0.0, make, id=name)
     for name, (_, make) in LIVE_FIELDS.items()])
def test_periodic_run_matches_the_dense_propagators(eta, init, stride, chunk,
                                                    monkeypatch):
    sc = scenario(eta=eta, n_z=32, n_pq=4, t_end=1.0, init=init())
    assert sc.n_steps == 80
    sample_every(monkeypatch, sc, stride)
    cap_history(monkeypatch, sc, chunk)
    steps, states = dense_reference(sc)
    res, kept, passes = evolve_keeping_states(sc, monkeypatch)
    assert (res.steps, res.stop_reason) == (80, "completed")
    assert res.dt == sc.t_end / 80
    assert np.array_equal(res.series.t, np.array(steps) * res.dt)
    assert res.series.t[-1] == 80 * res.dt
    if chunk and live_stack(sc)[1]:
        assert passes == [chunk] * (len(steps) // chunk) + [
            len(steps) % chunk] * (len(steps) % chunk > 0)
    elif chunk:
        assert passes == [len(steps)]
    assert_series_is_per_sample(sc, res, kept)
    dead = assert_dead_components_stay_zero(sc, res, kept)
    b = np.broadcast_to(states[-1], res.field.data.shape)
    # a tolerance relative to the field's size, exact for the zero field
    assert np.max(np.abs(b)) > 1.0 or len(dead) == 3
    tol = 1e-12 * np.max(np.abs(b))
    np.testing.assert_allclose(res.field.data, b, rtol=0, atol=tol)
    for got, want in zip(kept, states):
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)
    l2, totals, divs = per_sample_series(sc, states)
    np.testing.assert_allclose(res.series.l2, l2, rtol=0, atol=tol)
    np.testing.assert_allclose(res.series.total_l2, totals, rtol=0, atol=tol)
    np.testing.assert_allclose(res.series.div_rel, divs, rtol=0, atol=1e-12)


# the closed-z path is the dense propagation itself, bit for bit; a cap of
# one or two states makes each chunk start from the last state of the one
# before
@pytest.mark.parametrize("chunk", [None, 1, 2],
                         ids=["one-pass", "chunks-of-1", "chunks-of-2"])
@pytest.mark.parametrize("omega,init", [
    pytest.param(omega, init, id="-".join([omega, *name]))
    for name, init in [((), pqz_field)] + [
        ((name,), make) for name, (_, make) in LIVE_FIELDS.items()]
    for omega in ("exponential", "tabulated")])
def test_closed_run_is_the_dense_propagation(omega, init, chunk, monkeypatch):
    sc = scenario(omega=OMEGAS[omega](), periodic=False, n_z=32, t_end=0.25,
                  init=init())
    assert sc.n_steps % 3 != 0
    sample_every(monkeypatch, sc, 3)
    cap_history(monkeypatch, sc, chunk)
    steps, states = dense_reference(sc)
    res, kept, _ = evolve_keeping_states(sc, monkeypatch)
    assert_dead_components_stay_zero(sc, res, kept)
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
    sc = scenario(t_end=20.0, n_z=64)
    guard_at(monkeypatch, 1e3)
    sample_every(monkeypatch, sc, 50)
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


def count_drawn_chunks(monkeypatch):
    """The lengths of the chunks a run draws from `_RHS.sampled`."""
    drawn, sampled = [], induction_dynamo._RHS.sampled

    def spy(self, *args):
        for chunk in sampled(self, *args):
            drawn.append(len(chunk))
            yield chunk

    monkeypatch.setattr(induction_dynamo._RHS, "sampled", spy)
    return drawn


# the guard trips at sample 72 of 201 on periodic z and at sample 24 of 211
# on closed z: chunks of 50 and of 16 samples put it inside the second
@pytest.mark.parametrize("periodic,per_chunk", [(True, 50), (False, 16)],
                         ids=["periodic", "closed"])
def test_no_chunk_past_the_overflow_stop_is_formed(periodic, per_chunk,
                                                   monkeypatch):
    sc = scenario(t_end=20.0, n_z=64, periodic=periodic)
    guard_at(monkeypatch, 1e3)
    cap_history(monkeypatch, sc, per_chunk)
    drawn = count_drawn_chunks(monkeypatch)
    res = evolve(sc)
    stop = res.steps // sc.stride
    assert res.stop_reason == "overflow guard"
    assert per_chunk < stop < 2 * per_chunk - 1
    assert sc.n_samples > 3 * per_chunk
    assert drawn == [per_chunk, per_chunk]
    assert len(res.series.t) == stop + 1


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("stride", [269, 1078])
def test_overflow_to_inf_raises_at_the_dense_step(stride, monkeypatch):
    # growth e^{(lam v - eta lam^2) t} = e^{210 t} overflows double near
    # t = 3.4, step 916 of 1078; the guard is off, so the run goes on until
    # the field itself is non-finite (a finite guard stops at the first
    # sample past its factor, as in
    # test_guard_and_norms_hold_up_to_the_double_range)
    sc = scenario(lam=300.0, eta=1e-3, t_end=4.0, n_z=32, cfl=0.2,
                  init=InitialField.q_slot(lambda z: np.sin(8 * np.pi * z)))
    guard_at(monkeypatch, np.inf)
    sample_every(monkeypatch, sc, stride)
    steps, states = dense_reference(sc)
    assert not np.isfinite(states[-1]).all()
    step = steps[len(states) - 1]
    assert step == (4 * 269 if stride == 269 else sc.n_steps)
    with pytest.raises(NumericalError,
                       match=f"^non-finite field at step {step} "):
        evolve(sc)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("per_chunk,passes", [(None, [4]), (4, [4]),
                                              (3, [3, 1])])
def test_non_finite_run_carries_its_finite_samples(per_chunk, passes,
                                                   monkeypatch):
    # the run above at stride 269: samples 0 to 3 (step 807) are finite and
    # sample 4 (step 1076) is not; a cap of 4 states makes it the first
    # state of its chunk, so that chunk holds no finite sample
    sc = scenario(lam=300.0, eta=1e-3, t_end=4.0, n_z=32, cfl=0.2,
                  init=InitialField.q_slot(lambda z: np.sin(8 * np.pi * z)))
    guard_at(monkeypatch, np.inf)
    sample_every(monkeypatch, sc, 269)
    cap_history(monkeypatch, sc, per_chunk)
    kept, seen = keep_states(sc, monkeypatch)
    with pytest.raises(NumericalError,
                       match="^non-finite field at step 1076 ") as info:
        evolve(sc)
    res = info.value.result
    assert (res.steps, res.stop_reason) == (1076, "non-finite")
    assert res.series.truncated and seen == passes
    # the series and field up to sample 3, as a pass per sample gives them;
    # their totals pass 1.3e154, where the plain sum of squares overflows
    assert np.array_equal(res.series.t, np.arange(4) * 269 * res.dt)
    assert np.array_equal(res.series.l2, per_sample_series(sc, kept)[0])
    np.testing.assert_allclose(res.series.total_l2, scaled_totals(sc, kept),
                               rtol=1e-14)
    assert np.array_equal(res.field.data,
                          np.broadcast_to(kept[-1], res.field.data.shape))
    assert np.isfinite(res.field.data).all()


def scaled_totals(sc, states):
    """Total L2 of each state, normed divided by its max |entry|, so that
    no square overflows, and multiplied back."""
    totals = []
    for data in states:
        top = np.max(np.abs(data))
        totals.append(top * per_sample_series(sc, [data / top])[1][0])
    return np.array(totals)


def test_guard_and_norms_hold_up_to_the_double_range(monkeypatch):
    # e^{210 t}, as above, passes 1.3e154, where the squares in the norms
    # overflow, near t = 1.7, and the double range near t = 3.4
    def run(t_end, factor):
        sc = scenario(lam=300.0, eta=1e-3, t_end=t_end, n_z=32, cfl=0.2,
                      init=InitialField.q_slot(
                          lambda z: np.sin(8 * np.pi * z)))
        guard_at(monkeypatch, factor)
        sample_every(monkeypatch, sc, 50)
        return (sc, *evolve_keeping_states(sc, monkeypatch)[:2])

    # without a guard the series stays finite to the end of the run
    sc, res, states = run(3.0, np.inf)
    assert (res.steps, res.stop_reason) == (sc.n_steps, "completed")
    totals = scaled_totals(sc, states)
    assert totals[-1] > 1e270
    np.testing.assert_allclose(res.series.total_l2, totals, rtol=1e-14)
    np.testing.assert_allclose(res.series.l2[:, 1], totals, rtol=1e-14)
    # a guard at 1e300 stops at the first sample past 1e300 times the
    # initial norm, step 900 of 916, whose field is finite; at step 916 the
    # field itself overflows
    sc, res, states = run(3.4, 1e300)
    totals = scaled_totals(sc, states)
    tripped = np.flatnonzero(totals > 1e300 * totals[0])
    assert list(tripped) == [len(states) - 1]
    assert (res.steps, res.stop_reason) == (900, "overflow guard")
    assert 50 * tripped[0] == 900 and sc.n_steps == 916
    assert np.isfinite(res.series.total_l2).all()
    np.testing.assert_allclose(res.series.total_l2, totals, rtol=1e-14)


def test_norms_of_fields_past_1e154_are_the_scaled_norms():
    # a power of two scales the squares exactly; a field holding inf, or
    # whose norm passes the double range, reads inf
    grid = Grid3D(4, 3, 16, z_periodic=True)
    op = FrameOperators(FrameMetric(0.7), grid)
    data = np.random.default_rng(2).normal(size=(2, 3, *grid.shape))
    norms, total = op.component_norms(data), op.l2_norm(data)
    for k in (600, 1000):
        big = data * 2.0 ** k
        assert np.array_equal(op.component_norms(big), norms * 2.0 ** k)
        assert op.l2_norm(big) == total * 2.0 ** k
    data[1, 2, 0, 0, 0] = np.inf
    norms = op.component_norms(data * 2.0 ** 1000)
    assert np.isinf(norms[1, 2])
    assert np.isfinite(np.delete(norms.ravel(), 5)).all()
    assert op.l2_norm(np.full((3, *grid.shape), 1.5e308)) == np.inf


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


def test_series_csv_equals_row_by_row_formatting():
    # reference: one "%.15g" row per sample, as the CSV was first written;
    # -0.0, nan, inf and the ends of the double range print as before
    t = np.array([0.0, 1.0 / 3.0, 2.5e-7, 1e300])
    l2 = np.array([[1.0, -0.0, 5e-324],
                   [np.pi, 1e-300, 1.7976931348623157e308],
                   [np.nan, np.inf, 2.0 / 3.0],
                   [123456789.123456789, 0.1, 7.0]])
    div_rel = np.array([0.0, 1e-17, 0.25, -np.inf])
    series = EvolutionSeries(t=t, l2=l2, total_l2=np.ones(4), div_rel=div_rel)
    want = "t,norm_bp,norm_bq,norm_bz,div_residual\n" + "".join(
        ",".join("%.15g" % x for x in (t[n], *l2[n], div_rel[n])) + "\n"
        for n in range(4))
    assert series.to_csv() == want


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
    np.testing.assert_allclose(np.broadcast_to(oracle.bq, sc.grid.shape),
                               np.broadcast_to(expect, sc.grid.shape),
                               atol=1e-13)


def test_oracle_growth_factor_at_unit_time():
    # lam = v = 1, t = 1: q component is e * g(z - 1)
    g = lambda z: 2.0 + np.sin(2 * np.pi * z)
    sc = scenario(lam=1.0, t_end=1.0, n_z=64, init=InitialField.q_slot(g))
    oracle, _ = characteristics_oracle(sc, 1.0)
    z = sc.grid.z
    np.testing.assert_allclose(
        np.broadcast_to(oracle.bq, sc.grid.shape),
        np.broadcast_to(np.e * g(z - 1.0), sc.grid.shape), rtol=1e-12)


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
    np.testing.assert_allclose(np.broadcast_to(oracle.bq, grid.shape),
                               np.broadcast_to(expect, grid.shape), rtol=1e-12)


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


def test_oracle_flags_a_foot_across_nonpositive_omega():
    # 1 + 0.8 sin(2 pi z) on 11 knots is positive on its knots [0, 1], so
    # the scenario is accepted; its first end piece dips to -0.151 below
    # z = 0, but that is off the knots: the first six grid points' feet
    # leave [0, 1] and read NaN, and every other foot crosses no Omega <= 0
    zs = np.linspace(0.0, 1.0, 11)
    omega = ConformalFactor.tabulated(zs, 1.0 + 0.8 * np.sin(2 * np.pi * zs))
    metric = FrameMetric(1.0, omega)
    grid = Grid3D(4, 4, 33)
    sc = DynamoScenario(metric=metric, grid=grid, flow_speed=1.0,
                        initial_field=q_sine(), t_end=0.25,
                        dt=stable_dt(metric, grid, 1.0))
    oracle, mask = characteristics_oracle(sc, 0.25)
    assert np.array_equal(mask, np.arange(33) >= 6)
    assert np.all(np.isnan(oracle.bq[..., ~mask]))
    assert np.all(np.isfinite(oracle.bq[..., mask]))
    z, z0 = grid.z[mask], omega.foot_point(grid.z, 1.0, 0.25)[mask]
    assert np.all(omega.spline(np.linspace(z0, z, 201)) > 0)
    np.testing.assert_allclose(omega.spline(z, -1) - omega.spline(z0, -1),
                               0.25, rtol=0, atol=1e-14)


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


# the reference fits t less the offset: the slope of a line does not move
# with t, and np.polyfit on t near 1e6 is itself about 1e-10 off
@pytest.mark.parametrize("offset", [0.0, 1.0e6])
@pytest.mark.parametrize("noise", [0.0, 1e-3, 0.1])
def test_growth_fit_is_the_least_squares_line(offset, noise):
    rng = np.random.default_rng(7)
    t = offset + np.linspace(0.0, 2.0, 215)
    norms = np.exp(0.96 * (t - offset) + noise * rng.normal(size=t.size))
    fit = growth_fit(t, norms)
    keep = induction_dynamo.fit_window(t.size, (0.4, 1.0))
    tw, yw = t[keep] - offset, np.log(norms[keep])
    slope, intercept = np.polyfit(tw, yw, 1)
    assert fit.rate == pytest.approx(slope, rel=1e-12, abs=0.0)
    resid = yw - (slope * tw + intercept)
    assert fit.residual_rms == pytest.approx(
        np.sqrt(np.mean(resid ** 2)), rel=1e-9, abs=1e-12)
    if noise == 0.0:
        # an exact exponential: its rate, with a round-off residual
        assert fit.rate == pytest.approx(0.96, rel=1e-12, abs=0.0)
        assert fit.residual_rms <= 1e-12


@pytest.mark.parametrize("value", [0.1, 3.0, 1.0e6])
def test_growth_fit_rejects_a_window_of_equal_t(value):
    # the mean of equal t need not be exactly t (0.1 is not): the check
    # reads the t themselves, not their centred squares
    t = np.linspace(0.0, 1.0, 100)
    t[40:] = value
    with pytest.raises(ValueError, match="^the fit window's t must not all "
                       "be equal$"):
        growth_fit(t, np.exp(np.linspace(0.0, 1.0, 100)))


def test_growth_fit_reports_noise_residual():
    rng = np.random.default_rng(0)
    t = np.linspace(0, 4, 200)
    fit = growth_fit(t, np.exp(0.3 * t + 0.01 * rng.normal(size=200)))
    assert fit.residual_rms > 1e-4


def test_growth_fit_rejects_short_series():
    t = np.linspace(0, 1, 20)
    with pytest.raises(ValueError, match="20 samples"):
        growth_fit(t, np.exp(t))


@pytest.mark.parametrize("n, window, kept", [
    (34, (0.4, 1.0), 21), (33, (0.4, 1.0), 20), (26, (0.4, 1.0), 16),
    (100, (0.2, 0.4), 20), (100, (0.2, 0.39), 19)])
def test_fit_window_is_the_rule_growth_fit_applies(n, window, kept):
    # the CLI checks a run's sample count against the same rule before it
    # evolves, so a run too short for its fit writes nothing
    t = np.linspace(0.0, 1.0, n)
    if kept < 20:
        for check in (lambda: induction_dynamo.fit_window(n, window),
                      lambda: growth_fit(t, np.exp(t), window=window)):
            with pytest.raises(ValueError, match=f"^need at least 20 samples "
                               f"past the transient, got {kept}$"):
                check()
        return
    keep = induction_dynamo.fit_window(n, window)
    assert keep.stop - keep.start == kept
    assert growth_fit(t, np.exp(t), window=window).rate == pytest.approx(1.0)


def test_growth_fit_rejects_nonpositive_norms():
    t = np.linspace(0, 1, 100)
    y = np.exp(t)
    y[3] = 0.0
    with pytest.raises(ValueError, match="positive"):
        growth_fit(t, y)


@pytest.mark.parametrize("where", ["t", "norms"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_growth_fit_rejects_non_finite_series(where, bad):
    # np.any(norms <= 0) is False for NaN, so rate = nan came back silently
    series = {"t": np.linspace(0, 1, 100), "norms": np.exp(np.linspace(0, 1, 100))}
    series[where][50] = bad
    with pytest.raises(ValueError, match="^t and the norm series must be "
                       "finite for a log fit$"):
        growth_fit(series["t"], series["norms"])


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


def test_growth_fit_default_has_no_theory_rate():
    t = np.linspace(0, 4, 100)
    fit = growth_fit(t, np.exp(0.5 * t))
    assert fit.theory_rate is None and np.isnan(fit.relative_error)
    rep = fit.report()
    assert "theory rate" not in rep and "relative error" not in rep


@pytest.mark.parametrize("theory", [0.0, -0.0])
def test_growth_fit_zero_theory_rate_has_no_relative_error(theory):
    # |rate| is an absolute error, not a relative one
    fit = GrowthFit(rate=1.7e-16, theory_rate=theory, residual_rms=0.0,
                    window=(0.4, 1.0))
    assert np.isnan(fit.relative_error)
    rep = fit.report()
    assert "  theory rate   : 0\n" in rep or "  theory rate   : -0\n" in rep
    assert "relative error" not in rep


def test_growth_fit_relative_error_and_its_report_line():
    fit = GrowthFit(rate=0.55, theory_rate=-0.5, residual_rms=0.0,
                    window=(0.4, 1.0))
    assert fit.relative_error == pytest.approx(2.1, rel=1e-15)
    assert "  relative error: 2.1\n" in fit.report()


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
    P, Q, Z = np.meshgrid(grid.p, grid.q, grid.z, indexing="ij")
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


def full_grid_oracle(sc, t):
    """The oracle's solution filled into a full (3, n_p, n_q, n_z) array:
    each component callable on the open mesh of the foot points, times its
    per-z factor with the mask folded in as NaN."""
    grid, metric = sc.grid, sc.metric
    z = grid.z
    z0 = metric.omega.foot_point(z, sc.flow_speed, t)
    mask = np.isfinite(z0)
    if sc.initial_field.z_limited:
        mask &= (z0 >= grid.z_min - 1e-12) & (z0 <= grid.z_max + 1e-12)
    z0 = np.where(mask, z0, grid.z_min)
    shift = z - z0
    om = metric.omega
    factors = np.stack([np.exp(-metric.lam * shift),
                        np.exp(+metric.lam * shift),
                        om.value(z) / om.value(z0)]
                       ) * np.where(mask, 1.0, np.nan)
    P, Q, Z0 = np.ix_(grid.p, grid.q, z0)
    init = sc.initial_field
    data = np.empty((3, *grid.shape))
    for out, comp, factor in zip(data, (init.bp, init.bq, init.bz), factors):
        np.multiply(comp(P, Q, Z0), factor, out=out)
    return data


COLLAPSED_RESULT_FIELDS = {
    "q_slot": lambda: q_sine(),
    "z_slot": lambda: InitialField.z_slot(lambda z: 1.5 + np.cos(2 * np.pi * z)),
    "pq_profiles": lambda: named_initial_field("pq_mixed"),
    "random_fourier": lambda: InitialField.random_fourier(3),
    # a full-size q slot constant along p and q, and p structure in Bz
    "z_limited": lambda: InitialField(
        bq=lambda p, q, z: (2.0 + np.sin(2 * np.pi * z))
        * np.ones(np.broadcast(p, q, z).shape),
        bz=lambda p, q, z: np.cos(2 * np.pi * p) * (1.0 + z) + 0.0 * q,
        z_limited=True),
}


@pytest.mark.parametrize("name", COLLAPSED_RESULT_FIELDS)
@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "closed"])
def test_evolve_and_oracle_return_the_collapsed_field(name, periodic,
                                                      monkeypatch):
    # both results come at the initial state's collapsed shape, as fresh
    # contiguous arrays whose broadcast is the full-grid field bit for bit
    init = COLLAPSED_RESULT_FIELDS[name]()
    sc = scenario(n_z=32, n_pq=4, t_end=0.25, periodic=periodic, init=init)
    grid = sc.grid
    shape = _initial_state(init, grid).shape
    assert shape[1:3] == ((4, 1) if name == "z_limited" else (1, 1))
    first, states, _ = evolve_keeping_states(sc, monkeypatch)
    second = evolve(sc)
    # the final state broadcast to the grid and copied once
    full = np.broadcast_to(states[-1], (3, *grid.shape)).copy()
    (oracle, mask), (oracle_again, _) = (characteristics_oracle(sc, sc.t_end)
                                         for _ in range(2))
    assert mask.all() != (name == "z_limited")
    for got, again, want in ((first.field.data, second.field.data, full),
                             (oracle.data, oracle_again.data,
                              full_grid_oracle(sc, sc.t_end))):
        assert got.shape == shape and got.flags.c_contiguous
        assert not np.shares_memory(got, again)
        assert np.array_equal(np.broadcast_to(got, want.shape), want,
                              equal_nan=True)


# -- what a scenario's runs share ----------------------------------------------


def assert_same_run(a, b):
    """Two EvolutionResults agree bit for bit in everything but wall time."""
    assert np.array_equal(a.field.data, b.field.data)
    for name in ("t", "l2", "total_l2", "div_rel"):
        assert np.array_equal(getattr(a.series, name),
                              getattr(b.series, name))
    assert a.series.truncated == b.series.truncated
    for name in ("steps", "dt", "stop_reason", "cfl_advective",
                 "cfl_real_axis"):
        assert getattr(a, name) == getattr(b, name)


RERUN_SCENARIOS = {
    "arnold": lambda: scenario(n_pq=32, n_z=128, t_end=2.0),
    "resistive": lambda: scenario(eta=1e-2, n_z=32, t_end=0.25),
    "closed-exponential": lambda: scenario(
        omega=ConformalFactor.exponential(0.5), periodic=False, n_z=48,
        t_end=0.25),
    "closed-solenoidal": lambda: scenario(
        periodic=False, n_z=48, t_end=0.25,
        init=named_initial_field("solenoidal", CAT_STRETCH_RATE)),
    "full-grid": lambda: scenario(n_pq=8, n_z=32, t_end=0.1,
                                  init=pqz_field()),
}


@pytest.mark.parametrize("make", RERUN_SCENARIOS.values(),
                         ids=RERUN_SCENARIOS)
def test_second_run_of_a_scenario_is_bit_identical(make):
    # the z matrices and step rates a run reuses change no figure
    sc = make()
    first = evolve(sc)
    assert_same_run(first, evolve(sc))
    assert_same_run(first, evolve(make()))


def test_step_rates_are_computed_once_per_scenario(monkeypatch):
    # the rates, the step rates and the frame operators are formed once,
    # with the scenario, and every run and right-hand side reads them
    metric = FrameMetric(CAT_STRETCH_RATE)
    grid = metric.grid(4, 4, 64, z_periodic=True)
    dt = stable_dt(metric, grid, 1.0, resistivity=1e-2)
    vmax, decay = _step_rates(*_rates(metric, grid, 1.0, 1e-2), 1e-2, grid.dz)
    calls = {"_rates": 0, "_step_rates": 0, "FrameOperators": 0}

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in ("_rates", "_step_rates"):
        monkeypatch.setattr(induction_dynamo, name,
                            spy(name, getattr(induction_dynamo, name)))
    monkeypatch.setattr(FrameOperators, "__init__",
                        spy("FrameOperators", FrameOperators.__init__))
    sc = DynamoScenario(metric=metric, grid=grid, flow_speed=1.0,
                        initial_field=q_sine(), t_end=0.3, dt=dt,
                        resistivity=1e-2)
    runs = evolve(sc), evolve(sc)
    B = q_sine().on_grid(grid)
    for _ in range(3):
        induction_rhs(sc, B)
    assert calls == {"_rates": 1, "_step_rates": 1, "FrameOperators": 1}
    for res in runs:
        assert res.cfl_advective == res.dt * vmax / grid.dz
        assert res.cfl_real_axis == res.dt * decay
