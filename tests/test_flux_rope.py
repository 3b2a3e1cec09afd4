import dataclasses
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import framedynamo
from framedynamo import flux_rope
from framedynamo.differentiation import z_derivative_matrix
from framedynamo.flux_rope import (NoDynamoBoundError, RopeParams,
                                   amplification_ratio, btheta_solution,
                                   continuity_residual, continuity_solution,
                                   dynamo_radius_bound,
                                   frenet_integrate, is_dynamo, rope_csv,
                                   tube_metric_factor)


def rodrigues(axis, angle):
    """Rotation matrix about a unit axis."""
    K = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


def test_import_framedynamo_loads_no_scipy():
    # importing, and building every tabulated object: a spline factor, a
    # sampled coframe and the closed-z characteristics oracle on the factor
    code = """
import sys
import numpy as np
import framedynamo
from framedynamo.exterior_geometry import exterior_derivative
from framedynamo.frame_calculus import CoframeBasis, ConformalFactor, FrameMetric
from framedynamo.induction_dynamo import (DynamoScenario, InitialField,
                                          characteristics_oracle, stable_dt)
zs = np.linspace(-1.0, 2.0, 301)
tab = ConformalFactor.tabulated(zs, 1.0 + 0.3 * np.sin(2 * np.pi * zs))
coframe = CoframeBasis.from_samples(zs, [np.exp(-zs), np.exp(zs), np.ones_like(zs)])
exterior_derivative(coframe, np.linspace(0.0, 1.0, 9))
metric = FrameMetric(1.0, tab)
grid = metric.grid(2, 2, 32, z_periodic=False)
sc = DynamoScenario(metric=metric, grid=grid, flow_speed=1.0,
                    initial_field=InitialField.q_slot(lambda z: 2.0 + np.sin(z)),
                    t_end=0.1, dt=stable_dt(metric, grid, 1.0))
_, mask = characteristics_oracle(sc, 0.1)
assert mask.all()
print(sorted(m for m in sys.modules if m.startswith('scipy')))
"""
    src = os.path.dirname(os.path.dirname(framedynamo.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# -- frame integration -----------------------------------------------------------


def test_straight_line():
    c = frenet_integrate(0.0, 0.0, 5.0, 0.01)
    np.testing.assert_allclose(c.x[-1], [5.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(c.t, np.tile([1.0, 0, 0], (len(c.s), 1)),
                               atol=1e-12)


def test_circle_closure():
    c = frenet_integrate(1.0, 0.0, 2 * np.pi, 2 * np.pi / 4096)
    assert np.linalg.norm(c.x[-1] - c.x[0]) <= 1e-6
    # radius 1 about the center x0 + n0
    center = c.x[0] + c.n[0]
    radii = np.linalg.norm(c.x - center, axis=1)
    np.testing.assert_allclose(radii, np.ones_like(radii), atol=1e-7)


def test_helix_matches_rodrigues_closed_form():
    # constant kappa, tau: the triad rotates rigidly about the Darboux
    # axis u = (tau t0 + kappa b0)/|w| at angle rate |w| = sqrt(k^2 + t^2)
    kap, tau = 0.5, 0.5
    om = np.hypot(kap, tau)
    c = frenet_integrate(kap, tau, 12.0, 0.004)
    t0, b0 = c.t[0], c.b[0]
    u = (tau * t0 + kap * b0) / om
    t_par = (t0 @ u) * u
    t_perp = t0 - t_par
    for i in (len(c.s) // 3, len(c.s) - 1):
        s = c.s[i]
        expect_t = t_par + rodrigues(u, om * s) @ t_perp
        np.testing.assert_allclose(c.t[i], expect_t, atol=1e-8)
        # integrated position: straight part + rotated circle part
        w_perp = np.cross(u, t_perp) / om
        expect_x = (c.x[0] + (t0 @ u) * u * s
                    + np.sin(om * s) / om * t_perp + (1 - np.cos(om * s)) * w_perp)
        np.testing.assert_allclose(c.x[i], expect_x, atol=1e-7)


def test_helix_radius_and_pitch():
    kap = tau = 0.5
    om2 = kap ** 2 + tau ** 2
    c = frenet_integrate(kap, tau, 20.0, 0.004)
    u = (tau * c.t[0] + kap * c.b[0]) / np.sqrt(om2)
    p0 = c.x[0] + (kap / om2) * c.n[0]
    rel = c.x - p0
    axial = rel @ u
    radial = np.linalg.norm(rel - axial[:, None] * u, axis=1)
    assert np.max(np.abs(radial - kap / om2)) <= 1e-6  # radius = 1
    slope = np.polyfit(c.s, axial, 1)[0]
    pitch = slope / np.sqrt(om2)
    assert abs(pitch - tau / om2) <= 1e-6               # pitch = 1


def test_triad_orthonormality_along_ten_thousand_steps():
    c = frenet_integrate(0.7, -0.4, 100.0, 0.01)
    assert len(c.s) == 10001
    assert c.orthonormality_drift() <= 1e-8
    assert np.max(np.abs(c.b - np.cross(c.t, c.n))) <= 1e-8


def test_curvature_recovered_from_tangent_derivative():
    c = frenet_integrate(0.8, 0.3, 10.0, 0.005)
    dt_ds = np.gradient(c.t, c.s, axis=0)
    kappa_est = np.linalg.norm(dt_ds, axis=1)
    np.testing.assert_allclose(kappa_est[5:-5], 0.8, rtol=1e-4)


def sequential_magnus(kappa, tau, s):
    """Frames on the uniform samples s by one Magnus rotation per step,
    multiplied in one at a time: the reference for the closed-form triad."""
    h = s[1] - s[0] if len(s) > 1 else 0.0
    frames = [np.eye(3)]
    for s0 in s[:-1]:
        w1, w2 = (np.array([tau(s0 + c * h), 0.0, kappa(s0 + c * h)])
                  for c in (0.5 - np.sqrt(3) / 6, 0.5 + np.sqrt(3) / 6))
        theta = 0.5 * h * (w1 + w2) + np.sqrt(3) * h ** 2 / 12 * np.cross(w1, w2)
        angle = np.linalg.norm(theta)
        # F <- exp(-[theta]x) F, the frame equation F' = -[w]x F over one step
        step = rodrigues(theta / angle, -angle) if angle > 0 else np.eye(3)
        frames.append(step @ frames[-1])
    return np.array(frames)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 1023, 1024, 1025, 1026])
def test_scan_frames_match_sequential_product(m):
    # the closed-form triad against one rotation per step, multiplied in
    # one at a time: m = 1 is the starting point alone, and m = 1023-1026
    # are products of about a thousand steps
    kappa, tau, ds = 0.8, -0.3, 0.01
    c = frenet_integrate(kappa, tau, (m - 1) * ds, ds)
    assert len(c.s) == m
    ref = sequential_magnus(lambda s: kappa, lambda s: tau, c.s)
    got = np.stack([c.t, c.n, c.b], axis=1)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


def test_scan_frames_match_sequential_product_on_the_verify_all_helix():
    # check_flux_rope's helix: 5000 steps of constant kappa = tau = 0.5
    c = frenet_integrate(0.5, 0.5, 20.0, 0.004)
    assert len(c.s) == 5001
    ref = sequential_magnus(lambda s: 0.5, lambda s: 0.5, c.s)
    got = np.stack([c.t, c.n, c.b], axis=1)
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


def test_long_arc_triad_is_the_exact_rotation():
    # |w| s = 1e4 rad over 160000 steps: the triad is the rotation itself
    # at every sample, with no error that grows along the arc. |w| = 1 and
    # h = 1/16 are exact, so |w| s is the same float here and in the
    # integrator, and the rounding of the angle does not enter
    kappa, tau = 0.8, 0.6
    c = frenet_integrate(kappa, tau, 1e4, 0.0625)
    assert len(c.s) == 160001 and c.s[-1] == 1e4
    assert c.orthonormality_drift() <= 1e-12
    om = np.hypot(kappa, tau)
    u = np.array([tau, 0.0, kappa]) / om
    got = np.stack([c.t, c.n, c.b], axis=1)
    for i in np.linspace(0, len(c.s) - 1, 17).astype(int):
        # F(s) = R(|w| s)^T: rows (t, n, b) rotate by -|w| s about u
        np.testing.assert_allclose(got[i], rodrigues(u, -om * c.s[i]),
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("s_max, ds, steps", [
    (1.0, 0.15, 7),             # not a whole number of steps: h = 1/7
    (1.0, 0.3, 4),              # 3.33 steps round to 3, but h must be <= ds
    (2 * np.pi, 0.002, 3142),   # the fluxrope command's default
    (0.3, 0.1, 3),              # 0.3/0.1 = 2.9999999999999996
    (2.1, 0.3, 7),              # 2.1/0.3 = 7.000000000000001
    (20.0, 0.004, 5000),        # check_flux_rope's helix
])
def test_curve_ends_at_s_max(s_max, ds, steps):
    c = frenet_integrate(0.3, 0.2, s_max, ds)
    assert len(c.s) == steps + 1
    h = c.s[1] - c.s[0]
    assert h <= ds * (1 + 1e-12)
    assert abs(c.s[-1] - s_max) <= 1e-12 * s_max
    np.testing.assert_allclose(np.diff(c.s), h, rtol=1e-9)


@pytest.mark.parametrize("s_max, ds", [
    (2 * np.pi, 2 * np.pi / 4096), (20.0, 0.004), (12.0, 0.004),
    (8.0, 0.0025), (100.0, 0.01),
])
def test_whole_number_of_steps_keeps_the_samples(s_max, ds):
    c = frenet_integrate(0.5, 0.2, s_max, ds)
    m = int(round(s_max / ds)) + 1
    np.testing.assert_array_equal(c.s, np.arange(m) * ds)


def test_zero_length_curve_is_the_starting_point():
    c = frenet_integrate(0.5, 0.2, 0.0, 0.01)
    np.testing.assert_array_equal(c.s, [0.0])
    np.testing.assert_array_equal(c.x, np.zeros((1, 3)))
    np.testing.assert_array_equal(np.stack([c.t, c.n, c.b], axis=1)[0],
                                  np.eye(3))


@pytest.mark.parametrize("kwargs, name", [
    ({"ds": 0.0}, "ds"),
    ({"ds": -0.01}, "ds"),
    ({"ds": np.nan}, "ds"),
    ({"s_max": -1.0}, "s_max"),
])
def test_degenerate_input_rejected(kwargs, name):
    args = {"s_max": 1.0, "ds": 0.01, **kwargs}
    with pytest.raises(ValueError, match=rf"^{name} "):
        frenet_integrate(0.5, 0.2, **args)


@pytest.mark.parametrize("s_max, ds", [
    (2 * np.pi, 1e-320),  # s_max/ds overflows to inf
    (1.0, 1.0 / 101),     # 101 steps, one over the cap
    (1.0, 0.0099999),     # 100.001 steps round up to 101
])
def test_step_count_over_the_cap_is_rejected(s_max, ds, monkeypatch):
    # a cap of 100 keeps every array small even if the check were missing
    monkeypatch.setattr(flux_rope, "MAX_FRENET_STEPS", 100)
    with pytest.raises(ValueError, match=r"^ds=.* more than "
                       r"MAX_FRENET_STEPS=100$"):
        frenet_integrate(0.5, 0.2, s_max, ds)


def test_step_count_at_the_cap_is_accepted(monkeypatch):
    monkeypatch.setattr(flux_rope, "MAX_FRENET_STEPS", 100)
    assert len(frenet_integrate(0.5, 0.2, 1.0, 0.01).s) == 101


def test_step_size_guard():
    with pytest.raises(ValueError, match="step too large"):
        frenet_integrate(2.0, 0.0, 1.0, 0.2)
    # |tau| h is bounded too: tau = 1e300 overflowed the step rotation
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"max \|tau\|\*h = 1e\+298"):
            frenet_integrate(0.5, -1e300, 1.0, 0.01)


def test_largest_curvature_and_torsion_within_the_guard():
    # |w| = hypot(kappa, tau) overflows, |w| h = hypot(kappa h, tau h)
    # does not: the triad is finite and orthonormal, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = frenet_integrate(1.5e308, 1.5e308, 5e-308, 5e-310)
    assert len(c.s) == 101
    assert c.orthonormality_drift() <= 1e-12


def test_negative_curvature_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        frenet_integrate(-0.5, 0.0, 1.0, 0.01)


@pytest.mark.parametrize("kwargs, match", [
    ({"r": np.nan}, "^r must be finite"),
    ({"r": 0.5, "kappa": -1.5}, "^curvature kappa must be non-negative"),
    ({"r": -0.1}, "^tube radius r must be non-negative"),
    ({"r": 0.1, "tau": np.inf}, "^tau must be finite"),
    ({"r": 0.1, "omega": -np.inf}, "^omega must be finite"),
    ({"r": 0.1, "gamma": np.nan}, "^gamma must be finite"),
    ({"r": 0.1, "theta0": np.nan}, "^theta0 must be finite"),
    ({"r": 0.1, "b_amplitude": np.inf}, "^b_amplitude must be finite"),
])
def test_rope_params_reject_non_finite_and_negative_inputs(kwargs, match):
    # r = nan used to give a NaN rope.csv, and kappa = -1.5 a tube factor
    # up to 1.75; only frenet_integrate rejected a negative kappa
    with pytest.raises(ValueError, match=match):
        RopeParams(**kwargs)


# -- tube metric -----------------------------------------------------------------


def test_tube_factor_on_axis_is_one():
    s = np.linspace(0, 2 * np.pi, 101)
    tube = tube_metric_factor(RopeParams(r=0.0), s)
    np.testing.assert_allclose(tube.K, np.ones_like(s), atol=1e-14)
    assert tube.thin


def test_tube_factor_direct_values():
    s = np.array([0.0, 1.0])
    # theta stays at theta0 when tau = 0
    tube0 = tube_metric_factor(RopeParams(r=0.1, tau=0.0, theta0=0.0), s)
    np.testing.assert_allclose(tube0.K, [0.9, 0.9], atol=1e-14)
    tube90 = tube_metric_factor(RopeParams(r=0.1, tau=0.0, theta0=np.pi / 2), s)
    np.testing.assert_allclose(tube90.K, [1.0, 1.0], atol=1e-14)


def test_tube_factor_winds_with_torsion():
    s = np.linspace(0, 4.0, 4001)
    params = RopeParams(r=0.05, kappa=0.9, tau=1.3, theta0=0.25)
    tube = tube_metric_factor(params, s)
    np.testing.assert_allclose(tube.theta, 0.25 - 1.3 * s, atol=1e-10)
    np.testing.assert_allclose(tube.K, 1 - 0.05 * 0.9 * np.cos(tube.theta),
                               atol=1e-12)


def test_tube_factor_rejects_self_intersection():
    s = np.linspace(0, 1, 51)
    with pytest.raises(ValueError, match="radius exceeds"):
        tube_metric_factor(RopeParams(r=1.2, tau=0.0), s)


def test_thin_flag_threshold():
    s = np.linspace(0, 2 * np.pi, 101)
    assert tube_metric_factor(RopeParams(r=0.04), s).thin
    assert not tube_metric_factor(RopeParams(r=0.2), s).thin


# -- dynamo endpoint formulas -----------------------------------------------------


def test_amplification_ratio_values():
    assert amplification_ratio(RopeParams(r=1, omega=1, gamma=1, tau=1)) == 1.0
    assert amplification_ratio(RopeParams(r=0.5, omega=2, gamma=1, tau=0.0)) == 0.0
    assert amplification_ratio(
        RopeParams(r=0.3, omega=0.5, gamma=0.5, tau=2.0)) == pytest.approx(1.2, rel=1e-15)


def test_amplification_ratio_exact_on_dyadic_inputs():
    p = RopeParams(r=0.25, omega=0.5, gamma=0.5, tau=2.0)
    assert amplification_ratio(p) == 2.0 * 0.5 * 0.25 / 0.25


def test_amplification_ratio_rejects_zero_gamma():
    with pytest.raises(ValueError, match="gamma"):
        amplification_ratio(RopeParams(r=1, gamma=0.0))


@pytest.mark.parametrize("gamma", [1e-200, 1e-160, -1e-170])
def test_amplification_ratio_rejects_an_underflowing_gamma_squared(gamma):
    # gamma^2 = 0 raised ZeroDivisionError, a subnormal one gave a ratio of inf
    with pytest.raises(ValueError, match="^amplification ratio .* is not "
                       "finite for gamma"):
        amplification_ratio(RopeParams(r=0.1, gamma=gamma))


def test_endpoint_formulas_past_the_double_range():
    # gamma^2 = 1e400 raised OverflowError from gamma ** 2; the ratio
    # 0.1/1e400 rounds to 0, and the bound itself overflows
    params = RopeParams(r=0.1, gamma=1e200)
    assert amplification_ratio(params) == 0.0
    with pytest.raises(ValueError, match="^dynamo radius bound .* is not "
                       "finite for gamma = 1e\\+200"):
        dynamo_radius_bound(params)
    tube = tube_metric_factor(params, np.linspace(0, 1, 11))
    assert np.all(btheta_solution(params, tube, 0.0) > 0)
    with pytest.raises(ValueError, match="^B_theta overflows for gamma = "):
        btheta_solution(params, tube, 1.0)


@pytest.mark.parametrize("scale", [5e-324, 1e-200, 1e200,
                                   1.7976931348623157e308])
def test_endpoint_formulas_at_extreme_but_finite_inputs(scale):
    # tau*omega*r and gamma^2 (or omega*tau) under- or overflow, but both
    # quotients are exactly 1: they used to raise "is not finite"
    params = RopeParams(r=1.0, omega=scale, gamma=scale, tau=scale)
    assert amplification_ratio(params) == 1.0
    assert dynamo_radius_bound(params) == 1.0


def test_radius_bound_still_rejects_a_bound_past_the_double_range():
    # gamma^2/(omega tau) = 1e400 is not finite; the ratio 1e-400 rounds to 0
    params = RopeParams(r=1.0, omega=1e-200, gamma=1.0, tau=1e-200)
    with pytest.raises(ValueError, match="^dynamo radius bound .* is not "
                       "finite for gamma = 1, omega = 1e-200"):
        dynamo_radius_bound(params)
    assert amplification_ratio(params) == 0.0


def test_endpoint_formulas_match_the_plain_quotients_in_range():
    # no intermediate under- or overflow: the mantissa/exponent split
    # rounds as the plain expressions multiplied left to right
    rng = np.random.default_rng(7)
    for tau, omega, r, gamma in (rng.choice([-1.0, 1.0], (500, 4))
                                 * 10.0 ** rng.uniform(-60, 60, (500, 4))):
        params = RopeParams(r=abs(r), omega=omega, gamma=gamma, tau=tau)
        assert amplification_ratio(params) == tau * omega * abs(r) / (gamma * gamma)
        if omega * tau > 0:
            assert dynamo_radius_bound(params) == gamma * gamma / (omega * tau)


def test_amplification_sign_invariances():
    base = RopeParams(r=0.4, omega=0.8, gamma=0.6, tau=1.1)
    flipped = RopeParams(r=0.4, omega=-0.8, gamma=0.6, tau=-1.1)
    neg_gamma = RopeParams(r=0.4, omega=0.8, gamma=-0.6, tau=1.1)
    assert amplification_ratio(base) == amplification_ratio(flipped)
    assert amplification_ratio(base) == amplification_ratio(neg_gamma)
    assert amplification_ratio(base) > 0


def test_radius_bound_values_and_predicate():
    assert dynamo_radius_bound(RopeParams(r=1, omega=1, gamma=1, tau=1)) == 1.0
    p = RopeParams(r=0.3, omega=2.0, gamma=1.0, tau=2.0)
    assert dynamo_radius_bound(p) == 0.25
    assert is_dynamo(p)
    assert not is_dynamo(dataclasses.replace(p, r=0.2))
    assert not is_dynamo(dataclasses.replace(p, r=0.25))  # strict inequality


def test_radius_bound_rejects_nonpositive_omega_tau():
    with pytest.raises(NoDynamoBoundError):
        dynamo_radius_bound(RopeParams(r=1, omega=-1.0, gamma=1, tau=1.0))
    assert not is_dynamo(RopeParams(r=100.0, omega=-1.0, gamma=1, tau=1.0))
    # omega*tau underflows to -0: the message names omega and tau, not the
    # product, which used to read "omega*tau = -0"
    with pytest.raises(NoDynamoBoundError, match=re.escape(
            "omega*tau <= 0 for omega = 1e-200 and tau = -1e-200: no dynamo "
            "radius bound exists")):
        dynamo_radius_bound(RopeParams(r=1, omega=1e-200, gamma=1,
                                       tau=-1e-200))


def test_radius_bound_monotonicity():
    bounds_omega = [dynamo_radius_bound(RopeParams(r=1, omega=w, gamma=1, tau=1))
                    for w in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(bounds_omega, bounds_omega[1:]))
    bounds_tau = [dynamo_radius_bound(RopeParams(r=1, omega=1, gamma=1, tau=t))
                  for t in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(bounds_tau, bounds_tau[1:]))


# -- poloidal amplitude -----------------------------------------------------------


def test_btheta_flat_tube_is_pure_exponential():
    s = np.linspace(0, 2 * np.pi, 201)
    params = RopeParams(r=0.0, gamma=0.8, b_amplitude=2.0)
    tube = tube_metric_factor(params, s)
    for t in (0.0, 0.7, 2.1):
        bt = btheta_solution(params, tube, t)
        np.testing.assert_allclose(bt, 2.0 * np.exp(0.8 * t) * np.ones_like(s),
                                   rtol=1e-14)


def test_btheta_zero_growth_flat_tube_is_constant():
    s = np.linspace(0, 5, 101)
    params = RopeParams(r=0.0, gamma=0.0, kappa=0.5, tau=0.3, b_amplitude=3.0)
    tube = tube_metric_factor(params, s)
    np.testing.assert_allclose(btheta_solution(params, tube, 4.2),
                               3.0 * np.ones_like(s), rtol=1e-14)


def test_btheta_curvature_correction_is_bounded():
    # |log(B(t=0)/B0)| <= r * kappa * |total theta sweep|
    s = np.linspace(0, 2 * np.pi, 2001)
    params = RopeParams(r=0.1, gamma=1.0, tau=1.0, kappa=1.0)
    tube = tube_metric_factor(params, s)
    bt = btheta_solution(params, tube, 0.0)
    bound = 0.1 * 1.0 * (1.0 * 2 * np.pi)
    assert np.max(np.abs(np.log(bt / params.b_amplitude))) <= bound * 1.0001
    # the correction is genuinely nonzero for a fat tube
    assert np.max(np.abs(np.log(bt / params.b_amplitude))) > 1e-3


def test_btheta_time_dependence_factorizes():
    s = np.linspace(0, 2 * np.pi, 301)
    params = RopeParams(r=0.15, gamma=0.9)
    tube = tube_metric_factor(params, s)
    b1 = btheta_solution(params, tube, 1.0)
    b2 = btheta_solution(params, tube, 2.5)
    np.testing.assert_allclose(np.log(b2 / b1), 0.9 * 1.5 * np.ones_like(s),
                               rtol=1e-12)


def test_btheta_vector_time_argument():
    s = np.linspace(0, 1, 11)
    params = RopeParams(r=0.0, gamma=1.0, tau=0.0)
    tube = tube_metric_factor(params, s)
    out = btheta_solution(params, tube, np.array([0.0, 1.0]))
    assert out.shape == (2, 11)
    np.testing.assert_allclose(out[1] / out[0], np.e * np.ones(11), rtol=1e-14)


def test_btheta_thin_tube_uniform_limit():
    s = np.linspace(0, 2 * np.pi, 1001)
    devs = []
    for r in (0.2, 0.1, 0.05):
        params = RopeParams(r=r, gamma=0.5)
        tube = tube_metric_factor(params, s)
        bt = btheta_solution(params, tube, 1.0)
        devs.append(np.max(np.abs(bt / (np.exp(0.5)) - 1.0)))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] <= 0.05 * 2 * np.pi


def test_trapezoid_btheta_converges_to_the_closed_form_at_second_order():
    # B_theta was exp(gamma t - I) with I the running trapezoid rule of
    # (1 - K) over theta; I has the closed form r kappa (sin theta - sin
    # theta0), which the rule approaches as the square of the step
    from scipy.integrate import cumulative_trapezoid

    params = RopeParams(r=0.3, gamma=0.7, kappa=0.9, tau=1.3, theta0=0.4)
    errs = []
    for n in (64, 128, 256, 512):
        s = np.linspace(0.5, 0.5 + 2 * np.pi, n + 1)
        tube = tube_metric_factor(params, s)
        trapezoid = params.b_amplitude * np.exp(
            params.gamma * 1.5
            - cumulative_trapezoid(1.0 - tube.K, tube.theta, initial=0.0))
        exact = btheta_solution(params, tube, 1.5)
        errs.append(np.max(np.abs(trapezoid / exact - 1.0)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    np.testing.assert_allclose(orders, 2.0, atol=0.02)


def test_closed_forms_start_at_the_first_sample():
    s = np.linspace(0.5, 3.0, 11)
    params = RopeParams(r=0.2, kappa=0.8, tau=-1.1, theta0=0.3)
    tube = tube_metric_factor(params, s)
    np.testing.assert_allclose(tube.theta, 0.3 + 1.1 * (s - 0.5), rtol=1e-15)
    assert tube.theta[0] == 0.3
    assert btheta_solution(params, tube, 0.0)[0] == params.b_amplitude
    v = continuity_solution(params, s, 2.0)
    assert v[0] == 2.0
    np.testing.assert_allclose(v, 2.0 * np.exp(0.2 * 1.1 * 0.8 * (s - 0.5)),
                               rtol=1e-15)


@pytest.mark.parametrize("t", [np.nan, np.inf, np.array([0.0, np.nan])])
def test_btheta_rejects_non_finite_time(t):
    # a NaN time wrote a column of nan into rope.csv
    params = RopeParams(r=0.1)
    tube = tube_metric_factor(params, np.linspace(0, 1, 11))
    with pytest.raises(ValueError, match="^t must be finite, got"):
        btheta_solution(params, tube, t)


# -- continuity -------------------------------------------------------------------


def test_continuity_exact_solution_has_zero_residual():
    s = np.linspace(0, 10, 513)
    params = RopeParams(r=0.1, kappa=1.0, tau=1.0)
    v = continuity_solution(params, s)
    np.testing.assert_allclose(v, np.exp(-0.1 * s), rtol=1e-10)
    # analytic derivative: residual vanishes identically
    res = continuity_residual(params, s, v, dv_theta=-0.1 * v)
    np.testing.assert_allclose(res, np.zeros_like(s), atol=1e-14)
    # finite-difference derivative: residual at discretization level
    res_fd = continuity_residual(params, s, v)
    assert np.max(np.abs(res_fd)) <= 1e-8


def test_continuity_stencil_runs_in_linear_memory():
    # the dense len(s)^2 difference matrix took 33.8 MB at 2049 points; the
    # stencil takes a few arrays of len(s). With tau = 0 the residual is the
    # derivative, which agrees with the dense product to 1e-12 in L2: the
    # same five products per row, summed in another order
    s = np.linspace(0, 10, 2049)
    params = RopeParams(r=0.1, kappa=1.0, tau=0.0)
    v = np.exp(-0.1 * s)
    continuity_residual(params, s, v)
    tracemalloc.start()
    try:
        got = continuity_residual(params, s, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    want = z_derivative_matrix(len(s), s[1] - s[0], 1) @ v
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("s, match", [
    (np.linspace(0, 2, 200) ** 2, "uniformly spaced"),
    (np.linspace(0, 1, 4), "at least 5 points"),
    (np.linspace(1, 0, 9), "strictly increasing"),
    (np.array([0.0, 1.0, 2.0, 2.0, 3.0]), "strictly increasing"),
    (np.array([0.0, 1.0, np.nan, 3.0, 4.0]), "strictly increasing"),
    (np.linspace(0, 1, 10).reshape(2, 5), "1-D"),
])
def test_continuity_residual_rejects_unusable_s(s, match):
    # a non-uniform s was differenced with spacing s[1] - s[0]: the exact
    # solution on linspace(0, 2, 200)**2 read a residual of 33
    params = RopeParams(r=0.1, kappa=1.0, tau=1.0)
    v = np.ones(s.shape)
    with pytest.raises(ValueError, match=rf"^s must .*{match}"):
        continuity_residual(params, s, v)
    # an analytic derivative needs no differencing, so any s is accepted
    continuity_residual(params, s, v, dv_theta=np.zeros(s.shape))


@pytest.mark.parametrize("v0", [np.nan, np.inf, -np.inf])
def test_continuity_solution_rejects_non_finite_v0(v0):
    with pytest.raises(ValueError, match=r"^v0 = v_theta\(0\) must be finite"):
        continuity_solution(RopeParams(r=0.1), np.linspace(0, 1, 11), v0)


def test_continuity_constant_profile_without_twist():
    s = np.linspace(0, 5, 65)
    res = continuity_residual(RopeParams(r=0.3, kappa=1.0, tau=0.0), s,
                              np.ones_like(s))
    np.testing.assert_allclose(res, np.zeros_like(s), atol=1e-12)


def test_continuity_nonsolution_residual_is_pointwise_product():
    # v = 1 with r tau kappa = 0.1 leaves exactly 0.1 everywhere
    s = np.linspace(0, 5, 65)
    res = continuity_residual(RopeParams(r=0.1, kappa=1.0, tau=1.0), s,
                              np.ones_like(s))
    np.testing.assert_allclose(res, 0.1 * np.ones_like(s), atol=1e-12)


# -- serialization ----------------------------------------------------------------


def test_rope_csv_columns():
    s = np.linspace(0, 1, 21)
    params = RopeParams(r=0.1, gamma=1.0, kappa=1.0, tau=1.0)
    tube = tube_metric_factor(params, s)
    v = continuity_solution(params, s)
    b = btheta_solution(params, tube, 0.5)
    csv = rope_csv(params, tube, v, b)
    lines = csv.strip().split("\n")
    assert lines[0] == "s,kappa,tau,K,theta,v_theta,B_theta"
    assert len(lines) == 22
    row = lines[5].split(",")
    assert len(row) == 7
    assert float(row[1]) == 1.0


def test_rope_csv_equals_row_by_row_formatting():
    # reference: one "%.15g" row per sample, as the CSV was first written
    s = np.linspace(0, 2 * np.pi, 37)
    params = RopeParams(r=0.3, gamma=1.5, kappa=0.7, tau=-0.2, theta0=0.4)
    tube = tube_metric_factor(params, s)
    v = continuity_solution(params, s, 1.0 / 3.0)
    b = btheta_solution(params, tube, 2.5)
    want = "s,kappa,tau,K,theta,v_theta,B_theta\n" + "".join(
        ",".join("%.15g" % x for x in (tube.s[i], params.kappa, params.tau,
                                        tube.K[i], tube.theta[i], v[i], b[i]))
        + "\n" for i in range(len(s)))
    assert rope_csv(params, tube, v, b) == want
