import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framedynamo import frame_calculus
from framedynamo.differentiation import z_derivative_matrix
from framedynamo.frame_calculus import (CoframeBasis, ConformalFactor,
                                        FrameField, FrameMetric,
                                        FrameOperators, Grid3D)

LAM = 1.0


def make_ops(lam=LAM, omega=None, n_p=8, n_q=8, n_z=129, periodic=False):
    metric = FrameMetric(lam, omega or ConformalFactor.identity())
    grid = metric.grid(n_p, n_q, n_z, z_periodic=periodic)
    return metric, grid, FrameOperators(metric, grid)


def mesh(grid):
    return np.meshgrid(grid.p, grid.q, grid.z, indexing="ij")


def smooth_field(grid, seed=7):
    """Random smooth field with full p, q, z structure.

    z content is 1-periodic on periodic grids, free-form otherwise.
    """
    rng = np.random.default_rng(seed)
    P, Q, Z = mesh(grid)
    if grid.z_periodic:
        z_funcs = (np.sin(2 * np.pi * Z), np.cos(4 * np.pi * Z))
    else:
        z_funcs = (np.exp(0.5 * Z), Z ** 2 + np.sin(np.pi * Z))
    comps = []
    for _ in range(3):
        c = rng.normal(size=5)
        comps.append(c[0] * np.sin(2 * np.pi * P) * np.cos(2 * np.pi * Q)
                     + c[1] * np.cos(2 * np.pi * P) * z_funcs[0]
                     + c[2] * np.sin(2 * np.pi * Q) * z_funcs[1]
                     + c[3] * np.sin(2 * np.pi * (P + Q)) * z_funcs[0]
                     + c[4])
    return FrameField.from_components(grid, *comps)


def bcast(grid, profile):
    """Broadcast a z-profile, or a result collapsed along p and q, to the
    full grid shape for comparisons."""
    return np.broadcast_to(profile, grid.shape)


# -- conformal factor ----------------------------------------------------------


def test_identity_factor_is_exact():
    f = ConformalFactor.identity()
    z = np.linspace(0, 1, 17)
    assert np.all(f.value(z) == 1.0)
    assert np.all(f.log_derivative(z) == 0.0)
    assert f == ConformalFactor.from_constant(1.0)


def test_tabulated_factor_foot_point_matches_closed_form():
    # both families answer foot_point; v t = 0 leaves every foot at z
    zs = np.linspace(-1, 2, 301)
    f = ConformalFactor.tabulated(zs, np.exp(zs))
    assert not f.z_uniform
    z = np.linspace(0, 1, 17)
    want = ConformalFactor.exponential(1.0).foot_point(z, 1.0, 0.1)
    np.testing.assert_allclose(f.foot_point(z, 1.0, 0.1), want, rtol=0,
                               atol=1e-9)
    assert np.array_equal(f.foot_point(z, 0.0, 0.1), z)


# 15 knots on [-3, 4] with samples in [0.5, 1.5]: the feet of z in [0, 1]
# at |v t| <= 0.5 lie well inside the knots, where such a spline is positive
_FOOT_KNOTS = np.linspace(-3.0, 4.0, 15)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(values=st.lists(st.floats(0.5, 1.5), min_size=15, max_size=15),
       v=st.floats(-2.0, 2.0), t=st.floats(0.0, 0.25))
def test_tabulated_foot_point_inverts_the_antiderivative(values, v, t):
    # F(z) - F(z0) = v t at F's round-off, with the foot upstream of z
    f = ConformalFactor.tabulated(_FOOT_KNOTS, np.array(values))
    z = np.linspace(0.0, 1.0, 33)
    z0 = f.foot_point(z, v, t)
    if v * t == 0:
        assert np.array_equal(z0, z)
    assert np.all(np.isfinite(z0))
    Fz = f.spline(z, -1)
    np.testing.assert_array_less(
        np.abs(Fz - f.spline(z0, -1) - v * t),
        16 * np.finfo(float).eps * (np.abs(Fz) + abs(v * t)) + 1e-300)
    assert np.all(np.sign(v * t) * (z - z0) >= 0)


def _feet_one_at_a_time(f, z, v, t):
    return np.array([f.foot_point(np.array([zi]), v, t)[0] for zi in z])


def _assert_feet_on_the_knots(f, z, z0, vt, rounded_foot=False):
    # every finite foot lies on the knots and inverts F at its round-off;
    # with rounded_foot, also at the change Omega(z0) ulp(z0) of F that
    # rounding z0 itself makes, which dominates where F(z) and v t are
    # both small (a foot near the first knot, where F = 0)
    ok = np.isfinite(z0)
    z, z0 = z[ok], z0[ok]
    assert np.all((z0 >= f.spline.x[0]) & (z0 <= f.spline.x[-1]))
    Fz = f.spline(z, -1)
    scale = np.abs(Fz) + abs(vt)
    if rounded_foot:
        scale = scale + f.value(z0) * np.abs(z0)
    np.testing.assert_array_less(np.abs(Fz - f.spline(z0, -1) - vt),
                                 16 * np.finfo(float).eps * scale + 1e-300)


def test_tabulated_feet_do_not_depend_on_the_batch():
    # positive on its knots (min 0.3687), but its last end piece falls to
    # <= 0 from z ~ 4.646; a foot once hung on the smallest Omega and the
    # farthest path of the whole call, so this batch lost all its feet
    f = ConformalFactor.tabulated([-1.0109, 1.9239, 2.2762, 2.9426, 3.749],
                                  [0.3687, 1.0436, 0.4844, 1.0699, 2.3253])
    assert f.spline(4.65) <= 0
    vt = -5.8684050656229525
    z = np.array([-0.1953, -0.658, 2.8338, 3.4278, 0.9423, 0.0135, 3.2021,
                  -0.74, 0.6406, 2.8221, 2.4703, 2.6158, 1.2777, 2.3393,
                  0.4367, 3.1085, 2.7396])
    z0 = f.foot_point(z, vt, 1.0)
    np.testing.assert_array_equal(z0, _feet_one_at_a_time(f, z, vt, 1.0))
    assert np.count_nonzero(np.isfinite(z0)) == 6
    assert z0[0] == pytest.approx(0.818741, abs=1e-6)
    _assert_feet_on_the_knots(f, z, z0, vt)


# about half the drawn splines are not positive on their knots and are
# rejected, so 100 examples test about 50 factors
@settings(derandomize=True, deadline=None, max_examples=100)
@given(start=st.floats(-3.0, 1.0),
       gaps=st.lists(st.floats(0.1, 1.5), min_size=3, max_size=9),
       values=st.lists(st.floats(0.1, 3.0), min_size=10, max_size=10),
       at=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
       vt=st.floats(-6.0, 6.0))
def test_tabulated_feet_equal_the_feet_of_each_point_alone(start, gaps,
                                                           values, at, vt):
    knots = start + np.concatenate([[0.0], np.cumsum(gaps)])
    try:
        f = ConformalFactor.tabulated(knots, values[:knots.size])
    except ValueError:
        return  # not positive on its knots
    z = knots[0] + np.array(at) * (knots[-1] - knots[0])
    z0 = f.foot_point(z, vt, 1.0)
    np.testing.assert_array_equal(z0, _feet_one_at_a_time(f, z, vt, 1.0))
    _assert_feet_on_the_knots(f, z, z0, vt, rounded_foot=True)


def test_tabulated_factor_is_positive_on_its_knots_and_read_only_there():
    # positive at every knot, but the spline dips to -0.252 between the
    # first two knots and, by symmetry, between the last two
    with pytest.raises(ValueError, match=r"positive on its knots \[0, 4\], "
                                         r"its spline reaches -0\.252"):
        ConformalFactor.tabulated(np.arange(5.0), [2, 0.1, 2, 0.1, 2])
    f = ConformalFactor.tabulated(np.linspace(0.0, 1.0, 11),
                                  np.exp(np.linspace(0.0, 1.0, 11)))
    f.value(np.array([0.0, 1.0]))
    for z in ([0.5, 1.5], [-1e-12, 0.5]):
        with pytest.raises(ValueError, match=r"data only on its knots "
                                             r"\[0, 1\], got z in"):
            f.value(np.array(z))
    with pytest.raises(ValueError, match=r"data only on its knots \[0, 1\]"):
        f.foot_point(np.array([0.5, 1.5]), 1.0, 0.1)


def test_exponential_factor_log_derivative_is_constant():
    f = ConformalFactor.exponential(0.7)
    z = np.linspace(0, 1, 17)
    np.testing.assert_allclose(f.value(z), np.exp(0.7 * z), rtol=1e-14)
    assert np.all(f.log_derivative(z) == 0.7)


def test_tabulated_factor_tracks_samples():
    z = np.linspace(0, 1, 201)
    f = ConformalFactor.tabulated(z, np.exp(0.5 * z))
    zq = np.linspace(0.05, 0.95, 31)
    np.testing.assert_allclose(f.value(zq), np.exp(0.5 * zq), rtol=1e-8)
    np.testing.assert_allclose(f.log_derivative(zq), 0.5, atol=1e-6)


def test_tabulated_sqrt_profile_matches_closed_form_on_a_cubic():
    # a not-a-knot cubic spline reproduces a cubic Omega exactly, so w, w'
    # and w'' have closed forms; w'' is checked between and at the knots
    om = lambda z: 1 + 0.2 * z + 0.1 * z ** 2 + 0.05 * z ** 3
    d1 = lambda z: 0.2 + 0.2 * z + 0.15 * z ** 2
    d2 = lambda z: 0.2 + 0.3 * z
    f = ConformalFactor.tabulated(np.linspace(-1.0, 2.0, 61),
                                  om(np.linspace(-1.0, 2.0, 61)))
    z = np.linspace(-1.0, 2.0, 1001)
    w, dw, d2w = f.sqrt_profile(z)
    dlog = d1(z) / om(z)
    np.testing.assert_allclose(w, np.sqrt(om(z)), rtol=0, atol=1e-15)
    np.testing.assert_allclose(dw, 0.5 * w * dlog, rtol=0, atol=1e-13)
    np.testing.assert_allclose(d2w, 0.5 * w * (d2(z) / om(z) - 0.5 * dlog ** 2),
                               rtol=0, atol=2e-12)


def test_factor_rejects_nonpositive_values():
    with pytest.raises(ValueError):
        ConformalFactor.from_constant(-2.0)
    with pytest.raises(ValueError):
        ConformalFactor.tabulated(np.array([0.0, 0.5, 1.0]),
                                  np.array([1.0, -0.1, 1.0]))


def test_tabulated_factor_rejects_bad_samples_by_name():
    z = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="values must be finite"):
        ConformalFactor.tabulated(z, np.array([1.0, np.nan, 1.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="z_samples.*strictly increasing"):
        ConformalFactor.tabulated(z[::-1], np.ones(5))
    with pytest.raises(ValueError, match="z_samples.*at least 4"):
        ConformalFactor.tabulated(z[:3], np.ones(3))


@pytest.mark.parametrize("spec, built", [
    ("identity", ConformalFactor.identity()),
    ("constant:4", ConformalFactor.from_constant(4.0)),
    ("constant:0.25", ConformalFactor.from_constant(0.25)),
    ("exponential:0.5", ConformalFactor.exponential(0.5)),
    ("exponential:-1.2", ConformalFactor.exponential(-1.2)),
])
def test_factor_from_spec_equals_its_classmethod(spec, built):
    z = np.linspace(-1.0, 2.0, 13)
    for key in ("omega", "metric"):
        got = ConformalFactor.from_spec(spec, key)
        assert got == built
        assert np.array_equal(got.value(z), built.value(z))
        assert np.array_equal(got.log_derivative(z), built.log_derivative(z))


@pytest.mark.parametrize("key", ["omega", "metric"])
@pytest.mark.parametrize("spec, text", [
    ("constant:abc", "expected constant:<c> with a number c"),
    ("constant:", "expected constant:<c> with a number c"),
    ("exponential:1e", "expected exponential:<a> with a number a"),
    ("bogus", "expected identity, constant:<c> or exponential:<a>"),
    ("Identity", "expected identity, constant:<c> or exponential:<a>"),
    ("tabulated:1", "expected identity, constant:<c> or exponential:<a>"),
])
def test_factor_from_spec_names_the_key(key, spec, text):
    with pytest.raises(ValueError,
                       match=re.escape(f"{key}: {text}, got {spec!r}") + "$"):
        ConformalFactor.from_spec(spec, key)



@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_factor_rejects_non_finite_parameters(bad):
    # inf used to construct, and evaluation then warned on inf * 0
    with pytest.raises(ValueError, match="factor must be positive and finite"):
        ConformalFactor.from_constant(bad)
    with pytest.raises(ValueError, match="exponent must be finite, got"):
        ConformalFactor.exponential(bad)


@pytest.mark.parametrize("spec", ["exponential:inf", "exponential:-inf",
                                  "exponential:nan", "constant:inf",
                                  "constant:nan"])
def test_factor_from_spec_rejects_non_finite_numbers(spec):
    with pytest.raises(ValueError, match="must be (positive and )?finite"):
        ConformalFactor.from_spec(spec, "omega")

# -- metric ---------------------------------------------------------------------


def test_trivial_factor_reproduces_exponential_scale_factors():
    m = FrameMetric(2.0)
    z = np.linspace(0, 1, 9)
    h1, h2, h3 = m.scale_factors(z)[0]
    assert np.all(h1 == np.exp(-2.0 * z))
    assert np.all(h2 == np.exp(2.0 * z))
    assert np.all(h3 == 1.0)


@pytest.mark.parametrize("lam, omega", [
    (800.0, ConformalFactor.identity()),     # e^{800 z} overflows
    (-800.0, ConformalFactor.identity()),    # e^{800 z} overflows, h1 too
    (1e300, ConformalFactor.identity()),     # inf * 0 in h'' of the z leg
    (1.0, ConformalFactor.exponential(1600.0)),  # w = e^{800 z} overflows
])
def test_scale_factors_reject_what_overflows_without_a_warning(lam, omega):
    # they warned "overflow encountered in exp" and returned inf and NaN,
    # so a DynamoScenario with lam = 800 sampled NaN norms
    z = np.linspace(0, 1, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^lam=.*: scale factors must "
                           "be finite and positive"):
            FrameMetric(lam, omega).scale_factors(z)


def test_metric_determinant_is_product_of_squares():
    m = FrameMetric(1.3, ConformalFactor.exponential(0.4))
    z = np.linspace(0, 1, 9)
    h1, h2, h3 = m.scale_factors(z)[0]
    np.testing.assert_allclose((h1 * h2 * h3) ** 2, np.exp(0.4 * z) ** 3,
                               rtol=1e-13)


def test_metric_rejects_nonpositive_factor_on_range():
    # positive on its knots, but the grid's z range extends past them,
    # where the spline's extrapolation is not data
    tab = ConformalFactor.tabulated(np.linspace(0, 1, 21),
                                    1.0 - 0.95 * np.linspace(0, 1, 21))
    metric = FrameMetric(1.0, tab)
    with pytest.raises(ValueError, match=r"data only on its knots \[0, 1\]"):
        FrameOperators(metric, Grid3D(4, 4, 33, z_min=0.0, z_max=2.0))
    FrameOperators(metric, Grid3D(4, 4, 33))
    with pytest.raises(ValueError, match="must be positive"):
        FrameMetric(1.0, ConformalFactor(constant=-1.0))


# -- grid -----------------------------------------------------------------------


def test_grid_rejects_too_few_points():
    with pytest.raises(ValueError):
        Grid3D(4, 4, 4)
    with pytest.raises(ValueError):
        Grid3D(1, 4, 64)


@pytest.mark.parametrize("z_max", [0.0, -1.0, np.nan])
def test_grid_rejects_empty_z_range(z_max):
    with pytest.raises(ValueError, match="z range.*empty"):
        Grid3D(4, 4, 16, z_min=0.0, z_max=z_max)


def test_grid_spacing_conventions():
    closed = Grid3D(4, 4, 11)
    assert closed.dz == pytest.approx(0.1)
    assert closed.z[-1] == 1.0
    periodic = Grid3D(4, 4, 10, z_periodic=True)
    assert periodic.dz == pytest.approx(0.1)
    assert periodic.z[-1] == pytest.approx(0.9)


# -- gradient -------------------------------------------------------------------


def test_grad_flat_reduces_to_cartesian():
    # lam = 0: grad f = (dp f, dq f, dz f)
    metric, grid, op = make_ops(lam=0.0)
    P, _, _ = mesh(grid)
    g = op.grad(np.sin(2 * np.pi * P))
    np.testing.assert_allclose(g.bp, 2 * np.pi * np.cos(2 * np.pi * P), atol=1e-10)
    np.testing.assert_allclose(g.bq, 0.0, atol=1e-10)
    np.testing.assert_allclose(g.bz, 0.0, atol=1e-10)


def test_grad_z_slot_is_plain_z_derivative():
    metric, grid, op = make_ops(lam=1.0)
    _, _, Z = mesh(grid)
    g = op.grad(Z.copy())
    np.testing.assert_allclose(g.bz, 1.0, atol=1e-10)
    np.testing.assert_allclose(g.bp, 0.0, atol=1e-12)
    np.testing.assert_allclose(g.bq, 0.0, atol=1e-12)


def test_grad_conformal_frame_normalization():
    # q-slot picks up Omega^{-1/2} e^{-lam z}; at z = 0 the factor is 1
    metric, grid, op = make_ops(lam=1.0, omega=ConformalFactor.exponential(1.0))
    _, Q, Z = mesh(grid)
    g = op.grad(np.sin(2 * np.pi * Q))
    expect = np.exp(-0.5 * Z) * np.exp(-Z) * 2 * np.pi * np.cos(2 * np.pi * Q)
    np.testing.assert_allclose(g.bq, expect, atol=1e-10)
    np.testing.assert_allclose(
        g.bq[:, :, 0],
        np.broadcast_to(2 * np.pi * np.cos(2 * np.pi * grid.q), (8, 8)),
        atol=1e-12)


def test_grad_rejects_nonfinite_input():
    metric, grid, op = make_ops()
    f = np.zeros(grid.shape)
    f[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        op.grad(f)


# -- divergence -----------------------------------------------------------------


def test_div_of_unit_frame_fields_vanishes():
    metric, grid, op = make_ops(lam=1.0)
    for axis in range(3):
        res = op.div(FrameField.unit(grid, axis))
        np.testing.assert_allclose(res, 0.0, atol=1e-11)


def test_div_linear_z_slot():
    metric, grid, op = make_ops(lam=1.0)
    _, _, Z = mesh(grid)
    B = FrameField.from_components(grid, 0.0, 0.0, Z)
    np.testing.assert_allclose(op.div(B), np.ones(grid.shape), atol=1e-9)


def test_div_conformal_unit_z_matches_closed_form():
    # Omega = e^{az}: div e_z = a e^{-a z / 2}
    a = 1.0
    metric, grid, op = make_ops(lam=1.0, omega=ConformalFactor.exponential(a))
    res = op.div(FrameField.unit(grid, 2))
    np.testing.assert_allclose(bcast(grid, res),
                               bcast(grid, a * np.exp(-a * grid.z / 2)),
                               atol=1e-12)


def test_div_conformal_z_profile_against_analytic_formula():
    # div (0,0,f(z)) = Omega^{-3/2} (Omega f)' for any smooth f
    a = 0.8
    metric, grid, op = make_ops(lam=0.7, omega=ConformalFactor.exponential(a))
    z = grid.z
    f = np.sin(2 * np.pi * z)
    df = 2 * np.pi * np.cos(2 * np.pi * z)
    B = FrameField.from_components(grid, 0.0, 0.0, f)
    om = np.exp(a * z)
    expect = om ** -1.5 * (a * om * f + om * df)
    np.testing.assert_allclose(op.div(B), bcast(grid, expect),
                               rtol=1e-5, atol=1e-5)


# -- curl -----------------------------------------------------------------------


def test_curl_unit_p_is_minus_lam_unit_q():
    metric, grid, op = make_ops(lam=1.0)
    res = op.curl(FrameField.unit(grid, 0))
    np.testing.assert_allclose(res.bq, -1.0, atol=1e-12)
    np.testing.assert_allclose(res.bp, 0.0, atol=1e-12)
    np.testing.assert_allclose(res.bz, 0.0, atol=1e-12)


def test_curl_unit_q_sign_against_coordinate_oracle():
    """The q-slot curl carries the same minus sign as the p-slot one.

    Coordinate oracle: V = e_q has covariant components V_q = h_q, so
    (curl V)^p = -dz(h_q)/sqrt(g) and the frame p-component is
    -h_p h_q'/sqrt(g) = -lam for the trivial factor. The p<->q swap flips
    orientation, which is why no sign flip appears.
    """
    lam = 1.0
    metric, grid, op = make_ops(lam=lam)
    z = grid.z
    (h1, h2, h3), (_, dh2, _), _ = metric.scale_factors(z)
    oracle_p = -h1 * dh2 / (h1 * h2 * h3)
    np.testing.assert_allclose(oracle_p, np.full_like(z, -lam), atol=1e-12)
    res = op.curl(FrameField.unit(grid, 1))
    np.testing.assert_allclose(bcast(grid, res.bp), bcast(grid, oracle_p),
                               atol=1e-12)
    np.testing.assert_allclose(bcast(grid, res.bq), np.zeros(grid.shape),
                               atol=1e-12)


def test_curl_unit_z_vanishes():
    metric, grid, op = make_ops(lam=1.0)
    res = op.curl(FrameField.unit(grid, 2))
    np.testing.assert_allclose(res.data, 0.0, atol=1e-12)


def test_curl_flat_constant_field_vanishes():
    metric, grid, op = make_ops(lam=0.0)
    res = op.curl(FrameField.from_components(grid, 0.3, -1.2, 2.5))
    np.testing.assert_allclose(res.data, 0.0, atol=1e-12)


def test_curl_conformal_unit_q_matches_closed_form():
    # Omega = e^{az}: (curl e_q)_p = -(a/2 + lam) e^{-a z/2}
    a, lam = 1.0, 1.0
    metric, grid, op = make_ops(lam=lam, omega=ConformalFactor.exponential(a))
    res = op.curl(FrameField.unit(grid, 1))
    np.testing.assert_allclose(
        bcast(grid, res.bp),
        bcast(grid, -(a / 2 + lam) * np.exp(-a * grid.z / 2)), atol=1e-12)


def test_operators_take_any_coframe():
    # the stretched_half coframe (1, e^{lam z}, e^{lam z/2}) is no
    # FrameMetric: c_p = 0 and c_q = lam e^{-lam z/2}, so
    # (curl e_q)_p = -c_q, curl e_p = 0 and div e_z = c_p + c_q
    lam = 1.3
    grid = Grid3D(4, 4, 65)
    op = FrameOperators(CoframeBasis.exponential((0.0, lam, lam / 2)), grid)
    c_q = bcast(grid, lam * np.exp(-lam * grid.z / 2))
    np.testing.assert_allclose(
        bcast(grid, op.curl(FrameField.unit(grid, 1)).bp), -c_q, atol=1e-12)
    np.testing.assert_allclose(op.curl(FrameField.unit(grid, 0)).data, 0.0,
                               atol=1e-12)
    np.testing.assert_allclose(
        bcast(grid, op.div(FrameField.unit(grid, 2))), c_q, atol=1e-12)


# -- vector laplacian -----------------------------------------------------------


@pytest.mark.parametrize("lam", [1.0, 2.0])
def test_vector_laplacian_frame_eigenrelations(lam):
    metric, grid, op = make_ops(lam=lam, n_z=128)
    for axis, expect in ((0, -lam ** 2), (1, -lam ** 2), (2, 0.0)):
        e = FrameField.unit(grid, axis)
        res = op.vector_laplacian(e)
        np.testing.assert_allclose(res.data, expect * e.data,
                                   atol=1e-6 * lam ** 2)


@pytest.mark.parametrize("omega", [None, ConformalFactor.exponential(0.8)],
                         ids=["identity", "exponential"])
@pytest.mark.parametrize("periodic", [False, True], ids=["closed", "periodic"])
def test_collapsed_unit_fields_match_the_full_grid(omega, periodic):
    # a unit field is stored (3, 1, 1, n_z); materialised on the full grid
    # it takes the p,q paths of every operator. The two differ only in the
    # order d1 sums a constant row (one row, or n_p n_q rows): by the
    # round-off of one d1 in curl and div, of two in the vector Laplacian
    metric, grid, op = make_ops(lam=2.0, omega=omega, n_z=128,
                                periodic=periodic)
    d1 = 1 + np.abs(op.d1).sum(axis=1).max()
    eps = np.finfo(float).eps
    for axis in range(3):
        e = FrameField.unit(grid, axis)
        assert e.data.shape == (3, 1, 1, grid.n_z)
        full = FrameField(grid, np.ascontiguousarray(
            np.broadcast_to(e.data, (3, *grid.shape))))
        for apply, tol in ((lambda B: op.curl(B).data, 4 * eps * d1),
                           (op.div, 4 * eps * d1),
                           (lambda B: op.vector_laplacian(B).data,
                            4 * eps * d1 ** 2)):
            got, want = apply(e), apply(full)
            assert got.shape[-3:-1] == (1, 1)
            np.testing.assert_allclose(np.broadcast_to(got, want.shape), want,
                                       rtol=0, atol=tol)


# -- structure properties ---------------------------------------------------------


def test_flat_reduction_matches_cartesian_operators():
    """lam=0, trivial factor: all operators equal plain Cartesian stencils."""
    from framedynamo.differentiation import spectral_derivative, z_derivative_matrix

    metric, grid, op = make_ops(lam=0.0, n_z=65)
    B = smooth_field(grid)
    D1 = z_derivative_matrix(grid.n_z, grid.dz, 1)

    def dz(f):
        return np.tensordot(f, D1, axes=(2, 1))

    cart_div = (spectral_derivative(B.bp, 0) + spectral_derivative(B.bq, 1)
                + dz(B.bz))
    np.testing.assert_allclose(op.div(B), cart_div, atol=1e-12)
    cart_curl_p = spectral_derivative(B.bz, 1) - dz(B.bq)
    np.testing.assert_allclose(op.curl(B).bp, cart_curl_p, atol=1e-12)


def test_div_of_curl_converges_to_zero():
    residuals = []
    for n_z in (65, 129):
        metric, grid, op = make_ops(lam=0.8, n_z=n_z)
        B = smooth_field(grid, seed=3)
        c = op.curl(B)
        residuals.append(op.l2_norm(op.div(c)) / max(op.l2_norm(c.data), 1e-30))
    assert residuals[0] < 1e-4
    assert residuals[0] / residuals[1] > 8  # ~4th-order decay


def test_div_of_curl_periodic_z_uniform_metric():
    # periodic z is meant for z-uniform metric coefficients (lam = 0 or
    # constant factors); there the discrete mixed partials commute exactly
    metric, grid, op = make_ops(lam=0.0, n_z=64, periodic=True,
                                omega=ConformalFactor.from_constant(2.0))
    B = smooth_field(grid, seed=3)
    c = op.curl(B)
    assert op.l2_norm(op.div(c)) / op.l2_norm(c.data) < 1e-13


def test_curl_of_grad_converges_to_zero():
    residuals = []
    for n_z in (65, 129):
        metric, grid, op = make_ops(lam=0.8, n_z=n_z)
        f = smooth_field(grid, seed=5).bp
        g = op.grad(f)
        residuals.append(op.l2_norm(op.curl(g).data) / max(op.l2_norm(g.data), 1e-30))
    assert residuals[0] < 5e-4
    assert residuals[0] / residuals[1] > 8


def test_identity_factor_pipeline_is_bit_identical_to_base():
    base = FrameMetric(1.1)
    unit = FrameMetric(1.1, ConformalFactor.from_constant(1.0))
    grid = base.grid(8, 8, 65)
    op_base = FrameOperators(base, grid)
    op_unit = FrameOperators(unit, grid)
    for name in ("c_div", "c_curl_p", "c_curl_q"):
        assert np.array_equal(getattr(op_base, name), getattr(op_unit, name))
    B = smooth_field(grid, seed=11)
    assert np.array_equal(op_base.curl(B).data, op_unit.curl(B).data)
    assert np.array_equal(op_base.div(B), op_unit.div(B))


def test_operators_do_not_mutate_inputs():
    metric, grid, op = make_ops()
    B = smooth_field(grid)
    before = B.data.copy()
    op.curl(B)
    op.div(B)
    op.vector_laplacian(B)
    assert np.array_equal(B.data, before)


def test_field_shape_validation():
    grid = Grid3D(4, 4, 33)
    with pytest.raises(ValueError):
        FrameField(grid, np.zeros((3, 4, 4, 32)))


@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "closed"])
@pytest.mark.parametrize("keep", [(1, 1), (1, None), (None, 1), (None, None)],
                         ids=["p-and-q", "p", "q", "neither"])
def test_collapsed_pq_axes_give_the_full_grid_figures(keep, periodic):
    # a field constant along p and/or q, stored with that axis at length 1,
    # has the norms and the div of its full-grid broadcast
    metric, grid, op = make_ops(n_p=6, n_q=4, n_z=33, periodic=periodic)
    full = smooth_field(grid).data[:, :keep[0], :keep[1]]
    full = np.ascontiguousarray(np.broadcast_to(full, (3, *grid.shape)))
    short = full[:, :keep[0], :keep[1]]
    B, b = FrameField(grid, full), FrameField(grid, short)
    np.testing.assert_allclose(op.component_norms(b),
                               op.component_norms(B), rtol=1e-13)
    assert op.l2_norm(short) == pytest.approx(op.l2_norm(full), rel=1e-13)
    div_full, div_short = op.div(B), op.div(b)
    assert div_short.shape == short.shape[1:]
    np.testing.assert_allclose(np.broadcast_to(div_short, grid.shape),
                               div_full, rtol=0,
                               atol=1e-12 * np.max(np.abs(div_full)))


def test_norms_reject_pq_axes_of_another_length():
    _, grid, op = make_ops(n_p=6, n_q=4, n_z=33)
    with pytest.raises(ValueError, match="grid"):
        op.l2_norm(np.ones((3, 6, 2, 33)))
    with pytest.raises(ValueError, match="grid"):
        FrameField(grid, np.ones((3, 3, 4, 33)))


@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "closed"])
def test_operators_on_one_grid_share_read_only_z_matrices(periodic):
    _, grid, a = make_ops(n_z=64, periodic=periodic)
    b = FrameOperators(FrameMetric(0.5), grid)
    assert a.d1 is b.d1 and a.d2 is b.d2
    for order, d in ((1, a.d1), (2, a.d2)):
        assert np.array_equal(d, z_derivative_matrix(grid.n_z, grid.dz, order,
                                                     periodic))
        with pytest.raises(ValueError):
            d[0, 0] = 1.0
    # a matrix of its own for every other z grid
    other = FrameOperators(FrameMetric(LAM),
                           Grid3D(8, 8, 65, z_periodic=periodic))
    assert other.d1 is not a.d1 and other.d1.shape == (65, 65)


@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "closed"])
@pytest.mark.parametrize("lead", [(), (1, 1), (8, 8), (3, 1, 1), (3, 8, 8),
                                  (3, 4, 1)],
                         ids=lambda s: "x".join(map(str, s)) or "1d")
def test_dz_dzz_equal_tensordot_bit_for_bit(lead, periodic):
    _, grid, op = make_ops(n_z=64, periodic=periodic)
    f = np.random.default_rng(3).normal(size=(*lead, grid.n_z))
    for deriv, d in ((op.dz, op.d1), (op.dzz, op.d2)):
        out = deriv(f)
        assert out.shape == f.shape
        assert np.array_equal(out, np.tensordot(f, d, axes=(f.ndim - 1, 1)))


@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "closed"])
@pytest.mark.parametrize("keep", [(1, 1), (1, None), (None, 1), (None, None)],
                         ids=["p-and-q", "p", "q", "neither"])
@pytest.mark.parametrize("size", [(6, 4, 33), (32, 32, 128)],
                         ids=["6x4x33", "32x32x128"])
@pytest.mark.parametrize("k", [1, 3])
def test_stacked_div_and_norms_equal_single_calls_bit_for_bit(k, size, keep,
                                                              periodic):
    # fields stacked on a leading axis, at collapsed and full-grid shapes,
    # get exactly the figures of one call per field
    _, grid, op = make_ops(n_p=size[0], n_q=size[1], n_z=size[2],
                           periodic=periodic)
    n_p, n_q = (kept or n for kept, n in zip(keep, size))
    stack = np.random.default_rng(k).normal(size=(k, 3, n_p, n_q, grid.n_z))
    fields = [FrameField(grid, data) for data in stack]
    div = op.div(stack)
    assert div.shape == (k, n_p, n_q, grid.n_z)
    assert np.array_equal(div, np.stack([op.div(f) for f in fields]))
    assert np.array_equal(op.component_norms(stack),
                          np.stack([op.component_norms(f) for f in fields]))
    # a stack of one-component fields: the figures of l2_norm
    assert np.array_equal(op.component_norms(div[:, None])[:, 0],
                          [op.l2_norm(d) for d in div])


def four_term_div(op, data):
    """div as the sum of all four terms, none skipped: the reference for
    the terms `FrameOperators.div` leaves out."""
    bp, bq, bz = (data[..., c, :, :, :] for c in range(3))
    per_field = (-1, bz.shape[-3] * bz.shape[-2], bz.shape[-1])
    return (op.inv_h[0] * op.dp(bp)
            + op.inv_h[1] * op.dq(bq)
            + op.inv_h[2] * np.matmul(bz.reshape(per_field),
                                      op.d1.T).reshape(bz.shape)
            + op.c_div * bz)


@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "closed"])
@pytest.mark.parametrize("keep", [(1, 1), (1, None), (None, 1), (None, None)],
                         ids=["p-and-q", "p", "q", "neither"])
@pytest.mark.parametrize("zero", [(), (0,), (1,), (2,), (0, 2), (0, 1, 2),
                                  "bz-of-one-field"],
                         ids=lambda z: "-".join(map(str, z)) if isinstance(
                             z, tuple) else z)
def test_div_skips_only_terms_that_are_exactly_zero(zero, keep, periodic,
                                                    monkeypatch):
    # stacks with all-zero components and collapsed p or q axes: the terms
    # div leaves out change no figure of the four-term sum, for the stack
    # and for each field alone
    _, grid, op = make_ops(n_p=6, n_q=4, n_z=33, periodic=periodic)
    n_p, n_q = (kept or n for kept, n in zip(keep, grid.shape))
    stack = np.random.default_rng(5).normal(size=(3, 3, n_p, n_q, grid.n_z))
    if zero == "bz-of-one-field":
        stack[1, 2] = 0.0
    else:
        stack[:, list(zero)] = 0.0
    calls = []
    derivative = frame_calculus.spectral_derivative
    monkeypatch.setattr(frame_calculus, "spectral_derivative",
                        lambda f, axis, **kw: calls.append(axis)
                        or derivative(f, axis, **kw))
    div = op.div(stack)
    # a dp or dq term is formed only for a live component; along an axis of
    # one point `spectral_derivative` gives its exact zeros with no matmul
    live = [c for c in range(3) if stack[:, c].any()]
    assert calls == [axis for c, axis in ((0, -3), (1, -2)) if c in live]
    assert div.shape == (3, n_p, n_q, grid.n_z)
    assert np.array_equal(div, four_term_div(op, stack))
    for data in stack:
        assert np.array_equal(op.div(data), four_term_div(op, data))
        assert np.array_equal(op.div(FrameField(grid, data)),
                              four_term_div(op, data))


@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "closed"])
@pytest.mark.parametrize("components", [slice(0, 0), slice(1, 2), slice(2, 3),
                                        slice(0, 2), slice(0, 3, 2),
                                        slice(0, 3)],
                         ids=lambda c: f"{c.start}:{c.stop}:{c.step or 1}")
def test_div_of_the_held_components_is_that_of_the_field(components,
                                                         periodic):
    # a stack that holds some components has the divergence, bit for bit,
    # of the fields whose other components are 0
    _, grid, op = make_ops(n_p=6, n_q=4, n_z=33, periodic=periodic)
    full = np.random.default_rng(6).normal(size=(5, 3, *grid.shape))
    held = range(3)[components]
    full[:, [c for c in range(3) if c not in held]] = 0.0
    stack = np.ascontiguousarray(full[:, components])
    div = op.div(stack, components)
    assert div.shape == (5, *grid.shape)
    assert np.array_equal(div, op.div(full))
    assert np.array_equal(div, four_term_div(op, full))
    for data, one in zip(stack, div):
        assert np.array_equal(op.div(data, components), one)
    with pytest.raises(ValueError, match=rf"is not \(\.\.\., {len(held)}, "):
        op.div(full[:, :len(held) - 1] if held else full, components)


# stacks as `evolve` holds them: 215 states at collapsed and full p, q shapes
@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "closed"])
@pytest.mark.parametrize("pq", [(1, 1), (4, 1), (4, 4)],
                         ids=["1x1", "4x1", "4x4"])
def test_component_norms_depend_on_the_component_count_as_documented(
        pq, periodic):
    # C = 1 gives the figures of l2_norm, and the two rows of C = 2 those of
    # the first two rows of C = 3
    _, grid, op = make_ops(n_p=4, n_q=4, n_z=128, periodic=periodic)
    stack = np.random.default_rng(7).normal(size=(215, 3, *pq, grid.n_z))
    three = op.component_norms(stack)
    two = op.component_norms(np.ascontiguousarray(stack[:, :2]))
    assert np.array_equal(two, three[:, :2])
    for c in range(3):
        one = op.component_norms(np.ascontiguousarray(stack[:, c:c + 1]))
        assert np.array_equal(one[:, 0], [op.l2_norm(f[c]) for f in stack])


@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "closed"])
def test_norms_of_a_field_past_1e154_are_finite_where_it_is_weighted(
        periodic):
    # a closed grid weighs only the interior third of z: an entry of 1e200
    # outside it, whose square overflows, used to read NaN (0 * inf) and
    # warn; the norms are those of the field without it, bit for bit
    _, grid, op = make_ops(n_p=4, n_q=4, n_z=30, periodic=periodic)
    ones = np.ones((3, *grid.shape))
    for z in (0, 12):  # outside and inside the interior third
        data = ones.copy()
        data[1, 0, 0, z] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms, total = op.component_norms(data), op.l2_norm(data)
        assert np.isfinite(norms).all() and np.isfinite(total)
        if z < grid.n_z // 3 and not periodic:
            assert np.array_equal(norms, op.component_norms(ones))
            assert total == op.l2_norm(ones)
        else:
            # the spike's own norm: one of 4 x 4 p,q points at one z point
            spike = 1e200 * np.sqrt(op.measure[z] / 16)
            assert norms[1] == pytest.approx(spike, rel=1e-15)
            assert total == pytest.approx(spike, rel=1e-15)


@pytest.mark.parametrize("method", ["div", "curl", "vector_laplacian",
                                    "component_norms"])
def test_operators_reject_a_field_from_another_grid_of_the_same_shape(method):
    # a field on [0, 3] has the shape of one on [0, 1], but not its dz
    _, grid, op = make_ops(n_p=4, n_q=4, n_z=64, periodic=True)
    other = Grid3D(4, 4, 64, z_max=3.0, z_periodic=True)
    assert other.shape == grid.shape and other != grid
    with pytest.raises(ValueError, match=re.escape(f"on {other}, not on {grid}")):
        getattr(op, method)(smooth_field(other))


def test_div_rejects_arrays_that_are_not_three_component_fields():
    _, grid, op = make_ops(n_p=6, n_q=4, n_z=33)
    for shape in [(2, 6, 4, 33), (6, 4, 33), (2, 3, 6, 2, 33)]:
        with pytest.raises(ValueError):
            op.div(np.ones(shape))
