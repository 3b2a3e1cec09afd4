import itertools
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framedynamo.exterior_geometry import (christoffel_oracle,
                                           comparison_table, curvature,
                                           curvature_comparison,
                                           frame_connection_oracle,
                                           named_coframe, solve_connection)
from framedynamo.frame_calculus import (CoframeBasis, ConformalFactor,
                                        FrameMetric)

Z = np.linspace(0.0, 1.0, 65)
ZS_WIDE = np.linspace(-1.0, 2.0, 301)  # spline knots that cover Z
LAM = 1.0

# expected frame curvature of the plain stretch metric (e^{-lam z}, e^{lam z}, 1),
# tabulated with an independent brute-force symbolic computation before the
# build: R^p_qpq = lam^2, R^p_zpz = R^q_zqz = -lam^2 (all z-independent)
ARNOLD_COMPONENTS = {
    (0, 1, 0, 1): 1.0,
    (0, 2, 0, 2): -1.0,
    (1, 0, 0, 1): -1.0,
    (1, 2, 1, 2): -1.0,
    (2, 0, 0, 2): 1.0,
    (2, 1, 1, 2): 1.0,
}


# -- coframe coefficients --------------------------------------------------------


def test_connection_tabulated_matches_analytic():
    # spline-differentiated coefficients against the closed-form basis
    zs = np.linspace(-0.1, 1.1, 601)
    analytic = named_coframe("arnold", LAM)
    sampled = CoframeBasis.from_samples(zs, analytic.scale_factors(zs)[0])
    conn_a = solve_connection(analytic, Z)
    conn_s = solve_connection(sampled, Z)
    np.testing.assert_allclose(conn_s.gamma, conn_a.gamma, atol=1e-8)


def test_from_samples_rejects_bad_samples():
    zs = np.linspace(0.0, 1.0, 9)
    with pytest.raises(ValueError, match="coeff_samples"):
        CoframeBasis.from_samples(zs, [np.ones(9), np.ones(9)])
    with pytest.raises(ValueError, match="values has shape"):
        CoframeBasis.from_samples(zs, [np.ones(9), np.ones(8), np.ones(9)])


def test_connection_rejects_nonpositive_coefficients():
    # NaN compares false with everything, so it must fail the check too
    for value in (-1.0, 0.0, np.nan):
        def profile(z, value=value):
            a = np.ones((3, *z.shape))
            a[1] = value
            return a, np.zeros_like(a), np.zeros_like(a)

        with pytest.raises(ValueError, match="positive"):
            solve_connection(CoframeBasis(profile), Z)


@pytest.mark.parametrize("rate", [800.0, 700.0])
def test_overflowing_coframe_is_rejected_by_both_pipelines(rate):
    # rate 800: a = +inf passes a > 0; rate 700: a is finite but a'' is not.
    # Either used to give a NaN curvature report instead of an error.
    basis = CoframeBasis.exponential((0, rate, 0))
    zs = np.linspace(0, 1, 9)
    with pytest.raises(ValueError, match="finite"):
        curvature(solve_connection(basis, zs))
    with pytest.raises(ValueError, match="finite"):
        christoffel_oracle(basis, zs)


def test_christoffel_oracle_rejects_metric_nonpositive_on_samples():
    # positive on its knots [0, 1], negative spline extrapolation beyond:
    # the samples past z = 1 are off the knots and would give NaN
    # coefficients and a NaN report
    zs = np.linspace(0, 1, 21)
    tab = ConformalFactor.tabulated(zs, 1.0 - 0.95 * zs)
    with pytest.raises(ValueError, match=r"data only on its knots \[0, 1\]"):
        christoffel_oracle(FrameMetric(1.0, tab), np.linspace(0, 2, 33))


@pytest.mark.parametrize("a", [0.9, -1.3])
def test_conformal_scale_factors_match_closed_form(a):
    # Omega = e^{a z}: h_i = e^{k_i z} with k_i = a/2 + r_i, r = (-lam, lam, 0),
    # so h' = k h and h'' = k^2 h; the Cartan and Christoffel pipelines read
    # the same (h, h', h''), so they cannot catch an error here
    lam = 0.7
    metric = FrameMetric(lam, ConformalFactor.exponential(a))
    k = a / 2 + np.array([-lam, lam, 0.0])[:, None]
    h = np.exp(k * Z)
    legs = metric.scale_factors(Z)
    for order, want in enumerate((h, k * h, k ** 2 * h)):
        np.testing.assert_allclose(legs[order], want, rtol=1e-12)


def test_sampled_coframe_curvature_matches_closed_form():
    # the sampled legs of the stretched coframe (1, e^{2z}, e^{z/2}): both
    # pipelines read the same spline a'', so only a closed form shows a
    # second derivative wired to the wrong spline order
    zs = np.linspace(-0.1, 1.1, 601)
    sampled = CoframeBasis.from_samples(
        zs, [np.ones_like(zs), np.exp(2 * zs), np.exp(zs / 2)])
    want = curvature(solve_connection(named_coframe("stretched", 1.0), Z))
    got = curvature(solve_connection(sampled, Z))
    assert got.max_difference(want) <= 1e-4 * want.max_abs()


# -- the Christoffel oracle against its index loops --------------------------------


def loop_christoffel(basis, z):
    """(a, a', Gamma, d_z Gamma) of g_ii = a_i(z)^2 by the textbook formula,
    one index combination at a time: the reference for the array oracle."""
    a, da, d2a = basis.scale_factors(z)
    g, gp, gpp = a ** 2, 2 * a * da, 2 * (da ** 2 + a * d2a)
    ginv, ginv_p = 1.0 / g, -gp / g ** 2

    def dg(deriv, d, c, b):
        # d_b g_{dc} (deriv = gp) or d_b d_z g_{dc} (deriv = gpp)
        return deriv[d] if d == c and b == 2 else 0.0

    gam = np.zeros((len(z), 3, 3, 3))
    dgam = np.zeros_like(gam)
    for A, B, C in itertools.product(range(3), repeat=3):
        s = dg(gp, A, C, B) + dg(gp, A, B, C) - dg(gp, B, C, A)
        ds = dg(gpp, A, C, B) + dg(gpp, A, B, C) - dg(gpp, B, C, A)
        gam[:, A, B, C] = 0.5 * ginv[A] * s
        dgam[:, A, B, C] = 0.5 * (ginv_p[A] * s + ginv[A] * ds)
    return a, da, gam, dgam


def loop_frame_riemann(basis, z):
    """R^A_{BCD} = d_C Gamma^A_{DB} - d_D Gamma^A_{CB} + Gamma^A_{CE} Gamma^E_{DB}
    - Gamma^A_{DE} Gamma^E_{CB}, index by index, in the orthonormal frame."""
    a, _, gam, dgam = loop_christoffel(basis, z)
    frame = np.zeros((len(z), 3, 3, 3, 3))
    for A, B, C, D in itertools.product(range(3), repeat=4):
        acc = np.zeros(len(z))
        if C == 2:
            acc += dgam[:, A, D, B]
        if D == 2:
            acc -= dgam[:, A, C, B]
        for E in range(3):
            acc += gam[:, A, C, E] * gam[:, E, D, B]
            acc -= gam[:, A, D, E] * gam[:, E, C, B]
        frame[:, A, B, C, D] = acc * a[A] / (a[B] * a[C] * a[D])
    return frame


def loop_frame_connection(basis, z):
    a, da, gam, _ = loop_christoffel(basis, z)
    out = np.zeros_like(gam)
    for i, j, k in itertools.product(range(3), repeat=3):
        val = gam[:, i, k, j] / (a[k] * a[j]) * a[i]
        if i == j and k == 2:
            val = val - a[i] * da[j] / (a[k] * a[j] ** 2)
        out[:, i, j, k] = val
    return out


def sampled_coframe():
    zs = np.linspace(-0.2, 1.2, 141)
    return CoframeBasis.from_samples(
        zs, [1.0 + 0.2 * np.sin(3 * zs), np.exp(2 * zs),
             np.exp(zs / 2) + 0.1 * zs ** 2])


@pytest.mark.parametrize("basis", [
    *(named_coframe(name, lam) for name in ("flat", "arnold", "constant:4",
                                            "stretched", "stretched_half")
      for lam in (LAM, -0.7)),
    sampled_coframe(),
], ids=lambda basis: basis.label)
def test_christoffel_oracles_match_their_index_loops(basis):
    for got, want in ((christoffel_oracle(basis, Z).riemann,
                       loop_frame_riemann(basis, Z)),
                      (frame_connection_oracle(basis, Z),
                       loop_frame_connection(basis, Z))):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# -- connection ------------------------------------------------------------------


def test_connection_flat_vanishes():
    conn = solve_connection(named_coframe("flat", LAM), Z)
    assert np.max(np.abs(conn.gamma)) == 0.0


def test_connection_stretched_half_closed_form():
    # omega^q_z = lam e^{-lam z/2} omega^q
    conn = solve_connection(named_coframe("stretched_half", LAM), Z)
    np.testing.assert_allclose(conn.gamma[:, 1, 2, 1],
                               LAM * np.exp(-LAM * Z / 2), rtol=1e-13)
    # omega^p_q = -alpha omega^p and omega^z_p = beta omega^p with alpha = beta = 0
    np.testing.assert_allclose(conn.gamma[:, 0, 1, 0], np.zeros_like(Z), atol=1e-14)
    np.testing.assert_allclose(conn.gamma[:, 2, 0, 0], np.zeros_like(Z), atol=1e-14)


def test_connection_antisymmetry():
    for basis in (named_coframe("arnold", LAM),
                  named_coframe("stretched", LAM),
                  FrameMetric(0.6, ConformalFactor.exponential(0.9))):
        conn = solve_connection(basis, Z)
        assert np.max(np.abs(conn.gamma + np.swapaxes(conn.gamma, 1, 2))) \
            <= 1e-14


def test_connection_matches_christoffel_conversion():
    # frame connection from coordinate Christoffel symbols, sampled at 16 z
    zs = np.linspace(0.0, 1.0, 16)
    for basis in (named_coframe("arnold", LAM),
                  named_coframe("stretched_half", 2.0)):
        conn = solve_connection(basis, zs)
        oracle = frame_connection_oracle(basis, zs)
        np.testing.assert_allclose(conn.gamma, oracle, atol=1e-12)


# -- curvature -------------------------------------------------------------------


def test_curvature_flat_is_zero():
    rep = curvature(solve_connection(named_coframe("flat", LAM), Z))
    assert rep.max_abs() <= 1e-10


def test_curvature_arnold_matches_tabulated_values():
    rep = curvature(solve_connection(named_coframe("arnold", LAM), Z))
    for idx, value in ARNOLD_COMPONENTS.items():
        np.testing.assert_allclose(rep.component(*idx),
                                   np.full_like(Z, value), atol=1e-12)


def test_curvature_stretched_half_against_closed_form():
    """R^q_zqz = -(1/2) lam^2 e^{-lam z}: magnitude matches the quoted
    (1/2) lam^2 e^{-lam z} closed form, sign comes out negative; the
    Christoffel oracle arbitrates."""
    rep = curvature(solve_connection(named_coframe("stretched_half", LAM), Z))
    orac = christoffel_oracle(named_coframe("stretched_half", LAM), Z)
    expect = -0.5 * LAM ** 2 * np.exp(-LAM * Z)
    np.testing.assert_allclose(rep.component(1, 2, 1, 2), expect, rtol=1e-12)
    np.testing.assert_allclose(orac.component(1, 2, 1, 2), expect, rtol=1e-12)
    # the quoted R^p_qpq = lam e^{-lam z/2} is not reproduced: the p
    # direction is flat in this metric (oracle verdict)
    np.testing.assert_allclose(rep.component(0, 1, 0, 1), np.zeros_like(Z),
                               atol=1e-13)


def test_curvature_stretched_doubled_closed_form():
    rep = curvature(solve_connection(named_coframe("stretched", LAM), Z))
    np.testing.assert_allclose(rep.component(1, 2, 1, 2),
                               -3.0 * LAM ** 2 * np.exp(-LAM * Z), rtol=1e-12)


@pytest.mark.parametrize("name, label, legs", [
    ("flat", "flat (lam=1)", lambda z: (1.0, 1.0, 1.0)),
    ("arnold", "arnold (lam=1)",
     lambda z: (np.exp(-LAM * z), np.exp(LAM * z), 1.0)),
    ("constant:4", "constant:4 (lam=1)",
     lambda z: (2 * np.exp(-LAM * z), 2 * np.exp(LAM * z), 2.0)),
    ("stretched", "stretched (lam=1)",
     lambda z: (1.0, np.exp(2 * LAM * z), np.exp(LAM * z / 2))),
    ("stretched_half", "stretched-half (lam=1)",
     lambda z: (1.0, np.exp(LAM * z), np.exp(LAM * z / 2))),
])
def test_named_coframe_labels_and_scale_factors(name, label, legs):
    basis = named_coframe(name, LAM)
    assert basis.label == label
    a = basis.scale_factors(Z)[0]
    want = np.stack([np.broadcast_to(leg, Z.shape) for leg in legs(Z)])
    np.testing.assert_allclose(a, want, rtol=1e-15, atol=0)


@pytest.mark.parametrize("name, text", [
    ("bogus", "metric: unknown metric 'bogus'"),
    ("stretched-half", "metric: unknown metric 'stretched-half'"),
    ("exponential:1", "metric: unknown metric 'exponential:1'"),
    ("constant:x", "metric: expected constant:<c> with a number c, "
                   "got 'constant:x'"),
])
def test_named_coframe_rejects_unknown_names(name, text):
    with pytest.raises(ValueError, match="^" + re.escape(text) + "$"):
        named_coframe(name, LAM)


@pytest.mark.parametrize("lam", [np.inf, -np.inf, np.nan])
def test_named_coframe_rejects_non_finite_lam(lam):
    # stretched warned from exp(k z) before failing without naming lam;
    # flat accepted it and put NaN in the paper's column
    for name in ("flat", "arnold", "constant:4", "stretched", "stretched_half"):
        with pytest.raises(ValueError, match=f"^lam must be finite, got {lam}$"):
            named_coframe(name, lam)


@pytest.mark.parametrize("rates", [(0.0, np.inf, 0.5), (np.nan, 1.0, 1.0),
                                   (0.0, 2 * 1e308, 1e308)])
def test_exponential_coframe_rejects_non_finite_rates(rates):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^rates must be finite, got \("):
            CoframeBasis.exponential(rates)


@pytest.mark.parametrize("label,basis", [
    ("flat", named_coframe("flat", LAM)),
    ("arnold", named_coframe("arnold", LAM)),
    ("const-omega", FrameMetric(LAM, ConformalFactor.from_constant(4.0))),
    ("stretched", named_coframe("stretched", LAM)),
    ("exp-omega", FrameMetric(0.8, ConformalFactor.exponential(1.2))),
    ("tabulated-omega", FrameMetric(0.8, ConformalFactor.tabulated(
        ZS_WIDE, 1.0 + 0.3 * np.sin(2 * np.pi * ZS_WIDE)))),
    ("sampled", CoframeBasis.from_samples(
        ZS_WIDE, [np.ones_like(ZS_WIDE), 2.0 + np.sin(ZS_WIDE), np.exp(ZS_WIDE / 3)])),
])
def test_pipeline_equivalence(label, basis):
    cart = curvature(solve_connection(basis, Z))
    orac = christoffel_oracle(basis, Z)
    assert cart.max_difference(orac) <= 1e-8
    for rep in (cart, orac):
        assert rep.antisymmetry_residual() <= 1e-8
        assert rep.bianchi_residual() <= 1e-8
        assert rep.pair_symmetry_residual() <= 1e-8


_RATES = st.floats(-3.0, 3.0, allow_nan=False)
_KNOTS = np.linspace(-0.5, 1.5, 9)


@st.composite
def random_coframes(draw):
    """Exponential coframes with random rates, and sampled coframes through
    random positive values on _KNOTS."""
    if draw(st.booleans()):
        return CoframeBasis.exponential([draw(_RATES) for _ in range(3)])
    values = st.lists(st.floats(1.0, 1.5), min_size=len(_KNOTS),
                      max_size=len(_KNOTS))
    return CoframeBasis.from_samples(
        _KNOTS, [np.array(draw(values)) for _ in range(3)])


@settings(derandomize=True, deadline=None, max_examples=60)
@given(random_coframes())
def test_sectional_curvature_build_matches_oracle(basis):
    z = np.linspace(0.0, 1.0, 17)
    cart = curvature(solve_connection(basis, z))
    orac = christoffel_oracle(basis, z)
    assert cart.max_difference(orac) <= 1e-12 * max(1.0, cart.max_abs())
    # the build places each sectional curvature by the pair symmetries
    assert cart.antisymmetry_residual() == 0.0
    assert cart.bianchi_residual() == 0.0
    assert cart.pair_symmetry_residual() == 0.0


def test_curvature_rejects_non_finite_sectional_curvatures():
    # c' overflows in the first coframe; c_p = 1e160 is finite in the
    # second, but K_pz = -(c_p'/a_z + c_p^2) is not
    def profile(a, da, d2a):
        return lambda z: tuple(np.broadcast_to(np.array(x, float)[:, None],
                                               (3, len(z))).copy()
                               for x in (a, da, d2a))

    cases = [(profile((1, 1, 1), (1e200, 0, 0), (0, 0, 0)), "c'"),
             (profile((1, 1, 1e-150), (1e10, 0, 0), (1e20, 0, 0)),
              "sectional curvature")]
    for prof, reason in cases:
        conn = solve_connection(CoframeBasis(prof), Z)
        with pytest.raises(ValueError, match=reason):
            curvature(conn)


def test_constant_conformal_scaling_law():
    # scaling the metric by a constant c divides every frame component by c
    base = christoffel_oracle(FrameMetric(LAM), Z)
    scaled = christoffel_oracle(
        FrameMetric(LAM, ConformalFactor.from_constant(4.0)), Z)
    np.testing.assert_allclose(scaled.riemann, base.riemann / 4.0, atol=1e-13)


def test_christoffel_oracle_euclidean():
    rep = christoffel_oracle(named_coframe("flat", LAM), Z)
    assert rep.max_abs() == 0.0


def test_christoffel_oracle_accepts_metric():
    rep = christoffel_oracle(FrameMetric(LAM), Z)
    np.testing.assert_allclose(rep.component(0, 1, 0, 1),
                               np.full_like(Z, 1.0), atol=1e-12)


def test_comparison_table_format():
    basis = named_coframe("stretched_half", LAM)
    cart = curvature(solve_connection(basis, Z))
    orac = christoffel_oracle(basis, Z)
    text = comparison_table(cart, orac, LAM, stride=16)
    lines = text.strip().split("\n")
    assert lines[0].split() == ["z", "component", "cartan", "oracle", "paper",
                                "|delta|"]
    body = [ln for ln in lines[1:] if "R^q_zqz" in ln]
    assert len(body) == len(Z[::16])
    # numbers parse and the delta column equals |cartan - paper|
    zv, _, cv, ov, pv, dv = body[0].split()
    assert abs(abs(float(cv) - float(pv)) - float(dv)) < 1e-12


def test_comparison_header_reports_the_oracle_residuals():
    # the cartan build places its components by the symmetries, so its
    # residuals read 0 whatever it computes; the header reports the oracle's
    header, _ = curvature_comparison("stretched_half", 1.0, Z)
    orac = christoffel_oracle(named_coframe("stretched_half", 1.0), Z)
    printed = dict(re.findall(r"^(\S.*?residual)\s*: (\S+)$", header, re.M))
    assert printed == {
        "oracle antisymmetry residual": f"{orac.antisymmetry_residual():.6e}",
        "oracle first-bianchi residual": f"{orac.bianchi_residual():.6e}",
        "oracle pair-symmetry residual": f"{orac.pair_symmetry_residual():.6e}",
    }
