import numpy as np
import pytest

from framedynamo.differentiation import (CubicSpline, _fourier_matrix,
                                         fornberg_weights,
                                         spectral_derivative,
                                         z_derivative_matrix)


def test_fornberg_reproduces_central_stencils():
    w1 = fornberg_weights(0.0, np.arange(-2, 3, dtype=float), 1)
    np.testing.assert_allclose(w1, np.array([1, -8, 0, 8, -1]) / 12.0, atol=1e-13)
    w2 = fornberg_weights(0.0, np.arange(-2, 3, dtype=float), 2)
    np.testing.assert_allclose(w2, np.array([-1, 16, -30, 16, -1]) / 12.0, atol=1e-13)


def test_fornberg_rejects_short_stencils():
    with pytest.raises(ValueError):
        fornberg_weights(0.0, np.array([0.0, 1.0]), 2)


SIZES = [5, 6, 7, 8, 65, 128, 513]
SPACINGS = [0.1, 1.0 / 127, 0.37]


def stencil_cases():
    """(n, dz, order) for every size that carries the order's stencils."""
    return [(n, dz, order) for n in SIZES for dz in SPACINGS
            for order in (1, 2) if n >= (5 if order == 1 else 6)]


def periodic_reference(n, dz, order):
    """Periodic matrix built one stencil offset at a time."""
    offsets = np.arange(-2, 3)
    D = np.zeros((n, n))
    for off, wk in zip(offsets, fornberg_weights(0.0, offsets * dz, order)):
        D[np.arange(n), (np.arange(n) + off) % n] += wk
    return D


def closed_reference(n, dz, order):
    """Closed matrix built one row at a time, each row's stencil from its
    node offsets to the row's own point."""
    width = 5 if order == 1 else 6
    D = np.zeros((n, n))
    for i in range(n):
        if 2 <= i < n - 2:
            idx = np.arange(i - 2, i + 3)
        elif i < 2:
            idx = np.arange(width)
        else:
            idx = np.arange(n - width, n)
        D[i, idx] = fornberg_weights(0.0, (idx - i) * dz, order)
    return D


@pytest.mark.parametrize("n, dz, order", stencil_cases())
def test_periodic_matrix_equals_per_offset_reference(n, dz, order):
    np.testing.assert_array_equal(z_derivative_matrix(n, dz, order, True),
                                  periodic_reference(n, dz, order))


@pytest.mark.parametrize("n, dz, order", stencil_cases())
def test_closed_matrix_matches_per_row_reference(n, dz, order):
    D = z_derivative_matrix(n, dz, order)
    ref = closed_reference(n, dz, order)
    np.testing.assert_allclose(D, ref, rtol=0,
                               atol=1e-14 * np.max(np.abs(ref)))
    # away from the ends a closed row is the periodic row, bit for bit
    np.testing.assert_array_equal(
        D[2:n - 2], z_derivative_matrix(n, dz, order, True)[2:n - 2])


@pytest.mark.parametrize("order", [1, 2])
def test_closed_matrix_exact_on_quartics(order):
    # 4th-order stencils differentiate polynomials up to degree 4 exactly,
    # including the one-sided boundary rows
    for n in (6, 7, 8, 41, 128):
        dz = 1.0 / (n - 1)
        z = np.arange(n) * dz
        D = z_derivative_matrix(n, dz, order)
        for f, exact in [
            (1.0 + z - 2 * z**2 + 0.5 * z**3 + 0.25 * z**4,
             (1 - 4 * z + 1.5 * z**2 + z**3 if order == 1
              else -4 + 3 * z + 3 * z**2)),
            (z**4, 4 * z**3 if order == 1 else 12 * z**2),
        ]:
            np.testing.assert_allclose(D @ f, exact, atol=1e-13 * n**order)


def test_closed_matrix_convergence_order():
    errs = []
    for n in (33, 65):
        dz = 1.0 / (n - 1)
        z = np.arange(n) * dz
        D = z_derivative_matrix(n, dz, 1)
        errs.append(np.max(np.abs(D @ np.exp(2 * z) - 2 * np.exp(2 * z))))
    assert np.log2(errs[0] / errs[1]) > 3.5


def test_periodic_matrix_convergence_order():
    errs = []
    for n in (32, 64):
        dz = 1.0 / n
        z = np.arange(n) * dz
        D = z_derivative_matrix(n, dz, 1, periodic=True)
        f = np.sin(2 * np.pi * z)
        errs.append(np.max(np.abs(D @ f - 2 * np.pi * np.cos(2 * np.pi * z))))
    assert np.log2(errs[0] / errs[1]) > 3.8


def test_periodic_second_derivative():
    n = 64
    dz = 1.0 / n
    z = np.arange(n) * dz
    D2 = z_derivative_matrix(n, dz, 2, periodic=True)
    f = np.cos(2 * np.pi * z)
    np.testing.assert_allclose(D2 @ f, -(2 * np.pi) ** 2 * f,
                               rtol=1e-5, atol=1e-4)


def test_periodic_matrix_on_five_points():
    # five points carry the 5-point periodic stencils of both orders; the
    # 6-point closed end closure of order 2 used to be demanded here too
    dz = 0.2
    z = np.arange(5) * dz
    f = np.cos(2 * np.pi * z)
    for order, exact in ((1, -2 * np.pi * np.sin(2 * np.pi * z)),
                         (2, -(2 * np.pi) ** 2 * f)):
        D = z_derivative_matrix(5, dz, order, periodic=True)
        np.testing.assert_array_equal(D, periodic_reference(5, dz, order))
        np.testing.assert_allclose(D @ np.ones(5), 0.0, atol=1e-13)
        # one wavelength on five points: 6.5% (order 1), 2.4% (order 2) off
        np.testing.assert_allclose(D @ f, exact, rtol=0,
                                   atol=0.07 * (2 * np.pi) ** order)


def test_matrix_rejects_tiny_grids():
    with pytest.raises(ValueError):
        z_derivative_matrix(4, 0.1, 1)
    with pytest.raises(ValueError):
        z_derivative_matrix(5, 0.1, 2)
    with pytest.raises(ValueError):
        z_derivative_matrix(8, 0.1, 3)


def test_spectral_derivative_exact_on_modes():
    n = 32
    x = np.arange(n) / n
    f = np.sin(2 * np.pi * 3 * x) + 0.5 * np.cos(2 * np.pi * 5 * x)
    df = 2 * np.pi * 3 * np.cos(2 * np.pi * 3 * x) \
        - 0.5 * 2 * np.pi * 5 * np.sin(2 * np.pi * 5 * x)
    np.testing.assert_allclose(spectral_derivative(f, 0), df, atol=1e-10)
    d2f = -(2 * np.pi * 3) ** 2 * np.sin(2 * np.pi * 3 * x) \
        - 0.5 * (2 * np.pi * 5) ** 2 * np.cos(2 * np.pi * 5 * x)
    np.testing.assert_allclose(spectral_derivative(f, 0, order=2), d2f, atol=1e-8)


def test_spectral_derivative_along_middle_axis():
    n = 16
    x = np.arange(n) / n
    f = np.broadcast_to(np.sin(2 * np.pi * x)[None, :, None], (3, n, 5)).copy()
    df = spectral_derivative(f, axis=1)
    expect = 2 * np.pi * np.cos(2 * np.pi * x)
    np.testing.assert_allclose(df[2, :, 3], expect, atol=1e-10)


def rfft_derivative(f, axis, order):
    """The transform-per-call Fourier derivative on [0, 1), a reference."""
    n = f.shape[axis]
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=1.0 / n)
    if order % 2 == 1 and n % 2 == 0:
        k[-1] = 0.0
    shape = [1] * f.ndim
    shape[axis] = len(k)
    mult = (1j * k.reshape(shape)) ** order
    return np.fft.irfft(np.fft.rfft(f, axis=axis) * mult, n=n, axis=axis)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 32])
def test_spectral_derivative_matches_rfft_reference(n, order):
    rng = np.random.default_rng(n + 10 * order)
    cases = [((3, 4, 5), axis) for axis in (0, 1, 2, -1)] + \
        [((3, 4, 5, 6), axis) for axis in (1, 2)]
    for base, axis in cases:
        shape = list(base)
        shape[axis] = n
        f = rng.normal(size=shape)
        got = spectral_derivative(f, axis, order)
        ref = rfft_derivative(f, axis, order)
        assert got.shape == f.shape
        scale = (2 * np.pi * n) ** order
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * scale)


def test_spectral_matrix_cache_is_read_only():
    spectral_derivative(np.ones((8, 3)), 0)
    D = _fourier_matrix(8, 1)
    assert _fourier_matrix(8, 1) is D
    with pytest.raises(ValueError):
        D[0, 0] = 1.0


# -- cubic spline ---------------------------------------------------------------


def _knots(kind):
    if kind == "uniform":
        return np.linspace(-1.0, 2.0, 301)
    rng = np.random.default_rng(11)
    return np.cumsum(rng.uniform(0.05, 0.15, 40)) - 1.0


@pytest.mark.parametrize("kind", ["uniform", "nonuniform"])
def test_cubic_spline_matches_scipy_including_extrapolation(kind):
    from scipy.interpolate import CubicSpline as reference

    x = _knots(kind)
    y = np.exp(np.sin(3 * x)) + 0.3 * np.sin(2 * np.pi * x)
    got, want = CubicSpline(x, y), reference(x, y)
    span = x[-1] - x[0]
    z = np.concatenate([np.linspace(x[0] - 0.2 * span, x[-1] + 0.2 * span,
                                    2001), x])
    pairs = [(got(z), want(z)), (got(z, 1), want.derivative(1)(z)),
             (got(z, 2), want.derivative(2)(z)),
             (got(z, -1), want.antiderivative()(z))]
    for mine, ref in pairs:
        np.testing.assert_allclose(mine, ref, rtol=0,
                                   atol=1e-13 * np.max(np.abs(ref)))
    # the antiderivative starts at zero on the first knot
    assert got(x[0], -1) == 0.0


def test_cubic_spline_reproduces_a_cubic():
    # not-a-knot ends make a cubic its own spline, inside and outside the knots
    x = np.array([0.0, 0.2, 0.5, 0.6, 1.1, 1.3])
    p = np.polynomial.Polynomial([1.0, -0.4, 0.7, 0.25])
    spline = CubicSpline(x, p(x))
    z = np.linspace(-0.5, 1.8, 501)
    anti = p.integ(lbnd=x[0])
    for mine, exact in [(spline(z), p), (spline(z, 1), p.deriv(1)),
                        (spline(z, 2), p.deriv(2)),
                        (spline(z, -1), anti)]:
        np.testing.assert_allclose(mine, exact(z), rtol=0, atol=1e-13)


@pytest.mark.parametrize("z_samples,values,match", [
    ([0.0, 0.5, 1.0], [1.0, 2.0, 1.0], "z_samples.*at least 4"),
    ([0.0, 0.5, 0.5, 1.0], [1.0, 2.0, 2.0, 1.0], "z_samples.*strictly increasing"),
    ([0.0, 0.7, 0.5, 1.0], [1.0, 2.0, 2.0, 1.0], "z_samples.*strictly increasing"),
    ([0.0, np.nan, 0.5, 1.0], [1.0, 2.0, 2.0, 1.0], "z_samples.*finite"),
    ([0.0, 0.3, 0.5, 1.0], [1.0, np.inf, 2.0, 1.0], "values.*finite"),
    ([0.0, 0.3, 0.5, 1.0], [1.0, 2.0, 1.0], "values.*shape"),
])
def test_cubic_spline_rejects_bad_samples(z_samples, values, match):
    with pytest.raises(ValueError, match=match):
        CubicSpline(np.array(z_samples), np.array(values))

