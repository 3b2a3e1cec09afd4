import numpy as np
import pytest

from framedynamo.differentiation import (_fourier_matrix, fornberg_weights,
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


@pytest.mark.parametrize("order", [1, 2])
def test_closed_matrix_exact_on_quartics(order):
    # 4th-order stencils differentiate polynomials up to degree 4 exactly,
    # including the one-sided boundary rows
    n, dz = 41, 0.025
    z = np.arange(n) * dz
    D = z_derivative_matrix(n, dz, order)
    f = 1.0 + z - 2 * z**2 + 0.5 * z**3 + 0.25 * z**4
    exact = (1 - 4 * z + 1.5 * z**2 + z**3 if order == 1
             else -4 + 3 * z + 3 * z**2)
    np.testing.assert_allclose(D @ f, exact, atol=1e-9)


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


def rfft_derivative(f, axis, order, length):
    """The transform-per-call Fourier derivative, as a reference."""
    n = f.shape[axis]
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=length / n)
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
    length = 2.5
    cases = [((3, 4, 5), axis) for axis in (0, 1, 2, -1)] + \
        [((3, 4, 5, 6), axis) for axis in (1, 2)]
    for base, axis in cases:
        shape = list(base)
        shape[axis] = n
        f = rng.normal(size=shape)
        got = spectral_derivative(f, axis, order, length)
        ref = rfft_derivative(f, axis, order, length)
        assert got.shape == f.shape
        scale = (2 * np.pi * n / length) ** order
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * scale)


def test_spectral_matrix_cache_is_read_only():
    spectral_derivative(np.ones((8, 3)), 0)
    D = _fourier_matrix(8, 1, 1.0)
    assert _fourier_matrix(8, 1, 1.0) is D
    with pytest.raises(ValueError):
        D[0, 0] = 1.0
