"""Model layer: presets, covariance family, flows, Gaussian measures.

Every derived quantity is checked against an independent oracle: matrix
exponentials against closed forms, the stationary covariance against a
Kronecker-form Lyapunov solve and its residual, the finite-time covariance
against direct quadrature of its defining integral (entry by entry, and as
one ``quad_vec`` integral out to 20 mixing times on non-normal drifts), and
the closed forms available for both presets.
"""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from ou_jump_lab import (
    CovarianceFamily,
    GaussianMeasure,
    NotHurwitz,
    NotPositiveDefinite,
    NotSymmetric,
    OUModel,
    ValidationError,
    cov_qinf,
    cov_qt,
    dt_matrix,
    dtx_ratio_check,
    gamma_density,
    gamma_logdensity,
    invariant_measure,
    matrix_exp,
    mixing_time,
    model_from_config,
    preset_rotating2d,
    preset_standard,
    quadratic_R,
    validate_model,
)

SEED = 20250815


def _random_hurwitz(rng, n):
    """Random stable drift: shift the spectrum left of the imaginary axis."""
    a = rng.normal(size=(n, n))
    shift = max(np.real(np.linalg.eigvals(a)).max(), 0.0) + 0.5
    return a - shift * np.eye(n)


def _random_spd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


# ---------------------------------------------------------------------------
# presets and validation
# ---------------------------------------------------------------------------

def test_preset_standard_matrices():
    model = preset_standard()
    assert model.n == 1
    assert np.array_equal(model.diffusion, np.eye(1))
    assert np.array_equal(model.drift, -np.eye(1))


def test_preset_rotating2d_matrices():
    model = preset_rotating2d(omega=1.0)
    assert model.n == 2
    assert np.array_equal(model.diffusion, np.eye(2))
    assert np.array_equal(model.drift, np.array([[-1.0, -1.0], [1.0, -1.0]]))
    # genuinely nonsymmetric drift is the point of this preset
    assert not np.array_equal(model.drift, model.drift.T)


def test_validate_model_error_taxonomy():
    eye = np.eye(2)
    with pytest.raises(NotSymmetric):
        validate_model(np.array([[1.0, 0.5], [0.0, 1.0]]), -eye)
    with pytest.raises(NotPositiveDefinite):
        validate_model(np.array([[1.0, 0.0], [0.0, -2.0]]), -eye)
    with pytest.raises(NotHurwitz):
        validate_model(eye, eye)
    with pytest.raises(NotHurwitz):
        # purely imaginary spectrum is not strictly stable either
        validate_model(eye, np.array([[0.0, -1.0], [1.0, 0.0]]))
    with pytest.raises(ValidationError):
        validate_model(eye, -np.eye(3))


def test_model_from_config_roundtrip():
    model = model_from_config(
        {"n": 2, "Q": [[2.0, 0.0], [0.0, 1.0]], "B": [[-1.0, 0.0], [0.5, -2.0]]}
    )
    assert model.n == 2
    assert model.diffusion[0, 0] == 2.0
    with pytest.raises(ValidationError):
        model_from_config({"preset": "standard", "bogus": 1})


# ---------------------------------------------------------------------------
# matrix exponential
# ---------------------------------------------------------------------------

def test_matrix_exp_matches_scipy():
    rng = np.random.default_rng(SEED)
    for n in (1, 2, 3, 4):
        for scale in (0.1, 1.0, 10.0):
            a = scale * rng.normal(size=(n, n))
            ours = matrix_exp(a)
            ref = scipy.linalg.expm(a)
            err = np.linalg.norm(ours - ref) / max(np.linalg.norm(ref), 1.0)
            assert err < 1e-12, f"n={n} scale={scale}: {err:.3e}"


def test_matrix_exp_diagonal_closed_form():
    d = np.diag([0.3, -1.7])
    assert np.allclose(matrix_exp(d), np.diag(np.exp([0.3, -1.7])), atol=1e-15)


def test_matrix_exp_rejects_non_square():
    with pytest.raises(ValidationError):
        matrix_exp(np.ones((2, 3)))


def test_matrix_exp_nilpotent():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(matrix_exp(a), np.array([[1.0, 1.0], [0.0, 1.0]]),
                       atol=1e-15)


# ---------------------------------------------------------------------------
# finite-time covariance Q_t
# ---------------------------------------------------------------------------

def test_cov_qt_standard_closed_form():
    model = preset_standard()
    for t in (0.01, 0.1, 0.5, 1.0, 3.0):
        expected = 0.5 * (1.0 - math.exp(-2.0 * t))
        assert abs(cov_qt(model, t)[0, 0] - expected) < 1e-14


def test_cov_qt_rotating2d_closed_form():
    # diffusion = identity commutes with the rotation, so the 1d law scales up
    model = preset_rotating2d()
    for t in (0.05, 0.3, 1.0, 2.0):
        expected = 0.5 * (1.0 - math.exp(-2.0 * t)) * np.eye(2)
        assert np.allclose(cov_qt(model, t), expected, atol=1e-13)


def test_cov_qt_quadrature_oracle():
    """Q_t entry-by-entry against its defining time integral."""
    rng = np.random.default_rng(SEED + 1)
    for n in (1, 2):
        b = _random_hurwitz(rng, n)
        q = _random_spd(rng, n)
        model = validate_model(q, b)
        for t in (0.2, 1.3):
            got = cov_qt(model, t)
            for i in range(n):
                for k in range(n):
                    val, err = scipy.integrate.quad(
                        lambda s, i=i, k=k: (
                            scipy.linalg.expm(s * b) @ q @ scipy.linalg.expm(s * b).T
                        )[i, k],
                        0.0,
                        t,
                        limit=100,
                    )
                    assert err < 1e-9
                    assert abs(got[i, k] - val) < 1e-9, (n, t, i, k)


def test_cov_qt_small_time_linearization():
    model = preset_rotating2d()
    t = 1e-8
    assert np.allclose(cov_qt(model, t) / t, model.diffusion, atol=1e-6)


def test_cov_qt_loewner_monotone():
    rng = np.random.default_rng(SEED + 2)
    b = _random_hurwitz(rng, 2)
    q = _random_spd(rng, 2)
    model = validate_model(q, b)
    ts = [0.05, 0.1, 0.4, 1.0, 2.5]
    for s, t in zip(ts, ts[1:]):
        gap = cov_qt(model, t) - cov_qt(model, s)
        assert np.linalg.eigvalsh(gap).min() > -1e-12


def test_cov_qt_time_domain():
    model = preset_standard()
    # continuous extension at zero; negative times are rejected outright
    assert cov_qt(model, 0.0)[0, 0] == 0.0
    with pytest.raises(ValidationError):
        cov_qt(model, -1.0)


def _three_models():
    """Both presets and the non-normal random model of the kernel tests."""
    rng = np.random.default_rng(SEED)
    q = _random_spd(rng, 2)
    return [preset_standard(), preset_rotating2d(),
            validate_model(q, _random_hurwitz(rng, 2))]


def _stiff_models():
    """Rates 50x apart, a non-normal drift, and the a = 30 shear."""
    return [validate_model(np.eye(2), np.diag([-1.0, -50.0])),
            validate_model(np.eye(2), [[-0.5, 8.0], [0.0, -3.0]]),
            validate_model(np.eye(2), [[-1.0, 30.0], [0.0, -1.0]])]


def test_cov_qt_matches_integral_out_to_t20():
    """Q_t against a ``quad_vec`` integral of e^{sB} Q e^{sB^T} over [0, t].

    The times cover both routes of ``cov_qt`` (block exponential at small
    t ||B||_1, Lyapunov difference elsewhere) and reach t = 20.
    """
    for model in _three_models() + _stiff_models():
        b, q = model.drift, model.diffusion

        def integrand(s):
            e = scipy.linalg.expm(s * b)
            return e @ q @ e.T

        for t in (1e-6, 1e-3, 0.02, 0.1, 0.5, 1.0, 3.0, 10.0, 20.0):
            ref, _ = scipy.integrate.quad_vec(
                integrand, 0.0, t, epsabs=0.0, epsrel=1e-14, norm="max", limit=2000
            )
            err = np.abs(cov_qt(model, t) - ref).max() / np.abs(ref).max()
            assert err <= 1e-10, (b.tolist(), t, err)


@pytest.mark.parametrize("t", [100.0, 709.0, 1000.0])
def test_cov_qt_finite_and_positive_definite_up_to_clamp(t):
    models = [preset_standard(), preset_rotating2d()] + _stiff_models()[:2]
    for model in models:
        qt = cov_qt(model, t)
        assert np.isfinite(qt).all(), (model.drift.tolist(), t)
        assert np.array_equal(qt, qt.T)
        assert np.linalg.eigvalsh(qt).min() > 0.0, (model.drift.tolist(), t)


# ---------------------------------------------------------------------------
# stationary covariance and the family
# ---------------------------------------------------------------------------

def test_cov_qinf_lyapunov_oracle():
    rng = np.random.default_rng(SEED + 3)
    for n in (1, 2, 3):
        b = _random_hurwitz(rng, n)
        q = _random_spd(rng, n)
        model = validate_model(q, b)
        family = cov_qinf(model)
        # independent of the Schur-based solver cov_qinf uses: the vectorized
        # Kronecker system (B (+) B) vec(X) = -vec(Q)
        eye = np.eye(n)
        ref = np.linalg.solve(np.kron(b, eye) + np.kron(eye, b), -q.reshape(-1))
        assert np.allclose(family.qinf, ref.reshape(n, n), atol=1e-10)
        resid = b @ family.qinf + family.qinf @ b.T + q
        assert np.linalg.norm(resid) < 1e-10 * np.linalg.norm(q)


def test_cov_qinf_presets():
    fam1 = cov_qinf(preset_standard())
    assert abs(fam1.qinf[0, 0] - 0.5) < 1e-14
    fam2 = cov_qinf(preset_rotating2d())
    assert np.allclose(fam2.qinf, 0.5 * np.eye(2), atol=1e-13)


def test_qt_qinf_flow_identity():
    """Qinf - Q_t = e^{tB} Qinf e^{tB^T}, the backbone of the kernel forms."""
    rng = np.random.default_rng(SEED + 4)
    cases = [preset_standard(), preset_rotating2d()]
    cases.append(validate_model(_random_spd(rng, 2), _random_hurwitz(rng, 2)))
    for model in cases:
        family = cov_qinf(model)
        for t in (0.1, 0.7, 2.0):
            etb = matrix_exp(t * model.drift)
            lhs = family.qinf - cov_qt(model, t)
            rhs = etb @ family.qinf @ etb.T
            assert np.allclose(lhs, rhs, atol=1e-12), (model.n, t)


def test_family_fields_match_their_definitions():
    for model in _three_models():
        family = cov_qinf(model)
        chol = np.linalg.cholesky(model.diffusion)
        assert np.array_equal(family.diffusion_chol, chol)
        assert family.diffusion_logdet == pytest.approx(
            np.linalg.slogdet(model.diffusion)[1], rel=1e-14, abs=1e-14
        )
        assert family.qinf_opnorm == np.linalg.norm(family.qinf, 2)
        bundle = family.qt_bundle(0.37)
        assert family.qt_bundle(np.float64(0.37)) is bundle
        assert family.qt_bundle(0.38) is not bundle


def test_qt_bundle_consistency():
    model = preset_rotating2d()
    family = cov_qinf(model)
    bundle = family.qt_bundle(0.37)
    assert np.allclose(bundle.qt, cov_qt(model, 0.37), atol=1e-14)
    assert np.allclose(bundle.exp_tb, matrix_exp(0.37 * model.drift), atol=1e-14)
    # cached: same t returns an identical object
    assert family.qt_bundle(0.37) is bundle


# ---------------------------------------------------------------------------
# the D_t flow
# ---------------------------------------------------------------------------

def test_dt_matrix_identity_at_zero():
    model = preset_rotating2d()
    family = cov_qinf(model)
    assert np.array_equal(dt_matrix(model, family, 0.0), np.eye(2))


def test_dt_matrix_flow_property():
    rng = np.random.default_rng(SEED + 5)
    model = validate_model(_random_spd(rng, 2), _random_hurwitz(rng, 2))
    family = cov_qinf(model)
    for s, t in ((0.2, 0.5), (1.0, -0.3), (-0.4, -0.8)):
        lhs = dt_matrix(model, family, s) @ dt_matrix(model, family, t)
        rhs = dt_matrix(model, family, s + t)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_dt_matrix_standard_scalar():
    model = preset_standard()
    family = cov_qinf(model)
    for t in (0.1, 1.0, 2.5):
        assert abs(dt_matrix(model, family, t)[0, 0] - math.exp(t)) < 1e-13


def test_dtx_ratio_bounds_standard():
    # |x - D_t x| / (t |x|) = (e^t - 1)/t, which lives in [1, e-1] on (0, 1]
    model = preset_standard()
    family = cov_qinf(model)
    rng = np.random.default_rng(SEED + 6)
    samples = [
        (float(rng.uniform(1e-4, 1.0)), rng.uniform(0.1, 3.0, 1) * rng.choice([-1, 1]))
        for _ in range(200)
    ]
    c_lo, c_hi = dtx_ratio_check(model, family, samples)
    assert 1.0 - 1e-9 <= c_lo <= c_hi <= math.e - 1.0 + 1e-9


# ---------------------------------------------------------------------------
# Gaussian measures and densities
# ---------------------------------------------------------------------------

def test_invariant_measure_normalization_1d():
    family = cov_qinf(preset_standard())
    gamma = invariant_measure(family)
    val, err = scipy.integrate.quad(
        lambda u: gamma.pdf(np.array([[u]]))[0], -12.0, 12.0, limit=100
    )
    assert err < 1e-10
    assert abs(val - 1.0) < 1e-10


def test_invariant_measure_normalization_2d():
    family = cov_qinf(preset_rotating2d())
    gamma = invariant_measure(family)
    val, err = scipy.integrate.dblquad(
        lambda y, x: gamma.pdf(np.array([[x, y]]))[0],
        -8.0, 8.0, -8.0, 8.0,
    )
    assert abs(val - 1.0) < 1e-8


def test_interval_mass_matches_quadrature():
    family = cov_qinf(preset_standard())
    gamma = invariant_measure(family)
    for lo, hi in ((-0.5, 0.5), (1.0, 2.5), (-4.0, -1.0)):
        ref, _ = scipy.integrate.quad(
            lambda u: gamma.pdf(np.array([[u]]))[0], lo, hi
        )
        assert abs(gamma.interval_mass(lo, hi) - ref) < 1e-12


def test_gaussian_measure_logpdf_closed_form():
    g = GaussianMeasure(np.array([0.3]), np.array([[2.0]]))
    x = np.array([[1.1]])
    expected = -0.5 * math.log(2.0 * math.pi * 2.0) - (1.1 - 0.3) ** 2 / 4.0
    assert abs(g.logpdf(x)[0] - expected) < 1e-14


def test_gamma_density_matches_qt():
    model = preset_rotating2d()
    family = cov_qinf(model)
    x = np.array([0.4, -0.2])
    for t in (0.3, 1.5):
        direct = GaussianMeasure(np.zeros(2), cov_qt(model, t)).logpdf(x[None, :])[0]
        assert abs(gamma_logdensity(model, t, x) - direct) < 1e-12
    inv = invariant_measure(family).logpdf(x[None, :])[0]
    assert abs(gamma_logdensity(model, math.inf, x, family) - inv) < 1e-14
    assert gamma_density(model, 1.0, x) == pytest.approx(
        math.exp(gamma_logdensity(model, 1.0, x))
    )


def test_quadratic_R_standard_is_x_squared():
    family = cov_qinf(preset_standard())
    for x in (-2.0, -0.3, 0.0, 1.7):
        assert abs(quadratic_R(family, np.array([x])) - x * x) < 1e-13
    batch = quadratic_R(family, np.array([[1.0], [2.0]]))
    assert np.allclose(batch, [1.0, 4.0], atol=1e-13)
    with pytest.raises(ValidationError):
        quadratic_R(family, np.array([1.0, 2.0]))  # wrong dimension


def test_mixing_time_presets():
    assert mixing_time(preset_standard()) == pytest.approx(1.0)
    assert mixing_time(preset_rotating2d()) == pytest.approx(1.0)
