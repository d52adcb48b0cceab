"""Kernel layer: Mehler kernel, modified kernels, derivative factors, bounds.

The Mehler kernel is pinned to the transition density it must reproduce, the
third modified kernel to its exact Gaussian product form, and the derivative
factors to finite differences of the log kernels.  Envelope fits are checked
for determinism and refinement stability.
"""

import math

import numpy as np
import pytest

from ou_jump_lab import (
    BOUND_IDS,
    BadKappa,
    BoundSampleSpec,
    GaussianMeasure,
    RegionEmpty,
    TimeNonPositive,
    ValidationError,
    certify_bound,
    count_derivative_sign_changes,
    cov_qinf,
    cov_qt,
    dt_kernel_difference,
    invariant_measure,
    kernel_difference,
    kernel_time_profile,
    ktilde,
    matrix_exp,
    mehler_kernel,
    n_factor,
    preset_rotating2d,
    preset_standard,
    quadratic_R,
    validate_model,
)

SEED = 20250815


def _families():
    out = []
    for model in (preset_standard(), preset_rotating2d()):
        out.append((model, cov_qinf(model)))
    rng = np.random.default_rng(SEED)
    a = rng.normal(size=(2, 2))
    q = a @ a.T + 2.0 * np.eye(2)
    b = rng.normal(size=(2, 2))
    b -= (max(np.real(np.linalg.eigvals(b)).max(), 0.0) + 0.5) * np.eye(2)
    model = validate_model(q, b)
    out.append((model, cov_qinf(model)))
    return out


def _draw(rng, n, scale=2.0):
    return rng.uniform(-scale, scale, n)


# ---------------------------------------------------------------------------
# kernel values against closed forms
# ---------------------------------------------------------------------------

def test_mehler_kernel_is_transition_density_ratio():
    """K_t(x,u) * invariant density(u) must equal the transition density."""
    rng = np.random.default_rng(SEED + 1)
    for model, family in _families():
        gamma = invariant_measure(family)
        for t in (0.05, 0.4, 1.0, 3.0):
            x = _draw(rng, model.n)
            u = _draw(rng, model.n)
            ev = mehler_kernel(model, family, t, x, u)
            transition = GaussianMeasure(
                matrix_exp(t * model.drift) @ x, cov_qt(model, t)
            )
            lhs = ev.log_value + gamma.logpdf(u[None, :])[0]
            rhs = transition.logpdf(u[None, :])[0]
            assert abs(lhs - rhs) < 1e-11, (model.n, t)


def test_ktilde_kappa0_equals_mehler():
    rng = np.random.default_rng(SEED + 2)
    for model, family in _families():
        x, u = _draw(rng, model.n), _draw(rng, model.n)
        a = mehler_kernel(model, family, 0.7, x, u)
        b = ktilde(model, family, 0, 0.7, x, u)
        assert a.log_value == b.log_value


def test_ktilde3_gaussian_product_form():
    """log K3 = R(x) - R(u) + log N(u; x, tQ) - log invariant density(u)."""
    rng = np.random.default_rng(SEED + 3)
    for model, family in _families():
        gamma = invariant_measure(family)
        for t in (0.01, 0.2, 0.9):
            x = _draw(rng, model.n)
            u = _draw(rng, model.n)
            heat = GaussianMeasure(x, t * model.diffusion)
            expected = (
                quadratic_R(family, x)
                - quadratic_R(family, u)
                + heat.logpdf(u[None, :])[0]
                - gamma.logpdf(u[None, :])[0]
            )
            got = ktilde(model, family, 3, t, x, u).log_value
            assert abs(got - expected) < 1e-11, (model.n, t)


def test_ktilde_log_finite_over_wide_time_range():
    rng = np.random.default_rng(SEED + 4)
    for model, family in _families():
        for t in np.geomspace(1e-8, 1e2, 31):
            x = _draw(rng, model.n, 3.0)
            u = _draw(rng, model.n, 3.0)
            for kappa in (0, 1, 2, 3):
                ev = ktilde(model, family, kappa, float(t), x, u)
                assert math.isfinite(ev.log_value), (model.n, kappa, t)


def test_cov_qt_large_time_clamp():
    """Beyond the documented clamp cov_qt refuses; t = inf is Q_inf."""
    model = preset_standard()
    from ou_jump_lab import NonFinite

    with pytest.raises(NonFinite):
        cov_qt(model, 2e3)
    assert np.allclose(cov_qt(model, float("inf")),
                       cov_qinf(model).qinf)


def test_ktilde_rejects_bad_inputs():
    model, family = preset_standard(), cov_qinf(preset_standard())
    with pytest.raises(BadKappa):
        ktilde(model, family, 4, 0.5, np.zeros(1), np.zeros(1))
    with pytest.raises(TimeNonPositive):
        ktilde(model, family, 1, 0.0, np.zeros(1), np.zeros(1))
    with pytest.raises(ValidationError):
        ktilde(model, family, 1, 0.5, np.zeros(2), np.zeros(1))


# ---------------------------------------------------------------------------
# derivative factors
# ---------------------------------------------------------------------------

def test_n_factor_matches_finite_difference():
    rng = np.random.default_rng(SEED + 5)
    for model, family in _families():
        for kappa in (0, 1, 2, 3):
            t = float(rng.uniform(0.1, 1.0))
            x = _draw(rng, model.n)
            u = _draw(rng, model.n)
            h = 1e-6 * t
            num = (
                ktilde(model, family, kappa, t + h, x, u).log_value
                - ktilde(model, family, kappa, t - h, x, u).log_value
            ) / (2.0 * h)
            got = n_factor(model, family, kappa, t, x, u)
            assert abs(got - num) <= 1e-6 * max(1.0, abs(num)), (model.n, kappa)


def test_kernel_eval_carries_its_n_factor():
    model, family = preset_standard(), cov_qinf(preset_standard())
    ev = ktilde(model, family, 2, 0.3, np.array([0.7]), np.array([-0.1]))
    assert ev.n_factor == n_factor(model, family, 2, 0.3,
                                   np.array([0.7]), np.array([-0.1]))


def test_kernel_time_profile_matches_pointwise():
    model, family = preset_rotating2d(), cov_qinf(preset_rotating2d())
    x = np.array([0.5, -0.3])
    u = np.array([-0.2, 0.4])
    ts = np.geomspace(0.01, 2.0, 7)
    logs, factors = kernel_time_profile(model, family, x, u, ts, kappa=1)
    assert logs.shape == ts.shape and factors.shape == ts.shape
    for i, t in enumerate(ts):
        assert logs[i] == ktilde(model, family, 1, float(t), x, u).log_value
        assert factors[i] == n_factor(model, family, 1, float(t), x, u)


# ---------------------------------------------------------------------------
# stable differences
# ---------------------------------------------------------------------------

def test_kernel_difference_well_conditioned_case():
    """Where the two kernels differ at O(1), naive subtraction is a fine oracle."""
    rng = np.random.default_rng(SEED + 6)
    for model, family in _families():
        for kappa in (1, 2, 3):
            t = float(rng.uniform(0.2, 0.8))
            x = _draw(rng, model.n)
            u = _draw(rng, model.n)
            a = math.exp(ktilde(model, family, kappa - 1, t, x, u).log_value)
            b = math.exp(ktilde(model, family, kappa, t, x, u).log_value)
            got = kernel_difference(model, family, kappa, t, x, u)
            assert abs(got - (a - b)) <= 1e-12 * max(abs(a), abs(b), 1.0)


def test_kernel_difference_cancellation_regime():
    """As t -> 0 adjacent kernels coalesce; the difference must keep digits.

    The expm1 form gives diff = -e^{a_prev} * expm1(d) with d the log gap;
    for small d the relative error against the two-term Taylor expansion is
    O(d^2), far below what naive subtraction retains.
    """
    model, family = preset_standard(), cov_qinf(preset_standard())
    x = np.array([0.4])
    u = np.array([0.5])
    for t in (1e-5, 1e-6, 1e-7):
        a_prev = ktilde(model, family, 1, t, x, u).log_value
        a_cur = ktilde(model, family, 2, t, x, u).log_value
        d = a_cur - a_prev
        if abs(d) > 1e-4:
            continue
        got = kernel_difference(model, family, 2, t, x, u)
        taylor = -math.exp(a_prev) * d * (1.0 + 0.5 * d)
        assert abs(got - taylor) <= 1e-8 * abs(got) + 1e-300


def test_dt_kernel_difference_matches_finite_difference():
    model, family = preset_standard(), cov_qinf(preset_standard())
    x = np.array([1.1])
    u = np.array([0.3])
    for kappa in (1, 2, 3):
        t = 0.35
        h = 1e-6
        num = (
            kernel_difference(model, family, kappa, t + h, x, u)
            - kernel_difference(model, family, kappa, t - h, x, u)
        ) / (2.0 * h)
        got = dt_kernel_difference(model, family, kappa, t, x, u)
        assert abs(got - num) <= 1e-5 * max(1.0, abs(num))


# ---------------------------------------------------------------------------
# derivative zero counting
# ---------------------------------------------------------------------------

def test_sign_changes_match_brute_force():
    model, family = preset_standard(), cov_qinf(preset_standard())
    rng = np.random.default_rng(SEED + 7)
    for _ in range(6):
        x = _draw(rng, 1, 2.5)
        u = _draw(rng, 1, 2.5)
        got = count_derivative_sign_changes(model, family, x, u, (1e-3, 10.0), 1e-3)
        ts = np.geomspace(1e-3, 10.0, 20001)
        _, factors = kernel_time_profile(model, family, x, u, ts, kappa=0)
        signs = np.sign(factors)
        signs = signs[signs != 0.0]
        brute = int(np.count_nonzero(signs[1:] != signs[:-1]))
        assert got == brute, (x, u)


def test_sign_changes_validation():
    model, family = preset_standard(), cov_qinf(preset_standard())
    with pytest.raises(ValidationError):
        count_derivative_sign_changes(model, family, [0.0], [1.0], (1.0, 0.1), 1e-3)
    with pytest.raises(ValidationError):
        count_derivative_sign_changes(model, family, [0.0], [1.0], (0.1, 1.0), 0.0)


# ---------------------------------------------------------------------------
# envelope certification
# ---------------------------------------------------------------------------

def test_bound_ids_complete():
    assert BOUND_IDS == (
        "litet_upper", "litet_lower", "lemma82", "lemma83_k2", "lemma83_k3"
    )


def test_certify_bound_deterministic_and_finite():
    model, family = preset_standard(), cov_qinf(preset_standard())
    spec = BoundSampleSpec(t_count=24, pair_count=64)
    for bound_id in BOUND_IDS:
        bspec = spec
        if bound_id in ("lemma82", "lemma83_k2", "lemma83_k3"):
            bspec = BoundSampleSpec(
                t_count=24, pair_count=64, cell_center=(2.0,)
            )
        rep1 = certify_bound(model, family, bound_id, bspec)
        rep2 = certify_bound(model, family, bound_id, bspec)
        assert rep1.fitted_C == rep2.fitted_C, bound_id
        assert rep1.fitted_c == rep2.fitted_c, bound_id
        assert math.isfinite(rep1.fitted_C) and rep1.fitted_C > 0.0, bound_id
        assert math.isfinite(rep1.fitted_c) and rep1.fitted_c > 0.0, bound_id
        assert rep1.sample_count == 24 * 64


def test_certify_bound_refinement_stability():
    """Doubling the sample count moves the fitted constant by < 2x."""
    model, family = preset_standard(), cov_qinf(preset_standard())
    spec = BoundSampleSpec(t_count=32, pair_count=96, cell_center=(2.0,))
    for bound_id in ("lemma82", "lemma83_k2"):
        c1 = certify_bound(model, family, bound_id, spec).fitted_C
        c2 = certify_bound(model, family, bound_id, spec.refined()).fitted_C
        ratio = max(c1, c2) / min(c1, c2)
        assert ratio < 2.0, (bound_id, c1, c2)


def test_certify_bound_errors():
    model, family = preset_standard(), cov_qinf(preset_standard())
    with pytest.raises(ValidationError):
        certify_bound(model, family, "nope", BoundSampleSpec())
    with pytest.raises(ValidationError):
        certify_bound(model, family, "lemma82", BoundSampleSpec())  # no cell
    with pytest.raises(RegionEmpty):
        certify_bound(
            model, family, "lemma82",
            BoundSampleSpec(t_range=(0.5, 1.0), cell_center=(10.0,)),
        )


def test_certify_bound_csv_roundtrip(tmp_path):
    model, family = preset_standard(), cov_qinf(preset_standard())
    rep = certify_bound(
        model, family, "litet_upper", BoundSampleSpec(t_count=8, pair_count=16)
    )
    path = tmp_path / "fit.csv"
    rep.write_csv(path)
    text = path.read_text(encoding="utf-8")
    lines = text.strip().splitlines()
    assert lines[0] == rep.CSV_HEADER
    assert len(lines) > 1
    # a second write is byte-identical
    rep.write_csv(tmp_path / "fit2.csv")
    assert (tmp_path / "fit2.csv").read_text(encoding="utf-8") == text
