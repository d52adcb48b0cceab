"""Harness layer: config plumbing, exact-field bridge, suites, determinism.

The 1-d exact field is pinned against the adaptive kernel route (independent
integration path); the identity suite must be all-green on both presets and
the injected kernel perturbation must turn exactly the telescoping rows red.
Reports rendered twice from one config must agree byte for byte.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr

import ou_jump_lab
from ou_jump_lab import (
    ExperimentConfig,
    FailureList,
    QuadratureSpec,
    SampledCurve,
    ValidationError,
    apply_global,
    apply_semigroup_kernel,
    build_localization,
    config_hash,
    cov_qinf,
    delta_op,
    indicator_atom,
    invariant_measure,
    jump_count,
    jump_count_dp,
    lambda_grid,
    main_op,
    mixing_time,
    monomial,
    rho_variation,
    run_identity_suite,
    run_regime_checks,
    run_weak_type_sweep,
    weak_jump_quasi_seminorm,
)
from ou_jump_lab.harness import (
    WeakTypeRow,
    _cell_field,
    _exact_field,
    _global_field,
    _invariant_window_weights_1d,
    _measure_field,
    _row_lambda_grid,
    _smooth_atom,
    _time_grid,
    build_model,
)

TINY_SWEEP = ExperimentConfig(
    atom_centers=(0.0,), atom_radii=(0.5,), points_per_decade=64,
    backbone_points=9,
)


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValidationError):
        ExperimentConfig(t_min=0.0)
    with pytest.raises(ValidationError):
        ExperimentConfig(points_per_decade=4)
    with pytest.raises(ValidationError):
        ExperimentConfig(lambda_points=0)
    with pytest.raises(ValidationError):
        ExperimentConfig(rho=0.5)
    with pytest.raises(ValidationError):
        ExperimentConfig(atom_radii=(0.5, -0.1))
    with pytest.raises(ValidationError):
        ExperimentConfig(convergence_rtol=1.5)


@pytest.mark.parametrize("bad", [
    {"ladder_factors": (0.0,)},           # the ladder doubling would never end
    {"ladder_factors": (1.0, -1.0)},
    {"ladder_factors": ()},
    {"ladder_factors": (math.inf,)},
    {"atom_centers": ()},
    {"atom_centers": (0.0, math.nan)},
    {"atom_radii": (math.nan,)},
    {"lambda_span": 0.0},
    {"lambda_span": 1.5},
    {"lambda_span": math.nan},
    {"t_min": math.nan},
    {"t_min": math.inf},
    {"backbone_halfwidth": -1.0},        # linspace(-h, h) would run backwards
    {"backbone_halfwidth": 0.0},
    {"backbone_halfwidth": math.inf},
    {"backbone_halfwidth": math.nan},
    {"backbone_points": 0},
    {"backbone_points": 1},
])
def test_config_rejects_inputs_that_fail_later(bad):
    with pytest.raises(ValidationError):
        ExperimentConfig(**bad)
    with pytest.raises(ValidationError):
        ExperimentConfig.from_dict({k: list(v) if isinstance(v, tuple) else v
                                    for k, v in bad.items()})


@pytest.mark.parametrize("bad", [
    {"lambda_span": "abc"},
    {"t_min": "x"},
    {"rho": "2"},
    {"rho": True},
    {"convergence_rtol": "a"},
    {"atom_centers": (0, "a")},
    {"atom_radii": 0.5},
    {"box": ((-6.0, "6"),)},
    {"lattice_step": "0.1"},
    {"lambda_points": 1.5},
    {"seed": True},
    {"n": "1"},
])
def test_config_rejects_values_of_the_wrong_type(bad):
    with pytest.raises(ValidationError, match=next(iter(bad))):
        ExperimentConfig(**bad)
    with pytest.raises(ValidationError, match=next(iter(bad))):
        ExperimentConfig.from_dict({k: list(v) if isinstance(v, tuple) else v
                                    for k, v in bad.items()})


def test_config_accepts_integers_in_float_fields():
    cfg = ExperimentConfig(t_min=1, rho=2, atom_centers=(0, 2), box=((-6, 6),))
    assert cfg.rho == 2


def test_config_from_dict_rejects_unknown_keys():
    cfg = ExperimentConfig.from_dict({"preset": "standard", "seed": 7})
    assert cfg.seed == 7
    with pytest.raises(ValidationError):
        ExperimentConfig.from_dict({"sede": 7})


def test_config_digest_ignores_output_dir(tmp_path):
    base = ExperimentConfig()
    moved = ExperimentConfig(output_dir=str(tmp_path))
    assert config_hash(base) == config_hash(moved)
    assert "output_dir" not in base.to_json_dict()
    assert len(config_hash(base)) == 12
    assert config_hash(ExperimentConfig(seed=1)) != config_hash(base)
    json.dumps(base.to_json_dict())  # must be serializable as-is


def test_build_model_explicit_matrices():
    cfg = ExperimentConfig.from_dict(
        {"n": 1, "q": [[2.0]], "b": [[-3.0]]}
    )
    model = build_model(cfg)
    assert model.diffusion[0, 0] == 2.0
    assert model.drift[0, 0] == -3.0
    assert build_model(ExperimentConfig()).n == 1


# ---------------------------------------------------------------------------
# atoms and fields
# ---------------------------------------------------------------------------

def test_indicator_and_monomial():
    atom = indicator_atom(-1.0, 1.0, 0.5)
    vals = atom(np.array([[0.0], [1.0], [1.5]]))
    assert np.array_equal(vals, np.array([2.0, 2.0, 0.0]))
    with pytest.raises(ValidationError):
        indicator_atom(0.0, 1.0, 0.0)
    f = monomial((2, 1))
    assert f(np.array([[3.0, 2.0]]))[0] == 18.0


def test_monomial_integer_powers():
    pts = np.random.default_rng(3).normal(0.0, 2.0, (50, 2))
    for powers in ((0, 0), (1, 0), (2, 0), (0, 3), (2, 1), (4.0, 1)):
        got = monomial(powers)(pts)
        want = pts[:, 0] ** int(powers[0]) * pts[:, 1] ** int(powers[1])
        assert np.allclose(got, want, rtol=1e-15, atol=0.0), powers
    # the square goes through exact multiplication
    assert np.array_equal(monomial((2,))(pts[:, :1]), pts[:, 0] * pts[:, 0])
    assert np.array_equal(monomial((0, 0))(pts), np.ones(50))


@pytest.mark.parametrize(
    "powers", [(0.5,), (-1,), (2, -2), (1.5, 0), (np.nan,), (np.inf,), ("a",)]
)
def test_monomial_rejects_bad_powers(powers):
    with pytest.raises(ValidationError):
        monomial(powers)


def test_smooth_atom_has_unit_invariant_mass():
    """Including far from the origin, where a fixed Gaussian rule would miss
    the bump entirely."""
    family = cov_qinf(build_model(ExperimentConfig()))
    gamma = invariant_measure(family)
    for center, width in ((0.0, 0.5), (3.9, 0.1)):
        atom = _smooth_atom(family, np.array([center]), width)
        mass, err = integrate.quad(
            lambda u: float(atom(np.array([[u]]))[0])
            * math.exp(float(gamma.logpdf(np.array([[u]]))[0])),
            center - width, center + width,
        )
        assert abs(mass - 1.0) <= max(1e-8, 10.0 * err), center


def test_invariant_window_weights():
    family = cov_qinf(build_model(ExperimentConfig()))
    pts = np.linspace(2.0, 3.0, 17)
    w = _invariant_window_weights_1d(family, pts)
    assert w.shape == pts.shape
    assert np.all(w >= 0.0)
    sd = math.sqrt(0.5)
    window_mass = ndtr(3.0 / sd) - ndtr(2.0 / sd)
    assert abs(w.sum() - window_mass) < 1e-15


def test_row_lambda_grid_tracks_data():
    ts = np.array([1.0, 2.0, 3.0])
    small = SampledCurve(ts, np.array([0.0, 0.02, 0.0]))
    big = SampledCurve(ts, np.array([0.0, 200.0, 0.0]))
    grid = _row_lambda_grid([small, big], [0.5, 0.5])
    assert grid[0] == pytest.approx(0.002)
    assert grid[-1] == 200.0
    # both amplitude decades are sampled, not just the top one
    assert grid.size >= 40
    assert np.any(grid < 0.02)
    flat = SampledCurve(ts, np.zeros(3))
    assert np.array_equal(_row_lambda_grid([flat], [1.0]), np.array([1.0]))
    # zero-weight curves do not steer the grid
    solo = _row_lambda_grid([small, big], [0.0, 1.0])
    assert solo[0] == pytest.approx(20.0)


def _synthetic_field():
    """Five points by 41 times (odd, so the coarse grid keeps both ends).
    Row 0 spikes at odd index 7, which only the fine grid sees, so the fine
    and coarse lambda grids differ; row amplitudes span 0.01 to 2."""
    ts = np.geomspace(1e-3, 10.0, 41)
    rng = np.random.default_rng(5)
    field = np.sin(np.outer(np.arange(1, 6), np.log(ts)))
    field *= np.array([1.0, 0.3, 0.1, 0.01, 2.0])[:, None]
    field += 0.05 * rng.normal(size=field.shape)
    field[0, 7] += 6.0
    weights = np.array([0.1, 0.3, 0.2, 0.25, 0.15])
    return ts, field, weights


def _inline_row(ts, field, weights, cfg, policy, norm=1.0):
    """The fine/coarse arithmetic each harness row used to do inline."""
    ts_c = ts[::2]
    fine = [SampledCurve(ts, field[i]) for i in range(field.shape[0])]
    coarse = [SampledCurve(ts_c, field[i, ::2]) for i in range(field.shape[0])]
    if policy == "variation":
        vals = []
        for curves in (fine, coarse):
            var = np.array([rho_variation(c, cfg.rho).value for c in curves])
            vals.append(float(weights @ var) / norm)
        argmax, grid = math.nan, None
    else:
        if policy == "coarse":
            shared = lambda_grid(coarse, cfg.lambda_points, cfg.lambda_span)
            grids = [shared, shared]
        elif policy == "per_density":
            grids = [lambda_grid(c, cfg.lambda_points, cfg.lambda_span)
                     for c in (fine, coarse)]
        else:
            grids = [_row_lambda_grid(c, weights) for c in (fine, coarse)]
        ests = [weak_jump_quasi_seminorm(c, weights, cfg.rho, g)
                for c, g in zip((fine, coarse), grids)]
        vals = [e.value for e in ests]
        argmax, grid = ests[0].argmax_lambda, grids[0]
    rel = abs(vals[0] - vals[1]) / max(abs(vals[0]), 1e-300)
    return vals, rel, rel <= cfg.convergence_rtol, argmax, grid, ts.size, ts_c.size


@pytest.mark.parametrize("policy", ["coarse", "per_density", "row", "variation"])
def test_row_path_matches_inline_arithmetic(policy):
    ts, field, weights = _synthetic_field()
    cfg = ExperimentConfig(lambda_points=12, lambda_span=1e-3, convergence_rtol=0.3)
    if policy == "variation":
        norm = 0.7
        m = _measure_field(ts, field, weights, cfg, functional="variation",
                           norm=norm)
    else:
        norm = 1.0
        m = _measure_field(ts, field, weights, cfg, lambdas=policy)
    vals, rel, converged, argmax, grid, n_fine, n_coarse = _inline_row(
        ts, field, weights, cfg, policy, norm
    )
    assert (m.fine, m.coarse, m.rel_change, m.converged) == (*vals, rel, converged)
    assert (m.n_fine, m.n_coarse) == (n_fine, n_coarse) == (41, 21)
    if grid is None:
        assert m.lambdas is None and math.isnan(m.argmax_lambda)
    else:
        assert np.array_equal(m.lambdas, grid)
        assert m.argmax_lambda == argmax
    if policy == "coarse":
        # the fine-only spike lies above the shared grid
        assert m.lambdas[-1] < np.ptp(field, axis=1).max()
    assert [c.values.tolist() for c in m.curves] == field.tolist()
    assert all(np.array_equal(c.times, ts) for c in m.curves)


def test_exact_field_matches_adaptive_kernel_route():
    """The closed-form 1-d field against the independent integration path."""
    model = build_model(ExperimentConfig())
    family = cov_qinf(model)
    gamma = invariant_measure(family)
    lo, hi = -0.5, 0.5
    mass = gamma.interval_mass(lo, hi)
    atom = indicator_atom(lo, hi, mass)
    xs = np.array([0.0, 0.7, -1.3])
    ts = np.array([0.05, 0.3, 2.0])
    field = _exact_field(model, family, lo, hi, mass, xs, ts)
    adaptive = QuadratureSpec(scheme="adaptive")
    for i, x in enumerate(xs):
        for k, t in enumerate(ts):
            ref = apply_semigroup_kernel(
                model, family, float(t), atom, np.array([x]), adaptive
            )
            assert abs(field[i, k] - ref) <= 1e-8 * max(1.0, abs(ref)), (x, t)


def test_jump_count_on_full_length_field_curve():
    """A default-sweep field curve (2,203 samples) against the quadratic
    reference, at thresholds spread over its own lambda grid."""
    cfg = ExperimentConfig()
    model = build_model(cfg)
    family = cov_qinf(model)
    lo, hi = -0.5, 0.5
    mass = invariant_measure(family).interval_mass(lo, hi)
    ts = _time_grid(cfg.t_min, 20.0 * mixing_time(model), cfg.points_per_decade)
    field = _exact_field(model, family, lo, hi, mass, np.array([0.7]), ts)
    curve = SampledCurve(ts, field[0])
    assert curve.n_samples == 2203
    lams = lambda_grid([curve], cfg.lambda_points, cfg.lambda_span)
    for lam in lams[::8]:
        assert jump_count(curve, lam) == jump_count_dp(curve, lam), lam


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

def test_identity_suite_standard():
    report = run_identity_suite(ExperimentConfig())
    assert report.all_pass, report.failures()
    names = {r.name for r in report.rows}
    assert {
        "kernel_telescoping", "operator_telescoping", "kernel_vs_kolmogorov_routes",
        "conservativity", "invariance", "semigroup_law", "jump_fast_path_vs_dp",
    } <= names
    assert all(line.startswith("[PASS]") for line in report.lines())


def test_identity_suite_rotating2d():
    cfg = ExperimentConfig(preset="rotating2d", n=2,
                           box=((-6.0, 6.0), (-6.0, 6.0)))
    report = run_identity_suite(cfg)
    assert report.all_pass, report.failures()


def test_identity_suite_negative_control():
    report = run_identity_suite(ExperimentConfig(), kernel_perturbation=1e-3)
    assert report.failures() == ["kernel_telescoping", "operator_telescoping"]
    with pytest.raises(FailureList):
        report.require_pass()


def test_identity_report_write(tmp_path):
    report = run_identity_suite(ExperimentConfig())
    (path,) = report.write(tmp_path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["all_pass"] is True
    assert len(payload["rows"]) == len(report.rows)


# ---------------------------------------------------------------------------
# weak-type sweep
# ---------------------------------------------------------------------------

def test_sweep_row_shape():
    report = run_weak_type_sweep(ExperimentConfig(
        **{**TINY_SWEEP.to_json_dict(), "atom_centers": (0.0, 2.0)}
    ))
    assert len(report.rows) == 2
    for row in report.rows:
        assert row.converged
        assert math.isfinite(row.j_fine) and row.j_fine > 0.0
        assert row.n_coarse * 2 - row.n_fine in (0, 1)
        assert row.argmax_lambda > 0.0
        # regime columns partition the time interval; at centre 0 the middle
        # window [cap, 1] is [1, 1], under two samples, so it is NaN
        assert math.isfinite(row.regime_small)
        assert math.isfinite(row.regime_large)
        assert math.isnan(row.regime_mid) == (row.atom_center == 0.0)
    assert report.summary["all_converged"]
    assert report.t_max == 20.0


def test_sweep_leaves_adaptive_quadrature_unloaded():
    """Import, the CLI module and a sweep load neither scipy.integrate nor
    scipy.optimize: the sweep never integrates adaptively.  A fresh
    interpreter, because this module imports scipy.integrate itself."""
    src = Path(ou_jump_lab.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "import ou_jump_lab as lab\n"
        "import ou_jump_lab.cli\n"
        "lab.run_weak_type_sweep(lab.ExperimentConfig(\n"
        "    atom_radii=(0.5,), points_per_decade=16, backbone_points=3))\n"
        "print([m for m in ('scipy.integrate', 'scipy.optimize')\n"
        "       if m in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_sweep_rejects_2d():
    cfg = ExperimentConfig(preset="rotating2d", n=2,
                           box=((-6.0, 6.0), (-6.0, 6.0)))
    with pytest.raises(ValidationError):
        run_weak_type_sweep(cfg)


def test_sweep_reports_are_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        run_weak_type_sweep(ExperimentConfig(
            **{**TINY_SWEEP.to_json_dict(), "output_dir": str(out)}
        ))
    for name in ("config.json", "rows.csv", "summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    header = (out_a / "rows.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == WeakTypeRow.CSV_HEADER


# ---------------------------------------------------------------------------
# batched fields
# ---------------------------------------------------------------------------

def test_batched_fields_match_single_point_operators():
    """One node system per time serves every point, and each point still gets
    the single-point operators' value.  The times cover both node branches on
    ``standard`` (recentred up to ~0.32, invariant at 1).  The values agree to
    1e-12 relative, as in the identity row, not bit for bit: the kernel and
    node densities go through LAPACK solves whose rounding may depend on how
    many points share the call."""
    model = build_model(ExperimentConfig())
    family = cov_qinf(model)
    quad = QuadratureSpec()
    scheme = build_localization(model, family, [(-4.0, 4.0)])
    far = int(np.argmax(np.abs(scheme.centers[:, 0])))
    c_far, r_far = float(scheme.centers[far, 0]), float(scheme.radii[far])
    dead = 4.0 + 6.0 * float(scheme.radii.max()) + 1.0
    assert not scheme.rt_all([dead]).any()
    xs = np.array([[0.3], [c_far - 0.1 * r_far], [dead]])
    ts = np.array([1e-3, 0.1, 1.0])
    f = _smooth_atom(family, np.array([0.5]), 5.0)

    def close(got, ref):
        return abs(got - ref) <= 1e-12 * abs(ref)

    glob = _global_field(model, family, scheme, f, xs, ts, quad)
    for xi, x in enumerate(xs):
        for ti, t in enumerate(ts.tolist()):
            ref = apply_global(model, family, scheme, t, f, x, quad)
            assert close(glob[xi, ti], ref), (x, t)
    assert np.all(glob[:2, 1:] != 0.0)

    for j in (0, far):
        ts_j = np.minimum(ts, scheme.cell_time_cap(j))
        fields = _cell_field(model, family, scheme, j, f, xs, ts_j, quad)

        def fr(pts, j=j):
            return f(pts) * scheme.r_j(j, pts)

        for xi, x in enumerate(xs):
            for ti, t in enumerate(ts_j.tolist()):
                refs = {
                    f"delta{kappa}": delta_op(
                        model, family, scheme, kappa, j, t, f, x, quad
                    )
                    for kappa in (1, 2, 3)
                }
                refs["main"] = main_op(model, family, scheme, j, t, f, x, quad)
                refs["h_local"] = scheme.rt_at(j, x) * apply_semigroup_kernel(
                    model, family, t, fr, x, quad
                )
                for key, ref in refs.items():
                    assert close(fields[key][xi, ti], ref), (j, x, t, key)
        live = 0 if j == 0 else 1
        for key, vals in fields.items():
            assert np.all(vals[live] != 0.0), (j, key)


# ---------------------------------------------------------------------------
# regime checks
# ---------------------------------------------------------------------------

def test_regime_checks_reduced(tmp_path):
    cfg = ExperimentConfig(
        regime_points_per_decade=48, quad_order=32, output_dir=str(tmp_path)
    )
    report = run_regime_checks(cfg)
    rerun = tmp_path / "rerun"
    run_regime_checks(dataclasses.replace(cfg, output_dir=str(rerun)))
    for name in ("regime_rows.csv", "regime_summary.json"):
        assert (tmp_path / name).read_bytes() == (rerun / name).read_bytes(), name
    groups = {r.group for r in report.rows}
    assert {
        "large_time_jumps", "global_small_time_jumps", "main_op_weak_jumps",
        "localized_var_mid_window", "difference_op_var_k1",
        "difference_op_var_k2", "difference_op_var_k3",
    } == groups
    for row in report.rows:
        assert math.isfinite(row.ratio_fine), (row.group, row.cell)
    # only the uniform-in-cell claims carry the factor-10 gate
    for group, stats in report.spreads.items():
        gated = group in ("localized_var_mid_window", "main_op_weak_jumps")
        assert stats["gated"] == gated
        if gated:
            assert stats["within_factor_10"], (group, stats)
    assert report.all_within_spread
    assert (tmp_path / "regime_rows.csv").is_file()
    summary = json.loads(
        (tmp_path / "regime_summary.json").read_text(encoding="utf-8")
    )
    assert summary["all_within_spread"] is True
    assert summary["config_digest"] == config_hash(cfg)
