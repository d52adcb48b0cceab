"""Acceptance battery: one test (and one printed verdict line) per criterion.

Each criterion pins a tolerance or budget chosen up front; the printed line
carries the measured worst case so a red run names its number immediately.
"""

import itertools
import math
import time

import numpy as np

from ou_jump_lab import (
    BoundSampleSpec,
    ExperimentConfig,
    QuadratureSpec,
    SampledCurve,
    apply_semigroup_kernel,
    apply_semigroup_kolmogorov,
    certify_bound,
    count_derivative_sign_changes,
    cov_qinf,
    expect_invariant,
    jump_count,
    jump_count_dp,
    kernel_time_profile,
    ktilde,
    monomial,
    n_factor,
    preset_rotating2d,
    preset_standard,
    rho_variation,
    run_identity_suite,
    run_weak_type_sweep,
)
from ou_jump_lab.harness import _random_curve, build_model

SEED = 20250815
ROTATING_CFG = ExperimentConfig(
    preset="rotating2d", n=2, box=((-6.0, 6.0), (-6.0, 6.0))
)


def _verdict(num: int, label: str, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num} ({label}): {detail}")
    return ok


def _presets():
    return [
        (preset_standard(), cov_qinf(preset_standard())),
        (preset_rotating2d(), cov_qinf(preset_rotating2d())),
    ]


# ---------------------------------------------------------------------------
# 1. derivative factors vs finite differences
# ---------------------------------------------------------------------------

def test_criterion_1_derivative_identities():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    for model, family in _presets():
        for _ in range(500):
            kappa = int(rng.integers(0, 4))
            t = float(np.exp(rng.uniform(math.log(0.05), 0.0)))
            x = rng.uniform(-3.0, 3.0, model.n)
            u = rng.uniform(-3.0, 3.0, model.n)
            h = (np.finfo(float).eps ** (1.0 / 3.0)) * t
            fd = (
                ktilde(model, family, kappa, t + h, x, u).log_value
                - ktilde(model, family, kappa, t - h, x, u).log_value
            ) / (2.0 * h)
            analytic = n_factor(model, family, kappa, t, x, u)
            rel = abs(fd - analytic) / max(abs(fd), abs(analytic))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 10.0
    assert _verdict(
        1, "derivative identities",
        ok, f"worst rel {worst:.3e} over 1000 draws in {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 2. dual semigroup routes on polynomials
# ---------------------------------------------------------------------------

def test_criterion_2_dual_routes():
    quad = QuadratureSpec()
    rng = np.random.default_rng(SEED + 2)
    worst_gap = 0.0
    worst_cons = 0.0
    worst_inv = 0.0
    for model, family in _presets():
        n = model.n
        if n == 1:
            powers = [(d,) for d in range(5)]
        else:
            powers = [
                (i, j) for i, j in itertools.product(range(5), range(5))
                if i + j <= 4
            ]
        xs = [rng.uniform(-1.5, 1.5, n) for _ in range(2)]
        for pw in powers:
            f = monomial(pw)
            for t in (0.1, 1.0, 5.0):
                for x in xs:
                    a = apply_semigroup_kernel(model, family, t, f, x, quad)
                    b = apply_semigroup_kolmogorov(model, family, t, f, x, quad)
                    worst_gap = max(worst_gap, abs(a - b))
        one = monomial((0,) * n)
        for t in (0.1, 1.0, 5.0):
            val = apply_semigroup_kernel(model, family, t, one, xs[0], quad)
            worst_cons = max(worst_cons, abs(val - 1.0))
        f2 = monomial(tuple([2] + [0] * (n - 1)))
        base = expect_invariant(model, family, f2, quad)
        for t in (0.2, 1.0):
            def smeared(pts, t=t):
                return np.array(
                    [apply_semigroup_kolmogorov(model, family, t, f2, p, quad)
                     for p in np.atleast_2d(pts)]
                )
            val = expect_invariant(model, family, smeared, QuadratureSpec(order=24))
            worst_inv = max(worst_inv, abs(val - base))
    ok = worst_gap <= 1e-8 and worst_cons <= 1e-6 and worst_inv <= 1e-6
    assert _verdict(
        2, "dual-oracle semigroup agreement", ok,
        f"route gap {worst_gap:.3e}, conservativity {worst_cons:.3e}, "
        f"invariance {worst_inv:.3e}",
    )


# ---------------------------------------------------------------------------
# 3. telescoping decomposition
# ---------------------------------------------------------------------------

def test_criterion_3_telescoping():
    by_name = {}
    for cfg in (ExperimentConfig(), ROTATING_CFG):
        report = run_identity_suite(cfg)
        for row in report.rows:
            prev = by_name.get(row.name)
            if prev is None or row.worst > prev.worst:
                by_name[row.name] = row
    kernel = by_name["kernel_telescoping"]
    operator = by_name["operator_telescoping"]
    conv = by_name["main_op_convolution_form"]
    ok = (
        kernel.passed and kernel.tol == 1e-12
        and operator.passed and operator.tol == 1e-8
        and conv.passed and conv.tol == 1e-8
    )
    assert _verdict(
        3, "telescoping decomposition", ok,
        f"kernel {kernel.worst:.3e} (tol 1e-12), operator {operator.worst:.3e} "
        f"(tol 1e-8), convolution form {conv.worst:.3e} (tol 1e-8)",
    )


# ---------------------------------------------------------------------------
# 4. functional cross-checks and hand examples
# ---------------------------------------------------------------------------

def test_criterion_4_functional_correctness():
    rng = np.random.default_rng(SEED + 4)
    mismatches = 0
    for _ in range(1000):
        c = _random_curve(rng, max_len=50)
        lam = float(rng.uniform(0.05, 2.0))
        if jump_count(c, lam) != jump_count_dp(c, lam):
            mismatches += 1
    var_gap = 0.0
    for _ in range(300):
        c = _random_curve(rng, max_len=30)
        for rho in (1.5, 2.0, 3.0):
            a = rho_variation(c, rho, method="extrema").value
            b = rho_variation(c, rho, method="full").value
            var_gap = max(var_gap, abs(a - b))
    zigzag = SampledCurve(np.arange(1.0, 6.0), np.array([0.0, 2.0, 0.0, 2.0, 0.0]))
    tent = SampledCurve(np.arange(1.0, 4.0), np.array([0.0, 1.0, 0.0]))
    hand = (
        jump_count(zigzag, 1.0) == 5
        and rho_variation(tent, 2.0).value == math.sqrt(2.0)
        and rho_variation(tent, 1.0).value == 2.0
        and rho_variation(zigzag, 1.0).value == 8.0
    )
    ok = mismatches == 0 and var_gap == 0.0 and hand
    assert _verdict(
        4, "functional correctness", ok,
        f"count mismatches {mismatches}/1000, variation fast-path gap "
        f"{var_gap:.1e}, hand examples {'ok' if hand else 'BAD'}",
    )


# ---------------------------------------------------------------------------
# 5. inequality suite
# ---------------------------------------------------------------------------

def test_criterion_5_inequality_suite():
    rng = np.random.default_rng(SEED + 5)
    curves = [_random_curve(rng, max_len=40) for _ in range(10_000)]
    violations = []

    # pointwise domination: lam * exceedances^(1/rho) <= v(rho), every curve
    for i, c in enumerate(curves):
        lam = float(rng.uniform(0.05, 2.0))
        rho = float(rng.uniform(1.0, 3.0))
        dom = lam * (jump_count(c, lam) - 1) ** (1.0 / rho)
        if dom > rho_variation(c, rho).value:
            violations.append(("domination", i))

    # quasi-subadditivity on same-grid pairs
    for i in range(2000):
        c1 = curves[2 * i]
        v2 = rng.normal(0.0, 1.0, c1.n_samples)
        c2 = SampledCurve(c1.times, v2)
        both = SampledCurve(c1.times, c1.values + v2)
        lam = float(rng.uniform(0.1, 2.0))
        lhs = jump_count(both, lam)
        rhs = jump_count(c1, lam / 4.0) + jump_count(c2, lam / 4.0)
        if lhs > 2 * rhs:
            violations.append(("subadditivity", i))

    # monotonicity of the count in lambda and under subsampling
    for i in range(4000, 8000):
        c = curves[i]
        lam = float(rng.uniform(0.05, 1.0))
        if jump_count(c, 2.0 * lam) > jump_count(c, lam):
            violations.append(("lambda_monotone", i))
        coarse = SampledCurve(c.times[::2], c.values[::2])
        if jump_count(coarse, lam) > jump_count(c, lam):
            violations.append(("refinement_count", i))

    # monotonicity of the variation in rho and under subsampling
    for i in range(8000, 10_000):
        c = curves[i]
        vals = [rho_variation(c, r).value for r in (1.0, 1.5, 2.0, 3.0)]
        for a, b in zip(vals, vals[1:]):
            if b > a + 4.0 * np.spacing(a):
                violations.append(("rho_monotone", i))
        coarse = SampledCurve(c.times[::2], c.values[::2])
        v_fine = rho_variation(c, 2.0).value
        v_coarse = rho_variation(coarse, 2.0).value
        if v_coarse > v_fine + 4.0 * np.spacing(v_fine):
            violations.append(("refinement_variation", i))

    ok = not violations
    assert _verdict(
        5, "inequality suite", ok,
        f"{len(violations)} violation(s) over 10000 curves"
        + (f"; first: {violations[0]}" if violations else ""),
    )


# ---------------------------------------------------------------------------
# 6. envelope constants exist and are refinement-stable
# ---------------------------------------------------------------------------

def test_criterion_6_envelope_fits():
    model, family = preset_standard(), cov_qinf(preset_standard())
    start = time.perf_counter()
    jobs = [("litet_upper", None), ("litet_lower", None)]
    jobs += [
        (bound_id, (float(c),))
        for bound_id in ("lemma82", "lemma83_k2", "lemma83_k3")
        for c in (0.0, 2.0, 4.0)
    ]
    worst_ratio = 0.0
    all_finite = True
    for bound_id, cell in jobs:
        spec = BoundSampleSpec(t_count=32, pair_count=128, cell_center=cell)
        base = certify_bound(model, family, bound_id, spec)
        fine = certify_bound(model, family, bound_id, spec.refined())
        for rep in (base, fine):
            all_finite = all_finite and math.isfinite(rep.fitted_C) \
                and rep.fitted_C > 0.0 and math.isfinite(rep.fitted_c) \
                and rep.fitted_c > 0.0
        ratio = max(base.fitted_C, fine.fitted_C) / min(base.fitted_C, fine.fitted_C)
        worst_ratio = max(worst_ratio, ratio)
    elapsed = time.perf_counter() - start
    ok = all_finite and worst_ratio < 2.0 and elapsed < 120.0
    assert _verdict(
        6, "envelope constants", ok,
        f"{len(jobs)} fits, worst refinement ratio x{worst_ratio:.3f}, "
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7. weak-type trend over three atom decades
# ---------------------------------------------------------------------------

def test_criterion_7_weak_type_trend():
    start = time.perf_counter()
    report = run_weak_type_sweep(ExperimentConfig())
    elapsed = time.perf_counter() - start
    slope = report.summary["slope_log_ratio_vs_log_radius"]
    converged = report.summary["all_converged"]
    radii = sorted({row.atom_radius for row in report.rows})
    ok = (
        radii == [0.005, 0.05, 0.5]
        and abs(slope) <= 0.15
        and converged
        and elapsed < 600.0
    )
    assert _verdict(
        7, "weak-type trend", ok,
        f"slope {slope:.4f} over radii {radii}, all converged {converged}, "
        f"{elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 8. zero-count stability and the mean-value bound
# ---------------------------------------------------------------------------

def test_criterion_8_zero_counts():
    model, family = preset_standard(), cov_qinf(preset_standard())
    rng = np.random.default_rng(SEED + 8)
    interval = (0.25, 1.0)  # short-time window of the cell at |x| = 2
    unstable = 0
    mv_violations = 0
    worst_count = 0
    ts = np.geomspace(interval[0], interval[1], 6000)
    for i in range(1000):
        x = rng.uniform(1.0, 3.0, 1)
        u = rng.uniform(1.0, 3.0, 1)
        count = count_derivative_sign_changes(model, family, x, u, interval, 1e-4)
        worst_count = max(worst_count, count)
        if i < 100:  # resolution halving below 1e-4
            half = count_derivative_sign_changes(model, family, x, u, interval, 5e-5)
            if half != count:
                unstable += 1
        # fundamental-theorem bound: int |K'| <= (count+1) * sup K
        logs, n0 = kernel_time_profile(model, family, x, u, ts, kappa=0)
        k = np.exp(logs)
        integral = float(np.trapezoid(np.abs(k * n0), ts))
        bound = (count + 1) * float(k.max())
        if integral > bound * (1.0 + 1e-6):
            mv_violations += 1
    ok = unstable == 0 and mv_violations == 0
    assert _verdict(
        8, "zero-count stability", ok,
        f"{unstable} unstable counts/100, {mv_violations} mean-value "
        f"violations/1000, max count {worst_count}",
    )


# ---------------------------------------------------------------------------
# 9. byte-identical reports
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    cfg = dict(atom_centers=(0.0,), atom_radii=(0.5,),
               points_per_decade=64, backbone_points=9)
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        run_weak_type_sweep(ExperimentConfig(output_dir=str(d), **cfg))
        run_identity_suite(ExperimentConfig(**cfg)).write(d)
    names = ("config.json", "rows.csv", "summary.json", "identities.json")
    same = {
        name: (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        for name in names
    }
    ok = all(same.values())
    assert _verdict(
        9, "determinism", ok,
        "byte-identical: " + ", ".join(f"{k}={v}" for k, v in same.items()),
    )
