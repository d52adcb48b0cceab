"""Jump counts, rho-variation, weak norms: hand examples and cross-checks.

The fast jump counter is pinned bit-for-bit to the quadratic reference, the
extrema-reduced variation DP to the full one, and every hand example is
small enough to verify by eye.
"""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from ou_jump_lab import (
    EmptyCurve,
    RhoOutOfRange,
    SampledCurve,
    ValidationError,
    jump_count,
    jump_count_dp,
    jump_quasi_seminorm,
    lambda_grid,
    read_curves_csv,
    rho_variation,
    weak_jump_quasi_seminorm,
    weak_quasinorm,
    write_curves_csv,
)
from ou_jump_lab import functionals
from ou_jump_lab.functionals import _stacked_jump_counts, _variation_dp

SEED = 20250815


def _curve(values, times=None):
    values = np.asarray(values, dtype=float)
    if times is None:
        times = np.arange(1, values.size + 1, dtype=float)
    return SampledCurve(times, values)


def _random_curves(rng, count, max_len=60):
    out = []
    for _ in range(count):
        n = int(rng.integers(2, max_len))
        vals = rng.normal(0.0, 1.0, n)
        if rng.random() < 0.2:
            vals = np.round(vals, 1)  # force ties
        out.append(_curve(vals))
    return out


# ---------------------------------------------------------------------------
# curve container
# ---------------------------------------------------------------------------

def test_curve_validation():
    with pytest.raises(EmptyCurve):
        SampledCurve(np.array([]), np.array([]))
    with pytest.raises(ValidationError):
        SampledCurve(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(ValidationError):
        SampledCurve(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValidationError):
        SampledCurve(np.array([1.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValidationError):
        SampledCurve(np.array([1.0, 2.0]), np.array([1.0, np.nan]))


def test_curve_window_and_range():
    c = _curve([0.0, 2.0, 0.0, 2.0, 0.0])
    assert c.value_range() == 2.0
    sub = c.restricted(2.0, 4.0)
    assert sub.n_samples == 3
    assert np.array_equal(sub.values, np.array([2.0, 0.0, 2.0]))
    with pytest.raises(EmptyCurve):
        c.restricted(10.0, 11.0)


# ---------------------------------------------------------------------------
# jump counting
# ---------------------------------------------------------------------------

def test_jump_count_hand_examples():
    zigzag = _curve([0.0, 2.0, 0.0, 2.0, 0.0])
    assert jump_count(zigzag, 1.0) == 5       # every move clears 1
    assert jump_count(zigzag, 2.0) == 1       # gaps are exactly 2, need >
    assert jump_count(_curve([3.0]), 0.5) == 1
    assert jump_count(_curve([1.0, 1.0, 1.0]), 0.1) == 1
    # the best chain may skip samples
    assert jump_count(_curve([0.0, 0.5, 1.1]), 1.0) == 2
    assert jump_count(_curve([0.0, 3.0, 0.1, 3.1]), 2.9) == 2
    # both value ranges are needed: tracking only the top level's range
    # gives 3 here, and a greedy walk from the last chain point gives 1 on
    # the second curve
    assert jump_count(_curve([0.0, 2.0, 1.0, 3.0]), 1.5) == 2
    assert jump_count(_curve([1.0, 0.0, 2.0]), 1.5) == 2


def test_jump_count_matches_reference():
    rng = np.random.default_rng(SEED)
    for curve in _random_curves(rng, 150):
        lam = float(rng.uniform(0.05, 2.5))
        assert jump_count(curve, lam) == jump_count_dp(curve, lam)


def test_jump_count_matches_reference_exhaustively():
    """Every sequence of length <= 6 over {0, 1, 2, 3}, thresholds between
    and on the integer gaps."""
    for length in range(1, 7):
        times = np.arange(1, length + 1, dtype=float)
        for seq in itertools.product((0.0, 1.0, 2.0, 3.0), repeat=length):
            curve = SampledCurve(times, np.array(seq))
            for lam in (0.5, 1.0, 1.5, 2.5):
                assert jump_count(curve, lam) == jump_count_dp(curve, lam), (
                    seq, lam,
                )


def test_jump_count_float_edges():
    """The strict predicate on the float differences, at the last bit."""
    ulp = 2.0**-52
    tied = _curve(1.0 + ulp * np.array([0.0, 2.0, 0.0, 2.0]))
    assert jump_count(tied, 2.0 * ulp) == 1    # gaps exactly lam
    assert jump_count(tied, ulp) == 4
    # the exact gap exceeds lam but the float gap rounds down onto it
    rounded = _curve([-1e-17, 1.0 + ulp])
    assert rounded.values[1] - rounded.values[0] == 1.0 + ulp
    assert jump_count(rounded, 1.0 + ulp) == 1
    rng = np.random.default_rng(SEED + 4)
    for _ in range(300):
        steps = rng.integers(0, 6, int(rng.integers(2, 14)))
        curve = _curve(1.0 + ulp * steps)
        lam = ulp * float(rng.integers(1, 5))
        assert jump_count(curve, lam) == jump_count_dp(curve, lam)
    pool = np.array([-1e-17, 0.0, 1e-17, 1.0, 1.0 + ulp, 1.0 + 2.0 * ulp, 2.0])
    for _ in range(300):
        curve = _curve(rng.choice(pool, int(rng.integers(2, 14))))
        lam = float(rng.choice([1.0, 1.0 + ulp, ulp, 1e-17]))
        assert jump_count(curve, lam) == jump_count_dp(curve, lam)


def _assert_stacked_matches_scalar(curves, lams):
    """One stacked batch per sequence length, row by row against jump_count."""
    lams = np.asarray(lams, dtype=float)
    by_length = {}
    for curve in curves:
        by_length.setdefault(curve.n_samples, []).append(curve)
    for batch in by_length.values():
        stacked = _stacked_jump_counts(np.stack([c.values for c in batch]), lams)
        assert stacked.shape == (len(batch), lams.size)
        for curve, row in zip(batch, stacked):
            expect = [jump_count(curve, float(lam)) for lam in lams]
            assert row.tolist() == expect, (curve.values.tolist(), lams)


def test_stacked_counts_match_scalar_exhaustively():
    """The exhaustive set above, one batch of all 4^N sequences per length."""
    curves = [
        _curve(seq)
        for length in range(1, 7)
        for seq in itertools.product((0.0, 1.0, 2.0, 3.0), repeat=length)
    ]
    _assert_stacked_matches_scalar(curves, [0.5, 1.0, 1.5, 2.5])


def test_stacked_counts_float_edges():
    """The float-edge cases above, stacked: the strict predicate at the last bit."""
    ulp = 2.0**-52
    tied = _curve(1.0 + ulp * np.array([0.0, 2.0, 0.0, 2.0]))
    assert _stacked_jump_counts(tied.values[None], np.array([2.0 * ulp, ulp])
                                ).tolist() == [[1, 4]]
    rounded = _curve([-1e-17, 1.0 + ulp])
    assert _stacked_jump_counts(rounded.values[None], np.array([1.0 + ulp])
                                ).tolist() == [[1]]
    rng = np.random.default_rng(SEED + 4)
    steps = [rng.integers(0, 6, int(rng.integers(2, 14))) for _ in range(300)]
    _assert_stacked_matches_scalar(
        [_curve(1.0 + ulp * s) for s in steps], ulp * np.arange(1.0, 5.0)
    )
    pool = np.array([-1e-17, 0.0, 1e-17, 1.0, 1.0 + ulp, 1.0 + 2.0 * ulp, 2.0])
    _assert_stacked_matches_scalar(
        [_curve(rng.choice(pool, int(rng.integers(2, 14)))) for _ in range(300)],
        [1.0, 1.0 + ulp, ulp, 1e-17],
    )


def test_jump_count_monotone_in_threshold():
    rng = np.random.default_rng(SEED + 1)
    for curve in _random_curves(rng, 30):
        lams = np.geomspace(0.01, 5.0, 12)
        counts = [jump_count(curve, float(l)) for l in lams]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_jump_count_monotone_under_subsampling():
    """Dropping samples can only shorten the best chain."""
    rng = np.random.default_rng(SEED + 2)
    for curve in _random_curves(rng, 30, max_len=40):
        coarse = SampledCurve(curve.times[::2], curve.values[::2])
        for lam in (0.2, 0.7, 1.5):
            assert jump_count(coarse, lam) <= jump_count(curve, lam)


def test_jump_count_quasi_subadditive():
    """N_lam(phi + psi) <= 2 (N_{lam/4}(phi) + N_{lam/4}(psi))."""
    rng = np.random.default_rng(SEED + 3)
    for _ in range(40):
        n = int(rng.integers(3, 50))
        a = rng.normal(0.0, 1.0, n)
        b = rng.normal(0.0, 1.0, n)
        lam = float(rng.uniform(0.1, 2.0))
        lhs = jump_count(_curve(a + b), lam)
        rhs = jump_count(_curve(a), lam / 4.0) + jump_count(_curve(b), lam / 4.0)
        assert lhs <= 2 * rhs


def test_jump_count_bad_threshold():
    c = _curve([0.0, 1.0])
    with pytest.raises(ValidationError):
        jump_count(c, 0.0)
    with pytest.raises(ValidationError):
        jump_count(c, -1.0)


# ---------------------------------------------------------------------------
# rho-variation
# ---------------------------------------------------------------------------

def test_variation_hand_examples():
    tent = _curve([0.0, 1.0, 0.0])
    assert rho_variation(tent, 1.0).value == 2.0
    assert abs(rho_variation(tent, 2.0).value - math.sqrt(2.0)) < 1e-15
    assert abs(rho_variation(tent, 3.0).value - 2.0 ** (1.0 / 3.0)) < 1e-15
    flat = _curve([0.7, 0.7, 0.7])
    res = rho_variation(flat, 2.0)
    assert res.value == 0.0
    # monotone run: v(1) is the endpoint gap, attained without the interior
    ramp = _curve([0.0, 0.3, 1.0, 2.0])
    assert rho_variation(ramp, 1.0).value == 2.0


def test_variation_reduction_matches_full():
    rng = np.random.default_rng(SEED + 4)
    for curve in _random_curves(rng, 40, max_len=30):
        for rho in (1.5, 2.0, 3.0):
            a = rho_variation(curve, rho, method="extrema").value
            b = rho_variation(curve, rho, method="full").value
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a)), (rho, curve.values)


def test_variation_partition_resums():
    rng = np.random.default_rng(SEED + 5)
    for curve in _random_curves(rng, 25, max_len=25):
        res = rho_variation(curve, 2.0)
        v = curve.values[np.asarray(res.partition)]
        # accumulate tail-first, mirroring the suffix DP
        total = 0.0
        for inc in np.abs(np.diff(v))[::-1]:
            total = float(inc) ** 2.0 + total
        assert abs(total ** 0.5 - res.value) <= 1e-12 * max(1.0, res.value)
        assert list(res.partition) == sorted(set(res.partition))


def _per_row_variation_dp(v, rho):
    """The DP one row at a time, increments rebuilt per row, chain found by
    re-testing the row equalities: the reference for the table form."""
    g = np.zeros(v.size)
    for i in range(v.size - 2, -1, -1):
        g[i] = float(np.max(np.abs(v[i + 1 :] - v[i]) ** rho + g[i + 1 :]))
    total = float(g.max())
    if total == 0.0:
        return 0.0, [0]
    i = int(np.argmax(g == total))
    chain = [i]
    while g[i] > 0.0:
        tail = np.abs(v[i + 1 :] - v[i]) ** rho + g[i + 1 :]
        i = i + 1 + int(np.argmax(tail == g[i]))
        chain.append(i)
    return total, chain


@pytest.mark.parametrize("block_floats", [None, 7, 500])
def test_variation_dp_matches_per_row_form(monkeypatch, block_floats):
    """Same value and chain, bit for bit, including across block edges."""
    if block_floats is not None:
        monkeypatch.setattr(functionals, "_DP_BLOCK_FLOATS", block_floats)
    rng = np.random.default_rng(SEED + 9)
    lengths = [1, 2, 3, 218, 219, 300] + [int(n) for n in rng.integers(2, 301, 24)]
    for k, n in enumerate(lengths):
        v = rng.normal(0.0, 1.0, n)
        if k % 2:
            v = np.round(v * 2.0) / 2.0   # ties
        for rho in (1.0, 1.5, 2.0, 3.0, float(rng.uniform(1.0, 4.0))):
            assert _variation_dp(v, rho) == _per_row_variation_dp(v, rho), (n, rho)


def test_full_variation_memory_is_not_quadratic():
    n = 5000
    curve = _curve(np.random.default_rng(SEED + 10).normal(0.0, 1.0, n))
    tracemalloc.start()
    try:
        rho_variation(curve, 2.0, method="full")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n / 50   # n^2 floats would be 200 MB


def test_variation_monotone_in_rho():
    rng = np.random.default_rng(SEED + 6)
    for curve in _random_curves(rng, 20):
        vals = [rho_variation(curve, rho).value for rho in (1.0, 1.5, 2.0, 3.0)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_variation_validation():
    c = _curve([0.0, 1.0])
    with pytest.raises(RhoOutOfRange):
        rho_variation(c, 0.5)
    with pytest.raises(ValidationError):
        rho_variation(c, 2.0, method="greedy")


# ---------------------------------------------------------------------------
# weak quasinorm
# ---------------------------------------------------------------------------

def test_weak_quasinorm_hand_example():
    # levels: 2 with mass 0.1, 1 with inclusive mass 0.6
    assert weak_quasinorm([2.0, 1.0], [0.1, 0.5]) == 0.6
    assert weak_quasinorm([-2.0, 1.0], [0.1, 0.5]) == 0.6  # absolute values
    assert weak_quasinorm([0.0, 0.0], [1.0, 1.0]) == 0.0
    assert weak_quasinorm([], []) == 0.0


def test_weak_quasinorm_below_l1():
    rng = np.random.default_rng(SEED + 7)
    for _ in range(30):
        v = rng.normal(0.0, 2.0, 25)
        w = rng.uniform(0.0, 1.0, 25)
        assert weak_quasinorm(v, w) <= float(np.abs(v) @ w) + 1e-12


def test_weak_quasinorm_validation():
    with pytest.raises(ValidationError):
        weak_quasinorm([1.0, 2.0], [1.0])
    with pytest.raises(ValidationError):
        weak_quasinorm([1.0], [-1.0])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError):
            weak_quasinorm([1.0, bad], [1.0, 1.0])
        with pytest.raises(ValidationError):
            weak_quasinorm([1.0, 2.0], [1.0, bad])


# ---------------------------------------------------------------------------
# seminorm builders
# ---------------------------------------------------------------------------

def test_seminorm_hand_example():
    """Zigzag curve: 4 threshold-clearing moves, so lam * sqrt(count) = 2."""
    zigzag = _curve([0.0, 2.0, 0.0, 2.0, 0.0])
    est = jump_quasi_seminorm([zigzag], [1.0], rho=2.0, p=1.0, lambdas=[1.0])
    assert est.value == 2.0
    assert est.argmax_lambda == 1.0


def test_seminorm_flat_gate():
    """Thresholds at or above the value range contribute nothing."""
    tent = _curve([0.0, 1.0, 0.0])
    est = jump_quasi_seminorm([tent], [1.0], rho=2.0, p=1.0, lambdas=[1.0, 2.0])
    assert np.array_equal(est.per_lambda, np.zeros(2))
    assert est.value == 0.0


def test_weak_seminorm_hand_example():
    zigzag = _curve([0.0, 2.0, 0.0, 2.0, 0.0])
    flat = _curve([1.0, 1.0, 1.0, 1.0, 1.0])
    est = weak_jump_quasi_seminorm(
        [zigzag, flat], [0.3, 0.7], rho=2.0, lambdas=[1.0]
    )
    assert est.value == 0.6  # level 2 with mass 0.3


def test_seminorms_of_ragged_curves_match_per_pair_counts():
    """Mixed lengths go through one stacked sweep per length; the estimates
    equal a per-(curve, lam) jump_count loop."""
    rng = np.random.default_rng(SEED + 11)
    curves = _random_curves(rng, 25, max_len=30)
    curves += [_curve(rng.normal(0.0, 1.0, 300)) for _ in range(3)]
    curves += [_curve(np.full(7, 0.5)), _curve([2.0])]
    w = rng.uniform(0.0, 1.0, len(curves))
    lams = np.concatenate([lambda_grid(curves, count=12), [1e-3, 0.1, 0.1]])
    counts = np.array(
        [[jump_count(c, float(lam)) - 1 for c in curves] for lam in lams],
        dtype=float,
    )
    for rho in (1.0, 2.0, 3.0):
        g = lams[:, None] * counts ** (1.0 / rho)
        weak = weak_jump_quasi_seminorm(curves, w, rho=rho, lambdas=lams)
        assert weak.per_lambda.tolist() == [weak_quasinorm(gk, w) for gk in g]
        for p in (1.0, 2.5):
            strong = jump_quasi_seminorm(curves, w, rho=rho, p=p, lambdas=lams)
            expect = [float((w @ np.abs(gk) ** p) ** (1.0 / p)) for gk in g]
            assert strong.per_lambda.tolist() == expect
            assert strong.value == max(expect)


def test_seminorm_decreasing_in_rho():
    rng = np.random.default_rng(SEED + 8)
    curves = _random_curves(rng, 12)
    w = np.full(len(curves), 1.0 / len(curves))
    lams = lambda_grid(curves, count=15)
    vals = [
        jump_quasi_seminorm(curves, w, rho=r, p=1.0, lambdas=lams).value
        for r in (1.5, 2.0, 3.0)
    ]
    assert vals[0] >= vals[1] >= vals[2]


def test_seminorm_validation():
    c = _curve([0.0, 1.0])
    with pytest.raises(RhoOutOfRange):
        jump_quasi_seminorm([c], [1.0], rho=0.9, p=1.0, lambdas=[1.0])
    with pytest.raises(ValidationError):
        jump_quasi_seminorm([c], [1.0], rho=2.0, p=0.0, lambdas=[1.0])
    with pytest.raises(ValidationError):
        jump_quasi_seminorm([c], [1.0, 2.0], rho=2.0, p=1.0, lambdas=[1.0])
    with pytest.raises(ValidationError):
        jump_quasi_seminorm([c], [-1.0], rho=2.0, p=1.0, lambdas=[1.0])
    with pytest.raises(ValidationError):
        jump_quasi_seminorm([c], [1.0], rho=2.0, p=1.0, lambdas=[])
    with pytest.raises(ValidationError):
        jump_quasi_seminorm([c], [1.0], rho=2.0, p=1.0, lambdas=[0.0])


@pytest.mark.parametrize("lam", [math.inf, math.nan])
def test_seminorms_reject_non_finite_thresholds(lam):
    c = _curve([0.0, 1.0])
    with pytest.raises(ValidationError):
        weak_jump_quasi_seminorm([c], [1.0], rho=2.0, lambdas=[1.0, lam])
    with pytest.raises(ValidationError):
        jump_quasi_seminorm([c], [1.0], rho=2.0, p=1.0, lambdas=[lam])


@pytest.mark.parametrize("weight", [math.nan, math.inf])
def test_seminorms_reject_non_finite_weights(weight):
    c = _curve([0.0, 1.0])
    with pytest.raises(ValidationError):
        weak_jump_quasi_seminorm([c, c], [1.0, weight], rho=2.0, lambdas=[0.5])
    with pytest.raises(ValidationError):
        jump_quasi_seminorm([c], [weight], rho=2.0, p=1.0, lambdas=[0.5])


def test_weak_norm_estimate_json():
    zigzag = _curve([0.0, 2.0, 0.0, 2.0, 0.0])
    est = jump_quasi_seminorm([zigzag], [1.0], rho=2.0, p=1.0,
                              lambdas=[0.5, 1.0])
    d = est.to_json_dict()
    assert set(d) == {
        "rho", "p", "value", "argmax_lambda", "lambda_grid", "per_lambda"
    }
    blob = json.dumps(d)
    assert json.loads(blob)["value"] == est.value


# ---------------------------------------------------------------------------
# lambda grid
# ---------------------------------------------------------------------------

def test_lambda_grid_policy():
    curves = [_curve([0.0, 3.0, 1.0]), _curve([0.0, 0.5])]
    grid = lambda_grid(curves)
    assert grid.size == 40
    assert grid[-1] == 3.0
    assert abs(grid[0] - 3.0e-4) < 1e-18
    assert np.all(np.diff(grid) > 0.0)
    short = lambda_grid(curves, count=7)
    assert short.size == 7


def test_lambda_grid_degenerate_and_errors():
    flat = [_curve([2.0, 2.0, 2.0])]
    assert np.array_equal(lambda_grid(flat), np.array([1.0]))
    with pytest.raises(ValidationError):
        lambda_grid([])
    with pytest.raises(ValidationError):
        lambda_grid(flat, count=0)


# ---------------------------------------------------------------------------
# CSV round-trip
# ---------------------------------------------------------------------------

def test_curves_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(SEED + 9)
    curves = _random_curves(rng, 5, max_len=12)
    path = tmp_path / "curves.csv"
    write_curves_csv(path, curves, ids=[f"c{i}" for i in range(5)])
    back = read_curves_csv(path)
    assert sorted(back) == [f"c{i}" for i in range(5)]
    for i, curve in enumerate(curves):
        got = back[f"c{i}"]
        assert np.array_equal(got.times, curve.times)
        assert np.array_equal(got.values, curve.values)


def test_curves_csv_header_check(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        read_curves_csv(path)
    with pytest.raises(ValidationError):
        write_curves_csv(tmp_path / "x.csv", [_curve([1.0])], ids=["a", "b"])
