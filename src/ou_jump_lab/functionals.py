"""Path functionals: jump counts, rho-variation, and weak quasinorms.

Conventions that matter (they differ across the literature, so they are
fixed here once and tested hard):

* ``jump_count(curve, lam)`` is the *length* of the longest subsequence
  whose consecutive values differ by strictly more than ``lam``.  It is
  always >= 1 (a single sample is a chain of length one).
* The seminorm builders use the *exceedance count*, i.e. chain length
  minus one -- the number of lam-moves, not the number of chain points.
  The count-variation domination lam * count^(1/rho) <= variation holds
  for the exceedance count and is false for the chain length.
* ``rho_variation`` maximizes sums of |increment|^rho over subsequences
  and reports the rho-th root, together with the lexicographically
  earliest optimal subsequence.

Comparisons against the threshold are strict (``> lam``); a gap exactly
equal to lam does not count, so integer-valued curves against integer
thresholds behave exactly.

``jump_count`` is an exact O(N) sweep that keeps two value ranges: the
samples ending a chain of the current best length K, and those ending a
chain of length K - 1.  The samples whose best chain length is >= k form
nested sets, and a sample reaches level k + 1 exactly when it clears the
min or the max of level k by more than lam.  Once K >= 2, level K - 1
spans more than lam, so a sample that clears neither range lies inside it
and cannot change levels K - 1 or K; lower levels are never needed again.
``jump_count_dp`` is the quadratic oracle it is tested against bit for bit.

The seminorm builders count with that sweep stacked: ``_seminorm_engine``
stacks the curves of one sample count into an (m, N) array and steps it one
sample index at a time over an (m curves x L thresholds) state, so all m*L
counts cost N rounds of numpy work instead of m*L Python loops.  It is the
engine's only counting path.  The counts equal ``jump_count``'s bit for
bit: each pair takes the same branch on the same float predicates,
``x - lo > lam`` and ``hi - x > lam`` (never ``x > lo + lam``; the second
gap is formed as ``-x - (-hi)``, the same float because negation is exact
and rounding is symmetric), and the two ranges take the same updates in the
same order.  ``jump_count`` stays the scalar reference, used by the identity
suite and ``cli functionals --lam``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateSample,
    EmptyCurve,
    RhoOutOfRange,
    ValidationError,
)

__all__ = [
    "SampledCurve",
    "VariationResult",
    "WeakNormEstimate",
    "jump_count",
    "jump_count_dp",
    "rho_variation",
    "weak_quasinorm",
    "jump_quasi_seminorm",
    "weak_jump_quasi_seminorm",
    "lambda_grid",
    "read_curves_csv",
    "write_curves_csv",
]


@dataclass(frozen=True)
class SampledCurve:
    """A function of time known at finitely many sample times."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or values.ndim != 1 or times.size != values.size:
            raise ValidationError(
                f"times/values must be equal-length 1-d arrays, got "
                f"{times.shape} / {values.shape}"
            )
        if times.size == 0:
            raise EmptyCurve("curve has no samples")
        if not np.all(times > 0.0):
            raise ValidationError("sample times must be positive")
        if not np.all(np.diff(times) > 0.0):
            raise ValidationError("sample times must be strictly increasing")
        if not np.isfinite(values).all():
            raise ValidationError("curve values must be finite")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def n_samples(self) -> int:
        return self.times.size

    def restricted(self, t_lo: float, t_hi: float) -> "SampledCurve":
        """Sub-curve on the closed window [t_lo, t_hi]."""
        mask = (self.times >= t_lo) & (self.times <= t_hi)
        if not mask.any():
            raise EmptyCurve(f"no samples in [{t_lo:g}, {t_hi:g}]")
        return SampledCurve(self.times[mask], self.values[mask])

    def value_range(self) -> float:
        return float(self.values.max() - self.values.min())


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not lam > 0.0:
        raise ValidationError(f"jump threshold must be positive, got {lam}")
    return lam


# ---------------------------------------------------------------------------
# jump counting
# ---------------------------------------------------------------------------

def jump_count(curve: SampledCurve, lam: float) -> int:
    """Length of the longest chain with consecutive gaps strictly > lam.

    Exact O(N) sweep with O(1) state.  Let S_k be the samples seen so far
    that end some chain of length >= k.  The S_k are nested, and a new
    sample x extends a chain of length k exactly when it *clears* S_k:
    ``x - min(S_k) > lam`` or ``max(S_k) - x > lam``.  Float
    subtraction is monotone and ``fl(a - b) == -fl(b - a)``, so this is the
    same predicate as ``abs(v[j] - x) > lam`` over j in S_k, which
    :func:`jump_count_dp` evaluates; the two agree bit for bit.

    Only two value ranges are kept, for the current best length K:
    B = [lo_b, hi_b] spans S_K, and A = [lo_a, hi_a] is the span of S_{K-1}
    when level K opened (unbounded while K = 1, when every sample reaches
    level 1).  A sample that clears B opens level K + 1; one that clears A
    joins S_K.  Levels below K - 1 can be dropped and A never needs
    widening: for K >= 2, A holds two samples more than lam apart, so a
    sample that clears neither A nor B lies inside A's range and changes
    nothing at level K - 1 or above, and a sample that joins S_K is covered
    by B, which is tested first.
    """
    lam = _check_lambda(lam)
    v = curve.values
    if v.size == 1 or curve.value_range() <= lam:
        return 1
    k = 1
    lo_b = hi_b = float(v[0])
    lo_a, hi_a = -math.inf, math.inf
    for x in v.tolist():
        if x - lo_b > lam or hi_b - x > lam:
            k += 1
            lo_a, hi_a = min(lo_b, x), max(hi_b, x)
            lo_b = hi_b = x
        elif x - lo_a > lam or hi_a - x > lam:
            if x < lo_b:
                lo_b = x
            elif x > hi_b:
                hi_b = x
    return k


_DP_JUMP_ROWS = 32   # rows of the jump_count_dp predicate table per block


def jump_count_dp(curve: SampledCurve, lam: float) -> int:
    """Quadratic reference for :func:`jump_count` (obviously correct form).

    best[i], the longest chain ending at sample i, is one more than the
    largest best[j] over the earlier j with ``abs(v[j] - v[i]) > lam`` (or 1
    if there is none).  The literal predicate table is built for a block of
    rows at a time: each row takes its max over earlier blocks in one numpy
    step, then the recurrence runs row by row over the block's own columns.
    """
    lam = _check_lambda(lam)
    v = curve.values
    best = np.ones(v.size, dtype=np.int64)
    for lo in range(0, v.size, _DP_JUMP_ROWS):
        hi = min(v.size, lo + _DP_JUMP_ROWS)
        # reach[r, j] = abs(v[j] - v[lo + r]) > lam, for every j < hi
        reach = np.abs(v[:hi] - v[lo:hi, None]) > lam
        block = (reach[:, :lo] * best[:lo]).max(axis=1, initial=0).tolist()
        for r, row in enumerate(reach[:, lo:].tolist()):
            m = block[r]
            for k in range(r):
                if row[k] and block[k] > m:
                    m = block[k]
            block[r] = m + 1
        best[lo:hi] = block
    return int(best.max())


# ---------------------------------------------------------------------------
# rho-variation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VariationResult:
    """Value of the rho-variation plus an optimal sample subsequence.

    ``partition`` holds indices into the original curve;
    re-accumulating |increment|^rho along it reproduces value^rho.
    """

    rho: float
    value: float
    partition: tuple


def rho_variation(
    curve: SampledCurve, rho: float, method: str = "auto"
) -> VariationResult:
    """sup over subsequences of (sum |consecutive increment|^rho)^(1/rho).

    ``method="full"`` runs the quadratic dynamic program over all samples;
    ``method="extrema"`` first discards samples that are neither local
    extrema nor endpoints (for rho >= 1 an optimal subsequence only turns
    at extrema, so nothing is lost); ``"auto"`` picks the reduction.  Both
    return the same value; the test suite pins them against each other.
    """
    rho = float(rho)
    if rho < 1.0:
        raise RhoOutOfRange(f"variation exponent must be >= 1, got {rho}")
    if method not in ("auto", "full", "extrema"):
        raise ValidationError(f"unknown method {method!r}")
    v = curve.values
    if method in ("auto", "extrema"):
        keep = _extrema_indices(v)
        reduced = v[keep]
    else:
        keep = np.arange(v.size)
        reduced = v
    total, chain = _variation_dp(reduced, rho)
    partition = tuple(int(keep[i]) for i in chain)
    value = total ** (1.0 / rho) if total > 0.0 else 0.0
    return VariationResult(rho=rho, value=float(value), partition=partition)


def _extrema_indices(v: np.ndarray) -> np.ndarray:
    """Indices of endpoints and strict turning points (plateaus deduped)."""
    if v.size <= 2:
        return np.arange(v.size)
    # drop consecutive duplicates first so plateaus contribute one sample
    change = np.empty(v.size, dtype=bool)
    change[0] = True
    change[1:] = v[1:] != v[:-1]
    idx = np.nonzero(change)[0]
    w = v[idx]
    if w.size <= 2:
        return idx
    d = np.sign(np.diff(w))
    turn = np.empty(w.size, dtype=bool)
    turn[0] = True
    turn[-1] = True
    turn[1:-1] = d[1:] != d[:-1]
    return idx[turn]


_DP_BLOCK_FLOATS = 1 << 16   # increment-table entries per block (512 KiB)


def _variation_dp(v: np.ndarray, rho: float) -> tuple:
    """Suffix DP: G[i] = best sum of a subsequence starting at i.

    Returns (max G, lexicographically earliest optimal index chain).  Rows
    are filled from the end, one block at a time: each block builds its
    table of |v[j] - v[i]|^rho once, so memory stays O(block * n) and never
    n^2.  Each row records its first argmax as its successor; the chain is
    read off those, so it always re-sums to the value.
    """
    n = v.size
    g = np.zeros(n)
    succ = np.zeros(n, dtype=np.intp)
    rows = max(1, _DP_BLOCK_FLOATS // n)
    hi = n - 1
    while hi > 0:
        lo = max(0, hi - rows)
        # table[i - lo, c] = |v[lo + 1 + c] - v[i]|^rho
        table = np.abs(v[lo + 1 :] - v[lo:hi, None]) ** rho
        for i in range(hi - 1, lo - 1, -1):
            tail = table[i - lo, i - lo :] + g[i + 1 :]
            k = int(tail.argmax())
            g[i] = tail[k]
            succ[i] = i + 1 + k
        hi = lo
    total = float(g.max())
    if total == 0.0:
        return 0.0, [0]
    i = int(np.argmax(g == total))
    chain = [i]
    while g[i] > 0.0:
        i = int(succ[i])
        chain.append(i)
    return total, chain


# ---------------------------------------------------------------------------
# weak quasinorm and the seminorm builders
# ---------------------------------------------------------------------------

def weak_quasinorm(values, weights) -> float:
    """sup over thresholds alpha of alpha * mass(|values| >= alpha).

    For finitely many atoms the sup is attained at one of the distinct
    |value| levels with its inclusive cumulative mass.
    """
    vals = np.abs(np.asarray(values, dtype=float)).reshape(-1)
    w = np.asarray(weights, dtype=float).reshape(-1)
    if vals.size != w.size:
        raise ValidationError(
            f"values/weights length mismatch: {vals.size} vs {w.size}"
        )
    if not (np.isfinite(vals).all() and np.isfinite(w).all()):
        raise ValidationError("values and weights must be finite")
    if np.any(w < 0.0):
        raise ValidationError("weights must be nonnegative")
    if vals.size == 0:
        return 0.0
    order = np.argsort(-vals, kind="stable")
    sorted_vals = vals[order]
    cum = np.cumsum(w[order])
    # last index of each run of equal values carries the inclusive mass
    run_end = np.nonzero(
        np.concatenate([sorted_vals[1:] != sorted_vals[:-1], [True]])
    )[0]
    levels = sorted_vals[run_end]
    masses = cum[run_end]
    live = levels > 0.0
    if not live.any():
        return 0.0
    return float((levels[live] * masses[live]).max())


@dataclass(frozen=True)
class WeakNormEstimate:
    """A jump seminorm evaluated over a threshold grid.

    ``per_lambda[k]`` is the spatial norm of lam_k * exceedances^(1/rho);
    ``value`` is its max over the grid and ``argmax_lambda`` the maximizer.
    """

    lambda_grid: np.ndarray
    per_lambda: np.ndarray
    value: float
    argmax_lambda: float
    rho: float
    p: float

    def to_json_dict(self) -> dict:
        return {
            "rho": self.rho,
            "p": self.p,
            "value": self.value,
            "argmax_lambda": self.argmax_lambda,
            "lambda_grid": [float(v) for v in self.lambda_grid],
            "per_lambda": [float(v) for v in self.per_lambda],
        }


def _stacked_jump_counts(values: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """:func:`jump_count` of every row of ``values`` at every threshold.

    Returns the (m, L) chain lengths for the (m, N) array ``values`` and the
    L thresholds ``lams``.  It runs the same two-range sweep, one sample
    index at a time, over an (m, L) state of K, B and A.  Each range is
    kept as (lo, -hi), so one subtraction of (x, -x) gives both gaps
    ``x - lo`` and ``-x - (-hi)``.  Negation is exact and rounding is
    symmetric, so the second gap is the same float as ``hi - x``: each
    comparison is :func:`jump_count`'s own predicate, never ``x > lo + lam``.
    Per step, a pair that clears A widens B; a pair that clears B opens a
    level, which sets A to B widened by x and B to [x, x], overriding the
    widening.  While K = 1, A = (-inf, inf), so every sample widens B, and
    a curve whose range is <= lam stays at K = 1 without a special case.
    """
    m, n = values.shape
    ys = np.empty((n, 2, m, 1))          # ys[j] = (x, -x) for sample j
    ys[:, 0, :, 0] = values.T
    np.negative(ys[:, 0], out=ys[:, 1])
    state = np.empty((2, 2, m, lams.size))   # (B, A) x (lo, -hi)
    b, a = state
    b[...] = ys[0]
    a.fill(-np.inf)
    k = np.ones((m, lams.size), dtype=np.int64)
    gaps = np.empty_like(state)
    clears = np.empty(state.shape, dtype=bool)
    hits = np.empty(state.shape, dtype=bool)
    opens, joins = hits                  # clears B / A at either end
    widened = np.empty_like(b)
    for y in ys:
        np.subtract(y, state, out=gaps)
        np.greater(gaps, lams, out=clears)
        # lo-or-hi, written to both halves so the masks match (lo, -hi)
        np.logical_or(clears, clears[:, ::-1], out=hits)
        np.minimum(b, y, out=widened)
        np.copyto(b, widened, where=joins)
        if opens[0].any():
            k += opens[0]
            np.copyto(a, widened, where=opens)
            np.copyto(b, y, where=opens)
    return k


def _seminorm_engine(
    curves: Sequence[SampledCurve],
    weights,
    rho: float,
    p: float,
    lambdas,
    spatial_norm,
) -> WeakNormEstimate:
    """max over lam of spatial_norm(lam * exceedances^(1/rho), weights, p).

    The curves are grouped by sample count (a harness field is one group)
    and each group's values are stacked into one (m, N) array, whose counts
    at every threshold come from one :func:`_stacked_jump_counts` sweep.
    Its counts equal :func:`jump_count`'s bit for bit, so the estimate does
    not depend on the grouping.
    """
    rho = float(rho)
    if rho < 1.0:
        raise RhoOutOfRange(f"rho must be >= 1, got {rho}")
    p = float(p)
    if p <= 0.0:
        raise ValidationError(f"p must be positive, got {p}")
    w = np.asarray(weights, dtype=float).reshape(-1)
    if len(curves) != w.size:
        raise ValidationError(
            f"{len(curves)} curves but {w.size} weights"
        )
    if not np.isfinite(w).all():
        raise ValidationError("weights must be finite")
    if np.any(w < 0.0):
        raise ValidationError("weights must be nonnegative")
    lam_arr = np.asarray(lambdas, dtype=float).reshape(-1)
    finite = np.isfinite(lam_arr).all()
    if lam_arr.size == 0 or not (finite and np.all(lam_arr > 0.0)):
        raise ValidationError("lambda grid must be nonempty, positive and finite")
    by_length: dict = {}
    for i, curve in enumerate(curves):
        by_length.setdefault(curve.n_samples, []).append(i)
    # counts[k, i]: exceedances of curve i at lam_k; each lam_k gets one
    # contiguous row, so the spatial norms see the same arrays as per-lam code
    counts = np.empty((lam_arr.size, len(curves)))
    for rows in by_length.values():
        values = np.stack([curves[i].values for i in rows])
        counts[:, rows] = (_stacked_jump_counts(values, lam_arr) - 1).T
    g = lam_arr[:, None] * counts ** (1.0 / rho)
    per_lambda = np.array([spatial_norm(g_k, w, p) for g_k in g])
    best = int(np.argmax(per_lambda))
    return WeakNormEstimate(
        lambda_grid=lam_arr.copy(),
        per_lambda=per_lambda,
        value=float(per_lambda[best]),
        argmax_lambda=float(lam_arr[best]),
        rho=rho,
        p=p,
    )


def _lp_norm(g: np.ndarray, w: np.ndarray, p: float) -> float:
    return float((w @ np.abs(g) ** p) ** (1.0 / p))


def _weak_l1_norm(g: np.ndarray, w: np.ndarray, p: float) -> float:
    del p
    return weak_quasinorm(g, w)


def jump_quasi_seminorm(
    curves: Sequence[SampledCurve],
    weights,
    rho: float,
    p: float,
    lambdas,
) -> WeakNormEstimate:
    """Strong-norm variant: max over lam of || lam * count^(1/rho) ||_Lp(w)."""
    return _seminorm_engine(curves, weights, rho, p, lambdas, _lp_norm)


def weak_jump_quasi_seminorm(
    curves: Sequence[SampledCurve],
    weights,
    rho: float,
    lambdas,
) -> WeakNormEstimate:
    """Weak-norm variant: max over lam of the weak quasinorm of
    lam * count^(1/rho) against the weights."""
    return _seminorm_engine(curves, weights, rho, 1.0, lambdas, _weak_l1_norm)


def lambda_grid(
    curves: Sequence[SampledCurve], count: int = 40, span: float = 1e-4
) -> np.ndarray:
    """Log-spaced threshold grid tied to the field's largest value range.

    Thresholds above the largest range give identically zero counts, so the
    grid tops out there and reaches down by the given span factor.  A field
    of constant curves has zero range; every positive threshold then yields
    the zero seminorm, and the single-point grid {1.0} records that.
    """
    if not curves:
        raise ValidationError("need at least one curve")
    if count < 1:
        raise ValidationError(f"grid size must be >= 1, got {count}")
    top = max(c.value_range() for c in curves)
    if top <= 0.0:
        return np.array([1.0])
    return np.geomspace(span * top, top, count)


# ---------------------------------------------------------------------------
# CSV import/export
# ---------------------------------------------------------------------------

def write_curves_csv(path, curves: Sequence[SampledCurve], ids=None) -> None:
    """Long-format CSV (curve_id, t, value); floats via repr for round-trips."""
    if ids is None:
        ids = [str(i) for i in range(len(curves))]
    if len(ids) != len(curves):
        raise ValidationError(f"{len(curves)} curves but {len(ids)} ids")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["curve_id", "t", "value"])
        for cid, curve in zip(ids, curves):
            for t, v in zip(curve.times, curve.values):
                writer.writerow([cid, repr(float(t)), repr(float(v))])


def read_curves_csv(path) -> dict:
    """Inverse of :func:`write_curves_csv`; returns {curve_id: SampledCurve}."""
    buckets: dict = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["curve_id", "t", "value"]:
            raise ValidationError(f"unexpected curves CSV header: {header}")
        for row in reader:
            if len(row) != 3:
                raise ValidationError(f"malformed curves CSV row: {row}")
            cid, t, v = row
            buckets.setdefault(cid, []).append((float(t), float(v)))
    out = {}
    for cid, pairs in buckets.items():
        arr = np.asarray(pairs, dtype=float)
        out[cid] = SampledCurve(arr[:, 0], arr[:, 1])
    return out
