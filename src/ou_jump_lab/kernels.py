"""Kernel of the semigroup against the invariant measure, its modified
companions, time derivatives, and empirical envelope certification.

Naming scheme for the kernel family (index ``kappa``):

* ``kappa = 0`` -- the exact kernel ``K_t(x, u)`` of the semigroup taken
  with respect to the invariant measure,
* ``kappa = 1`` -- same Gaussian but recentred at ``u - x`` instead of the
  flow-transported point,
* ``kappa = 2`` -- the quadratic form frozen to its short-time limit
  (diffusion-matrix metric over ``2t``),
* ``kappa = 3`` -- additionally the determinant prefactor frozen to its
  short-time power law.

Consecutive members differ by one structural simplification, which is what
makes their differences small for short times; the envelope-certification
code below measures exactly how small, with explicit constants.

All kernel evaluations happen in log space.  The exact kernel's log is
computed through the transition-density form (centered at ``e^{tB} x`` with
covariance ``Q_t``), which stays finite for every ``t`` up to the covariance
clamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadKappa,
    NonFinite,
    RegionEmpty,
    TimeNonPositive,
    ValidationError,
)
from .model import CovarianceFamily, OUModel, quadratic_R

__all__ = [
    "KernelEval",
    "BoundSampleSpec",
    "BoundFitReport",
    "BOUND_IDS",
    "mehler_kernel",
    "ktilde",
    "n_factor",
    "kernel_difference",
    "dt_kernel_difference",
    "kernel_time_profile",
    "certify_bound",
    "count_derivative_sign_changes",
]

BOUND_IDS = ("litet_upper", "litet_lower", "lemma82", "lemma83_k2", "lemma83_k3")


# ---------------------------------------------------------------------------
# evaluation records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelEval:
    """One kernel evaluation: log value plus the time-derivative factor.

    ``n_factor`` is the logarithmic time derivative, i.e.
    ``d/dt kernel = kernel * n_factor``.
    """

    kappa: int
    t: float
    x: np.ndarray
    u: np.ndarray
    log_value: float
    n_factor: float

    # The log value is finite over the whole supported time range; the
    # derivative factor is meaningful on the short-time side and may
    # saturate to non-finite once the flow-transported center overflows
    # (far beyond any regime where derivatives are used).

    @property
    def value(self) -> float:
        return math.exp(self.log_value)


# ---------------------------------------------------------------------------
# vectorized pair evaluation (shared by everything below)
# ---------------------------------------------------------------------------

def _check_kappa(kappa: int) -> int:
    if kappa not in (0, 1, 2, 3):
        raise BadKappa(f"kernel index must be in {{0, 1, 2, 3}}, got {kappa!r}")
    return int(kappa)


def _check_time(t: float) -> float:
    t = float(t)
    if not t > 0.0:
        raise TimeNonPositive(f"evaluation needs t > 0, got {t}")
    return t


def _pair_arrays(model: OUModel, x, u) -> tuple:
    """Broadcast x against u and return (X, U, single) with shape (m, n)."""
    xs = np.asarray(x, dtype=float)
    us = np.asarray(u, dtype=float)
    single = xs.ndim == 1 and us.ndim == 1
    xs = np.atleast_2d(xs)
    us = np.atleast_2d(us)
    if xs.shape[1] != model.n or us.shape[1] != model.n:
        raise ValidationError(
            f"points must have dimension {model.n}, got {xs.shape} / {us.shape}"
        )
    xs, us = np.broadcast_arrays(xs, us)
    return xs, us, single


def _quad_form(mat: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """<mat v, v> row-wise for vecs of shape (m, n)."""
    return np.einsum("ij,mj,mi->m", mat, vecs, vecs)


def _sqnorm_rows(vecs: np.ndarray) -> np.ndarray:
    return np.einsum("mi,mi->m", vecs, vecs)


def _log_kernel_values(
    model: OUModel,
    family: CovarianceFamily,
    kappa: int,
    t: float,
    xs: np.ndarray,
    us: np.ndarray,
) -> np.ndarray:
    """log of the kappa-th kernel at rows of (xs, us); shapes (m, n) -> (m,)."""
    bundle = family.qt_bundle(t)
    n = model.n
    rx = np.atleast_1d(quadratic_R(family, xs))
    if kappa == 0:
        # transition-density form: stable for all representable t
        diff = us - xs @ bundle.exp_tb.T
        ru = np.atleast_1d(quadratic_R(family, us))
        return (
            0.5 * (family.qinf_logdet - bundle.qt_logdet)
            - 0.5 * _quad_form(bundle.qt_inv, diff)
            + ru
        )
    diff = us - xs
    if kappa == 1:
        return (
            0.5 * (family.qinf_logdet - bundle.qt_logdet)
            + rx
            - 0.5 * _quad_form(bundle.inv_gap, diff)
        )
    z = np.linalg.solve(family.diffusion_chol, diff.T)
    metric = np.einsum("im,im->m", z, z)
    if kappa == 2:
        return (
            0.5 * (family.qinf_logdet - bundle.qt_logdet)
            + rx
            - metric / (2.0 * t)
        )
    # kappa == 3: determinant prefactor frozen to its small-time power law
    return (
        0.5 * (family.qinf_logdet - family.diffusion_logdet)
        - 0.5 * n * math.log(t)
        + rx
        - metric / (2.0 * t)
    )


def _n_factor_values(
    model: OUModel,
    family: CovarianceFamily,
    kappa: int,
    t: float,
    xs: np.ndarray,
    us: np.ndarray,
) -> np.ndarray:
    """Logarithmic time-derivative factor of the kappa-th kernel, row-wise."""
    bundle = family.qt_bundle(t)
    n = model.n
    diff = us - xs
    if kappa >= 2:
        z = np.linalg.solve(family.diffusion_chol, diff.T)
        metric = np.einsum("im,im->m", z, z)
        if kappa == 3:
            return -0.5 * n / t + metric / (2.0 * t * t)
        return _trace_term(model, family, t) + metric / (2.0 * t * t)
    lq_t = family.diffusion_chol.T
    carrier = lq_t @ bundle.exp_tb.T @ bundle.qt_inv
    if kappa == 1:
        w = diff @ carrier.T
        return _trace_term(model, family, t) + 0.5 * _sqnorm_rows(w)
    # kappa == 0
    dx = xs @ bundle.dt.T
    gap = us - dx
    w = gap @ carrier.T
    drift_dir = dx @ (family.qinf @ model.drift.T @ family.qinf_inv).T
    cross = np.einsum("mi,mi->m", drift_dir, gap @ bundle.inv_gap.T)
    return _trace_term(model, family, t) + 0.5 * _sqnorm_rows(w) - cross


def _trace_term(model: OUModel, family: CovarianceFamily, t: float) -> float:
    bundle = family.qt_bundle(t)
    e = bundle.exp_tb
    return -0.5 * float(np.trace(bundle.qt_inv @ e @ model.diffusion @ e.T))


# ---------------------------------------------------------------------------
# public scalar API
# ---------------------------------------------------------------------------

def ktilde(
    model: OUModel,
    family: CovarianceFamily,
    kappa: int,
    t: float,
    x,
    u,
) -> KernelEval:
    """Evaluate the kappa-th kernel (and its derivative factor) at (t, x, u)."""
    kappa = _check_kappa(kappa)
    t = _check_time(t)
    xs, us, _ = _pair_arrays(model, x, u)
    log_val = float(_log_kernel_values(model, family, kappa, t, xs, us)[0])
    with np.errstate(over="ignore", invalid="ignore"):
        n_val = float(_n_factor_values(model, family, kappa, t, xs, us)[0])
    if math.isnan(log_val):
        raise NonFinite(f"kernel evaluation produced NaN at t={t:g}")
    return KernelEval(
        kappa=kappa, t=t, x=xs[0].copy(), u=us[0].copy(),
        log_value=log_val, n_factor=n_val,
    )


def mehler_kernel(
    model: OUModel,
    family: CovarianceFamily,
    t: float,
    x,
    u,
) -> KernelEval:
    """The exact semigroup kernel against the invariant measure (kappa = 0)."""
    return ktilde(model, family, 0, t, x, u)


def n_factor(
    model: OUModel,
    family: CovarianceFamily,
    kappa: int,
    t: float,
    x,
    u,
) -> float:
    """Logarithmic time derivative of the kappa-th kernel at (t, x, u)."""
    kappa = _check_kappa(kappa)
    t = _check_time(t)
    xs, us, _ = _pair_arrays(model, x, u)
    return float(_n_factor_values(model, family, kappa, t, xs, us)[0])


def kernel_difference(
    model: OUModel,
    family: CovarianceFamily,
    kappa: int,
    t: float,
    x,
    u,
) -> float:
    """Difference kernel (kappa-1 minus kappa), evaluated cancellation-safely.

    Computed as ``-exp(l_prev) * expm1(l_cur - l_prev)`` so that nearly equal
    kernels lose no precision to subtraction.  ``kappa`` indexes the
    *second* member of the pair and must be in {1, 2, 3}.
    """
    if kappa not in (1, 2, 3):
        raise BadKappa(f"difference kernels are indexed by kappa in {{1,2,3}}, got {kappa!r}")
    t = _check_time(t)
    xs, us, _ = _pair_arrays(model, x, u)
    l_prev = _log_kernel_values(model, family, kappa - 1, t, xs, us)
    l_cur = _log_kernel_values(model, family, kappa, t, xs, us)
    return float((-np.exp(l_prev) * np.expm1(l_cur - l_prev))[0])


def dt_kernel_difference(
    model: OUModel,
    family: CovarianceFamily,
    kappa: int,
    t: float,
    x,
    u,
) -> float:
    """Time derivative of the difference kernel, via the product-rule split

        d/dt (A - B) = A (n_A - n_B) + n_B (A - B),

    which keeps both factors individually small instead of subtracting two
    nearly equal derivatives.
    """
    if kappa not in (1, 2, 3):
        raise BadKappa(f"difference kernels are indexed by kappa in {{1,2,3}}, got {kappa!r}")
    t = _check_time(t)
    xs, us, _ = _pair_arrays(model, x, u)
    l_prev = _log_kernel_values(model, family, kappa - 1, t, xs, us)
    l_cur = _log_kernel_values(model, family, kappa, t, xs, us)
    n_prev = _n_factor_values(model, family, kappa - 1, t, xs, us)
    n_cur = _n_factor_values(model, family, kappa, t, xs, us)
    k_prev = np.exp(l_prev)
    k_diff = -k_prev * np.expm1(l_cur - l_prev)
    return float((k_prev * (n_prev - n_cur) + n_cur * k_diff)[0])


# ---------------------------------------------------------------------------
# time profiles over a shared grid
# ---------------------------------------------------------------------------

class _ProfileStack:
    """Stacked per-time matrices for fast (x, u)-sweeps over one t-grid."""

    def __init__(self, model: OUModel, family: CovarianceFamily, ts: np.ndarray):
        self.model = model
        self.family = family
        self.ts = ts
        n = model.n
        count = ts.size
        self.qt_inv = np.empty((count, n, n))
        self.inv_gap = np.empty((count, n, n))
        self.exp_tb = np.empty((count, n, n))
        self.dt = np.empty((count, n, n))
        self.carrier = np.empty((count, n, n))
        self.logdet_half = np.empty(count)
        self.trace_term = np.empty(count)
        lq_t = family.diffusion_chol.T
        for i, t in enumerate(ts):
            bundle = family.qt_bundle(float(t))
            self.qt_inv[i] = bundle.qt_inv
            self.inv_gap[i] = bundle.inv_gap
            self.exp_tb[i] = bundle.exp_tb
            self.dt[i] = bundle.dt
            self.carrier[i] = lq_t @ bundle.exp_tb.T @ bundle.qt_inv
            self.logdet_half[i] = 0.5 * (family.qinf_logdet - bundle.qt_logdet)
            self.trace_term[i] = -0.5 * float(
                np.trace(bundle.qt_inv @ bundle.exp_tb @ model.diffusion @ bundle.exp_tb.T)
            )
        self.drift_carrier = family.qinf @ model.drift.T @ family.qinf_inv

    def log_k0_and_n0(self, x: np.ndarray, u: np.ndarray) -> tuple:
        """(log K_t(x,u), n-factor) over the whole grid for one pair."""
        fam = self.family
        ru = float(quadratic_R(fam, u))
        mean = np.einsum("tij,j->ti", self.exp_tb, x)
        diff_m = u[None, :] - mean
        quad_m = np.einsum("tij,tj,ti->t", self.qt_inv, diff_m, diff_m)
        log_k = self.logdet_half - 0.5 * quad_m + ru
        dx = np.einsum("tij,j->ti", self.dt, x)
        gap = u[None, :] - dx
        w = np.einsum("tij,tj->ti", self.carrier, gap)
        drift_dir = dx @ self.drift_carrier.T
        gap_applied = np.einsum("tij,tj->ti", self.inv_gap, gap)
        cross = np.einsum("ti,ti->t", drift_dir, gap_applied)
        n0 = self.trace_term + 0.5 * np.einsum("ti,ti->t", w, w) - cross
        return log_k, n0


def kernel_time_profile(
    model: OUModel,
    family: CovarianceFamily,
    x,
    u,
    t_grid,
    kappa: int = 0,
) -> tuple:
    """(log kernel values, derivative factors) for one pair over a t-grid.

    The per-grid matrix stacks are cached on the family, so sweeping many
    (x, u) pairs over one grid costs a handful of einsums per pair.
    """
    kappa = _check_kappa(kappa)
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size < 1 or not (ts > 0).all():
        raise ValidationError("t_grid must be a 1-d array of positive times")
    x = np.asarray(x, dtype=float).reshape(model.n)
    u = np.asarray(u, dtype=float).reshape(model.n)
    if kappa == 0:
        stack = family.profile_stack(ts, lambda: _ProfileStack(model, family, ts))
        return stack.log_k0_and_n0(x, u)
    logs = np.empty(ts.size)
    nvals = np.empty(ts.size)
    xs = x[None, :]
    us = u[None, :]
    for i, t in enumerate(ts):
        logs[i] = _log_kernel_values(model, family, kappa, float(t), xs, us)[0]
        nvals[i] = _n_factor_values(model, family, kappa, float(t), xs, us)[0]
    return logs, nvals


def count_derivative_sign_changes(
    model: OUModel,
    family: CovarianceFamily,
    x,
    u,
    t_interval: tuple,
    resolution: float,
) -> int:
    """Number of strict sign alternations of the kernel time derivative.

    The derivative shares its sign with the derivative factor (the kernel is
    positive), so we scan that factor on a log-uniform grid whose step in
    log10(t) is at most ``resolution``.  Grid points where the factor is
    exactly zero are dropped before counting, so a zero landing on the grid
    is counted once, not twice.
    """
    lo, hi = float(t_interval[0]), float(t_interval[1])
    if not (0.0 < lo < hi):
        raise ValidationError(f"need 0 < t_lo < t_hi, got ({lo}, {hi})")
    resolution = float(resolution)
    if resolution <= 0.0:
        raise ValidationError(f"resolution must be positive, got {resolution}")
    span = math.log10(hi / lo)
    npts = max(2, int(math.floor(span / resolution + 1e-9)) + 2)
    ts = np.geomspace(lo, hi, npts)
    _, n0 = kernel_time_profile(model, family, x, u, ts, kappa=0)
    signs = np.sign(n0)
    signs = signs[signs != 0.0]
    if signs.size < 2:
        return 0
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


# ---------------------------------------------------------------------------
# envelope certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundSampleSpec:
    """Monte-Carlo sample layout for envelope fitting.

    ``cell_center`` selects the localization ball for the cell-local bounds
    (its radius is implied by the center); the small-time envelopes ignore
    it and draw from the box [-domain_halfwidth, domain_halfwidth]^n.
    ``t_range`` is intersected with the bound's own hypothesis range; an
    empty intersection raises :class:`RegionEmpty`.
    """

    seed: int = 20250815
    t_count: int = 48
    pair_count: int = 256
    t_range: tuple = (1e-4, 1.0)
    cell_center: "tuple | None" = None
    domain_halfwidth: float = 4.0
    c_grid_base: float = 0.25
    c_grid_powers: tuple = tuple(range(-8, 5))

    def refined(self, factor: int = 2) -> "BoundSampleSpec":
        """Same layout with ``factor`` times the samples in each direction."""
        return replace(
            self, t_count=self.t_count * factor, pair_count=self.pair_count * factor
        )

    def candidates(self) -> np.ndarray:
        return np.array(
            [self.c_grid_base * 2.0 ** p for p in self.c_grid_powers], dtype=float
        )


@dataclass(frozen=True)
class BoundFitReport:
    """Result of one envelope fit.

    ``fitted_C`` is the multiplicative constant attached to the selected
    decay rate ``fitted_c``; for lower bounds it sits *below* the kernel
    (and must be positive), for upper bounds above the quantity bounded.
    ``rows`` keeps one entry per candidate rate for CSV export.
    """

    bound_id: str
    fitted_C: float
    fitted_c: float
    sample_count: int
    max_ratio_location: tuple
    rows: tuple

    CSV_HEADER = (
        "bound_id,c,C,n_samples,argmax_t,argmax_x,argmax_u"
    )

    def to_csv_rows(self) -> list:
        out = []
        for c, big_c, loc in self.rows:
            t_at, x_at, u_at = loc
            out.append(
                f"{self.bound_id},{c!r},{big_c!r},{self.sample_count},"
                f"{t_at!r},{_vec_repr(x_at)},{_vec_repr(u_at)}"
            )
        return out

    def write_csv(self, path) -> None:
        lines = [self.CSV_HEADER] + self.to_csv_rows()
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")


def _vec_repr(vec) -> str:
    arr = np.atleast_1d(np.asarray(vec, dtype=float))
    return "[" + " ".join(repr(float(v)) for v in arr) + "]"


_CELL_BOUNDS = {"lemma82", "lemma83_k2", "lemma83_k3"}


def certify_bound(
    model: OUModel,
    family: CovarianceFamily,
    bound_id: str,
    sample_spec: BoundSampleSpec,
) -> BoundFitReport:
    """Fit an explicit constant/rate pair for one of the envelope bounds.

    For upper envelopes the fit scans a geometric grid of decay rates ``c``,
    records C(c) = max sampled ratio (bounded quantity over envelope), and
    returns the candidate minimizing C(c)/c -- steepest certified envelope
    per unit of constant.  The lower kernel envelope does the mirror-image
    fit: m(d) = min sampled ratio, candidate minimizing d/m(d).

    Sampling is deterministic given the spec's seed, and the reduction order
    is fixed by sample index, so reports are reproducible bit-for-bit.
    """
    if bound_id not in BOUND_IDS:
        raise ValidationError(f"unknown bound id {bound_id!r}; known: {BOUND_IDS}")
    n = model.n
    rng = np.random.default_rng(sample_spec.seed)

    # hypothesis time range
    lo, hi = (float(v) for v in sample_spec.t_range)
    if bound_id in _CELL_BOUNDS:
        if sample_spec.cell_center is None:
            raise ValidationError(f"{bound_id} requires sample_spec.cell_center")
        center = np.asarray(sample_spec.cell_center, dtype=float).reshape(n)
        norm_c = float(np.linalg.norm(center))
        cap = min(1.0, 1.0 / (norm_c * norm_c)) if norm_c > 0 else 1.0
        radius = 6.0 / (1.0 + norm_c)
    else:
        center = None
        cap = 1.0
        radius = None
    lo = max(lo, 1e-12)
    hi = min(hi, cap)
    if not lo < hi:
        raise RegionEmpty(
            f"{bound_id}: requested t-range {sample_spec.t_range} does not meet "
            f"the hypothesis range (0, {cap:g}]"
        )

    ts = np.exp(rng.uniform(math.log(lo), math.log(hi), sample_spec.t_count))
    ts.sort()
    m = sample_spec.pair_count
    if center is None:
        hw = float(sample_spec.domain_halfwidth)
        xs = rng.uniform(-hw, hw, (m, n))
        us = rng.uniform(-hw, hw, (m, n))
    else:
        xs = _uniform_ball(rng, center, radius, m, n)
        us = _uniform_ball(rng, center, radius, m, n)

    cands = sample_spec.candidates()
    lower = bound_id == "litet_lower"
    best_log = np.full(cands.size, -np.inf if not lower else np.inf)
    best_loc = [(math.nan, np.full(n, np.nan), np.full(n, np.nan))] * cands.size

    rx = np.atleast_1d(quadratic_R(family, xs))
    for t in ts:
        base, s = _ratio_ingredients(model, family, bound_id, float(t), xs, us, rx)
        # base + c*s is the log ratio for each candidate rate c
        vals = base[None, :] + cands[:, None] * s[None, :]
        if lower:
            idx = np.argmin(vals, axis=1)
            picked = vals[np.arange(cands.size), idx]
            better = picked < best_log
        else:
            with np.errstate(invalid="ignore"):
                vals = np.where(np.isnan(vals), -np.inf, vals)
            idx = np.argmax(vals, axis=1)
            picked = vals[np.arange(cands.size), idx]
            better = picked > best_log
        for k in np.nonzero(better)[0]:
            best_log[k] = picked[k]
            best_loc[k] = (float(t), xs[idx[k]].copy(), us[idx[k]].copy())

    with np.errstate(over="ignore"):
        big_c = np.exp(best_log)
    if lower:
        merit = np.log(cands) - best_log
    else:
        merit = best_log - np.log(cands)
    pick = int(np.argmin(merit))
    fitted_c = float(cands[pick])
    fitted_big = float(big_c[pick])
    if not math.isfinite(fitted_big) or (lower and not fitted_big > 0.0):
        raise NonFinite(
            f"{bound_id}: fitted constant {fitted_big!r} at rate {fitted_c!r} "
            "is not a usable envelope"
        )
    rows = tuple(
        (float(c), float(bc), loc) for c, bc, loc in zip(cands, big_c, best_loc)
    )
    return BoundFitReport(
        bound_id=bound_id,
        fitted_C=fitted_big,
        fitted_c=fitted_c,
        sample_count=int(sample_spec.t_count) * int(sample_spec.pair_count),
        max_ratio_location=best_loc[pick],
        rows=rows,
    )


def _uniform_ball(rng, center, radius, m, n) -> np.ndarray:
    direction = rng.normal(size=(m, n))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radii = radius * rng.uniform(0.0, 1.0, (m, 1)) ** (1.0 / n)
    return center[None, :] + direction * radii


def _ratio_ingredients(
    model: OUModel,
    family: CovarianceFamily,
    bound_id: str,
    t: float,
    xs: np.ndarray,
    us: np.ndarray,
    rx: np.ndarray,
) -> tuple:
    """(base, s) such that log ratio against the rate-c envelope = base + c*s.

    Everything is scaled by exp(-R(x)) * t^{n/2} first so the numbers stay
    in range; the envelopes carry the same factors, so ratios are unchanged.
    """
    n = model.n
    bundle = family.qt_bundle(t)
    half_log_t = 0.5 * n * math.log(t)
    if bound_id in ("litet_upper", "litet_lower"):
        log_k = _log_kernel_values(model, family, 0, t, xs, us)
        gap = us - xs @ bundle.dt.T
        s = _sqnorm_rows(gap) / t
        base = log_k - rx + half_log_t
        return base, s
    diff = us - xs
    s = _sqnorm_rows(diff) / t
    kappa = {"lemma82": 1, "lemma83_k2": 2, "lemma83_k3": 3}[bound_id]
    l_prev = _log_kernel_values(model, family, kappa - 1, t, xs, us)
    l_cur = _log_kernel_values(model, family, kappa, t, xs, us)
    n_prev = _n_factor_values(model, family, kappa - 1, t, xs, us)
    n_cur = _n_factor_values(model, family, kappa, t, xs, us)
    scale = half_log_t - rx
    k_prev_s = np.exp(l_prev + scale)
    k_diff_s = -k_prev_s * np.expm1(l_cur - l_prev)
    deriv_s = k_prev_s * (n_prev - n_cur) + n_cur * k_diff_s
    with np.errstate(divide="ignore"):
        base = np.log(np.abs(deriv_s))
    if bound_id == "lemma82":
        base = base + 0.5 * math.log(t) - np.log1p(np.linalg.norm(xs, axis=1))
    return base, s
