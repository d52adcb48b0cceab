"""Experiment harness: weak-type sweeps, regime diagnostics, identity audits.

Everything here is deterministic given (config, seed): no timestamps, no
environment-dependent values, floats serialized through ``repr``, JSON keys
sorted.  Running the same config twice must produce byte-identical report
files -- the test suite enforces this.

Division of labour with the rest of the package:

* the *weak-type sweep* uses normalized interval atoms and the exact
  closed-form field of the one-dimensional semigroup (Gaussian CDF), so no
  quadrature error pollutes the shrinking-atom ratios;
* the *regime checks* exercise the cell-local operators (differences, main
  part, global remainder) through the real quadrature pipeline, with smooth
  bump atoms to keep fixed-order rules honest; they are coarse uniformity
  proxies, not precision identities, and each row carries its own
  time-grid convergence flag;
* the *identity suite* asserts the machine-precision identities (derivative
  factors, telescoping, convolution form, dual quadrature routes, curve
  functional cross-checks) and can inject a deliberate kernel perturbation
  as a negative control.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtr

from ._version import __version__
from .errors import (
    FailureList,
    NumericalError,
    ValidationError,
)
from .functionals import (
    SampledCurve,
    jump_count,
    jump_count_dp,
    lambda_grid,
    rho_variation,
    weak_jump_quasi_seminorm,
    weak_quasinorm,
)
from .kernels import (
    kernel_difference,
    ktilde,
    mehler_kernel,
)
from .model import (
    CovarianceFamily,
    GaussianMeasure,
    OUModel,
    cov_qt,
    cov_qinf,
    invariant_measure,
    mixing_time,
    model_from_config,
    quadratic_R,
)
from .semigroup import (
    LocalizationScheme,
    QuadratureSpec,
    _bump_profile,
    _cell_terms,
    _global_rows,
    _kernel_gap,
    apply_semigroup_kernel,
    apply_semigroup_kolmogorov,
    build_localization,
    delta_op,
    eta,
    expect_invariant,
    main_op,
    main_op_convolution,
)

__all__ = [
    "ExperimentConfig",
    "WeakTypeReport",
    "RegimeReport",
    "IdentityReport",
    "run_weak_type_sweep",
    "run_regime_checks",
    "run_identity_suite",
    "config_hash",
    "indicator_atom",
    "monomial",
]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of a harness run; hashable to a 12-hex digest.

    The model is described by (preset, n, omega) or by explicit row-major
    matrices ``q``/``b`` (which win if present).  Grid densities come in
    fine/coarse pairs: the coarse time grid is exactly every second fine
    point, so refinement comparisons are nested by construction.
    """

    preset: str = "standard"
    n: int = 1
    omega: float = 1.0
    q: "tuple | None" = None
    b: "tuple | None" = None
    box: tuple = ((-6.0, 6.0),)
    lattice_step: "float | None" = None
    t_min: float = 1e-3
    points_per_decade: int = 512
    regime_points_per_decade: int = 192
    lambda_points: int = 40
    lambda_span: float = 1e-4
    rho: float = 2.0
    atom_centers: tuple = (0.0,)
    atom_radii: tuple = (0.5, 0.05, 0.005)
    backbone_points: int = 33
    backbone_halfwidth: float = 4.0
    ladder_factors: tuple = (0.5, 1.0, 2.0, 4.0)
    quad_order: int = 64
    quad_cutoff: float = 8.0
    seed: int = 2025
    regime_cell_targets: tuple = (0.0, 2.0, 4.0)
    convergence_rtol: float = 0.02
    output_dir: "str | None" = None

    def __post_init__(self) -> None:
        _check_field_types(self)
        if not (math.isfinite(self.t_min) and self.t_min > 0):
            raise ValidationError(f"t_min must be finite and > 0, got {self.t_min}")
        if self.points_per_decade < 8 or self.regime_points_per_decade < 8:
            raise ValidationError("time grids need at least 8 points per decade")
        if self.lambda_points < 1:
            raise ValidationError("lambda grid needs at least one point")
        if self.rho < 1.0:
            raise ValidationError(f"rho must be >= 1, got {self.rho}")
        if not 0.0 < self.lambda_span <= 1.0:
            raise ValidationError(f"lambda_span not in (0, 1]: {self.lambda_span}")
        if not self.atom_centers or not all(map(math.isfinite, self.atom_centers)):
            raise ValidationError("need at least one atom center, all finite")
        for name in ("atom_radii", "ladder_factors"):
            vals = getattr(self, name)
            if not vals or not all(math.isfinite(v) and v > 0 for v in vals):
                raise ValidationError(f"{name} needs one or more finite values > 0")
        if not 0.0 < self.convergence_rtol < 1.0:
            raise ValidationError("convergence_rtol must be in (0, 1)")
        if not (math.isfinite(self.backbone_halfwidth) and self.backbone_halfwidth > 0):
            raise ValidationError(
                f"backbone_halfwidth must be finite and > 0, got {self.backbone_halfwidth}"
            )
        if self.backbone_points < 2:
            raise ValidationError(
                f"backbone_points must be >= 2, got {self.backbone_points}"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        extra = set(data) - known
        if extra:
            raise ValidationError(f"unknown config keys: {sorted(extra)}")
        coerced = dict(data)
        for key in ("box", "atom_centers", "atom_radii", "ladder_factors",
                    "regime_cell_targets", "q", "b"):
            if key in coerced and coerced[key] is not None:
                coerced[key] = _deep_tuple(coerced[key])
        return cls(**coerced)

    def to_json_dict(self) -> dict:
        # output_dir is plumbing, not science: keeping it out of the echoed
        # config (and hence out of the digest) makes reports byte-identical
        # regardless of where they are written.
        out = {}
        for f in fields(self):
            if f.name == "output_dir":
                continue
            val = getattr(self, f.name)
            out[f.name] = _jsonable(val)
        return out

    def quad(self) -> QuadratureSpec:
        return QuadratureSpec(order=self.quad_order, domain_cutoff=self.quad_cutoff)


_INT_FIELDS = ("n", "points_per_decade", "regime_points_per_decade",
               "lambda_points", "backbone_points", "quad_order", "seed")
_REAL_FIELDS = ("omega", "t_min", "lambda_span", "rho", "backbone_halfwidth",
                "quad_cutoff", "convergence_rtol", "lattice_step")
_REAL_LIST_FIELDS = ("box", "q", "b", "atom_centers", "atom_radii",
                     "ladder_factors", "regime_cell_targets")
_OPTIONAL_FIELDS = ("lattice_step", "q", "b")


def _is_real(val) -> bool:
    return isinstance(val, numbers.Real) and not isinstance(val, bool)


def _leaves(val):
    if isinstance(val, (list, tuple)):
        for v in val:
            yield from _leaves(v)
    else:
        yield val


def _check_field_types(config: ExperimentConfig) -> None:
    """Integers where counts go, numbers (never booleans) where values go."""
    for name in _INT_FIELDS:
        val = getattr(config, name)
        if isinstance(val, bool) or not isinstance(val, numbers.Integral):
            raise ValidationError(f"{name} must be an integer, got {val!r}")
    for name in _REAL_FIELDS + _REAL_LIST_FIELDS:
        val = getattr(config, name)
        if val is None and name in _OPTIONAL_FIELDS:
            continue
        if name in _REAL_FIELDS:
            if not _is_real(val):
                raise ValidationError(f"{name} must be a number, got {val!r}")
        elif not (isinstance(val, (list, tuple)) and all(map(_is_real, _leaves(val)))):
            raise ValidationError(f"{name} must be a list of numbers, got {val!r}")


def _deep_tuple(val):
    if isinstance(val, (list, tuple)):
        return tuple(_deep_tuple(v) for v in val)
    return val


def _jsonable(val):
    if isinstance(val, tuple):
        return [_jsonable(v) for v in val]
    if isinstance(val, np.ndarray):
        return [_jsonable(v) for v in val.tolist()]
    if isinstance(val, (np.floating, np.integer)):
        return val.item()
    return val


def config_hash(config: ExperimentConfig) -> str:
    payload = json.dumps(config.to_json_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:12]


def build_model(config: ExperimentConfig) -> OUModel:
    cfg = {"preset": config.preset, "n": config.n, "omega": config.omega}
    if config.q is not None or config.b is not None:
        cfg["Q"] = config.q
        cfg["B"] = config.b
    return model_from_config(cfg)


# ---------------------------------------------------------------------------
# atoms and function factories
# ---------------------------------------------------------------------------

def indicator_atom(lo: float, hi: float, mass: float) -> Callable:
    """Normalized indicator of [lo, hi] (one-dimensional)."""
    if not mass > 0:
        raise ValidationError(f"atom mass must be positive, got {mass}")

    def f(pts: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(pts)[:, 0]
        return ((x >= lo) & (x <= hi)).astype(float) / mass

    return f


def monomial(powers: Sequence[int]) -> Callable:
    """f(x) = prod_i x_i^powers[i] for whole powers >= 0, vectorized over rows.

    Each axis is raised to its own Python int, so ``x ** 2`` takes numpy's
    exact square path and zero powers cost nothing; a negative or fractional
    power raises ``ValidationError`` instead of computing a reciprocal or a
    root.
    """
    try:
        pw = np.asarray(powers, dtype=float).reshape(-1)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"monomial powers must be numbers, got {powers!r}") from exc
    if not np.all((pw >= 0.0) & (pw == np.floor(pw)) & np.isfinite(pw)):
        raise ValidationError(
            f"monomial powers must be whole numbers >= 0, got {pw.tolist()}"
        )
    ints = [int(p) for p in pw]

    def f(pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        out = np.ones(pts.shape[0])
        for axis, p in enumerate(ints):
            if p:
                out = out * pts[:, axis] ** p
        return out

    return f


def _smooth_atom(family: CovarianceFamily, center: np.ndarray,
                 width: float) -> Callable:
    """Smooth compactly supported atom, normalized to unit invariant-L1 mass.

    The mass is integrated over the atom's own support rather than by the
    field quadrature rule: a narrow bump far from the origin falls between
    the nodes of any fixed Gaussian rule, and a mass that is off by an order
    of magnitude silently rescales every ratio built on the atom.
    """
    # imported on first use: it loads scipy.optimize and scipy.sparse too,
    # and the weak-type sweep never integrates adaptively
    from scipy import integrate

    center = np.asarray(center, dtype=float)

    def raw(pts: np.ndarray) -> np.ndarray:
        d = np.linalg.norm(np.atleast_2d(pts) - center[None, :], axis=1)
        return _bump_profile(d / width)

    gamma = invariant_measure(family)

    def weighted(*coords) -> float:
        pt = np.array([coords], dtype=float)
        return float(raw(pt)[0] * np.exp(gamma.logpdf(pt)[0]))

    if center.size == 1:
        mass, _ = integrate.quad(
            weighted, center[0] - width, center[0] + width,
            epsabs=0.0, epsrel=1e-10, limit=100,
        )
    else:
        box = [(c - width, c + width) for c in center]
        mass, _ = integrate.nquad(
            weighted, box, opts={"epsabs": 0.0, "epsrel": 1e-9, "limit": 80}
        )
    if not mass > 0:
        raise NumericalError("smooth atom has vanishing mass")

    def f(pts: np.ndarray) -> np.ndarray:
        return raw(pts) / mass

    return f


# ---------------------------------------------------------------------------
# grids and exact one-dimensional fields
# ---------------------------------------------------------------------------

def _time_grid(t_min: float, t_max: float, ppd: int) -> np.ndarray:
    decades = math.log10(t_max / t_min)
    count = int(math.floor(decades * ppd)) + 1
    return t_min * 10.0 ** (np.arange(count) / ppd)


def _spatial_grid(config: ExperimentConfig, family: CovarianceFamily,
                  center: float, radius: float) -> tuple:
    """Clustered grid: uniform backbone plus a ladder around the atom.

    Returns (points, invariant-measure weights of the Voronoi cells).  The
    ladder resolves the scales where a shrinking atom's field lives; without
    it a uniform grid misses the near-field of small atoms entirely.  The
    configured factors are extended by doubling until the ladder reaches the
    backbone spacing, so there is no unresolved annulus between the atom
    scale and the backbone scale (that gap inflates Voronoi masses right
    where the field peaks, which reads as fake weak-norm growth).
    """
    backbone = np.linspace(
        -config.backbone_halfwidth, config.backbone_halfwidth, config.backbone_points
    )
    spacing = 2.0 * config.backbone_halfwidth / max(config.backbone_points - 1, 1)
    factors = list(config.ladder_factors)
    while factors[-1] * radius < spacing:
        factors.append(2.0 * factors[-1])
    ladder = [center]
    for fac in factors:
        ladder.extend([center - fac * radius, center + fac * radius])
    ladder = [p for p in ladder if abs(p) <= config.backbone_halfwidth]
    pts = np.unique(np.concatenate([backbone, np.asarray(ladder)]))
    return pts, _grid_weights_1d(family, pts)


def _exact_field(model: OUModel, family: CovarianceFamily, lo: float, hi: float,
                 mass: float, xs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Exact H_t(atom)(x) on a grid (n = 1): Gaussian CDF differences.

    This *is* the kernel route in closed form -- the kernel integrated
    against the invariant measure is the transition Gaussian -- so it serves
    as the quadrature-free reference field for the sweep.
    """
    if model.n != 1:
        raise ValidationError("exact fields are one-dimensional only")
    drift = float(model.drift[0, 0])
    diff = float(model.diffusion[0, 0])
    decay = np.exp(drift * ts)                      # e^{tB}
    qt = diff * (1.0 - np.exp(2.0 * drift * ts)) / (-2.0 * drift)
    sd = np.sqrt(qt)
    means = xs[:, None] * decay[None, :]
    vals = ndtr((hi - means) / sd[None, :]) - ndtr((lo - means) / sd[None, :])
    return vals / mass


# ---------------------------------------------------------------------------
# field measurements: one row path for the sweep and the regime checks
# ---------------------------------------------------------------------------

_ROW_LAMBDAS_PER_DECADE = 10


@dataclass(frozen=True)
class _FieldMeasure:
    """A functional of one field on a fine grid and on its nested coarse grid;
    ``lambdas`` is the fine value's threshold grid (None for V_rho) and
    ``curves`` the fine curves, for fine-only follow-ups."""

    fine: float
    coarse: float
    rel_change: float
    converged: bool
    argmax_lambda: float
    n_fine: int
    n_coarse: int
    lambdas: "np.ndarray | None"
    curves: list


def _curves(ts: np.ndarray, field: np.ndarray) -> list:
    """One SampledCurve per spatial point of a (points x times) field."""
    return [SampledCurve(ts, row) for row in field]


def _variations(curves, rho: float) -> np.ndarray:
    """V_rho of every curve."""
    return np.array([rho_variation(c, rho).value for c in curves])


def _row_lambda_grid(curves, weights) -> np.ndarray:
    """Log-spaced jump thresholds covering a field's full amplitude span.

    The default lambda_grid policy anchors at the largest curve range and
    reaches down a fixed span, which suits the sweep's O(1)-amplitude exact
    fields.  On a cell window the edge amplitudes run e^{R(x)}-sized while
    the invariant mass sits at O(1) levels; a grid tied to the top never
    samples the levels that carry the weak norm, so here both ends track
    the data (smallest to largest positive amplitude among carried points).
    """
    w = np.asarray(weights, dtype=float).reshape(-1)
    amps = np.array([c.value_range() for c in curves])
    live = amps[(w > 0.0) & (amps > 0.0)]
    if live.size == 0:
        return np.array([1.0])
    hi = float(live.max())
    lo = 0.1 * float(live.min())
    if not lo < hi:
        return np.array([hi])
    count = max(
        40, int(math.ceil(_ROW_LAMBDAS_PER_DECADE * math.log10(hi / lo))) + 1
    )
    return np.geomspace(lo, hi, count)


def _measure_field(ts: np.ndarray, field: np.ndarray, weights,
                   config: ExperimentConfig, functional: str = "jumps",
                   lambdas: str = "coarse", norm: float = 1.0) -> _FieldMeasure:
    """Measure a field on the fine grid ``ts`` and on its nested coarse grid.

    The coarse grid is every second fine sample, ``field[:, ::2]``.
    ``functional`` is ``"jumps"`` (weak jump quasi-seminorm of exponent
    ``config.rho``) or ``"variation"`` (``weights @ V_rho`` divided by
    ``norm``).  ``lambdas`` picks the jump threshold policy: ``"coarse"``
    (one lambda_grid from the coarse curves for both densities),
    ``"per_density"`` (a lambda_grid per density) or ``"row"`` (a
    _row_lambda_grid per density).
    """
    ts_c = ts[::2]
    both = (_curves(ts, field), _curves(ts_c, field[:, ::2]))
    if functional == "variation":
        v_fine, v_coarse = (
            float(weights @ _variations(c, config.rho)) / norm for c in both
        )
        argmax, grid = math.nan, None
    else:
        if lambdas == "row":
            grids = [_row_lambda_grid(c, weights) for c in both]
        elif lambdas == "per_density":
            grids = [lambda_grid(c, config.lambda_points, config.lambda_span)
                     for c in both]
        else:
            grids = [lambda_grid(both[1], config.lambda_points, config.lambda_span)] * 2
        est, est_c = (
            weak_jump_quasi_seminorm(c, weights, config.rho, g)
            for c, g in zip(both, grids)
        )
        v_fine, v_coarse = est.value, est_c.value
        argmax, grid = est.argmax_lambda, grids[0]
    rel = abs(v_fine - v_coarse) / max(abs(v_fine), 1e-300)
    return _FieldMeasure(
        fine=v_fine, coarse=v_coarse, rel_change=rel,
        converged=rel <= config.convergence_rtol, argmax_lambda=argmax,
        n_fine=ts.size, n_coarse=ts_c.size, lambdas=grid, curves=both[0],
    )


# ---------------------------------------------------------------------------
# weak-type sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeakTypeRow:
    atom_center: float
    atom_radius: float
    j_fine: float
    j_coarse: float
    rel_change: float
    converged: bool
    argmax_lambda: float
    regime_small: float
    regime_mid: float
    regime_large: float
    var2_weak: float
    n_fine: int
    n_coarse: int

    CSV_HEADER = (
        "atom_center,atom_radius,j_fine,j_coarse,rel_change,converged,"
        "argmax_lambda,regime_small,regime_mid,regime_large,"
        "var2_weak_exploratory,n_fine,n_coarse"
    )

    def to_csv_row(self) -> str:
        return ",".join(
            [
                repr(self.atom_center),
                repr(self.atom_radius),
                repr(self.j_fine),
                repr(self.j_coarse),
                repr(self.rel_change),
                str(int(self.converged)),
                repr(self.argmax_lambda),
                repr(self.regime_small),
                repr(self.regime_mid),
                repr(self.regime_large),
                repr(self.var2_weak),
                str(self.n_fine),
                str(self.n_coarse),
            ]
        )


@dataclass(frozen=True)
class WeakTypeReport:
    """Sweep results: one row per atom, all ratios against unit L1 mass."""

    config: ExperimentConfig
    config_digest: str
    version: str
    t_max: float
    rows: tuple
    summary: dict

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "config_digest": self.config_digest,
            "version": self.version,
            "t_max": self.t_max,
            "summary": self.summary,
        }

    def write(self, outdir) -> list:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        paths = []
        cfg_path = outdir / "config.json"
        cfg_path.write_text(_json_text(self.to_json_dict()["config"]), encoding="utf-8")
        paths.append(cfg_path)
        rows_path = outdir / "rows.csv"
        body = "\n".join([WeakTypeRow.CSV_HEADER] + [r.to_csv_row() for r in self.rows])
        rows_path.write_text(body + "\n", encoding="utf-8")
        paths.append(rows_path)
        summary_path = outdir / "summary.json"
        summary_path.write_text(_json_text(self.to_json_dict()), encoding="utf-8")
        paths.append(summary_path)
        return paths


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def run_weak_type_sweep(config: ExperimentConfig) -> WeakTypeReport:
    """Shrinking-atom sweep of the weak jump seminorm (n = 1 exact route).

    For each atom (normalized interval indicator) the semigroup field is
    evaluated in closed form on a clustered spatial grid over a log-uniform
    time grid reaching 20 mixing times, and the weak jump quasi-seminorm is
    computed at two nested time densities.  Ratios are against the atom's
    unit invariant-L1 norm; per-regime sub-seminorms and an exploratory
    2-variation column come along for the ride.
    """
    model = build_model(config)
    if model.n != 1:
        raise ValidationError("the weak-type sweep requires a one-dimensional model")
    family = cov_qinf(model)
    t_max = 20.0 * mixing_time(model)
    eq_gap = float(
        np.linalg.norm(cov_qt(model, min(t_max, 1e3)) - family.qinf)
        / np.linalg.norm(family.qinf)
    )
    if eq_gap > 1e-12:
        raise NumericalError(
            f"t_max = {t_max:g} does not reach equilibrium (gap {eq_gap:.3e})"
        )
    ts_fine = _time_grid(config.t_min, t_max, config.points_per_decade)

    atoms = [
        (float(c), float(r))
        for c in config.atom_centers
        for r in config.atom_radii
    ]
    gamma = invariant_measure(family)

    def one_atom(pair) -> WeakTypeRow:
        center, radius = pair
        lo, hi = center - radius, center + radius
        mass = gamma.interval_mass(lo, hi)
        xs, weights = _spatial_grid(config, family, center, radius)
        field = _exact_field(model, family, lo, hi, mass, xs, ts_fine)
        m = _measure_field(ts_fine, field, weights, config)
        cap = min(1.0, 1.0 / (center * center)) if center != 0.0 else 1.0
        regime_vals = []
        for wlo, whi in ((config.t_min, cap), (cap, 1.0), (1.0, t_max)):
            mask = (ts_fine >= wlo) & (ts_fine <= whi)
            val = math.nan  # under 2 samples: [cap, 1] = [1, 1] when |centre| <= 1
            if mask.sum() >= 2:
                sub = _curves(ts_fine[mask], field[:, mask])
                val = weak_jump_quasi_seminorm(sub, weights, config.rho,
                                               m.lambdas).value
            regime_vals.append(val)
        return WeakTypeRow(
            atom_center=center, atom_radius=radius, j_fine=m.fine,
            j_coarse=m.coarse, rel_change=m.rel_change, converged=m.converged,
            argmax_lambda=m.argmax_lambda, regime_small=regime_vals[0],
            regime_mid=regime_vals[1], regime_large=regime_vals[2],
            var2_weak=weak_quasinorm(_variations(m.curves, 2.0), weights),
            n_fine=m.n_fine, n_coarse=m.n_coarse,
        )

    rows = [one_atom(a) for a in atoms]

    by_radius = {}
    for row in rows:
        if row.atom_center == 0.0:
            by_radius[row.atom_radius] = row.j_fine
    slope = math.nan
    if len(by_radius) >= 2:
        rads = sorted(by_radius)
        lr = np.log([r for r in rads])
        lj = np.log([max(by_radius[r], 1e-300) for r in rads])
        slope = float(np.polyfit(lr, lj, 1)[0])
    summary = {
        "slope_log_ratio_vs_log_radius": slope,
        "max_ratio": max(r.j_fine for r in rows),
        "all_converged": all(r.converged for r in rows),
        "n_atoms": len(rows),
        "n_t_fine": int(ts_fine.size),
        "n_t_coarse": int(ts_fine[::2].size),
    }
    report = WeakTypeReport(
        config=config,
        config_digest=config_hash(config),
        version=__version__,
        t_max=t_max,
        rows=tuple(rows),
        summary=summary,
    )
    if config.output_dir is not None:
        report.write(config.output_dir)
    return report


# ---------------------------------------------------------------------------
# regime checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegimeRow:
    group: str
    cell: int
    detail: str
    ratio_fine: float
    ratio_coarse: float
    rel_change: float
    converged: bool
    n_fine: int
    n_coarse: int

    CSV_HEADER = (
        "group,cell,detail,ratio_fine,ratio_coarse,rel_change,converged,"
        "n_fine,n_coarse"
    )

    def to_csv_row(self) -> str:
        return ",".join(
            [
                self.group,
                str(self.cell),
                self.detail,
                repr(self.ratio_fine),
                repr(self.ratio_coarse),
                repr(self.rel_change),
                str(int(self.converged)),
                str(self.n_fine),
                str(self.n_coarse),
            ]
        )


@dataclass(frozen=True)
class RegimeReport:
    """Cross-cell uniformity proxies for the per-regime propositions."""

    config: ExperimentConfig
    config_digest: str
    version: str
    rows: tuple
    spreads: dict
    all_within_spread: bool
    all_converged: bool

    def to_json_dict(self) -> dict:
        return {
            "config_digest": self.config_digest,
            "version": self.version,
            "spreads": self.spreads,
            "all_within_spread": self.all_within_spread,
            "all_converged": self.all_converged,
        }

    def write(self, outdir) -> list:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        rows_path = outdir / "regime_rows.csv"
        body = "\n".join([RegimeRow.CSV_HEADER] + [r.to_csv_row() for r in self.rows])
        rows_path.write_text(body + "\n", encoding="utf-8")
        summary_path = outdir / "regime_summary.json"
        summary_path.write_text(_json_text(self.to_json_dict()), encoding="utf-8")
        return [rows_path, summary_path]


def _rows_dot(rt, weights: np.ndarray, vals: np.ndarray) -> list:
    """``rt[i] * (weights @ vals[i])`` per row, as one 1-D dot per point:
    the single-point operators' reduction, so the values match theirs."""
    return [r * float(weights @ v) for r, v in zip(rt, vals)]


def _cell_field(model, family, scheme, j, f, xs, ts, quad) -> dict:
    """Cell-local operator fields over (xs, ts): delta1..3, main and h_local.

    Per point the values are those of delta_op (kappa = 1, 2, 3), main_op
    and the plateau times the kernel route applied to f r_j (``h_local``),
    with the same per-point arithmetic.  Per time one node system, one kernel
    evaluation per kappa and one f and r_j evaluation serve every point,
    which is what makes field sweeps affordable.  The identity suite
    cross-checks this against the public operators.
    """
    m = xs.shape[0]
    rt = scheme.rt_j(j, xs).tolist()
    keys = ("delta1", "delta2", "delta3", "main", "h_local")
    out = {key: np.empty((m, ts.size)) for key in keys}
    for ti, t in enumerate(ts):
        weights, logs, g = _cell_terms(
            model, family, scheme, j, float(t), f, xs, (0, 1, 2, 3), quad
        )
        for kappa in (1, 2, 3):
            gap = _kernel_gap(logs[kappa - 1], logs[kappa])
            out[f"delta{kappa}"][:, ti] = _rows_dot(rt, weights, gap * g)
        out["main"][:, ti] = _rows_dot(rt, weights, np.exp(logs[3]) * g)
        out["h_local"][:, ti] = _rows_dot(rt, weights, np.exp(logs[0]) * g)
    return out


def _global_field(model, family, scheme, f, xs, ts, quad) -> np.ndarray:
    """The global remainder (apply_global) over (xs, ts), one time at a time;
    each point's plateaus are computed once."""
    plateaus = scheme.rt_all(xs)
    out = np.empty((xs.shape[0], ts.size))
    for ti, t in enumerate(ts):
        out[:, ti] = _global_rows(model, family, scheme, float(t), f, xs, plateaus, quad)
    return out


def _grid_weights_1d(family: CovarianceFamily, pts: np.ndarray) -> np.ndarray:
    sd = math.sqrt(float(family.qinf[0, 0]))
    mids = 0.5 * (pts[1:] + pts[:-1])
    cdf = ndtr(mids / sd)
    return np.diff(np.concatenate([[0.0], cdf, [1.0]]))


def _clipped_voronoi_edges(pts: np.ndarray) -> np.ndarray:
    """Edges of the Voronoi cells of sorted ``pts``, clipped to [pts[0], pts[-1]]."""
    mids = 0.5 * (pts[1:] + pts[:-1])
    return np.concatenate([[pts[0]], mids, [pts[-1]]])


def _lebesgue_weights_1d(pts: np.ndarray) -> np.ndarray:
    return np.diff(_clipped_voronoi_edges(pts))


def _invariant_window_weights_1d(family: CovarianceFamily,
                                 pts: np.ndarray) -> np.ndarray:
    """Invariant masses of the Voronoi cells of ``pts``, clipped to the window.

    Unlike _grid_weights_1d this does NOT fold the tail mass of the whole
    line onto the edge points; aggregates built from these weights are over
    [pts[0], pts[-1]] only.  On a window far from the origin the tails would
    otherwise dwarf the window's own mass and swamp the aggregate.
    """
    sd = math.sqrt(float(family.qinf[0, 0]))
    return np.diff(ndtr(_clipped_voronoi_edges(pts) / sd))


def _lebesgue_l1_1d(f: Callable, center: float, width: float) -> float:
    """Lebesgue L1 norm of a nonnegative bump supported on [c - w, c + w]."""
    from scipy import integrate  # on first use, as in _smooth_atom

    val, _ = integrate.quad(
        lambda u: float(f(np.array([[u]]))[0]),
        center - width, center + width, limit=100,
    )
    if not val > 0:
        raise NumericalError("atom has vanishing Lebesgue mass")
    return float(val)


def run_regime_checks(config: ExperimentConfig) -> RegimeReport:
    """Evaluate the per-regime seminorm ratios across localization cells.

    One row group per structural estimate: jumps of the full semigroup at
    large times, jumps of the global remainder at small times, 2-variation
    of the plateau-localized semigroup on the intermediate window (cells
    away from the origin), 2-variation of each difference operator and
    weak jumps of the main operator on the short-time window.  Each group's
    ratios should be comparable across cells; the report records the
    max/min spread and flags groups spreading beyond a factor of 10.
    """
    model = build_model(config)
    if model.n != 1:
        raise ValidationError("regime checks are wired for one-dimensional models")
    family = cov_qinf(model)
    quad = config.quad()
    scheme = build_localization(model, family, config.box, config.lattice_step)
    t_max = 20.0 * mixing_time(model)

    cells = []
    center_norms = np.linalg.norm(scheme.centers, axis=1)
    for target in config.regime_cell_targets:
        j = int(np.argmin(np.abs(center_norms - float(target))))
        if j not in cells:
            cells.append(j)

    rows: list = []

    def add_row(group, cell, detail, m: _FieldMeasure):
        rows.append(RegimeRow(
            group=group, cell=cell, detail=detail, ratio_fine=m.fine,
            ratio_coarse=m.coarse, rel_change=m.rel_change, converged=m.converged,
            n_fine=m.n_fine, n_coarse=m.n_coarse,
        ))

    # --- shared backbone field rows (exact route, full semigroup) ---------
    backbone = np.linspace(
        -config.backbone_halfwidth, config.backbone_halfwidth, config.backbone_points
    )
    gamma = invariant_measure(family)
    radius0 = 0.5
    mass0 = gamma.interval_mass(-radius0, radius0)
    w_back = _grid_weights_1d(family, backbone)

    # the exact field is elementwise in t, so its coarse half is a slice
    ts_large = _time_grid(1.0, t_max, config.regime_points_per_decade)
    field_large = _exact_field(model, family, -radius0, radius0, mass0, backbone,
                               ts_large)
    add_row("large_time_jumps", -1, "full semigroup on [1 .. t_max]",
            _measure_field(ts_large, field_large, w_back, config,
                           lambdas="per_density"))

    # --- global remainder at small times (quadrature route) ---------------
    # Smooth bump rather than an indicator: the remainder field is computed by
    # Gaussian quadrature, and a discontinuous integrand would alias node
    # crossings into spurious jumps of the time curve.
    atom0 = _smooth_atom(family, scheme.centers[0], 0.25)
    ts_glob = _time_grid(config.t_min, 1.0, config.regime_points_per_decade)
    field_glob = _global_field(model, family, scheme, atom0, backbone[:, None],
                               ts_glob, quad)
    add_row("global_small_time_jumps", -1, "global remainder on (t_min .. 1]",
            _measure_field(ts_glob, field_glob, w_back, config,
                           lambdas="per_density"))

    # --- cell-local operator rows ------------------------------------------
    # Two normalizations, matching the two shapes of cell estimate.  The
    # short-window rows (difference operators, main operator) compare an
    # invariant-measure aggregate over the cell window against the atom's
    # invariant L1 mass (= 1 by construction): the kernels carry an
    # e^{R(x)} factor that only the invariant weight cancels, so a Lebesgue
    # aggregate would report the origin cell at e^{|window|^2}-sized values.
    # The mid-window row is a local mean-value estimate, uniform in the cell
    # with respect to Lebesgue measure, so there both the aggregate and the
    # atom norm are Lebesgue.
    for j in cells:
        center = scheme.centers[j]
        rho_j = float(scheme.radii[j])
        cap = scheme.cell_time_cap(j)
        if cap <= config.t_min:
            continue
        width = 0.5 * rho_j
        atom = _smooth_atom(family, center, width)
        detail = f"center {float(center[0])!r}"
        # cell-local spatial grid inside the plateau support
        offs = np.array([-5.5, -4.0, -2.5, -1.5, -0.75, -0.25, 0.0,
                         0.25, 0.75, 1.5, 2.5, 4.0, 5.5])
        xs_cell = (float(center[0]) + offs * rho_j)[:, None]
        wg_cell = _invariant_window_weights_1d(family, xs_cell[:, 0])

        ts_short = _time_grid(config.t_min, cap, config.regime_points_per_decade)
        fields = _cell_field(model, family, scheme, j, atom, xs_cell, ts_short, quad)
        for kappa in (1, 2, 3):
            add_row(f"difference_op_var_k{kappa}", j, detail,
                    _measure_field(ts_short, fields[f"delta{kappa}"], wg_cell,
                                   config, functional="variation"))
        add_row("main_op_weak_jumps", j, detail,
                _measure_field(ts_short, fields["main"], wg_cell, config,
                               lambdas="row"))

        # intermediate window: only meaningful for cells away from the origin
        if cap < 1.0:
            ts_mid = _time_grid(cap, 1.0, config.regime_points_per_decade)
            field_mid = _cell_field(
                model, family, scheme, j, atom, xs_cell, ts_mid, quad
            )["h_local"]
            atom_l1 = _lebesgue_l1_1d(atom, float(center[0]), width)
            add_row("localized_var_mid_window", j, detail, _measure_field(
                ts_mid, field_mid, _lebesgue_weights_1d(xs_cell[:, 0]), config,
                functional="variation", norm=atom_l1,
            ))

    # Spread policy: the mid-window and main-operator groups make genuinely
    # uniform-in-cell claims, so they carry the factor-10 gate.  The
    # difference-operator and global groups inherit constants that
    # legitimately differ per cell; for them the report requires finite,
    # convergent ratios and records the spread without gating on it.
    gated_groups = ("localized_var_mid_window", "main_op_weak_jumps")
    spreads = {}
    all_within = True
    for group in sorted({r.group for r in rows}):
        vals_g = [r.ratio_fine for r in rows if r.group == group]
        finite = all(math.isfinite(v) for v in vals_g)
        lo, hi = min(vals_g), max(vals_g)
        spread = hi / max(lo, 1e-300) if hi > 0 else 1.0
        within = spread <= 10.0 or len(vals_g) == 1
        gated = group in gated_groups
        spreads[group] = {
            "min": lo,
            "max": hi,
            "spread": spread,
            "within_factor_10": within,
            "gated": gated,
        }
        all_within = all_within and finite and (within or not gated)
    report = RegimeReport(
        config=config,
        config_digest=config_hash(config),
        version=__version__,
        rows=tuple(rows),
        spreads=spreads,
        all_within_spread=all_within,
        all_converged=all(r.converged for r in rows),
    )
    if config.output_dir is not None:
        report.write(config.output_dir)
    return report


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityRow:
    name: str
    worst: float
    tol: float
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: worst {self.worst:.3e} vs tol {self.tol:.1e} {self.detail}"


@dataclass(frozen=True)
class IdentityReport:
    config_digest: str
    version: str
    rows: tuple

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    def failures(self) -> list:
        return [r.name for r in self.rows if not r.passed]

    def require_pass(self) -> None:
        if not self.all_pass:
            raise FailureList(self.failures())

    def lines(self) -> list:
        return [r.line() for r in self.rows]

    def write(self, outdir) -> list:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        path = outdir / "identities.json"
        payload = {
            "config_digest": self.config_digest,
            "version": self.version,
            "all_pass": self.all_pass,
            "rows": [
                {
                    "name": r.name,
                    "worst": r.worst,
                    "tol": r.tol,
                    "passed": r.passed,
                    "detail": r.detail,
                }
                for r in self.rows
            ],
        }
        path.write_text(_json_text(payload), encoding="utf-8")
        return [path]


def _random_curve(rng, max_len: int = 60) -> SampledCurve:
    n = int(rng.integers(2, max_len))
    times = np.cumsum(rng.uniform(0.01, 1.0, n))
    values = rng.normal(0.0, 1.0, n)
    if rng.uniform() < 0.3:
        values = np.round(values * 2.0) / 2.0   # encourage exact ties
    return SampledCurve(times, values)


def run_identity_suite(
    config: ExperimentConfig, kernel_perturbation: float = 0.0
) -> IdentityReport:
    """Machine-precision structural identities, one report row each.

    ``kernel_perturbation`` multiplies one leg of the kernel telescoping sum
    by (1 + eps) -- the negative control: any nonzero eps must turn the
    telescoping rows red.  Everything is seeded from the config.
    """
    model = build_model(config)
    family = cov_qinf(model)
    quad = config.quad()
    rng = np.random.default_rng(config.seed)
    rows: list = []

    def add(name, worst, tol, detail=""):
        worst = float(worst)
        rows.append(
            IdentityRow(name=name, worst=worst, tol=tol,
                        passed=bool(worst <= tol), detail=detail)
        )

    n = model.n

    # -- derivative factor vs finite differences ---------------------------
    worst = 0.0
    for _ in range(40):
        kappa = int(rng.integers(0, 4))
        t = float(np.exp(rng.uniform(math.log(0.05), 0.0)))
        x = rng.uniform(-2.0, 2.0, n)
        u = rng.uniform(-2.0, 2.0, n)
        ev = ktilde(model, family, kappa, t, x, u)
        h = (np.finfo(float).eps ** (1.0 / 3.0)) * t
        k_plus = math.exp(ktilde(model, family, kappa, t + h, x, u).log_value)
        k_minus = math.exp(ktilde(model, family, kappa, t - h, x, u).log_value)
        fd = (k_plus - k_minus) / (2.0 * h)
        analytic = ev.value * ev.n_factor
        denom = max(abs(analytic), abs(fd), 1e-12)
        worst = max(worst, abs(fd - analytic) / denom)
    add("derivative_factor_vs_fd", worst, 1e-6)

    # -- dual quadrature routes on polynomials ------------------------------
    worst = 0.0
    polys = [(0,) * n, tuple([1] + [0] * (n - 1)), tuple([2] + [0] * (n - 1))]
    if n > 1:
        polys.append((1, 1))
    for powers in polys:
        f = monomial(powers)
        for t in (0.1, 1.0, 5.0):
            x = rng.uniform(-1.5, 1.5, n)
            a = apply_semigroup_kernel(model, family, t, f, x, quad)
            b = apply_semigroup_kolmogorov(model, family, t, f, x, quad)
            worst = max(worst, abs(a - b))
    add("kernel_vs_kolmogorov_routes", worst, 1e-8)

    # -- conservativity and invariance --------------------------------------
    one = monomial((0,) * n)
    worst = 0.0
    for t in (0.1, 1.0, 5.0):
        x = rng.uniform(-1.5, 1.5, n)
        worst = max(worst, abs(apply_semigroup_kernel(model, family, t, one, x, quad) - 1.0))
    add("conservativity", worst, 1e-6)

    f_poly = monomial(tuple([2] + [0] * (n - 1)))
    mean_f = expect_invariant(model, family, f_poly, quad)
    worst = 0.0
    for t in (0.2, 1.0):
        def ht_f(pts, t=t):
            return np.array(
                [apply_semigroup_kolmogorov(model, family, t, f_poly, p, quad)
                 for p in np.atleast_2d(pts)]
            )
        worst = max(worst, abs(expect_invariant(model, family, ht_f, quad) - mean_f))
    add("invariance", worst, 1e-6)

    # -- semigroup law -------------------------------------------------------
    worst = 0.0
    s, t = 0.3, 0.7
    x0 = rng.uniform(-1.0, 1.0, n)
    def ht_poly(pts):
        return np.array(
            [apply_semigroup_kolmogorov(model, family, t, f_poly, p, quad)
             for p in np.atleast_2d(pts)]
        )
    lhs = apply_semigroup_kolmogorov(model, family, s, ht_poly, x0, quad)
    rhs = apply_semigroup_kolmogorov(model, family, s + t, f_poly, x0, quad)
    add("semigroup_law", abs(lhs - rhs), 1e-6)

    # -- kernel-level telescoping -------------------------------------------
    eps = float(kernel_perturbation)
    worst = 0.0
    for _ in range(50):
        t = float(np.exp(rng.uniform(math.log(0.01), 0.0)))
        x = rng.uniform(-2.0, 2.0, n)
        u = rng.uniform(-2.0, 2.0, n)
        k0 = mehler_kernel(model, family, t, x, u).value
        k1 = math.exp(ktilde(model, family, 1, t, x, u).log_value)
        k2 = math.exp(ktilde(model, family, 2, t, x, u).log_value)
        d1 = k0 - k1 * (1.0 + eps)
        d2 = kernel_difference(model, family, 2, t, x, u)
        d3 = kernel_difference(model, family, 3, t, x, u)
        k3 = math.exp(ktilde(model, family, 3, t, x, u).log_value)
        total = d1 + d2 + d3 + k3
        # relative to the chain's own scale: when an intermediate kernel
        # dwarfs the transition kernel, the cancellation -- not the result
        # size -- sets the achievable precision
        scale = max(abs(k0), k1, k2, k3, 1e-300)
        worst = max(worst, abs(total - k0) / scale)
    add("kernel_telescoping", worst, 1e-12,
        detail="(perturbed)" if eps else "")

    # -- operator-level telescoping and convolution form ---------------------
    scheme = build_localization(model, family, config.box, config.lattice_step) \
        if n == 1 else None
    if scheme is not None:
        norms = np.linalg.norm(scheme.centers, axis=1)
        j = int(np.argmin(np.abs(norms - 2.0)))
        center = scheme.centers[j]
        rho_j = float(scheme.radii[j])
        atom = _smooth_atom(family, center, 0.5 * rho_j)
        cap = scheme.cell_time_cap(j)
        worst_tel = 0.0
        worst_conv = 0.0
        worst_fast = 0.0
        # the convolution comparison runs both routes through the adaptive
        # rule: fixed Gaussian rules stall near 1e-4 on bump-cutoff
        # integrands, far short of the 1e-8 gate
        quad_ad = QuadratureSpec(
            scheme="adaptive", order=quad.order, domain_cutoff=quad.domain_cutoff
        )

        def fr(pts):
            return atom(pts) * scheme.r_j(j, pts)

        for frac in (0.2, 0.6, 1.0):
            t = cap * frac
            x = center + 0.25 * rho_j
            deltas = [
                delta_op(model, family, scheme, kappa, j, t, atom, x, quad)
                for kappa in (1, 2, 3)
            ]
            if eps:
                # one perturbed leg, same negative control as the kernel row
                k1_leg = delta_op(model, family, scheme, 1, j, t, atom, x, quad)
                deltas[0] = k1_leg * (1.0 + eps)
            mn = main_op(model, family, scheme, j, t, atom, x, quad)
            href = scheme.rt_at(j, x) * apply_semigroup_kernel(
                model, family, t, fr, x, quad
            )
            total = sum(deltas) + mn
            worst_tel = max(
                worst_tel, abs(total - href) / max(abs(href), 1e-300)
            )
            mc = main_op_convolution(model, family, scheme, j, t, atom, x, quad_ad)
            mh = main_op(model, family, scheme, j, t, atom, x, quad_ad)
            worst_conv = max(worst_conv, abs(mh - mc) / max(abs(mh), 1e-300))
        # batched fields against the single-point operators; the second point
        # sits where the plateau is strictly between 0 and 1
        xs_fast = np.array([center + 0.25 * rho_j, center + 5.5 * rho_j])
        ts_fast = np.array([cap * frac for frac in (0.2, 0.6, 1.0)])
        fields = _cell_field(model, family, scheme, j, atom, xs_fast, ts_fast, quad)
        for xi, x in enumerate(xs_fast):
            for ti, t in enumerate(ts_fast.tolist()):
                refs = {
                    f"delta{kappa}": delta_op(
                        model, family, scheme, kappa, j, t, atom, x, quad
                    )
                    for kappa in (1, 2, 3)
                }
                refs["main"] = main_op(model, family, scheme, j, t, atom, x, quad)
                refs["h_local"] = scheme.rt_at(j, x) * apply_semigroup_kernel(
                    model, family, t, fr, x, quad
                )
                for key, ref in refs.items():
                    worst_fast = max(
                        worst_fast,
                        abs(fields[key][xi, ti] - ref) / max(abs(ref), 1e-300),
                    )
        add("operator_telescoping", worst_tel, 1e-8,
            detail="(perturbed)" if eps else "")
        add("main_op_convolution_form", worst_conv, 1e-8)
        add("cell_field_fast_path", worst_fast, 1e-12)

        # pointwise convolution-kernel identity (quadrature-free)
        worst = 0.0
        gamma = invariant_measure(family)
        for _ in range(50):
            t = float(np.exp(rng.uniform(math.log(1e-3), 0.0)))
            x = rng.uniform(-3.0, 3.0, n)
            u = rng.uniform(-3.0, 3.0, n)
            lhs = (
                ktilde(model, family, 3, t, x, u).log_value
                + float(gamma.logpdf(u))
            )
            psi = GaussianMeasure(x, t * model.diffusion)
            rhs = (
                float(quadratic_R(family, x)) - float(quadratic_R(family, u))
                + float(psi.logpdf(u))
            )
            worst = max(worst, abs(lhs - rhs))
        add("convolution_kernel_identity_log", worst, 1e-10)

        # partition of unity and eta structure
        pts = np.linspace(
            scheme.box[0, 0] + scheme.interior_margin,
            scheme.box[0, 1] - scheme.interior_margin,
            201,
        )[:, None]
        sums = scheme.r_weights(pts).sum(axis=1)
        add("partition_of_unity", float(np.abs(sums - 1.0).max()), 1e-10)
        worst = 0.0
        for xp in pts[:: 20]:
            val = eta(scheme, xp, xp)
            worst = max(worst, abs(val - 1.0))
        add("eta_diagonal", worst, 1e-10)
        vals = []
        for xp in pts[:: 10]:
            vals.append(eta(scheme, xp, pts))
        arr = np.concatenate(vals)
        add("eta_range", float(max(arr.max() - 1.0, -arr.min(), 0.0)), 1e-12)

    # -- curve functional cross-checks ---------------------------------------
    worst = 0
    for _ in range(150):
        c = _random_curve(rng)
        lam = float(rng.uniform(0.05, 1.5))
        if jump_count(c, lam) != jump_count_dp(c, lam):
            worst += 1
    add("jump_fast_path_vs_dp", worst, 0)

    worst = 0.0
    for _ in range(100):
        c = _random_curve(rng)
        for rho in (1.5, 2.0, 3.0):
            a = rho_variation(c, rho, method="extrema").value
            b = rho_variation(c, rho, method="full").value
            worst = max(worst, abs(a - b))
    add("variation_fast_path_vs_full", worst, 0.0)

    worst = 0.0
    for _ in range(200):
        c = _random_curve(rng)
        lam = float(rng.uniform(0.05, 1.5))
        rho = float(rng.uniform(1.0, 3.0))
        exceed = jump_count(c, lam) - 1
        dom = lam * exceed ** (1.0 / rho)
        var = rho_variation(c, rho).value
        worst = max(worst, dom - var)
    add("count_variation_domination", worst, 0.0)

    worst = 0
    for _ in range(200):
        c1 = _random_curve(rng)
        c2v = rng.normal(0.0, 1.0, c1.n_samples)
        c2 = SampledCurve(c1.times, c2v)
        csum = SampledCurve(c1.times, c1.values + c2.values)
        lam = float(rng.uniform(0.1, 2.0))
        lhs = jump_count(csum, lam) - 1
        rhs = 2 * ((jump_count(c1, lam / 4.0) - 1) + (jump_count(c2, lam / 4.0) - 1))
        if lhs > rhs:
            worst += 1
    add("jump_quasi_subadditivity", worst, 0)

    return IdentityReport(
        config_digest=config_hash(config),
        version=__version__,
        rows=tuple(rows),
    )
