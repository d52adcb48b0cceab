"""The benchmark's workloads: the experiment calls of one round, and their checks.

A round is a fixed list of operations; an operation is one public
``run_*`` call on a frozen ``ExperimentConfig``.  Every round of a run
repeats the same operations, so rounds are directly comparable and every
repeat must reproduce the first one's report bytes.

Why these three (see README.md for the per-layer predictions):

* ``sweep`` -- the default weak-type sweep trimmed to one atom and a
  three-point backbone.  The default time grid (2,203 fine / 1,102 coarse
  samples) and 40-point lambda grid are kept, so nearly all its time is
  ``jump_count`` on long curves; it never touches ``kernels`` or
  ``semigroup``, which makes it the bypass workload for field evaluation.
* ``regimes`` -- the default regime checks at 48 points per decade, the only
  mixed load: short-window ``jump_count``, ``apply_global`` with localization
  weights, and the cell fields (node systems and batched kernel log-values).
* ``identities`` -- the identity suite on ``standard`` and on the
  non-self-adjoint ``rotating2d`` preset for two derived seeds: short random
  curves with ties, scalar ``ktilde`` calls, random times that miss the
  ``qt_bundle`` cache, and adaptive scipy quadrature.
"""

from __future__ import annotations

import hashlib
import math
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import ndtr

import ou_jump_lab as lab
from ou_jump_lab import ExperimentConfig, SampledCurve

BOX_2D = ((-6.0, 6.0), (-6.0, 6.0))
SWEEP_TRIM = {"atom_centers": (0.0,), "atom_radii": (0.5,), "backbone_points": 3}
REGIME_POINTS_PER_DECADE = 48
IDENTITY_SEEDS = 2
SWEEP_PAIRS = 12          # (curve, lambda) pairs checked against jump_count_dp
REGIME_PAIRS_PER_KIND = 4


class Op(NamedTuple):
    label: str
    config: ExperimentConfig
    run: Callable


class Built(NamedTuple):
    """What set-up produces for one config: model, covariances, cells."""

    config: ExperimentConfig
    model: object
    family: object
    scheme: object


def derived_seeds(seed: int, count: int) -> list:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def ops_for(workload: str, seed: int) -> list:
    if workload == "sweep":
        cfg = ExperimentConfig(seed=seed, **SWEEP_TRIM)
        return [Op("sweep/standard", cfg, lab.run_weak_type_sweep)]
    if workload == "regimes":
        cfg = ExperimentConfig(
            seed=seed, regime_points_per_decade=REGIME_POINTS_PER_DECADE
        )
        return [Op("regimes/standard", cfg, lab.run_regime_checks)]
    if workload == "identities":
        ops = []
        for s in derived_seeds(seed, IDENTITY_SEEDS):
            ops.append(Op(f"identities/standard/seed={s}",
                          ExperimentConfig(seed=s), lab.run_identity_suite))
            ops.append(Op(f"identities/rotating2d/seed={s}",
                          ExperimentConfig(preset="rotating2d", n=2, box=BOX_2D, seed=s),
                          lab.run_identity_suite))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def setup(workload: str, seed: int = 0) -> list:
    """Build model, covariance family and (where used) localization scheme.

    This is the work ``setup_s`` times in a fresh interpreter; the checks
    reuse it.  Identity rounds repeat each preset per seed, so one build per
    distinct preset is what a run needs.
    """
    built = {}
    for op in ops_for(workload, seed):
        cfg = op.config
        key = (cfg.preset, cfg.n, cfg.box)
        if key in built:
            continue
        model = lab.build_model(cfg)
        family = lab.cov_qinf(model)
        scheme = None
        if workload != "sweep" and model.n == 1:
            scheme = lab.build_localization(model, family, cfg.box, cfg.lattice_step)
        built[key] = Built(cfg, model, family, scheme)
    return list(built.values())


# ---------------------------------------------------------------------------
# report bytes
# ---------------------------------------------------------------------------

def report_digest(report, workdir: Path) -> str:
    """sha256 over the files the report's own ``write`` produces."""
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        paths = sorted(report.write(tmp))
        h = hashlib.sha256()
        for path in paths:
            h.update(Path(path).name.encode() + b"\0")
            h.update(Path(path).read_bytes())
        return h.hexdigest()


def flags(report) -> dict:
    """Convergence flags, recorded but never gated on."""
    if isinstance(report, lab.WeakTypeReport):
        return {"converged": [int(r.converged) for r in report.rows],
                "all_converged": bool(report.summary["all_converged"])}
    if isinstance(report, lab.RegimeReport):
        return {"converged_rows": sum(int(r.converged) for r in report.rows),
                "rows": len(report.rows),
                "all_converged": bool(report.all_converged)}
    return {"all_pass": bool(report.all_pass)}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _time_grid(t_min: float, t_max: float, ppd: int) -> np.ndarray:
    count = int(math.floor(math.log10(t_max / t_min) * ppd)) + 1
    return t_min * 10.0 ** (np.arange(count) / ppd)


def _interval_field(built: Built, lo: float, hi: float, x: float,
                    ts: np.ndarray) -> np.ndarray:
    """Closed-form H_t of the normalized indicator of [lo, hi] at x (n = 1)."""
    b = float(built.model.drift[0, 0])
    q = float(built.model.diffusion[0, 0])
    mean = x * np.exp(b * ts)
    sd = np.sqrt(q * (1.0 - np.exp(2.0 * b * ts)) / (-2.0 * b))
    mass = lab.invariant_measure(built.family).interval_mass(lo, hi)
    return (ndtr((hi - mean) / sd) - ndtr((lo - mean) / sd)) / mass


def _bump(center, width: float) -> Callable:
    center = np.asarray(center, dtype=float)

    def f(pts):
        s = np.linalg.norm(np.atleast_2d(pts) - center[None, :], axis=1) / width
        out = np.zeros(s.shape)
        inside = s < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
        return out

    return f


def _pick_lambda(cfg: ExperimentConfig, curve: SampledCurve, rng) -> float:
    grid = lab.lambda_grid([curve], cfg.lambda_points, cfg.lambda_span)
    return float(grid[rng.integers(grid.size)])


def _sweep_pairs(built: Built, rng):
    """Curves of the sweep's closed-form field on its fine or coarse grid."""
    cfg = built.config
    t_max = 20.0 * lab.mixing_time(built.model)
    ts_fine = _time_grid(cfg.t_min, t_max, cfg.points_per_decade)
    for _ in range(SWEEP_PAIRS):
        center = float(rng.choice(cfg.atom_centers))
        radius = float(rng.choice(cfg.atom_radii))
        x = float(rng.uniform(-cfg.backbone_halfwidth, cfg.backbone_halfwidth))
        ts = ts_fine if rng.uniform() < 0.5 else ts_fine[::2]
        curve = SampledCurve(
            ts, _interval_field(built, center - radius, center + radius, x, ts)
        )
        yield "sweep field", curve, _pick_lambda(cfg, curve, rng)


def _regime_pairs(built: Built, rng):
    """Curves of the three regime field kinds that feed weak jump seminorms."""
    cfg, model, family, scheme = built
    quad = cfg.quad()
    ppd = cfg.regime_points_per_decade
    half = cfg.backbone_halfwidth
    t_max = 20.0 * lab.mixing_time(model)
    kinds = []

    ts = _time_grid(1.0, t_max, ppd)
    for _ in range(REGIME_PAIRS_PER_KIND):
        x = float(rng.uniform(-half, half))
        kinds.append(("large-time field", ts,
                      _interval_field(built, -0.5, 0.5, x, ts)))

    atom0 = _bump(scheme.centers[0], 0.25)
    ts = _time_grid(cfg.t_min, 1.0, ppd)
    for _ in range(REGIME_PAIRS_PER_KIND):
        x = np.array([rng.uniform(-half, half)])
        vals = [lab.apply_global(model, family, scheme, float(t), atom0, x, quad)
                for t in ts]
        kinds.append(("global remainder", ts, np.array(vals)))

    norms = np.linalg.norm(scheme.centers, axis=1)
    cells = sorted({int(np.argmin(np.abs(norms - float(t))))
                    for t in cfg.regime_cell_targets})
    for _ in range(REGIME_PAIRS_PER_KIND):
        j = cells[rng.integers(len(cells))]
        rho_j = float(scheme.radii[j])
        atom = _bump(scheme.centers[j], 0.5 * rho_j)
        x = scheme.centers[j] + rng.uniform(-5.5, 5.5) * rho_j
        ts_j = _time_grid(cfg.t_min, scheme.cell_time_cap(j), ppd)
        vals = [lab.main_op(model, family, scheme, j, float(t), atom, x, quad)
                for t in ts_j]
        kinds.append((f"main operator, cell {j}", ts_j, np.array(vals)))

    for label, ts, vals in kinds:
        curve = SampledCurve(ts, vals)
        yield label, curve, _pick_lambda(cfg, curve, rng)


def check(op: Op, report, built: list, rng) -> list:
    """Failure messages for one operation's output (empty when it passes)."""
    problems = []
    if isinstance(report, lab.IdentityReport):
        return [f"identity row failed: {name}" for name in report.failures()]
    home = built[0]
    if isinstance(report, lab.WeakTypeReport):
        expected = len(op.config.atom_centers) * len(op.config.atom_radii)
        if len(report.rows) != expected:
            problems.append(f"{len(report.rows)} sweep rows, expected {expected}")
        for row in report.rows:
            if not all(math.isfinite(v) and v >= 0.0
                       for v in (row.j_fine, row.j_coarse)):
                problems.append(f"sweep row r={row.atom_radius}: bad seminorm")
        pairs = _sweep_pairs(home, rng)
    else:
        for row in report.rows:
            if not (math.isfinite(row.ratio_fine) and math.isfinite(row.ratio_coarse)):
                problems.append(f"regime row {row.group}/{row.cell}: non-finite ratio")
        for group, info in sorted(report.spreads.items()):
            if not info["gated"]:
                continue
            vals = [r.ratio_fine for r in report.rows if r.group == group]
            lo, hi = min(vals), max(vals)
            if len(vals) > 1 and hi > 10.0 * lo:
                problems.append(f"gated group {group}: spread {hi / lo:.3g} > 10")
        pairs = _regime_pairs(home, rng)
    for label, curve, lam in pairs:
        fast = lab.jump_count(curve, lam)
        ref = lab.jump_count_dp(curve, lam)
        if fast != ref:
            problems.append(
                f"jump_count {fast} != jump_count_dp {ref} on {label} "
                f"({curve.n_samples} samples, lambda={lam!r})"
            )
    return problems
