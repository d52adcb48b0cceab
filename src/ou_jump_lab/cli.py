"""Command-line entry point.

Dispatch is deliberately thin: every subcommand builds an effective
``ExperimentConfig`` from (defaults <- config file <- --preset <- --set
overrides), echoes it into the output directory, and delegates to the
library.  Exit codes: 0 success, 1 invalid input/config, 2 numerical
failure (the failing identity or row is named on stderr).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from ._version import __version__
from .errors import OuJumpError, ValidationError
from .functionals import (
    SampledCurve,
    jump_count,
    lambda_grid,
    read_curves_csv,
    rho_variation,
    weak_jump_quasi_seminorm,
)
from .harness import (
    ExperimentConfig,
    _json_text,
    build_model,
    config_hash,
    monomial,
    run_identity_suite,
    run_regime_checks,
    run_weak_type_sweep,
)
from .kernels import (
    BOUND_IDS,
    BoundSampleSpec,
    certify_bound,
    ktilde,
    n_factor,
)
from .model import cov_qinf, mixing_time
from .semigroup import apply_semigroup_kernel, apply_semigroup_kolmogorov


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common(parser) -> None:
    parser.add_argument("--config", default=None, metavar="PATH",
                        help="JSON config file (flat ExperimentConfig keys)")
    parser.add_argument("--preset", default=None,
                        choices=("standard", "rotating2d"),
                        help="model preset (overrides the config file)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="dotted-path config override, value parsed as JSON "
                             "with plain-string fallback (repeatable)")
    parser.add_argument("--outdir", default="runs", metavar="DIR",
                        help="root directory for output artifacts")


def _parse_override(item: str):
    if "=" not in item:
        raise ValidationError(f"override must look like key=value, got {item!r}")
    key, raw = item.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def _apply_override(data: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = data
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ValidationError(f"cannot descend into {part!r} in {dotted!r}")
    node[parts[-1]] = value


def _load_config(args) -> ExperimentConfig:
    data: dict = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise ValidationError(f"config file not found: {path}")
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config file is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise ValidationError("config file must contain a JSON object")
    if args.preset is not None:
        data["preset"] = args.preset
        if args.preset == "rotating2d":
            data.setdefault("n", 2)
            data.setdefault("box", [[-6.0, 6.0], [-6.0, 6.0]])
    for item in args.overrides:
        key, value = _parse_override(item)
        _apply_override(data, key, value)
    return ExperimentConfig.from_dict(data)


def _run_dir(args, subcommand: str, digest: str) -> Path:
    path = Path(args.outdir) / f"{subcommand}-{digest}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _echo_config(outdir: Path, config: ExperimentConfig) -> None:
    payload = _json_text(config.to_json_dict())
    (outdir / "config.json").write_text(payload, encoding="utf-8")


def _invocation_digest(config: ExperimentConfig, extra: dict) -> str:
    payload = json.dumps({"config": config.to_json_dict(), **extra},
                         sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:12]


def _parse_vector(raw: str, n: int, name: str) -> np.ndarray:
    try:
        vec = np.array([float(v) for v in raw.split(",")], dtype=float)
    except ValueError:
        raise ValidationError(f"--{name} must be comma-separated floats, got {raw!r}")
    if vec.size != n:
        raise ValidationError(f"--{name} needs {n} component(s), got {vec.size}")
    return vec


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_model_info(args) -> int:
    config = _load_config(args)
    model = build_model(config)
    family = cov_qinf(model)
    digest = config_hash(config)
    info = {
        "version": __version__,
        "config_digest": digest,
        "n": model.n,
        "diffusion": model.diffusion.tolist(),
        "drift": model.drift.tolist(),
        "drift_eigenvalues": [repr(v) for v in np.linalg.eigvals(model.drift)],
        "mixing_time": mixing_time(model),
        "stationary_covariance": family.qinf.tolist(),
        "stationary_logdet": family.qinf_logdet,
    }
    outdir = _run_dir(args, "model-info", digest)
    _echo_config(outdir, config)
    (outdir / "model.json").write_text(_json_text(info), encoding="utf-8")
    print(f"model n={model.n} preset={config.preset} digest={digest}")
    print(f"mixing time      : {info['mixing_time']!r}")
    print(f"drift eigenvalues: {', '.join(info['drift_eigenvalues'])}")
    print(f"Q_inf            : {info['stationary_covariance']}")
    print(f"artifacts -> {outdir}")
    return 0


def _cmd_kernel_eval(args) -> int:
    config = _load_config(args)
    model = build_model(config)
    family = cov_qinf(model)
    x = _parse_vector(args.x, model.n, "x")
    u = _parse_vector(args.u, model.n, "u")
    result = ktilde(model, family, args.kappa, args.t, x, u)
    factor = n_factor(model, family, args.kappa, args.t, x, u)
    digest = _invocation_digest(
        config,
        {"kappa": args.kappa, "t": args.t, "x": x.tolist(), "u": u.tolist()},
    )
    outdir = _run_dir(args, "kernel-eval", digest)
    _echo_config(outdir, config)
    payload = {
        "version": __version__,
        "kappa": args.kappa,
        "t": args.t,
        "x": x.tolist(),
        "u": u.tolist(),
        "log_value": result.log_value,
        "value": result.value,
        "n_factor": factor,
    }
    (outdir / "kernel.json").write_text(_json_text(payload), encoding="utf-8")
    print(f"log K~({args.kappa}) = {result.log_value!r}")
    print(f"K~({args.kappa})     = {result.value!r}")
    print(f"N^({args.kappa})     = {factor!r}")
    print(f"artifacts -> {outdir}")
    return 0


def _cmd_certify(args) -> int:
    config = _load_config(args)
    model = build_model(config)
    family = cov_qinf(model)
    bound_ids = BOUND_IDS if args.bound == "all" else (args.bound,)
    digest = _invocation_digest(
        config,
        {
            "bounds": list(bound_ids),
            "cell_center": args.cell_center,
            "t_count": args.t_count,
            "pair_count": args.pair_count,
        },
    )
    try:
        raw_center = [float(v) for v in str(args.cell_center).split(",")]
    except ValueError:
        raise ValidationError(
            f"--cell-center must be comma-separated floats, got {args.cell_center!r}"
        )
    if len(raw_center) > model.n:
        raise ValidationError(
            f"--cell-center has {len(raw_center)} components but n={model.n}"
        )
    cell_center = tuple(raw_center + [0.0] * (model.n - len(raw_center)))
    outdir = _run_dir(args, "certify", digest)
    _echo_config(outdir, config)
    summary = {"version": __version__, "bounds": {}}
    for bound_id in bound_ids:
        spec = BoundSampleSpec(
            seed=config.seed,
            t_count=args.t_count,
            pair_count=args.pair_count,
            cell_center=None if bound_id.startswith("litet") else cell_center,
        )
        report = certify_bound(model, family, bound_id, spec)
        report.write_csv(outdir / f"{bound_id}.csv")
        summary["bounds"][bound_id] = {
            "C": report.fitted_C,
            "c": report.fitted_c,
            "n_samples": report.sample_count,
        }
        print(f"[OK] {bound_id}: C={report.fitted_C!r} c={report.fitted_c!r} "
              f"({report.sample_count} samples)")
    (outdir / "certify.json").write_text(_json_text(summary), encoding="utf-8")
    print(f"artifacts -> {outdir}")
    return 0


def _cmd_semigroup_eval(args) -> int:
    config = _load_config(args)
    model = build_model(config)
    family = cov_qinf(model)
    try:
        powers = tuple(int(p) for p in args.powers.split(","))
    except ValueError:
        raise ValidationError(
            f"--powers must be comma-separated whole numbers, got {args.powers!r}"
        )
    if len(powers) != model.n:
        raise ValidationError(
            f"--powers needs {model.n} exponent(s), got {len(powers)}"
        )
    x = _parse_vector(args.x, model.n, "x")
    f = monomial(powers)
    quad = config.quad()
    values = {}
    if args.route in ("kernel", "both"):
        values["kernel"] = apply_semigroup_kernel(
            model, family, args.t, f, x, quad
        )
    if args.route in ("kolmogorov", "both"):
        values["kolmogorov"] = apply_semigroup_kolmogorov(
            model, family, args.t, f, x, quad
        )
    digest = _invocation_digest(
        config,
        {"t": args.t, "x": x.tolist(), "powers": list(powers), "route": args.route},
    )
    outdir = _run_dir(args, "semigroup-eval", digest)
    _echo_config(outdir, config)
    payload = {
        "version": __version__,
        "t": args.t,
        "x": x.tolist(),
        "powers": list(powers),
        **values,
    }
    if len(values) == 2:
        payload["route_gap"] = abs(values["kernel"] - values["kolmogorov"])
    (outdir / "semigroup.json").write_text(_json_text(payload), encoding="utf-8")
    for route, val in values.items():
        print(f"H_t f via {route:<10}: {val!r}")
    if "route_gap" in payload:
        print(f"route gap           : {payload['route_gap']:.3e}")
    print(f"artifacts -> {outdir}")
    return 0


def _cmd_functionals(args) -> int:
    config = _load_config(args)
    path = Path(args.curves)
    if not path.is_file():
        raise ValidationError(f"curves file not found: {path}")
    curves = read_curves_csv(path)
    if not curves:
        raise ValidationError(f"no curves found in {path}")
    names = sorted(curves)
    curve_list = [curves[k] for k in names]
    weights = np.full(len(curve_list), 1.0 / len(curve_list))
    lambdas = (np.array([args.lam]) if args.lam is not None
               else lambda_grid(curve_list, config.lambda_points,
                                config.lambda_span))
    digest = _invocation_digest(
        config,
        {"curves": names, "rho": args.rho, "lam": args.lam},
    )
    outdir = _run_dir(args, "functionals", digest)
    _echo_config(outdir, config)
    per_curve = {}
    for name, curve in zip(names, curve_list):
        var = rho_variation(curve, args.rho)
        entry = {"n_samples": curve.n_samples, "variation": var.value}
        if args.lam is not None:
            entry["jump_count"] = jump_count(curve, args.lam)
        per_curve[name] = entry
        counts = f" N_lambda={entry['jump_count']}" if args.lam is not None else ""
        print(f"{name}: v({args.rho:g})={var.value!r}{counts}")
    estimate = weak_jump_quasi_seminorm(curve_list, weights, args.rho, lambdas)
    print(f"weak jump seminorm (rho={args.rho:g}): {estimate.value!r} "
          f"at lambda={estimate.argmax_lambda!r}")
    payload = {
        "version": __version__,
        "rho": args.rho,
        "per_curve": per_curve,
        "weak_seminorm": estimate.to_json_dict(),
    }
    (outdir / "functionals.json").write_text(_json_text(payload), encoding="utf-8")
    print(f"artifacts -> {outdir}")
    return 0


def _cmd_weak_type(args) -> int:
    config = _load_config(args)
    digest = config_hash(config)
    outdir = _run_dir(args, "weak-type", digest)
    config = replace(config, output_dir=str(outdir))
    report = run_weak_type_sweep(config)
    for row in report.rows:
        flag = "ok " if row.converged else "DIV"
        print(f"[{flag}] atom r={row.atom_radius:<8g} J={row.j_fine!r} "
              f"rel_change={row.rel_change:.2e}")
    slope = report.summary["slope_log_ratio_vs_log_radius"]
    print(f"log-log slope (center 0): {slope!r}")
    print(f"all converged: {report.summary['all_converged']}")
    print(f"artifacts -> {outdir}")
    return 0


def _cmd_regimes(args) -> int:
    config = _load_config(args)
    digest = config_hash(config)
    outdir = _run_dir(args, "regimes", digest)
    _echo_config(outdir, config)
    config = replace(config, output_dir=str(outdir))
    report = run_regime_checks(config)
    for group, stats in sorted(report.spreads.items()):
        flag = "ok " if stats["within_factor_10"] else "BAD"
        print(f"[{flag}] {group}: spread x{stats['spread']:.3g} "
              f"(min {stats['min']:.3e}, max {stats['max']:.3e})")
    print(f"all within spread: {report.all_within_spread}")
    print(f"all converged    : {report.all_converged}")
    print(f"artifacts -> {outdir}")
    return 0


def _cmd_identities(args) -> int:
    config = _load_config(args)
    digest = config_hash(config)
    outdir = _run_dir(args, "identities", digest)
    _echo_config(outdir, config)
    report = run_identity_suite(config)
    for line in report.lines():
        print(line)
    report.write(outdir)
    print(f"artifacts -> {outdir}")
    report.require_pass()
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="ou-jump-lab",
                     description="jump/variation experiments for "
                                 "Ornstein-Uhlenbeck semigroups")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND",
                                parser_class=_Parser)

    p = sub.add_parser("model-info", help="print and store model diagnostics")
    _add_common(p)
    p.set_defaults(func=_cmd_model_info)

    p = sub.add_parser("kernel-eval", help="evaluate a smoothing kernel at "
                                           "one (kappa, t, x, u)")
    _add_common(p)
    p.add_argument("--kappa", type=int, default=0, choices=(0, 1, 2, 3))
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x", default="0.0", help="comma-separated coordinates")
    p.add_argument("--u", default="0.0", help="comma-separated coordinates")
    p.set_defaults(func=_cmd_kernel_eval)

    p = sub.add_parser("certify", help="fit Gaussian-envelope bound constants")
    _add_common(p)
    p.add_argument("--bound", default="all", choices=BOUND_IDS + ("all",))
    p.add_argument("--cell-center", default="2.0",
                   help="cell center for the cell-local bounds "
                        "(comma-separated, zero-padded to n)")
    p.add_argument("--t-count", type=int, default=48)
    p.add_argument("--pair-count", type=int, default=256)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("semigroup-eval", help="evaluate H_t f through one or "
                                              "both integration routes")
    _add_common(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--x", default="0.0", help="comma-separated coordinates")
    p.add_argument("--powers", default="2",
                   help="monomial exponents, comma-separated, one per axis")
    p.add_argument("--route", default="both",
                   choices=("kernel", "kolmogorov", "both"))
    p.set_defaults(func=_cmd_semigroup_eval)

    p = sub.add_parser("functionals", help="jump counts and variation "
                                           "seminorms of stored curves")
    _add_common(p)
    p.add_argument("--curves", required=True, metavar="PATH",
                   help="long-format curves CSV (curve_id,t,value)")
    p.add_argument("--rho", type=float, default=2.0)
    p.add_argument("--lam", type=float, default=None,
                   help="single jump threshold (default: automatic grid)")
    p.set_defaults(func=_cmd_functionals)

    p = sub.add_parser("weak-type", help="atom-radius weak-type sweep")
    _add_common(p)
    p.set_defaults(func=_cmd_weak_type)

    p = sub.add_parser("regimes", help="per-regime uniformity proxies")
    _add_common(p)
    p.set_defaults(func=_cmd_regimes)

    p = sub.add_parser("identities", help="machine-precision identity suite "
                                          "(exit 2 on any failure)")
    _add_common(p)
    p.set_defaults(func=_cmd_identities)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if getattr(args, "subcommand", None) is None:
        parser.print_usage(sys.stderr)
        print("ou-jump-lab: error: a subcommand is required", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except OuJumpError as exc:
        print(f"ou-jump-lab: error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
