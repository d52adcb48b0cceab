"""Command-line surface: exit codes, artifact layout, config plumbing."""

import json

import numpy as np
import pytest

from ou_jump_lab import SampledCurve, write_curves_csv
from ou_jump_lab.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _only_run_dir(outdir, subcommand):
    dirs = [p for p in outdir.iterdir() if p.name.startswith(subcommand + "-")]
    assert len(dirs) == 1, dirs
    return dirs[0]


def test_no_subcommand_is_usage_error(capsys, tmp_path):
    code, _, err = _run(capsys)
    assert code == 1
    assert "subcommand is required" in err


def test_model_info(capsys, tmp_path):
    code, out, _ = _run(
        capsys, "model-info", "--preset", "standard", "--outdir", str(tmp_path)
    )
    assert code == 0
    assert "mixing time" in out
    rundir = _only_run_dir(tmp_path, "model-info")
    cfg = json.loads((rundir / "config.json").read_text(encoding="utf-8"))
    assert cfg["preset"] == "standard"
    assert "output_dir" not in cfg
    info = json.loads((rundir / "model.json").read_text(encoding="utf-8"))
    assert info["n"] == 1
    assert info["stationary_covariance"] == [[0.5]]


def test_kernel_eval(capsys, tmp_path):
    code, out, _ = _run(
        capsys, "kernel-eval", "--preset", "standard",
        "--t", "0.3", "--x", "1.0", "--u", "0.5", "--outdir", str(tmp_path),
    )
    assert code == 0
    assert "log K~(0)" in out and "N^(0)" in out
    rundir = _only_run_dir(tmp_path, "kernel-eval")
    payload = json.loads((rundir / "kernel.json").read_text(encoding="utf-8"))
    assert payload["t"] == 0.3
    assert np.isfinite(payload["log_value"])
    assert payload["value"] == pytest.approx(np.exp(payload["log_value"]))


def test_kernel_eval_missing_required_flag(capsys, tmp_path):
    code, _, err = _run(
        capsys, "kernel-eval", "--preset", "standard", "--outdir", str(tmp_path)
    )
    assert code == 1
    assert "--t" in err


def test_kernel_eval_numerical_failure_is_exit_2(capsys, tmp_path):
    code, _, err = _run(
        capsys, "kernel-eval", "--preset", "standard",
        "--t", "2000", "--outdir", str(tmp_path),
    )
    assert code == 2
    assert "clamp" in err


def test_semigroup_eval_both_routes(capsys, tmp_path):
    code, out, _ = _run(
        capsys, "semigroup-eval", "--preset", "standard",
        "--t", "1.0", "--x", "0.8", "--powers", "2",
        "--outdir", str(tmp_path),
    )
    assert code == 0
    assert "route gap" in out
    rundir = _only_run_dir(tmp_path, "semigroup-eval")
    payload = json.loads((rundir / "semigroup.json").read_text(encoding="utf-8"))
    assert payload["route_gap"] < 1e-8
    # closed form: (e^-1 * 0.8)^2 + (1 - e^-2)/2
    expected = (np.exp(-1.0) * 0.8) ** 2 + (1.0 - np.exp(-2.0)) / 2.0
    assert payload["kolmogorov"] == pytest.approx(expected, rel=1e-12)


def test_semigroup_eval_bad_powers_leave_no_artifacts(capsys, tmp_path):
    outdir = tmp_path / "runs"
    for powers in ("-1", "0.5"):
        code, _, err = _run(
            capsys, "semigroup-eval", "--preset", "standard", "--t", "1.0",
            "--x", "0.8", "--powers", powers, "--outdir", str(outdir),
        )
        assert code == 1, powers
        assert "whole numbers" in err
    assert not outdir.exists() or not any(outdir.iterdir())


def test_certify_subcommand(capsys, tmp_path):
    code, out, _ = _run(
        capsys, "certify", "--preset", "standard", "--bound", "litet_upper",
        "--t-count", "8", "--pair-count", "16", "--outdir", str(tmp_path),
    )
    assert code == 0
    assert "[OK] litet_upper" in out
    rundir = _only_run_dir(tmp_path, "certify")
    assert (rundir / "litet_upper.csv").is_file()
    summary = json.loads((rundir / "certify.json").read_text(encoding="utf-8"))
    assert summary["bounds"]["litet_upper"]["C"] > 0.0


def test_certify_empty_region_is_exit_1(capsys, tmp_path):
    code, _, err = _run(
        capsys, "certify", "--preset", "standard", "--bound", "lemma82",
        "--cell-center", "200.0", "--t-count", "8", "--pair-count", "16",
        "--outdir", str(tmp_path),
    )
    assert code == 1
    assert "error" in err


def test_certify_bad_cell_center_leaves_no_artifacts(capsys, tmp_path):
    outdir = tmp_path / "runs"
    code, _, err = _run(
        capsys, "certify", "--preset", "standard", "--cell-center", "abc",
        "--outdir", str(outdir),
    )
    assert code == 1
    assert "--cell-center" in err
    assert not outdir.exists() or not any(outdir.iterdir())


def test_functionals_subcommand(capsys, tmp_path):
    curves_path = tmp_path / "curves.csv"
    zigzag = SampledCurve(
        np.arange(1.0, 6.0), np.array([0.0, 2.0, 0.0, 2.0, 0.0])
    )
    flat = SampledCurve(np.arange(1.0, 4.0), np.array([1.0, 1.0, 1.0]))
    write_curves_csv(curves_path, [zigzag, flat], ids=["zig", "flat"])
    code, out, _ = _run(
        capsys, "functionals", "--curves", str(curves_path),
        "--rho", "2.0", "--lam", "1.0", "--outdir", str(tmp_path),
    )
    assert code == 0
    assert "N_lambda=5" in out
    assert "weak jump seminorm" in out
    rundir = _only_run_dir(tmp_path, "functionals")
    payload = json.loads((rundir / "functionals.json").read_text(encoding="utf-8"))
    assert payload["per_curve"]["zig"]["jump_count"] == 5
    assert payload["per_curve"]["flat"]["variation"] == 0.0


def test_functionals_missing_file(capsys, tmp_path):
    code, _, err = _run(
        capsys, "functionals", "--curves", str(tmp_path / "nope.csv"),
        "--outdir", str(tmp_path),
    )
    assert code == 1
    assert "not found" in err


def test_unknown_config_key_is_exit_1(capsys, tmp_path):
    code, _, err = _run(
        capsys, "model-info", "--set", "sede=7", "--outdir", str(tmp_path)
    )
    assert code == 1
    assert "unknown config keys" in err


def test_bad_config_value_is_exit_1_without_artifacts(capsys, tmp_path):
    # rejected when the config is built, before any subcommand does work
    outdir = tmp_path / "runs"
    code, _, err = _run(
        capsys, "model-info", "--set", "ladder_factors=[0]", "--outdir", str(outdir)
    )
    assert code == 1
    assert "ladder_factors" in err
    assert not outdir.exists() or not any(outdir.iterdir())


@pytest.mark.parametrize("override", [
    'lambda_span="abc"', 't_min="x"', 'rho="2"', 'convergence_rtol="a"',
    'atom_centers=[0,"a"]', "lambda_points=1.5",
])
def test_wrong_type_override_is_exit_1_without_artifacts(capsys, tmp_path, override):
    outdir = tmp_path / "runs"
    code, _, err = _run(
        capsys, "weak-type", "--set", override, "--outdir", str(outdir)
    )
    assert code == 1
    assert override.split("=")[0] in err
    assert not outdir.exists() or not any(outdir.iterdir())


def test_config_file_and_override(capsys, tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"seed": 11, "omega": 2.0}), encoding="utf-8")
    code, out, _ = _run(
        capsys, "model-info", "--config", str(cfg_path),
        "--set", "seed=12", "--outdir", str(tmp_path),
    )
    assert code == 0
    rundir = _only_run_dir(tmp_path, "model-info")
    echoed = json.loads((rundir / "config.json").read_text(encoding="utf-8"))
    assert echoed["seed"] == 12       # override wins over the file
    assert echoed["omega"] == 2.0     # file value survives


def test_identities_subcommand(capsys, tmp_path):
    code, out, _ = _run(
        capsys, "identities", "--preset", "standard", "--outdir", str(tmp_path)
    )
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out
    rundir = _only_run_dir(tmp_path, "identities")
    payload = json.loads((rundir / "identities.json").read_text(encoding="utf-8"))
    assert payload["all_pass"] is True


def test_weak_type_subcommand(capsys, tmp_path):
    code, out, _ = _run(
        capsys, "weak-type", "--preset", "standard",
        "--set", "atom_radii=[0.5]", "--set", "points_per_decade=64",
        "--set", "backbone_points=9", "--outdir", str(tmp_path),
    )
    assert code == 0
    assert "log-log slope" in out
    assert "all converged: True" in out
    rundir = _only_run_dir(tmp_path, "weak-type")
    for name in ("config.json", "rows.csv", "summary.json"):
        assert (rundir / name).is_file(), name


def test_regimes_subcommand(capsys, tmp_path):
    code, out, _ = _run(
        capsys, "regimes", "--preset", "standard",
        "--set", "regime_points_per_decade=48", "--set", "quad_order=32",
        "--outdir", str(tmp_path),
    )
    assert code == 0
    assert "all within spread: True" in out
    rundir = _only_run_dir(tmp_path, "regimes")
    for name in ("config.json", "regime_rows.csv", "regime_summary.json"):
        assert (rundir / name).is_file(), name


def test_version_flag(capsys, tmp_path):
    code, _, _ = _run(capsys, "--version")
    assert code == 0
