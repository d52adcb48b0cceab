"""Semigroup layer: quadrature routes, localization geometry, split operators.

Closed-form Gaussian moments pin the Kolmogorov route; the kernel route is
held to it.  The localization scheme's geometric invariants (disjointness,
maximality audit, partition of unity, plateau shape) are checked directly
from the returned arrays, and the split operators must telescope back to the
plain semigroup on shared nodes.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from ou_jump_lab import (
    BadKappa,
    BoxTooSmall,
    ExperimentConfig,
    NumericalError,
    OutOfBox,
    QuadratureNonConvergent,
    QuadratureSpec,
    TimeNonPositive,
    TimeOutOfRegime,
    ValidationError,
    apply_global,
    apply_local,
    apply_semigroup_kernel,
    apply_semigroup_kolmogorov,
    build_localization,
    cov_qinf,
    cov_qt,
    delta_op,
    eta,
    expect_invariant,
    main_op,
    main_op_convolution,
    matrix_exp,
    preset_rotating2d,
    preset_standard,
)
from ou_jump_lab import semigroup
from ou_jump_lab.harness import _smooth_atom
from ou_jump_lab.kernels import _log_kernel_values
from ou_jump_lab.model import GaussianMeasure, invariant_measure, quadratic_R
from ou_jump_lab.semigroup import _adaptive_integral, _kernel_gap, _node_system

GAUSS = QuadratureSpec()
ADAPTIVE = QuadratureSpec(scheme="adaptive")


def _standard():
    model = preset_standard()
    return model, cov_qinf(model)


def _rotating():
    model = preset_rotating2d()
    return model, cov_qinf(model)


# ---------------------------------------------------------------------------
# quadrature spec and invariant expectations
# ---------------------------------------------------------------------------

def test_quadrature_spec_validation():
    with pytest.raises(ValidationError):
        QuadratureSpec(scheme="monte_carlo")
    with pytest.raises(ValidationError):
        QuadratureSpec(order=4)
    with pytest.raises(ValidationError):
        QuadratureSpec(domain_cutoff=3.0)


def test_expect_invariant_second_moment():
    model, family = _standard()
    got = expect_invariant(model, family, lambda p: p[:, 0] ** 2, GAUSS)
    assert abs(got - 0.5) < 1e-13
    got_adaptive = expect_invariant(model, family, lambda p: p[:, 0] ** 2, ADAPTIVE)
    assert abs(got_adaptive - 0.5) < 1e-10


def test_expect_invariant_2d():
    model, family = _rotating()
    got = expect_invariant(
        model, family, lambda p: p[:, 0] ** 2 + p[:, 1] ** 2, GAUSS
    )
    assert abs(got - 1.0) < 1e-12
    got_adaptive = expect_invariant(
        model, family, lambda p: p[:, 0] ** 2 + p[:, 1] ** 2, ADAPTIVE
    )
    assert abs(got_adaptive - np.trace(family.qinf)) <= 1e-10


# ---------------------------------------------------------------------------
# the two semigroup routes
# ---------------------------------------------------------------------------

def test_kolmogorov_route_matches_gaussian_moments():
    """E[f(e^{tB}x + Z)] with Z ~ N(0, Q_t) has closed moments for monomials."""
    model, family = _standard()
    x = np.array([0.8])
    for t in (0.1, 1.0, 5.0):
        m = math.exp(-t) * 0.8
        s2 = float(cov_qt(model, t)[0, 0])
        cases = {
            1: m,
            2: m * m + s2,
            4: m ** 4 + 6.0 * m * m * s2 + 3.0 * s2 * s2,
        }
        for deg, expected in cases.items():
            got = apply_semigroup_kolmogorov(
                model, family, t, lambda p, d=deg: p[:, 0] ** d, x, GAUSS
            )
            assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected)), (t, deg)


def test_kolmogorov_route_2d_mean():
    model, family = _rotating()
    x = np.array([1.0, -0.5])
    t = 0.7
    mean = matrix_exp(t * model.drift) @ x
    for i in (0, 1):
        got = apply_semigroup_kolmogorov(
            model, family, t, lambda p, i=i: p[:, i], x, GAUSS
        )
        assert abs(got - mean[i]) < 1e-13


def test_kernel_route_agrees_with_kolmogorov():
    """Both presets, early and late times (the node-system branch flips)."""
    for model, family in (_standard(), _rotating()):
        x = np.full(model.n, 0.6)

        def f(p):
            return 1.0 + p[:, 0] + p[:, 0] ** 2 * (1.0 + p[:, -1])

        for t in (0.1, 1.0, 5.0):
            a = apply_semigroup_kolmogorov(model, family, t, f, x, GAUSS)
            b = apply_semigroup_kernel(model, family, t, f, x, GAUSS)
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a)), (model.n, t)


def test_conservativity_is_exact():
    """Renormalized weights integrate constants with zero quadrature error."""
    model, family = _standard()
    ones = lambda p: np.ones(p.shape[0])
    for t in (0.05, 1.0, 5.0):
        assert apply_semigroup_kolmogorov(model, family, t, ones, np.zeros(1), GAUSS) == 1.0
        val = apply_semigroup_kernel(model, family, t, ones, np.array([1.3]), GAUSS)
        assert abs(val - 1.0) < 1e-9


def test_invariance_of_equilibrium_mean():
    """Integrating P_t f against the invariant measure returns E[f]."""
    model, family = _rotating()

    def f(p):
        return p[:, 0] ** 2 + 0.3 * p[:, 1]

    base = expect_invariant(model, family, f, GAUSS)
    for t in (0.2, 2.0):
        val = expect_invariant(
            model,
            family,
            lambda pts: np.array(
                [
                    apply_semigroup_kernel(model, family, t, f, pt, GAUSS)
                    for pt in pts
                ]
            ),
            QuadratureSpec(order=16),
        )
        assert abs(val - base) <= 1e-6 * max(1.0, abs(base)), t


def test_adaptive_route_agrees_on_smooth_function():
    model, family = _standard()
    f = lambda p: np.cos(p[:, 0])
    a = apply_semigroup_kernel(model, family, 0.4, f, np.array([0.5]), GAUSS)
    b = apply_semigroup_kernel(model, family, 0.4, f, np.array([0.5]), ADAPTIVE)
    assert abs(a - b) < 1e-9


def test_time_validation():
    model, family = _standard()
    with pytest.raises(TimeNonPositive):
        apply_semigroup_kernel(model, family, 0.0, lambda p: p[:, 0], np.zeros(1), GAUSS)
    with pytest.raises(ValidationError):
        apply_semigroup_kolmogorov(
            model, family, 1.0, lambda p: p[:, 0], np.zeros(2), GAUSS
        )


# ---------------------------------------------------------------------------
# localization geometry
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def scheme_1d():
    model, family = _standard()
    return build_localization(model, family, [(-4.0, 4.0)])


@pytest.fixture(scope="module")
def scheme_2d():
    model, family = _rotating()
    return build_localization(model, family, [(-2.0, 2.0), (-2.0, 2.0)])


def test_localization_first_cell_is_unit_ball(scheme_1d, scheme_2d):
    for scheme in (scheme_1d, scheme_2d):
        assert np.all(scheme.centers[0] == 0.0)
        assert scheme.radii[0] == 1.0


def test_localization_radius_law(scheme_1d, scheme_2d):
    for scheme in (scheme_1d, scheme_2d):
        norms = np.linalg.norm(scheme.centers, axis=1)
        assert np.allclose(scheme.radii, 1.0 / (1.0 + norms), rtol=0, atol=0)


def test_localization_balls_disjoint(scheme_1d, scheme_2d):
    for scheme in (scheme_1d, scheme_2d):
        c, r = scheme.centers, scheme.radii
        d = np.linalg.norm(c[:, None, :] - c[None, :, :], axis=2)
        need = r[:, None] + r[None, :]
        np.fill_diagonal(d, np.inf)
        assert np.all(d >= need - 1e-12)


def test_localization_audit_flags(scheme_1d, scheme_2d):
    for scheme in (scheme_1d, scheme_2d):
        assert scheme.lattice_covered
        assert scheme.max_overlap_6b >= 1
        assert scheme.n_cells == scheme.centers.shape[0] > 1


def test_localization_box_validation():
    model, family = _standard()
    with pytest.raises(BoxTooSmall):
        build_localization(model, family, [(-0.5, 0.5)])
    with pytest.raises(ValidationError):
        build_localization(model, family, [(2.0, -2.0)])
    with pytest.raises(ValidationError):
        build_localization(model, family, [(-4.0, 4.0)], lattice_step=0.5)


def test_partition_of_unity(scheme_1d, scheme_2d):
    pts_1d = np.linspace(-3.7, 3.7, 41)[:, None]
    rng = np.random.default_rng(3)
    pts_2d = rng.uniform(-1.6, 1.6, (40, 2))
    for scheme, pts in ((scheme_1d, pts_1d), (scheme_2d, pts_2d)):
        assert scheme.interior_mask(pts).all()
        w = scheme.r_weights(pts)
        assert np.all(w >= 0.0)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)


def test_partition_member_support(scheme_1d):
    c = float(scheme_1d.centers[3, 0])
    r = float(scheme_1d.radii[3])
    inside = np.array([[c], [c + 3.9 * r]])
    outside = np.array([[c + 4.0 * r], [c + 17.0 * r]])
    assert np.all(scheme_1d.r_j(3, inside) > 0.0)
    assert np.all(scheme_1d.r_j(3, outside) == 0.0)


def test_plateau_shape(scheme_1d):
    r = float(scheme_1d.radii[0])
    dists = np.array([0.0, 4.9, 5.0]) * r
    assert np.all(scheme_1d.rt_j(0, dists[:, None]) == 1.0)
    mid = scheme_1d.rt_j(0, np.array([[5.5 * r]]))[0]
    assert 0.0 < mid < 1.0
    assert scheme_1d.rt_j(0, np.array([[6.0 * r]]))[0] == 0.0


def test_rt_all_matches_rt_at(scheme_1d, scheme_2d):
    """The plateau table of a batch equals the per-cell scalar at each point,
    bit for bit (elementwise arithmetic only), on the box edges, inside the
    box and beyond every cell's 6x support."""
    rng = np.random.default_rng(7)
    checked = 0
    for scheme in (scheme_1d, scheme_2d):
        lo, hi = scheme.box[:, 0], scheme.box[:, 1]
        reach = 6.0 * float(scheme.radii.max()) + 1.0
        edges = np.array([[a if bit else b for a, b, bit in zip(lo, hi, bits)]
                          for bits in np.ndindex(*(2,) * scheme.dim)])
        far = np.array([lo - reach, hi + reach])
        pts = np.concatenate([edges, far, rng.uniform(lo, hi, (600, scheme.dim))])
        table = scheme.rt_all(pts)
        assert table.shape == (pts.shape[0], scheme.n_cells)
        for x, row in zip(pts, table):
            want = np.array([scheme.rt_at(j, x) for j in range(scheme.n_cells)])
            assert np.array_equal(row, want), x
            checked += 1
        assert not table[len(edges):len(edges) + 2].any()
        assert table[0].any()
    assert checked >= 1000


def test_node_system_rows_match_single_rows_2d():
    """A multi-row call gives each row what a one-row call gives it, on both
    branches (recentred up to t ~ 0.32, invariant beyond)."""
    model, family = _rotating()
    xs = np.random.default_rng(8).uniform(-2.0, 2.0, (5, 2))
    for t, recentred in ((1e-3, True), (0.1, True), (1.0, False), (5.0, False)):
        nodes, weights, adj = _node_system(model, family, t, xs, GAUSS)
        assert nodes.shape[:2] == adj.shape == (5, weights.size)
        assert bool(np.any(adj != 0.0)) == recentred
        for i, x in enumerate(xs):
            one = _node_system(model, family, t, x[None, :], GAUSS)
            assert np.array_equal(one[0][0], nodes[i])
            assert np.array_equal(one[1], weights)
            # adj goes through LAPACK solves whose rounding may depend on
            # the number of right-hand sides
            np.testing.assert_allclose(one[2][0], adj[i], rtol=1e-12, atol=1e-12)


def test_eta_diagonal_and_range(scheme_1d):
    xs = np.linspace(-3.5, 3.5, 15)
    for x in xs:
        assert abs(eta(scheme_1d, [x], [x]) - 1.0) < 1e-12
    rng = np.random.default_rng(4)
    us = rng.uniform(-3.9, 3.9, (50, 1))
    vals = eta(scheme_1d, [0.5], us)
    assert np.all((vals >= 0.0) & (vals <= 1.0 + 1e-15))
    # no cell's plateau at -3.5 overlaps a cell whose bump reaches 4.0
    assert eta(scheme_1d, [-3.5], [4.0]) == 0.0


def test_eta_box_validation(scheme_1d):
    with pytest.raises(OutOfBox):
        eta(scheme_1d, [5.0], [0.0])
    with pytest.raises(OutOfBox):
        eta(scheme_1d, [0.0], [4.5])


def test_cell_time_cap(scheme_1d):
    assert scheme_1d.cell_time_cap(0) == 1.0
    for j in range(scheme_1d.n_cells):
        norm_c = float(np.linalg.norm(scheme_1d.centers[j]))
        expected = min(1.0, 1.0 / norm_c ** 2) if norm_c > 0 else 1.0
        assert scheme_1d.cell_time_cap(j) == expected


def test_localization_csv(tmp_path, scheme_1d):
    path = tmp_path / "cells.csv"
    scheme_1d.write_csv(path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == scheme_1d.CSV_HEADER
    assert len(lines) == scheme_1d.n_cells + 1


# ---------------------------------------------------------------------------
# split operators
# ---------------------------------------------------------------------------

def _bump_payload(center, width):
    def f(pts):
        d = np.linalg.norm(np.atleast_2d(pts) - np.asarray(center)[None, :], axis=1)
        s = d / width
        out = np.zeros(s.shape)
        mask = s < 1.0
        out[mask] = np.exp(-1.0 / (1.0 - s[mask] ** 2))
        return out

    return f


def test_split_telescopes_to_semigroup(scheme_1d):
    """sum_kappa Delta^kappa + M = plateau * (semigroup of f r_j), exactly
    on the shared node system."""
    model, family = _standard()
    f = _bump_payload([0.3], 1.5)
    for j, t, x in ((0, 0.3, np.array([0.2])), (3, None, None)):
        if t is None:
            c = float(scheme_1d.centers[j, 0])
            t = 0.5 * scheme_1d.cell_time_cap(j)
            x = np.array([c + 0.1 * scheme_1d.radii[j]])
        total = sum(
            delta_op(model, family, scheme_1d, kappa, j, t, f, x, GAUSS)
            for kappa in (1, 2, 3)
        )
        total += main_op(model, family, scheme_1d, j, t, f, x, GAUSS)
        g = lambda pts: f(pts) * scheme_1d.r_j(j, pts)
        direct = scheme_1d.rt_at(j, x) * apply_semigroup_kernel(
            model, family, t, g, x, GAUSS
        )
        assert abs(total - direct) <= 1e-12 * max(1.0, abs(direct)), j


def test_split_telescopes_adaptive(scheme_1d):
    model, family = _standard()
    f = _bump_payload([0.3], 1.5)
    j, t, x = 0, 0.3, np.array([0.2])
    total = sum(
        delta_op(model, family, scheme_1d, kappa, j, t, f, x, ADAPTIVE)
        for kappa in (1, 2, 3)
    )
    total += main_op(model, family, scheme_1d, j, t, f, x, ADAPTIVE)
    g = lambda pts: f(pts) * scheme_1d.r_j(j, pts)
    direct = scheme_1d.rt_at(j, x) * apply_semigroup_kernel(
        model, family, t, g, x, ADAPTIVE
    )
    assert abs(total - direct) <= 1e-8 * max(1.0, abs(direct))


def test_main_op_convolution_agrees(scheme_1d):
    """Two algebraically different forms of the same operator."""
    model, family = _standard()
    f = _bump_payload([0.0], 1.2)
    j, t, x = 0, 0.4, np.array([0.3])
    a = main_op(model, family, scheme_1d, j, t, f, x, ADAPTIVE)
    b = main_op_convolution(model, family, scheme_1d, j, t, f, x, ADAPTIVE)
    assert abs(a - b) <= 1e-8 * max(1.0, abs(a))
    assert abs(a) > 1e-4  # the check must not pass vacuously


def _cell_ops(model, family, scheme, j, t, f, x):
    ops = {
        kappa: delta_op(model, family, scheme, kappa, j, t, f, x, ADAPTIVE)
        for kappa in (1, 2, 3)
    }
    ops["main"] = main_op(model, family, scheme, j, t, f, x, ADAPTIVE)
    ops["conv"] = main_op_convolution(model, family, scheme, j, t, f, x, ADAPTIVE)
    return ops


def test_adaptive_cell_integrands_skip_zeros_of_f(monkeypatch):
    """The adaptive cell integrands only do kernel work where f is nonzero,
    and give exactly the value of the integrand evaluated everywhere on the
    cell's support box."""
    model, family = _standard()
    config = ExperimentConfig()
    scheme = build_localization(model, family, config.box, config.lattice_step)
    j = int(np.argmin(np.abs(np.linalg.norm(scheme.centers, axis=1) - 2.0)))
    center, radius = scheme.centers[j], float(scheme.radii[j])
    f = _smooth_atom(family, center, 0.5 * radius)
    x = center + 0.25 * radius
    t = 0.5 * scheme.cell_time_cap(j)
    rt = scheme.rt_at(j, x)
    gamma = invariant_measure(family)
    gauss = GaussianMeasure(x, t * model.diffusion)
    rx = quadratic_R(family, x)
    box = (center - 4.0 * radius, center + 4.0 * radius)
    seen = []

    def everywhere(body):
        def integrand(pts):
            g = f(pts) * scheme.r_j(j, pts)
            seen.append(g)
            return body(pts, g)

        return rt * _adaptive_integral(model, integrand, box)

    def delta_body(kappa):
        def body(pts, g):
            # the kernel gap overflows far off the support, so this one
            # reference keeps the f r_j != 0 mask it always had
            out = np.zeros(g.shape)
            live = g != 0.0
            xb = np.broadcast_to(x, pts[live].shape)
            a_prev = _log_kernel_values(model, family, kappa - 1, t, xb, pts[live])
            a_cur = _log_kernel_values(model, family, kappa, t, xb, pts[live])
            out[live] = _kernel_gap(a_prev, a_cur) * g[live] * np.exp(
                gamma.logpdf(pts[live])
            )
            return out

        return body

    def main_body(pts, g):
        xb = np.broadcast_to(x, pts.shape)
        a3 = _log_kernel_values(model, family, 3, t, xb, pts)
        return np.exp(a3 + gamma.logpdf(pts)) * g

    def conv_body(pts, g):
        rv = np.atleast_1d(quadratic_R(family, pts))
        return np.exp(rx - rv + gauss.logpdf(pts)) * g

    refs = {kappa: everywhere(delta_body(kappa)) for kappa in (1, 2, 3)}
    refs["main"] = everywhere(main_body)
    refs["conv"] = everywhere(conv_body)
    # the gate has work to skip: f is zero on most of the box, and the rule's
    # nodes still land there a third of the time
    assert np.mean(np.concatenate(seen) == 0.0) > 0.25
    assert abs(refs["main"]) > 1.0

    received = []

    def recording(fn, arg):
        def wrapped(*args):
            received.append(np.atleast_2d(args[arg]))
            return fn(*args)

        return wrapped

    monkeypatch.setattr(semigroup, "_log_kernel_values", recording(_log_kernel_values, 5))
    monkeypatch.setattr(semigroup, "quadratic_R", recording(quadratic_R, 1))
    assert _cell_ops(model, family, scheme, j, t, f, x) == refs
    pts = np.concatenate(received)
    assert pts.shape[0] > 100
    assert np.all(f(pts) != 0.0)


@pytest.mark.parametrize("target", [0.0, 2.0, 4.0])
def test_cell_support_box_matches_real_line(monkeypatch, target):
    """Integrating the cell operators over the support box |u - c_j| < 4 rho_j
    gives the value of the same integrand integrated over all of R.  The
    payload's support covers the cell's whole partition support, so a box
    that cuts into it changes the value."""
    model, family = _standard()
    config = ExperimentConfig()
    scheme = build_localization(model, family, config.box, config.lattice_step)
    j = int(np.argmin(np.abs(np.linalg.norm(scheme.centers, axis=1) - target)))
    center, radius = scheme.centers[j], float(scheme.radii[j])
    f = _bump_payload(center + radius, 5.0 * radius)
    x, t = center + 0.25 * radius, 0.5 * scheme.cell_time_cap(j)
    on_box = _cell_ops(model, family, scheme, j, t, f, x)

    def real_line(model, integrand, box):
        # an oracle that shares no code with the box rule: QUADPACK over R
        val, err = integrate.quad(
            lambda u: float(integrand(np.array([[u]]))[0]),
            -np.inf, np.inf, limit=200, epsabs=1e-12, epsrel=1e-11,
        )
        assert err <= max(1e-10, 1e-8 * abs(val)), (val, err)
        return val

    monkeypatch.setattr(semigroup, "_adaptive_integral", real_line)
    on_line = _cell_ops(model, family, scheme, j, t, f, x)
    for key, ref in on_line.items():
        assert abs(ref) > 1e-3, key  # the comparison must not pass vacuously
        # both rules run at atol 1e-12; the kappa = 2 leg is only ~0.01
        assert abs(on_box[key] - ref) <= 1e-12 * max(1.0, abs(ref)), (key, on_box[key], ref)


def test_cell_operators_2d_match_grid_oracle():
    """On rotating2d the adaptive main operator and its convolution form are
    nonzero, agree, and match a 601 x 601 tensor grid over the support box
    (the integrand vanishes smoothly at the box edge, so the plain grid sum
    converges fast)."""
    model, family = _rotating()
    scheme = build_localization(model, family, [(-3.0, 3.0), (-3.0, 3.0)])
    j = int(np.argmin(np.abs(np.linalg.norm(scheme.centers, axis=1) - 2.0)))
    center, radius = scheme.centers[j], float(scheme.radii[j])
    f = _smooth_atom(family, center, 0.5 * radius)
    x = center + 0.25 * radius
    t = 0.5 * scheme.cell_time_cap(j)
    a = main_op(model, family, scheme, j, t, f, x, ADAPTIVE)
    b = main_op_convolution(model, family, scheme, j, t, f, x, ADAPTIVE)
    assert a > 1.0
    assert abs(a - b) <= 1e-8 * abs(a)

    axes = [np.linspace(c - 4.0 * radius, c + 4.0 * radius, 601) for c in center]
    cell = (axes[0][1] - axes[0][0]) * (axes[1][1] - axes[1][0])
    u0, u1 = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([u0.ravel(), u1.ravel()])
    g = f(pts) * scheme.r_j(j, pts)
    pts, g = pts[g != 0.0], g[g != 0.0]
    a3 = _log_kernel_values(model, family, 3, t, np.broadcast_to(x, pts.shape), pts)
    gamma = invariant_measure(family)
    grid = scheme.rt_at(j, x) * cell * float(np.sum(np.exp(a3 + gamma.logpdf(pts)) * g))
    for value in (a, b):
        assert abs(value - grid) <= 1e-9 * grid, (value, grid)


def test_gaussian_adaptive_routes_2d_match_grid_oracle():
    """On rotating2d both adaptive semigroup routes see a narrow atom: over
    their transition-Gaussian box they are nonzero and match a 401 x 401
    tensor grid over the atom's support box (the integrand vanishes smoothly
    at its edge, so the plain grid sum converges fast)."""
    model, family = _rotating()
    scheme = build_localization(model, family, [(-3.0, 3.0), (-3.0, 3.0)])
    j = int(np.argmin(np.abs(np.linalg.norm(scheme.centers, axis=1) - 2.0)))
    center, width = scheme.centers[j], 0.5 * float(scheme.radii[j])
    f = _smooth_atom(family, center, width)
    x = center + 0.5 * width
    t = 0.5 * scheme.cell_time_cap(j)
    bundle = family.qt_bundle(t)
    axes = [np.linspace(c - width, c + width, 401) for c in center]
    cell = (axes[0][1] - axes[0][0]) * (axes[1][1] - axes[1][0])
    u0, u1 = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([u0.ravel(), u1.ravel()])
    gauss = GaussianMeasure(bundle.exp_tb @ x, bundle.qt)
    grid = cell * float(np.sum(f(pts) * np.exp(gauss.logpdf(pts))))
    assert grid > 1.0
    for route in (apply_semigroup_kolmogorov, apply_semigroup_kernel):
        value = route(model, family, t, f, x, ADAPTIVE)
        assert abs(value - grid) <= 1e-9 * grid, (route.__name__, value, grid)


def test_unconverged_cubature_raises(monkeypatch):
    """A cubature run that stops short fails the cell operator and the atom
    mass, whatever its error estimate says."""
    real = integrate.cubature

    def stalled(*args, **kwargs):
        res = real(*args, **kwargs)
        res.status = "not_converged"
        return res

    model, family = _standard()
    scheme = build_localization(model, family, [(-4.0, 4.0)])
    f = _bump_payload([0.0], 1.2)
    monkeypatch.setattr(integrate, "cubature", stalled)
    with pytest.raises(QuadratureNonConvergent):
        main_op(model, family, scheme, 0, 0.4, f, np.array([0.3]), ADAPTIVE)
    with pytest.raises(NumericalError):
        _smooth_atom(family, np.array([0.0]), 0.5)


def test_delta_op_validation(scheme_1d):
    model, family = _standard()
    f = _bump_payload([0.0], 1.0)
    with pytest.raises(BadKappa):
        delta_op(model, family, scheme_1d, 0, 0, 0.3, f, np.zeros(1), GAUSS)
    with pytest.raises(TimeNonPositive):
        delta_op(model, family, scheme_1d, 1, 0, 0.0, f, np.zeros(1), GAUSS)
    # an off-origin cell has a cap below 1; exceed it
    j = int(np.argmax(np.linalg.norm(scheme_1d.centers, axis=1)))
    cap = scheme_1d.cell_time_cap(j)
    assert cap < 1.0
    with pytest.raises(TimeOutOfRegime):
        delta_op(model, family, scheme_1d, 1, j, 2.0 * cap, f, np.zeros(1), GAUSS)


def test_apply_local_routes_agree(scheme_1d):
    model, family = _standard()
    f = _bump_payload([0.5], 2.0)
    x = np.array([0.4])
    t = 0.6
    a = apply_local(model, family, scheme_1d, t, f, x, GAUSS, route="eta")
    b = apply_local(model, family, scheme_1d, t, f, x, GAUSS, route="sum")
    c = apply_local(model, family, scheme_1d, t, f, x, GAUSS, route="both")
    assert abs(a - b) <= 1e-10 * max(1.0, abs(a))
    assert c == a
    with pytest.raises(ValidationError):
        apply_local(model, family, scheme_1d, t, f, x, GAUSS, route="fast")


def test_local_plus_global_is_whole_semigroup(scheme_1d):
    """eta + (1 - eta) recombine on shared nodes with no quadrature gap."""
    model, family = _standard()
    f = _bump_payload([-0.8], 2.5)
    x = np.array([-0.5])
    for t in (0.2, 1.5):
        loc = apply_local(model, family, scheme_1d, t, f, x, GAUSS)
        glo = apply_global(model, family, scheme_1d, t, f, x, GAUSS)
        whole = apply_semigroup_kernel(model, family, t, f, x, GAUSS)
        assert abs((loc + glo) - whole) <= 1e-12 * max(1.0, abs(whole)), t
