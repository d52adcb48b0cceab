"""Semigroup evaluation, localization scheme, and the split operators.

Two independent quadrature routes compute the same semigroup value:

* ``apply_semigroup_kernel`` integrates the kernel against the invariant
  measure (switching between a recentred Gaussian rule and the invariant
  rule depending on which concentrates the mass), and
* ``apply_semigroup_kolmogorov`` integrates ``f`` against the transition
  Gaussian directly.

They share no algebra beyond the covariance code, which is what makes their
agreement a meaningful check.  The localization machinery builds a maximal
family of disjoint balls whose radii shrink like 1/(1+|center|), the smooth
partition subordinate to (four times) those balls, and the plateau cutoffs
used by the per-cell operators.

Function arguments named ``f`` are vectorized callables: they receive an
(m, n) array of points and must return an (m,) array of values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import (
    BadKappa,
    BoxTooSmall,
    NonFinite,
    OutOfBox,
    QuadratureNonConvergent,
    TimeOutOfRegime,
    ValidationError,
)
from .kernels import _check_time, _log_kernel_values
from .model import (
    CovarianceFamily,
    GaussianMeasure,
    OUModel,
    invariant_measure,
    quadratic_R,
)

__all__ = [
    "QuadratureSpec",
    "LocalizationScheme",
    "apply_semigroup_kernel",
    "apply_semigroup_kolmogorov",
    "expect_invariant",
    "build_localization",
    "eta",
    "apply_local",
    "apply_global",
    "delta_op",
    "main_op",
    "main_op_convolution",
]

_SCHEMES = ("gauss_hermite_tensor", "adaptive")


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureSpec:
    """How to integrate: tensor Gauss-Hermite (n <= 2) or adaptive (n <= 3).

    ``order`` is the per-axis node count; ``domain_cutoff`` trims tensor
    nodes farther than that many standard deviations from the center (in
    the whitened metric), after which the surviving weights are rescaled to
    unit mass so constants integrate exactly.
    """

    scheme: str = "gauss_hermite_tensor"
    order: int = 64
    domain_cutoff: float = 8.0

    def __post_init__(self) -> None:
        if self.scheme not in _SCHEMES:
            raise ValidationError(
                f"unknown quadrature scheme {self.scheme!r}; known: {_SCHEMES}"
            )
        if int(self.order) < 8:
            raise ValidationError(f"quadrature order must be >= 8, got {self.order}")
        if float(self.domain_cutoff) < 6.0:
            raise ValidationError(
                f"domain cutoff must be >= 6 standard deviations, got {self.domain_cutoff}"
            )
        object.__setattr__(self, "order", int(self.order))
        object.__setattr__(self, "domain_cutoff", float(self.domain_cutoff))


@lru_cache(maxsize=32)
def _gh_rule(order: int) -> tuple:
    nodes, weights = hermgauss(order)
    return nodes, weights


@lru_cache(maxsize=32)
def _gh_tensor_rule(order: int, n: int, cutoff: float) -> tuple:
    """Whitened offsets (m, n) and unit-mass weights for the tensor rule."""
    xi, w = _gh_rule(order)
    if n == 1:
        offsets = (math.sqrt(2.0) * xi)[:, None]
        weights = w.copy()
    elif n == 2:
        a, b = np.meshgrid(xi, xi, indexing="ij")
        offsets = math.sqrt(2.0) * np.column_stack([a.ravel(), b.ravel()])
        weights = np.outer(w, w).ravel()
    else:
        raise ValidationError(
            f"tensor Gauss-Hermite supports n <= 2, got n = {n}; use the adaptive scheme"
        )
    keep = np.linalg.norm(offsets, axis=1) <= cutoff
    offsets = offsets[keep]
    weights = weights[keep]
    weights = weights / weights.sum()
    offsets.setflags(write=False)
    weights.setflags(write=False)
    return offsets, weights


def _gaussian_nodes(
    mean: np.ndarray, chol: np.ndarray, quad: QuadratureSpec
) -> tuple:
    """Nodes and weights approximating E[g(Z)], Z ~ N(mean, chol chol^T)."""
    n = mean.size
    offsets, weights = _gh_tensor_rule(quad.order, n, quad.domain_cutoff)
    nodes = mean[None, :] + offsets @ chol.T
    return nodes, weights


def _eval_f(f: Callable, pts: np.ndarray) -> np.ndarray:
    vals = np.asarray(f(pts), dtype=float)
    return vals.reshape(pts.shape[0])


def _check_point(model: OUModel, x) -> np.ndarray:
    pt = np.asarray(x, dtype=float).reshape(-1)
    if pt.size != model.n:
        raise ValidationError(f"point has dimension {pt.size}, model has {model.n}")
    return pt


def expect_invariant(
    model: OUModel, family: CovarianceFamily, f: Callable, quad: QuadratureSpec
) -> float:
    """Expectation of ``f`` under the invariant measure."""
    if quad.scheme == "adaptive":
        gamma = invariant_measure(family)
        return _adaptive_integral(model, lambda pts: _eval_f(f, pts) * np.exp(gamma.logpdf(pts)))
    nodes, weights = _gaussian_nodes(np.zeros(model.n), family.qinf_chol, quad)
    return float(weights @ _eval_f(f, nodes))


# ---------------------------------------------------------------------------
# the two semigroup routes
# ---------------------------------------------------------------------------

def apply_semigroup_kolmogorov(
    model: OUModel,
    family: CovarianceFamily,
    t: float,
    f: Callable,
    x,
    quad: QuadratureSpec,
) -> float:
    """Semigroup value as the mean of f under the transition Gaussian.

    Exact (up to the rule's polynomial degree) for polynomial f; constants
    integrate exactly because trimmed weights are renormalized.
    """
    t = _check_time(t)
    x = _check_point(model, x)
    bundle = family.qt_bundle(t)
    mean = bundle.exp_tb @ x
    if quad.scheme == "adaptive":
        gauss = GaussianMeasure(mean, bundle.qt)
        return _adaptive_integral(
            model, lambda pts: _eval_f(f, pts) * np.exp(gauss.logpdf(pts))
        )
    nodes, weights = _gaussian_nodes(mean, bundle.qt_chol, quad)
    return float(weights @ _eval_f(f, nodes))


def _node_system(
    model: OUModel,
    family: CovarianceFamily,
    t: float,
    xs: np.ndarray,
    quad: QuadratureSpec,
) -> tuple:
    """Shared quadrature system for all kernel-side operators, per batch of points.

    ``xs`` has shape (m, n).  Returns ``(nodes, weights, adj)`` with shapes
    (m, k, n), (k,) and (m, k): ``adj[i]`` is the log ratio of the invariant
    density to point i's node density at its nodes.  With those arrays, the
    integral of ``kernel(xs[i], .) * f`` against the invariant measure is
    ``sum(weights * exp(log_kernel + adj[i]) * f(nodes[i]))``.

    Branch rule: if the recentred Gaussian hidden in the kernel has operator
    norm at most that of the equilibrium covariance, its nodes concentrate
    where the mass is and we use them; otherwise (late times) the invariant
    rule is better conditioned, and ``adj`` is exactly zero.

    The branch test, the node covariance's factors and the offset table
    depend on t alone and are built once per call; each point's nodes are its
    centre plus that table.  A row's values do not depend on the other rows,
    so the single-point operators call this with one row (through
    ``_batch_nodes``).
    """
    bundle = family.qt_bundle(t)
    st = bundle.mehler_cov
    m, n = xs.shape
    if st is None or float(np.linalg.norm(st, 2)) > family.qinf_opnorm:
        table, weights = _gaussian_nodes(np.zeros(n), family.qinf_chol, quad)
        nodes = np.broadcast_to(table, (m,) + table.shape)
        return nodes, weights, np.zeros(nodes.shape[:2])
    offsets, weights = _gh_tensor_rule(quad.order, n, quad.domain_cutoff)
    # stacked mat-vecs keep each centre bit-for-bit equal to bundle.dt @ x;
    # one (m, n) @ (n, n) product rounds differently for n > 1
    centers = (bundle.dt @ xs[:, :, None])[:, :, 0]
    nodes = centers[:, None, :] + (offsets @ np.linalg.cholesky(st).T)[None, :, :]
    gamma = invariant_measure(family)
    node_measure = GaussianMeasure(np.zeros(n), st)
    shifted = (nodes - centers[:, None, :]).reshape(-1, n)
    adj = gamma.logpdf(nodes.reshape(-1, n)) - node_measure.logpdf(shifted)
    return nodes, weights, adj.reshape(m, -1)


def _batch_nodes(model, family, t, xs, quad) -> tuple:
    """``_node_system`` flattened for the batched callees: returns
    ``(nodes, xb, weights, adj)`` with nodes and xb of shape (m k, n) and adj
    of shape (m k,), where xb repeats each point once per node."""
    nodes, weights, adj = _node_system(model, family, t, xs, quad)
    m, k, n = nodes.shape
    return nodes.reshape(m * k, n), np.repeat(xs, k, axis=0), weights, adj.ravel()


def apply_semigroup_kernel(
    model: OUModel,
    family: CovarianceFamily,
    t: float,
    f: Callable,
    x,
    quad: QuadratureSpec,
) -> float:
    """Semigroup value through the kernel/invariant-measure route."""
    t = _check_time(t)
    x = _check_point(model, x)
    if quad.scheme == "adaptive":
        gamma = invariant_measure(family)

        def integrand(pts):
            logk = _log_kernel_values(model, family, 0, t, np.broadcast_to(x, pts.shape), pts)
            return np.exp(logk + gamma.logpdf(pts)) * _eval_f(f, pts)

        return _adaptive_integral(model, integrand)
    nodes, xb, weights, adj = _batch_nodes(model, family, t, x[None, :], quad)
    logk = _log_kernel_values(model, family, 0, t, xb, nodes)
    vals = np.exp(logk + adj) * _eval_f(f, nodes)
    out = float(weights @ vals)
    if not math.isfinite(out):
        raise NonFinite(f"kernel-route semigroup value not finite at t = {t:g}")
    return out


def _adaptive_integral(model: OUModel, integrand: Callable) -> float:
    """Adaptive integration of a callable over R^n (n <= 3).

    Tolerances are pushed well below the 1e-8 identity gates because the
    localized integrands are merely C-infinity (compactly supported bumps),
    where fixed Gaussian rules stall around 1e-4 -- the whole reason this
    route exists.
    """
    import warnings

    from scipy import integrate

    n = model.n
    if n > 3:
        raise ValidationError("adaptive quadrature supports n <= 3")
    with warnings.catch_warnings():
        # the explicit error gate below is the authority; scipy's roundoff
        # warning fires routinely at these tolerances without carrying info
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        if n == 1:
            def g(u):
                return float(integrand(np.array([[u]]))[0])

            val, err = integrate.quad(
                g, -np.inf, np.inf, limit=200, epsabs=1e-12, epsrel=1e-11
            )
        else:
            def g(*coords):
                return float(integrand(np.array([coords]))[0])

            val, err = integrate.nquad(
                g,
                [(-np.inf, np.inf)] * n,
                opts={"limit": 120, "epsabs": 1e-10, "epsrel": 1e-10},
            )
    if err > max(1e-10, 1e-8 * abs(val)):
        raise QuadratureNonConvergent(
            f"adaptive rule error estimate {err:.3e} too large for value {val:.6e}"
        )
    return float(val)


# ---------------------------------------------------------------------------
# localization scheme
# ---------------------------------------------------------------------------

def _bump_profile(s: np.ndarray) -> np.ndarray:
    """The standard compactly supported bump exp(-1/(1-s^2)) on |s| < 1."""
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape)
    inside = np.abs(s) < 1.0
    if np.any(inside):
        si = s[inside]
        with np.errstate(under="ignore"):
            out[inside] = np.exp(-1.0 / (1.0 - si * si))
    return out

_PLATEAU_REF = float(np.exp(-1.0 / (1.0 - (5.0 / 6.0) ** 2)))


@dataclass(frozen=True)
class LocalizationScheme:
    """Greedy maximal ball family plus its subordinate partition of unity.

    ``centers[j]`` has radius ``radii[j] = 1/(1 + |centers[j]|)``; the balls
    have pairwise disjoint interiors and the family is maximal over the
    construction lattice (no lattice point admits another disjoint ball).
    The partition bump of cell j is supported on 4x the ball, the plateau
    cutoff on 6x with value 1 through 5x.
    """

    dim: int
    centers: np.ndarray
    radii: np.ndarray
    box: np.ndarray
    lattice_step: float
    max_overlap_6b: int
    lattice_covered: bool

    @property
    def n_cells(self) -> int:
        return self.centers.shape[0]

    @property
    def interior_margin(self) -> float:
        """One smallest-radius unit; the partition identities hold this far
        from the box boundary."""
        return float(self.radii.min())

    def in_box(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.all((pts >= self.box[:, 0]) & (pts <= self.box[:, 1]), axis=1)

    def interior_mask(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        m = self.interior_margin
        return np.all(
            (pts >= self.box[:, 0] + m) & (pts <= self.box[:, 1] - m), axis=1
        )

    # -- partition machinery ------------------------------------------------

    def _phi_all(self, pts: np.ndarray) -> np.ndarray:
        """Unnormalized bump of every cell at every point; shape (m, k)."""
        pts = np.atleast_2d(pts)
        dist = np.linalg.norm(pts[:, None, :] - self.centers[None, :, :], axis=2)
        s = dist / (4.0 * self.radii[None, :])
        return _bump_profile(s)

    def r_weights(self, pts) -> np.ndarray:
        """All partition values r_j at the given points; shape (m, k).

        Rows sum to 1 wherever at least one bump is alive (in particular on
        the interior margin); the sum-guard returns all-zero rows where the
        total underflows, which only happens outside every cell's support.
        """
        phi = self._phi_all(pts)
        total = phi.sum(axis=1, keepdims=True)
        safe = total > 1e-300
        out = np.zeros(phi.shape)
        np.divide(phi, total, out=out, where=safe)
        return out

    def r_j(self, j: int, pts) -> np.ndarray:
        """Partition member j (support: 4x ball j)."""
        return self.r_weights(pts)[:, int(j)]

    def rt_all(self, pts) -> np.ndarray:
        """Plateau cutoffs of every cell at the given points; shape (m, k).

        Cell j's cutoff is 1 through 5x its ball and 0 beyond 6x.
        """
        pts = np.atleast_2d(pts)
        dist = np.linalg.norm(pts[:, None, :] - self.centers[None, :, :], axis=2)
        return np.minimum(1.0, _bump_profile(dist / (6.0 * self.radii)) / _PLATEAU_REF)

    def rt_j(self, j: int, pts) -> np.ndarray:
        """Plateau cutoff of cell j: 1 through 5x the ball, 0 beyond 6x."""
        return self.rt_all(pts)[:, int(j)]

    def rt_at(self, j: int, x) -> float:
        return float(self.rt_j(j, np.atleast_2d(np.asarray(x, dtype=float)))[0])

    def cell_time_cap(self, j: int) -> float:
        """Upper end of the short-time regime tied to cell j."""
        norm_c = float(np.linalg.norm(self.centers[int(j)]))
        return min(1.0, 1.0 / (norm_c * norm_c)) if norm_c > 0 else 1.0

    # -- reporting ------------------------------------------------------------

    def overlap_counts_6b(self) -> np.ndarray:
        """Per cell: how many other 6x balls meet this cell's 6x ball."""
        d = np.linalg.norm(
            self.centers[:, None, :] - self.centers[None, :, :], axis=2
        )
        reach = 6.0 * (self.radii[:, None] + self.radii[None, :])
        hit = d < reach
        np.fill_diagonal(hit, False)
        return hit.sum(axis=1)

    CSV_HEADER = "j,center,radius,overlap_count_6b"

    def to_csv_rows(self) -> list:
        counts = self.overlap_counts_6b()
        rows = []
        for j in range(self.n_cells):
            center = "[" + " ".join(repr(float(v)) for v in self.centers[j]) + "]"
            rows.append(f"{j},{center},{self.radii[j]!r},{int(counts[j])}")
        return rows

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join([self.CSV_HEADER] + self.to_csv_rows()) + "\n")


def build_localization(
    model: OUModel,
    family: CovarianceFamily,
    box,
    lattice_step: "float | None" = None,
) -> LocalizationScheme:
    """Greedy maximal family of disjoint balls with radius 1/(1+|center|).

    Candidates are the points of a lattice anchored at the origin with step
    at most half the smallest admissible radius in the box, visited in order
    of increasing distance from the origin (ties broken lexicographically),
    so the unit ball at the origin is always the first cell.  A candidate is
    accepted exactly when its ball's interior misses every accepted ball:
    ``|c - c_j| >= rho(c) + rho_j``, checked exactly in floats.

    The returned scheme records two audit facts: the maximum number of 6x
    balls covering any lattice point, and whether every lattice point lies
    within 3x of some accepted ball (it must, by maximality).
    """
    del family  # geometric construction; kept in the signature for uniformity
    n = model.n
    box_arr = np.asarray(box, dtype=float).reshape(n, 2)
    if np.any(box_arr[:, 0] >= box_arr[:, 1]):
        raise ValidationError(f"box has empty axis: {box_arr.tolist()}")
    if np.any(box_arr[:, 0] > -1.0) or np.any(box_arr[:, 1] < 1.0):
        raise BoxTooSmall(
            "box must contain the unit ball at the origin "
            f"(need lo <= -1 <= 1 <= hi per axis, got {box_arr.tolist()})"
        )
    corners = np.abs(box_arr).max(axis=1)
    r_min = 1.0 / (1.0 + float(np.linalg.norm(corners)))
    step_cap = 0.5 * r_min
    if lattice_step is None:
        lattice_step = min(0.25, step_cap)
    lattice_step = float(lattice_step)
    if not 0.0 < lattice_step <= step_cap + 1e-15:
        raise ValidationError(
            f"lattice step {lattice_step:g} must lie in (0, {step_cap:g}] "
            "(half the smallest radius in the box)"
        )

    axes = []
    for i in range(n):
        k_lo = math.ceil(box_arr[i, 0] / lattice_step - 1e-12)
        k_hi = math.floor(box_arr[i, 1] / lattice_step + 1e-12)
        axes.append(np.arange(k_lo, k_hi + 1) * lattice_step)
    mesh = np.meshgrid(*axes, indexing="ij")
    candidates = np.column_stack([m.ravel() for m in mesh])
    r2 = np.einsum("ij,ij->i", candidates, candidates)
    order = np.lexsort(tuple(candidates[:, i] for i in reversed(range(n))) + (r2,))
    candidates = candidates[order]

    centers: list = []
    radii: list = []
    cent_arr = np.empty((0, n))
    rad_arr = np.empty(0)
    for cand in candidates:
        rho = 1.0 / (1.0 + float(np.linalg.norm(cand)))
        if cent_arr.shape[0]:
            dist = np.linalg.norm(cent_arr - cand[None, :], axis=1)
            if np.any(dist < rho + rad_arr):
                continue
        centers.append(cand.copy())
        radii.append(rho)
        cent_arr = np.asarray(centers)
        rad_arr = np.asarray(radii)

    max_overlap = 0
    covered = True
    chunk = 8192
    for start in range(0, candidates.shape[0], chunk):
        pts = candidates[start : start + chunk]
        dist = np.linalg.norm(pts[:, None, :] - cent_arr[None, :, :], axis=2)
        max_overlap = max(
            max_overlap, int((dist <= 6.0 * rad_arr[None, :]).sum(axis=1).max())
        )
        if not np.all((dist <= 3.0 * rad_arr[None, :]).any(axis=1)):
            covered = False

    cent_arr.setflags(write=False)
    rad_arr.setflags(write=False)
    box_arr.setflags(write=False)
    return LocalizationScheme(
        dim=n,
        centers=cent_arr,
        radii=rad_arr,
        box=box_arr,
        lattice_step=lattice_step,
        max_overlap_6b=max_overlap,
        lattice_covered=covered,
    )


def eta(scheme: LocalizationScheme, x, u) -> "float | np.ndarray":
    """The localization weight sum_j plateau_j(x) * r_j(u).

    Values lie in [0, 1]; equal to 1 on the diagonal over the interior
    margin; zero once |x - u| exceeds the largest cell's reach.  Both
    arguments must lie inside the covered box (the scheme says nothing
    about the outside world); ``u`` may be a batch of points.
    """
    x = np.asarray(x, dtype=float).reshape(scheme.dim)
    if not scheme.in_box(x[None, :])[0]:
        raise OutOfBox(f"x = {x} outside the covered box")
    us = np.asarray(u, dtype=float)
    single = us.ndim == 1
    us = np.atleast_2d(us)
    if not scheme.in_box(us).all():
        raise OutOfBox("u outside the covered box")
    vals = _eta_unchecked(scheme, x, us)
    return float(vals[0]) if single else vals


def _eta_unchecked(
    scheme: LocalizationScheme, x: np.ndarray, us: np.ndarray
) -> np.ndarray:
    """eta with no box validation (quadrature tails reach past the box)."""
    return _eta_from(scheme.rt_all(x)[0], scheme.r_weights(us))


def _eta_from(rt: np.ndarray, r_all: np.ndarray) -> np.ndarray:
    """eta(x, .) at points with partition values ``r_all`` (p, k), given the
    plateaus ``rt`` (k,) of x: the sum over x's live cells only."""
    live = np.nonzero(rt > 0.0)[0]
    return r_all[:, live] @ rt[live]


# ---------------------------------------------------------------------------
# split operators
# ---------------------------------------------------------------------------

def _check_cell_time(scheme: LocalizationScheme, j: int, t: float) -> float:
    t = _check_time(t)
    cap = scheme.cell_time_cap(j)
    if t > cap:
        raise TimeOutOfRegime(
            f"t = {t:g} outside the short-time regime (0, {cap:g}] of cell {j}"
        )
    return t


def _cell_terms(model, family, scheme, j, t, f, xs, kappas, quad) -> tuple:
    """Node-rule pieces of the cell-j operators at every row of xs (m, n).

    Returns ``(weights, logs, g)``: ``logs[kappa]`` is the log kernel plus
    ``adj`` and ``g`` is f r_j, both of shape (m, k) over each row's nodes.
    """
    nodes, xb, weights, adj = _batch_nodes(model, family, t, xs, quad)
    m = xs.shape[0]
    logs = {
        kappa: (_log_kernel_values(model, family, kappa, t, xb, nodes) + adj).reshape(m, -1)
        for kappa in kappas
    }
    g = (_eval_f(f, nodes) * scheme.r_j(j, nodes)).reshape(m, -1)
    return weights, logs, g


def _kernel_gap(a_prev: np.ndarray, a_cur: np.ndarray) -> np.ndarray:
    """kernel_{kappa-1} - kernel_kappa from their logs, without cancellation."""
    return -np.exp(a_prev) * np.expm1(a_cur - a_prev)


def _adaptive_on_support(model, scheme, j: int, f: Callable, body: Callable) -> float:
    """Adaptive integral of a cell integrand that is ``body(pts, g)`` where
    g = f r_j is nonzero and exactly zero elsewhere.

    f is evaluated first, r_j only where f is nonzero, and ``body`` (the
    kernel work) only where g is.  Far off the support the kernel logs can
    overflow, and 0 * inf would poison the rule.
    """
    def integrand(pts):
        out = np.zeros(pts.shape[0])
        fv = _eval_f(f, pts)
        live = np.nonzero(fv != 0.0)[0]
        if live.size:
            g = fv[live] * scheme.r_j(j, pts[live])
            keep = g != 0.0
            live, g = live[keep], g[keep]
            if live.size:
                out[live] = body(pts[live], g)
        return out

    return _adaptive_integral(model, integrand)


def delta_op(
    model: OUModel,
    family: CovarianceFamily,
    scheme: LocalizationScheme,
    kappa: int,
    j: int,
    t: float,
    f: Callable,
    x,
    quad: QuadratureSpec,
) -> float:
    """Cell-local difference operator for consecutive kernels.

    Integrates (kernel_{kappa-1} - kernel_kappa)(x, u) f(u) r_j(u) against
    the invariant measure and multiplies by the plateau cutoff at x.  Only
    defined in the short-time regime of the cell.
    """
    if kappa not in (1, 2, 3):
        raise BadKappa(f"difference operators need kappa in {{1,2,3}}, got {kappa!r}")
    t = _check_cell_time(scheme, j, t)
    x = _check_point(model, x)
    rt = scheme.rt_at(j, x)
    if quad.scheme == "adaptive":
        gamma = invariant_measure(family)

        def body(sub, g):
            xb = np.broadcast_to(x, sub.shape)
            a_prev = _log_kernel_values(model, family, kappa - 1, t, xb, sub)
            a_cur = _log_kernel_values(model, family, kappa, t, xb, sub)
            return _kernel_gap(a_prev, a_cur) * g * np.exp(gamma.logpdf(sub))

        return rt * _adaptive_on_support(model, scheme, j, f, body)
    weights, logs, g = _cell_terms(
        model, family, scheme, j, t, f, x[None, :], (kappa - 1, kappa), quad
    )
    return rt * float(weights @ (_kernel_gap(logs[kappa - 1], logs[kappa]) * g)[0])


def main_op(
    model: OUModel,
    family: CovarianceFamily,
    scheme: LocalizationScheme,
    j: int,
    t: float,
    f: Callable,
    x,
    quad: QuadratureSpec,
) -> float:
    """Cell-local main operator: the fully simplified kernel (kappa = 3)
    integrated against f r_j, times the plateau cutoff at x."""
    t = _check_cell_time(scheme, j, t)
    x = _check_point(model, x)
    rt = scheme.rt_at(j, x)
    if quad.scheme == "adaptive":
        gamma = invariant_measure(family)

        def body(sub, g):
            xb = np.broadcast_to(x, sub.shape)
            a3 = _log_kernel_values(model, family, 3, t, xb, sub)
            return np.exp(a3 + gamma.logpdf(sub)) * g

        return rt * _adaptive_on_support(model, scheme, j, f, body)
    weights, logs, g = _cell_terms(model, family, scheme, j, t, f, x[None, :], (3,), quad)
    return rt * float(weights @ (np.exp(logs[3]) * g)[0])


def main_op_convolution(
    model: OUModel,
    family: CovarianceFamily,
    scheme: LocalizationScheme,
    j: int,
    t: float,
    f: Callable,
    x,
    quad: QuadratureSpec,
) -> float:
    """The main operator rewritten as a Gaussian convolution.

    The fully simplified kernel times the invariant density is exactly
    ``exp(R(x)) N(u - x; 0, t * diffusion) exp(-R(u))``, so the operator is
    the expectation of ``f r_j exp(R(x) - R(.))`` under N(x, t * diffusion).
    Same value as :func:`main_op`, reached through different algebra --
    keep both; their agreement is one of the standing identity checks.
    """
    t = _check_cell_time(scheme, j, t)
    x = _check_point(model, x)
    rt = scheme.rt_at(j, x)
    rx = quadratic_R(family, x)
    if quad.scheme == "adaptive":
        gauss = GaussianMeasure(x, t * model.diffusion)

        def body(sub, g):
            rv = np.atleast_1d(quadratic_R(family, sub))
            return np.exp(rx - rv + gauss.logpdf(sub)) * g

        return rt * _adaptive_on_support(model, scheme, j, f, body)
    chol = math.sqrt(t) * np.linalg.cholesky(model.diffusion)
    nodes, weights = _gaussian_nodes(x, chol, quad)
    rv = quadratic_R(family, nodes)
    vals = np.exp(rx - rv) * _eval_f(f, nodes) * scheme.r_j(j, nodes)
    return rt * float(weights @ vals)


def apply_local(
    model: OUModel,
    family: CovarianceFamily,
    scheme: LocalizationScheme,
    t: float,
    f: Callable,
    x,
    quad: QuadratureSpec,
    route: str = "eta",
) -> float:
    """Local part of the semigroup.

    ``route="eta"`` integrates kernel * eta(x, .) * f in one sweep;
    ``route="sum"`` assembles the same thing cell by cell as
    sum_j plateau_j(x) * (semigroup applied to f r_j); ``route="both"``
    computes both on the shared node set and insists they agree to 1e-8
    relative before returning the eta value.

    Quadrature nodes may fall outside the box; the bumps are globally
    defined functions (they vanish beyond every cell's support), so the
    integrand needs no box clipping.
    """
    if route not in ("eta", "sum", "both"):
        raise ValidationError(f"unknown route {route!r}")
    t = _check_time(t)
    x = _check_point(model, x)
    nodes, xb, weights, adj = _batch_nodes(model, family, t, x[None, :], quad)
    a0 = _log_kernel_values(model, family, 0, t, xb, nodes) + adj
    fvals = _eval_f(f, nodes)
    eta_val = sum_val = None
    if route in ("eta", "both"):
        eta_val = float(weights @ (np.exp(a0) * fvals * _eta_unchecked(scheme, x, nodes)))
    if route in ("sum", "both"):
        rt = scheme.rt_all(x)[0]
        live = np.nonzero(rt > 0.0)[0]
        total = 0.0
        if live.size:
            r_all = scheme.r_weights(nodes)
            core = np.exp(a0) * fvals
            for j in live:
                total += float(rt[j]) * float(weights @ (core * r_all[:, j]))
        sum_val = total
    if route == "eta":
        return eta_val
    if route == "sum":
        return sum_val
    gap = abs(eta_val - sum_val)
    if gap > 1e-8 * max(1.0, abs(eta_val)):
        raise QuadratureNonConvergent(
            f"local-part routes disagree: eta {eta_val!r} vs sum {sum_val!r}"
        )
    return eta_val


def apply_global(
    model: OUModel,
    family: CovarianceFamily,
    scheme: LocalizationScheme,
    t: float,
    f: Callable,
    x,
    quad: QuadratureSpec,
) -> float:
    """Global remainder: whole semigroup minus the local part, on shared nodes."""
    t = _check_time(t)
    x = _check_point(model, x)[None, :]
    return _global_rows(model, family, scheme, t, f, x, scheme.rt_all(x), quad)[0]


def _global_rows(model, family, scheme, t, f, xs, plateaus, quad) -> list:
    """Global remainder at every row of xs (m, n), given their plateaus
    ``scheme.rt_all(xs)`` (m, k).  One node system, kernel evaluation, f and
    partition evaluation serve every row; each row gets its own 1-D dot."""
    nodes, xb, weights, adj = _batch_nodes(model, family, t, xs, quad)
    m = xs.shape[0]
    a0 = _log_kernel_values(model, family, 0, t, xb, nodes) + adj
    core = (np.exp(a0) * _eval_f(f, nodes)).reshape(m, -1)
    r_all = scheme.r_weights(nodes).reshape(m, core.shape[1], -1)
    return [
        float(weights @ (c * (1.0 - _eta_from(rt, r))))
        for c, rt, r in zip(core, plateaus, r_all)
    ]
