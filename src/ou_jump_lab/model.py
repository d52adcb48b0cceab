"""Model container and matrix/measure primitives.

The process under study is the Ornstein-Uhlenbeck diffusion with generator

    L f = 0.5 * tr(Q D^2 f) + <B x, grad f>,

where ``Q`` (the diffusion matrix) is symmetric positive definite and ``B``
(the drift matrix) has all eigenvalues in the open left half plane.  This
module owns:

* input validation and the two built-in presets,
* the time-t covariance Q_t, the equilibrium covariance Q_inf, and the
  covariance family that owns every value derived from them,
* the quadratic form R, Gaussian densities in log space, and the
  invariant measure.

Every matrix exponential is ``scipy.linalg.expm`` and Q_inf is scipy's
Lyapunov solve.  Q_t takes Van Loan's block exponential only where
t * ||B||_1 <= 1 and Q_inf - e^{tB} Q_inf e^{tB}^T elsewhere, so no
anti-stable factor is ever exponentiated over a long time and Q_t stays
accurate on non-normal drifts out to the 1e3 clamp.  Matrices are small
(desk scale, n <= 3 in practice) so clarity beats asymptotics throughout.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from scipy.linalg import expm, solve_continuous_lyapunov
from scipy.special import ndtr

from .errors import (
    DegenerateSample,
    NonFinite,
    NotHurwitz,
    NotPositiveDefinite,
    NotSymmetric,
    SolveFailure,
    TimeOutOfRegime,
    ValidationError,
)

__all__ = [
    "OUModel",
    "CovarianceFamily",
    "GaussianMeasure",
    "validate_model",
    "model_from_config",
    "preset_standard",
    "preset_rotating2d",
    "matrix_exp",
    "cov_qt",
    "cov_qinf",
    "dt_matrix",
    "dtx_ratio_check",
    "quadratic_R",
    "gamma_density",
    "gamma_logdensity",
    "invariant_measure",
    "mixing_time",
]

_SYM_TOL = 1e-12
_QT_SYM_TOL = 1e-10
_LYAP_RESIDUAL_TOL = 1e-10
_TIME_CLAMP = 1e3  # documented clamp: cov_qt refuses t beyond this


# ---------------------------------------------------------------------------
# model container and validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OUModel:
    """Validated diffusion/drift pair.

    Attributes
    ----------
    n : int
        State dimension.
    diffusion : ndarray, shape (n, n)
        Symmetric positive definite noise covariance generator.
    drift : ndarray, shape (n, n)
        Drift matrix, all eigenvalues in the open left half plane.
    """

    n: int
    diffusion: np.ndarray
    drift: np.ndarray

    def __post_init__(self) -> None:
        self.diffusion.setflags(write=False)
        self.drift.setflags(write=False)


def validate_model(diffusion, drift, *, sym_tol: float = _SYM_TOL) -> OUModel:
    """Check (diffusion, drift) and return an :class:`OUModel`.

    Raises
    ------
    NotSymmetric
        if the diffusion matrix differs from its transpose by more than
        ``sym_tol`` (entrywise, relative to the largest entry).
    NotPositiveDefinite
        if the (symmetrized) diffusion matrix has no Cholesky factor.
    NotHurwitz
        if any drift eigenvalue has real part >= 0.
    """
    q = np.array(diffusion, dtype=float)
    b = np.array(drift, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValidationError(f"diffusion matrix must be square, got shape {q.shape}")
    if b.shape != q.shape:
        raise ValidationError(
            f"drift shape {b.shape} does not match diffusion shape {q.shape}"
        )
    if not (np.isfinite(q).all() and np.isfinite(b).all()):
        raise ValidationError("model matrices must be finite")
    scale = max(1.0, float(np.abs(q).max()))
    asym = float(np.abs(q - q.T).max())
    if asym > sym_tol * scale:
        raise NotSymmetric(
            f"diffusion asymmetry {asym:.3e} exceeds {sym_tol:.1e} * {scale:.3e}"
        )
    q = 0.5 * (q + q.T)
    try:
        np.linalg.cholesky(q)
    except np.linalg.LinAlgError:
        lam_min = float(np.linalg.eigvalsh(q).min())
        raise NotPositiveDefinite(
            f"diffusion matrix is not positive definite (min eigenvalue {lam_min:.3e})"
        ) from None
    eigs = np.linalg.eigvals(b)
    worst = float(eigs.real.max())
    if worst >= 0.0:
        raise NotHurwitz(
            f"drift eigenvalue with real part {worst:.3e} >= 0 (eigenvalues {eigs})"
        )
    return OUModel(n=q.shape[0], diffusion=q, drift=b)


def preset_standard(n: int = 1) -> OUModel:
    """diffusion = I_n, drift = -I_n."""
    eye = np.eye(n)
    return validate_model(eye, -eye)


def preset_rotating2d(omega: float = 1.0) -> OUModel:
    """Planar model with a rotational (nonsymmetric) drift component.

    drift = [[-1, -omega], [omega, -1]], diffusion = I_2.  At omega = 0 this
    degenerates to the standard 2-d model; any nonzero omega makes the drift
    non-normal with respect to nothing -- it stays normal -- but crucially
    non-self-adjoint, which is the regime this package exists to exercise.
    """
    b = np.array([[-1.0, -float(omega)], [float(omega), -1.0]])
    return validate_model(np.eye(2), b)


def model_from_config(cfg: Mapping) -> OUModel:
    """Build a model from a config mapping.

    Accepted keys: ``preset`` (``standard`` / ``rotating2d``), ``n``,
    ``omega``, and explicit ``Q`` / ``B`` (row-major flat lists or nested
    lists).  Explicit matrices win over presets.
    """
    known = {"preset", "n", "omega", "Q", "B"}
    extra = set(cfg) - known
    if extra:
        raise ValidationError(f"unknown model config keys: {sorted(extra)}")
    if "Q" in cfg or "B" in cfg:
        if not ("Q" in cfg and "B" in cfg and "n" in cfg):
            raise ValidationError("explicit models need all of n, Q, B")
        n = int(cfg["n"])
        return validate_model(_as_matrix(cfg["Q"], n), _as_matrix(cfg["B"], n))
    preset = cfg.get("preset", "standard")
    if preset == "standard":
        return preset_standard(int(cfg.get("n", 1)))
    if preset == "rotating2d":
        return preset_rotating2d(float(cfg.get("omega", 1.0)))
    raise ValidationError(f"unknown preset {preset!r}")


def _as_matrix(data, n: int) -> np.ndarray:
    arr = np.array(data, dtype=float)
    if arr.ndim == 1:
        if arr.size != n * n:
            raise ValidationError(
                f"flat matrix has {arr.size} entries, expected {n * n}"
            )
        arr = arr.reshape(n, n)
    if arr.shape != (n, n):
        raise ValidationError(f"matrix shape {arr.shape} != ({n}, {n})")
    return arr


# ---------------------------------------------------------------------------
# matrix exponential and covariances
# ---------------------------------------------------------------------------

def matrix_exp(a) -> np.ndarray:
    """Matrix exponential e^A of a square matrix, by ``scipy.linalg.expm``."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"matrix_exp needs a square matrix, got {a.shape}")
    return expm(a)


def cov_qt(model: OUModel, t: float) -> np.ndarray:
    """Covariance Q_t = int_0^t e^{sB} Q e^{sB^T} ds of the time-t marginal.

    Two routes, chosen from t * ||B||_1 alone:

    * ``t ||B||_1 <= 1``: exponentiate Van Loan's block
      ``M = [[B, Q], [0, -B^T]] * t``, which yields ``[[F11, G], [0, F22]]``
      with ``F11 = e^{tB}`` and ``G = int_0^t e^{(t-s)B} Q e^{-s B^T} ds``,
      so ``Q_t = G @ F11^T``.  Its anti-stable corner grows like e^{t|B|},
      which is harmless only while t ||B|| is of order one.
    * otherwise: ``Q_t = Q_inf - e^{tB} Q_inf e^{tB}^T``, which exponentiates
      only the stable drift.  The difference loses relative accuracy only as
      t -> 0, where the block route takes over.

    ``t = 0`` returns the zero matrix, ``t = inf`` returns the equilibrium
    covariance.  Times beyond 1e3 raise :class:`NonFinite` (documented
    clamp: use the equilibrium covariance there).
    """
    t = float(t)
    if t < 0.0:
        raise ValidationError(f"cov_qt needs t >= 0, got {t}")
    n = model.n
    if t == 0.0:
        return np.zeros((n, n))
    if math.isinf(t):
        return cov_qinf(model).qinf.copy()
    if t > _TIME_CLAMP:
        raise NonFinite(
            f"t = {t:g} exceeds the documented clamp {_TIME_CLAMP:g}; "
            "use the equilibrium covariance for large times"
        )
    if t * float(np.linalg.norm(model.drift, 1)) <= 1.0:
        block = np.zeros((2 * n, 2 * n))
        block[:n, :n] = model.drift
        block[:n, n:] = model.diffusion
        block[n:, n:] = -model.drift.T
        f = matrix_exp(block * t)
        qt = f[:n, n:] @ f[:n, :n].T
    else:
        qinf = _lyapunov_qinf(model)
        e = matrix_exp(model.drift * t)
        qt = qinf - e @ qinf @ e.T
    if not np.isfinite(qt).all():
        raise NonFinite(f"covariance overflowed at t = {t:g}")
    scale = max(1.0, float(np.abs(qt).max()))
    asym = float(np.abs(qt - qt.T).max())
    if asym > _QT_SYM_TOL * scale:
        raise SolveFailure(
            f"computed covariance lost symmetry at t = {t:g} (deviation {asym:.3e})"
        )
    qt = 0.5 * (qt + qt.T)
    try:
        np.linalg.cholesky(qt)
    except np.linalg.LinAlgError:
        raise SolveFailure(
            f"computed covariance not positive definite at t = {t:g}"
        ) from None
    return qt


@dataclass
class CovarianceFamily:
    """Equilibrium covariance and every value derived from the model.

    Fields computed once by :func:`cov_qinf`:

    * ``qinf``, ``qinf_inv``, ``qinf_logdet``, ``qinf_chol`` -- the
      equilibrium covariance, its inverse, log-determinant and Cholesky
      factor;
    * ``qinf_opnorm`` -- the spectral norm of ``qinf``;
    * ``diffusion_chol``, ``diffusion_logdet`` -- the Cholesky factor and
      log-determinant of the diffusion matrix.

    Two tables memoize what depends on time: :meth:`qt_bundle` keys the
    per-time :class:`QtBundle` by the float t, and :meth:`profile_stack`
    keys per-grid stacks by the grid's bytes.  Both are read and written
    only under the family's lock, so a lookup returns the one stored value.
    """

    model: OUModel
    qinf: np.ndarray
    qinf_inv: np.ndarray
    qinf_logdet: float
    qinf_chol: np.ndarray
    qinf_opnorm: float
    diffusion_chol: np.ndarray
    diffusion_logdet: float
    _bundles: dict = field(default_factory=dict, repr=False)
    _stacks: dict = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def qt_bundle(self, t: float) -> "QtBundle":
        t = float(t)
        return self._get_or_build(self._bundles, t, lambda: _build_qt_bundle(self, t))

    def profile_stack(self, ts: np.ndarray, build: Callable):
        """The stack ``build()`` makes for the time grid ``ts``, built once."""
        return self._get_or_build(self._stacks, ts.tobytes(), build)

    def _get_or_build(self, table: dict, key, build: Callable):
        # build outside the lock: a profile stack's build looks up bundles
        with self._lock:
            hit = table.get(key)
        if hit is not None:
            return hit
        value = build()
        with self._lock:
            return table.setdefault(key, value)


@dataclass(frozen=True)
class QtBundle:
    """Per-time derived matrices, computed once and reused.

    ``mehler_cov`` is (Q_t^{-1} - Q_inf^{-1})^{-1}, the covariance of the
    recentred Gaussian hidden inside the kernel, or None where it is not
    representable: near equilibrium the difference of inverses collapses to
    rounding noise, and None tells the quadrature layer to integrate against
    the invariant measure instead.
    """

    t: float
    qt: np.ndarray
    qt_chol: np.ndarray
    qt_inv: np.ndarray
    qt_logdet: float
    exp_tb: np.ndarray
    dt: np.ndarray
    inv_gap: np.ndarray          # Q_t^{-1} - Q_inf^{-1}  (SPD for finite t)
    mehler_cov: "np.ndarray | None"


def _build_qt_bundle(family: CovarianceFamily, t: float) -> QtBundle:
    model = family.model
    qt = cov_qt(model, t)
    chol = np.linalg.cholesky(qt)
    qt_inv = _chol_inverse(chol)
    qt_logdet = 2.0 * float(np.log(np.diag(chol)).sum())
    exp_tb = matrix_exp(model.drift * t)
    dt = dt_matrix(model, family, t)
    inv_gap = 0.5 * ((qt_inv - family.qinf_inv) + (qt_inv - family.qinf_inv).T)
    mehler_cov = None
    try:
        gap_chol = np.linalg.cholesky(inv_gap)
    except np.linalg.LinAlgError:
        gap_chol = None
    if gap_chol is not None:
        mehler_cov = _chol_inverse(gap_chol)
        if not np.isfinite(mehler_cov).all():
            mehler_cov = None
    return QtBundle(
        t=t,
        qt=qt,
        qt_chol=chol,
        qt_inv=qt_inv,
        qt_logdet=qt_logdet,
        exp_tb=exp_tb,
        dt=dt,
        inv_gap=inv_gap,
        mehler_cov=mehler_cov,
    )


def _chol_inverse(chol: np.ndarray) -> np.ndarray:
    """Inverse of A = L L^T from its Cholesky factor, symmetrized."""
    n = chol.shape[0]
    linv = np.linalg.solve(chol, np.eye(n))
    inv = linv.T @ linv
    return 0.5 * (inv + inv.T)


def _lyapunov_qinf(model: OUModel) -> np.ndarray:
    """Q_inf from drift X + X drift^T = -diffusion, residual-checked.

    scipy's Schur-based solve, symmetrized; the residual must stay within
    1e-10 * ||diffusion||_F before the solution is accepted.
    """
    try:
        x = solve_continuous_lyapunov(model.drift, -model.diffusion)
    except np.linalg.LinAlgError as exc:
        raise SolveFailure(f"Lyapunov solve failed: {exc}") from None
    qinf = 0.5 * (x + x.T)
    residual = model.drift @ qinf + qinf @ model.drift.T + model.diffusion
    res_norm = float(np.linalg.norm(residual))
    gate = _LYAP_RESIDUAL_TOL * max(float(np.linalg.norm(model.diffusion)), 1e-300)
    if res_norm > gate:
        raise SolveFailure(
            f"Lyapunov residual {res_norm:.3e} exceeds gate {gate:.3e}"
        )
    return qinf


def cov_qinf(model: OUModel) -> CovarianceFamily:
    """Equilibrium covariance family built on the residual-checked Q_inf."""
    qinf = _lyapunov_qinf(model)
    try:
        chol = np.linalg.cholesky(qinf)
    except np.linalg.LinAlgError:
        raise SolveFailure("equilibrium covariance not positive definite") from None
    qinf_inv = _chol_inverse(chol)
    qinf_logdet = 2.0 * float(np.log(np.diag(chol)).sum())
    diffusion_chol = np.linalg.cholesky(model.diffusion)
    return CovarianceFamily(
        model=model,
        qinf=qinf,
        qinf_inv=qinf_inv,
        qinf_logdet=qinf_logdet,
        qinf_chol=chol,
        qinf_opnorm=float(np.linalg.norm(qinf, 2)),
        diffusion_chol=diffusion_chol,
        diffusion_logdet=2.0 * float(np.log(np.diag(diffusion_chol)).sum()),
    )


def mixing_time(model: OUModel) -> float:
    """1 / |spectral abscissa of the drift| -- the slowest relaxation scale."""
    eigs = np.linalg.eigvals(model.drift)
    return 1.0 / abs(float(eigs.real.max()))


# ---------------------------------------------------------------------------
# drift-adjoint flow and quadratic form
# ---------------------------------------------------------------------------

def dt_matrix(model: OUModel, family: CovarianceFamily, t: float) -> np.ndarray:
    """Similarity-transported adjoint flow Qinf e^{-t drift^T} Qinf^{-1}.

    Defined for every finite t (positive, negative or zero); ``t = 0`` is the
    identity exactly, and the family satisfies the flow property
    D_s D_t = D_{s+t}.
    """
    t = float(t)
    if not math.isfinite(t):
        raise ValidationError(f"dt_matrix needs finite t, got {t}")
    if t == 0.0:
        return np.eye(model.n)
    out = family.qinf @ matrix_exp(-t * model.drift.T) @ family.qinf_inv
    if not np.isfinite(out).all():
        raise NonFinite(f"adjoint flow overflowed at t = {t:g}")
    return out


def dtx_ratio_check(
    model: OUModel,
    family: CovarianceFamily,
    samples: Iterable,
) -> tuple:
    """Fitted constants for |x - D_t x| / (|t| |x|) over a sample set.

    Input: iterable of (t, x) with 0 < |t| <= 1 and x != 0.  Returns
    (c_low, c_high), the min and max observed ratio; both are positive for
    any sane model and bracket 1 loosely on the standard preset.
    """
    lo = math.inf
    hi = -math.inf
    count = 0
    for t, x in samples:
        t = float(t)
        x = np.asarray(x, dtype=float).reshape(model.n)
        if t == 0.0 or not np.any(x):
            raise DegenerateSample(f"ratio undefined at t = {t}, x = {x}")
        if abs(t) > 1.0:
            raise TimeOutOfRegime(f"|t| = {abs(t):g} > 1 outside comparison range")
        gap = x - dt_matrix(model, family, t) @ x
        ratio = float(np.linalg.norm(gap)) / (abs(t) * float(np.linalg.norm(x)))
        lo = min(lo, ratio)
        hi = max(hi, ratio)
        count += 1
    if count == 0:
        raise DegenerateSample("empty sample set")
    return (lo, hi)


def quadratic_R(family: CovarianceFamily, x) -> "float | np.ndarray":
    """R(x) = 0.5 <Qinf^{-1} x, x>, evaluated as 0.5 |L^{-1} x|^2.

    Going through the Cholesky factor keeps the result >= 0 exactly.
    Accepts a single point (shape (n,)) or a batch (shape (m, n)).
    """
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != family.model.n:
        raise ValidationError(
            f"points have dimension {pts.shape[1]}, model has {family.model.n}"
        )
    z = np.linalg.solve(family.qinf_chol, pts.T)
    vals = 0.5 * np.einsum("ij,ij->j", z, z)
    return float(vals[0]) if single else vals


# ---------------------------------------------------------------------------
# Gaussian measures and densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianMeasure:
    """Centered-or-not Gaussian with cached Cholesky and normalizer."""

    mean: np.ndarray
    covariance: np.ndarray
    log_norm_const: float = field(init=False)
    _chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.covariance, dtype=float)
        n = mean.size
        if cov.shape != (n, n):
            raise ValidationError(f"covariance shape {cov.shape} != ({n}, {n})")
        try:
            chol = np.linalg.cholesky(0.5 * (cov + cov.T))
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite("measure covariance not positive definite") from None
        logdet = 2.0 * float(np.log(np.diag(chol)).sum())
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", 0.5 * (cov + cov.T))
        object.__setattr__(self, "_chol", chol)
        object.__setattr__(
            self, "log_norm_const", -0.5 * (n * math.log(2.0 * math.pi) + logdet)
        )

    @property
    def dim(self) -> int:
        return self.mean.size

    def logpdf(self, x) -> "float | np.ndarray":
        pts = np.asarray(x, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts) - self.mean
        z = np.linalg.solve(self._chol, pts.T)
        out = self.log_norm_const - 0.5 * np.einsum("ij,ij->j", z, z)
        return float(out[0]) if single else out

    def pdf(self, x) -> "float | np.ndarray":
        return np.exp(self.logpdf(x))

    def interval_mass(self, lo: float, hi: float) -> float:
        """Exact mass of [lo, hi] (one-dimensional measures only)."""
        if self.dim != 1:
            raise ValidationError("interval_mass is one-dimensional only")
        sd = float(self._chol[0, 0])
        m = float(self.mean[0])
        return float(ndtr((hi - m) / sd) - ndtr((lo - m) / sd))


def invariant_measure(family: CovarianceFamily) -> GaussianMeasure:
    """The invariant Gaussian measure of the semigroup."""
    return GaussianMeasure(np.zeros(family.model.n), family.qinf)


def gamma_logdensity(
    model: OUModel,
    t: float,
    x,
    family: "CovarianceFamily | None" = None,
) -> "float | np.ndarray":
    """log density of the centered Gaussian with covariance Q_t.

    ``t = inf`` gives the invariant density (requires ``family``, or one is
    built on the fly).  Always evaluated in log space; the linear-scale
    wrapper just exponentiates.
    """
    t = float(t)
    if math.isinf(t):
        fam = family if family is not None else cov_qinf(model)
        cov = fam.qinf
        chol = fam.qinf_chol
        logdet = fam.qinf_logdet
    else:
        if t <= 0.0:
            raise ValidationError(f"gamma density needs t > 0, got {t}")
        if family is not None:
            bundle = family.qt_bundle(t)
            chol = bundle.qt_chol
            logdet = bundle.qt_logdet
        else:
            cov = cov_qt(model, t)
            chol = np.linalg.cholesky(cov)
            logdet = 2.0 * float(np.log(np.diag(chol)).sum())
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    z = np.linalg.solve(chol, pts.T)
    out = (
        -0.5 * model.n * math.log(2.0 * math.pi)
        - 0.5 * logdet
        - 0.5 * np.einsum("ij,ij->j", z, z)
    )
    return float(out[0]) if single else out


def gamma_density(
    model: OUModel,
    t: float,
    x,
    family: "CovarianceFamily | None" = None,
) -> "float | np.ndarray":
    return np.exp(gamma_logdensity(model, t, x, family))
