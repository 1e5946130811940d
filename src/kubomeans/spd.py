"""Symmetric and positive semidefinite matrix primitives.

Everything downstream (connection evaluation, the axiom harness) works on
real symmetric matrices whose spectral calculus is computed by
eigendecomposition: ``basis @ diag(f(eigenvalues)) @ basis.T`` with the
result re-symmetrized.  An ``SpdMatrix`` is validated once, when it is
built: that one spectrum gives its PSD verdict, its smallest eigenvalue and
its spectral norm, and code that receives an ``SpdMatrix`` trusts all three
instead of wrapping or measuring the matrix again.  Tolerances follow the
scale conventions

* PSD acceptance: smallest eigenvalue >= ``-1e-10 * (1 + ||A||)``
  (spectral norm),
* strict positivity floor: ``eig_floor = 1e-13 * ||A||`` unless overridden.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import EigenSolverError, NotPsdError, ShapeError, SpectralDomainError

__all__ = [
    "SymMatrix",
    "SpdMatrix",
    "spectral_norm",
    "spectral_decompose",
    "apply_spectral_function",
    "matrix_power",
    "congruence",
    "loewner_leq",
    "random_spd",
    "load_matrix",
    "save_matrix",
    "as_entries",
]

PSD_TOL_FACTOR = 1e-10
EIG_FLOOR_FACTOR = 1e-13

# Asymmetry beyond this (relative to the norm) draws a warning on CSV load.
CSV_ASYMMETRY_WARN = 1e-8


def as_entries(a) -> np.ndarray:
    """Return the raw ndarray behind `a` (SymMatrix, SpdMatrix or array-like)."""
    if isinstance(a, SymMatrix):
        return a.entries
    return np.asarray(a, dtype=float)


def _validated_square(arr: np.ndarray) -> np.ndarray:
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ShapeError("matrix dimension must be at least 1")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """A real symmetric matrix with exactly symmetrized storage.

    The constructor accepts any square array and stores ``(a + a.T) / 2``;
    floating-point addition is commutative, so ``entries[i, j] == entries[j, i]``
    holds exactly.  The stored array is marked read-only.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = _validated_square(np.array(self.entries, dtype=float))
        sym = 0.5 * (arr + arr.T)
        sym.flags.writeable = False
        object.__setattr__(self, "entries", sym)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.entries.astype(dtype)
        return self.entries


@dataclass(frozen=True, eq=False)
class SpdMatrix(SymMatrix):
    """A positive semidefinite matrix accepted within ``1e-10 * (1 + ||A||)``.

    Construction rejects matrices whose smallest eigenvalue falls below
    ``-1e-10 * (1 + ||A||)`` and records whether the matrix is strictly positive
    definite (smallest eigenvalue above ``eig_floor``) and its spectral norm,
    which ``spectral_norm`` then returns without another eigensolve.
    """

    eig_floor: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        super().__post_init__()
        # One spectrum gives both the norm and the smallest eigenvalue; it is
        # ascending, so the largest absolute value is at one of its ends.
        eigs = np.linalg.eigvalsh(self.entries)
        norm = float(max(eigs[-1], -eigs[0]))
        if self.eig_floor is None:
            object.__setattr__(self, "eig_floor", EIG_FLOOR_FACTOR * norm)
        lam_min = float(eigs[0])
        tol = PSD_TOL_FACTOR * (1.0 + norm)
        if lam_min < -tol:
            raise NotPsdError(
                f"matrix is not PSD: min eigenvalue {lam_min:.6g} < -{tol:.6g}",
                min_eigenvalue=lam_min,
                tolerance=tol,
            )
        object.__setattr__(self, "_lam_min", lam_min)
        object.__setattr__(self, "_norm", norm)

    @property
    def min_eigenvalue(self) -> float:
        return self._lam_min

    @property
    def is_strictly_pd(self) -> bool:
        return self._lam_min > self.eig_floor

    @cached_property
    def _eigh(self):
        return spectral_decompose(self)


def spectral_norm(a) -> float:
    """Spectral norm of a symmetric matrix (largest absolute eigenvalue).

    An ``SpdMatrix`` returns the norm its validation computed, equal to the
    value an eigensolve of its entries gives; anything else is measured.
    """
    if isinstance(a, SpdMatrix):
        return a._norm
    arr = as_entries(a)
    if arr.shape == (1, 1):
        return abs(float(arr[0, 0]))
    return float(np.max(np.abs(np.linalg.eigvalsh(arr))))


def spectral_decompose(a):
    """Eigendecomposition of a symmetric matrix.

    Returns
    -------
    eigenvalues : ndarray
        Ascending eigenvalues.
    basis : ndarray
        Orthonormal eigenvectors as columns, ``a == basis @ diag(w) @ basis.T``
        up to round-off.

    Raises
    ------
    EigenSolverError
        If the solver does not converge; the error carries the dimension and
        a condition estimate when one can still be computed.
    """
    arr = as_entries(a)
    _validated_square(arr)
    try:
        w, v = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        cond = None
        try:
            s = np.linalg.svd(arr, compute_uv=False)
            if s[-1] > 0:
                cond = float(s[0] / s[-1])
        except np.linalg.LinAlgError:
            pass
        raise EigenSolverError(
            f"symmetric eigensolver failed on a {arr.shape[0]}x{arr.shape[0]} matrix",
            dim=arr.shape[0],
            cond_estimate=cond,
        ) from exc
    return w, v


def apply_spectral_function(a: SpdMatrix, fn, name: str | None = None) -> SymMatrix:
    """Apply a scalar function to the spectrum of `a`.

    `fn` receives the 1-d array of eigenvalues and must return finite values
    elementwise; a non-finite value raises SpectralDomainError naming the
    offending eigenvalue.
    """
    if not isinstance(a, SpdMatrix):
        a = SpdMatrix(as_entries(a))
    w, v = a._eigh
    fw = np.asarray(fn(w), dtype=float)
    if fw.shape != w.shape:
        raise ShapeError("spectral function must map eigenvalues elementwise")
    bad = ~np.isfinite(fw)
    if np.any(bad):
        lam = float(w[np.argmax(bad)])
        label = name or getattr(fn, "__name__", "function")
        raise SpectralDomainError(
            f"{label} is not finite at eigenvalue {lam:.6g}", eigenvalue=lam
        )
    return SymMatrix((v * fw) @ v.T)


def matrix_power(a: SpdMatrix, alpha: float) -> SpdMatrix:
    """Fractional power ``A**alpha`` for ``alpha in [0, 1]``.

    Zero eigenvalues (at or below the floor) map to 0 under ``0**alpha``; for
    ``alpha == 0`` the result is the projection onto the numerical range of A
    (the identity when A is strictly positive definite).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if not isinstance(a, SpdMatrix):
        a = SpdMatrix(as_entries(a))
    if alpha == 1.0:
        return a
    if alpha == 0.0 and a.is_strictly_pd:
        return SpdMatrix(np.eye(a.dim), eig_floor=a.eig_floor)
    floor = max(a.eig_floor, 0.0)

    def power(w):
        w = np.maximum(w, 0.0)
        out = np.zeros_like(w)
        pos = w > floor
        out[pos] = w[pos] ** alpha if alpha > 0.0 else 1.0
        return out

    return SpdMatrix(apply_spectral_function(a, power, name="power").entries)


def congruence(c, a) -> SymMatrix:
    """Congruence transform ``C @ A @ C`` for symmetric C, re-symmetrized."""
    carr = as_entries(c)
    aarr = as_entries(a)
    _validated_square(carr)
    if carr.shape != aarr.shape:
        raise ShapeError(f"dimension mismatch: C is {carr.shape}, A is {aarr.shape}")
    if not np.array_equal(carr, carr.T):
        carr = 0.5 * (carr + carr.T)
    return SymMatrix(carr @ aarr @ carr)


def loewner_leq(a, b, tol: float = 1e-10) -> bool:
    """Loewner order test ``A <= B`` within a relative tolerance.

    True when ``lambda_min(B - A) >= -tol * (1 + ||A|| + ||B||)`` with
    spectral norms.
    """
    aarr = as_entries(a)
    barr = as_entries(b)
    if aarr.shape != barr.shape:
        raise ShapeError(f"dimension mismatch: {aarr.shape} vs {barr.shape}")
    gap = float(np.linalg.eigvalsh(barr - aarr)[0])
    scale = 1.0 + spectral_norm(aarr) + spectral_norm(barr)
    return gap >= -tol * scale


def _random_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    # Fix the gauge so the factorization (and hence the matrix) is unique.
    return q * np.sign(np.diag(r))


def _random_spd_from(rng: np.random.Generator, dim: int, cond: float) -> np.ndarray:
    half = 0.5 * np.log(cond)
    lam = np.exp(rng.uniform(-half, half, size=dim))
    q = _random_orthogonal(rng, dim)
    a = (q * lam) @ q.T
    return 0.5 * (a + a.T)


def random_spd(dim: int, cond: float, seed: int) -> SpdMatrix:
    """Deterministic random SPD matrix with condition number <= `cond`.

    Uses the counter-based Philox4x64-10 generator keyed directly by `seed`
    (no seed scrambling), so any implementation of Philox reproduces the same
    stream: `dim` uniforms give eigenvalues log-uniform on
    ``[cond**-0.5, cond**0.5]``, then a `dim` x `dim` standard-normal block is
    QR-factored (R-diagonal signs fixed positive) into the conjugating
    orthogonal basis.
    """
    if dim < 1:
        raise ShapeError("dim must be at least 1")
    if cond < 1.0:
        raise ValueError("cond must be >= 1")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    rng = np.random.Generator(np.random.Philox(key=seed))
    return SpdMatrix(_random_spd_from(rng, dim, cond))


def load_matrix(path) -> SymMatrix:
    """Read a matrix from headerless comma-separated text.

    One row per line, float64 entries.  The matrix is symmetrized as
    ``(A + A.T) / 2``; asymmetry beyond ``1e-8 * ||A||`` draws a warning.
    """
    try:
        arr = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except ValueError as exc:
        raise ShapeError(f"could not parse matrix CSV {path}: {exc}") from exc
    _validated_square(arr)
    skew = float(np.linalg.norm(0.5 * (arr - arr.T), 2))
    norm = spectral_norm(0.5 * (arr + arr.T))
    if skew > CSV_ASYMMETRY_WARN * max(norm, 1e-300):
        warnings.warn(
            f"matrix from {path} has asymmetry {skew:.3g} "
            f"(> {CSV_ASYMMETRY_WARN:g} * ||A||); symmetrizing",
            stacklevel=2,
        )
    return SymMatrix(arr)


def save_matrix(stream_or_path, a) -> None:
    """Write a matrix as headerless CSV with shortest round-trip decimals."""
    arr = as_entries(a)
    lines = [",".join(repr(float(v)) for v in row) for row in arr]
    text = "\n".join(lines) + "\n"
    if hasattr(stream_or_path, "write"):
        stream_or_path.write(text)
    else:
        with open(stream_or_path, "w", encoding="ascii") as fh:
            fh.write(text)
