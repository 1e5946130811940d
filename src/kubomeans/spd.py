"""Symmetric and positive semidefinite matrix primitives.

Everything downstream (connection evaluation, the axiom harness) works on
real symmetric matrices.  An ``SpdMatrix`` is validated once: that gives its
PSD verdict, whether it is strictly positive definite, its smallest
eigenvalue and its spectral norm, and code that receives an ``SpdMatrix``
trusts all four instead of wrapping or measuring the matrix again.  A
matrix built from raw entries is validated when it is built.  From
dimension ``CERTIFY_MIN_DIM`` up, the strict-PD certificate below comes
first: one Cholesky factorization, far cheaper than an eigensolve.  When it
holds, the matrix is strictly PD and its smallest eigenvalue, spectral norm
and floor come from one eigensolve the first time one of them is read.  A
smaller matrix, or one whose certificate fails, runs that eigensolve at
once, so a matrix that is not PSD raises NotPsdError when it is built.  A
value that evaluation builds PSD by construction (``SpdMatrix._built``, a
congruence M diag(g) M^T with g >= 0) is symmetrized and checked finite at
once, but its spectrum is computed the first time a spectral fact is read,
under the same acceptance rule, so a spectrum that fails it raises
NotPsdError then.  An ``SpdStack`` validates n matrices of one dimension
with one stacked eigensolve and hands out its members as ``SpdMatrix``
objects without measuring them again.
Because an ``SpdMatrix`` is immutable, connection evaluation keeps the last
pair it validated from raw entries and reuses it, with the congruence basis
derived from it, for the next call whose raw inputs have the same shape and
exactly the same float64 bits as the stored, symmetrized entries
(compared as uint64, so -0.0 is not 0.0); one pair is retained, and an
array mutated in place misses.  Entries must be real and finite: a complex
entry with a nonzero imaginary part raises ValueError, as a non-finite one
does.
Tolerances follow the scale conventions

* PSD acceptance: smallest eigenvalue >= ``-1e-10 * (1 + ||A||)``
  (spectral norm),
* strict positivity floor: ``eig_floor = 1e-13 * ||A||``; a matrix is
  strictly PD when its smallest eigenvalue exceeds it,
* strict-PD certificate: a Cholesky factorization of ``A - sI`` that runs
  to completion, ``s = (1e-12 + gamma_{d+1} / (1 - 2 gamma_{d+1})) tr(A)``
  plus an underflow term, proves ``lambda_min(A) > 1e-12 tr(A)``, ten
  times the floor (Rump, "Verification of positive definiteness", BIT 46,
  2006; ``_certified_pd``); failing proves nothing, and the eigensolve
  decides.

Random inputs (``random_spd``, ``random_spd_stack``) come from Philox keyed
directly by the seed.  A call draws through one bit generator that it
re-keys for each seed, bit for bit as a fresh generator per seed would
draw; no generator outlives the call, so concurrent calls share no state.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EigenSolverError, NotPsdError, ShapeError

__all__ = [
    "SymMatrix",
    "SpdMatrix",
    "SpdStack",
    "spectral_norm",
    "spectral_decompose",
    "congruence",
    "loewner_leq",
    "random_spd",
    "random_spd_stack",
    "load_matrix",
    "save_matrix",
    "as_entries",
]

PSD_TOL_FACTOR = 1e-10
EIG_FLOOR_FACTOR = 1e-13

# Asymmetry beyond this (relative to the norm) draws a warning on CSV load.
CSV_ASYMMETRY_WARN = 1e-8

# The smallest dimension whose strict-PD verdict a shifted Cholesky tries to
# certify.  Below it one eigvalsh costs less than the certificate's fixed
# NumPy overhead (the Cholesky wrapper, the trace and the shift); both took
# about 10 us at d = 12 on a 2-CPU Xeon guest with BLAS at one thread.
CERTIFY_MIN_DIM = 12

_UNIT_ROUNDOFF = 2.0**-53
_SUBNORMAL_MIN = 2.0**-1074


def _real(a, copy: bool) -> np.ndarray:
    """`a` as a float64 array, a new one when `copy` is set.

    Entries with a nonzero imaginary part raise ValueError: a cast to float
    would drop it and compute with another matrix.
    """
    arr = np.asarray(a)
    if arr.dtype.kind == "c":
        if np.any(arr.imag):
            raise ValueError("matrix entries must be real")
        arr = arr.real
    return np.array(arr, dtype=float) if copy else np.asarray(arr, dtype=float)


def as_entries(a) -> np.ndarray:
    """Return the raw ndarray behind `a` (SymMatrix, SpdMatrix or array-like)."""
    if isinstance(a, SymMatrix):
        return a.entries
    return _real(a, copy=False)


def _validated_square(arr: np.ndarray) -> np.ndarray:
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ShapeError("matrix dimension must be at least 1")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return arr


def _symmetrized(arr: np.ndarray) -> np.ndarray:
    """(arr + arr^T) / 2 over the last two axes, halved before the sum.

    The package's one symmetrization: of inputs, congruence products and
    values alike.

    0.5 * (arr + arr^T) overflows where two finite entries add up past the
    float64 range (a diagonal entry above about 9e307 does); the sum of the
    halves cannot.  Halving is exact above the subnormal range, so there the
    bits are those of 0.5 * (arr + arr^T); a subnormal entry may lose its
    last bit.
    """
    half = 0.5 * arr
    return half + half.swapaxes(-1, -2)


def _certified_pd(arr: np.ndarray) -> bool:
    """True when one Cholesky of ``A - sI`` proves ``lambda_min(A) > 1e-12 tr(A)``.

    Rump ("Verification of positive definiteness", BIT 46, 2006): if
    floating-point Cholesky runs to completion on ``fl(A - cI)`` with
    ``c >= gamma_{d+1} / (1 - 2 gamma_{d+1}) tr(A)`` plus an underflow term
    in the smallest subnormal eta, A is positive definite.  The shift here
    adds ``10 * EIG_FLOOR_FACTOR * tr(A)`` to that bound, and it takes the
    underflow term as ``4d (2(d + 2) + max a_ii) eta``, so success proves
    ``lambda_min(A) > 1e-12 tr(A) >= 1e-12 ||A||`` (less the shift's own
    rounding, relative (d + 1)u): ten times the strict positivity floor,
    and far above eigvalsh's own error, so an eigensolve also rates A
    strictly PD.  False proves nothing.
    """
    d = arr.shape[0]
    diag = arr.diagonal()
    gamma = (d + 1) * _UNIT_ROUNDOFF / (1.0 - (d + 1) * _UNIT_ROUNDOFF)
    c = 10.0 * EIG_FLOOR_FACTOR + gamma / (1.0 - 2.0 * gamma)
    # c scales the diagonal before the sum, so a finite matrix's shift
    # cannot overflow; eta multiplies first for the same reason
    underflow = 4 * d * _SUBNORMAL_MIN * (2 * (d + 2) + float(diag.max()))
    shift = float((c * diag).sum()) + underflow
    if not shift > 0.0:
        return False  # tr(A) <= 0: not PD
    shifted = arr.copy()
    shifted.flat[:: d + 1] -= shift
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _accept_psd(eigs: np.ndarray):
    """Smallest eigenvalues and spectral norms of ascending spectra (..., d).

    The one PSD acceptance rule, for a matrix and for a stack alike: a
    spectrum passes when its smallest eigenvalue is at least
    ``-1e-10 * (1 + ||A||)``.  The norm is the larger of the two ends.  The
    first spectrum that fails raises NotPsdError, naming its stack index
    when ``eigs`` holds one spectrum per row.
    """
    # .T[0] keeps a single spectrum's ends NumPy scalars, whose arithmetic
    # is cheaper than that of the 0-d arrays eigs[..., 0] would give
    lam_min, lam_max = eigs.T[0], eigs.T[-1]
    norm = np.maximum(lam_max, -lam_min)
    tol = PSD_TOL_FACTOR * (1.0 + norm)
    bad = lam_min < -tol
    if bad.any() if eigs.ndim > 1 else bad:
        i = int(bad.argmax())
        index = i if eigs.ndim > 1 else None
        low, bound = float(np.ravel(lam_min)[i]), float(np.ravel(tol)[i])
        what = "matrix" if index is None else f"stack member {index}"
        raise NotPsdError(
            f"{what} is not PSD: min eigenvalue {low:.6g} < -{bound:.6g}",
            min_eigenvalue=low,
            tolerance=bound,
            index=index,
        )
    return lam_min, norm


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """A real symmetric matrix with exactly symmetrized storage.

    The constructor accepts any square array and stores ``(a + a.T) / 2``
    as the sum of the halves, which no finite input overflows;
    floating-point addition is commutative, so ``entries[i, j] ==
    entries[j, i]`` holds exactly.  The stored array is marked read-only.
    """

    entries: np.ndarray

    def __post_init__(self):
        sym = _symmetrized(_validated_square(_real(self.entries, copy=True)))
        sym.flags.writeable = False
        object.__setattr__(self, "entries", sym)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.entries.astype(dtype)
        return self.entries


class _OnFirstRead:
    """An attribute computed on its first read, then kept as a plain one.

    A non-data descriptor: once ``compute(obj)`` has stored the attribute in
    the instance dict (with any others computed alongside it), reads find it
    there and never reach the descriptor again.  This is
    ``functools.cached_property`` without its lock, which Python 3.11 shares
    among all instances, so it would serialize threads; concurrent first
    reads may both compute, and store the same value.
    """

    def __init__(self, compute):
        self.compute = compute

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        self.compute(obj)
        return obj.__dict__[self.name]


@dataclass(frozen=True, eq=False)
class SpdMatrix(SymMatrix):
    """A positive semidefinite matrix accepted within ``1e-10 * (1 + ||A||)``.

    Construction rejects matrices whose smallest eigenvalue falls below
    ``-1e-10 * (1 + ||A||)`` and records whether the matrix is strictly
    positive definite (smallest eigenvalue above ``eig_floor``), its
    smallest eigenvalue and its spectral norm, which ``spectral_norm`` then
    returns without another eigensolve.  From dimension ``CERTIFY_MIN_DIM``
    up, a Cholesky factorization of ``A - sI`` that runs to completion
    proves ``lambda_min(A) > 1e-12 tr(A) >= 1e-12 ||A||`` (Rump, BIT 46,
    2006), so ``is_strictly_pd`` is True at once and the other facts come
    from one eigensolve on first read; a failed certificate, or a smaller
    matrix, runs that eigensolve during construction.  A value ``_built``
    PSD by construction records every fact, and is checked against the
    same rule, the first time one of them is read.
    """

    def __post_init__(self):
        super().__post_init__()
        if self.dim >= CERTIFY_MIN_DIM and _certified_pd(self.entries):
            object.__setattr__(self, "is_strictly_pd", True)
        else:
            self._measure()

    def _measure(self) -> None:
        lam_min, norm = _accept_psd(np.linalg.eigvalsh(self.entries))
        self._accept(float(lam_min), float(norm))

    def _accept(self, lam_min: float, norm: float) -> None:
        floor = EIG_FLOOR_FACTOR * norm
        object.__setattr__(self, "eig_floor", floor)
        object.__setattr__(self, "_lam_min", lam_min)
        object.__setattr__(self, "_norm", norm)
        object.__setattr__(self, "is_strictly_pd", lam_min > floor)

    # instance attributes, set by _measure on first read
    eig_floor = _OnFirstRead(_measure)
    is_strictly_pd = _OnFirstRead(_measure)
    _lam_min = _OnFirstRead(_measure)
    _norm = _OnFirstRead(_measure)

    @classmethod
    def _built(cls, entries):
        """A matrix PSD by construction: symmetrized and checked finite now,
        its spectrum validated on the first read of a spectral fact."""
        m = object.__new__(cls)
        object.__setattr__(m, "entries", entries)
        SymMatrix.__post_init__(m)
        return m

    @classmethod
    def _member(cls, entries, lam_min: float, norm: float):
        """A matrix whose spectrum a stack's validation already checked."""
        m = object.__new__(cls)
        object.__setattr__(m, "entries", entries)
        m._accept(lam_min, norm)
        return m

    @property
    def min_eigenvalue(self) -> float:
        return self._lam_min


@dataclass(frozen=True, eq=False)
class SpdStack:
    """n positive semidefinite d x d matrices, validated by one eigensolve.

    Construction takes an (n, d, d) array or a sequence of matrices, stores
    the symmetrized stack read-only and checks every spectrum by the rule
    ``SpdMatrix`` uses; a failing member raises NotPsdError carrying its
    index.  ``norms``, ``min_eigenvalues``, ``eig_floors`` and ``strictly_pd``
    hold one entry per member, and ``stack[i]`` is member i as an
    ``SpdMatrix`` that trusts them.  A stack ``_built`` PSD by construction
    runs that eigensolve, and the check, the first time one of them is read.
    """

    entries: np.ndarray

    def __post_init__(self):
        self._symmetrize()
        self._measure()

    def _symmetrize(self) -> None:
        arr = _real(self.entries, copy=True)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ShapeError(
                f"expected a stack of square matrices, got shape {arr.shape}"
            )
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ShapeError("a stack needs a matrix of dimension at least 1")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        sym = _symmetrized(arr)
        sym.flags.writeable = False
        object.__setattr__(self, "entries", sym)

    def _measure(self) -> None:
        lam_min, norms = _accept_psd(np.linalg.eigvalsh(self.entries))
        floors = EIG_FLOOR_FACTOR * norms
        for name, value in (
            ("min_eigenvalues", lam_min),
            ("norms", norms),
            ("eig_floors", floors),
            ("strictly_pd", lam_min > floors),
        ):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    # instance attributes, set by _measure on first read
    min_eigenvalues = _OnFirstRead(_measure)
    norms = _OnFirstRead(_measure)
    eig_floors = _OnFirstRead(_measure)
    strictly_pd = _OnFirstRead(_measure)

    @classmethod
    def _built(cls, entries):
        """A stack PSD by construction: symmetrized and checked finite now,
        its spectra validated on the first read of a spectral fact."""
        s = object.__new__(cls)
        object.__setattr__(s, "entries", entries)
        s._symmetrize()
        return s

    def __len__(self) -> int:
        return self.entries.shape[0]

    def __getitem__(self, i: int) -> SpdMatrix:
        return SpdMatrix._member(
            self.entries[i], float(self.min_eigenvalues[i]), float(self.norms[i])
        )

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.entries.astype(dtype)
        return self.entries


def spectral_norm(a):
    """Spectral norm of a symmetric matrix (largest absolute eigenvalue).

    An ``SpdMatrix`` returns the norm its validation computed, equal to the
    value an eigensolve of its entries gives, and an ``SpdStack`` its array
    of member norms (a value built PSD by construction validates itself on
    that first read); anything else is measured, an (n, d, d) array giving one
    norm per matrix.
    """
    if isinstance(a, SpdMatrix):
        return a._norm
    if isinstance(a, SpdStack):
        return a.norms
    arr = as_entries(a)
    if arr.shape == (1, 1):
        return abs(float(arr[0, 0]))
    norms = np.max(np.abs(np.linalg.eigvalsh(arr)), axis=-1)
    return float(norms) if arr.ndim == 2 else norms


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


def congruence(c, a) -> SymMatrix:
    """Congruence transform ``C @ A @ C`` for symmetric C, re-symmetrized."""
    carr = as_entries(c)
    aarr = as_entries(a)
    _validated_square(carr)
    if carr.shape != aarr.shape:
        raise ShapeError(f"dimension mismatch: C is {carr.shape}, A is {aarr.shape}")
    carr = _symmetrized(carr)
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


def _orthogonal(g: np.ndarray) -> np.ndarray:
    """The Q factors of square blocks (..., d, d), R-diagonal signs positive.

    Fixing the gauge makes the factorization, and hence the matrix, unique.
    numpy factors a stack block by block with the routine it uses for one
    block, so each factor is bitwise the one its block alone would give.
    """
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def _random_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    return _orthogonal(rng.normal(size=(dim, dim)))


def _keyed_generators(keys):
    """One Philox generator per call, re-keyed in place for each key.

    Yields, for each key in [0, 2**128), the same ``Generator``, its Philox
    bit generator set to that key with a zero counter and empty buffers:
    draws from it equal those of ``Generator(Philox(key=key))`` bit for bit,
    without building (and seeding from OS entropy) a generator per key.
    Draw from each yield before taking the next.
    """
    bit_gen = np.random.Philox(0)
    rng = np.random.Generator(bit_gen)
    state = bit_gen.state
    for key in map(operator.index, keys):
        if not 0 <= key < 2**128:
            raise ValueError(f"Philox key {key} must lie in [0, 2**128)")
        state["state"]["key"][:] = (key & (2**64 - 1), key >> 64)
        state["state"]["counter"][:] = 0
        state["buffer_pos"] = 4
        state["has_uint32"] = 0
        bit_gen.state = state
        yield rng


def random_spd_stack(dim: int, cond: float, seeds) -> SpdStack:
    """``random_spd`` for each seed, drawn per seed and factored as one stack.

    Member i equals ``random_spd(dim, cond, seeds[i])`` bit for bit: the
    Philox draws stay per seed, from one bit generator re-keyed for each
    (``_keyed_generators``), and the QR factorization, the product
    ``Q diag(lam) Q^T`` and the validation run once on the stack.
    """
    if dim < 1:
        raise ShapeError("dim must be at least 1")
    if cond < 1.0:
        raise ValueError("cond must be >= 1")
    half = 0.5 * np.log(cond)
    lam = np.empty((len(seeds), dim))
    g = np.empty((len(seeds), dim, dim))
    for i, rng in enumerate(_keyed_generators(seeds)):
        lam[i] = np.exp(rng.uniform(-half, half, size=dim))
        g[i] = rng.normal(size=(dim, dim))
    q = _orthogonal(g)
    a = (q * lam[:, None, :]) @ q.swapaxes(1, 2)
    return SpdStack(a)


def random_spd(dim: int, cond: float, seed: int) -> SpdMatrix:
    """Deterministic random SPD matrix with condition number <= `cond`.

    Uses the counter-based Philox4x64-10 generator keyed directly by `seed`
    (no seed scrambling; a seed outside [0, 2**128) raises ValueError), so
    any implementation of Philox reproduces the same stream: `dim` uniforms
    give eigenvalues log-uniform on ``[cond**-0.5, cond**0.5]``, then a
    `dim` x `dim` standard-normal block is QR-factored (R-diagonal signs
    fixed positive) into the conjugating orthogonal basis.
    """
    return random_spd_stack(dim, cond, (seed,))[0]


def load_matrix(path) -> SymMatrix:
    """Read a matrix from headerless comma-separated text.

    One row per line, float64 entries.  The matrix is symmetrized as
    ``(A + A.T) / 2``; asymmetry beyond ``1e-8 * ||A||`` draws a warning.
    """
    try:
        arr = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except ValueError as exc:
        raise ShapeError(f"could not parse matrix CSV {path}: {exc}") from exc
    sym = SymMatrix(arr)
    skew = float(np.linalg.norm(0.5 * (arr - arr.T), 2))
    if skew > CSV_ASYMMETRY_WARN * max(spectral_norm(sym), 1e-300):
        warnings.warn(
            f"matrix from {path} has asymmetry {skew:.3g} "
            f"(> {CSV_ASYMMETRY_WARN:g} * ||A||); symmetrizing",
            stacklevel=2,
        )
    return sym


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
