"""Operator connections: weighted harmonic means, measure-driven evaluation,
representing functions, canonical half-line form, transpose, predicates,
and Lebesgue-type decomposition.

A connection sigma is stored through its associated measure mu on [0, 1]:

    A sigma B = int_[0,1] A !_t B dmu(t),
    A !_t B   = B ((1-t)B + tA)^{-1} A   (evaluated as a congruence, below),

with A !_0 B = A and A !_1 B = B regardless of invertibility.  The scalar
shadow is f(x) = I sigma (xI) evaluated through the same node sets, so matrix
and scalar answers never come from different rules.

``evaluate_many`` evaluates a stack of n pairs and ``evaluate_report`` one
pair, through the same body (``_evaluate``); they differ only in how they
validate their inputs and wrap the result.  Both of its routes run in one
congruence basis (Kubo-Ando): with A + B = L L^T and
L^{-1} A L^{-T} = V diag(mu) V^T, M = L V carries A to diag(a) and B to
diag(b), with a_i and b_i the quadratic forms of A and B at the columns of
M^{-T}, so A !_t B = M diag(a !_t b) M^T.  A measure with a density or
self-similar part is integrated as M diag(g) M^T with
g_i = int a_i !_t b_i dmu, the scalar pair kernel integrated at d spectral
pairs and lifted once.  Every pair has a + b = 1 up to rounding, so the n*d
spectra of a stack go through one integration and one batched lift.  A
measure of atoms only (route "atoms") is the finite sum, in atom order, of
w A and w B at the endpoints, exactly, and of the lift of w (a !_t b) at
each interior atom; it factors A + B only when some atom is interior.

The pairs an evaluation runs on are a ``_Pairs``: one pair, or two stacks,
with the work that depends on the pairs alone computed on first use: the
strict-PD test of A + B, the projection onto range(A + B) of a pair that
fails it, and the congruence bases.  Consecutive one-pair evaluations share
it (``_pair``), input validation included.  One pair is retained, the last
one evaluated, whether it came as raw entries or as ``SpdMatrix`` objects,
since an ``SpdMatrix`` is a function of its entries.  Raw inputs match it
only with the same shape and exactly the same float64 bits as its stored,
symmetrized entries, so an input mutated in place since is validated anew.
Nothing that depends on the measure or the spec is kept: every call
integrates and lifts its own value.  Stacks are not memoized.

A value lifted from spectra g >= 0, plus nonnegative multiples of the
validated inputs, is PSD by construction, as the paper's integral of
harmonic means against a positive measure is: it is built with ``_built``,
which validates its spectrum when a spectral fact (``min_eigenvalue``,
``spectral_norm``, ``eig_floor``, ``is_strictly_pd``) is first read, not
when it is returned.  A value from a g with a negative or NaN entry, and
``parallel_sum`` (a pencil solve, with no g), are validated at once.

Singular inputs: every entry point (``evaluate_report``, ``evaluate_many``,
``parallel_sum`` and the catalog's atom closed forms) runs its kernel
through ``_values``, which runs it directly when A + B is strictly positive
definite (every interior pencil satisfies (1-t)B + tA >= min(t, 1-t)(A + B))
or when the measure does not charge (0, 1).  With A singular and B PD this
returns the limit from above (M3) exactly.  When A + B is singular, the
inputs share the null space N of A + B, which reduces both of them; the
limit from above is then exactly P (A_R sigma B_R) P^T, where P holds the
eigenvectors of A + B above its eigenvalue floor, A_R = P^T A P and
B_R = P^T B P.  Such a pair is evaluated alone on range(A + B), so it leaves
the values of the other pairs of its stack as they are.  The weighted
harmonic mean is the one-atom case, and the canonical half-line form
(``evaluate_canonical``) is ``evaluate`` on the measure ``pushforward_psi``
carries it to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, SingularPencilError
from .measures import (
    HalfLineMeasure,
    UnitMeasure,
    add,
    decompose_measure,
    dirac,
    is_probability,
    is_symmetric,
    pushforward_psi,
    pushforward_theta,
    scale,
    total_mass,
)
from .quadrature import (
    DEFAULT_SPEC,
    QuadratureSpec,
    density_mass,
    integrate_measure,
)
from .spd import SpdMatrix, SpdStack, _symmetrized, as_entries, spectral_decompose

# Unused here; perfbench/tracing.py rebinds these names in each importing
# module.  _run_schedule named the eps shift schedule, which compression onto
# range(A + B) replaced; it stays as a placeholder for the tracer.
from .quadrature import integrate_halfline_density  # noqa: F401
from .spd import spectral_norm  # noqa: F401

_run_schedule = None

__all__ = [
    "Connection",
    "RepFunction",
    "EvalReport",
    "weighted_harmonic",
    "parallel_sum",
    "evaluate",
    "evaluate_report",
    "evaluate_many",
    "representing_function",
    "transpose_rep_function",
    "evaluate_canonical",
    "transpose",
    "is_mean",
    "is_symmetric_connection",
    "symmetrize",
    "add_connections",
    "scale_connection",
    "decompose_connection",
    "mean_convex_decomposition",
]

@dataclass(frozen=True)
class Connection:
    """A connection, carried by its associated measure."""

    measure: UnitMeasure
    label: str | None = None


@dataclass(frozen=True)
class EvalReport:
    """Evaluation result with quadrature accounting.

    ``value`` is an ``SpdMatrix`` from ``evaluate_report`` and the
    ``SpdStack`` of all results from ``evaluate_many``.  When every lifted
    spectrum g is >= 0 the value is PSD by construction and its spectral
    facts are computed, and checked, on first read; otherwise it was
    validated before it was returned.  ``route`` is "atoms" (the finite
    atom sum, lifted atom by atom on the A + B congruence basis) or
    "congruence" (one integration on the spectra of that basis).
    ``compressed`` counts the pairs evaluated on range(A + B), each in an
    integration of its own:
    ``nodes_used`` and ``parts`` cover every integration and
    ``error_estimate`` is the largest.
    """

    value: SpdMatrix | SpdStack
    nodes_used: int
    error_estimate: float
    parts: tuple[tuple[str, int, float], ...]
    route: str = "congruence"
    compressed: int = 0


def _congruence_basis(A: np.ndarray, B: np.ndarray, floors: np.ndarray):
    """Spectra a, b and basis M with A = M diag(a) M^T, B = M diag(b) M^T.

    A + B = L L^T by Cholesky and L^{-1} A L^{-T} = V diag(mu) V^T, so
    M = L V.  The columns w_i of W = L^{-T} V = M^{-T} give a_i = w_i^T A w_i
    and b_i = w_i^T B w_i, the two quadratic forms: each keeps the relative
    accuracy of its own input, where b = 1 - mu would keep only the absolute
    accuracy of mu (a b of 1e-10 would be 1e-6 off).  Factoring A + B rather
    than A keeps a + b = 1 up to rounding however ill-conditioned either
    input is.  ``floors`` (last axis: A's, then B's eig_floor, 0 for a
    strictly PD input) removes the float noise of a singular input: where
    a <= floor_A |w|^2 the direction is in A's null space and a is set to 0
    (b likewise).  The means f(x) ~ 1/|log x| or x**alpha turn noise of
    1e-16 into errors of percents.  A and B may be (n, d, d) stacks: numpy
    factors them matrix by matrix, each bitwise as it would alone.
    """
    try:
        lower = np.linalg.cholesky(A + B)
    except np.linalg.LinAlgError as exc:
        raise SingularPencilError(
            "A + B is singular; inputs share a null direction"
        ) from exc
    inv = np.linalg.inv(lower)
    vecs = np.linalg.eigh(_symmetrized(inv @ A @ inv.swapaxes(-1, -2)))[1]
    w = inv.swapaxes(-1, -2) @ vecs
    a = np.maximum(np.sum(w * (A @ w), axis=-2), 0.0)
    b = np.maximum(np.sum(w * (B @ w), axis=-2), 0.0)
    if floors.any():
        w2 = np.sum(w**2, axis=-2)
        a[a <= floors[..., :1] * w2] = 0.0
        b[b <= floors[..., 1:] * w2] = 0.0
    return a, b, lower @ vecs


def _null_floors(A, B) -> np.ndarray:
    """(..., 2) floors for ``_congruence_basis`` of a pair or of two stacks."""
    if isinstance(A, SpdStack):
        fa = np.where(A.strictly_pd, 0.0, A.eig_floors)
        fb = np.where(B.strictly_pd, 0.0, B.eig_floors)
    else:
        fa = 0.0 if A.is_strictly_pd else A.eig_floor
        fb = 0.0 if B.is_strictly_pd else B.eig_floor
    return np.stack((fa, fb), axis=-1)


def _pair_fnode(a: np.ndarray, b: np.ndarray):
    """Batched t -> a !_t b = ab / ((1-t)b + ta) over spectra; shape (k, d).

    Evaluated as a / ((1-t) + t r) with r = a/b (r = 0 where a = 0): every
    term is >= 0, so nothing cancels, and each value depends on its own
    (t, 1-t, a, b) alone, however nodes and spectra are batched.  The
    endpoints short-circuit to a and b, as A !_0 B = A and A !_1 B = B.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        r = a / b
    r[a == 0.0] = 0.0

    def fnode(t, tc):
        # One owned (k, d) buffer, written through its C-contiguous transpose
        # in three in-place passes, so each spectrum's nodes lie contiguous
        # for the weighting and the node-axis sum that follow.
        out = np.empty((len(t), len(a)), order="F")
        view = out.T
        with np.errstate(divide="ignore", invalid="ignore"):
            np.multiply.outer(r, t, out=view)
            view += tc
            np.divide(a[:, None], view, out=view)
        out[t == 0.0] = a
        out[t == 1.0] = b
        return out

    fnode.width = len(a)
    return fnode


def _lift(M: np.ndarray, g) -> np.ndarray:
    """M diag(g) M^T, symmetrized; M (..., d, d) and g (..., d)."""
    # row order: the broadcast product reads a node-contiguous kernel buffer
    # (``_pair_fnode``) about 3x slower than a copy of it in row order
    g = np.ascontiguousarray(g)
    return _symmetrized((M * g[..., None, :]) @ M.swapaxes(-1, -2))


def _atom_fnode(A, B, a, b, M, spectra: list):
    """Batched t -> A !_t B over atoms (t, 1-t); shape (k,) + A.shape.

    A and B exactly at t = 0 and t = 1; in between the lift M diag(g) M^T of
    g = a !_t b on the congruence basis (a, b, M) of the pair, which may be
    None when no atom is interior.  A and B are d x d matrices with a and b
    of shape (d,), or (n, d, d) stacks with (n, d).  Each batch's g is
    appended to ``spectra``.
    """

    def fnode(t, tc):
        out = np.empty((len(t),) + A.shape)
        out[t == 0.0] = A
        out[t == 1.0] = B
        mid = (t != 0.0) & (t != 1.0)
        if mid.any():
            g = _pair_fnode(a.ravel(), b.ravel())(t[mid], tc[mid])
            spectra.append(g)
            out[mid] = _lift(M, g.reshape((-1,) + a.shape))
        return out

    fnode.width = A.size
    return fnode


def _range_of(total: SpdMatrix, Ae: np.ndarray, Be: np.ndarray):
    """P, P^T A P and P^T B P for total = A + B, read-only.

    P holds the eigenvectors of A + B above the eigenvalue floor its
    strict-PD test uses; it has no columns when the sum has rank 0.
    """
    w, v = spectral_decompose(total)
    P = v[:, w > total.eig_floor]
    out = P, _symmetrized(P.T @ Ae @ P), _symmetrized(P.T @ Be @ P)
    for x in out:
        x.flags.writeable = False
    return out


# the compressed indices of one pair
_NONE = np.empty(0, dtype=np.intp)
_FIRST = np.zeros(1, dtype=np.intp)
_NONE.flags.writeable = _FIRST.flags.writeable = False


class _Pairs:
    """n validated pairs and the work that depends on the pairs alone.

    ``A`` and ``B`` are one ``SpdMatrix`` each (n = 1) or two ``SpdStack``
    objects, and ``Ae`` and ``Be`` their (n, d, d) entries.  The rest is
    computed on first use and shared by every evaluation on the pairs,
    whatever its measure or spec: ``compressed`` (the indices of the pairs
    whose A + B is not strictly PD), ``total(i)`` (A_i + B_i, validated),
    the projection ``on_range(i)`` of a compressed pair, and the read-only
    congruence ``basis(key)`` (a, b, M) with its null floors, of the pairs
    that run directly (key None) or of compressed pair key on range(A + B).
    """

    def __init__(self, A, B):
        self.A, self.B = A, B
        one = isinstance(A, SpdMatrix)
        self.Ae = A.entries[None] if one else A.entries
        self.Be = B.entries[None] if one else B.entries
        self._compressed = None
        self._totals, self._ranges, self._bases = {}, {}, {}

    # Plain properties and dicts rather than functools.cached_property,
    # whose lock (Python 3.11) is shared by all instances: it would
    # serialize threads computing the bases of different pairs.

    @property
    def compressed(self) -> np.ndarray:
        if self._compressed is None:
            A, B = self.A, self.B
            if isinstance(A, SpdMatrix):
                # two strictly PD inputs have a strictly PD sum: no eigensolve
                strict = A.is_strictly_pd and B.is_strictly_pd
                self._compressed = (
                    _NONE if strict or self.total(0).is_strictly_pd else _FIRST
                )
            else:
                # one eigensolve checks the sums of the pairs that are not
                # both strictly PD; a singular one keeps its validated sum
                rest = np.flatnonzero(~(A.strictly_pd & B.strictly_pd))
                if rest.size:
                    sums = SpdStack(self.Ae[rest] + self.Be[rest])
                    singular = np.flatnonzero(~sums.strictly_pd)
                    for j in singular:
                        self._totals[int(rest[j])] = sums[j]
                    rest = rest[singular]
                self._compressed = rest
        return self._compressed

    def direct(self) -> np.ndarray:
        """The mask of the pairs that are not compressed."""
        mask = np.ones(len(self.Ae), dtype=bool)
        mask[self.compressed] = False
        return mask

    def total(self, i: int) -> SpdMatrix:
        total = self._totals.get(i)
        if total is None:
            total = self._totals[i] = SpdMatrix(self.Ae[i] + self.Be[i])
        return total

    def on_range(self, i: int):
        out = self._ranges.get(i)
        if out is None:
            out = self._ranges[i] = _range_of(self.total(i), self.Ae[i], self.Be[i])
        return out

    def basis(self, key: int | None):
        basis = self._bases.get(key)
        if basis is None:
            floors = _null_floors(self.A, self.B).reshape(-1, 2)
            if key is not None:
                # compression keeps each input's norm, so its floor holds too
                _P, Ar, Br = self.on_range(key)
                Ae, Be, floors = Ar[None], Br[None], floors[key : key + 1]
            elif len(self.compressed):
                direct = self.direct()
                Ae, Be, floors = self.Ae[direct], self.Be[direct], floors[direct]
            else:
                Ae, Be = self.Ae, self.Be
            basis = _congruence_basis(Ae, Be, floors)
            for x in basis:
                x.flags.writeable = False
            self._bases[key] = basis
        return basis


def _values(pairs: _Pairs, kernel, charges_interior: bool) -> np.ndarray:
    """``kernel`` on every pair, exactly at the limit from above: (n, d, d).

    ``kernel(Ae, Be, key)`` maps (k, d, d) stacks to their (k, d, d)
    values.  It runs once on the pairs that need no compression, because
    A + B is strictly PD or the measure sees only the endpoints (where
    A !_0 B = A and A !_1 B = B need no solve), with key None.  A pair whose
    A + B is singular shares the null space N of A + B between its inputs,
    which reduces both, so its limit from above is exactly
    P kernel(P^T A P, P^T B P) P^T, with P from ``_range_of``: the kernel
    runs once per such pair, with its index as key, on a PD compressed sum.
    A sum of rank 0 gives zeros without calling ``kernel``.
    """
    compressed = pairs.compressed if charges_interior else _NONE
    if not len(compressed):
        return kernel(pairs.Ae, pairs.Be, None)
    values = np.empty(pairs.Ae.shape)
    direct = pairs.direct()
    if direct.any():
        values[direct] = kernel(pairs.Ae[direct], pairs.Be[direct], None)
    for i in compressed.tolist():
        P, Ar, Br = pairs.on_range(i)
        values[i] = P @ kernel(Ar[None], Br[None], i)[0] @ P.T if P.shape[1] else 0.0
    return values


# The pair the last ``_pair`` call returned, one object replaced by a single
# assignment; every field a caller reads is fixed or a pure function of the
# pair, so concurrent callers at worst compute something twice.
_last: _Pairs | None = None


def _validated(x, last: SpdMatrix | None) -> SpdMatrix:
    """x as an ``SpdMatrix``.

    ``last`` (or None) is returned for raw entries with its shape and
    exactly the float64 bits of its stored, symmetrized entries: compared
    as uint64, so -0.0 differs from 0.0 and NaN matches nothing.  The
    caller's array is neither copied nor kept.
    """
    if isinstance(x, SpdMatrix):
        return x
    arr = as_entries(x)
    if (
        last is not None
        and arr.shape == last.entries.shape
        and (arr.view(np.uint64) == last.entries.view(np.uint64)).all()
    ):
        return last
    return SpdMatrix(arr)


def _pair(a, b) -> _Pairs:
    """The validated pair (a, b), reusing the last one where it still holds.

    An ``SpdMatrix`` input is taken as it is.  A raw input (array-like or
    ``SymMatrix``) reuses the last pair's matrix in its position when its
    bits match (``_validated``); an input mutated since, or an asymmetric
    one, is validated anew.  When both matrices are those of the last pair,
    its ``_Pairs`` and all it has computed are returned; otherwise a new
    ``_Pairs`` replaces it, so one pair is retained at most.
    """
    global _last
    last = _last
    A = _validated(a, None if last is None else last.A)
    B = _validated(b, None if last is None else last.B)
    if A.dim != B.dim:
        raise ShapeError(f"dimension mismatch: {A.dim} vs {B.dim}")
    if last is not None and A is last.A and B is last.B:
        return last
    _last = pair = _Pairs(A, B)
    return pair


def weighted_harmonic(a, b, t: float) -> SpdMatrix:
    """A !_t B = [(1-t)A^{-1} + tB^{-1}]^{-1}, extended to singular endpoints.

    The connection of the unit atom at t: M diag(a !_t b) M^T on the
    congruence basis of A + B, with t=0 giving A and t=1 giving B exactly.
    When A + B is singular and 0 < t < 1, it is evaluated on range(A + B)
    and is 0 on the shared null space, the limit from above.
    """
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"weight {t} outside [0, 1]")
    return evaluate(Connection(dirac(t)), a, b)


def _parallel(Ae: np.ndarray, Be: np.ndarray) -> np.ndarray:
    """A (A + B)^{-1} B, not symmetrized, for matrices or stacks with A + B PD."""
    try:
        x = np.linalg.solve(Ae + Be, Be)
    except np.linalg.LinAlgError as exc:
        raise SingularPencilError("A + B is singular") from exc
    return Ae @ x


def parallel_sum(a, b) -> SpdMatrix:
    """A : B = (A^{-1} + B^{-1})^{-1} = half the equal-weight harmonic mean."""
    value = _values(_pair(a, b), lambda Ae, Be, _key: _parallel(Ae, Be), True)
    return SpdMatrix(_symmetrized(value[0]))


_EMPTY = (("empty", 0, 0.0),)


def _nonnegative(spectra) -> bool:
    """True when every integrated spectrum g is >= 0 (False on a NaN)."""
    return all((g >= 0.0).all() for g in spectra)


def _evaluate(conn: Connection, pairs: _Pairs, spec):
    """The (n, d, d) values of conn on pairs, whether they are PSD by
    construction, then the report's other fields.

    Both routes run on the pairs' congruence basis.  A measure of atoms
    only sums, in atom order, A and B at the endpoints and the lift of
    a !_t b at each interior atom; any other is integrated on the basis,
    whose n*d spectra go through one integration and one batched lift.
    Either value is PSD by construction when every g is >= 0.
    """
    mu = conn.measure
    atoms_only = mu.ac is None and mu.sc is None
    route = "atoms" if atoms_only else "congruence"
    if mu.is_zero():
        return np.zeros(pairs.Ae.shape), False, 0, 0.0, _EMPTY, route, 0
    spec = spec or DEFAULT_SPEC
    charges = mu.charges_interior()
    reports, spectra = [], []

    def kernel(Ae, Be, key):
        if atoms_only:
            # the basis only for an interior atom, so an endpoint-only measure
            # never factors a singular A + B; a lone pair keeps the (k, d, d)
            # node values that perfbench's node_eval metrics read
            args = (Ae, Be) + (pairs.basis(key) if charges else (None,) * 3)
            if len(Ae) == 1:
                args = tuple(x if x is None else x[0] for x in args)
            report = integrate_measure(_atom_fnode(*args, spectra), mu, spec)
            value = report.value.reshape(Ae.shape)
        else:
            a_eig, b_eig, M = pairs.basis(key)
            fnode = _pair_fnode(a_eig.ravel(), b_eig.ravel())
            report = integrate_measure(fnode, mu, spec)
            spectra.append(report.value)
            value = _lift(M, report.value.reshape(a_eig.shape))
        reports.append(report)
        return value

    values = _values(pairs, kernel, charges)
    nodes, err, parts = 0, 0.0, ()
    for r in reports:
        nodes += r.nodes_used
        err = max(err, r.error_estimate)
        parts += r.parts
    compressed = len(pairs.compressed) if charges else 0
    return values, _nonnegative(spectra), nodes, err, parts, route, compressed


def evaluate_report(
    conn: Connection, a, b, spec: QuadratureSpec | None = None
) -> EvalReport:
    """A sigma B with quadrature accounting; see ``evaluate``.

    The one-pair case of ``evaluate_many``.  For a measure with a density or
    self-similar part, ``error_estimate`` is the quadrature's estimate on
    the spectra g of the congruence basis; the matrix error is at most
    ||A + B|| times it.  Validation of the inputs and the work that depends
    on the pair alone are shared with the previous call when it evaluated
    the same pair (``_pair``).
    """
    value, fields = _evaluate_one(conn, a, b, spec)
    return EvalReport(value, *fields)


def _evaluate_one(conn: Connection, a, b, spec):
    """conn's value on one pair as an ``SpdMatrix``, then the report's other
    fields: the body of ``evaluate_report`` and ``evaluate_canonical``."""
    values, psd, *fields = _evaluate(conn, _pair(a, b), spec)
    return (SpdMatrix._built(values[0]) if psd else SpdMatrix(values[0])), fields


def evaluate_many(
    conn: Connection, As, Bs, spec: QuadratureSpec | None = None
) -> EvalReport:
    """A_i sigma B_i for a stack of n pairs, with one report for all of them.

    ``As`` and ``Bs`` are (n, d, d) arrays, sequences of matrices or
    ``SpdStack`` objects; each is validated with one stacked eigensolve
    unless it already is a stack, and a non-PSD member raises NotPsdError
    naming its index.  The report's ``value`` is the ``SpdStack`` of the n
    results, validated the same way, by one eigensolve on the first read of
    its facts when it is PSD by construction (see ``EvalReport``).  Pairs
    with A + B positive definite share one integration, refined until the
    largest difference over all their spectral values meets the tolerance,
    so their values may differ from ``evaluate``'s in the last bits;
    atom-only measures, lifted on each pair's own basis, give exactly the
    values of ``evaluate``.  A pair whose A + B is singular runs alone on
    range(A + B) and changes no other pair's value.  An error in the shared
    integration raises for the whole stack.
    """
    A = As if isinstance(As, SpdStack) else SpdStack(As)
    B = Bs if isinstance(Bs, SpdStack) else SpdStack(Bs)
    if A.entries.shape != B.entries.shape:
        raise ShapeError(
            f"stack shape mismatch: {A.entries.shape} vs {B.entries.shape}"
        )
    values, psd, *fields = _evaluate(conn, _Pairs(A, B), spec)
    return EvalReport(SpdStack._built(values) if psd else SpdStack(values), *fields)


def evaluate(conn: Connection, a, b, spec: QuadratureSpec | None = None) -> SpdMatrix:
    """A sigma B = int A !_t B dmu(t), by per-part quadrature.

    Satisfies the norm bound ||A sigma B|| <= max(||A||, ||B||) * mu([0,1])
    up to quadrature tolerance.  Densities and self-similar parts are
    integrated on the spectra of the A + B congruence basis and lifted once;
    atom-only measures are finite sums of lifts on the same basis.  When
    A + B is singular and mu charges (0, 1), evaluates on range(A + B) and
    returns 0 on its null space, the limit from above.
    """
    return evaluate_report(conn, a, b, spec).value


# ---------------------------------------------------------------------------
# representing functions


def _harmonic_scalar(xs: np.ndarray, t: np.ndarray, tc: np.ndarray) -> np.ndarray:
    """1 !_t x on a node grid: x / ((1-t)x + t), with 1 !_0 x = 1; shape (k, m)."""
    out = np.multiply.outer(tc, xs)
    out += t[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(xs, out, out=out)
    out[t == 0.0] = 1.0
    return out


def _rep_argument(x) -> np.ndarray:
    """x as a float array, which representing functions take finite and >= 0."""
    xs = np.asarray(x, dtype=float)
    # NaN fails both comparisons, -inf the first and +inf the second
    if not ((xs >= 0.0) & (xs < np.inf)).all():
        raise ValueError("representing functions take finite x >= 0")
    return xs


def _rep_values(
    mu: UnitMeasure, xs: np.ndarray, spec: QuadratureSpec | None, transposed: bool
) -> np.ndarray:
    """f(x), or f^T(x) when ``transposed``, for every x of ``xs``, in its shape.

    The x > 0 run through one integration.  An x = 0 is not integrated:
    the kernel 1 !_t 0 is 1 at t = 0 and 0 elsewhere (dually x !_t 1 at
    x = 0 is 1 at t = 1), so f(0) is mu({0}), the weight of the atoms
    stored at t = 0, and f^T(0) is mu({1}), that of the atoms stored at
    complement 0.  Leaving the zeros out keeps every call within its value
    cap and rounds the other x as they round without them.
    """
    flat = xs.reshape(-1)
    if not flat.all():
        zero = flat == 0.0
        t, tc, w = mu.atom_arrays
        out = np.empty(flat.shape)
        out[zero] = sum(w[(tc if transposed else t) == 0.0].tolist())
        out[~zero] = _rep_values(mu, flat[~zero], spec, transposed)
        return out.reshape(xs.shape)
    if not flat.size:
        return np.empty(xs.shape)
    if transposed:
        fnode = lambda t, tc: _harmonic_scalar(flat, tc, t)
    else:
        fnode = lambda t, tc: _harmonic_scalar(flat, t, tc)
    fnode.width = flat.size
    return np.asarray(integrate_measure(fnode, mu, spec).value).reshape(xs.shape)


@dataclass(frozen=True)
class RepFunction:
    """Scalar shadow f(x) = I sigma (xI) of a connection.

    Nonnegative and nondecreasing on [0, inf); f(0) = mu({0}) and f(1) is the
    total mass.  Accepts scalars or arrays.
    """

    measure: UnitMeasure

    def eval(self, x, spec: QuadratureSpec | None = None):
        xs = _rep_argument(x)
        vals = _rep_values(self.measure, xs, spec, transposed=False)
        return float(vals) if xs.ndim == 0 else vals

    __call__ = eval


def representing_function(
    conn: Connection, x=None, spec: QuadratureSpec | None = None
):
    """f(x) = int 1 !_t x dmu(t); without x, returns the RepFunction itself."""
    f = RepFunction(measure=conn.measure)
    if x is None:
        return f
    return f.eval(x, spec)


def transpose_rep_function(
    conn: Connection, x, spec: QuadratureSpec | None = None
):
    """int x !_t 1 dmu(t): the representing function of the transpose.

    Equals x * f(1/x) for x > 0 and representing_function(transpose(conn), x)
    up to quadrature tolerance.
    """
    xs = _rep_argument(x)
    vals = _rep_values(conn.measure, xs, spec, transposed=True)
    return float(vals) if xs.ndim == 0 else vals


# ---------------------------------------------------------------------------
# canonical half-line form


def evaluate_canonical(
    nu: HalfLineMeasure, a, b, spec: QuadratureSpec | None = None
) -> SpdMatrix:
    """alpha*A + beta*B + int_(0,inf) (lam+1)/lam * ((lam A) : B) dnu(lam).

    After t = lam/(1+lam) the kernel (lam+1)/lam ((lam A) : B) is A !_t B,
    so this is the connection of the measure ``pushforward_psi(nu)`` on
    [0, 1], and it is ``evaluate`` on that measure, bit for bit.  nu's atoms
    at 0 and infinity become atoms at t = 0 and t = 1: alpha*A + beta*B is
    summed exactly when nu has atoms only, and lifted with the density's
    spectra otherwise, as for any measure with atoms and a density.
    """
    return _evaluate_one(Connection(pushforward_psi(nu)), a, b, spec)[0]


# ---------------------------------------------------------------------------
# transpose, predicates, arithmetic, decomposition


def transpose(conn: Connection) -> Connection:
    """The connection (A, B) -> B sigma A; measure reflects under Theta."""
    label = f"transpose({conn.label})" if conn.label else None
    return Connection(measure=pushforward_theta(conn.measure), label=label)


def is_mean(
    conn: Connection, tol: float = 1e-9, spec: QuadratureSpec | None = None
) -> bool:
    """Mass-1 test run over two routes that must agree.

    Route one: is_probability of the measure, whose mass is structural
    wherever a part states it (``total_mass``).  Route two: |f(1) - 1| <= tol
    through the scalar integrand, by quadrature.  Disagreement means the
    quadrature and the structural mass are inconsistent, which is an error,
    not a verdict.
    """
    by_mass = is_probability(conn.measure, tol, spec)
    f1 = RepFunction(conn.measure).eval(1.0, spec)
    by_f = abs(f1 - 1.0) <= tol
    if by_mass != by_f:
        raise ArithmeticError(
            f"mass route ({total_mass(conn.measure, spec)!r}) and f(1) route "
            f"({f1!r}) disagree at tol {tol}"
        )
    return by_mass


def is_symmetric_connection(conn: Connection, tol: float = 1e-9) -> bool:
    """True when the measure is invariant under reflection (so B sigma A = A sigma B)."""
    return is_symmetric(conn.measure, tol)


def symmetrize(conn: Connection) -> Connection:
    """Connection with measure (mu + mu Theta)/2; a fixed point of itself."""
    mu = scale(add(conn.measure, pushforward_theta(conn.measure)), 0.5)
    label = f"symmetrize({conn.label})" if conn.label else None
    return Connection(measure=mu, label=label)


def add_connections(c1: Connection, c2: Connection) -> Connection:
    label = None
    if c1.label and c2.label:
        label = f"{c1.label} + {c2.label}"
    return Connection(measure=add(c1.measure, c2.measure), label=label)


def scale_connection(conn: Connection, k: float) -> Connection:
    label = f"{k!r}*{conn.label}" if conn.label else None
    return Connection(measure=scale(conn.measure, k), label=label)


def decompose_connection(conn: Connection):
    """Split sigma = sigma_ac + sigma_sc + sigma_sd along the measure parts.

    Returns (sigma_ac, sigma_sc, sigma_sd, f_ac, f_sc, f_sd); the scalar
    parts re-sum to the full representing function, and sigma_sd evaluates as
    the exact finite atomic sum.
    """
    m_ac, m_sc, m_sd = decompose_measure(conn.measure)
    base = conn.label or "connection"
    parts = (
        Connection(m_ac, label=f"{base}[ac]"),
        Connection(m_sc, label=f"{base}[sc]"),
        Connection(m_sd, label=f"{base}[sd]"),
    )
    reps = tuple(RepFunction(c.measure) for c in parts)
    return parts + reps


def mean_convex_decomposition(
    conn: Connection, tol: float = 1e-9, spec: QuadratureSpec | None = None
):
    """Convex split of a mean: (k_ac, k_sc, k_sd, normalized part connections).

    The coefficients are the part masses, the density's by ``density_mass``
    (structural where its terms state their mass, so they sum to 1 exactly
    for catalog mixtures); each nonzero part is rescaled to a probability
    measure.  Zero parts come back as zero connections, not means.
    """
    if not is_mean(conn, tol, spec):
        raise ValueError("mean_convex_decomposition requires a mean (mass 1)")
    mu = conn.measure
    k_ac = density_mass(mu.ac, spec) if mu.ac is not None else 0.0
    k_sc = mu.sc[1] if mu.sc is not None else 0.0
    k_sd = mu.atom_mass()
    m_ac, m_sc, m_sd = decompose_measure(mu)
    base = conn.label or "mean"

    def normalized(part: UnitMeasure, k: float, tag: str) -> Connection:
        if k == 0.0:
            return Connection(UnitMeasure(), label=f"{base}[{tag}]: zero")
        return Connection(scale(part, 1.0 / k), label=f"{base}[{tag}] normalized")

    parts = (
        normalized(m_ac, k_ac, "ac"),
        normalized(m_sc, k_sc, "sc"),
        normalized(m_sd, k_sd, "sd"),
    )
    return k_ac, k_sc, k_sd, parts
