"""Operator connections: weighted harmonic means, measure-driven evaluation,
representing functions, canonical half-line form, transpose, predicates,
and Lebesgue-type decomposition.

A connection sigma is stored through its associated measure mu on [0, 1]:

    A sigma B = int_[0,1] A !_t B dmu(t),
    A !_t B   = B ((1-t)B + tA)^{-1} A   (solve form, symmetrized),

with A !_0 B = A and A !_1 B = B regardless of invertibility.  The scalar
shadow is f(x) = I sigma (xI) evaluated through the same node sets, so matrix
and scalar answers never come from different rules.

Two routes evaluate the integral.  A measure with a density or self-similar
part is integrated in one congruence basis (Kubo-Ando): with A + B = L L^T
and L^{-1} A L^{-T} = V diag(a) V^T, M = L V carries A to diag(a) and B to
diag(1 - a), so the integral is M diag(g) M^T with g_i = int a_i !_t b_i dmu,
the scalar pair kernel integrated at d eigenvalues and lifted once.  A
measure of atoms only keeps the exact finite sum of pencil solves.

Singular inputs: evaluation runs directly when A + B is strictly positive
definite (every interior pencil satisfies (1-t)B + tA >= min(t, 1-t)(A + B))
or when mu does not charge (0, 1).  With A singular and B PD this returns
the limit from above (M3) exactly.  Only when A + B is singular, that is when
the inputs share a null direction, does evaluation run the fixed shift
schedule eps = 1e-4, 1e-6, 1e-8, accepting once successive results differ by
less than 1e-6 * (1 + ||A|| + ||B||) in spectral norm; anything else raises.
The weighted harmonic mean is the one-atom case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import QuadratureError, ShapeError, SingularPencilError
from .measures import (
    Density,
    HalfLineMeasure,
    UnitMeasure,
    add,
    decompose_measure,
    dirac,
    is_probability,
    is_symmetric,
    pushforward_theta,
    scale,
    total_mass,
)
from .quadrature import (
    DEFAULT_SPEC,
    IntegrationReport,
    QuadratureSpec,
    integrate_halfline_density,
    integrate_measure,
)
from .spd import SpdMatrix, as_entries, spectral_norm

__all__ = [
    "Connection",
    "RepFunction",
    "EvalReport",
    "EPS_SCHEDULE",
    "weighted_harmonic",
    "parallel_sum",
    "evaluate",
    "evaluate_report",
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

EPS_SCHEDULE = (1e-4, 1e-6, 1e-8)
REG_ACCEPT_FACTOR = 1e-6
# values per temporary row block in the node kernels (64 KB, below glibc's
# default mmap threshold)
_BLOCK = 8192


@dataclass(frozen=True)
class Connection:
    """A connection, carried by its associated measure."""

    measure: UnitMeasure
    label: str | None = None


@dataclass(frozen=True)
class EvalReport:
    """Evaluation result with quadrature accounting and regularization trace."""

    value: SpdMatrix
    nodes_used: int
    error_estimate: float
    parts: tuple[tuple[str, int, float], ...]
    eps_used: float | None = None

    @property
    def regularized(self) -> bool:
        return self.eps_used is not None


def _pair(a, b) -> tuple[SpdMatrix, SpdMatrix]:
    A = a if isinstance(a, SpdMatrix) else SpdMatrix(as_entries(a))
    B = b if isinstance(b, SpdMatrix) else SpdMatrix(as_entries(b))
    if A.dim != B.dim:
        raise ShapeError(f"dimension mismatch: {A.dim} vs {B.dim}")
    return A, B


def _sym(h: np.ndarray) -> np.ndarray:
    return 0.5 * (h + h.T)


def _harmonic_fnode(A: np.ndarray, B: np.ndarray):
    """Batched t -> A !_t B over node pairs (t, 1-t); endpoints short-circuit.

    One solve per node: the exact route for atom-only measures, and the
    oracle the congruence route is tested against.  Besides the solve's own
    result, a batch allocates the output and one pencil stack; the product
    B X and the symmetrization reuse them.
    """
    d = A.shape[0]

    def fnode(t, tc):
        out = np.empty((len(t), d, d))
        at0 = t == 0.0
        at1 = t == 1.0
        mid = ~(at0 | at1)
        if at0.any():
            out[at0] = A
        if at1.any():
            out[at1] = B
        if mid.any():
            h = out if mid.all() else np.empty((int(mid.sum()), d, d))
            pencil = np.multiply.outer(tc[mid], B)
            pencil += np.multiply.outer(t[mid], A, out=h)
            try:
                x = np.linalg.solve(pencil, np.broadcast_to(A, pencil.shape))
            except np.linalg.LinAlgError as exc:
                raise SingularPencilError(
                    "pencil (1-t)B + tA is singular; inputs share a null direction"
                ) from exc
            np.matmul(B, x, out=pencil)
            np.add(pencil, pencil.transpose(0, 2, 1), out=h)
            h *= 0.5
            if h is not out:
                out[mid] = h
        if not np.isfinite(out).all():
            raise SingularPencilError("pencil solve produced non-finite values")
        return out

    return fnode


def _congruence_basis(A: np.ndarray, B: np.ndarray):
    """Spectra a, b = 1 - a and basis M with A = M diag(a) M^T, B = M diag(b) M^T.

    A + B = L L^T by Cholesky and L^{-1} A L^{-T} = V diag(a) V^T, so M = L V.
    Factoring A + B rather than A keeps every eigenvalue in [0, 1] however
    ill-conditioned either input is; a singular A or B only puts 0 or 1 into
    the spectrum.
    """
    try:
        lower = np.linalg.cholesky(A + B)
    except np.linalg.LinAlgError as exc:
        raise SingularPencilError(
            "A + B is singular; inputs share a null direction"
        ) from exc
    x = np.linalg.solve(lower, A)
    mu, vecs = np.linalg.eigh(_sym(np.linalg.solve(lower, x.T)))
    a = np.clip(mu, 0.0, 1.0)
    return a, 1.0 - a, lower @ vecs


def _pair_fnode(a: np.ndarray, b: np.ndarray):
    """Batched t -> a !_t b = ab / ((1-t)b + ta) over spectra; shape (k, d).

    The denominator is at least min(t, 1-t) because a + b = 1; the endpoints
    short-circuit to a and b, as A !_0 B = A and A !_1 B = B.
    """
    ab = a * b
    rows = max(1, _BLOCK // len(a))

    def fnode(t, tc):
        # One (k, d) buffer per batch: the denominators, then the quotient in
        # place.  t a is added in row blocks of at most _BLOCK values, since a
        # second full-size array next to the buffer made glibc trim and regrow
        # the heap on every batch (thousands of page faults per round).
        out = np.multiply.outer(tc, b)
        for lo in range(0, len(t), rows):
            out[lo : lo + rows] += np.multiply.outer(t[lo : lo + rows], a)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(ab, out, out=out)
        out[t == 0.0] = a
        out[t == 1.0] = b
        return out

    return fnode


def _lift(M: np.ndarray, g) -> np.ndarray:
    """M diag(g) M^T, symmetrized."""
    return _sym((M * np.asarray(g)) @ M.T)


def _runs_directly(A: SpdMatrix, B: SpdMatrix, charges_interior: bool) -> bool:
    """True when no shift is needed: A + B strictly PD, or the measure sees
    only the endpoints (where A !_0 B = A and A !_1 B = B need no solve).

    Two strictly PD inputs have a strictly PD sum, which spares one
    eigenvalue check on the common path.
    """
    if not charges_interior or (A.is_strictly_pd and B.is_strictly_pd):
        return True
    return SpdMatrix(A.entries + B.entries).is_strictly_pd


def _run_schedule(direct, scale_norm: float):
    """Shift schedule for singular inputs: accept on successive agreement.

    Slow continuous extensions (the geometric mean drifts like sqrt(eps) off
    a singular input) never meet the acceptance gap, and ever-sharper
    boundary layers can defeat the quadrature outright; both surface as the
    same singularity error, because the root cause is the input.
    """
    accept = REG_ACCEPT_FACTOR * scale_norm
    prev = None
    prev_eps = None
    last_gap = None
    for eps in EPS_SCHEDULE:
        try:
            cur = direct(eps)
        except QuadratureError as exc:
            raise SingularPencilError(
                f"regularized evaluation at eps {eps:g} did not integrate: {exc}"
            ) from exc
        if prev is not None:
            last_gap = spectral_norm(cur - prev)
            if last_gap < accept:
                return cur, eps
        prev, prev_eps = cur, eps
    raise SingularPencilError(
        "regularization schedule did not stabilize "
        f"(last gap {last_gap:.3e} at eps {prev_eps:g}, accept < {accept:.3e})"
    )


def _shift_schedule(A: SpdMatrix, B: SpdMatrix, ready: bool, kernel):
    """``kernel`` at (A, B), through the shift schedule unless ``ready``.

    ``kernel(Ae, Be, scale_norm)`` returns the matrix value at the shifted
    pair ``A + eps I, B + eps I``; it must not write to them.  When ``ready``
    it runs once on the entries themselves with scale_norm None; otherwise
    the schedule runs with ``1 + ||A|| + ||B||`` from the norms the inputs'
    validation stored.  Returns ``(value, eps_used)``, eps_used None on the
    direct path.
    """
    if ready:
        return kernel(A.entries, B.entries, None), None
    scale_norm = 1.0 + spectral_norm(A) + spectral_norm(B)

    def shifted(eps):
        eye = eps * np.eye(A.dim)
        return kernel(A.entries + eye, B.entries + eye, scale_norm)

    return _run_schedule(shifted, scale_norm)


def _schedule_spec(spec: QuadratureSpec, scale_norm: float | None) -> QuadratureSpec:
    """Quadrature tolerance for shifted evaluations inside the schedule.

    The schedule accepts at 1e-6 * scale.  Integrands live on the spectra of
    the congruence basis, in [0, 1], and the lift M diag(g) M^T multiplies an
    error in g by at most ||A + B + 2 eps I|| < scale; so integrating g to
    1e-8 leaves two orders of headroom while keeping the ever-sharper eps
    boundary layers inside the node budget.  Unshifted evaluations
    (scale_norm None) keep the spec as given.
    """
    if scale_norm is None:
        return spec
    loose = 1e-2 * REG_ACCEPT_FACTOR
    return replace(
        spec, abs_tol=max(spec.abs_tol, loose), rel_tol=max(spec.rel_tol, loose)
    )


def weighted_harmonic(a, b, t: float) -> SpdMatrix:
    """A !_t B = [(1-t)A^{-1} + tB^{-1}]^{-1}, extended to singular endpoints.

    The connection of the unit atom at t: B((1-t)B + tA)^{-1}A, symmetrized,
    with t=0 giving A and t=1 giving B exactly.  A singular interior pencil
    goes through the shift schedule.
    """
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"weight {t} outside [0, 1]")
    return evaluate(Connection(dirac(t)), a, b)


def parallel_sum(a, b) -> SpdMatrix:
    """A : B = (A^{-1} + B^{-1})^{-1} = half the equal-weight harmonic mean."""
    A, B = _pair(a, b)

    def kernel(Ae, Be, _scale_norm):
        try:
            x = np.linalg.solve(Ae + Be, Be)
        except np.linalg.LinAlgError as exc:
            raise SingularPencilError("A + B is singular") from exc
        return Ae @ x

    value, _eps = _shift_schedule(A, B, _runs_directly(A, B, True), kernel)
    return SpdMatrix(_sym(value))


def evaluate_report(
    conn: Connection, a, b, spec: QuadratureSpec | None = None
) -> EvalReport:
    """A sigma B with quadrature accounting; see ``evaluate``.

    For a measure with a density or self-similar part, ``error_estimate``
    is the quadrature's estimate on the spectra g of the congruence basis;
    the matrix error is at most ||A + B|| times it.
    """
    A, B = _pair(a, b)
    spec = spec or DEFAULT_SPEC
    mu = conn.measure
    if mu.is_zero():
        zero = SpdMatrix(np.zeros((A.dim, A.dim)))
        return EvalReport(zero, 0, 0.0, (("empty", 0, 0.0),))

    report = None
    atoms_only = mu.ac is None and mu.sc is None

    def kernel(Ae, Be, scale_norm):
        nonlocal report
        if atoms_only:
            # the exact finite sum of pencil solves
            report = integrate_measure(_harmonic_fnode(Ae, Be), mu, spec)
            return _sym(np.asarray(report.value))
        a_eig, b_eig, M = _congruence_basis(Ae, Be)
        report = integrate_measure(
            _pair_fnode(a_eig, b_eig), mu, _schedule_spec(spec, scale_norm)
        )
        return _lift(M, report.value)

    ready = _runs_directly(A, B, mu.charges_interior())
    value, eps = _shift_schedule(A, B, ready, kernel)
    return EvalReport(
        SpdMatrix(value),
        report.nodes_used,
        report.error_estimate,
        report.parts,
        eps_used=eps,
    )


def evaluate(conn: Connection, a, b, spec: QuadratureSpec | None = None) -> SpdMatrix:
    """A sigma B = int A !_t B dmu(t), by per-part quadrature.

    Satisfies the norm bound ||A sigma B|| <= max(||A||, ||B||) * mu([0,1])
    up to quadrature tolerance.  Densities and self-similar parts are
    integrated on the spectra of the A + B congruence basis and lifted once;
    atom-only measures are exact sums of pencil solves.  Engages the shift
    schedule only when A + B is singular and mu charges (0, 1).
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


def _atom_mass_at(mu: UnitMeasure, where: float) -> float:
    return float(sum(w for t, w in mu.atoms if t == where))


def _rep_values(
    mu: UnitMeasure, xs: np.ndarray, spec: QuadratureSpec | None, transposed: bool
) -> np.ndarray:
    out = np.empty(xs.shape)
    zero = xs == 0.0
    if zero.any():
        # 1 !_t 0 = 0 for t > 0 and 1 at t = 0; dually x !_t 1 -> t = 1 atom.
        out[zero] = _atom_mass_at(mu, 1.0 if transposed else 0.0)
    pos = ~zero
    if pos.any():
        xp = xs[pos]
        if transposed:
            fnode = lambda t, tc: _harmonic_scalar(xp, tc, t)
        else:
            fnode = lambda t, tc: _harmonic_scalar(xp, t, tc)
        out[pos] = np.asarray(integrate_measure(fnode, mu, spec).value)
    return out


@dataclass(frozen=True)
class RepFunction:
    """Scalar shadow f(x) = I sigma (xI) of a connection.

    Nonnegative and nondecreasing on [0, inf); f(0) = mu({0}) and f(1) is the
    total mass.  Accepts scalars or arrays.
    """

    measure: UnitMeasure

    def eval(self, x, spec: QuadratureSpec | None = None):
        xs = np.asarray(x, dtype=float)
        if np.any(xs < 0.0) or not np.all(np.isfinite(xs)):
            raise ValueError("representing functions take finite x >= 0")
        vals = _rep_values(self.measure, np.atleast_1d(xs), spec, transposed=False)
        return float(vals[0]) if xs.ndim == 0 else vals

    __call__ = eval

    def at_zero(self) -> float:
        return _atom_mass_at(self.measure, 0.0)


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
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0.0) or not np.all(np.isfinite(xs)):
        raise ValueError("representing functions take finite x >= 0")
    vals = _rep_values(conn.measure, np.atleast_1d(xs), spec, transposed=True)
    return float(vals[0]) if xs.ndim == 0 else vals


# ---------------------------------------------------------------------------
# canonical half-line form


def evaluate_canonical(
    nu: HalfLineMeasure, a, b, spec: QuadratureSpec | None = None
) -> SpdMatrix:
    """alpha*A + beta*B + int_(0,inf) (lam+1)/lam * ((lam A) : B) dnu(lam).

    alpha and beta are nu's atoms at 0 and infinity; a finite atom is formed
    as (lam+1) * A(lam A + B)^{-1} B, which is the same matrix without the
    small-lam division.  The density part is integrated in the congruence
    basis of A + B as the vector (lam+1) ab / (lam a + b) and lifted once.
    Runs directly when A + B is strictly PD or nu charges only 0 and
    infinity.  Agrees with evaluate(pushforward_psi(nu), A, B).
    """
    A, B = _pair(a, b)
    spec = spec or DEFAULT_SPEC
    has_density = nu.ac is not None and nu.weight > 0.0

    def kernel(Ae, Be, scale_norm):
        total = np.zeros((A.dim, A.dim))
        for lam, w in nu.atoms:
            if lam == 0.0:
                total = total + w * Ae
            elif math.isinf(lam):
                total = total + w * Be
            else:
                try:
                    x = np.linalg.solve(lam * Ae + Be, Be)
                except np.linalg.LinAlgError as exc:
                    raise SingularPencilError(
                        f"pencil lam*A + B singular at lam={lam}"
                    ) from exc
                total = total + (w * (lam + 1.0)) * _sym(Ae @ x)
        if has_density:
            a_eig, b_eig, M = _congruence_basis(Ae, Be)
            ab = a_eig * b_eig

            def Gnode(lams):
                lam = lams[:, None]
                return (lam + 1.0) * ab / (lam * a_eig + b_eig)

            report = integrate_halfline_density(
                Gnode, nu.ac, nu.weight, _schedule_spec(spec, scale_norm)
            )
            total = total + _lift(M, report.value)
        return _sym(total)

    charges = has_density or any(0.0 < lam < math.inf for lam, _w in nu.atoms)
    value, _eps = _shift_schedule(A, B, _runs_directly(A, B, charges), kernel)
    return SpdMatrix(value)


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

    Route one: is_probability of the measure.  Route two: |f(1) - 1| <= tol
    through the scalar integrand.  Disagreement means the quadrature and the
    structural mass are inconsistent, which is an error, not a verdict.
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
    if k < 0.0:
        raise ValueError("connections scale by nonnegative factors")
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


def _structural_ac_mass(ac: Density | None, spec) -> float:
    if ac is None:
        return 0.0
    mass = 0.0
    known = True
    for term in ac.terms:
        if term.unit_mass is None:
            known = False
            break
        mass += term.weight * term.unit_mass
    if known:
        return mass
    from .quadrature import density_mass

    return density_mass(ac, spec)


def mean_convex_decomposition(
    conn: Connection, tol: float = 1e-9, spec: QuadratureSpec | None = None
):
    """Convex split of a mean: (k_ac, k_sc, k_sd, normalized part connections).

    The coefficients are the part masses (structural where the catalog knows
    them, so they sum to 1 exactly for catalog mixtures); each nonzero part
    is rescaled to a probability measure.  Zero parts come back as zero
    connections, not means.
    """
    if not is_mean(conn, tol, spec):
        raise ValueError("mean_convex_decomposition requires a mean (mass 1)")
    mu = conn.measure
    k_ac = _structural_ac_mass(mu.ac, spec)
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
