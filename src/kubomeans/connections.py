"""Operator connections: weighted harmonic means, measure-driven evaluation,
representing functions, canonical half-line form, transpose, predicates,
and Lebesgue-type decomposition.

A connection sigma is stored through its associated measure mu on [0, 1]:

    A sigma B = int_[0,1] A !_t B dmu(t),
    A !_t B   = B ((1-t)B + tA)^{-1} A   (solve form, symmetrized),

with A !_0 B = A and A !_1 B = B regardless of invertibility.  The scalar
shadow is f(x) = I sigma (xI) evaluated through the same node sets, so matrix
and scalar answers never come from different rules.

Singular inputs: when A or B is singular beyond the eigenvalue floor and the
measure charges the open interval, evaluation runs the fixed shift schedule
eps = 1e-4, 1e-6, 1e-8 and accepts once successive results differ by less
than 1e-6 * (1 + ||A|| + ||B||) in spectral norm; anything else raises.  A
measure of atoms only needs no schedule while the pencil (1-t)B + tA is
strictly positive definite at every interior atom t: its value is then a
finite sum of exact pencil solves.  The weighted harmonic mean is the
one-atom case.
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
    """Batched t -> A !_t B over node pairs (t, 1-t); endpoints short-circuit."""
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
            pencil = np.multiply.outer(tc[mid], B) + np.multiply.outer(t[mid], A)
            try:
                x = np.linalg.solve(pencil, np.broadcast_to(A, pencil.shape))
            except np.linalg.LinAlgError as exc:
                raise SingularPencilError(
                    "pencil (1-t)B + tA is singular; inputs share a null direction"
                ) from exc
            h = B @ x
            out[mid] = 0.5 * (h + h.transpose(0, 2, 1))
        if not np.isfinite(out).all():
            raise SingularPencilError("pencil solve produced non-finite values")
        return out

    return fnode


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
    pair ``A + eps I, B + eps I``.  When ``ready`` it runs once at eps = 0
    with scale_norm None; otherwise ``1 + ||A|| + ||B||`` is computed and
    the schedule runs.  Returns ``(value, eps_used)``, eps_used None on the
    direct path.
    """

    def direct(eps, scale_norm=None):
        eye = eps * np.eye(A.dim)
        return kernel(A.entries + eye, B.entries + eye, scale_norm)

    if ready:
        return direct(0.0), None
    scale_norm = 1.0 + spectral_norm(A) + spectral_norm(B)
    return _run_schedule(lambda eps: direct(eps, scale_norm), scale_norm)


def _schedule_spec(spec: QuadratureSpec, scale_norm: float | None) -> QuadratureSpec:
    """Quadrature tolerance for shifted evaluations inside the schedule.

    The schedule accepts at 1e-6 * scale, so integrating each shifted value
    to 1e-8 * scale leaves two orders of headroom while keeping the
    ever-sharper eps boundary layers inside the node budget.  Unshifted
    evaluations (scale_norm None) keep the spec as given.
    """
    if scale_norm is None:
        return spec
    return replace(
        spec,
        abs_tol=max(spec.abs_tol, 1e-2 * REG_ACCEPT_FACTOR * scale_norm),
        rel_tol=max(spec.rel_tol, 1e-2 * REG_ACCEPT_FACTOR),
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

    ready = SpdMatrix(A.entries + B.entries).is_strictly_pd
    value, _eps = _shift_schedule(A, B, ready, kernel)
    return SpdMatrix(_sym(value))


def _atom_pencils_pd(mu: UnitMeasure, A: SpdMatrix, B: SpdMatrix) -> bool:
    """True when mu has atoms only and each interior atom's pencil is PD.

    np.linalg.solve only raises on exactly zero pivots; a numerically
    singular pencil would solve to garbage, so gate on the eigenvalue floor.
    """
    if mu.ac is not None or mu.sc is not None:
        return False
    return all(
        SpdMatrix(tc * B.entries + t * A.entries).is_strictly_pd
        for t, tc, _w in mu.atom_pairs()
        if 0.0 < t < 1.0
    )


def evaluate_report(
    conn: Connection, a, b, spec: QuadratureSpec | None = None
) -> EvalReport:
    """A sigma B with quadrature accounting; see ``evaluate``."""
    A, B = _pair(a, b)
    spec = spec or DEFAULT_SPEC
    mu = conn.measure
    if mu.is_zero():
        zero = SpdMatrix(np.zeros((A.dim, A.dim)))
        return EvalReport(zero, 0, 0.0, (("empty", 0, 0.0),))

    report = None

    def kernel(Ae, Be, scale_norm):
        nonlocal report
        fnode = _harmonic_fnode(Ae, Be)
        report = integrate_measure(fnode, mu, _schedule_spec(spec, scale_norm))
        return _sym(np.asarray(report.value))

    ready = (A.is_strictly_pd and B.is_strictly_pd) or _atom_pencils_pd(mu, A, B)
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
    up to quadrature tolerance; engages the shift schedule when an input is
    singular and mu charges (0, 1), unless mu has atoms only and every
    interior atom's pencil is strictly positive definite.
    """
    return evaluate_report(conn, a, b, spec).value


# ---------------------------------------------------------------------------
# representing functions


def _harmonic_scalar(xs: np.ndarray, t: np.ndarray, tc: np.ndarray) -> np.ndarray:
    """1 !_t x on a node grid: x / ((1-t)x + t), with 1 !_0 x = 1; shape (k, m)."""
    den = np.multiply.outer(tc, xs) + t[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = xs[None, :] / den
    return np.where(t[:, None] == 0.0, 1.0, raw)


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

    alpha and beta are nu's atoms at 0 and infinity; the integrand is formed
    as (lam+1) * A(lam A + B)^{-1} B, which is the same matrix without the
    small-lam division.  Agrees with evaluate(pushforward_psi(nu), A, B).
    """
    A, B = _pair(a, b)
    spec = spec or DEFAULT_SPEC

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
        if nu.ac is not None and nu.weight > 0.0:

            def Gnode(lams):
                pencil = np.multiply.outer(lams, Ae) + Be
                try:
                    x = np.linalg.solve(pencil, np.broadcast_to(Be, pencil.shape))
                except np.linalg.LinAlgError as exc:
                    raise SingularPencilError(
                        "pencil lam*A + B singular inside the canonical integral"
                    ) from exc
                g = (lams + 1.0)[:, None, None] * (Ae @ x)
                return 0.5 * (g + g.transpose(0, 2, 1))

            report = integrate_halfline_density(
                Gnode, nu.ac, nu.weight, _schedule_spec(spec, scale_norm)
            )
            total = total + np.asarray(report.value)
        return _sym(total)

    ready = A.is_strictly_pd and B.is_strictly_pd
    value, _eps = _shift_schedule(A, B, ready, kernel)
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
