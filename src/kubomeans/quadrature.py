"""Deterministic quadrature drivers for measures stored by parts.

Every integral against a UnitMeasure splits structurally: atoms are summed
directly, each density term is integrated by the rule its endpoint exponents
call for, and singular-continuous parts are integrated by barycentre sums
over IFS cylinder sets, refined adaptively unless a depth is pinned.
Scalar, vector and matrix-valued integrands share one driver (node
functions return arrays whose leading axis indexes nodes: (k,), (k, m) or
(k, d, d)), so a 1x1 matrix integral and the scalar integral agree bitwise;
refinement is driven by the largest absolute entry of the difference, which
reduces to the value itself for scalars.  The package itself integrates
only scalar and vector integrands (f and f^T on an x grid, the pair kernel
on congruence spectra); a matrix-valued one is a caller's.

Node functions receive both coordinates (t, 1 - t) per node.  The pair comes
from each rule directly (Jacobi nodes give (1+x)/2 and (1-x)/2 from the same
abscissa, logistic nodes give sigma(u) and sigma(-u)), which keeps the
complement accurate near the endpoints where forming 1 - t would lose digits.

Reductions are fixed-order numpy pairwise sums over a fixed node ordering, so
results are bit-stable regardless of the BLAS thread count.

Density rules, derived from each term's effective endpoint exponents
---------------------------------------------------------------------
(0, 0)                : bisected Gauss-Legendre 8/16-point panels,
                        depth-limited at 12 and evaluated one depth at a
                        time: all pending panels of a depth share a
                        node-function call (24 nodes each) and one
                        tolerance test, and the accepted panels are added
                        in left-to-right order, as a preorder walk adds
                        them.
any other (p, q)      : node-doubling Gauss-Jacobi on the exponents, with
                        the term's smooth residual as integrand.
no envelope, log_mean : rule for the Cauchy kernel in u = log(t/(1-t)):
                        Gauss-Legendre in theta after u = pi*tan(theta),
                        truncated at U(n) with each tail's exact mass on a
                        node at the tail's mean, inside (0, 1) (so the
                        rule's mass is exact at every n and the truncation
                        shows up only through the curvature of h across the
                        tail, which the doubling test controls).
no envelope, other    : tanh-sinh; nodes kept strictly inside (0, 1) at the
                        representable limit.

A half-line density is no separate case: under t = lam/(1+lam)
``pushforward_psi`` maps it to the catalog density it names or to its
pullback, a term the same table integrates (``integrate_halfline_density``
integrates that pullback alone).

Singular-continuous parts are refined cylinder by cylinder when
QuadratureSpec.scheme is None.  Cylinder w carries its mass p_w and one node
at its barycentre S_w(m1), m1 = int t dmu, which is exact for affine h and
second order in the cylinder size for any IFS (Hutchinson, Indiana Univ.
Math. J. 30, 1981; Strichartz, Amer. Math. Monthly 107, 2000).  Level by
level, a cylinder is replaced by the sum over its children once that sum
differs from its own value by at most p_w times the part's tolerance bound
at the current estimate, so the accepted differences, summed as the error
estimate, stay within that bound; only cylinders next to a steep stretch
of the integrand go deeper.  No cylinder is accepted before the frontier
holds 256 cylinders, nor unless its parent passed the same test, so an
integrand that takes equal values at a few coarse nodes is still refined.  The part's row reads "ifs_adaptive:<deepest
level>".  Refinement raises IfsBudgetError, carrying the best value, its
error estimate and the evaluations made, before its evaluations would pass
the 2**24 atom budget or a level's frontier would pass IFS_FRONTIER_BYTES,
and at once when the tolerance is below the float64 resolution of the
estimate, where children agreeing with their parent to the last bit would
otherwise pass for convergence.
("ifs_recursion", N) instead pins an exact uniform depth: the midpoint sum
over all branches**N cylinders, with the depth N - 2 sum as the reference
of its error estimate, under the same atom budget.

Rules are built once, with NumPy only.  Gauss-Jacobi and Gauss-Legendre
nodes come from Newton's method on the three-term recurrence (O(n) memory),
the weights from P_n' at the nodes, scaled to the exact mass; each rule
builder is an unbounded ``functools.lru_cache`` keyed by its size (and
exponents).  IFS cylinder nodes are kept per (system, depth) in a
least-recently-used store bounded at IFS_CACHE_BYTES.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import IfsBudgetError, QuadratureError

__all__ = [
    "QuadratureSpec",
    "IntegrationReport",
    "DEFAULT_SPEC",
    "jacobi_rule",
    "legendre_rule",
    "logistic_rule",
    "tanh_sinh_rule",
    "ifs_nodes",
    "integrate_measure",
    "integrate_scalar",
    "integrate_scalar_report",
    "integrate_ifs",
    "node_table",
    "density_mass",
    "integrate_halfline_density",
]

IFS_ATOM_BUDGET = 2**24
IFS_CACHE_BYTES = 128 * 2**20
# cylinder state and node values held by one level of adaptive refinement
IFS_FRONTIER_BYTES = 64 * 2**20


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances, node budget and the IFS depth pin shared by all drivers.

    scheme: None, which refines the cylinders of singular-continuous parts
    adaptively, or ("ifs_recursion", depth) to sum them at that exact
    uniform depth.  Density rules are not configurable: each term's endpoint
    exponents decide its rule.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_nodes: int = 4096
    scheme: tuple | None = None

    def __post_init__(self):
        for tol in (self.abs_tol, self.rel_tol):
            if not 0.0 < tol < math.inf:
                raise ValueError(f"tolerance {tol} must be positive and finite")
        if not self.max_nodes >= 2:  # NaN fails too
            raise ValueError("max_nodes must be at least 2")
        if self.scheme is not None:
            if not (
                isinstance(self.scheme, tuple)
                and len(self.scheme) == 2
                and self.scheme[0] == "ifs_recursion"
            ):
                raise ValueError(
                    f"unknown scheme {self.scheme!r}; use None or "
                    "('ifs_recursion', depth)"
                )
            if int(self.scheme[1]) < 1:
                raise ValueError("ifs_recursion needs depth >= 1")

    @property
    def ifs_depth(self) -> int | None:
        return None if self.scheme is None else int(self.scheme[1])


DEFAULT_SPEC = QuadratureSpec()

# values one node-function call may return: a call gets at most
# _CALL_VALUES // width nodes, width being the values per node.  That is
# 128 KiB of float64; 2**16 raised the peak RSS of a quick-profile check
# round by 0.8 MB at the same speed.
_CALL_VALUES = 2**14
_NEWTON_STEPS = 30
# smallest tolerance, relative to the estimate, that self-similar refinement
# accepts: below it a zero difference is rounding, not agreement
_RESOLUTION = 8.0 * np.finfo(float).eps
# self-similar refinement splits every cylinder until the frontier holds at
# least this many, before it accepts any
_IFS_MIN_CYLINDERS = 256
# (IfsMeasure, maps_c, depth) -> frozen (t, tc, w), oldest first
_IFS_CACHE: dict = {}


@dataclass(frozen=True)
class IntegrationReport:
    """Value plus accounting: total nodes, summed error estimates, per-part rows."""

    value: np.ndarray | float
    nodes_used: int
    error_estimate: float
    parts: tuple[tuple[str, int, float], ...]


def _freeze(*arrays):
    out = []
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        a.flags.writeable = False
        out.append(a)
    return tuple(out)


# ---------------------------------------------------------------------------
# node rules


def _gauss_jacobi(n: int, a: float, b: float):
    """Gauss-Jacobi abscissas on [-1, 1] for (1-x)**a (1+x)**b, ascending.

    Newton's method on the three-term recurrence, every node at once, from
    the Szego guesses x_k = cos((k - 1/4 + a/2) pi / (n + (a+b+1)/2)): O(n)
    memory and O(n) work per node (Hale & Townsend, SIAM J. Sci. Comput. 35,
    2013).  Those guesses miss once an exponent reaches about 5; then the
    eigenvalues of the Jacobi matrix (Golub & Welsch, Math. Comp. 23, 1969)
    seed the same iteration.  With a == b only the nonnegative
    half is solved and mirrored, so the rule is exactly symmetric.  The
    weights come back unnormalized, proportional to
    1 / ((1 - x**2) P_n'(x)**2); callers scale them to the exact mass.
    """
    m = (n + 1) // 2 if a == b else n
    k = np.arange(1, m + 1)
    guess = np.cos((k - 0.25 + 0.5 * a) * math.pi / (n + 0.5 * (a + b + 1.0)))
    rule = _jacobi_newton(n, a, b, guess)
    if rule is None:
        rule = _jacobi_newton(n, a, b, _golub_welsch(n, a, b)[: -m - 1 : -1])
    if rule is None:  # pragma: no cover - eigenvalue guesses always converge
        raise ArithmeticError(f"Gauss-Jacobi Newton iteration failed at n={n}")
    x, w = rule
    if a == b:
        tail = n // 2
        x = np.concatenate((-x[:tail], x[::-1]))
        w = np.concatenate((w[:tail], w[::-1]))
    else:
        x, w = x[::-1], w[::-1]
    return x, w


def _jacobi_newton(n: int, a: float, b: float, x: np.ndarray):
    """Roots of P_n^(a, b) from guesses ``x``, descending, with weights.

    Returns None when the iteration stalls or two guesses reach one root.
    For a == b the guesses cover the nonnegative half; with n odd the
    smallest is the root at 0.
    """
    for _ in range(_NEWTON_STEPS):
        pn, dpn = _jacobi_eval(n, a, b, x)
        dx = pn * ((1.0 - x) * (1.0 + x)) / dpn
        x = x - dx
        # quadratic convergence: a step below 1e-8 of the distance to the
        # nearer endpoint leaves an error below the rounding of the recurrence
        if np.all(np.abs(dx) <= 1e-8 * (1.0 - np.abs(x)) + 1e-15):
            break
    else:
        return None
    x = -np.sort(-x)
    if a == b and n % 2:
        if abs(x[-1]) > 1e-8:
            return None
        x[-1] = 0.0
        inside = True
    else:  # for a == b the mirror image supplies the negative half
        inside = x[-1] > (0.0 if a == b else -1.0)
    if not (inside and x[0] < 1.0 and np.all(np.diff(x) < -1e-6 / n**2)):
        return None
    # (1 - x^2) P_n' at the final nodes, with the P_n term kept: next to an
    # endpoint P_{n-1} is small at the roots, and only the full expression
    # keeps the weights accurate there
    _pn, dpn = _jacobi_eval(n, a, b, x)
    return x, (1.0 - x) * (1.0 + x) / dpn**2


def _golub_welsch(n: int, a: float, b: float) -> np.ndarray:
    """Eigenvalues (ascending) of the symmetric Jacobi matrix of (a, b)."""
    k = np.arange(n, dtype=float)
    s = 2.0 * k + a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        diag = (b * b - a * a) / (s * (s + 2.0))
    diag[0] = (b - a) / (a + b + 2.0)
    k, s = k[1:], s[1:]
    off2 = 4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0))
    if n > 1:
        # k = 1: (k + a + b) / (2k + a + b - 1) = 1, also when a + b = -1
        off2[0] = 4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b))
    jac = np.diag(diag) + np.diag(np.sqrt(off2), 1) + np.diag(np.sqrt(off2), -1)
    return np.linalg.eigvalsh(jac)


def _jacobi_eval(n: int, a: float, b: float, x: np.ndarray):
    """P_n(x) and (1 - x^2) P_n'(x) of the Jacobi family (a, b).

    The recurrence runs in place on two buffers, with the scalar
    coefficients of 2k(k+a+b)(2k+a+b-2) P_k = (2k+a+b-1)[(2k+a+b)(2k+a+b-2) x
    + a^2 - b^2] P_{k-1} - 2(k+a-1)(k+b-1)(2k+a+b) P_{k-2}; the derivative
    follows from P_n and P_{n-1}.
    """
    prev = np.ones_like(x)
    cur = 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x
    tmp = np.empty_like(x)
    shift = a * a - b * b
    for m in range(2, n + 1):
        s = 2.0 * m + a + b
        den = 2.0 * m * (m + a + b) * (s - 2.0)
        np.multiply(x, (s - 1.0) * s * (s - 2.0) / den, out=tmp)
        if shift:
            tmp += (s - 1.0) * shift / den
        tmp *= cur
        prev *= 2.0 * (m + a - 1.0) * (m + b - 1.0) * s / den
        np.subtract(tmp, prev, out=prev)
        prev, cur = cur, prev
    s = 2.0 * n + a + b
    return cur, (n * ((a - b) - s * x) * cur + 2.0 * (n + a) * (n + b) * prev) / s


@lru_cache(maxsize=None)
def legendre_rule(n: int):
    """Gauss-Legendre abscissas and weights on [-1, 1] (read-only arrays).

    Symmetric nodes and weights, the weights scaled to sum to 2 as
    numpy's ``leggauss`` does.  The central weight (pair) then absorbs the
    rounding left in ``w.sum()``, which makes it exactly 2.0 at every size
    the package builds.
    """
    x, w = _gauss_jacobi(n, 0.0, 0.0)
    w *= 2.0 / w.sum()
    mid = slice((n - 1) // 2, n // 2 + 1)
    for _ in range(4):
        err = 2.0 - w.sum()
        if err == 0.0:
            break
        w[mid] += err / (2 - n % 2)
    return _freeze(x, w)


@lru_cache(maxsize=None)
def jacobi_rule(p: float, q: float, n: int):
    """Nodes (t, 1-t) and weights for ``int_0^1 t**p (1-t)**q phi(t) dt``.

    Built by ``_gauss_jacobi`` on [-1, 1] with x = 2t - 1 and cached per
    (p, q, n).  Both coordinates come from the same abscissa, so the pair
    stays accurate at either endpoint, and the weights are scaled to the
    exact mass B(p+1, q+1).
    """
    if p <= -1.0 or q <= -1.0:
        raise ValueError("jacobi exponents must exceed -1")
    x, w = _gauss_jacobi(n, float(q), float(p))
    mass = math.exp(math.lgamma(p + 1.0) + math.lgamma(q + 1.0) - math.lgamma(p + q + 2.0))
    w *= mass / w.sum()
    return _freeze(0.5 * (1.0 + x), 0.5 * (1.0 - x), w)


@lru_cache(maxsize=None)
def logistic_rule(n: int):
    """Rule for the Cauchy-kernel density 1/(t(1-t)(pi^2 + log^2(t/(1-t)))).

    In u = log(t/(1-t)) the integral carries weight du/(pi^2 + u^2) on the
    whole line.  That is compactified by u = pi*tan(theta), integrated by
    n-point Gauss-Legendre on |theta| <= arctan(U/pi) with
    U = min(60, max(12, 0.15 n)), and mapped to t = sigma(u).  Each tail
    |u| > U puts its exact mass (pi/2 - arctan(U/pi))/pi on one node at the
    tail's mean distance s from its endpoint (t = s and 1 - t = s), found by
    16-point Gauss-Laguerre in u - U.  So total mass is exactly 1 at every
    n, h's linear variation over a tail is integrated exactly, and the tail
    nodes stay inside (0, 1), where h can differ from its endpoint value
    (a !_t 0 is 0 for t > 0, but a at t = 0).
    """
    umax = min(60.0, max(12.0, 0.15 * n))
    thmax = math.atan(umax / math.pi)
    x, gw = legendre_rule(n)
    u = math.pi * np.tan(thmax * x)
    tail = (0.5 * math.pi - thmax) / math.pi
    # int_U^inf sigma(-u) du / (pi (pi^2 + u^2)), with u = U + v and the
    # rule taking the factor e^-v of sigma(-u)
    v, lw = np.polynomial.laguerre.laggauss(16)
    tu = umax + v
    s = np.sum(lw / ((1.0 + np.exp(-tu)) * math.pi * (math.pi**2 + tu**2)))
    s *= math.exp(-umax) / tail
    t = np.concatenate(([s], 1.0 / (1.0 + np.exp(-u)), [1.0 - s]))
    tc = np.concatenate(([1.0 - s], 1.0 / (1.0 + np.exp(u)), [s]))
    return _freeze(t, tc, np.concatenate(([tail], (thmax / math.pi) * gw, [tail])))


@lru_cache(maxsize=None)
def tanh_sinh_rule(level: int):
    """Tanh-sinh nodes for ``int_0^1 f(t) dt`` in logistic form.

    t = sigma(pi*sinh(kh)) and 1 - t = sigma(-pi*sinh(kh)); nodes are clipped
    to |pi*sinh(kh)| <= 36, inside which both coordinates stay strictly
    within (0, 1) in double precision.
    """
    h = 2.0 ** (-level)
    kmax = int(math.asinh(36.0 / math.pi) / h)
    k = np.arange(-kmax, kmax + 1)
    u = k * h
    z = 0.5 * math.pi * np.sinh(u)
    t = 1.0 / (1.0 + np.exp(-2.0 * z))
    tc = 1.0 / (1.0 + np.exp(2.0 * z))
    w = h * 0.25 * math.pi * np.cosh(u) / np.cosh(z) ** 2
    return _freeze(t, tc, w)


def ifs_nodes(ifs, depth: int):
    """Midpoint nodes of the depth-N cylinder sets, with exact complements.

    Starting from (1/2, 1/2), each level applies every map to the location
    and the conjugated map to the complement, so the node set of the
    reflected system is the exact pointwise complement of this one.  Raises
    past the 2**24 atom budget.  Results are cached per (system, depth) in a
    least-recently-used store of at most ``IFS_CACHE_BYTES`` of node arrays;
    a repeated call returns the same read-only arrays.  ``_IFS_CACHE`` is
    unlocked module state, so this holds only while one thread calls in at a
    time, as everything in kubomeans does: a concurrent caller can reorder
    the store while another sums its sizes.
    """
    m = len(ifs.maps)
    if m**depth > IFS_ATOM_BUDGET:
        raise IfsBudgetError(
            f"IFS at depth {depth} needs {m**depth} atoms "
            f"(budget {IFS_ATOM_BUDGET})",
            nodes_used=0,
        )
    # maps_c is not part of IfsMeasure equality but decides the complements
    key = (ifs, ifs.maps_c, depth)
    nodes = _IFS_CACHE.pop(key, None)
    if nodes is None:
        nodes = _build_ifs_nodes(ifs, depth)
    _IFS_CACHE[key] = nodes
    while sum(a.nbytes for v in _IFS_CACHE.values() for a in v) > IFS_CACHE_BYTES:
        del _IFS_CACHE[next(iter(_IFS_CACHE))]
    return nodes


def _build_ifs_nodes(ifs, depth: int):
    rs = np.array([r for r, _ in ifs.maps])
    bs = np.array([b for _, b in ifs.maps])
    cs = np.array(ifs.maps_c)
    ps = np.array(ifs.probs)
    t = np.array([0.5])
    tc = np.array([0.5])
    w = np.array([1.0])
    for _ in range(depth):
        t = (np.multiply.outer(rs, t) + bs[:, None]).ravel()
        tc = (np.multiply.outer(rs, tc) + cs[:, None]).ravel()
        w = np.multiply.outer(ps, w).ravel()
    return _freeze(t, tc, w)


# ---------------------------------------------------------------------------
# shared reduction and convergence helpers


class _Integrand:
    """A node function and the number of values it returns per node.

    Every driver calls node functions through ``weighted`` and sizes its
    calls by ``step``, so no call returns more than _CALL_VALUES values
    however wide the integrand is.  A node function may state its width as
    a ``width`` attribute; otherwise the first call made tells it, and a
    driver that needs it before that evaluates one node to learn it.
    """

    def __init__(self, fnode):
        self.fnode = fnode
        self.width = getattr(fnode, "width", None)

    def step(self, t, tc) -> int:
        """Nodes per call for an integrand evaluated at (t, tc)."""
        if self.width is None and len(t) > 1:
            self.weighted(t[:1], tc[:1], np.ones(1))
        return max(1, _CALL_VALUES // (self.width or 1))

    def weighted(self, t, tc, w):
        """w_j * fnode(t, tc)_j per node, in one call.

        The node function's own float buffer is weighted in place; any other
        result, such as a view of the nodes or of cached arrays, is copied.
        """
        vals = np.asarray(self.fnode(t, tc))
        if vals.shape[0] != len(t):
            raise ValueError("node function must return one value per node")
        if self.width is None:
            self.width = max(1, vals[0].size)
        wt = w.reshape((-1,) + (1,) * (vals.ndim - 1))
        if vals.base is None and vals.flags.writeable and vals.dtype == float:
            vals *= wt
            return vals
        return wt * vals


def _integrand(fnode) -> _Integrand:
    return fnode if isinstance(fnode, _Integrand) else _Integrand(fnode)


def _reduce(fnode, t, tc, w, sequential: bool = False):
    """Sum_j w_j * fnode(t, tc)_j over a fixed node order.

    numpy's pairwise summation; ``sequential`` forces a plain left-to-right
    loop (used for a measure's atoms, so their sum in atom order matches an
    explicit left-to-right accumulation bitwise, in calls of any size).  Otherwise a float array
    the node function returns as its own buffer is weighted in place, so a
    call holds one array of values, and summed along the node axis without
    BLAS, so the result does not depend on the BLAS thread count.
    """
    f = _integrand(fnode)
    step = f.step(t, tc)
    total = None
    for lo in range(0, len(t), step):
        hi = lo + step
        vals = f.weighted(t[lo:hi], tc[lo:hi], w[lo:hi])
        if sequential:
            for row in vals:
                total = row if total is None else total + row
        else:
            part = np.sum(vals, axis=0)
            total = part if total is None else total + part
    return total


def _metric(x) -> float:
    """Largest absolute entry, for scalars, vectors and matrices alike.

    A norm, unlike the trace: a traceless refinement difference still counts.
    """
    return float(np.max(np.abs(x), initial=0.0))


def _tol_bound(spec: QuadratureSpec, ref: float) -> float:
    return max(spec.abs_tol, spec.rel_tol * ref)


def _converge(estimates, spec: QuadratureSpec, scheme: str):
    """Walk (value, n_nodes) refinements until two agree within tolerance."""
    prev = None
    value = None
    nodes = 0
    diff = math.inf
    for value, n in estimates:
        nodes += n
        if prev is not None:
            diff = _metric(value - prev)
            if diff <= _tol_bound(spec, _metric(value)):
                return value, nodes, diff
        prev = value
    raise QuadratureError(
        f"{scheme} refinement did not converge within {spec.max_nodes} nodes",
        value=None if value is None else float(np.sum(np.asarray(value))),
        error_estimate=None if math.isinf(diff) else diff,
        nodes_used=nodes,
    )


def _doubling_sizes(start: int, max_nodes: int):
    n = min(start, max_nodes)
    while n <= max_nodes:
        yield n
        n *= 2


# ---------------------------------------------------------------------------
# per-part drivers


def _jacobi_nodes(term, n: int):
    p, q = term.effective_exponents
    t, tc, w = jacobi_rule(p, q, n)
    return t, tc, w * term.smooth_pair(t, tc)


def _logistic_nodes(term, n: int):
    t, tc, v = logistic_rule(n)
    return t, tc, term.weight * v


def _tanh_sinh_nodes(term, n: int):
    level = 4
    while level < 15 and len(tanh_sinh_rule(level)[0]) < n:
        level += 1
    t, tc, w = tanh_sinh_rule(level)
    return t, tc, w * term.eval_pair(t, tc)


def _tanh_sinh_sizes(max_nodes: int):
    for level in range(4, 16):
        n = len(tanh_sinh_rule(level)[0])
        if n > max_nodes:
            return
        yield n


def _legendre_nodes(term, n: int):
    x, gw = legendre_rule(n)
    t = 0.5 * (1.0 + x)
    tc = 0.5 * (1.0 - x)
    return t, tc, 0.5 * gw * term.eval_pair(t, tc)


# The one density-rule table: scheme -> (t, 1 - t and weights, density
# folded in, of one term at resolution n; refinement sizes up to max_nodes).
# Gauss-Jacobi and Gauss-Legendre give n nodes, the logistic rule n plus its
# two exact tail nodes, tanh-sinh the smallest level (4 to 15) holding at
# least n.  Gauss-Legendre integrates by adaptive panels, so its sizes are
# None and its fixed-n rule serves node_table only.
_DENSITY_RULES = {
    "gauss_jacobi": (_jacobi_nodes, lambda m: _doubling_sizes(16, m)),
    "logistic_substitution": (_logistic_nodes, lambda m: _doubling_sizes(64, m)),
    "tanh_sinh": (_tanh_sinh_nodes, _tanh_sinh_sizes),
    "gauss_legendre": (_legendre_nodes, None),
}


def _density_scheme(term):
    """(scheme, node builder, refinement sizes) for one density term.

    The term's effective endpoint exponents decide the rule.
    """
    exponents = term.effective_exponents
    if exponents == (0.0, 0.0):
        scheme = "gauss_legendre"
    elif exponents is not None:
        scheme = "gauss_jacobi"
    elif term.ident == "log_mean":
        scheme = "logistic_substitution"
    else:
        scheme = "tanh_sinh"
    return (scheme,) + _DENSITY_RULES[scheme]


def _integrate_term(fnode, term, spec: QuadratureSpec):
    fnode = _integrand(fnode)
    scheme, nodes, sizes = _density_scheme(term)
    if sizes is None:
        value, used, err = _adaptive_panels(fnode, term, spec)
        return value, used, err, scheme

    def series():
        for n in sizes(spec.max_nodes):
            t, tc, w = nodes(term, n)
            value = _reduce(fnode, t, tc, w)
            # Free the weighted copy before yielding: kept alive across the
            # yield it changed how malloc reused the freed node stacks, and
            # d = 16 pencils took three times the minor page faults.
            del w
            yield value, len(t)

    value, used, err = _converge(series(), spec, scheme)
    return value, used, err, scheme


@lru_cache(maxsize=None)
def _panel_rule():
    """Offsets t - a and (1 - t) - (1 - b), and weights, of a 24-node panel [a, b].

    One row per depth 0..12, where the half-width is 2**-(depth + 1): the 8
    Gauss-Legendre nodes of the coarse rule, then the 16 of the fine one.
    """
    x8, w8 = legendre_rule(8)
    x16, w16 = legendre_rule(16)
    x = np.concatenate((x8, x16))
    half = 0.5 ** np.arange(1.0, 14.0)[:, None]
    return _freeze(half * (1.0 + x), half * (1.0 - x), half * np.concatenate((w8, w16)))


def _adaptive_panels(fnode, term, spec: QuadratureSpec):
    """Bisected Gauss-Legendre 8/16 panels on g*h, one depth at a time, depth <= 12.

    All pending panels of one depth are evaluated together, floor(step / 24)
    panels of 24 nodes to a node-function call, and each rule's sum is taken
    over its slice of a panel's weighted values.  An integrand too wide for
    24 nodes in one call sums each rule of each panel in calls of its own.
    The tolerance test runs over the whole depth at once; the panels that
    fail it are bisected into the next depth, which stays in left-to-right
    order.  The accepted panels' fine sums and differences are kept and
    added in left-to-right order once the tree is done, so value and error
    are those of a walk of the tree in preorder.  Panels still failing at
    depth 12 raise QuadratureError with the leftmost one's fine sum and
    difference.
    """
    fnode = _integrand(fnode)
    up, down, weights = _panel_rule()
    # panels per call, asked at the first panel's nodes; 0 when one panel
    # does not fit a call
    per_call = fnode.step(up[0], down[0]) // 24
    lefts = np.zeros(1)
    nodes = 0
    # (left ends, fine sums, differences, accepted) of each depth's panels
    levels = []
    for depth in range(13):
        width = 0.5**depth
        k = len(lefts)
        # dyadic ends: a and 1 - b are exact, so the nodes are those of
        # bisecting [0, 1] panel by panel
        t = np.add.outer(lefts, up[depth]).ravel()
        tc = np.add.outer((1.0 - width) - lefts, down[depth]).ravel()
        wt = (weights[depth] * term.eval_pair(t, tc).reshape(k, 24)).ravel()
        if per_call:
            span = 24 * per_call
            sums = []
            for lo in range(0, 24 * k, span):
                vals = fnode.weighted(t[lo : lo + span], tc[lo : lo + span], wt[lo : lo + span])
                vals = vals.reshape((-1, 24) + vals.shape[1:])
                sums.append((vals[:, :8].sum(axis=1), vals[:, 8:].sum(axis=1)))
        else:
            sums = []
            for lo in range(0, 24 * k, 24):
                mid, hi = lo + 8, lo + 24
                sums.append((
                    _reduce(fnode, t[lo:mid], tc[lo:mid], wt[lo:mid])[None],
                    _reduce(fnode, t[mid:hi], tc[mid:hi], wt[mid:hi])[None],
                ))
        coarse, fine = sums[0] if len(sums) == 1 else map(np.concatenate, zip(*sums))
        nodes += 24 * k
        diff = np.abs(fine - coarse).reshape(k, -1).max(axis=1)
        scale = np.abs(fine).reshape(k, -1).max(axis=1)
        ok = diff <= np.maximum(width * spec.abs_tol, spec.rel_tol * scale)
        levels.append((lefts, fine, diff, ok))
        if ok.all():
            break
        if depth == 12:
            i = int(np.argmin(ok))
            raise QuadratureError(
                f"gauss_legendre panels exceeded depth 12 on [{lefts[i]:.17g}, "
                f"{lefts[i] + width:.17g}] (integrand too rough)",
                value=float(np.sum(fine[i])),
                error_estimate=float(diff[i]),
                nodes_used=nodes,
            )
        lefts = np.add.outer(lefts[~ok], (0.0, 0.5 * width)).ravel()
    lefts, fine, diff, ok = map(np.concatenate, zip(*levels))
    order = np.flatnonzero(ok)
    order = order[np.argsort(lefts[order])]
    # np.add.accumulate adds left to right, as the preorder walk did
    total = np.add.accumulate(fine[order])[-1]
    err = float(np.add.accumulate(diff[order])[-1])
    return total, nodes, err


def _integrate_ifs_part(fnode, ifs, weight, spec: QuadratureSpec):
    fnode = _integrand(fnode)
    if spec.ifs_depth is None:
        return _refine_cylinders(fnode, ifs, weight, spec)
    depth = spec.ifs_depth
    t, tc, w = ifs_nodes(ifs, depth)
    value = weight * _reduce(fnode, t, tc, w)
    t2, tc2, w2 = ifs_nodes(ifs, max(depth - 2, 1))
    coarse = weight * _reduce(fnode, t2, tc2, w2)
    return value, len(t) + len(t2), _metric(value - coarse), f"ifs_recursion:{depth}"


def _refine_cylinders(fnode, ifs, weight, spec: QuadratureSpec):
    """Adaptive barycentre sum of ``weight * int fnode dmu_ifs``, level by level.

    The frontier holds the active cylinders S_w as the columns of one state
    array with rows ratio r_w, offset b_w, complement offset c_w
    (1 - S_w(t) = c_w + r_w (1 - t), composed from maps_c as ``ifs_nodes``
    does) and mass p_w, and each cylinder's weighted value at its node pair
    (S_w(m1), 1 - S_w(m1)).  A level evaluates the children of the whole
    frontier in calls of at most _CALL_VALUES values.  A cylinder agrees
    when its children's sum lies within p_w * tol of its own value, tol
    being the tolerance bound at the estimate the level starts from.  It is replaced
    by that sum once both it and its parent agree and it lies no shallower
    than the first depth with _IFS_MIN_CYLINDERS cylinders; the others pass
    their children on.  The depth floor and the second level keep an
    integrand that happens to take equal values at a few coarse nodes from
    passing for converged.  Returns (value, evaluations, summed accepted
    differences, row label).
    """
    fnode = _integrand(fnode)
    rs = np.array([r for r, _ in ifs.maps])
    ps = np.array(ifs.probs)
    m = len(rs)
    # child (i, j) of parent j is S_w o S_i: state rows r_w r_i, b_w + r_w b_i,
    # c_w + r_w c_i and p_w p_i, that is state * grow plus r_w * shift on the
    # two offset rows
    grow = np.array([rs, np.ones(m), np.ones(m), ps])[:, :, None]
    shift = np.array([[b for _, b in ifs.maps], ifs.maps_c])[:, :, None]
    # 1 - m1 is taken as the conjugate system's own barycentre, so the nodes
    # of the reflected system are exactly these with t and 1 - t swapped
    m1, m1c = ifs.moment(1), ifs.conjugate().moment(1)
    state = np.array([[1.0], [0.0], [0.0], [1.0]])
    # whether each frontier cylinder's parent agreed with its children
    parent_agreed = np.array([False])
    min_depth = 1
    while m**min_depth < _IFS_MIN_CYLINDERS:
        min_depth += 1
    vals = fnode.weighted(
        state[1] + state[0] * m1, state[2] + state[0] * m1c, weight * state[3]
    )
    total = np.zeros(vals.shape[1:])
    cylinder_bytes = 8 * (4 + total.size)
    nodes, level, err, pending = 1, 0, 0.0, 0.0
    # parents per call; the root call above told the width
    step = max(1, _CALL_VALUES // (m * fnode.width))
    while state.shape[1]:
        estimate = total + vals.sum(0)
        scale = _metric(estimate)
        tol = _tol_bound(spec, scale)
        children = m * state.shape[1]
        if (
            nodes + children > IFS_ATOM_BUDGET
            or children * cylinder_bytes > IFS_FRONTIER_BYTES
        ):
            reason = (
                f"level {level + 1} needs {children} more evaluations after "
                f"{nodes} (budget {IFS_ATOM_BUDGET} evaluations and "
                f"{IFS_FRONTIER_BYTES} bytes of frontier)"
            )
        elif tol < _RESOLUTION * scale:
            reason = f"tolerance {tol:.3e} is below the float64 resolution of the value"
        else:
            reason = None
        if reason is not None:
            raise IfsBudgetError(
                f"IFS refinement stopped at level {level}: {reason}",
                value=float(np.sum(estimate)),
                error_estimate=err + pending if level else None,
                nodes_used=nodes,
            )
        level += 1
        pending = 0.0
        kept_state, kept_vals, kept_agreed = [], [], []
        for lo in range(0, state.shape[1], step):
            part = state[:, lo : lo + step]
            kid = grow * part[:, None, :]
            kid[1:3] += shift * part[0]
            kids = fnode.weighted(
                (kid[1] + kid[0] * m1).ravel(),
                (kid[2] + kid[0] * m1c).ravel(),
                weight * kid[3].ravel(),
            )
            nodes += len(kids)
            kids = kids.reshape(kid.shape[1:] + kids.shape[1:])
            sums = kids.sum(0)
            diff = np.abs(sums - vals[lo : lo + step]).reshape(len(sums), -1).max(axis=1)
            agreed = diff <= part[3] * tol
            done = agreed & parent_agreed[lo : lo + step] & (level > min_depth)
            refine = np.flatnonzero(~done)
            total = total + sums[done].sum(0)
            err += float(diff[done].sum())
            pending += float(diff[refine].sum())
            kept_state.append(kid[:, :, refine].reshape(4, -1))
            kept_vals.append(kids[:, refine].reshape((-1,) + kids.shape[2:]))
            kept_agreed.append(np.tile(agreed[refine], m))
        state = np.concatenate(kept_state, axis=1)
        vals = np.concatenate(kept_vals)
        parent_agreed = np.concatenate(kept_agreed)
    return total, nodes, err, f"ifs_adaptive:{level}"


# ---------------------------------------------------------------------------
# measure-level driver and public wrappers


def _part_count(measure) -> int:
    n = 1 if measure.atoms else 0
    if measure.ac is not None:
        n += len(measure.ac.terms)
    if measure.sc is not None:
        n += 1
    return n


@lru_cache(maxsize=64)
def _part_spec(spec: QuadratureSpec, nparts: int) -> QuadratureSpec:
    """``spec`` with both tolerances split evenly over ``nparts`` parts."""
    return replace(spec, abs_tol=spec.abs_tol / nparts, rel_tol=spec.rel_tol / nparts)


def integrate_measure(fnode, measure, spec: QuadratureSpec | None = None) -> IntegrationReport:
    """Integrate a pair-aware node function against a UnitMeasure, by parts.

    ``fnode(t, tc)`` takes equal-length arrays of locations and complements
    and returns an array whose leading axis indexes nodes: shape (k,) for
    scalar integrands, (k, m) for vector ones such as the package's f, f^T
    and pair kernel, (k, d, d) for matrix ones.  Return a new array per
    call: the reduction scales it by the weights in place.  No call gets
    more nodes than keep its values within 2**14 (_CALL_VALUES); a node
    function may give its values per node as a ``width`` attribute, and one
    without it is measured on a single node.  Atoms are summed in atom
    order from the measure's read-only ``atom_arrays``.  Tolerances are
    split evenly across the parts so the summed error estimate still meets
    the spec's bound.
    """
    fnode = _integrand(fnode)
    spec = spec or DEFAULT_SPEC
    part_spec = _part_spec(spec, max(_part_count(measure), 1))
    rows = []
    values = []
    if measure.atoms:
        t, tc, w = measure.atom_arrays
        values.append(_reduce(fnode, t, tc, w, sequential=True))
        rows.append(("atoms", len(t), 0.0))
    if measure.ac is not None:
        for term in measure.ac.terms:
            value, nodes, err, scheme = _integrate_term(fnode, term, part_spec)
            values.append(value)
            rows.append((scheme, nodes, err))
    if measure.sc is not None:
        ifs, weight = measure.sc
        value, nodes, err, scheme = _integrate_ifs_part(fnode, ifs, weight, part_spec)
        values.append(value)
        rows.append((scheme, nodes, err))
    if not values:
        probe = np.asarray(fnode.fnode(np.array([0.5]), np.array([0.5])))
        values.append(np.zeros(probe.shape[1:]))
        rows.append(("empty", 0, 0.0))
    total = values[0]
    for v in values[1:]:
        total = total + v
    return IntegrationReport(
        value=total,
        nodes_used=sum(r[1] for r in rows),
        error_estimate=float(sum(r[2] for r in rows)),
        parts=tuple(rows),
    )


def _scalar_fnode(h):
    fnode = lambda t, tc: np.asarray(h(t), dtype=float)
    fnode.width = 1
    return fnode


def integrate_scalar_report(
    measure, h, spec: QuadratureSpec | None = None
) -> IntegrationReport:
    report = integrate_measure(_scalar_fnode(h), measure, spec)
    return IntegrationReport(
        value=float(report.value),
        nodes_used=report.nodes_used,
        error_estimate=report.error_estimate,
        parts=report.parts,
    )


def integrate_scalar(
    measure, h, spec: QuadratureSpec | None = None
) -> tuple[float, float]:
    """``int h(t) dmu(t)`` with its error estimate; ``h`` maps node arrays.

    The density rules are built for the connection kernels, which are
    analytic on (0, 1): ``h`` must be analytic on the interval too.  An
    interior kink such as ``|t - 0.37|`` against Lebesgue measure raises
    QuadratureError, as the panels around it never meet their tolerance;
    split the interval at the kink instead.
    """
    report = integrate_scalar_report(measure, h, spec)
    return report.value, report.error_estimate


def integrate_ifs(ifs, h, depth: int) -> float:
    """Depth-N midpoint integral of a scalar h against a self-similar measure."""
    t, tc, w = ifs_nodes(ifs, depth)
    return float(_reduce(_scalar_fnode(h), t, tc, w))


def node_table(measure, spec: QuadratureSpec | None = None, n: int = 64):
    """Per-part node/weight rows at a requested resolution.

    Returns (part, t, weight) triples, ordered atoms, density terms, then
    the self-similar part, so that sum over rows of weight * h(t)
    approximates ``int h dmu`` part by part.  Weights fold the density
    values in; atom rows are the measure's atoms verbatim.  Each density
    term gets n nodes (tanh-sinh picks the smallest level holding at least
    n, and the logistic rule adds its two exact tail nodes); the
    self-similar part uses the depth pinned in ``spec`` when one is set,
    otherwise the deepest level whose atom count stays within n.
    """
    spec = spec or DEFAULT_SPEC
    if n < 2:
        raise ValueError("node_table needs n >= 2")
    rows = []
    for t, tc, w in measure.atom_pairs():
        rows.append(("atoms", float(t), float(w)))
    if measure.ac is not None:
        for term in measure.ac.terms:
            scheme, nodes, _sizes = _density_scheme(term)
            t, _tc, w = nodes(term, n)
            rows.extend((scheme, float(ti), float(wi)) for ti, wi in zip(t, w))
    if measure.sc is not None:
        ifs, weight = measure.sc
        m = len(ifs.maps)
        if spec.ifs_depth is not None:
            depth = spec.ifs_depth
        else:
            depth = max(1, int(math.log(max(n, m)) / math.log(m) + 1e-12))
        t, tc, w = ifs_nodes(ifs, depth)
        rows.extend(
            (f"ifs_recursion:{depth}", float(ti), float(weight * wi))
            for ti, wi in zip(t, w)
        )
    return tuple(rows)


def density_mass(density, spec: QuadratureSpec | None = None) -> float:
    """Mass of an absolutely continuous part, term by term.

    A term that states its mass (``unit_mass``, as the catalog densities
    do) contributes weight * unit_mass; any other is integrated by its rule.
    """
    spec = spec or DEFAULT_SPEC
    ones = _scalar_fnode(np.ones_like)
    mass = 0.0
    for term in density.terms:
        if term.unit_mass is not None:
            mass += term.weight * term.unit_mass
        else:
            value, _, _, _ = _integrate_term(ones, term, spec)
            mass += float(value)
    return mass


def integrate_halfline_density(
    fnode, dens, spec: QuadratureSpec | None = None
) -> IntegrationReport:
    """``int_0^inf G(lam) rho(lam) dlam`` through rho's pullback.

    With t = lam/(1+lam) the integral is ``int_0^1 G(t/(1-t)) g(t) dt`` for
    the term g = ``dens.pullback()``, integrated by the rule its exponents
    (or its ident) pick, as any density term is.  ``fnode(t, tc)`` is G in t
    and takes node pairs, as ``integrate_measure``'s node functions do: near
    t = 1 only the exact tc keeps lam = t/tc finite and accurate.
    """
    value, nodes, err, scheme = _integrate_term(fnode, dens.pullback(), spec or DEFAULT_SPEC)
    return IntegrationReport(
        value=value,
        nodes_used=nodes,
        error_estimate=float(err),
        parts=((scheme, nodes, err),),
    )
