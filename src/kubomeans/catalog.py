"""Named connections with paired closed forms and associated measures.

Each entry binds a connection (its measure) to closed-form evaluators, so
every suite can cross-check the quadrature route against textbook formulas.
There is one builder per measure kind.  An entry of finitely many atoms
sum_j w_j delta_{t_j} is the sum of weighted harmonic means
sum_j w_j A !_{t_j} B, with A !_0 B = A, A !_1 B = B and an interior atom
the parallel sum (A/(1-t)) : (B/t) = [(1-t)A^{-1} + tB^{-1}]^{-1}; its
scalar is sum_j w_j x / ((1-t_j)x + t_j).  A density entry (geometric,
log-mean, dual-log-mean) lifts its own scalar f in a congruence basis M that
carries A to diag(a) and B to diag(b), as M diag(a_i f(b_i / a_i)) M^T; M
comes from the eigendecomposition of A + B, not from the Cholesky factor
evaluation uses.  Neither goes through the measure's quadrature route, so
both stay independent of it.  Ids are stable strings used by the CLI:

    left_trivial  right_trivial  arithmetic:a  harmonic:t  geometric:a
    sum  parallel_sum  log_mean  dual_log_mean  finite_atomic:w@t,...
    cantor_mean

with aliases dual_log, cantor, atomic.  Parametrized families accept the
parameter after a colon; geometric degrades to the trivial means at a = 0
and a = 1, where its density formula stops existing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .connections import Connection, _pair, _parallel, _rep_argument, _values
from .measures import (
    UnitMeasure,
    cantor_measure,
    geometric_density,
    lebesgue_density,
    logmean_density,
)
from .spd import SpdMatrix, _symmetrized

# Unused here; perfbench/tracing.py rebinds these names in each importing module.
from .connections import _run_schedule  # noqa: F401
from .spd import spectral_norm  # noqa: F401

__all__ = [
    "CatalogEntry",
    "catalog",
    "catalog_ids",
    "entry_from_id",
    "closed_form_eval",
    "representing_function_closed",
]

# Series for (x-1)/log x about x=1; double precision loses the direct form
# to cancellation below |x-1| ~ 1e-4, where six terms are already ~1e-28.
_LOGMEAN_SERIES = (
    1.0,
    1.0 / 2.0,
    -1.0 / 12.0,
    1.0 / 24.0,
    -19.0 / 720.0,
    3.0 / 160.0,
    -863.0 / 60480.0,
)
# x log x / (x-1) about x=1; coefficients (-1)^k / (k(k+1)) past the linear term.
_DUALLOG_SERIES = (
    1.0,
    1.0 / 2.0,
    -1.0 / 6.0,
    1.0 / 12.0,
    -1.0 / 20.0,
    1.0 / 30.0,
    -1.0 / 42.0,
)
_SERIES_SWITCH = 1e-4


def _horner(coeffs, d):
    out = np.zeros_like(d)
    for c in reversed(coeffs):
        out = out * d + c
    return out


def _piecewise_near_one(x, series, away):
    """Evaluate `away(x)` except in the cancellation window around x = 1."""
    x = np.asarray(x, dtype=float)
    d = x - 1.0
    near = np.abs(d) < _SERIES_SWITCH
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = away(x)
    # the series only at points in the window, where d*d cannot overflow
    return np.where(near, _horner(series, np.where(near, d, 0.0)), raw)


def logmean_scalar(x):
    """(x - 1)/log x extended by 0 at x = 0 and 1 at x = 1."""
    x = np.asarray(x, dtype=float)
    out = _piecewise_near_one(x, _LOGMEAN_SERIES, lambda v: (v - 1.0) / np.log(v))
    return np.where(x == 0.0, 0.0, out)


def duallog_scalar(x):
    """x log x/(x - 1) extended by 0 at x = 0 and 1 at x = 1."""
    x = np.asarray(x, dtype=float)
    out = _piecewise_near_one(
        x, _DUALLOG_SERIES, lambda v: np.log(v) * (v / (v - 1.0))
    )
    return np.where(x == 0.0, 0.0, out)


def _harmonic_scalar_at(t: float):
    def f(x):
        x = np.asarray(x, dtype=float)
        if t == 0.0:
            return np.ones_like(x)
        if t == 1.0:
            return x.copy()
        return x / ((1.0 - t) * x + t)

    return f


def _power_scalar_at(a: float):
    return lambda x: np.power(np.asarray(x, dtype=float), a)


@dataclass(frozen=True)
class CatalogEntry:
    """A named connection plus its independent closed forms and flags."""

    id: str
    connection: Connection
    closed_form_matrix: Callable | None = field(default=None, compare=False)
    closed_form_scalar: Callable | None = field(default=None, compare=False)
    symmetric: bool = False
    is_mean: bool = False


# ---------------------------------------------------------------------------
# the Kubo-Ando closed form


def _congruence_closed(f):
    """A sigma B = M diag(a_i f(b_i / a_i)) M^T for a scalar f.

    With A + B = Q Lambda Q^T (eigenpairs above that sum's eig_floor) and
    S = Q Lambda^{-1/2}, the whitened S^T A S = V diag(mu) V^T diagonalises
    both inputs at once: M = Q Lambda^{1/2} V carries A to diag(a) and B to
    diag(b), where a_i and b_i are the quadratic forms of A and B at the
    columns w_i of S V.  Each keeps the relative accuracy of its own input,
    and a pair whose A + B is singular is taken on range(A + B) by the same
    step, so every PSD pair has a value: the limit from above (M3).  For a
    non-strictly-PD input, forms at or below its eig_floor |w_i|^2 are float
    noise in its null space and are set to 0, so x**alpha or 1/|log x| never
    lift them.  g_i = a_i f(b_i / a_i) is homogeneous, and g_i = 0 where
    a_i = 0 (these entries carry no atom at 1).
    """

    def closed(a, b) -> SpdMatrix:
        pair = _pair(a, b)
        A, B, total = pair.A, pair.B, pair.total(0)
        lam, q = np.linalg.eigh(total.entries)
        keep = lam > total.eig_floor
        lam, q = lam[keep], q[:, keep]
        s = q / np.sqrt(lam)
        vecs = np.linalg.eigh(_symmetrized(s.T @ A.entries @ s))[1]
        w = s @ vecs
        forms = []
        for x in (A, B):
            form = np.maximum(np.sum(w * (x.entries @ w), axis=0), 0.0)
            if not x.is_strictly_pd:
                form[form <= x.eig_floor * np.sum(w**2, axis=0)] = 0.0
            forms.append(form)
        ai, bi = forms
        g = np.zeros_like(ai)
        pos = ai > 0.0
        g[pos] = ai[pos] * f(bi[pos] / ai[pos])
        m = (q * np.sqrt(lam)) @ vecs
        return SpdMatrix(_symmetrized((m * g) @ m.T))

    return closed


# ---------------------------------------------------------------------------
# entry builders, one per measure kind


def _atomic(ident: str, atoms) -> CatalogEntry:
    """An entry whose measure is finitely many atoms: a sum of weighted
    harmonic means, sum_j w_j A !_{t_j} B.

    A !_0 B = A and A !_1 B = B; an interior atom is the parallel sum
    (A/(1-t)) : (B/t) = [(1-t)A^{-1} + tB^{-1}]^{-1}, which solves a pencil
    of its own rather than the measure route's quadrature.  It is formed as
    (tA : (1-t)B) / (t(1-t)), whose scaled inputs cannot overflow where
    A/(1-t) would.  A pair whose A + B is singular is summed on
    range(A + B) once, for all its atoms.
    """
    measure = UnitMeasure(atoms=atoms)
    pairs = measure.atom_pairs()
    interior = measure.charges_interior()

    def kernel(Ae, Be, _key):
        total = np.zeros(Ae.shape)
        for t, tc, w in pairs:
            if t == 0.0:
                h = Ae
            elif t == 1.0:
                h = Be
            else:
                h = _symmetrized(_parallel(t * Ae, tc * Be)) / (t * tc)
            total = total + w * h
        return total

    def closed(a, b):
        return SpdMatrix(_values(_pair(a, b), kernel, interior)[0])

    def scalar(x):
        x = np.asarray(x, dtype=float)
        total = np.zeros_like(x)
        for t, _tc, w in pairs:
            total = total + w * _harmonic_scalar_at(t)(x)
        return total

    symmetric = sorted((t, w) for t, _tc, w in pairs) == sorted(
        (tc, w) for _t, tc, w in pairs
    )
    mass = math.fsum(w for _t, _tc, w in pairs)
    return CatalogEntry(
        id=ident,
        connection=Connection(measure, label=ident),
        closed_form_matrix=closed,
        closed_form_scalar=scalar,
        symmetric=symmetric,
        is_mean=abs(mass - 1.0) <= 1e-12,
    )


def _density(ident: str, density, f, symmetric: bool = True) -> CatalogEntry:
    """A unit-mass density entry whose matrix closed form lifts its scalar f."""
    return CatalogEntry(
        id=ident,
        connection=Connection(UnitMeasure(ac=density), label=ident),
        closed_form_matrix=_congruence_closed(f),
        closed_form_scalar=f,
        symmetric=symmetric,
        is_mean=True,
    )


def _cantor() -> CatalogEntry:
    return CatalogEntry(
        id="cantor_mean",
        connection=Connection(cantor_measure(), label="cantor_mean"),
        closed_form_matrix=None,
        closed_form_scalar=None,
        symmetric=True,
        is_mean=True,
    )


# ---------------------------------------------------------------------------
# ids


def _weight(family: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"bad parameter for {family}: {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{family} weight must lie in [0, 1], got {value}")
    return value


def _atom_list(_family: str, text: str):
    """Parse ``w@t,w@t,...`` into the merged (location, weight) atoms."""
    atoms = []
    for item in text.split(","):
        item = item.strip()
        if "@" not in item:
            raise ValueError(
                f"atom {item!r} is not weight@location (e.g. 0.5@0.25)"
            )
        w_text, t_text = item.split("@", 1)
        atoms.append((float(t_text), float(w_text)))
    merged = UnitMeasure(atoms=atoms).atoms
    if not merged:
        # the zero measure would print as "finite_atomic:", which resolves
        # back to the default list
        raise ValueError(f"atom list {text!r} needs a positive weight")
    return merged


# One row per family, in catalog order: its names (canonical first, then
# aliases), the parameter parser (None: the entry takes no parameter), the
# default parameter, and the builder on the parsed parameter.
_IDS = (
    (("left_trivial",), None, None,
     lambda _: _atomic("left_trivial", ((0.0, 1.0),))),
    (("right_trivial",), None, None,
     lambda _: _atomic("right_trivial", ((1.0, 1.0),))),
    (("arithmetic",), _weight, "0.3",
     lambda a: _atomic(f"arithmetic:{a!r}", ((0.0, 1.0 - a), (1.0, a)))),
    (("harmonic",), _weight, "0.5",
     lambda t: _atomic(f"harmonic:{t!r}", ((t, 1.0),))),
    # geometric's density stops existing at a = 0 and a = 1
    (("geometric",), _weight, "0.3",
     lambda a: _density(
         f"geometric:{a!r}", geometric_density(a), _power_scalar_at(a), a == 0.5
     ) if 0.0 < a < 1.0 else _resolve("right_trivial" if a else "left_trivial")),
    (("sum",), None, None,
     lambda _: _atomic("sum", ((0.0, 1.0), (1.0, 1.0)))),
    (("parallel_sum",), None, None,
     lambda _: _atomic("parallel_sum", ((0.5, 0.5),))),
    (("log_mean",), None, None,
     lambda _: _density("log_mean", logmean_density(), logmean_scalar)),
    (("dual_log_mean", "dual_log"), None, None,
     lambda _: _density("dual_log_mean", lebesgue_density(), duallog_scalar)),
    (("finite_atomic", "atomic"), _atom_list, "0.5@0.25,0.5@0.75",
     lambda atoms: _atomic(
         "finite_atomic:" + ",".join(f"{w!r}@{t!r}" for t, w in atoms), atoms
     )),
    (("cantor_mean", "cantor"), None, None, lambda _: _cantor()),
)


def _resolve(ident: str) -> CatalogEntry:
    name, _sep, param = ident.strip().partition(":")
    name, param = name.strip(), param.strip()
    for names, parse, default, build in _IDS:
        if name in names:
            break
    else:
        raise ValueError(f"unknown catalog id {ident!r}")
    if parse is None:
        if param:
            raise ValueError(f"{names[0]} takes no parameter, got {param!r}")
        return build(None)
    return build(parse(names[0], param or default))


def catalog() -> list[CatalogEntry]:
    """The full entry list, one default instance per parametrized family."""
    # _resolve, not entry_from_id: a wrapper rebound on the public name (as
    # perfbench/tracing.py does) must not wrap these entries a second time
    return [_resolve(names[0]) for names, *_rest in _IDS]


def catalog_ids() -> list[str]:
    return [entry.id for entry in catalog()]


def entry_from_id(ident: str) -> CatalogEntry:
    """Resolve a catalog id string, `name` or `name:param`, to an entry.

    Unknown names and malformed parameters raise ValueError (a usage error
    at the CLI boundary).
    """
    return _resolve(ident)


def closed_form_eval(ident: str, a, b) -> SpdMatrix:
    """Evaluate an entry's closed-form matrix formula."""
    entry = entry_from_id(ident)
    if entry.closed_form_matrix is None:
        raise ValueError(f"{entry.id} has no closed-form matrix evaluator")
    return entry.closed_form_matrix(a, b)


def representing_function_closed(ident: str, x):
    """Evaluate an entry's exact scalar representing function."""
    entry = entry_from_id(ident)
    if entry.closed_form_scalar is None:
        raise ValueError(f"{entry.id} has no closed-form representing function")
    xs = _rep_argument(x)
    vals = np.asarray(entry.closed_form_scalar(xs), dtype=float)
    return float(vals) if xs.ndim == 0 else vals
