"""Named connections with paired closed forms and associated measures.

Each entry binds a connection (its measure) to closed-form evaluators, so
every suite can cross-check the quadrature route against textbook formulas.
The geometric, log-mean and dual-log-mean matrix closed forms are the
entry's own scalar f lifted by one Kubo-Ando congruence kernel,
A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2}.  The atomic entries sum
weighted_harmonic, which is the one-atom measure route, and parallel_sum
keeps its own solve.  Ids are stable strings used by the CLI:

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

from .connections import (
    Connection,
    _pair,
    _shift_schedule,
    _sym,
    parallel_sum as _parallel_sum_op,
    weighted_harmonic,
)
from .measures import (
    UnitMeasure,
    cantor_measure,
    geometric_density,
    lebesgue_density,
    logmean_density,
)
from .spd import SpdMatrix, apply_spectral_function

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
    return np.where(near, _horner(series, d), raw)


def logmean_scalar(x):
    """(x - 1)/log x extended by 0 at x = 0 and 1 at x = 1."""
    x = np.asarray(x, dtype=float)
    out = _piecewise_near_one(x, _LOGMEAN_SERIES, lambda v: (v - 1.0) / np.log(v))
    return np.where(x == 0.0, 0.0, out)


def duallog_scalar(x):
    """x log x/(x - 1) extended by 0 at x = 0 and 1 at x = 1."""
    x = np.asarray(x, dtype=float)
    out = _piecewise_near_one(
        x, _DUALLOG_SERIES, lambda v: v * np.log(v) / (v - 1.0)
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
    """A sigma B = A^{1/2} f(A^{-1/2} B A^{-1/2}) A^{1/2} for a scalar f.

    The inner spectrum is clamped at 0 before f sees it, so a singular B
    needs only f(0).  A singular A goes through the shift schedule.
    """

    def kernel(ae, be, _scale_norm):
        A = SpdMatrix(ae)
        rt = np.asarray(apply_spectral_function(A, np.sqrt))
        rti = np.asarray(apply_spectral_function(A, lambda w: 1.0 / np.sqrt(w)))
        inner = SpdMatrix(rti @ be @ rti)
        outer = apply_spectral_function(
            inner, lambda w: f(np.maximum(w, 0.0)), name="closed form"
        )
        return rt @ np.asarray(outer) @ rt

    def closed(a, b) -> SpdMatrix:
        A, B = _pair(a, b)
        value, _eps = _shift_schedule(A, B, A.is_strictly_pd, kernel)
        return SpdMatrix(_sym(np.asarray(value, dtype=float)))

    return closed


# ---------------------------------------------------------------------------
# entry builders


def _left() -> CatalogEntry:
    conn = Connection(
        UnitMeasure(atoms=((0.0, 1.0),)), label="left_trivial",
        closed_form="left_trivial",
    )
    return CatalogEntry(
        id="left_trivial",
        connection=conn,
        closed_form_matrix=lambda a, b: _pair(a, b)[0],
        closed_form_scalar=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        symmetric=False,
        is_mean=True,
    )


def _right() -> CatalogEntry:
    conn = Connection(
        UnitMeasure(atoms=((1.0, 1.0),)), label="right_trivial",
        closed_form="right_trivial",
    )
    return CatalogEntry(
        id="right_trivial",
        connection=conn,
        closed_form_matrix=lambda a, b: _pair(a, b)[1],
        closed_form_scalar=lambda x: np.asarray(x, dtype=float).copy(),
        symmetric=False,
        is_mean=True,
    )


def _arithmetic(alpha: float) -> CatalogEntry:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"arithmetic weight must lie in [0, 1], got {alpha}")
    ident = f"arithmetic:{alpha!r}"
    conn = Connection(
        UnitMeasure(atoms=((0.0, 1.0 - alpha), (1.0, alpha))),
        label=ident,
        closed_form=ident,
    )

    def closed(a, b):
        A, B = _pair(a, b)
        return SpdMatrix((1.0 - alpha) * A.entries + alpha * B.entries)

    return CatalogEntry(
        id=ident,
        connection=conn,
        closed_form_matrix=closed,
        closed_form_scalar=lambda x: (1.0 - alpha)
        + alpha * np.asarray(x, dtype=float),
        symmetric=alpha == 0.5,
        is_mean=True,
    )


def _harmonic(t: float) -> CatalogEntry:
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"harmonic weight must lie in [0, 1], got {t}")
    ident = f"harmonic:{t!r}"
    conn = Connection(
        UnitMeasure(atoms=((t, 1.0),)), label=ident, closed_form=ident
    )
    return CatalogEntry(
        id=ident,
        connection=conn,
        closed_form_matrix=lambda a, b: weighted_harmonic(a, b, t),
        closed_form_scalar=_harmonic_scalar_at(t),
        symmetric=t == 0.5,
        is_mean=True,
    )


def _geometric(alpha: float) -> CatalogEntry:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"geometric weight must lie in [0, 1], got {alpha}")
    if alpha == 0.0:
        return _left()
    if alpha == 1.0:
        return _right()
    ident = f"geometric:{alpha!r}"
    conn = Connection(
        UnitMeasure(ac=geometric_density(alpha)), label=ident, closed_form=ident
    )

    def scalar(x):
        x = np.asarray(x, dtype=float)
        return np.power(x, alpha)

    return CatalogEntry(
        id=ident,
        connection=conn,
        closed_form_matrix=_congruence_closed(scalar),
        closed_form_scalar=scalar,
        symmetric=alpha == 0.5,
        is_mean=True,
    )


def _sum_entry() -> CatalogEntry:
    conn = Connection(
        UnitMeasure(atoms=((0.0, 1.0), (1.0, 1.0))), label="sum", closed_form="sum"
    )

    def closed(a, b):
        A, B = _pair(a, b)
        return SpdMatrix(A.entries + B.entries)

    return CatalogEntry(
        id="sum",
        connection=conn,
        closed_form_matrix=closed,
        closed_form_scalar=lambda x: 1.0 + np.asarray(x, dtype=float),
        symmetric=True,
        is_mean=False,
    )


def _parallel_sum_entry() -> CatalogEntry:
    conn = Connection(
        UnitMeasure(atoms=((0.5, 0.5),)), label="parallel_sum",
        closed_form="parallel_sum",
    )

    def scalar(x):
        x = np.asarray(x, dtype=float)
        return x / (1.0 + x)

    return CatalogEntry(
        id="parallel_sum",
        connection=conn,
        closed_form_matrix=lambda a, b: _parallel_sum_op(a, b),
        closed_form_scalar=scalar,
        symmetric=True,
        is_mean=False,
    )


def _log_mean() -> CatalogEntry:
    conn = Connection(
        UnitMeasure(ac=logmean_density()), label="log_mean", closed_form="log_mean"
    )
    return CatalogEntry(
        id="log_mean",
        connection=conn,
        closed_form_matrix=_congruence_closed(logmean_scalar),
        closed_form_scalar=logmean_scalar,
        symmetric=True,
        is_mean=True,
    )


def _dual_log_mean() -> CatalogEntry:
    conn = Connection(
        UnitMeasure(ac=lebesgue_density()), label="dual_log_mean",
        closed_form="dual_log_mean",
    )
    return CatalogEntry(
        id="dual_log_mean",
        connection=conn,
        closed_form_matrix=_congruence_closed(duallog_scalar),
        closed_form_scalar=duallog_scalar,
        symmetric=True,
        is_mean=True,
    )


def _finite_atomic(atoms) -> CatalogEntry:
    atoms = tuple((float(t), float(w)) for t, w in atoms)
    if not atoms:
        raise ValueError("finite_atomic needs at least one atom")
    measure = UnitMeasure(atoms=atoms)
    merged = measure.atoms
    ident = "finite_atomic:" + ",".join(f"{w!r}@{t!r}" for t, w in merged)
    conn = Connection(measure, label=ident, closed_form=ident)

    def closed(a, b):
        A, B = _pair(a, b)
        total = np.zeros((A.dim, A.dim))
        for t, w in merged:
            total = total + w * np.asarray(weighted_harmonic(A, B, t))
        return SpdMatrix(total)

    def scalar(x):
        x = np.asarray(x, dtype=float)
        total = np.zeros_like(x)
        for t, w in merged:
            total = total + w * _harmonic_scalar_at(t)(x)
        return total

    pairs = measure.atom_pairs()
    symmetric = sorted((t, w) for t, _tc, w in pairs) == sorted(
        (tc, w) for _t, tc, w in pairs
    )
    mass = math.fsum(w for _t, w in merged)
    return CatalogEntry(
        id=ident,
        connection=conn,
        closed_form_matrix=closed,
        closed_form_scalar=scalar,
        symmetric=symmetric,
        is_mean=abs(mass - 1.0) <= 1e-12,
    )


def _cantor() -> CatalogEntry:
    conn = Connection(cantor_measure(), label="cantor_mean", closed_form=None)
    return CatalogEntry(
        id="cantor_mean",
        connection=conn,
        closed_form_matrix=None,
        closed_form_scalar=None,
        symmetric=True,
        is_mean=True,
    )


_DEFAULT_ATOMIC = ((0.25, 0.5), (0.75, 0.5))


def catalog() -> list[CatalogEntry]:
    """The full entry list, one default instance per parametrized family."""
    return [
        _left(),
        _right(),
        _arithmetic(0.3),
        _harmonic(0.5),
        _geometric(0.3),
        _sum_entry(),
        _parallel_sum_entry(),
        _log_mean(),
        _dual_log_mean(),
        _finite_atomic(_DEFAULT_ATOMIC),
        _cantor(),
    ]


def catalog_ids() -> list[str]:
    return [entry.id for entry in catalog()]


_ALIASES = {
    "dual_log": "dual_log_mean",
    "cantor": "cantor_mean",
    "atomic": "finite_atomic",
}

_FIXED = {
    "left_trivial": _left,
    "right_trivial": _right,
    "sum": _sum_entry,
    "parallel_sum": _parallel_sum_entry,
    "log_mean": _log_mean,
    "dual_log_mean": _dual_log_mean,
    "cantor_mean": _cantor,
}

_PARAM_DEFAULTS = {
    "arithmetic": (_arithmetic, 0.3),
    "harmonic": (_harmonic, 0.5),
    "geometric": (_geometric, 0.3),
}


def _parse_atom_list(text: str):
    atoms = []
    for item in text.split(","):
        item = item.strip()
        if "@" not in item:
            raise ValueError(
                f"atom {item!r} is not weight@location (e.g. 0.5@0.25)"
            )
        w_text, t_text = item.split("@", 1)
        atoms.append((float(t_text), float(w_text)))
    return atoms


def entry_from_id(ident: str) -> CatalogEntry:
    """Resolve a catalog id string, `name` or `name:param`, to an entry.

    Unknown names and malformed parameters raise ValueError (a usage error
    at the CLI boundary).
    """
    text = ident.strip()
    name, _sep, param = text.partition(":")
    name = name.strip()
    name = _ALIASES.get(name, name)
    param = param.strip()
    if name in _FIXED:
        if param:
            raise ValueError(f"{name} takes no parameter, got {param!r}")
        return _FIXED[name]()
    if name in _PARAM_DEFAULTS:
        build, default = _PARAM_DEFAULTS[name]
        try:
            value = float(param) if param else default
        except ValueError:
            raise ValueError(f"bad parameter for {name}: {param!r}") from None
        return build(value)
    if name == "finite_atomic":
        if not param:
            return _finite_atomic(_DEFAULT_ATOMIC)
        return _finite_atomic(_parse_atom_list(param))
    raise ValueError(f"unknown catalog id {ident!r}")


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
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0.0) or not np.all(np.isfinite(xs)):
        raise ValueError("representing functions take finite x >= 0")
    vals = np.asarray(entry.closed_form_scalar(xs), dtype=float)
    return float(vals) if xs.ndim == 0 else vals
