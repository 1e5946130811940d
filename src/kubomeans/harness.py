"""Randomized property suites for connections: the axioms, the calculus
identities, and the catalog cross-checks, packaged as named, seedable,
reportable checks.

Determinism contract: a report is a pure function of (suite, target, trials,
dim, cond, seed, tol).  Per-trial randomness comes from counter-derived
Philox keys (key = 8 * (seed * 2**20 + trial) + slot, one slot per input a
trial draws), so re-runs and suite-filtered runs produce identical reports;
a seed whose keys would leave Philox's [0, 2**128) is rejected before any
draw.  Each call draws through one bit generator, re-keyed in place for
each key (``spd._keyed_generators``), into that key's preallocated rows:
``random()`` doubles for uniforms and ``standard_normal()`` ones for
normals.  The uniform's affine map ``low + (high - low) * u`` and the
normal's ``+ 0.0`` then run once on the whole stack, which gives bit for bit
what ``uniform`` and ``normal`` on a fresh generator per key would draw.
Wall time is informational and excluded from the canonical serialization.
Suites run in one thread: the IFS node cache they reach through
``HARNESS_SPEC`` is unlocked module state.

Violations are reported relative to scale = 1 + ||A|| + ||B|| of the pair
under test, so tolerances carry across dimensions and condition numbers.

A suite task runs its trials as one stacked evaluation.  Each trial draws
its inputs from its own Philox keys exactly as it would alone; the task
stacks both input slots of all its trials, factors and validates them once
(one ``random_spd_stack`` call, whose two halves share its facts), sends
all pairs through one or two ``evaluate_many`` calls per connection and all
x through one call of the representing function, and reads the norms the
validation stored.  Only the catalog closed forms, the independent oracle,
are called per trial.  Values shared by one integration may move in the
last bits with the task's trial count, so a failing trial's recorded
violation can too; which trials fail does not.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .catalog import CatalogEntry, catalog, entry_from_id
from .connections import (
    Connection,
    decompose_connection,
    evaluate_many,
    representing_function,
    transpose,
    transpose_rep_function,
)
from .measures import total_mass
from .quadrature import QuadratureSpec, integrate_scalar
from .spd import (
    SpdStack,
    _check_cond,
    _keyed_generators,
    _normal,
    _orthogonal,
    _symmetrized,
    _uniform,
    random_spd_stack,
    spectral_norm,
)

__all__ = [
    "SuiteReport",
    "SUITES",
    "run_suite",
    "run_all",
    "applicable_suites",
]

# Final-bound suites read their tolerance differently from residual suites.
_DEFAULT_TOL = {
    "continuity": 1e-6,
    "crosscheck_closed_form": 1e-6,
}
_FALLBACK_TOL = 1e-8

# Harness evaluations pin the IFS depth so a singular-continuous part costs
# the same at every trial; densities keep their per-term default schemes.
HARNESS_SPEC = QuadratureSpec(scheme=("ifs_recursion", 12))

_CONTINUITY_EPS = tuple(10.0 ** (-k) for k in range(2, 9))


@dataclass(frozen=True)
class SuiteReport:
    """Outcome of one suite run; failures empty iff the suite passed."""

    suite: str
    target: str
    trials: int
    dim: int
    cond: float
    seed: int
    tol: float
    failures: tuple[tuple[int, float], ...]
    wall_time: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def canonical(self) -> dict:
        """Deterministic content: everything except the wall time."""
        return {
            "suite": self.suite,
            "target": self.target,
            "trials": self.trials,
            "dim": self.dim,
            "cond": self.cond,
            "seed": self.seed,
            "tol": self.tol,
            "passed": self.passed,
            "failures": [[k, v] for k, v in self.failures],
        }

    def canonical_json(self) -> str:
        return json.dumps(self.canonical(), sort_keys=True)


def _trial_key(seed: int, trial: int) -> int:
    return seed * 2**20 + trial


def _check_seed(seed: int, task_seed: int, trials: int) -> None:
    """Reject ``seed`` unless every Philox key of the task it derives
    (``task_seed``, ``trials`` trials, slots 0 to 7) lies in [0, 2**128)."""
    if seed < 0 or 8 * _trial_key(task_seed, trials - 1) + 7 >= 2**128:
        raise ValueError(
            f"seed {seed} is out of range: it must be a nonnegative integer "
            "whose trial keys stay below 2**128"
        )


def _slot_keys(keys, slot: int) -> list[int]:
    """The Philox key of each trial's input ``slot``."""
    return [8 * key + slot for key in keys]


def _pairs(keys, dim: int, cond: float) -> tuple[SpdStack, SpdStack]:
    """Every trial's random pair: ``random_spd`` on slots 0 and 1, drawn,
    factored and validated as one stack and returned as its two halves."""
    stack = random_spd_stack(dim, cond, _slot_keys(keys, 0) + _slot_keys(keys, 1))
    return stack[: len(keys)], stack[len(keys) :]


def _draws(keys, slot: int, dim: int, *ranges):
    """Per trial, ``_random_orthogonal`` on the slot's generator, then dim
    uniforms on each ``(low, high)`` of ``ranges`` from the same generator;
    the QR factorizations run as one stack."""
    normals = np.empty((len(keys), dim, dim))
    uniforms = np.empty((len(ranges), len(keys), dim))
    for i, rng in enumerate(_keyed_generators(_slot_keys(keys, slot))):
        rng.standard_normal(out=normals[i])
        for row in uniforms[:, i]:
            rng.random(out=row)
    return (
        _orthogonal(_normal(normals)),
        *(_uniform(u, low, high) for u, (low, high) in zip(uniforms, ranges)),
    )


def _log_uniform(keys, low: float, high: float, size: int) -> np.ndarray:
    """Per trial, ``size`` log-uniform x in [low, high] from slot 2."""
    u = np.empty((len(keys), size))
    for row, rng in zip(u, _keyed_generators(_slot_keys(keys, 2))):
        rng.random(out=row)
    return np.exp(_uniform(u, np.log(low), np.log(high)))


def _scale(*stacks) -> np.ndarray:
    return 1.0 + sum(spectral_norm(m) for m in stacks)


def _lambda_min_deficit(m: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, -np.linalg.eigvalsh(m)[:, 0])


def _congruence(t: np.ndarray, a) -> np.ndarray:
    """``congruence(t_i, a_i)`` per trial: T A T with T symmetrized, symmetrized."""
    t = _symmetrized(t)
    return _symmetrized(t @ np.asarray(a) @ t)


def _resolve(target) -> tuple[Connection, CatalogEntry | None, str]:
    if isinstance(target, CatalogEntry):
        return target.connection, target, target.id
    if isinstance(target, Connection):
        return target, None, target.label or "custom"
    if isinstance(target, str):
        entry = entry_from_id(target)
        return entry.connection, entry, entry.id
    raise ValueError(f"target must be a Connection or catalog id, got {target!r}")


class _SuiteContext:
    """Per-run caches shared by every trial of one suite."""

    def __init__(self, conn, entry, spec, dim, cond, tol):
        self.conn = conn
        self.entry = entry
        self.spec = spec
        self.dim = dim
        self.cond = cond
        self.tol = tol

    @cached_property
    def mass(self) -> float:
        return total_mass(self.conn.measure, self.spec)

    @cached_property
    def moment1(self) -> float:
        value, _err = integrate_scalar(self.conn.measure, lambda t: t, self.spec)
        return value

    @cached_property
    def transposed(self) -> Connection:
        return transpose(self.conn)

    @cached_property
    def parts(self):
        return decompose_connection(self.conn)

    @cached_property
    def rep(self):
        return representing_function(self.conn)

    def f(self, xs: np.ndarray) -> np.ndarray:
        """The representing function at every x of the task, in one call."""
        return self.rep.eval(xs.ravel(), self.spec).reshape(xs.shape)


# Each suite maps (ctx, trial keys) to one scale-relative violation per
# trial.  A trial's inputs come from its own Philox keys as they would
# alone; the task's pairs are evaluated together by ``evaluate_many`` and
# its x by one call of the representing function.


def _trial_monotonicity(ctx, keys) -> np.ndarray:
    a, b = _pairs(keys, ctx.dim, ctx.cond)
    bumped = []
    for slot, base in ((2, a), (3, b)):
        # a positive increment, so base + bump >= base by construction
        q, u = _draws(keys, slot, ctx.dim, (0.0, 0.5))
        u = u * (1.0 + spectral_norm(base))[:, None]
        bump = (q * u[:, None, :]) @ q.swapaxes(1, 2)
        bumped.append(SpdStack(base.entries + bump))
    c, d = bumped
    v_small = evaluate_many(ctx.conn, a, b, ctx.spec).value.entries
    v_large = evaluate_many(ctx.conn, c, d, ctx.spec).value.entries
    return _lambda_min_deficit(v_large - v_small) / _scale(c, d)


def _trial_transformer(ctx, keys) -> np.ndarray:
    a, b = _pairs(keys, ctx.dim, ctx.cond)
    q, v, flip = _draws(keys, 2, ctx.dim, (0.4, 1.6), (0.0, 1.0))
    v = v * np.where(flip < 0.5, -1.0, 1.0)
    # Exactly singular transformers stay on endpoint-supported entries, where
    # evaluation is an exact finite sum; interior-charging measures get
    # invertible T (the equality case of the transformer inequality), so
    # TAT + TBT stays PD and no trial is compressed onto range(A + B).  The
    # draws are pinned by the quick profile's canonical reports.
    if not ctx.conn.measure.charges_interior() and ctx.dim > 1:
        v[1::2, 0] = 0.0
    t = (q * v[:, None, :]) @ q.swapaxes(1, 2)
    value = evaluate_many(ctx.conn, a, b, ctx.spec).value.entries
    lhs = _congruence(t, value)
    tat = SpdStack(_congruence(t, a))
    tbt = SpdStack(_congruence(t, b))
    rhs = evaluate_many(ctx.conn, tat, tbt, ctx.spec).value.entries
    return _lambda_min_deficit(rhs - lhs) / _scale(tat, tbt)


def _trial_continuity(ctx, keys) -> np.ndarray:
    a, b = _pairs(keys, ctx.dim, ctx.cond)
    scale = _scale(a, b)
    # per trial the pair itself, then its shifts A + eps I, B + eps I
    shifts = np.multiply.outer((0.0,) + _CONTINUITY_EPS, np.eye(ctx.dim))
    stack = lambda m: (m.entries[:, None] + shifts).reshape(-1, ctx.dim, ctx.dim)
    values = evaluate_many(ctx.conn, stack(a), stack(b), ctx.spec).value.entries
    values = values.reshape(len(keys), len(shifts), ctx.dim, ctx.dim)
    gaps = spectral_norm(values[:, 1:] - values[:, :1])
    # sigma(A+eI, B+eI) decreases to sigma(A, B), so the gaps decrease too;
    # allow the quadrature error of the two evaluations per gap.
    slack = 10.0 * (ctx.spec.abs_tol + ctx.spec.rel_tol * scale)
    rises = (gaps[:, 1:] - gaps[:, :-1] - slack[:, None]) / scale[:, None]
    worst = np.maximum(0.0, rises.max(axis=1))
    worst = np.maximum(worst, gaps[:, -1] / scale - ctx.tol)
    return np.maximum(0.0, worst)


def _trial_congruence_eq(ctx, keys) -> np.ndarray:
    a, b = _pairs(keys, ctx.dim, ctx.cond)
    q, v, flip = _draws(keys, 2, ctx.dim, (-0.5, 0.5), (0.0, 1.0))
    v = np.exp(v) * np.where(flip < 0.5, -1.0, 1.0)
    t = (q * v[:, None, :]) @ q.swapaxes(1, 2)
    value = evaluate_many(ctx.conn, a, b, ctx.spec).value.entries
    lhs = _congruence(t, value)
    tat = SpdStack(_congruence(t, a))
    tbt = SpdStack(_congruence(t, b))
    rhs = evaluate_many(ctx.conn, tat, tbt, ctx.spec).value.entries
    return np.linalg.norm(rhs - lhs, axis=(1, 2)) / _scale(tat, tbt)


def _trial_norm_bound(ctx, keys) -> np.ndarray:
    a, b = _pairs(keys, ctx.dim, ctx.cond)
    value = evaluate_many(ctx.conn, a, b, ctx.spec).value
    bound = ctx.mass * np.maximum(spectral_norm(a), spectral_norm(b))
    return np.maximum(0.0, spectral_norm(value) - bound) / _scale(a, b)


def _trial_scalar_reduction(ctx, keys) -> np.ndarray:
    pair = _pairs(keys, 1, ctx.cond)
    value = evaluate_many(ctx.conn, *pair, ctx.spec).value.entries[:, 0, 0]
    a, b = (m.entries[:, 0, 0] for m in pair)
    if ctx.entry is not None and ctx.entry.closed_form_scalar is not None:
        # the closed form is the independent oracle: one call per trial
        closed = ctx.entry.closed_form_scalar
        ref = a * np.array([float(np.asarray(closed(x))) for x in b / a])
    else:
        ref = a * ctx.f(b / a)
    return np.abs(value - ref) / (1.0 + a + b)


def _trial_ordering(ctx, keys) -> np.ndarray:
    # t -> A !_t B is bounded above by the arithmetic interpolation, so
    # integrating gives sigma(A,B) <= m0*A + m1*B with the measure moments.
    a, b = _pairs(keys, ctx.dim, ctx.cond)
    m1 = ctx.moment1
    m0 = ctx.mass - m1
    value = evaluate_many(ctx.conn, a, b, ctx.spec).value.entries
    upper = m0 * a.entries + m1 * b.entries
    worst = _lambda_min_deficit(upper - value) / _scale(a, b)
    if ctx.mass > 0.0:
        # Jensen lower bound: 1 !_t x is convex in t.
        c = min(1.0, max(0.0, m1 / ctx.mass))
        xs = _log_uniform(keys, 0.1, 10.0, 4)
        fx = ctx.f(xs)
        lower = ctx.mass * xs / ((1.0 - c) * xs + c)
        worst = np.maximum(worst, ((lower - fx) / (1.0 + np.abs(fx))).max(axis=1))
    return np.maximum(0.0, worst)


def _trial_transpose_duality(ctx, keys) -> np.ndarray:
    a, b = _pairs(keys, ctx.dim, ctx.cond)
    xs = _log_uniform(keys, 0.1, 10.0, 4)
    ft = transpose_rep_function(ctx.conn, xs.ravel(), ctx.spec).reshape(xs.shape)
    ref = xs * ctx.f(1.0 / xs)
    worst = (np.abs(ft - ref) / (1.0 + np.abs(ref))).max(axis=1)
    direct = evaluate_many(ctx.conn, a, b, ctx.spec).value.entries
    swapped = evaluate_many(ctx.transposed, b, a, ctx.spec).value.entries
    gap = np.linalg.norm(swapped - direct, axis=(1, 2))
    return np.maximum(worst, gap / _scale(a, b))


def _trial_crosscheck(ctx, keys) -> np.ndarray:
    a, b = _pairs(keys, ctx.dim, ctx.cond)
    value = evaluate_many(ctx.conn, a, b, ctx.spec).value.entries
    # the closed form is the independent oracle: one call per trial
    closed = np.array([
        np.asarray(ctx.entry.closed_form_matrix(a[i], b[i])) for i in range(len(keys))
    ])
    err = np.linalg.norm(value - closed, axis=(1, 2))
    return err / np.linalg.norm(closed, axis=(1, 2))


def _trial_representation(ctx, keys) -> np.ndarray:
    xs = _log_uniform(keys, 0.05, 20.0, 8)
    fx = ctx.f(xs)
    # the closed form is the independent oracle: one call per trial
    closed = ctx.entry.closed_form_scalar
    ref = np.array([np.asarray(closed(x), dtype=float) for x in xs])
    return np.abs(fx - ref).max(axis=1)


def _trial_decomposition(ctx, keys) -> np.ndarray:
    a, b = _pairs(keys, ctx.dim, ctx.cond)
    c_ac, c_sc, c_sd, f_ac, f_sc, f_sd = ctx.parts
    total = np.zeros((len(keys), ctx.dim, ctx.dim))
    for part in (c_ac, c_sc, c_sd):
        if not part.measure.is_zero():
            total = total + evaluate_many(part, a, b, ctx.spec).value.entries
    value = evaluate_many(ctx.conn, a, b, ctx.spec).value.entries
    worst = np.linalg.norm(total - value, axis=(1, 2)) / _scale(a, b)
    xs = _log_uniform(keys, 0.1, 10.0, 4)
    fx = ctx.f(xs)
    flat = xs.ravel()
    resum = (f_ac(flat, ctx.spec) + f_sc(flat, ctx.spec) + f_sd(flat, ctx.spec))
    resum = resum.reshape(xs.shape)
    return np.maximum(worst, (np.abs(resum - fx) / (1.0 + np.abs(fx))).max(axis=1))


# The table order is the suite order.
_TRIALS = {
    "monotonicity": _trial_monotonicity,
    "transformer": _trial_transformer,
    "continuity": _trial_continuity,
    "congruence_eq": _trial_congruence_eq,
    "norm_bound": _trial_norm_bound,
    "scalar_reduction": _trial_scalar_reduction,
    "ordering": _trial_ordering,
    "transpose_duality": _trial_transpose_duality,
    "crosscheck_closed_form": _trial_crosscheck,
    "representation_agreement": _trial_representation,
    "decomposition_roundtrip": _trial_decomposition,
}
SUITES = tuple(_TRIALS)

# Suites that compare against a closed form: the CatalogEntry field they
# read, and what a target without it lacks.
_NEEDS_CLOSED_FORM = {
    "crosscheck_closed_form": ("closed_form_matrix", "matrix to cross-check"),
    "representation_agreement": ("closed_form_scalar", "representing function"),
}


def _lacks_closed_form(suite: str, entry: CatalogEntry | None) -> bool:
    need = _NEEDS_CLOSED_FORM.get(suite)
    return need is not None and (entry is None or getattr(entry, need[0]) is None)


def applicable_suites(entry: CatalogEntry) -> tuple[str, ...]:
    """The suites that can run against a catalog entry."""
    return tuple(s for s in SUITES if not _lacks_closed_form(s, entry))


def run_suite(
    suite: str,
    target,
    trials: int = 50,
    dim: int = 4,
    cond: float = 100.0,
    seed: int = 0,
    tol: float | None = None,
    spec: QuadratureSpec | None = None,
) -> SuiteReport:
    """Run one property suite against a connection or catalog id.

    Records (trial key, violation) for every trial whose scale-relative
    violation exceeds tol.  Unknown suites, unknown catalog ids, suites
    that need a closed form the target lacks, a ``cond`` that is not a
    finite number >= 1, and seeds whose Philox keys leave [0, 2**128) are
    usage errors.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    _check_cond(cond)
    _check_seed(seed, seed, trials)
    conn, entry, name = _resolve(target)
    if _lacks_closed_form(suite, entry):
        raise ValueError(f"{name} has no closed-form {_NEEDS_CLOSED_FORM[suite][1]}")
    if tol is None:
        tol = _DEFAULT_TOL.get(suite, _FALLBACK_TOL)
    spec = spec or HARNESS_SPEC
    ctx = _SuiteContext(conn, entry, spec, dim, cond, tol)
    trial_fn = _TRIALS[suite]
    # continuity folds tol into each trial's value as the final bound
    bound = 0.0 if suite == "continuity" else tol

    start = time.perf_counter()
    keys = [_trial_key(seed, trial) for trial in range(trials)]
    violations = trial_fn(ctx, keys)
    failures = [(key, float(v)) for key, v in zip(keys, violations) if v > bound]
    wall = time.perf_counter() - start
    return SuiteReport(
        suite=suite,
        target=name,
        trials=trials,
        dim=dim,
        cond=cond,
        seed=seed,
        tol=tol,
        failures=tuple(failures),
        wall_time=wall,
    )


_PROFILES = {
    "quick": {"trials": 20, "dims": (4,), "cond": 100.0},
    "full": {"trials": 200, "dims": (2, 6, 12), "cond": 100.0},
}


def run_all(
    profile: str = "quick",
    seed: int = 0,
    suites: tuple[str, ...] | None = None,
    spec: QuadratureSpec | None = None,
) -> list[SuiteReport]:
    """Every catalog entry crossed with every applicable suite.

    quick: 20 trials per suite at dim 4.  full: 200 trials per suite spread
    over dims 2, 6, 12.  ``suites`` restricts the cross product without
    changing any task's derived seed, so a filtered run reproduces the
    corresponding reports of the full run byte for byte.  A seed whose
    task keys would leave Philox's [0, 2**128) is rejected before any task
    runs.  Tasks run in one thread, in order; to use several cores, run one
    process per suite.
    """
    if profile not in _PROFILES:
        raise ValueError(f"unknown profile {profile!r}; use quick or full")
    if suites is not None:
        unknown = [s for s in suites if s not in SUITES]
        if unknown:
            raise ValueError(f"unknown suite {unknown[0]!r}")
    cfg = _PROFILES[profile]
    dims = cfg["dims"]
    tasks = []
    for e_idx, entry in enumerate(catalog()):
        for s_idx, suite in enumerate(applicable_suites(entry)):
            if suites is not None and suite not in suites:
                continue
            for d_idx, dim in enumerate(dims):
                per_dim = cfg["trials"] // len(dims)
                extra = 1 if (cfg["trials"] % len(dims)) > d_idx else 0
                task_seed = ((seed * 131 + e_idx) * 131 + s_idx) * 131 + d_idx
                tasks.append(
                    {"suite": suite, "target": entry, "trials": per_dim + extra,
                     "dim": dim, "seed": task_seed}
                )
    for task in tasks:
        _check_seed(seed, task["seed"], task["trials"])
    return [run_suite(**task, cond=cfg["cond"], spec=spec) for task in tasks]
