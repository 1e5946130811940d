"""Randomized property suites for connections: the axioms, the calculus
identities, and the catalog cross-checks, packaged as named, seedable,
reportable checks.

Determinism contract: a report is a pure function of (suite, target, trials,
dim, cond, seed, tol).  Per-trial randomness comes from counter-derived
Philox keys (key = seed * 2**20 + trial), so serial, re-run, and thread-pool
executions produce identical reports; wall time is informational and excluded
from the canonical serialization.

Violations are reported relative to scale = 1 + ||A|| + ||B|| of the pair
under test, so tolerances carry across dimensions and condition numbers.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .catalog import CatalogEntry, catalog, entry_from_id
from .connections import (
    Connection,
    add_connections,
    decompose_connection,
    evaluate,
    representing_function,
    transpose,
    transpose_rep_function,
)
from .measures import total_mass
from .quadrature import QuadratureSpec, integrate_scalar
from .spd import _random_orthogonal, congruence, random_spd, spectral_norm

__all__ = [
    "SuiteReport",
    "SUITES",
    "run_suite",
    "run_all",
    "applicable_suites",
    "thread_count",
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


def thread_count() -> int:
    """Worker count from KUBO_MEANS_THREADS; 0 means auto, unset means 1."""
    raw = os.environ.get("KUBO_MEANS_THREADS", "1").strip()
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"KUBO_MEANS_THREADS must be an integer, got {raw!r}")
    if n < 0:
        raise ValueError("KUBO_MEANS_THREADS must be >= 0")
    if n == 0:
        return os.cpu_count() or 1
    return n


def _trial_key(seed: int, trial: int) -> int:
    return seed * 2**20 + trial


def _trial_rng(key: int, slot: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=8 * key + slot))


def _pair(key: int, dim: int, cond: float):
    a = random_spd(dim, cond, 8 * key + 0)
    b = random_spd(dim, cond, 8 * key + 1)
    return a.entries, b.entries


def _scale(*mats) -> float:
    return 1.0 + sum(spectral_norm(m) for m in mats)


def _lambda_min_deficit(m) -> float:
    return max(0.0, -float(np.linalg.eigvalsh(np.asarray(m))[0]))


def _order_bump(rng: np.random.Generator, base: np.ndarray) -> np.ndarray:
    """A positive increment, so base + bump >= base holds by construction."""
    dim = base.shape[0]
    q = _random_orthogonal(rng, dim)
    u = rng.uniform(0.0, 0.5, size=dim) * (1.0 + spectral_norm(base))
    return (q * u) @ q.T


def _transformer_matrix(rng, dim: int, singular: bool) -> np.ndarray:
    q = _random_orthogonal(rng, dim)
    v = rng.uniform(0.4, 1.6, size=dim)
    v = v * np.where(rng.random(dim) < 0.5, -1.0, 1.0)
    if singular and dim > 1:
        v[0] = 0.0
    return (q * v) @ q.T


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


def _trial_monotonicity(ctx, key, trial) -> float:
    a, b = _pair(key, ctx.dim, ctx.cond)
    c = a + _order_bump(_trial_rng(key, 2), a)
    d = b + _order_bump(_trial_rng(key, 3), b)
    v_small = np.asarray(evaluate(ctx.conn, a, b, ctx.spec))
    v_large = np.asarray(evaluate(ctx.conn, c, d, ctx.spec))
    return _lambda_min_deficit(v_large - v_small) / _scale(c, d)


def _trial_transformer(ctx, key, trial) -> float:
    a, b = _pair(key, ctx.dim, ctx.cond)
    # Exactly singular transformers stay on endpoint-supported entries, where
    # evaluation is an exact finite sum; interior-charging measures get
    # invertible T (the equality case of the transformer inequality) so the
    # suite never rides on the eps schedule's looser acceptance.
    endpoint_only = not ctx.conn.measure.charges_interior()
    singular = endpoint_only and trial % 2 == 1
    t = _transformer_matrix(_trial_rng(key, 2), ctx.dim, singular)
    v = np.asarray(evaluate(ctx.conn, a, b, ctx.spec))
    lhs = np.asarray(congruence(t, v))
    tat = np.asarray(congruence(t, a))
    tbt = np.asarray(congruence(t, b))
    rhs = np.asarray(evaluate(ctx.conn, tat, tbt, ctx.spec))
    return _lambda_min_deficit(rhs - lhs) / _scale(tat, tbt)


def _trial_continuity(ctx, key, trial) -> float:
    a, b = _pair(key, ctx.dim, ctx.cond)
    scale = _scale(a, b)
    limit = np.asarray(evaluate(ctx.conn, a, b, ctx.spec))
    eye = np.eye(ctx.dim)
    gaps = []
    for eps in _CONTINUITY_EPS:
        shifted = np.asarray(evaluate(ctx.conn, a + eps * eye, b + eps * eye, ctx.spec))
        gaps.append(spectral_norm(shifted - limit))
    # sigma(A+eI, B+eI) decreases to sigma(A, B), so the gaps decrease too;
    # allow the quadrature error of the two evaluations per gap.
    slack = 10.0 * (ctx.spec.abs_tol + ctx.spec.rel_tol * scale)
    worst = 0.0
    for earlier, later in zip(gaps, gaps[1:]):
        worst = max(worst, (later - earlier - slack) / scale)
    worst = max(worst, gaps[-1] / scale - ctx.tol)
    return max(0.0, worst)


def _trial_congruence_eq(ctx, key, trial) -> float:
    a, b = _pair(key, ctx.dim, ctx.cond)
    rng = _trial_rng(key, 2)
    q = _random_orthogonal(rng, ctx.dim)
    v = np.exp(rng.uniform(-0.5, 0.5, size=ctx.dim))
    v = v * np.where(rng.random(ctx.dim) < 0.5, -1.0, 1.0)
    t = (q * v) @ q.T
    value = np.asarray(evaluate(ctx.conn, a, b, ctx.spec))
    lhs = np.asarray(congruence(t, value))
    tat = np.asarray(congruence(t, a))
    tbt = np.asarray(congruence(t, b))
    rhs = np.asarray(evaluate(ctx.conn, tat, tbt, ctx.spec))
    return float(np.linalg.norm(rhs - lhs)) / _scale(tat, tbt)


def _trial_norm_bound(ctx, key, trial) -> float:
    a, b = _pair(key, ctx.dim, ctx.cond)
    value = np.asarray(evaluate(ctx.conn, a, b, ctx.spec))
    bound = ctx.mass * max(spectral_norm(a), spectral_norm(b))
    return max(0.0, spectral_norm(value) - bound) / _scale(a, b)


def _trial_scalar_reduction(ctx, key, trial) -> float:
    a = float(random_spd(1, ctx.cond, 8 * key + 0).entries[0, 0])
    b = float(random_spd(1, ctx.cond, 8 * key + 1).entries[0, 0])
    value = float(np.asarray(evaluate(ctx.conn, [[a]], [[b]], ctx.spec))[0, 0])
    if ctx.entry is not None and ctx.entry.closed_form_scalar is not None:
        ref = a * float(np.asarray(ctx.entry.closed_form_scalar(b / a)))
    else:
        ref = a * ctx.rep.eval(b / a, ctx.spec)
    return abs(value - ref) / (1.0 + a + b)


def _trial_ordering(ctx, key, trial) -> float:
    # t -> A !_t B is bounded above by the arithmetic interpolation, so
    # integrating gives sigma(A,B) <= m0*A + m1*B with the measure moments.
    a, b = _pair(key, ctx.dim, ctx.cond)
    m1 = ctx.moment1
    m0 = ctx.mass - m1
    value = np.asarray(evaluate(ctx.conn, a, b, ctx.spec))
    upper = m0 * a + m1 * b
    worst = _lambda_min_deficit(upper - value) / _scale(a, b)
    if ctx.mass > 0.0:
        # Jensen lower bound: 1 !_t x is convex in t.
        c = min(1.0, max(0.0, m1 / ctx.mass))
        xs = np.exp(_trial_rng(key, 2).uniform(np.log(0.1), np.log(10.0), size=4))
        fx = ctx.rep.eval(xs, ctx.spec)
        lower = ctx.mass * xs / ((1.0 - c) * xs + c)
        worst = max(worst, float(np.max((lower - fx) / (1.0 + np.abs(fx)))))
    return max(0.0, worst)


def _trial_transpose_duality(ctx, key, trial) -> float:
    a, b = _pair(key, ctx.dim, ctx.cond)
    xs = np.exp(_trial_rng(key, 2).uniform(np.log(0.1), np.log(10.0), size=4))
    ft = transpose_rep_function(ctx.conn, xs, ctx.spec)
    ref = xs * ctx.rep.eval(1.0 / xs, ctx.spec)
    worst = float(np.max(np.abs(ft - ref) / (1.0 + np.abs(ref))))
    direct = np.asarray(evaluate(ctx.conn, a, b, ctx.spec))
    swapped = np.asarray(evaluate(ctx.transposed, b, a, ctx.spec))
    worst = max(worst, float(np.linalg.norm(swapped - direct)) / _scale(a, b))
    return worst


def _trial_crosscheck(ctx, key, trial) -> float:
    a, b = _pair(key, ctx.dim, ctx.cond)
    value = np.asarray(evaluate(ctx.conn, a, b, ctx.spec))
    closed = np.asarray(ctx.entry.closed_form_matrix(a, b))
    return float(np.linalg.norm(value - closed) / np.linalg.norm(closed))


def _trial_representation(ctx, key, trial) -> float:
    xs = np.exp(_trial_rng(key, 2).uniform(np.log(0.05), np.log(20.0), size=8))
    fx = ctx.rep.eval(xs, ctx.spec)
    ref = np.asarray(ctx.entry.closed_form_scalar(xs), dtype=float)
    return float(np.max(np.abs(fx - ref)))


def _trial_decomposition(ctx, key, trial) -> float:
    a, b = _pair(key, ctx.dim, ctx.cond)
    c_ac, c_sc, c_sd, f_ac, f_sc, f_sd = ctx.parts
    total = np.zeros((ctx.dim, ctx.dim))
    for part in (c_ac, c_sc, c_sd):
        if not part.measure.is_zero():
            total = total + np.asarray(evaluate(part, a, b, ctx.spec))
    value = np.asarray(evaluate(ctx.conn, a, b, ctx.spec))
    worst = float(np.linalg.norm(total - value)) / _scale(a, b)
    xs = np.exp(_trial_rng(key, 2).uniform(np.log(0.1), np.log(10.0), size=4))
    fx = ctx.rep.eval(xs, ctx.spec)
    resum = f_ac(xs, ctx.spec) + f_sc(xs, ctx.spec) + f_sd(xs, ctx.spec)
    worst = max(worst, float(np.max(np.abs(resum - fx) / (1.0 + np.abs(fx)))))
    return worst


# Every trial maps (ctx, trial key, trial index) to its scale-relative
# violation; the table order is the suite order.
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
    violation exceeds tol.  Unknown suites, unknown catalog ids, and suites
    that need a closed form the target lacks are usage errors.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if dim < 1:
        raise ValueError("dim must be >= 1")
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
    failures = []
    for trial in range(trials):
        key = _trial_key(seed, trial)
        violation = trial_fn(ctx, key, trial)
        if violation > bound:
            failures.append((key, violation))
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
    corresponding reports of the full run byte for byte.  Tasks are
    independent; KUBO_MEANS_THREADS > 1 (or 0 for auto) runs them on a
    thread pool with the report order, content, and seeds identical to a
    serial run.
    """
    if profile not in _PROFILES:
        raise ValueError(f"unknown profile {profile!r}; use quick or full")
    if suites is not None:
        unknown = [s for s in suites if s not in SUITES]
        if unknown:
            raise ValueError(f"unknown suite {unknown[0]!r}")
    cfg = _PROFILES[profile]
    dims = cfg["dims"]
    entries = catalog()
    tasks = []
    for e_idx, entry in enumerate(entries):
        for s_idx, suite in enumerate(applicable_suites(entry)):
            if suites is not None and suite not in suites:
                continue
            for d_idx, dim in enumerate(dims):
                per_dim = cfg["trials"] // len(dims)
                extra = 1 if (cfg["trials"] % len(dims)) > d_idx else 0
                task_seed = ((seed * 131 + e_idx) * 131 + s_idx) * 131 + d_idx
                tasks.append(
                    (suite, entry, per_dim + extra, dim, cfg["cond"], task_seed)
                )

    def run(task):
        suite, entry, trials, dim, cond, task_seed = task
        return run_suite(
            suite, entry, trials=trials, dim=dim, cond=cond, seed=task_seed, spec=spec
        )

    workers = thread_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, tasks))
    return [run(task) for task in tasks]
