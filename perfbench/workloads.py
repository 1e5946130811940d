"""Benchmark workloads: seeded inputs, the operations run on them, and the
correctness gate each result must pass.

A workload is built once per run from its seed, as blocks of inputs.  One
*round* runs every operation of every block once, in a fixed order; a run
repeats whole rounds with the same inputs.  Inputs are generated here with
NumPy's Philox stream, so the program sees only plain arrays, floats and
catalog ids.

Every call into kubomeans goes through a module attribute looked up at call
time (``connections.evaluate_report``), so the tracing wrappers in
``tracing.py`` see the calls when they are installed.

Gate
----
An operation is *ok* when it returns a value that passes the check for its
kind.  A typed kubomeans error makes it a failed operation.  Any other
exception, or a value that fails its check, makes the whole run incorrect.

Where an input is singular, kubomeans evaluates through its eps schedule,
which accepts once successive values differ by less than
1e-6 * (1 + ||A|| + ||B||) in spectral norm.  On those inputs (eval_edge's
rank-deficient classes) a value is compared with its reference by that same
rule, as an absolute spectral-norm error; everywhere else by the relative
``VERIFY_TOL``.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import kubomeans

connections = importlib.import_module("kubomeans.connections")
catalog = importlib.import_module("kubomeans.catalog")
harness = importlib.import_module("kubomeans.harness")
measures = importlib.import_module("kubomeans.measures")
quadrature = importlib.import_module("kubomeans.quadrature")
errors = importlib.import_module("kubomeans.errors")

# The typed errors kubomeans documents; anything else is a defect.
TYPED_ERRORS = (
    errors.ShapeError,
    errors.NotPsdError,
    errors.SpectralDomainError,
    errors.EigenSolverError,
    errors.QuadratureError,
    errors.SingularPencilError,
)

# The CLI's --verify tolerance (kubomeans.cli.VERIFY_TOL).
VERIFY_TOL = 1e-6
# The eps schedule's acceptance gap, as a share of 1 + ||A|| + ||B||
# (kubomeans.connections.REG_ACCEPT_FACTOR).
SCHEDULE_TOL = 1e-6
# Relative slack on the order and norm bounds used where no closed form exists.
BOUND_TOL = 1e-6
# Mass identities are structural sums or exact rules; they hold much tighter.
MASS_TOL = 1e-9

HARNESS_SPEC = kubomeans.QuadratureSpec(scheme=("ifs_recursion", 12))


class GateError(AssertionError):
    """A result failed its correctness check."""


@dataclass
class Op:
    """One benchmark operation: a call into kubomeans plus its check."""

    ident: str
    kind: str
    d: int | None
    cls: str
    call: Callable[[], object]
    check: Callable[[object], float]

    @property
    def label(self) -> str:
        dim = "-" if self.d is None else f"d={self.d}"
        return f"{self.ident} {self.kind} {dim} {self.cls}"


@dataclass
class Outcome:
    """What one timed operation did.

    ``fatal`` marks a result that failed its check or an untyped exception:
    either makes the run incorrect.
    """

    label: str
    group: tuple
    seconds: float
    ok: bool
    error: str | None = None
    rel_err: float = 0.0
    fatal: bool = False
    index: int = 0
    # seconds at the calibration kernel's nominal speed (set by run.py)
    norm: float = 0.0


def timed_call(fn, *args, **kwargs):
    """Call ``fn`` once; return (value, exception or None, wall seconds)."""
    start = time.perf_counter()
    try:
        value, error = fn(*args, **kwargs), None
    except Exception as exc:  # typed or not, recorded and judged by the caller
        value, error = None, exc
    return value, error, time.perf_counter() - start


@dataclass
class Workload:
    name: str
    seed: int
    ops: list[Op] = field(default_factory=list)
    # check_quick runs harness.run_all instead of an op list
    harness_suites: tuple[str, ...] | None = None
    canonical: list[str] | None = None
    reports: list = field(default_factory=list)
    # ops of the first input block; the warm-up runs these
    warmup_count: int = 0

    def run_round(self, call=timed_call) -> tuple[list[Outcome], float]:
        """Run every op once; returns the outcomes and the round's wall time.

        ``call`` runs one operation and times it: ``timed_call``, or one of
        run.py's hooks around it (calibration, or the traced/untraced pairs
        of the tracing overhead measurement).
        Results are checked after the round, outside the timed region.
        """
        if self.name == "check_quick":
            return self._run_harness_round(call)
        timed = []
        start = time.perf_counter()
        for op in self.ops:
            timed.append((op, *call(op.call)))
        wall = time.perf_counter() - start
        outcomes = []
        for index, (op, value, error, seconds) in enumerate(timed):
            group = (op.ident, op.kind, op.d, op.cls)
            if error is not None:
                typed = isinstance(error, TYPED_ERRORS)
                name = type(error).__name__
                detail = name if typed else f"untyped {name}: {error}"
                outcomes.append(Outcome(op.label, group, seconds, False, detail,
                                        fatal=not typed, index=index))
                continue
            try:
                rel = op.check(value)
            except GateError as exc:
                outcomes.append(Outcome(op.label, group, seconds, False,
                                        f"wrong value: {exc}", fatal=True, index=index))
                continue
            outcomes.append(
                Outcome(op.label, group, seconds, True, rel_err=rel, index=index)
            )
        return outcomes, wall

    def _run_harness_round(self, call):
        # One run_all call per round, timed as a whole; each suite task is
        # timed from outside by rebinding the run_suite that run_all calls.
        orig = harness.run_suite
        task_seconds = []

        def timed_suite(*args, **kwargs):
            value, error, seconds = call(orig, *args, **kwargs)
            task_seconds.append(seconds)
            if error is not None:
                raise error
            return value

        harness.run_suite = timed_suite
        try:
            start = time.perf_counter()
            reports = harness.run_all("quick", self.seed, suites=self.harness_suites)
            wall = time.perf_counter() - start
        finally:
            harness.run_suite = orig
        canonical = [r.canonical_json() for r in reports]
        if self.canonical is None:
            self.canonical = canonical
        self.reports = reports
        if len(reports) != len(self.canonical) or len(reports) != len(task_seconds):
            raise GateError("check_quick task count changed between rounds")
        outcomes = []
        for index, (r, text, first, seconds) in enumerate(
            zip(reports, canonical, self.canonical, task_seconds)
        ):
            group = (r.target, r.suite, r.dim, f"cond={r.cond:g}")
            label = f"{r.target} {r.suite} d={r.dim}"
            error = None
            if not r.passed:
                error = f"gate: suite failed {r.failures[:3]}"
            elif text != first:
                error = "gate: canonical report differs from the first round"
            outcomes.append(
                Outcome(label, group, seconds, error is None, error,
                        fatal=error is not None, index=index)
            )
        return outcomes, wall


# ---------------------------------------------------------------------------
# input generation


def seeded_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def _orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def _from_spectrum(rng, lam: np.ndarray) -> np.ndarray:
    q = _orthogonal(rng, len(lam))
    a = (q * lam) @ q.T
    return 0.5 * (a + a.T)


def spd_input(rng, d: int, cond: float) -> np.ndarray:
    """SPD matrix with condition number exactly ``cond`` (extremes pinned)."""
    half = 0.5 * math.log(cond)
    u = rng.uniform(-half, half, size=d)
    if d > 1:
        u[0], u[1] = -half, half
    return _from_spectrum(rng, np.exp(u))


def rank_deficient_input(rng, d: int, rank: int, cond: float = 1e2) -> np.ndarray:
    """PSD matrix of the given rank: exact zero eigenvalues, a random null space."""
    half = 0.5 * math.log(cond)
    lam = np.zeros(d)
    lam[:rank] = np.exp(rng.uniform(-half, half, size=rank))
    return _from_spectrum(rng, lam)


def _stratified_log(rng, lo: float, hi: float, n: int) -> np.ndarray:
    """n log-uniform draws on [lo, hi], one in each of n equal log bins."""
    edges = np.linspace(math.log(lo), math.log(hi), n + 1)
    return np.exp(edges[:-1] + (edges[1:] - edges[:-1]) * rng.uniform(size=n))


# ---------------------------------------------------------------------------
# checks


def spectral_norm(a: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh(a))))


def fro_rel(value: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(value - ref) / max(np.linalg.norm(ref), 1e-300))


def _entries(value) -> np.ndarray:
    arr = np.asarray(value.entries if hasattr(value, "entries") else value, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or not np.all(np.isfinite(arr)):
        raise GateError(f"result is not a finite square matrix: shape {arr.shape}")
    return arr


def check_psd(value) -> np.ndarray:
    """The kubomeans PSD acceptance rule, recomputed independently."""
    arr = _entries(value)
    if not np.array_equal(arr, arr.T):
        raise GateError("result is not exactly symmetric")
    lam = np.linalg.eigvalsh(arr)
    tol = 1e-10 * (1.0 + float(np.max(np.abs(lam))))
    if lam[0] < -tol:
        raise GateError(f"result is not PSD: min eigenvalue {lam[0]:.3g}")
    return arr


def closeness_check(label: str, ref: np.ndarray) -> Callable[[object], float]:
    def check(value) -> float:
        arr = check_psd(value)
        rel = fro_rel(arr, ref)
        if not rel <= VERIFY_TOL:
            raise GateError(f"{label}: relative gap {rel:.3e} to the closed form")
        return rel

    return check


def schedule_check(label: str, ref: np.ndarray, a, b) -> Callable[[object], float]:
    """The eps schedule's own rule: ||value - ref|| < SCHEDULE_TOL * scale."""
    scale = 1.0 + spectral_norm(a) + spectral_norm(b)

    def check(value) -> float:
        arr = check_psd(value)
        gap = spectral_norm(arr - ref)
        if not gap < SCHEDULE_TOL * scale:
            raise GateError(
                f"{label}: spectral gap {gap:.3e} to the limit, "
                f"schedule accepts < {SCHEDULE_TOL * scale:.3e}"
            )
        return fro_rel(arr, ref)

    return check


def bounds_check(label: str, a, b, mass: float, m1: float) -> Callable[[object], float]:
    """sigma <= m0 A + m1 B and ||sigma|| <= mass * max(||A||, ||B||)."""
    upper = (mass - m1) * a + m1 * b
    norm_a, norm_b = spectral_norm(a), spectral_norm(b)
    scale = 1.0 + norm_a + norm_b
    bound = mass * max(norm_a, norm_b)

    def check(value) -> float:
        arr = check_psd(value)
        gap = float(np.linalg.eigvalsh(upper - arr)[0])
        if gap < -BOUND_TOL * scale:
            raise GateError(f"{label}: order bound violated by {-gap:.3e}")
        norm = spectral_norm(arr)
        if norm > bound + BOUND_TOL * scale:
            raise GateError(f"{label}: norm {norm:.6g} exceeds bound {bound:.6g}")
        return 0.0

    return check


def scalar_check(label: str, ref: float) -> Callable[[object], float]:
    def check(value) -> float:
        v = float(value)
        if not math.isfinite(v) or v < 0.0:
            raise GateError(f"{label}: value {v!r} is not a finite f(x) >= 0")
        rel = abs(v - ref) / max(abs(ref), 1e-300)
        if not rel <= VERIFY_TOL:
            raise GateError(f"{label}: {v!r} vs reference {ref!r} (rel {rel:.3e})")
        return rel

    return check


# ---------------------------------------------------------------------------
# catalog facts the checks need, written down independently of the program


def first_moment(ident: str) -> float:
    """int t dmu(t); every entry used here is symmetric except geometric:a."""
    name, _, param = ident.partition(":")
    if name == "geometric":
        return float(param)
    return 0.5


def atoms_of(ident: str):
    """(t, w) atoms of the atom-only entries used in the workloads."""
    return {
        "harmonic:0.5": ((0.5, 1.0),),
        "parallel_sum": ((0.5, 0.5),),
        "finite_atomic": ((0.25, 0.5), (0.75, 0.5)),
    }.get(ident)


# ---------------------------------------------------------------------------
# eval_pencil


PENCIL_IDS = (
    "geometric:0.3",
    "log_mean",
    "dual_log_mean",
    "harmonic:0.5",
    "finite_atomic",
    "cantor_mean",
)


def _spec_for(ident: str):
    return HARNESS_SPEC if ident == "cantor_mean" else None


def _eval_op(ident: str, a, b, d: int, cls: str, check) -> Op:
    conn = catalog.entry_from_id(ident).connection
    spec = _spec_for(ident)
    return Op(
        ident, "evaluate", d, cls,
        lambda: connections.evaluate_report(conn, a, b, spec).value,
        check,
    )


def _closed_or_bounds(ident: str, a, b):
    entry = catalog.entry_from_id(ident)
    if entry.closed_form_matrix is None:
        return bounds_check(ident, a, b, 1.0, first_moment(ident))
    ref = np.asarray(entry.closed_form_matrix(a, b).entries)
    return closeness_check(ident, ref)


def build_eval_pencil(seed: int, size: str) -> Workload:
    w = Workload("eval_pencil", seed)
    pairs, dims = (8, (16, 64)) if size == "full" else (1, (4,))
    cond = 1e2
    rng = seeded_rng(seed, 1)
    for p in range(pairs):
        for d in dims:
            a, b = spd_input(rng, d, cond), spd_input(rng, d, cond)
            for ident in PENCIL_IDS:
                if ident == "cantor_mean" and d != dims[0]:
                    continue
                w.ops.append(
                    _eval_op(ident, a, b, d, "cond=1e2", _closed_or_bounds(ident, a, b))
                )
        d = dims[0]
        a, b = spd_input(rng, d, cond), spd_input(rng, d, cond)
        for nu_name, nu, ident in (
            ("halfline_geometric:0.3", measures.halfline_geometric(0.3), "geometric:0.3"),
            ("halfline_log_mean", measures.halfline_logmean(), "log_mean"),
        ):
            check = _closed_or_bounds(ident, a, b)
            w.ops.append(
                Op(
                    nu_name, "canonical", d, "cond=1e2",
                    lambda nu=nu, a=a, b=b: connections.evaluate_canonical(nu, a, b),
                    check,
                )
            )
        w.warmup_count = w.warmup_count or len(w.ops)
    return w


# ---------------------------------------------------------------------------
# eval_edge


EDGE_IDS = PENCIL_IDS + ("geometric:0.5", "parallel_sum")
EDGE_CLASSES = ("cond=1e6", "cond=1e10", "rankdef_A", "rankdef_AB")
# The first eval_edge block is the same for every seed.  Its cond=1e10 pairs
# drive log_mean to the 4096-node logistic rule at d = 4 and 16, whose cold
# construction sets the process's peak memory; a seeded block reaches it only
# sometimes, which made peak_rss_mb bimodal across seeds.
EDGE_ANCHOR_KEY = 25


def edge_pair(rng, cls: str, d: int):
    if cls == "cond=1e6":
        return spd_input(rng, d, 1e6), spd_input(rng, d, 1e6)
    if cls == "cond=1e10":
        return spd_input(rng, d, 1e10), spd_input(rng, d, 1e10)
    if cls == "rankdef_A":
        return rank_deficient_input(rng, d, d // 2), spd_input(rng, d, 1e2)
    # ranks d/2 and d/2 + 1: generic null spaces meet only in 0, so A + B is PD
    return (
        rank_deficient_input(rng, d, d // 2),
        rank_deficient_input(rng, d, d - d // 2 + 1),
    )


def build_eval_edge(seed: int, size: str) -> Workload:
    from references import EdgeReference

    w = Workload("eval_edge", seed)
    pairs, dims = (3, (4, 16)) if size == "full" else (1, (4,))
    seeded = seeded_rng(seed, 2)
    for p in range(pairs):
        rng = seeded_rng(EDGE_ANCHOR_KEY, 2) if p == 0 else seeded
        for d in dims:
            for cls in EDGE_CLASSES:
                a, b = edge_pair(rng, cls, d)
                ref = EdgeReference(a, b, cls)
                for ident in EDGE_IDS:
                    w.ops.append(_eval_op(ident, a, b, d, cls, ref.check_for(ident)))
        w.warmup_count = w.warmup_count or len(w.ops)
    return w


# ---------------------------------------------------------------------------
# check_quick


def build_check_quick(seed: int, size: str) -> Workload:
    suites = harness.SUITES if size == "full" else ("norm_bound",)
    return Workload("check_quick", seed, harness_suites=suites)


# ---------------------------------------------------------------------------
# repfn_grid


def _json_text(m) -> str:
    return json.dumps(measures.measure_to_json(m), sort_keys=True)


def _measure_ops(ident: str) -> list[Op]:
    entry = catalog.entry_from_id(ident)
    m = entry.connection.measure
    text = _json_text(m)
    mass = float(entry.closed_form_scalar(1.0)) if entry.closed_form_scalar else 1.0

    def same_json(label):
        def check(value) -> float:
            if _json_text(value) != text:
                raise GateError(f"{ident}: {label} changed the measure")
            return 0.0

        return check

    def mass_check(value) -> float:
        rel = abs(float(value) - mass) / mass
        if not rel <= MASS_TOL:
            raise GateError(f"{ident}: total mass {value!r}, expected {mass!r}")
        return rel

    def decompose_check(parts) -> float:
        ac, sc, sd = parts
        got = (ac.ac is m.ac, sc.sc == m.sc, sd.atoms == m.atoms)
        if not all(got) or ac.atoms or sd.ac is not None or sd.sc is not None:
            raise GateError(f"{ident}: decomposition does not split by parts")
        return 0.0

    def node_table_check(rows) -> float:
        total = math.fsum(w for _part, _t, w in rows)
        if not all(0.0 <= t <= 1.0 for _part, t, _w in rows):
            raise GateError(f"{ident}: node_table location outside [0, 1]")
        rel = abs(total - mass) / mass
        if not rel <= MASS_TOL:
            raise GateError(f"{ident}: node_table weights sum to {total!r}, mass {mass!r}")
        return rel

    return [
        Op(ident, "json_roundtrip", None, "measure",
           lambda: measures.measure_from_json(
               json.loads(json.dumps(measures.measure_to_json(m)))),
           same_json("JSON round trip")),
        Op(ident, "pushforward_theta", None, "measure",
           lambda: measures.pushforward_theta(measures.pushforward_theta(m)),
           same_json("double reflection")),
        Op(ident, "decompose_measure", None, "measure",
           lambda: measures.decompose_measure(m), decompose_check),
        Op(ident, "total_mass", None, "measure",
           lambda: measures.total_mass(m), mass_check),
        Op(ident, "node_table", None, "measure",
           lambda: quadrature.node_table(m, None, 64), node_table_check),
    ]


def _x_class(x: float) -> str:
    return f"x=1e{math.floor(math.log10(x)):+d}"


def build_repfn_grid(seed: int, size: str) -> Workload:
    w = Workload("repfn_grid", seed)
    n_x, n_cantor = (32, 4) if size == "full" else (2, 1)
    rng = seeded_rng(seed, 4)
    for ident in catalog.catalog_ids():
        entry = catalog.entry_from_id(ident)
        conn = entry.connection
        closed = entry.closed_form_scalar
        n = n_cantor if closed is None else n_x
        for x in _stratified_log(rng, 1e-8, 1e8, n):
            x = float(x)
            rep = connections.representing_function(conn)
            if closed is not None:
                ref_f = float(closed(x))
                ref_t = x * float(closed(1.0 / x))
            else:
                # f^T(x) = x f(1/x), read in both directions
                ref_f = x * connections.transpose_rep_function(conn, 1.0 / x)
                ref_t = x * rep.eval(1.0 / x)
            w.ops.append(
                Op(ident, "f", None, _x_class(x),
                   lambda rep=rep, x=x: rep.eval(x), scalar_check(f"{ident} f({x!r})", ref_f))
            )
            w.ops.append(
                Op(ident, "fT", None, _x_class(x),
                   lambda conn=conn, x=x: connections.transpose_rep_function(conn, x),
                   scalar_check(f"{ident} fT({x!r})", ref_t))
            )
        w.ops.extend(_measure_ops(ident))
    w.warmup_count = len(w.ops)
    return w


BUILDERS = {
    "eval_pencil": build_eval_pencil,
    "eval_edge": build_eval_edge,
    "check_quick": build_check_quick,
    "repfn_grid": build_repfn_grid,
}


def build(name: str, seed: int, size: str = "full") -> Workload:
    return BUILDERS[name](seed, size)


# ---------------------------------------------------------------------------
# cold calls: one per op class, used by the set-up probe and the warm-up


def cold_calls(name: str) -> list[Callable[[], object]]:
    """One small call per operation class of a workload; typed errors expected."""
    rng = seeded_rng(0, 99)
    calls = []
    if name == "eval_pencil":
        a, b = spd_input(rng, 16, 1e2), spd_input(rng, 16, 1e2)
        for ident in PENCIL_IDS:
            conn = catalog.entry_from_id(ident).connection
            spec = _spec_for(ident)
            calls.append(lambda c=conn, s=spec: connections.evaluate_report(c, a, b, s))
        for nu in (measures.halfline_geometric(0.3), measures.halfline_logmean()):
            calls.append(lambda nu=nu: connections.evaluate_canonical(nu, a, b))
    elif name == "eval_edge":
        a, b = spd_input(rng, 4, 1e2), spd_input(rng, 4, 1e2)
        for ident in EDGE_IDS:
            conn = catalog.entry_from_id(ident).connection
            spec = _spec_for(ident)
            calls.append(lambda c=conn, s=spec: connections.evaluate_report(c, a, b, s))
    elif name == "check_quick":
        for entry in catalog.catalog():
            for suite in harness.applicable_suites(entry):
                calls.append(
                    lambda s=suite, e=entry: harness.run_suite(s, e, trials=1, dim=4)
                )
    elif name == "repfn_grid":
        for ident in catalog.catalog_ids():
            conn = catalog.entry_from_id(ident).connection
            calls.append(lambda c=conn: connections.representing_function(c).eval(2.0))
            calls.append(lambda c=conn: connections.transpose_rep_function(c, 2.0))
            calls.extend(op.call for op in _measure_ops(ident))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return calls


def warm_up(w: Workload) -> None:
    """Untimed: the first input block, or the cold calls for check_quick."""
    if w.name == "check_quick":
        run_cold_calls(w.name)
        return
    for op in w.ops[: w.warmup_count]:
        try:
            op.call()
        except TYPED_ERRORS:
            pass


def run_cold_calls(name: str) -> None:
    for call in cold_calls(name):
        try:
            call()
        except TYPED_ERRORS:
            pass
