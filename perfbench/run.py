"""kubomeans benchmark: one serial client, closed loop, four workloads.

    python3 perfbench/run.py --workload eval_pencil --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed).  The run

1. times ``setup_s``: fresh interpreters that import kubomeans and make one
   cold call per operation class, each run between two runs of a reference
   child (median of several);
2. builds the workload's inputs and references from ``--seed``;
3. warms up on the first block of inputs, untimed;
4. repeats whole rounds while the next one fits in ``--seconds``, checking
   every result against the gate in ``workloads.py``.

All times are wall times taken from outside the program and calibrated for
the machine's speed (see ``calibration.py``); the uncalibrated figures are
printed as well.  Each op's time is the median of its times over the rounds;
a failed op counts with the time it took to raise.  The latency percentiles
are taken over those per-op medians.  ``ok_ops_per_s`` is the ok executions
of all rounds over the rounds' summed time.  ``attempted``, ``failed`` and
``ok_frac`` count distinct ops, an op failing if any of its executions
failed, so they depend on the seed and not on how many rounds fit.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics.  With ``--trace 1`` it holds the per-layer metrics
instead: one round with cold rule caches is traced by ``tracing.py``, then
every op runs untraced and traced back to back to measure the tracing
overhead.  The spans go to ``perfbench/out/``.

``KUBO_MEANS_THREADS`` is removed from the environment and BLAS is pinned to
one thread before NumPy loads, so every number comes from one serial process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("KUBO_MEANS_THREADS", None)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SUBPROCESS_TIMEOUT_S = 120
SETUP_REPEATS = {"full": 7, "tiny": 1}
CLI_REPEATS = {"full": 3, "tiny": 1}

WORKLOADS = ("eval_pencil", "eval_edge", "check_quick", "repfn_grid")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or all of them in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload for the smoke test")
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: list[str]) -> tuple[float, str]:
    """Run a child process to completion; return its wall time and stdout."""
    start = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=SUBPROCESS_TIMEOUT_S,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return wall, proc.stdout


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "kubo_means_threads": os.environ.get("KUBO_MEANS_THREADS", "unset"),
    }


def op_times(outcomes, attr: str = "norm") -> tuple[list[float], list[bool]]:
    """Per op: the median of its times (calibrated, or raw ``seconds``) over
    the run's rounds, and whether every execution was ok.  A failed op keeps
    the time it took to raise."""
    times: dict[int, list[float]] = defaultdict(list)
    ok: dict[int, bool] = {}
    for o in outcomes:
        times[o.index].append(getattr(o, attr))
        ok[o.index] = ok.get(o.index, True) and o.ok
    keys = sorted(times)
    return [statistics.median(times[k]) for k in keys], [ok[k] for k in keys]


def percentile_ms(seconds: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(seconds) * 1e3, q))


def inf_percentile_ms(seconds: list[float], ok: list[bool], q: float) -> float:
    """Percentile with every failed op counted as +inf (printed, not gated)."""
    vals = sorted(s * 1e3 if good else math.inf for s, good in zip(seconds, ok))
    return vals[min(len(vals) - 1, int(q / 100 * len(vals)))]


def run_rounds(w, cal, seconds: float, outcomes: list) -> tuple[list, list]:
    """Whole rounds while the next one (at the mean round time) still fits.

    Returns each round's wall time without the calibration kernel, raw and
    calibrated.  Time outside the ops (the loop, and run_all's own work on
    check_quick) is calibrated at the round's median factor.
    """
    import workloads as wl
    from calibration import CalibratedCall

    spent, walls, cal_walls = 0.0, [], []
    while True:
        hook = CalibratedCall(cal, wl.timed_call)
        kernel0 = cal.kernel_seconds
        outs, wall = w.run_round(hook)
        spent += wall
        wall -= cal.kernel_seconds - kernel0
        assert len(hook.factors) == len(outs)
        for o, factor in zip(outs, hook.factors):
            o.norm = o.seconds * factor
        outside = max(0.0, wall - math.fsum(o.seconds for o in outs))
        outcomes.extend(outs)
        walls.append(wall)
        cal_walls.append(math.fsum(o.norm for o in outs)
                         + outside * statistics.median(hook.factors))
        if spent + spent / len(walls) > seconds:
            return walls, cal_walls


def report_failures(name: str, outcomes) -> None:
    """One row per (group, error), counting distinct ops, not executions."""
    failing = {o.index: (o.group, o.error) for o in outcomes if not o.ok}
    rows = Counter(failing.values())
    print(f"failing ops on {name}: {len(failing)}")
    for (group, error), n in sorted(rows.items(), key=lambda kv: str(kv[0])):
        ident, kind, d, cls = group
        print(f"  fail  {ident:<24} {kind:<10} d={d!s:<4} {cls:<12} {error}  x{n}")


def report_pencil_medians(outcomes) -> None:
    by = defaultdict(list)
    for o in outcomes:
        if o.ok:
            by[o.group].append((o.seconds * 1e3, o.norm * 1e3))
    print("eval_pencil medians (default spec; cantor_mean at IFS depth 12):")
    print("  | catalog id | op | d | input | wall ms | calibrated ms | n |")
    print("  |---|---|---|---|---|---|---|")
    for (ident, kind, d, cls), vals in sorted(by.items(), key=lambda kv: (kv[0][2], kv[0][0])):
        wall = statistics.median(v[0] for v in vals)
        norm = statistics.median(v[1] for v in vals)
        print(f"  | {ident} | {kind} | {d} | {cls} | {wall:.3f} | {norm:.3f} | {len(vals)} |")


def setup_seconds(name: str, size: str) -> tuple[list[float], list[float]]:
    """Fresh-interpreter set-up probes, each between two reference children:
    their calibrated and their raw wall times."""
    from calibration import REFERENCE_NOMINAL_S, reference_child_cmd

    cmd = [sys.executable, str(HERE / "coldstart.py"), "--workload", name]
    ref = [run_child(reference_child_cmd())[0]]
    raw, calibrated = [], []
    for _ in range(SETUP_REPEATS[size]):
        raw.append(run_child(cmd)[0])
        ref.append(run_child(reference_child_cmd())[0])
        calibrated.append(raw[-1] * REFERENCE_NOMINAL_S / (0.5 * (ref[-2] + ref[-1])))
    return calibrated, raw


def metric(value: float, unit: str) -> dict:
    return {"value": int(value) if unit == "count" else value, "unit": unit}


# ---------------------------------------------------------------------------
# traced run


def cli_metrics(size: str) -> dict:
    """CLI import, one `kubomeans eval` subprocess, and matrix CSV I/O."""
    import numpy as np
    import workloads as wl

    spd = wl.importlib.import_module("kubomeans.spd")
    work = OUT / "cli"
    work.mkdir(parents=True, exist_ok=True)
    rng = wl.seeded_rng(0, 7)
    a, b = wl.spd_input(rng, 16, 1e2), wl.spd_input(rng, 16, 1e2)
    paths = {k: work / f"{k}.csv" for k in ("a", "b", "g", "io")}
    for key, mat in (("a", a), ("b", b)):
        paths[key].write_text(
            "\n".join(",".join(repr(float(v)) for v in row) for row in mat) + "\n",
            encoding="ascii",
        )
    repeats = CLI_REPEATS[size]
    imports = [
        float(run_child([sys.executable, str(HERE / "coldstart.py"), "--import-only"])[1])
        for _ in range(repeats)
    ]
    evals = []
    ref = np.asarray(wl.catalog.closed_form_eval("geometric:0.3", a, b).entries)
    for _ in range(repeats):
        paths["g"].unlink(missing_ok=True)
        wall, _out = run_child([
            sys.executable, "-m", "kubomeans.cli", "eval", "--mean", "geometric:0.3",
            "--A", str(paths["a"]), "--B", str(paths["b"]), "--out", str(paths["g"]),
        ])
        got = np.loadtxt(paths["g"], delimiter=",", ndmin=2)
        rel = wl.fro_rel(got, ref)
        if not rel <= wl.VERIFY_TOL:
            raise wl.GateError(f"cli eval result off the closed form by {rel:.3e}")
        evals.append(wall * 1e3)
    io = []
    for _ in range(20):
        start = time.perf_counter()
        loaded = spd.load_matrix(paths["a"])
        spd.save_matrix(paths["io"], loaded)
        io.append((time.perf_counter() - start) * 1e3)
    if not np.array_equal(np.loadtxt(paths["io"], delimiter=",", ndmin=2), loaded.entries):
        raise wl.GateError("save_matrix/load_matrix round trip changed the matrix")
    return {
        "cli.import_ms": metric(statistics.median(imports), "ms"),
        "cli.eval_subprocess_ms": metric(statistics.median(evals), "ms"),
        "cli.io_ms": metric(statistics.median(io), "ms"),
    }


def per_layer(tracer, hits: int, misses: int, reports, max_rel: float) -> dict:
    from workloads import harness

    ms = lambda ns: ns / 1e6  # noqa: E731
    calls, total, own, count = tracer.calls, tracer.total_ns, tracer.self_ns, tracer.count
    out = {
        "spd.validate.calls": metric(calls["spd.validate"], "count"),
        "spd.validate.ms": metric(ms(total["spd.validate"]), "ms"),
        "spd.spectral_norm.calls": metric(calls["spd.spectral_norm"], "count"),
        "spd.spectral_norm.ms": metric(ms(total["spd.spectral_norm"]), "ms"),
        "quadrature.integrate.calls": metric(calls["quadrature.integrate"], "count"),
        "quadrature.integrate.self_ms": metric(ms(own["quadrature.integrate"]), "ms"),
        "quadrature.nodes": metric(count["quadrature.nodes"], "count"),
        "quadrature.node_batches": metric(count["quadrature.node_batches"], "count"),
        "quadrature.converge_fail": metric(count["quadrature.converge_fail"], "count"),
        "quadrature.rule.hits": metric(hits, "count"),
        "quadrature.rule.misses": metric(misses, "count"),
        "quadrature.rule.cold_ms": metric(ms(count["quadrature.rule.cold_ns"]), "ms"),
        "quadrature.ifs.nodes": metric(count["quadrature.ifs.nodes"], "count"),
        "quadrature.ifs.ms": metric(ms(total["quadrature.ifs"]), "ms"),
        "quadrature.ifs.depth_max": metric(count["quadrature.ifs.depth_max"], "count"),
        "connections.evaluate.calls": metric(calls["connections.evaluate"], "count"),
        "connections.evaluate.self_ms": metric(ms(own["connections.evaluate"]), "ms"),
        "connections.node_eval.ms": metric(ms(total["connections.node_eval"]), "ms"),
        "connections.node_eval.gflop_computed": metric(
            count["connections.node_eval.gflop_computed"], "GFLOP"),
        "connections.node_eval.max_stack_mb_computed": metric(
            count["connections.node_eval.max_stack_mb_computed"], "MB"),
        "connections.schedule.engaged": metric(count["connections.schedule.engaged"], "count"),
        "connections.schedule.integrations": metric(
            count["connections.schedule.integrations"], "count"),
        "connections.singular_error": metric(count["connections.singular_error"], "count"),
        "connections.canonical.ms": metric(ms(total["connections.canonical"]), "ms"),
        "catalog.closed_form.calls": metric(calls["catalog.closed_form"], "count"),
        "catalog.closed_form.ms": metric(ms(total["catalog.closed_form"]), "ms"),
        "catalog.max_rel_err": metric(max_rel, "ratio"),
        "measures.total_mass.ms": metric(ms(total["measures.total_mass"]), "ms"),
        "measures.json_roundtrip.ms": metric(ms(total["measures.json_roundtrip"]), "ms"),
        "measures.pushforward.ms": metric(ms(total["measures.pushforward"]), "ms"),
        "measures.decompose.ms": metric(ms(total["measures.decompose"]), "ms"),
    }
    suite_ms = defaultdict(float)
    for r in reports:
        suite_ms[r.suite] += r.wall_time * 1e3
    for suite in harness.SUITES:
        out[f"harness.suite.{suite}.ms"] = metric(suite_ms[suite], "ms")
    out["harness.trials"] = metric(sum(r.trials for r in reports), "count")
    return out


class PairedCall:
    """Runs each op untraced and traced back to back, the order alternating
    from op to op and from round to round, and keeps the ratio of the two
    times.  The traced call's result is the one returned and checked."""

    def __init__(self, tracer):
        import workloads as wl

        self.tracer = tracer
        self.timed_call = wl.timed_call
        self.ratios: list[float] = []
        self.calls = 0
        self.rounds = 0

    def next_round(self) -> None:
        self.rounds += 1
        self.calls = 0

    def __call__(self, fn, *args, **kwargs):
        traced_first = (self.calls + self.rounds) % 2 == 1
        self.calls += 1
        got = {}
        for traced in (True, False) if traced_first else (False, True):
            if traced:
                self.tracer.install()
            try:
                got[traced] = self.timed_call(fn, *args, **kwargs)
            finally:
                if traced:
                    self.tracer.uninstall()
        self.ratios.append(got[True][2] / got[False][2])
        return got[True]


def traced_run(w, seconds: float, size: str):
    """One cold traced round for the layer metrics, then paired rounds for
    the tracing overhead."""
    import workloads as wl
    from tracing import Tracer

    tracer = Tracer()
    tracer.clear_rule_caches()
    hits0, misses0 = tracer.rule_cache_totals()
    tracer.install()
    try:
        cold, cold_wall = w.run_round()
    finally:
        tracer.uninstall()
    hits1, misses1 = tracer.rule_cache_totals()
    max_rel = max((o.rel_err for o in cold), default=0.0)
    layers = per_layer(tracer, hits1 - hits0, misses1 - misses0, w.reports, max_rel)
    paired = PairedCall(tracer)
    outcomes, walls = list(cold), []
    # a paired round costs about two rounds; at least one runs
    while True:
        outs, wall = w.run_round(paired)
        paired.next_round()
        outcomes.extend(outs)
        walls.append(wall)
        spent = cold_wall + sum(walls)
        if spent + sum(walls) / len(walls) > seconds:
            break
    ratios = paired.ratios
    q1, _, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    print(f"tracing overhead: median traced/untraced ratio over {len(ratios)} op pairs "
          f"{statistics.median(ratios):.4f}, quartiles {q1:.4f} to {q3:.4f}")
    layers["trace.overhead_frac"] = metric(statistics.median(ratios) - 1.0, "ratio")
    try:
        layers.update(cli_metrics(size))
    except wl.GateError as exc:
        outcomes.append(wl.Outcome("cli", ("cli", "eval", 16, "cond=1e2"), 0.0, False,
                                   f"gate: {exc}", fatal=True, index=-1))
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.dump(OUT / f"trace-{w.name}-seed{w.seed}.json")
    return outcomes, 1 + len(walls), layers


# ---------------------------------------------------------------------------


def run_each(args) -> int:
    """--workload all: every workload in turn, each in a fresh interpreter."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            capture_output=True, text=True, timeout=900,
        )
        print(f"== {name}")
        print(proc.stdout, end="")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_each(args)
    if not (SRC / "kubomeans" / "__init__.py").is_file():
        print(f"error: no kubomeans sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kubomeans

    if Path(kubomeans.__file__).resolve().parent != SRC / "kubomeans":
        print(f"error: imported kubomeans from {kubomeans.__file__}", file=sys.stderr)
        return 2
    import workloads as wl

    from calibration import Calibrator

    print("machine: " + json.dumps(machine_info(), sort_keys=True))
    setup, setup_raw = setup_seconds(args.workload, args.size)
    print(f"setup probes (s): {[round(s, 4) for s in setup]}, "
          f"uncalibrated {[round(s, 4) for s in setup_raw]}")
    w = wl.build(args.workload, args.seed, args.size)
    wl.warm_up(w)

    if args.trace:
        outcomes, rounds, layers = traced_run(w, args.seconds, args.size)
    else:
        outcomes = []
        walls, cal_walls = run_rounds(w, Calibrator(), args.seconds, outcomes)
        rounds = len(walls)

    # Every op runs once per round, and the number of rounds depends on the
    # machine's speed.  attempted and failed count distinct ops (an op fails
    # if any of its executions failed), so they depend on the seed only.
    executions = len(outcomes)
    op_ok: dict[int, bool] = {}
    for o in outcomes:
        op_ok[o.index] = op_ok.get(o.index, True) and o.ok
    attempted = len(op_ok)
    failed = attempted - sum(op_ok.values())
    ok_executions = sum(o.ok for o in outcomes)
    fatal = [o for o in outcomes if o.fatal]
    for o in fatal[:20]:
        print(f"GATE FAILED: {o.label}: {o.error}")
    report_failures(w.name, outcomes)
    if w.name == "eval_pencil":
        report_pencil_medians(outcomes)
    print(f"rounds: {rounds}, ops: {attempted}, executions: {executions}")

    if args.trace:
        metrics = layers
    else:
        times, times_ok = op_times(outcomes)
        print("latency with failed ops as +inf: "
              f"p50 {inf_percentile_ms(times, times_ok, 50)} ms, "
              f"p90 {inf_percentile_ms(times, times_ok, 90)} ms")
        raw_times, _ = op_times(outcomes, "seconds")
        print("uncalibrated: " + json.dumps({
            "setup_s": statistics.median(setup_raw),
            "ok_ops_per_s": ok_executions / math.fsum(walls),
            "latency_p50_ms": percentile_ms(raw_times, 50),
            "latency_p90_ms": percentile_ms(raw_times, 90),
        }))
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "ok_frac": metric((attempted - failed) / attempted, "ratio"),
            "ok_ops_per_s": metric(ok_executions / math.fsum(cal_walls), "1/s"),
            "latency_p50_ms": metric(percentile_ms(times, 50), "ms"),
            "latency_p90_ms": metric(percentile_ms(times, 90), "ms"),
            "peak_rss_mb": metric(rss_kb / 1024.0, "MB"),
        }
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": not fatal,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
