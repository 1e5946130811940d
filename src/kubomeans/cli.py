"""Command-line front end.

One verb per invocation: evaluate a mean on matrix CSV files, tabulate a
representing function, describe or decompose a measure, run the property
suites, list the catalog, or dump quadrature node tables.  Exit codes:

    0  success
    1  a property suite failed, or --verify found a mismatch
    2  usage, parse, or shape error
    3  an input is not positive semidefinite, or a sum that evaluation
       inverts is singular
    4  quadrature non-convergence (the message carries the best estimate)

All floats are printed in shortest round-trip form; files named by --out are
written atomically (temp file in the target directory, then rename).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from .catalog import (
    catalog,
    closed_form_eval,
    entry_from_id,
    representing_function_closed,
)
from .connections import (
    Connection,
    decompose_connection,
    evaluate_report,
    is_mean,
    is_symmetric_connection,
    mean_convex_decomposition,
    representing_function,
)
from .errors import (
    NotPsdError,
    QuadratureError,
    ShapeError,
    SingularPencilError,
    SpectralDomainError,
)
from .harness import HARNESS_SPEC, SUITES, run_all, run_suite
from .measures import (
    is_probability,
    measure_from_json,
    measure_to_json,
    total_mass,
)
from .quadrature import (
    DEFAULT_SPEC,
    QuadratureSpec,
    integrate_scalar,
    node_table,
)
from .spd import load_matrix, save_matrix

__all__ = ["main"]

VERIFY_TOL = 1e-6


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".kubo-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_atomic(out, text)


def _jdump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


def _build_spec(args, spec: QuadratureSpec = DEFAULT_SPEC) -> QuadratureSpec:
    tol = getattr(args, "tol", None)
    if tol is not None:
        spec = replace(spec, abs_tol=tol, rel_tol=tol)
    depth = getattr(args, "ifs_depth", None)
    if depth is not None:
        spec = replace(spec, scheme=("ifs_recursion", depth))
    return spec


def _matrix_csv(value) -> str:
    buf = io.StringIO()
    save_matrix(buf, value)
    return buf.getvalue()


def _parse_xs(args) -> np.ndarray:
    if args.x is not None:
        try:
            xs = np.array([float(s) for s in args.x.split(",") if s.strip() != ""])
        except ValueError as exc:
            raise ValueError(f"could not parse --x list {args.x!r}: {exc}") from exc
        if xs.size == 0:
            raise ValueError("--x needs at least one value")
        return xs
    parts = args.grid.split(":")
    if len(parts) != 3:
        raise ValueError(f"--grid takes a:b:n, got {args.grid!r}")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValueError(f"could not parse --grid {args.grid!r}: {exc}") from exc
    if n < 1:
        raise ValueError("--grid point count must be >= 1")
    return np.linspace(a, b, n)


# ---------------------------------------------------------------------------
# verb handlers (each returns an exit code)


def _cmd_eval(args) -> int:
    entry = entry_from_id(args.mean)
    spec = _build_spec(args)
    a = load_matrix(args.A)
    b = load_matrix(args.B)
    report = evaluate_report(entry.connection, a, b, spec)
    meta = {
        "mean": entry.id,
        "dim": int(np.asarray(report.value.entries).shape[0]),
        "nodes_used": int(report.nodes_used),
        "error_estimate": float(report.error_estimate),
        "compressed": report.compressed,
        "parts": [[s, int(n), float(e)] for s, n, e in report.parts],
    }
    verify_failed = False
    if args.verify:
        closed = closed_form_eval(entry.id, a, b)
        gap = np.asarray(report.value.entries) - np.asarray(closed.entries)
        ref = float(np.linalg.norm(np.asarray(closed.entries)))
        rel = float(np.linalg.norm(gap)) / max(ref, 1e-300)
        verify_failed = rel > VERIFY_TOL
        meta["verify"] = {
            "rel_diff": rel,
            "tol": VERIFY_TOL,
            "passed": not verify_failed,
        }
    csv_text = _matrix_csv(report.value)
    if args.out is None:
        sys.stdout.write(csv_text)
        sys.stderr.write(_jdump(meta) + "\n")
    else:
        _write_atomic(args.out, csv_text)
        sys.stdout.write(_jdump(meta) + "\n")
    return 1 if verify_failed else 0


def _cmd_f(args) -> int:
    entry = entry_from_id(args.mean)
    spec = _build_spec(args)
    xs = _parse_xs(args)
    f = representing_function(entry.connection)
    vals = np.atleast_1d(f.eval(xs, spec))
    if args.closed_form:
        closed = np.atleast_1d(representing_function_closed(entry.id, xs))
        lines = [
            f"{float(x)!r},{float(v)!r},{float(c)!r}"
            for x, v, c in zip(xs, vals, closed)
        ]
    else:
        lines = [f"{float(x)!r},{float(v)!r}" for x, v in zip(xs, vals)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cheb_interior(n: int) -> np.ndarray:
    i = np.arange(1, n + 1)
    return np.sort(0.5 * (1.0 + np.cos((2.0 * i - 1.0) * math.pi / (2.0 * n))))


def _cmd_measure(args) -> int:
    entry = entry_from_id(args.mean)
    spec = _build_spec(args)
    conn = entry.connection
    mu = conn.measure
    obj = measure_to_json(mu)
    obj["mass"] = float(total_mass(mu, spec))
    obj["mean"] = is_mean(conn, spec=spec)
    obj["symmetric"] = is_symmetric_connection(conn)
    if args.moments is not None:
        moments = []
        for j in range(1, args.moments + 1):
            val, _ = integrate_scalar(mu, lambda t: t**j, spec)
            moments.append(float(val))
        obj["moments"] = moments
    if args.density_grid is not None:
        xs = _cheb_interior(args.density_grid)
        dens = mu.ac(xs) if mu.ac is not None else np.zeros_like(xs)
        obj["density"] = [[float(x), float(g)] for x, g in zip(xs, dens)]
    sys.stdout.write(_jdump(obj) + "\n")
    return 0


def _cmd_check(args) -> int:
    spec = _build_spec(args, HARNESS_SPEC)
    suites = None if args.suite == "all" else (args.suite,)
    reports = run_all(profile=args.profile, seed=args.seed, suites=suites, spec=spec)
    payload = []
    for rep in reports:
        row = rep.canonical()
        row["wall_time"] = float(rep.wall_time)
        payload.append(row)
    sys.stdout.write(_jdump(payload) + "\n")
    return 0 if all(rep.passed for rep in reports) else 1


def _cmd_decompose(args) -> int:
    spec = _build_spec(args)
    if args.mean is not None:
        conn = entry_from_id(args.mean).connection
    else:
        try:
            obj = json.loads(args.measure)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed measure JSON: {exc}") from exc
        conn = Connection(measure_from_json(obj))
    s_ac, s_sc, s_sd, _, _, _ = decompose_connection(conn)
    out = {
        "parts": {
            "ac": measure_to_json(s_ac.measure),
            "sc": measure_to_json(s_sc.measure),
            "sd": measure_to_json(s_sd.measure),
        },
        "masses": {
            "ac": float(total_mass(s_ac.measure, spec)),
            "sc": float(total_mass(s_sc.measure, spec)),
            "sd": float(total_mass(s_sd.measure, spec)),
        },
    }
    if is_probability(conn.measure, spec=spec):
        k_ac, k_sc, k_sd, _ = mean_convex_decomposition(conn, spec=spec)
        out["k"] = [float(k_ac), float(k_sc), float(k_sd)]
    sys.stdout.write(_jdump(out) + "\n")
    return 0


def _cmd_catalog(args) -> int:
    rows = []
    for entry in catalog():
        rows.append(
            {
                "id": entry.id,
                "symmetric": entry.symmetric,
                "mean": entry.is_mean,
                "mass": float(total_mass(entry.connection.measure)),
                "closed_form_matrix": entry.closed_form_matrix is not None,
                "closed_form_scalar": entry.closed_form_scalar is not None,
            }
        )
    sys.stdout.write(_jdump(rows) + "\n")
    return 0


def _cmd_nodes(args) -> int:
    entry = entry_from_id(args.mean)
    spec = _build_spec(args)
    rows = node_table(entry.connection.measure, spec, n=args.n)
    lines = [f"{part},{t!r},{w!r}" for part, t, w in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0.0 or not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive finite number")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _add_ifs_depth_flag(sub) -> None:
    sub.add_argument(
        "--ifs-depth",
        type=_positive_int,
        help=(
            "sum self-similar parts over all cylinders of exactly this "
            "depth instead of refining them adaptively to the tolerance"
        ),
    )


def _add_quadrature_flags(sub) -> None:
    sub.add_argument(
        "--tol",
        type=_positive_float,
        help="quadrature tolerance (sets both abs_tol and rel_tol)",
    )
    _add_ifs_depth_flag(sub)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kubomeans",
        description="Operator connections and means: evaluate, inspect, check.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("eval", help="evaluate a mean on two matrix CSV files")
    p.add_argument("--mean", required=True, help="catalog id, e.g. geometric:0.3")
    p.add_argument("--A", required=True, help="left matrix CSV path")
    p.add_argument("--B", required=True, help="right matrix CSV path")
    p.add_argument("--out", default=None, help="write the matrix here (atomic)")
    p.add_argument(
        "--verify",
        action="store_true",
        help="cross-check against the closed form; exit 1 beyond 1e-6 relative",
    )
    _add_quadrature_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("f", help="tabulate the representing function")
    p.add_argument("--mean", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--x", help="comma-separated x values (x >= 0)")
    g.add_argument("--grid", help="a:b:n equally spaced x values")
    p.add_argument(
        "--closed-form",
        action="store_true",
        help="append a closed-form column (errors if the entry has none)",
    )
    p.add_argument("--out", default=None)
    _add_quadrature_flags(p)
    p.set_defaults(func=_cmd_f)

    p = sub.add_parser("measure", help="describe a mean's measure as JSON")
    p.add_argument("--mean", required=True)
    p.add_argument(
        "--moments",
        type=_positive_int,
        help="also print moments int t^j up to this order",
    )
    p.add_argument(
        "--density-grid",
        type=_positive_int,
        help="sample the density on n interior Chebyshev points",
    )
    _add_quadrature_flags(p)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("check", help="run property suites over the catalog")
    p.add_argument(
        "--suite",
        default="all",
        choices=("all",) + SUITES,
        help="one suite name, or all",
    )
    p.add_argument("--profile", default="quick", choices=("quick", "full"))
    p.add_argument("--seed", type=int, default=0)
    _add_quadrature_flags(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("decompose", help="split into ac + sc + sd parts")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--mean", help="catalog id")
    g.add_argument("--measure", help="measure JSON (as emitted by measure)")
    _add_quadrature_flags(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("catalog", help="list catalog entries as JSON")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("nodes", help="dump quadrature nodes/weights as CSV")
    p.add_argument("--mean", required=True)
    p.add_argument(
        "--n",
        type=_positive_int,
        default=64,
        help="requested nodes per density term (default 64)",
    )
    p.add_argument("--out", default=None)
    _add_ifs_depth_flag(p)
    p.set_defaults(func=_cmd_nodes)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors
        return 0 if exc.code == 0 else 2
    try:
        return args.func(args)
    except (NotPsdError, SpectralDomainError, SingularPencilError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except QuadratureError as exc:
        best = ""
        if exc.value is not None:
            best = f" (best estimate {exc.value!r}, error {exc.error_estimate!r})"
        sys.stderr.write(f"error: quadrature did not converge: {exc}{best}\n")
        return 4
    except (ValueError, TypeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
