"""Spans and counters recorded from outside kubomeans.

``Tracer.install`` rebinds the public names each kubomeans module imports
from the next (``kubomeans.connections.integrate_measure`` and so on) to
wrappers that open a span, call the original and close the span.  Node
functions and eps-schedule steps that evaluation code passes into another
layer are wrapped as well.  ``uninstall`` puts every original back.

Spans stay in memory as tuples and are written out by ``dump``.  A span's
self time is its duration minus the durations of its direct children; calls
are serial, so children never overlap.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from collections import defaultdict
from time import perf_counter_ns

import workloads as wl

# Flops per interior node of the pencil kernel: LU of (1-t)B + tA (2/3 d^3),
# d right-hand sides (2 d^3), and the product B @ X (2 d^3).
NODE_FLOPS_PER_D3 = 2.0 / 3.0 + 2.0 + 2.0

RULE_BUILDERS = ("legendre_rule", "jacobi_rule", "logistic_rule", "tanh_sinh_rule")

# (module, name) pairs that other modules import by name; each is rebound.
_IMPORTED = {
    "spectral_norm": ("spd", "connections", "catalog", "harness"),
    "integrate_measure": ("quadrature", "connections"),
    "integrate_halfline_density": ("quadrature", "connections"),
    "total_mass": ("measures", "connections", "harness"),
    "pushforward_theta": ("measures", "connections"),
    "decompose_measure": ("measures", "connections"),
    "_run_schedule": ("connections", "catalog"),
    "catalog": ("catalog", "harness"),
    "entry_from_id": ("catalog", "harness"),
}

_MODULES = {
    "spd": "kubomeans.spd",
    "quadrature": "kubomeans.quadrature",
    "connections": "kubomeans.connections",
    "catalog": "kubomeans.catalog",
    "harness": "kubomeans.harness",
    "measures": "kubomeans.measures",
}


class Tracer:
    def __init__(self):
        import importlib

        self.mods = {k: importlib.import_module(v) for k, v in _MODULES.items()}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, span id, parent id, op id, start ns, end ns, error)
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple] = []
        self.op = -1
        quad = self.mods["quadrature"]
        self.rule_origs = {name: getattr(quad, name) for name in RULE_BUILDERS}
        self.reset_stats()

    # -- span bookkeeping ---------------------------------------------------

    def reset_stats(self):
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.count = defaultdict(float)

    def _open(self, name: str) -> list:
        frame = [name, self._next_id, perf_counter_ns(), 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, error: str | None = None) -> int:
        end = perf_counter_ns()
        popped = self._stack.pop()
        assert popped is frame, "span stack out of order"
        name, span_id, start, child_ns = frame
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.spans.append(
            (nid, span_id, parent[1] if parent else -1, self.op, start, end, error)
        )
        self.calls[name] += 1
        self.total_ns[name] += dur
        self.self_ns[name] += dur - child_ns
        return dur

    def next_op(self) -> None:
        """Start a new request id; spans of one op share it."""
        self.op += 1

    def in_span(self, prefix: str) -> bool:
        return any(f[0].startswith(prefix) for f in self._stack)

    def call(self, name: str, fn, *args, after=None, **kwargs):
        frame = self._open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            self._close(frame, type(exc).__name__)
            raise
        if after is not None:
            after(frame, args, kwargs, out)
        self._close(frame)
        return out

    # -- installation ---------------------------------------------------------

    def _rebind(self, owner, attr: str, make):
        orig = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(orig)(make(orig)))
        self._undo.append((owner, attr, orig))

    def _rebind_imported(self, attr: str, make):
        wrapped = None
        for key in _IMPORTED[attr]:
            mod = self.mods[key]
            orig = getattr(mod, attr)
            if wrapped is None:
                wrapped = functools.wraps(orig)(make(orig))
            setattr(mod, attr, wrapped)
            self._undo.append((mod, attr, orig))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def install(self):
        m = self.mods
        t = self

        # spd: validation on every SpdMatrix construction, and the norm
        spd_cls = m["spd"].SpdMatrix
        self._rebind(
            spd_cls, "__post_init__",
            lambda orig: lambda obj: t.call("spd.validate", orig, obj),
        )
        self._rebind_imported(
            "spectral_norm",
            lambda orig: lambda a: t.call("spd.spectral_norm", orig, a),
        )

        # quadrature: integration entry points, node functions, rules, IFS
        def node_fn(fnode):
            def wrapped(*args):
                frame = t._open("quadrature.node_fn")
                try:
                    out = fnode(*args)
                except BaseException as exc:
                    t._close(frame, type(exc).__name__)
                    raise
                t.count["quadrature.node_batches"] += 1
                if getattr(out, "ndim", 0) == 3:
                    frame[0] = "connections.node_eval"
                    nodes = len(args[0])
                    if len(args) == 2:  # (t, 1 - t): endpoints short-circuit
                        nodes -= int(((args[0] == 0.0) | (args[0] == 1.0)).sum())
                    d = out.shape[1]
                    t.count["connections.node_eval.gflop_computed"] += (
                        nodes * NODE_FLOPS_PER_D3 * d**3 / 1e9
                    )
                    stack_mb = out.shape[0] * d * d * 8 / 1e6
                    key = "connections.node_eval.max_stack_mb_computed"
                    t.count[key] = max(t.count[key], stack_mb)
                t._close(frame)
                return out

            return wrapped

        def integrate(orig):
            def wrapped(fnode, *args, **kwargs):
                frame = t._open("quadrature.integrate")
                try:
                    report = orig(node_fn(fnode), *args, **kwargs)
                except wl.errors.QuadratureError as exc:
                    t.count["quadrature.converge_fail"] += 1
                    t._close(frame, type(exc).__name__)
                    raise
                except BaseException as exc:
                    t._close(frame, type(exc).__name__)
                    raise
                t.count["quadrature.nodes"] += report.nodes_used
                if t.in_span("connections.schedule"):
                    t.count["connections.schedule.integrations"] += 1
                t._close(frame)
                return report

            return wrapped

        self._rebind_imported("integrate_measure", integrate)
        self._rebind_imported("integrate_halfline_density", integrate)

        quad = m["quadrature"]

        def rule(orig):
            def wrapped(*args):
                before = orig.cache_info().misses
                frame = t._open("quadrature.rule")
                try:
                    out = orig(*args)
                finally:
                    missed = orig.cache_info().misses > before
                    dur_child = frame[3]
                    dur = t._close(frame)
                if missed:
                    t.count["quadrature.rule.cold_ns"] += dur - dur_child
                return out

            return wrapped

        for name in RULE_BUILDERS:
            self._rebind(quad, name, rule)

        def ifs_nodes(orig):
            def wrapped(ifs, depth):
                def after(frame, args, kwargs, out):
                    t.count["quadrature.ifs.nodes"] += len(out[0])
                    key = "quadrature.ifs.depth_max"
                    t.count[key] = max(t.count[key], depth)

                return t.call("quadrature.ifs", orig, ifs, depth, after=after)

            return wrapped

        self._rebind(quad, "ifs_nodes", ifs_nodes)

        # connections: evaluation, canonical form, the eps schedule
        conn = m["connections"]

        def counted_singular(span):
            def make(orig):
                def wrapped(*args, **kwargs):
                    try:
                        return t.call(span, orig, *args, **kwargs)
                    except wl.errors.SingularPencilError:
                        t.count["connections.singular_error"] += 1
                        raise

                return wrapped

            return make

        self._rebind(conn, "evaluate_report", counted_singular("connections.evaluate"))
        self._rebind(conn, "evaluate_canonical", counted_singular("connections.canonical"))

        def schedule(orig):
            def wrapped(direct, scale_norm):
                t.count["connections.schedule.engaged"] += 1

                def step(eps):
                    return t.call("connections.schedule.step", direct, eps)

                return t.call("connections.schedule", orig, step, scale_norm)

            return wrapped

        self._rebind_imported("_run_schedule", schedule)

        # harness: one op id per suite task
        def run_suite(orig):
            def wrapped(*args, **kwargs):
                t.next_op()
                return t.call("harness.suite", orig, *args, **kwargs)

            return wrapped

        self._rebind(m["harness"], "run_suite", run_suite)

        # catalog: closed forms on every entry handed out
        def closed(fn):
            if fn is None:
                return None
            return functools.wraps(fn)(
                lambda *a, **k: t.call("catalog.closed_form", fn, *a, **k)
            )

        def wrap_entry(entry):
            return dataclasses.replace(
                entry,
                closed_form_matrix=closed(entry.closed_form_matrix),
                closed_form_scalar=closed(entry.closed_form_scalar),
            )

        self._rebind_imported(
            "entry_from_id", lambda orig: lambda ident: wrap_entry(orig(ident))
        )
        self._rebind_imported(
            "catalog", lambda orig: lambda: [wrap_entry(e) for e in orig()]
        )

        # measures
        meas = m["measures"]
        self._rebind_imported(
            "total_mass",
            lambda orig: lambda *a, **k: t.call("measures.total_mass", orig, *a, **k),
        )
        self._rebind_imported(
            "pushforward_theta",
            lambda orig: lambda mu: t.call("measures.pushforward", orig, mu),
        )
        self._rebind_imported(
            "decompose_measure",
            lambda orig: lambda mu: t.call("measures.decompose", orig, mu),
        )
        for name in ("measure_to_json", "measure_from_json"):
            self._rebind(
                meas, name,
                lambda orig: lambda obj: t.call("measures.json_roundtrip", orig, obj),
            )

    # -- output -----------------------------------------------------------------

    def rule_cache_totals(self) -> tuple[int, int]:
        hits = misses = 0
        for fn in self.rule_origs.values():
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
        return hits, misses

    def clear_rule_caches(self):
        for fn in self.rule_origs.values():
            fn.cache_clear()

    def dump(self, path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump(
                {
                    "fields": ["name", "span", "parent", "op", "start_ns", "end_ns", "error"],
                    "names": self.names,
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )
