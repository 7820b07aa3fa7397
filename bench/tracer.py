"""Spans and counters around the package's public functions, recorded from
outside the package.

``Tracer.install`` replaces each listed function in every ``bdmc`` module that
holds it (the namespace where callers look it up), so ``compute_scopes`` is
traced whether ``bdmc.core``, ``bdmc.encoder`` or ``bdmc.transform`` calls it.
Recursive helpers (``engine._search``, the exhaustive walk) are never wrapped:
an extra frame per level would bring deep searches closer to the recursion
limit.  ``PropEngine.assert_lits`` and ``backtrack`` only bump counters.

A span is ``[name, start, end, parent, graph, attrs]``; its self time is its
duration minus that of its children.  A call into a layer that is already open
(``extended_dual_rail`` calling ``dual_rail``) belongs to the outer span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from statistics import median
from time import perf_counter

from bdmc import core, dualrail, encoder, engine, formats, propcheck, transform

GROUP_ORDER = encoder.GROUP_ORDER


def _emit_bytes(result, args):
    cnf, varmap = result
    return {"bytes": len(cnf.encode("utf-8")) + len(varmap.encode("utf-8"))}


def _check_encoding_work(result, args):
    return {"assignments": 1 << len(args[2])} if result.ok else None


def _verdict(result, args):
    return {"mode": result.mode, "alphas": result.alphas_checked, "sat_calls": result.sat_calls}


def _groups(result, args):
    return {tag: len(cl) for tag, cl in result.groups.items()}


# (module, attribute, span name, annotate(result, args) -> attrs)
WRAPPED = (
    (formats, "parse_bdmc", "formats.parse_bdmc", None),
    (formats, "emit_dimacs", "formats.emit_dimacs", _emit_bytes),
    (formats, "parse_dimacs", "formats.parse_dimacs", None),
    (core, "validate", "core.validate", None),
    (core, "compute_scopes", "core.compute_scopes", None),
    (core, "topo_order", "core.topo_order", None),
    (transform, "smooth", "transform.smooth", None),
    (transform, "level", "transform.level", lambda r, a: {"nodes": r.num_nodes}),
    (transform, "separator_cover", "transform.separator_cover",
     lambda r, a: {"cover": r.total_size}),
    (dualrail, "dual_rail", "dualrail.e1", None),
    (dualrail, "extended_dual_rail", "dualrail.e1", None),
    (encoder, "compile_graph", "encoder.compile_graph", _groups),
    (encoder, "build_varmap", "encoder.varmap", None),
    (encoder, "circuit_clauses", "encoder.circuit_clauses", None),
    (encoder, "separator_clauses", "encoder.separator_clauses", None),
    (encoder, "seq_separator_clauses", "encoder.separator_clauses", None),
    (encoder, "size_report", "encoder.size_report", None),
    (engine, "all_scope_models", "engine.all_scope_models",
     lambda r, a: {"projections": len(r)}),
    (propcheck, "check_encoding", "propcheck.check_encoding", _check_encoding_work),
    (propcheck, "check_strength", "propcheck.check_strength", _verdict),
    (propcheck, "certify_formula", "propcheck.certify_formula", None),
    (propcheck, "gen_random", "propcheck.gen_random", None),
)

# end-to-end spans the benchmark opens itself; together they cover a pass
TOP_LEVEL = ("bench.compile", "bench.verify")

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [
        ("propcheck.sampled.s", "s", "lower"),
        ("propcheck.sampled.alphas", "count", "lower"),
        ("propcheck.sampled.alphas_per_s", "1/s", "higher"),
        ("propcheck.sampled.sat_calls", "count", "lower"),
        ("propcheck.sampled.sat_calls_per_alpha", "ratio", "lower"),
        ("propcheck.exhaustive.s", "s", "lower"),
        ("propcheck.exhaustive.alphas", "count", "lower"),
        ("propcheck.exhaustive.alphas_per_s", "1/s", "higher"),
        ("propcheck.check_encoding.s", "s", "lower"),
        ("propcheck.check_encoding.assignments", "count", "lower"),
        ("propcheck.gen_random.s", "s", "lower"),
        ("propcheck.certify_formula.s", "s", "lower"),
        ("propcheck.certify_formula.calls", "count", "lower"),
        ("engine.PropEngine.builds", "count", "lower"),
        ("engine.PropEngine.build_s", "s", "lower"),
        ("engine.assert_lits.calls", "count", "lower"),
        ("engine.backtrack.calls", "count", "lower"),
        ("engine.all_scope_models.s", "s", "lower"),
        ("engine.all_scope_models.projections", "count", "lower"),
        ("core.validate.calls_per_compile", "ratio", "lower"),
        ("core.validate.s", "s", "lower"),
        ("core.compute_scopes.calls_per_compile", "ratio", "lower"),
        ("core.compute_scopes.s", "s", "lower"),
        ("core.topo_order.calls_per_compile", "ratio", "lower"),
        ("transform.smooth.s", "s", "lower"),
        ("transform.level.s", "s", "lower"),
        ("transform.separator_cover.s", "s", "lower"),
        ("transform.cover_size", "count", "lower"),
        ("transform.nodes_after_level", "count", "lower"),
        ("dualrail.e1.s", "s", "lower"),
        ("encoder.compile_graph.self_s", "s", "lower"),
        ("encoder.varmap.s", "s", "lower"),
        ("encoder.circuit_clauses.s", "s", "lower"),
        ("encoder.separator_clauses.s", "s", "lower"),
        ("encoder.size_report.s", "s", "lower"),
    ]
    + [(f"encoder.clauses.{tag}", "count", "lower") for tag in GROUP_ORDER]
    + [
        ("formats.parse_bdmc.s", "s", "lower"),
        ("formats.emit_dimacs.s", "s", "lower"),
        ("formats.emit_dimacs.bytes", "count", "lower"),
        ("formats.parse_dimacs.s", "s", "lower"),
        ("bench.oracle.s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.unaccounted_s", "s", "lower"),
    ]
)


class NullTracer:
    """The untraced run: spans cost one attribute lookup."""

    graph = None

    @staticmethod
    def span(name):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.t0 = perf_counter()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.open_names: dict[str, int] = {}
        self.counts = {"engine.assert_lits.calls": 0, "engine.backtrack.calls": 0}
        self.graph = None
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1,
                           self.graph, None])
        self.stack.append(sid)
        self.open_names[name] = self.open_names.get(name, 0) + 1
        return sid

    def _close(self, sid: int, attrs) -> None:
        span = self.spans[sid]
        span[2] = perf_counter()
        span[5] = attrs
        self.stack.pop()
        self.open_names[span[0]] -= 1

    @contextlib.contextmanager
    def span(self, name):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid, None)

    def _wrap(self, fn, name, annotate):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.open_names.get(name):
                return fn(*args, **kwargs)
            sid = tracer._open(name)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    attrs = annotate(result, args)
                return result
            finally:
                tracer._close(sid, attrs)

        return wrapper

    def _counted(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "bdmc" or name.startswith("bdmc."))]
        for module, attr, name, annotate in WRAPPED:
            fn = getattr(module, attr)
            wrapper = self._wrap(fn, name, annotate)
            for mod in modules:
                if mod.__dict__.get(attr) is fn:
                    self._patch(mod, attr, wrapper)
        eng = engine.PropEngine
        self._patch(eng, "__init__", self._wrap(eng.__init__, "engine.PropEngine.build", None))
        self._patch(eng, "assert_lits", self._counted(eng.assert_lits, "engine.assert_lits.calls"))
        self._patch(eng, "backtrack", self._counted(eng.backtrack, "engine.backtrack.calls"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path) -> None:
        """All spans as JSON lines, times in seconds from the tracer's start."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, graph, attrs) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start - self.t0, "end": end - self.t0,
                    "parent": parent, "graph": graph, "attrs": attrs,
                }, separators=(",", ":")) + "\n")


def layer_metrics(tracer: Tracer, lo: int, hi: int, counts: dict, wall_s: float,
                  setup: tuple[int, int]) -> dict:
    """Per-layer figures of one pass: the spans ``lo:hi`` and the counter
    deltas ``counts``; the generator figures come from the setup spans."""
    spans = tracer.spans
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_s = [0.0] * (hi - lo)
    in_compile: dict[str, int] = {}
    compile_ids = set()
    attr_sum: dict[str, float] = {}
    top_s = 0.0
    for sid in range(lo, hi):
        name, start, end, parent, _graph, attrs = spans[sid]
        dur = end - start
        if parent >= lo:
            child_s[parent - lo] += dur
        if name == "encoder.compile_graph":
            compile_ids.add(sid)
        elif name in TOP_LEVEL:
            top_s += dur
        if name == "propcheck.check_strength":
            name = f"propcheck.{attrs['mode']}" if attrs else name
        total[name] = total.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        if attrs:
            for key, value in attrs.items():
                if key != "mode":
                    attr_sum[f"{name}.{key}"] = attr_sum.get(f"{name}.{key}", 0) + value
        p = parent
        while p >= lo:
            if p in compile_ids:
                in_compile[name] = in_compile.get(name, 0) + 1
                break
            p = spans[p][3]
    compile_self = sum(spans[sid][2] - spans[sid][1] - child_s[sid - lo] for sid in compile_ids)
    gen_s = cert_s = 0.0
    cert_calls = 0
    for sid in range(*setup):
        name, start, end = spans[sid][:3]
        if name == "propcheck.gen_random":
            gen_s += end - start
        elif name == "propcheck.certify_formula":
            cert_s += end - start
            cert_calls += 1

    def per(a, b):
        return a / b if b else 0.0

    compiles = len(compile_ids)
    out = {}
    for mode in ("sampled", "exhaustive"):
        s = total.get(f"propcheck.{mode}", 0.0)
        alphas = attr_sum.get(f"propcheck.{mode}.alphas", 0)
        out[f"propcheck.{mode}.s"] = s
        out[f"propcheck.{mode}.alphas"] = alphas
        out[f"propcheck.{mode}.alphas_per_s"] = per(alphas, s)
    out["propcheck.sampled.sat_calls"] = attr_sum.get("propcheck.sampled.sat_calls", 0)
    out["propcheck.sampled.sat_calls_per_alpha"] = per(
        out["propcheck.sampled.sat_calls"], out["propcheck.sampled.alphas"])
    out["propcheck.check_encoding.s"] = total.get("propcheck.check_encoding", 0.0)
    out["propcheck.check_encoding.assignments"] = attr_sum.get(
        "propcheck.check_encoding.assignments", 0)
    out["propcheck.gen_random.s"] = gen_s
    out["propcheck.certify_formula.s"] = cert_s
    out["propcheck.certify_formula.calls"] = cert_calls
    out["engine.PropEngine.builds"] = calls.get("engine.PropEngine.build", 0)
    out["engine.PropEngine.build_s"] = total.get("engine.PropEngine.build", 0.0)
    out["engine.assert_lits.calls"] = counts["engine.assert_lits.calls"]
    out["engine.backtrack.calls"] = counts["engine.backtrack.calls"]
    out["engine.all_scope_models.s"] = total.get("engine.all_scope_models", 0.0)
    out["engine.all_scope_models.projections"] = attr_sum.get(
        "engine.all_scope_models.projections", 0)
    for fn in ("validate", "compute_scopes", "topo_order"):
        out[f"core.{fn}.calls_per_compile"] = per(in_compile.get(f"core.{fn}", 0), compiles)
        if fn != "topo_order":
            out[f"core.{fn}.s"] = total.get(f"core.{fn}", 0.0)
    for fn in ("smooth", "level", "separator_cover"):
        out[f"transform.{fn}.s"] = total.get(f"transform.{fn}", 0.0)
    out["transform.cover_size"] = attr_sum.get("transform.separator_cover.cover", 0)
    out["transform.nodes_after_level"] = attr_sum.get("transform.level.nodes", 0)
    out["dualrail.e1.s"] = total.get("dualrail.e1", 0.0)
    out["encoder.compile_graph.self_s"] = compile_self
    for fn in ("varmap", "circuit_clauses", "separator_clauses", "size_report"):
        out[f"encoder.{fn}.s"] = total.get(f"encoder.{fn}", 0.0)
    for tag in GROUP_ORDER:
        out[f"encoder.clauses.{tag}"] = attr_sum.get(f"encoder.compile_graph.{tag}", 0)
    for fn in ("parse_bdmc", "emit_dimacs", "parse_dimacs"):
        out[f"formats.{fn}.s"] = total.get(f"formats.{fn}", 0.0)
    out["formats.emit_dimacs.bytes"] = attr_sum.get("formats.emit_dimacs.bytes", 0)
    out["bench.oracle.s"] = total.get("bench.oracle", 0.0)
    out["trace.unaccounted_s"] = wall_s - top_s
    return out


def median_metrics(per_pass: list[dict]) -> dict:
    return {key: median(p[key] for p in per_pass) for key in per_pass[0]}
