"""Span tracing of the aphi pipeline, installed from outside the package.

`Tracer.install` replaces each traced public function of `aphi` with a
wrapper in every module namespace that binds it (for example
`sparse_lu_solve` in both `aphi.solve` and `aphi.physics`), patches the
traced methods on their classes, and puts a proxy in front of
`scipy.sparse.linalg` where `aphi.solve` reaches `splu`, so that LU fill
can be read from the factor object.  Nothing in the package changes;
`uninstall` restores every binding.

A span records its name, layer (the aphi module), start, end, parent span
and run id, plus facts read from the arguments or result (cells built,
LU fill, ...).  Spans stay in memory and are written as JSON lines when
the run ends.  Work done only to read facts (for example building the L
and U matrices to count their nonzeros) runs with the span clock paused,
so span durations exclude it; the tracing overhead that the benchmark
reports is measured on the real clock and includes it.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager

LAYERS = ("scenario", "mesh", "spaces", "assembly", "gauge", "system",
          "solve", "physics", "vtk_io", "cli")
ROOT = "bench"  # layer of the span around a whole round; not an aphi module

_BUNDLE_MATRICES = ("K_sigma", "K_eps", "G_sigma", "G_eps", "M_sigma",
                    "M_eps", "C_nu", "D_sigma", "D_eps")
_FIELD_EVALUATORS = ("grad_phi", "vector_potential", "B", "E", "D_e", "D_m",
                     "J_e", "J_m", "J_source", "D_total", "J_total")


def _points(args, kwargs, result):
    return {"points": int(result.shape[0])}


def _path_bytes(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[0]
    return {"bytes": os.path.getsize(path)}


# (defining module, function, layer, facts read from (args, kwargs, result))
FUNCTIONS = (
    ("aphi.scenario", "load_scenario", "scenario", None),
    ("aphi.mesh", "build_box_mesh", "mesh", lambda a, k, r: {"cells": r.n_cells}),
    ("aphi.spaces", "build_scalar_space", "spaces", None),
    ("aphi.spaces", "build_edge_space", "spaces",
     lambda a, k, r: {"free_edges": int(r.n_free)}),
    ("aphi.assembly", "assemble_bundle", "assembly",
     lambda a, k, r: {"nnz": sum(getattr(r, m).nnz for m in _BUNDLE_MATRICES)}),
    ("aphi.assembly", "assemble_current_vector", "assembly", None),
    ("aphi.assembly", "assemble_charge_vector", "assembly", None),
    ("aphi.gauge", "build_gauge_graph", "gauge", None),
    ("aphi.gauge", "spanning_tree", "gauge",
     lambda a, k, r: {"tree_edges": int(r.tree.size)}),
    ("aphi.system", "build_eqs_system", "system", None),
    ("aphi.system", "build_eqs_static_limit", "system", None),
    ("aphi.system", "build_curl_matrix", "system", None),
    ("aphi.system", "build_rhs", "system", None),
    ("aphi.system", "build_scaled_divergence", "system", None),
    ("aphi.system", "build_lagrange_system", "system", None),
    ("aphi.system", "build_stabilized_system", "system", None),
    ("aphi.solve", "sparse_lu_solve", "solve",
     lambda a, k, r: {"rel_residual": r.rel_residual}),
    ("aphi.solve", "condition_estimate", "solve",
     lambda a, k, r: {"iterations": r.iterations, "cond_method": r.method}),
    ("aphi.physics", "run_two_step", "physics", None),
    ("aphi.physics", "solve_eqs_step", "physics", None),
    ("aphi.physics", "hcurl_error", "physics", None),
    ("aphi.vtk_io", "export_vtk", "vtk_io", None),
    ("aphi.vtk_io", "write_vtk", "vtk_io", _path_bytes),
    ("aphi.cli", "main", "cli", None),
)

# (defining module, class, method, layer, facts)
METHODS = (
    ("aphi.scenario", "Scenario", "build", "scenario", None),
    ("aphi.solve", "Factorization", "__init__", "solve", None),
    ("aphi.solve", "Factorization", "solve", "solve", None),
    ("aphi.solve", "Factorization", "solve_adjoint", "solve", None),
) + tuple(("aphi.physics", "DerivedFields", m, "physics", _points)
          for m in _FIELD_EVALUATORS)


class _ModuleProxy:
    """Stands in for a module, overriding some of its attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """In-memory span recorder for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._paused = 0.0
        self._patches: list[tuple[object, str, object]] = []

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    @contextmanager
    def paused(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0

    def open(self, name: str, layer: str) -> dict:
        rec = {"id": len(self.spans), "name": name, "layer": layer,
               "run": self.run_id,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "start": self.clock(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def close(self, rec: dict) -> None:
        rec["end"] = self.clock()
        if self._stack.pop() is not rec:
            raise RuntimeError(f"span {rec['name']} closed out of order")

    @contextmanager
    def span(self, name: str, layer: str):
        rec = self.open(name, layer)
        try:
            yield rec
        finally:
            self.close(rec)

    def wrap(self, fn, name: str, layer: str, facts=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec["error"] = type(exc).__name__
                raise
            finally:
                tracer.close(rec)
            if facts is not None:
                with tracer.paused():
                    rec.update(facts(args, kwargs, result))
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function and method of the imported package."""
        import scipy.sparse.linalg as spla

        import aphi.cli  # noqa: F401  (imports every traced module)

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "aphi" or n.startswith("aphi.")]
        for mod_name, fn_name, layer, facts in FUNCTIONS:
            original = getattr(sys.modules[mod_name], fn_name)
            traced = self.wrap(original, fn_name, layer, facts)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, traced)
        for mod_name, cls_name, meth, layer, facts in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._patch(cls, meth, self.wrap(cls.__dict__[meth],
                                             f"{cls_name}.{meth}", layer, facts))

        def splu(*args, **kwargs):
            lu = spla.splu(*args, **kwargs)
            with self.paused():
                if self._stack:
                    rec = self._stack[-1]
                    rec["lu_nnz"] = rec.get("lu_nnz", 0) + lu.L.nnz + lu.U.nnz
            return lu

        self._patch(sys.modules["aphi.solve"], "spla", _ModuleProxy(spla, splu=splu))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _duration(rec: dict) -> float:
    return rec["end"] - rec["start"]


class SpanIndex:
    """Queries over one round's closed spans."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        self.children: dict[int, list[dict]] = {}
        for s in spans:
            if s["parent"] is not None:
                self.children.setdefault(s["parent"], []).append(s)

    def _ancestors(self, rec: dict):
        while rec["parent"] is not None:
            rec = self.by_id[rec["parent"]]
            yield rec

    def outermost(self, names) -> list[dict]:
        """Spans named in `names` that no other span of `names` encloses."""
        names = set(names)
        return [s for s in self.spans if s["name"] in names
                and not any(a["name"] in names for a in self._ancestors(s))]

    def time(self, names) -> float:
        return sum(_duration(s) for s in self.outermost(names))

    def self_time(self, rec: dict) -> float:
        return _duration(rec) - sum(_duration(c) for c in self.children.get(rec["id"], ()))

    def layer_self_times(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            if s["layer"] in out:
                out[s["layer"]] += self.self_time(s)
        return out

    def covered(self) -> float:
        """Time covered by spans of the layers below the command line."""
        below = [s for s in self.spans if s["layer"] not in ("cli", ROOT)]
        return sum(_duration(s) for s in below
                   if not any(a["layer"] not in ("cli", ROOT) for a in self._ancestors(s)))


SYSTEM_BUILDS = ("build_eqs_system", "build_eqs_static_limit", "build_curl_matrix",
                 "build_rhs", "build_scaled_divergence", "build_lagrange_system",
                 "build_stabilized_system")
FIELD_SPANS = tuple(f"DerivedFields.{m}" for m in _FIELD_EVALUATORS)

def _facts(idx: SpanIndex, names, key) -> int:
    return sum(s.get(key, 0) for s in idx.outermost(names))


def _factorizations(idx: SpanIndex) -> list[dict]:
    return [s for s in idx.spans if s["name"] == "Factorization.__init__"]


def _useful_ratio(idx: SpanIndex) -> float:
    facs = _factorizations(idx)
    if not facs:
        return 1.0
    return sum(1 for s in facs if "error" not in s) / len(facs)


# Per-layer metrics: name -> (unit, function of a SpanIndex).
LAYER_METRICS = {
    "scenario.setup_s": ("s", lambda i: i.time(("load_scenario", "Scenario.build"))),
    "mesh.build_s": ("s", lambda i: i.time(("build_box_mesh",))),
    "mesh.cells": ("count", lambda i: _facts(i, ("build_box_mesh",), "cells")),
    "spaces.build_s": ("s", lambda i: i.time(("build_scalar_space", "build_edge_space"))),
    "spaces.free_edges": ("count", lambda i: _facts(i, ("build_edge_space",), "free_edges")),
    "assembly.bundle_s": ("s", lambda i: i.time(("assemble_bundle",))),
    "assembly.bundle_nnz": ("count", lambda i: _facts(i, ("assemble_bundle",), "nnz")),
    "assembly.source_s": ("s", lambda i: i.time(("assemble_current_vector",
                                                 "assemble_charge_vector"))),
    "gauge.graph_s": ("s", lambda i: i.time(("build_gauge_graph",))),
    "gauge.tree_s": ("s", lambda i: i.time(("spanning_tree",))),
    "gauge.tree_edges": ("count", lambda i: _facts(i, ("spanning_tree",), "tree_edges")),
    "system.form_s": ("s", lambda i: i.time(SYSTEM_BUILDS)),
    "system.curl_builds": ("count", lambda i: len(i.outermost(("build_curl_matrix",)))),
    "solve.factor_s": ("s", lambda i: i.time(("Factorization.__init__",))),
    "solve.factorizations": ("count", lambda i: len(_factorizations(i))),
    "solve.lu_nnz": ("count", lambda i: _facts(i, ("Factorization.__init__",), "lu_nnz")),
    "solve.factor_useful_ratio": ("ratio", _useful_ratio),
    "solve.singular_factor_s": ("s", lambda i: sum(
        _duration(s) for s in _factorizations(i) if "error" in s)),
    "solve.apply_s": ("s", lambda i: i.time(("Factorization.solve",
                                             "Factorization.solve_adjoint"))),
    "solve.cond_s": ("s", lambda i: i.time(("condition_estimate",))),
    "solve.cond_iters": ("count", lambda i: _facts(i, ("condition_estimate",), "iterations")),
    "physics.two_step_s": ("s", lambda i: i.time(("run_two_step",))),
    "physics.eqs_s": ("s", lambda i: i.time(("solve_eqs_step",))),
    "physics.hcurl_error_s": ("s", lambda i: i.time(("hcurl_error",))),
    "physics.fields_s": ("s", lambda i: i.time(FIELD_SPANS)),
    "physics.field_points": ("count", lambda i: _facts(i, FIELD_SPANS, "points")),
    "vtk_io.export_s": ("s", lambda i: i.time(("export_vtk",))),
    "vtk_io.write_s": ("s", lambda i: i.time(("write_vtk",))),
    "vtk_io.bytes": ("B", lambda i: _facts(i, ("write_vtk",), "bytes")),
}


def layer_metrics(spans: list[dict]) -> dict[str, dict]:
    """Every per-layer metric of one traced round, as {name: {value, unit}}."""
    idx = SpanIndex(spans)
    out = {name: {"value": fn(idx), "unit": unit}
           for name, (unit, fn) in LAYER_METRICS.items()}
    for layer, t in idx.layer_self_times().items():
        out[f"{layer}.self_s"] = {"value": t, "unit": "s"}
    roots = [s for s in spans if s["layer"] == ROOT]
    wall = sum(_duration(s) for s in roots)
    out["trace.coverage"] = {"value": idx.covered() / wall if wall > 0 else 0.0,
                             "unit": "ratio"}
    out["trace.spans"] = {"value": len(spans), "unit": "count"}
    return out
