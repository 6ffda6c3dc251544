"""In-memory span tracing around the library's public calls.

A :class:`Tracer` patches the module attributes through which the library
calls its own layers, records one span per call (name, start, end, parent
span, thread, attributes) and puts every attribute back on
:meth:`Tracer.restore`.  Nothing in the library changes; the spans come
from the benchmark's own wrappers.  Spans stay in memory until
:meth:`Tracer.dump` writes them out at the end of a run.

Source evaluation is timed through a proxy: every source handed to
``prepare_closed_form`` is re-created as an instance of a subclass (same
class name, same fields) whose ``preparation_ket``/``preparation_bra``
record a span and the number of complex arguments they receive.
``dataclasses.replace`` on such a proxy, as ``scan_targets`` does per
target, yields another proxy.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.tag: dict = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list = []
        self._proxies: dict = {}

    @contextmanager
    def span(self, name: str, **attrs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "thread": threading.get_ident(),
            "attrs": {**self.tag, **attrs},
        }
        stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def _patch(self, owner, attr: str, name: str, before=None, after=None, is_classmethod=False):
        original = owner.__dict__[attr]
        func = original.__func__ if is_classmethod else original

        @functools.wraps(func)
        def traced(*args, **kwargs):
            attrs = before(args, kwargs) if before else {}
            with self.span(name, **attrs) as record:
                result = func(*args, **kwargs)
                if after:
                    record["attrs"].update(after(result))
                return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._undo.append((owner, attr, original))

    def source_proxy(self, source):
        cls = type(source)
        if getattr(cls, "_traced_by", None) is self:
            return source
        sub = self._proxies.get(cls)
        if sub is None:
            sub = type(cls.__name__, (cls,), {
                "_traced_by": self,
                "__qualname__": cls.__qualname__,
                "__module__": cls.__module__,
                "preparation_ket": self._timed_leg(cls.preparation_ket, "sources.preparation_ket"),
                "preparation_bra": self._timed_leg(cls.preparation_bra, "sources.preparation_bra"),
            })
            self._proxies[cls] = sub
        proxy = object.__new__(sub)
        proxy.__dict__.update(source.__dict__)
        return proxy

    def _timed_leg(self, method, name):
        tracer = self

        def leg(self, omega_a, omega_b):
            with tracer.span(name, points=int(np.size(omega_a) + np.size(omega_b))):
                return method(self, omega_a, omega_b)

        return leg

    def install(self):
        """Patch every layer boundary the per-layer metrics are read from."""
        from excitonscope import coincidence, excitation, excitons, runner

        def tensor(args, kwargs):
            system = args[0]
            n_f, n_e = system.n_two, system.n_one
            modes = system.transport_one.lambdas.size
            return {"tensor_mb": n_f * n_e * n_e * modes * 16 / 1e6}

        def pairs(args, kwargs):
            eig, manifold = args[0], args[3]
            n = eig.n_one if manifold == "one" else eig.n_two
            return {"pairs": n * (n - 1) // 2}

        self._patch(excitation.ExcitonSystem, "build", "excitation.system_build", is_classmethod=True)
        self._patch(excitons.ExcitonEigensystem, "from_spec", "excitons.eigensystem", is_classmethod=True)
        self._patch(excitation, "compute_transition_dipoles", "excitons.dipoles")
        self._patch(excitation, "build_transport_matrix", "bath.transport", before=pairs)
        self._patch(excitation.PoleTable, "from_system", "excitation.pole_table", is_classmethod=True)
        self._patch(excitation, "pathway_weights", "excitation.pathway_weights")

        original_prepare = excitation.prepare_closed_form

        @functools.wraps(original_prepare)
        def prepare(system, source, *args, **kwargs):
            with self.span("excitation.prepare", **tensor((system,), {})):
                return original_prepare(system, self.source_proxy(source), *args, **kwargs)

        for module in (excitation, runner):
            self._undo.append((module, "prepare_closed_form", module.__dict__["prepare_closed_form"]))
            module.prepare_closed_form = prepare

        self._patch(runner, "scan_targets", "excitation.scan")
        self._patch(runner, "jsi_map", "sources.jsi_map")
        self._patch(runner, "population_evolve", "propagators.evolve")
        self._patch(coincidence, "population_propagator", "propagators.propagator")
        clipped = lambda grid: {"clipped": int(grid.clipped_cells)}  # noqa: E731
        self._patch(coincidence, "coincidence_snapshot", "coincidence.snapshot", after=clipped)
        self._undo.append((runner, "coincidence_snapshot", runner.__dict__["coincidence_snapshot"]))
        runner.coincidence_snapshot = coincidence.coincidence_snapshot

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _p90(values) -> float:
    return float(np.percentile(values, 90)) if len(values) else 0.0


def layer_metrics(spans: list[dict], rounds: int, manifests: list[dict] = (),
                  artifact_bytes: int = 0) -> dict:
    """Per-layer metrics from the spans of one run as {name: (value, unit)};
    README.md defines each one."""
    by_name: dict = {}
    children: dict = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        children.setdefault(s["parent"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def durations(name):
        return [dur(s) for s in by_name.get(name, [])]

    builds = by_name.get("excitation.system_build", [])
    transport_per_build = [
        [c for c in children.get(b["id"], []) if c["name"] == "bath.transport"] for b in builds
    ]
    prepares = by_name.get("excitation.prepare", [])
    single = [s for s in prepares if s["attrs"].get("threads", 1) == 1] or prepares
    leg_names = ("sources.preparation_ket", "sources.preparation_bra")

    def legs(s):
        return [c for c in children.get(s["id"], []) if c["name"] in leg_names]

    def contraction(s):
        inner = sum(dur(c) for c in children.get(s["id"], [])
                    if c["name"] in leg_names + ("excitation.pole_table", "excitation.pathway_weights"))
        return dur(s) - inner

    snapshots = sorted(by_name.get("coincidence.snapshot", []), key=lambda s: s["start"])
    stage = {}
    for m in manifests:
        for entry in m.get("timings", []):
            stage.setdefault(entry["stage"], []).append(entry["seconds"])
    propagate = sum(dur(s) for n in ("propagators.evolve", "propagators.propagator")
                    for s in by_name.get(n, []))
    rounds = max(rounds, 1)
    values = {
        "excitons.eigensystem_s": _median(durations("excitons.eigensystem")),
        "excitons.dipoles_s": _median(durations("excitons.dipoles")),
        "bath.transport_s": _median([sum(dur(c) for c in cs) for cs in transport_per_build]),
        "bath.rate_pairs": _median([sum(c["attrs"]["pairs"] for c in cs) for cs in transport_per_build]),
        "excitation.pole_table_s": _median(durations("excitation.pole_table")),
        "excitation.pathway_weights_s": _median(durations("excitation.pathway_weights")),
        "excitation.pole_table_builds": len(by_name.get("excitation.pole_table", [])) / rounds,
        "excitation.prepare_s": _median([dur(s) for s in single]),
        "excitation.prepare_p90_s": _p90([dur(s) for s in single]),
        "excitation.contraction_s": _median([contraction(s) for s in single]),
        "excitation.pathway_tensor_mb": max((s["attrs"]["tensor_mb"] for s in prepares), default=0.0),
        "sources.eval_s": _median([sum(dur(c) for c in legs(s)) for s in single]),
        "sources.eval_points": _median([sum(c["attrs"]["points"] for c in legs(s)) for s in single]),
        "sources.jsi_s": _median(durations("sources.jsi_map")),
        "propagators.evolve_s": propagate / rounds,
        "coincidence.snapshot_s": _median([dur(s) for s in snapshots]),
        "coincidence.snapshot_p90_s": _p90([dur(s) for s in snapshots]),
        "coincidence.clipped_cells": snapshots[0]["attrs"]["clipped"] if snapshots else 0,
        "runner.build_model_s": _median(stage.get("build-model", [])),
        "runner.write_s": _median(stage.get("write-artifacts", [])),
        "runner.artifact_bytes": artifact_bytes / rounds,
    }
    return {name: (value, layer_unit(name)) for name, value in values.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"
