"""Span tracing of privcomm from outside the package.

``install`` replaces every public function of the package's modules with a
wrapper that records one span per call: name, start, end, parent span, the
operation id the harness is running, and two optional work values (array
size for ``second_order_dc_dp``, points of a sweep, the verdict of
``verify_equilibrium``, samples and computed bytes for ``simulate_policy``).  Names that one module
re-imports from another (``privcomm.curves.solve_setting1``,
``privcomm.oracle.second_order_dc_dp``, ``privcomm.cli.verify_equilibrium``,
...) share the wrapper of the defining function, so nested calls are
attributed to the layer that defines them.

Spans live in flat arrays until the run ends, when ``write`` saves them;
``analyse`` turns them into self times (span duration minus the time its
child spans cover).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("model", "equilibrium", "curves", "oracle", "montecarlo", "cli")

#: A span's layer is the prefix of its name; the harness's own op spans use
#: this one, and the child-process start-up spans use ``import``.
HARNESS = "harness"


def _dc_dp_work(args, kwargs, result):
    return float(np.size(args[1])), 0.0


def _verify_work(args, kwargs, result):
    return float(result.passed), 0.0


def _simulate_work(args, kwargs, result):
    from privcomm.equilibrium import Setting

    policy, config = args[1], args[4]
    # computed, not measured: 8 bytes per standard-normal variate drawn
    draws = 2 + (policy.noise_var > 0.0) + (config.setting is Setting.CHANNEL)
    return float(config.samples), 8.0 * config.samples * draws


def _curve_work(args, kwargs, result):
    return float(len(result.points)), 0.0


WORK = {
    "equilibrium.second_order_dc_dp": _dc_dp_work,
    "curves.sweep_privacy_distortion": _curve_work,
    "curves.sweep_rate_distortion": _curve_work,
    "oracle.verify_equilibrium": _verify_work,
    "montecarlo.simulate_policy": _simulate_work,
}


class Tracer:
    """In-memory span store; ``on`` gates recording."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.work2 = array("d")
        self.stack = [-1]
        self.current_op = -1
        self.on = False

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name_id: int, start: float, end: float, parent: int,
            work: float = 0.0, work2: float = 0.0) -> int:
        """Append a span; returns its index."""
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(parent)
        self.op.append(self.current_op)
        self.start.append(start)
        self.end.append(end)
        self.work.append(work)
        self.work2.append(work2)
        return i

    def open(self, name_id: int) -> int:
        i = self.add(name_id, time.perf_counter(), 0.0, self.stack[-1])
        self.stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(i)

    @contextlib.contextmanager
    def paused(self):
        """Run harness-side checks without recording spans."""
        was, self.on = self.on, False
        try:
            yield
        finally:
            self.on = was

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
            "work2": np.frombuffer(self.work2, dtype=np.float64).copy(),
        }


def _wrap(tracer: Tracer, fn, name: str):
    nid = tracer.name_id(name)
    work = WORK.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        i = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if work is not None:
            tracer.work[i], tracer.work2[i] = work(args, kwargs, result)
        return result

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every public privcomm function, in every module that binds it.

    Call once per process: wrappers are not unwrapped."""
    modules = [importlib.import_module(f"privcomm.{layer}") for layer in LAYERS]
    modules.append(importlib.import_module("privcomm"))
    wrappers = {}
    for module in modules:
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            owner = fn.__module__
            if not owner.startswith("privcomm."):
                continue
            layer = owner.split(".", 1)[1]
            if layer not in LAYERS:
                continue
            key = id(fn)
            if key not in wrappers:
                wrappers[key] = _wrap(tracer, fn, f"{layer}.{fn.__name__}")
            setattr(module, attr, wrappers[key])


def write(tracer: Tracer, path) -> None:
    """Save all spans, with the name table, as a numpy ``.npz`` file."""
    np.savez(path, names=np.array(tracer.names), **tracer.arrays())


def merge(tracer: Tracer, path) -> None:
    """Append a child's saved spans; its root spans become children of the open span."""
    with np.load(path) as doc:
        names = [tracer.name_id(str(n)) for n in doc["names"]]
        base, top = len(tracer), tracer.stack[-1]
        for name, parent, start, end, work, work2 in zip(
            doc["name"].tolist(), doc["parent"].tolist(), doc["start"].tolist(),
            doc["end"].tolist(), doc["work"].tolist(), doc["work2"].tolist(),
        ):
            tracer.add(names[name], start, end, base + parent if parent >= 0 else top,
                       work, work2)


def analyse(spans: dict, names: list[str]) -> dict:
    """Per-span duration, self time and layer; arrays indexed like ``spans``."""
    dur = spans["end"] - spans["start"]
    child = np.zeros_like(dur)
    has_parent = spans["parent"] >= 0
    np.add.at(child, spans["parent"][has_parent], dur[has_parent])
    layer_of = np.array([n.split(".", 1)[0] for n in names] + [""], dtype=object)
    return {"dur": dur, "self": dur - child, "layer": layer_of[spans["name"]]}
