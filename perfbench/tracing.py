"""Span tracing of circle_cs from outside the library.

Tracer.install() replaces every public function of each layer module,
wherever a circle_cs module holds a reference to it (for example
``circle_cs.coherent.gaussian_lattice_sum``), with a wrapper that
records a span (name, layer, start, end, parent) in memory.  It also
wraps ``Quadrature.nodes`` and each entry of the verify check table.
Tracer.uninstall() puts the originals back.  Self time and counts are
derived from the spans after the traced pass, never while it runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

import numpy as np

LAYERS = ("theta", "hilbert", "coherent", "bargmann", "verify", "cli")
_NODES_SPAN = "bargmann.Quadrature.nodes"
_CHECK_PREFIX = "verify.check."


def check_table(verify):
    """verify._CHECKS if it is still a tuple of (name, tolerance, function), else None."""
    table = getattr(verify, "_CHECKS", None)
    shaped = isinstance(table, tuple) and all(
        isinstance(entry, tuple) and len(entry) == 3
        and isinstance(entry[0], str) and callable(entry[2])
        for entry in table
    )
    return table if shaped else None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._undo: list = []
        self.points = 0
        self.json_bytes = 0
        self.max_leakage = 0.0
        self.grid_evals = 0
        self.check_names: tuple[str, ...] | None = None

    # ---------------------------------------------------------------- spans

    def wrap(self, fn, name: str, layer: str, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, layer, start, end, parent)
            if note is not None:
                note(args, kwargs, result)
            return result

        return traced

    # -------------------------------------------------------------- counters

    def _count_points(self, args, kwargs, result):
        self.points += int(np.size(args[0] if args else kwargs["w"]))

    def _count_theta_point(self, args, kwargs, result):
        self.points += 1

    def _count_json(self, args, kwargs, result):
        self.json_bytes += len(result.encode("utf-8"))

    def _track_leakage(self, args, kwargs, result):
        leakage = getattr(result, "leakage", None)
        if leakage is not None and leakage > self.max_leakage:
            self.max_leakage = float(leakage)

    def _count_grid(self, args, kwargs, result):
        from circle_cs.bargmann import Quadrature

        for value in (*args, *kwargs.values()):
            if isinstance(value, Quadrature):
                self.grid_evals += value.n_l * value.n_phi

    def _note_for(self, layer: str, name: str):
        if name == "gaussian_lattice_sum":
            return self._count_points
        if name == "theta":
            return self._count_theta_point
        if name == "state_to_json":
            return self._count_json
        if layer == "hilbert":
            return self._track_leakage
        if name in ("inner_quadrature", "reproducing_apply", "kernel_identity_check"):
            return self._count_grid
        return None

    # ------------------------------------------------------------- patching

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        # import_module, because the package re-binds the name `theta`
        # to the function of that name
        circle_cs = importlib.import_module("circle_cs")
        layer_modules = {layer: importlib.import_module(f"circle_cs.{layer}") for layer in LAYERS}
        bargmann, verify = layer_modules["bargmann"], layer_modules["verify"]
        wrappers = {}
        for layer, module in layer_modules.items():
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn):
                    wrappers[fn] = self.wrap(fn, f"{layer}.{name}", layer, self._note_for(layer, name))
        for module in (circle_cs, *layer_modules.values()):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(module, attr, wrappers[value])
        self._set(
            bargmann.Quadrature, "nodes",
            self.wrap(bargmann.Quadrature.nodes, _NODES_SPAN, "bargmann"),
        )
        self._wrap_checks(verify)

    def _wrap_checks(self, verify) -> None:
        """Wrap verify's private check table, if it still has its shape.

        If a refactor changes that shape, per-check times are reported
        as absent.
        """
        table = check_table(verify)
        if table is None:
            return
        self.check_names = tuple(entry[0] for entry in table)
        self._set(verify, "_CHECKS", tuple(
            (name, tol, self.wrap(fn, _CHECK_PREFIX + name, "verify"))
            for name, tol, fn in table
        ))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -------------------------------------------------------------- metrics

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def layer_metrics(self, expected_checks) -> dict:
        """Per-layer metrics derived from the recorded spans.

        A span's self time is its duration minus the durations of its
        direct children.  Calls count every wrapped public function
        span, nested ones included; check spans are not calls.
        """
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        check_s = {}
        nodes_calls, nodes_s = 0, 0.0
        for index, (name, layer, start, end, parent) in enumerate(self.spans):
            duration = end - start
            self_s[layer] += duration - child[index]
            if name.startswith(_CHECK_PREFIX):
                key = name + "_s"
                check_s[key] = check_s.get(key, 0.0) + duration
                continue
            calls[layer] += 1
            if name == _NODES_SPAN:
                nodes_calls += 1
                nodes_s += duration

        def per_call_us(layer):
            return 1e6 * self_s[layer] / calls[layer] if calls[layer] else 0.0

        metrics = {
            "theta.calls": (calls["theta"], "count"),
            "theta.self_s": (self_s["theta"], "s"),
            "theta.us_per_call": (per_call_us("theta"), "us"),
            "theta.points": (self.points, "count"),
            "coherent.calls": (calls["coherent"], "count"),
            "coherent.self_s": (self_s["coherent"], "s"),
            "coherent.us_per_call": (per_call_us("coherent"), "us"),
            "hilbert.calls": (calls["hilbert"], "count"),
            "hilbert.self_s": (self_s["hilbert"], "s"),
            "hilbert.json_bytes": (self.json_bytes, "bytes"),
            "hilbert.max_leakage": (self.max_leakage, "abs_coeff"),
            "bargmann.calls": (calls["bargmann"], "count"),
            "bargmann.self_s": (self_s["bargmann"], "s"),
            "bargmann.grid_evals": (self.grid_evals, "count-computed"),
            "bargmann.nodes_calls": (nodes_calls, "count"),
            "bargmann.nodes_s": (nodes_s, "s"),
            "cli.calls": (calls["cli"], "count"),
            "cli.self_s": (self_s["cli"], "s"),
            "verify.self_s": (self_s["verify"], "s"),
        }
        if self.check_names is not None:
            for name in expected_checks:
                if name in self.check_names:
                    key = f"{_CHECK_PREFIX}{name}_s"
                    metrics[key] = (check_s.get(key, 0.0), "s")
        return {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()}
