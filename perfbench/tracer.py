"""Per-layer spans for the traced benchmark run, recorded from outside the package.

The tracer replaces the public functions of each ebitnet module with thin
wrappers that open a span around the call.  Spans nest through one stack, so
a layer's self time is its span time minus the time of the spans it caused.
Counters that need a call's arguments (bytes touched by ``apply_gate``,
eigensolver work under ``entropy_of_qubits``, events written by
``dump_trace``) are taken in the same wrappers.  ``uninstall`` puts every
original object back.

Nothing here changes what the program computes: wrappers pass arguments and
results through unchanged.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter

import numpy as np

import ebitnet
from ebitnet import audit, bounds, cli, engine, gates, graphs, ledger, protocols
from ebitnet.engine import BranchEnsemble, Gate

MODULES = (ebitnet, cli, protocols, engine, gates, ledger, audit, graphs, bounds)

# Public functions with a span of their own; every other public function of
# engine, gates and graphs falls into "<module>.other", and every public
# function of protocols and bounds into the module's single span.  ledger is
# spanned at dump and load only, so the per-event codec counts as part of them.
NAMED_SPANS = {
    (engine, "apply_gate"): "engine.apply_gate",
    (engine, "entropy_of_qubits"): "engine.entropy",
    (engine, "measure_computational"): "engine.measure",
    (engine, "bell_measure"): "engine.measure",
    (engine, "apply_conditional"): "engine.apply_conditional",
    (engine, "coalesce"): "engine.coalesce",
    (gates, "haar_unitary"): "gates.haar_unitary",
    (gates, "permutation_unitary"): "gates.permutation_unitary",
    (ledger, "dump_trace"): "ledger.dump_trace",
    (ledger, "load_trace"): "ledger.load_trace",
    (audit, "audit_trace"): "audit.audit_trace",
    (audit, "replay_events"): "audit.replay_events",
    (graphs, "symmetrise"): "graphs.symmetrise",
    (graphs, "import_json"): "graphs.io",
    (graphs, "export_json"): "graphs.io",
    (graphs, "export_dot"): "graphs.io",
}
CATCH_ALL = {engine: "engine.other", gates: "gates.other", graphs: "graphs.other",
             protocols: "protocols", bounds: "bounds"}


def _public_functions(mod):
    for name, fn in vars(mod).items():
        if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
            yield name, fn


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # [span name, time covered by child spans]
        self._patched: list[tuple[object, str, object]] = []
        self.maxima: dict[str, float] = defaultdict(float)  # over the whole run
        self.reset()

    def reset(self) -> None:
        """Clear the span times and counters (not the maxima)."""
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    # -- spans -----------------------------------------------------------

    def span(self, name: str, fn, /, *args, **kwargs):
        frame = [name, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            self._stack.pop()
            self.self_s[name] += duration - frame[1]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += duration

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    # -- counters ----------------------------------------------------------

    def _observe(self, value) -> None:
        if isinstance(value, tuple) and value:
            value = value[0]
        if isinstance(value, BranchEnsemble):
            branches, qubits = len(value.branches), value.num_qubits
            self.maxima["engine.registry_qubits_max"] = max(self.maxima["engine.registry_qubits_max"], qubits)
            self.maxima["engine.branches_max"] = max(self.maxima["engine.branches_max"], branches)
            self.maxima["engine.amplitude_mb_max"] = max(
                self.maxima["engine.amplitude_mb_max"], branches * (16 << qubits) / 1e6)

    def _before(self, span: str, fn_name: str, args) -> None:
        if span == "engine.apply_gate":
            ens = args[0]
            self.counts["engine.apply_gate.bytes"] += 2 * len(ens.branches) * (16 << ens.num_qubits)
        elif span == "ledger.dump_trace":
            self.counts["ledger.trace_events"] += len(args[0].events)
        elif fn_name == "entanglement_entropy" and self.inside("audit.audit_trace"):
            self.counts["audit.monotone_evals"] += 1

    def _eig_hook(self, original, flops):
        @functools.wraps(original)
        def wrapper(a, *args, **kwargs):
            if self.inside("engine.entropy"):
                self.counts["engine.entropy.eig_flops"] += flops(np.shape(a))
            return original(a, *args, **kwargs)
        return wrapper

    # -- installation -------------------------------------------------------

    def _wrap(self, span: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # A generator does its work in next(), so each next() is one span.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    try:
                        item = tracer.span(span, next, inner)
                    except StopIteration:
                        return
                    yield item
            return gen_wrapper

        is_engine = span.startswith("engine.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._before(span, fn.__name__, args)
            result = tracer.span(span, fn, *args, **kwargs)
            if is_engine:
                tracer._observe(result)
            return result
        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every traced function wherever an ebitnet module refers to it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod, catch_all in [(m, CATCH_ALL.get(m)) for m in MODULES]:
            for name, fn in _public_functions(mod):
                span = NAMED_SPANS.get((mod, name), catch_all)
                if span is not None:
                    wrappers[fn] = self._wrap(span, fn)
        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._replace(mod, attr, wrappers[value])
        check = Gate.__post_init__
        self._replace(Gate, "__post_init__",
                      functools.wraps(check)(lambda gate: self.span("engine.gate_check", check, gate)))
        self._replace(np.linalg, "eigvalsh", self._eig_hook(np.linalg.eigvalsh, lambda s: s[-1] ** 3))
        self._replace(np.linalg, "svd", self._eig_hook(
            np.linalg.svd, lambda s: min(s[-2:]) ** 2 * max(s[-2:])))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Per-layer values accumulated since the last reset (maxima excluded)."""
        out = {f"{name}.self_s": value for name, value in self.self_s.items()}
        out.update({f"{name}.calls": float(value) for name, value in self.calls.items()})
        out.update(self.counts)
        return out
