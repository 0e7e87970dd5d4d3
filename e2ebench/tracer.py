"""Span tracing of ``repro``'s public entry points, from outside the package.

:class:`Tracer` wraps a fixed list of public functions and methods (the
``ENTRY_POINTS`` table) with span recorders while it is installed, and puts
the originals back when it is removed.  A span is ``(name, start, end,
parent)``; a span's *self time* is its duration minus its child spans, so
the self times of all spans plus the untraced remainder add up to the
traced wall time.  The span name's prefix before the first ``.`` is its
layer (``nn``, ``attacks``, ``mapping``, ``dram``, ``core``, ``presets``,
``experiments``).

Nothing under ``src/`` knows about the tracer.  Module-level functions are
patched in every loaded ``repro`` module that bound them by name, because
``from repro.nn.train import evaluate`` copies the reference.

Besides spans the tracer keeps simulator-side counters of the controllers
and defenders built while it is installed (commands issued, simulated ns,
windows, swaps, AAPs) and the hammer outcomes of every
``RowHammerAttacker.attempt_flips`` call.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

LAYERS = ("nn", "attacks", "mapping", "dram", "core", "presets", "experiments")

# (module, owner, attribute, span name).  ``owner`` is a class name, or
# None for a module-level function.  Spans named in ``_OUTERMOST`` record
# only when no span of the same name is open: a model's sub-modules are
# called through the same ``Module.__call__`` as the model itself.
ENTRY_POINTS = (
    ("repro.nn.module", "Module", "__call__", "nn.forward"),
    ("repro.nn.tensor", "Tensor", "backward", "nn.backward"),
    ("repro.nn.train", None, "evaluate", "nn.eval"),
    ("repro.nn.train", None, "loss_and_grads", "nn.loss_and_grads"),
    ("repro.nn.train", None, "fit", "nn.fit"),
    ("repro.nn.optim", "SGD", "step", "nn.optim_step"),
    ("repro.nn.quant", "QuantizedModel", "__init__", "nn.quantize"),
    ("repro.attacks.profile", None, "profile_vulnerable_bits", "attacks.profile"),
    ("repro.attacks.adaptive", None, "semi_white_box_attack", "attacks.semi_white_box"),
    ("repro.attacks.bfa", "BitFlipAttack", "run", "attacks.bfa_run"),
    ("repro.attacks.hammer", "HammerExecutor", "execute", "attacks.hammer"),
    ("repro.attacks.hammer", "HammerExecutor", "execute_many", "attacks.hammer"),
    ("repro.attacks.hammer", "RowHammerAttacker", "attempt_flips", "attacks.attempt_flips"),
    ("repro.mapping.layout", "WeightLayout", "__init__", "mapping.place"),
    ("repro.mapping.layout", "WeightLayout", "sync_model_from_dram", "mapping.sync"),
    ("repro.mapping.victim", None, "build_protection_plan", "mapping.plan"),
    ("repro.dram.controller", "MemoryController", "__init__", "dram.init"),
    ("repro.dram.controller", "MemoryController", "activate", "dram.activate"),
    ("repro.dram.controller", "MemoryController", "rowclone", "dram.rowclone"),
    ("repro.dram.controller", "MemoryController", "advance_time", "dram.advance_time"),
    ("repro.core.deployment", "DefendedDeployment", "build", "core.build"),
    ("repro.core.defender", "DNNDefender", "__init__", "core.defender_init"),
    ("repro.core.defender", "DNNDefender", "tick", "core.tick"),
    ("repro.core.defender", "DNNDefender", "run_window", "core.run_window"),
    ("repro.presets", "TrainedPreset", "fresh_model", "presets.fresh_model"),
    ("repro.presets", "PresetSpec", "realise", "presets.realise"),
    ("repro.experiments.cache", "PresetCache", "load_spec", "presets.load"),
    ("repro.experiments.cache", "ProfileCache", "load", "experiments.profile_load"),
)

_OUTERMOST = frozenset(
    {"nn.forward", "nn.backward", "attacks.hammer", "core.build", "core.tick"}
)


class Tracer:
    """Records spans around ``ENTRY_POINTS`` while installed.

    Use as a context manager; ``reset()`` clears what was recorded so one
    installed tracer can measure several phases.
    """

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def reset(self) -> None:
        # Parallel lists: name, start, end, parent index (-1 = root).
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self.controllers: list = []
        self.defenders: list = []
        self.flips_attempted = 0
        self.flips_landed = 0
        self.bfa_iterations = 0

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a ``with`` block (for the benchmark's
        own phases, e.g. a hand-wired deployment build)."""
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    def _enter(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self._open[name] += 1
        self.starts.append(time.perf_counter())
        return index

    def _exit(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()
        self._open[self.names[index]] -= 1

    def _wrap(self, name: str, fn):
        tracer = self
        outermost = name in _OUTERMOST
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost and tracer._open[name]:
                return fn(*args, **kwargs)
            index = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(index)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    # ------------------------------------------------------------------ #
    # Install / remove
    # ------------------------------------------------------------------ #

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        loaded = [
            module for name, module in sorted(sys.modules.items())
            if name == "repro" or name.startswith("repro.")
        ]
        for module_name, owner, attr, span_name in ENTRY_POINTS:
            module = sys.modules[module_name]
            if owner is not None:
                cls = getattr(module, owner)
                original = cls.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(
                        self._wrap(span_name, original.__func__)
                    )
                else:
                    wrapped = self._wrap(span_name, original)
                self._patch(cls, attr, original, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(span_name, original)
            for candidate in loaded:
                if candidate.__dict__.get(attr) is original:
                    self._patch(candidate, attr, original, wrapped)
        return self

    def _patch(self, target, attr: str, original, wrapped) -> None:
        self._patches.append((target, attr, original))
        setattr(target, attr, wrapped)

    def remove(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: (call count, inclusive seconds, self seconds)."""
        calls: dict[str, int] = defaultdict(int)
        inclusive: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        child_s = [0.0] * len(self.names)
        for index in range(len(self.names) - 1, -1, -1):
            duration = self.ends[index] - self.starts[index]
            parent = self.parents[index]
            if parent >= 0:
                child_s[parent] += duration
            name = self.names[index]
            calls[name] += 1
            inclusive[name] += duration
            self_s[name] += duration - child_s[index]
        return calls, inclusive, self_s

    def layer_self_seconds(self) -> dict[str, float]:
        _, _, self_s = self.totals()
        layers = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self_s.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + seconds
        return layers

    def simulator_counters(self) -> dict[str, float]:
        """Deterministic simulator statistics of everything built while
        installed."""
        commands = 0
        sim_ns = 0.0
        for controller in self.controllers:
            commands += sum(
                sum(controller.actor_stats(actor).counts.values())
                for actor in sorted(controller.stats_by_actor)
            )
            sim_ns += controller.now_ns
        return {
            "cmds_total": float(commands),
            "sim_ns": sim_ns,
            "windows": float(sum(d.stats.windows_run for d in self.defenders)),
            "swaps": float(sum(d.stats.swaps_executed for d in self.defenders)),
            "aaps": float(sum(d.engine.total_aaps for d in self.defenders)),
        }


def _keep_instance(kind: str):
    def observe(tracer: Tracer, args, result) -> None:
        getattr(tracer, kind).append(args[0])

    return observe


def _count_flips(tracer: Tracer, args, result) -> None:
    tracer.flips_attempted += len(result)
    tracer.flips_landed += sum(1 for landed in result if landed)


def _count_iterations(tracer: Tracer, args, result) -> None:
    tracer.bfa_iterations += len(result.attempts)


_OBSERVERS = {
    "dram.init": _keep_instance("controllers"),
    "core.defender_init": _keep_instance("defenders"),
    "attacks.attempt_flips": _count_flips,
    "attacks.bfa_run": _count_iterations,
}
