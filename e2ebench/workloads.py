"""The benchmark's workload process: set-up, closed-loop trials, checks.

Run by ``e2ebench/run.py`` in a fresh interpreter per workload, with the
cache roots and thread pins already in the environment::

    python3 e2ebench/workloads.py prepare --workload NAME
    python3 e2ebench/workloads.py measure --workload NAME --seed N \
        --seconds S --trace 0|1
    python3 e2ebench/workloads.py golden     # rewrite e2ebench/golden.json

``prepare`` fills the private preset and profile caches (untimed).
``measure`` sets the workload up, runs the fixed golden trial as the
discarded warm-up, then runs seed-derived trials one at a time until they
have taken ``--seconds``, setting up afresh about ``SEGMENTS - 1`` more
times on the way, and prints one JSON object as its last line.  With ``--trace 1`` it instead runs a fixed number of
trials twice each, untraced and traced, and prints per-layer metrics.

Every trial returns a dict of deterministic outputs.  Each trial's outputs
are checked against invariants of the simulated system, the golden trial's
outputs against ``golden.json``, and in the traced run every traced trial's
outputs against its untraced twin.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.attacks.adaptive import semi_white_box_attack  # noqa: E402
from repro.attacks.bfa import BfaConfig  # noqa: E402
from repro.attacks.hammer import HammerExecutor, RowHammerAttacker  # noqa: E402
from repro.attacks.profile import profile_vulnerable_bits  # noqa: E402
from repro.core.defender import DNNDefender  # noqa: E402
from repro.core.deployment import DefendedDeployment  # noqa: E402
from repro.dram.controller import MemoryController  # noqa: E402
from repro.dram.device import DramDevice  # noqa: E402
from repro.dram.geometry import DramGeometry  # noqa: E402
from repro.dram.timing import TimingParams  # noqa: E402
from repro.experiments.cache import PresetCache, ProfileCache  # noqa: E402
from repro.mapping.layout import WeightLayout  # noqa: E402
from repro.mapping.victim import build_protection_plan  # noqa: E402
from repro.nn.quant import BitLocation, QuantizedModel  # noqa: E402
from repro.presets import preset_spec  # noqa: E402

from tracer import LAYERS, Tracer  # noqa: E402

IMPORT_S = time.perf_counter() - _T_START

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"
PRESET = "resnet20_cifar"
# The warm-up trial's seed; its outputs are pinned in golden.json.
GOLDEN_SEED = 1
# The timed phase is cut into this many slices, each after a fresh
# set-up (one fewer when a trial spans a cut); setup_s is their median.
SEGMENTS = 10
# Relative tolerance for pinned float outputs (accuracies, simulated ns,
# losses); integers and flipped-bit lists must match exactly.
FLOAT_RTOL = 1e-6

# The semi-whitebox scenario's DRAM: 2 banks x 8 sub-arrays x 64 rows.
GEOMETRY = DramGeometry(
    banks=2, subarrays_per_bank=8, rows_per_subarray=64, row_bytes=256
)
TIMING = TimingParams(t_rh=1000)
RESERVED_ROWS = 2


def trial_seed(workload_seed: int, index: int) -> int:
    """Seed of trial ``index`` of a run seeded with ``workload_seed``."""
    state = np.random.SeedSequence([workload_seed, index]).generate_state(1)
    return int(state[0])


def cache_root() -> pathlib.Path:
    return pathlib.Path(os.environ["E2EBENCH_CACHE"])


def load_preset():
    """Warm preset load through a fresh cache object (no in-process memo)."""
    return PresetCache(cache_root() / "presets").load(PRESET)


def _bit_list(locations) -> list[list[int]]:
    return [[b.layer, b.index, b.bit] for b in locations]


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Workload:
    """Set up once per slice with ``setup()``, then run ``trial(seed)``
    repeatedly; each trial returns its deterministic outputs."""

    name: str
    # Typical trial time; sets how many trials a traced run makes.
    nominal_trial_s: float

    def close(self) -> None:
        """Release what set-up created (nothing by default)."""


# ---------------------------------------------------------------------- #
# bfa-defended: Section 5.2 semi-white-box BFA through defended DRAM
# ---------------------------------------------------------------------- #

class BfaDefended(Workload):
    """Profile-and-defend a fresh victim, replay a planned BFA through the
    hammer executor, evaluate test accuracy."""

    name = "bfa-defended"
    nominal_trial_s = 1.3
    PROFILE_ROUNDS = 1
    CONFIG = BfaConfig(max_iterations=3, exact_eval_top=2)
    ATTACK_BATCH = 48

    def setup(self, tracer=None):
        self.preset = load_preset()
        self.first = self.build(GOLDEN_SEED)

    def build(self, seed: int) -> DefendedDeployment:
        return DefendedDeployment.from_preset(
            self.preset,
            geometry=GEOMETRY,
            timing=TIMING,
            profile_rounds=self.PROFILE_ROUNDS,
            profile_config=self.CONFIG,
            attack_batch_size=self.ATTACK_BATCH,
            seed=seed,
            defense="dnn-defender",
        )

    def trial(self, seed: int, tracer=None) -> dict:
        if seed == GOLDEN_SEED and self.first is not None:
            deployment, self.first = self.first, None
        else:
            deployment = self.build(seed)
        with deployment:
            dataset = self.preset.dataset
            x, y = dataset.attack_batch(
                self.ATTACK_BATCH, np.random.default_rng(seed + 1)
            )
            result = semi_white_box_attack(
                deployment.qmodel, x, y,
                executor=deployment.hammer_executor(),
                config=self.CONFIG,
                eval_x=dataset.x_test, eval_y=dataset.y_test,
            )
            accuracy = deployment.accuracy()
            defender = deployment.defender
            secured = defender.secured_bits
            outputs = {
                "planned": len(result.planned_sequence),
                "landed": _bit_list(result.landed),
                "blocked": len(result.blocked),
                "secured_bits": len(secured),
                "initial_accuracy": result.initial_accuracy,
                "final_accuracy": result.final_accuracy,
                "test_accuracy": accuracy,
                "swaps": defender.stats.swaps_executed,
                "aaps": defender.engine.total_aaps,
                "sim_ns": deployment.controller.now_ns,
            }
            require(outputs["planned"] > 0, "BFA planned no flips")
            require(
                len(result.landed) + len(result.blocked)
                == len(result.planned_sequence),
                "landed + blocked != planned",
            )
            require(
                not (set(result.landed) & secured),
                "a flip landed on a secured bit",
            )
            require(
                accuracy == result.final_accuracy,
                "re-evaluated accuracy differs from the attack's final one",
            )
            require(defender.stats.swaps_executed > 0, "defender never swapped")
        return outputs


# ---------------------------------------------------------------------- #
# hammer-defended: RowHammer sessions against a ticking DNN-Defender,
# then the Fig. 8 swap loop
# ---------------------------------------------------------------------- #

class HammerDefended(Workload):
    """Hammer every secured bit plus random bits while the defender ticks,
    then run the defender's swap windows for a fixed number of periods."""

    name = "hammer-defended"
    nominal_trial_s = 0.12
    PROFILE_ROUNDS = 2
    PROFILE_CONFIG = BfaConfig(max_iterations=8, exact_eval_top=4)
    PROFILE_BATCH = 96
    RANDOM_BITS = 32
    # Fig. 8(b)'s functional measurement caps its window loop at 200.
    PERIODS = 200

    @classmethod
    def profile_key(cls) -> dict:
        return {
            "rounds": cls.PROFILE_ROUNDS,
            "config": {
                "max_iterations": cls.PROFILE_CONFIG.max_iterations,
                "exact_eval_top": cls.PROFILE_CONFIG.exact_eval_top,
            },
            "attack_batch": cls.PROFILE_BATCH,
            "seed": 0,
            "purpose": "e2ebench-hammer-defended",
        }

    @classmethod
    def load_profile(cls, preset):
        def compute():
            qmodel = QuantizedModel(preset.fresh_model())
            x, y = preset.dataset.attack_batch(
                cls.PROFILE_BATCH, np.random.default_rng(0)
            )
            return profile_vulnerable_bits(
                qmodel, x, y, rounds=cls.PROFILE_ROUNDS,
                config=cls.PROFILE_CONFIG,
            )

        cache = ProfileCache(cache_root() / "profiles")
        return cache.load(preset_spec(PRESET), cls.profile_key(), compute)

    def setup(self, tracer=None):
        self.preset = load_preset()
        self.secured = frozenset(self.load_profile(self.preset).all_bits)
        self.first = self.build(GOLDEN_SEED, tracer)

    def build(self, seed: int, tracer=None):
        span = (
            tracer.span("core.build") if tracer is not None
            else contextlib.nullcontext()
        )
        with span:
            qmodel = QuantizedModel(self.preset.fresh_model())
            controller = MemoryController(DramDevice(GEOMETRY), TIMING)
            layout = WeightLayout(
                qmodel, controller, reserved_rows=RESERVED_ROWS, seed=seed
            )
            plan = build_protection_plan(layout, set(self.secured))
            defender = DNNDefender(
                controller, plan, reserved_rows=RESERVED_ROWS
            )
        return qmodel, controller, layout, defender

    def targets(self, qmodel: QuantizedModel, seed: int) -> list[BitLocation]:
        """Every secured bit plus ``RANDOM_BITS`` seed-drawn other bits."""
        rng = np.random.default_rng(seed)
        ends = np.cumsum([layer.num_weights for layer in qmodel.layers])
        chosen: list[BitLocation] = sorted(self.secured)
        taken = set(chosen)
        while len(chosen) < len(self.secured) + self.RANDOM_BITS:
            flat = int(rng.integers(0, int(ends[-1])))
            layer = int(np.searchsorted(ends, flat, side="right"))
            index = flat - (int(ends[layer - 1]) if layer else 0)
            location = BitLocation(layer, index, int(rng.integers(0, 8)))
            if location not in taken:
                taken.add(location)
                chosen.append(location)
        return chosen

    def trial(self, seed: int, tracer=None) -> dict:
        if seed == GOLDEN_SEED and self.first is not None:
            built, self.first = self.first, None
        else:
            built = self.build(seed, tracer)
        qmodel, controller, layout, defender = built
        targets = self.targets(qmodel, seed)
        before = [qmodel.bit_value(location) for location in targets]
        attacker = RowHammerAttacker(controller, layout, defense=defender)
        outcomes = HammerExecutor(attacker).execute_many(targets)
        for _ in range(self.PERIODS):
            defender.run_window()
            controller.advance_time(defender.period_ns)
        landed = [loc for loc, ok in zip(targets, outcomes) if ok]
        outputs = {
            "targets": len(targets),
            "landed": _bit_list(landed),
            "blocked": outcomes.count(False),
            "windows": defender.stats.windows_run,
            "swaps": defender.stats.swaps_executed,
            "aaps": defender.engine.total_aaps,
            "sim_ns": controller.now_ns,
            "commands": sum(controller.stats.counts.values()),
            "latency_ms_per_tref": defender.latency_per_tref_ms(),
        }
        require(
            not (set(landed) & self.secured), "a hammered secured bit flipped"
        )
        require(
            all(
                (qmodel.bit_value(loc) != bit) == ok
                for loc, bit, ok in zip(targets, before, outcomes)
            ),
            "reported outcomes disagree with the model's bits",
        )
        incremental = qmodel.snapshot()
        layout.sync_model_from_dram(full=True)
        require(
            all(
                np.array_equal(a, b)
                for a, b in zip(incremental, qmodel.snapshot())
            ),
            "incremental model sync differs from a full DRAM re-read",
        )
        require(defender.stats.swaps_executed > 0, "defender never swapped")
        return outputs


# ---------------------------------------------------------------------- #
# preset-train: train the resnet20_cifar recipe from scratch
# ---------------------------------------------------------------------- #

class PresetTrain(Workload):
    """Train the preset recipe with a per-trial seed into a throwaway
    cache root, then reload it from that root."""

    name = "preset-train"
    nominal_trial_s = 1.8
    EPOCHS = 1
    N_TRAIN = 512

    def setup(self, tracer=None):
        base = load_preset()
        self.shapes = {k: v.shape for k, v in base.state.items()}
        self.scratch = cache_root() / "train-scratch" / str(os.getpid())
        self.scratch.mkdir(parents=True, exist_ok=True)

    def spec(self, seed: int):
        return preset_spec(
            PRESET, seed=seed, epochs=self.EPOCHS, n_train=self.N_TRAIN,
            min_accuracy=0.0,
        )

    def trial(self, seed: int, tracer=None) -> dict:
        spec = self.spec(seed)
        root = self.scratch / str(seed)
        try:
            cache = PresetCache(root)
            trained = cache.load_spec(spec)
            reloaded = PresetCache(root).load_spec(spec)
            state = trained.state
            outputs = {
                "loss": trained.history["loss"],
                "test_accuracy": trained.history["test_accuracy"],
                "weight_l1": float(
                    sum(np.abs(v).astype(np.float64).sum()
                        for _, v in sorted(state.items()))
                ),
            }
            require(cache.misses == 1 and cache.hits == 0,
                    "training trial hit the preset cache")
            require(len(cache.entries()) == 1, "trained preset was not stored")
            require(
                {k: v.shape for k, v in state.items()} == self.shapes,
                "trained state differs in shape from the recipe's preset",
            )
            require(
                all(np.array_equal(state[k], reloaded.state[k]) for k in state),
                "stored preset does not reload bit-for-bit",
            )
            require(
                len(outputs["loss"]) == self.EPOCHS
                and all(np.isfinite(outputs["loss"])),
                "training loss is not finite",
            )
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return outputs

    def close(self):
        shutil.rmtree(self.scratch, ignore_errors=True)


WORKLOADS = {w.name: w for w in (BfaDefended, HammerDefended, PresetTrain)}


# ---------------------------------------------------------------------- #
# Output checks
# ---------------------------------------------------------------------- #

def same_outputs(expected, actual, rtol: float = 0.0) -> bool:
    """Exact structural equality; floats within ``rtol`` when given."""
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and sorted(expected) == sorted(actual)
            and all(same_outputs(expected[k], actual[k], rtol) for k in expected)
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(expected) == len(actual)
            and all(same_outputs(e, a, rtol) for e, a in zip(expected, actual))
        )
    if isinstance(expected, float) or isinstance(actual, float):
        return abs(expected - actual) <= rtol * max(abs(expected), 1e-30)
    return expected == actual


def golden_ok(name: str, outputs: dict) -> bool:
    golden = json.loads(GOLDEN_PATH.read_text())
    return same_outputs(golden["outputs"][name], outputs, FLOAT_RTOL)


# ---------------------------------------------------------------------- #
# Host diagnostics
# ---------------------------------------------------------------------- #

def cpu_times() -> list[int]:
    """Aggregate ``cpu`` jiffies from /proc/stat (empty when absent)."""
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except OSError:
        return []


def steal_fraction(start: list[int], end: list[int]) -> float:
    if len(start) < 8 or len(end) < 8:
        return 0.0
    deltas = [b - a for a, b in zip(start, end)]
    total = sum(deltas[:8])
    return deltas[7] / total if total > 0 else 0.0


def reference_kernel_s() -> float:
    """Fixed numpy + interpreter loop; tracks how fast the host is now."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((96, 96)).astype(np.float32)
    start = time.perf_counter()
    acc = 0.0
    for i in range(200):
        a = np.tanh(a @ a.T * 0.01)
        acc += float(a[0, 0]) + i * 0.5
    return time.perf_counter() - start


def fingerprint() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro": repro.__version__,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# Runs
# ---------------------------------------------------------------------- #

def timed_setup(cls) -> tuple[object, float]:
    """Set the workload up from fresh objects; returns it and the time."""
    gc.collect()
    workload = cls()
    start = time.perf_counter()
    workload.setup()
    return workload, time.perf_counter() - start


def run_trial(workload, seed: int, tracer=None):
    """(outputs or None, failure traceback or None)."""
    try:
        return workload.trial(seed, tracer), None
    except Exception:  # any exception is a failed operation; keep going
        return None, traceback.format_exc()


def measure(cls, seed: int, seconds: float) -> dict:
    """Closed loop of trials until they have taken ``seconds`` in total.

    Each time the trials cross a multiple of ``seconds / SEGMENTS``, the
    workload is set up afresh, so the set-up samples spread over the whole
    run like the trial samples do.  Only the first set-up's deployment is
    used (by the golden warm-up trial).
    """
    stat_start = cpu_times()
    workload, first = timed_setup(cls)
    setup_times = [first]
    golden, error = run_trial(workload, GOLDEN_SEED)
    correct = error is None and golden_ok(cls.name, golden)
    if not correct:
        print(f"golden trial mismatch: {error or golden}", file=sys.stderr)
    walls: list[float] = []
    failed = 0
    busy = cpu = 0.0
    next_setup = seconds / SEGMENTS
    index = 0
    while busy < seconds:
        if busy >= next_setup:
            while busy >= next_setup:
                next_setup += seconds / SEGMENTS
            workload.close()
            workload = None  # free it before the next set-up
            workload, took = timed_setup(cls)
            setup_times.append(took)
        cpu_start = time.process_time()
        t0 = time.perf_counter()
        _, error = run_trial(workload, trial_seed(seed, index))
        walls.append(time.perf_counter() - t0)
        cpu += time.process_time() - cpu_start
        busy += walls[-1]
        if error is not None:
            failed += 1
            print(f"trial {index} failed: {error}", file=sys.stderr)
        index += 1
    workload.close()
    n = len(walls)
    print(
        "diagnostics "
        + json.dumps({
            "host.import_s": IMPORT_S,
            "host.steal_frac": steal_fraction(stat_start, cpu_times()),
            "setup_s_reps": setup_times,
            "trial_s": walls,
        }),
        flush=True,
    )
    return {
        "correct": correct and failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "trials_per_s": {"value": n / busy, "unit": "1/s"},
            "trial_s_p50": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s_per_trial": {"value": cpu / n, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        },
    }


def traced_trials(seconds: float, nominal_trial_s: float) -> int:
    """Trials per traced run: a function of ``--seconds`` only, so the
    per-layer counts repeat exactly across runs of one seed."""
    return max(2, round(seconds / (2.0 * nominal_trial_s)))


def measure_traced(cls, seed: int, seconds: float) -> dict:
    stat_start = cpu_times()
    ref_start = reference_kernel_s()
    workload = cls()
    tracer = Tracer()
    with tracer:
        workload.setup(tracer)
        setup_inclusive = tracer.totals()[1]
        tracer.reset()
        golden, error = run_trial(workload, GOLDEN_SEED, tracer)
    correct = error is None and golden_ok(cls.name, golden)
    if not correct:
        print(f"golden trial mismatch: {error or golden}", file=sys.stderr)
    k = traced_trials(seconds, cls.nominal_trial_s)
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    failed = 0
    tracer.reset()
    for index in range(k):
        s = trial_seed(seed, index)
        # Alternate the order so warm-cache effects do not bias either
        # side of the overhead estimate.
        order = ("plain", "traced") if index % 2 == 0 else ("traced", "plain")
        results = {}
        for mode in order:
            t0 = time.perf_counter()
            if mode == "traced":
                with tracer:
                    results[mode] = run_trial(workload, s, tracer)
                traced_walls.append(time.perf_counter() - t0)
            else:
                results[mode] = run_trial(workload, s)
                plain_walls.append(time.perf_counter() - t0)
        (plain, e1), (traced, e2) = results["plain"], results["traced"]
        if e1 or e2 or not same_outputs(plain, traced):
            failed += 1
            print(
                f"trial {index}: traced/untraced outputs differ or failed: "
                f"{e1 or e2 or (plain, traced)}",
                file=sys.stderr,
            )
    workload.close()
    ref_end = reference_kernel_s()
    calls, inclusive, self_s = tracer.totals()
    layers = tracer.layer_self_seconds()
    sim = tracer.simulator_counters()
    traced_total = sum(traced_walls)

    def per(value: float) -> float:
        return value / k

    dram_self = layers["dram"]
    attempted = tracer.flips_attempted
    values = {
        "nn.forward_calls": (per(calls["nn.forward"]), "count"),
        "nn.forward_s": (per(inclusive["nn.forward"]), "s"),
        "nn.backward_calls": (per(calls["nn.backward"]), "count"),
        "nn.backward_s": (per(inclusive["nn.backward"]), "s"),
        "nn.eval_calls": (per(calls["nn.eval"]), "count"),
        "nn.eval_s": (per(inclusive["nn.eval"]), "s"),
        "nn.optim_step_s": (per(inclusive["nn.optim_step"]), "s"),
        "attacks.search_self_s": (
            per(self_s["attacks.profile"] + self_s["attacks.semi_white_box"]
                + self_s["attacks.bfa_run"]),
            "s",
        ),
        "attacks.bfa_iterations": (per(tracer.bfa_iterations), "count"),
        "attacks.hammer_s": (per(inclusive["attacks.hammer"]), "s"),
        "attacks.flips_attempted": (per(attempted), "count"),
        "attacks.flips_landed": (per(tracer.flips_landed), "count"),
        "attacks.land_ratio": (
            tracer.flips_landed / attempted if attempted else 0.0, "ratio",
        ),
        "mapping.sync_calls": (per(calls["mapping.sync"]), "count"),
        "mapping.sync_s": (per(inclusive["mapping.sync"]), "s"),
        "mapping.place_s": (per(inclusive["mapping.place"]), "s"),
        "dram.activate_calls": (per(calls["dram.activate"]), "count"),
        "dram.activate_s": (per(inclusive["dram.activate"]), "s"),
        "dram.rowclone_calls": (per(calls["dram.rowclone"]), "count"),
        "dram.rowclone_s": (per(inclusive["dram.rowclone"]), "s"),
        "dram.cmds_total": (per(sim["cmds_total"]), "count"),
        "dram.sim_ns": (per(sim["sim_ns"]), "ns"),
        "dram.host_ns_per_cmd": (
            dram_self * 1e9 / sim["cmds_total"] if sim["cmds_total"] else 0.0,
            "ns",
        ),
        "core.build_s": (per(inclusive["core.build"]), "s"),
        "core.run_window_s": (per(inclusive["core.run_window"]), "s"),
        "core.tick_s": (per(inclusive["core.tick"]), "s"),
        "core.windows": (per(sim["windows"]), "count"),
        "core.swaps": (per(sim["swaps"]), "count"),
        "core.aaps": (per(sim["aaps"]), "count"),
        "presets.load_s": (setup_inclusive.get("presets.load", 0.0), "s"),
        "experiments.profile_load_s": (
            setup_inclusive.get("experiments.profile_load", 0.0), "s",
        ),
    }
    # ProfileCache.load, the experiments layer's one entry point, runs in
    # set-up only, so trials have no experiments share to report.
    for layer in LAYERS[:-1]:
        values[f"{layer}.self_frac"] = (
            layers[layer] / traced_total if traced_total else 0.0, "frac",
        )
    values["untraced.self_frac"] = (
        1.0 - sum(layers.values()) / traced_total if traced_total else 0.0,
        "frac",
    )
    values["host.import_s"] = (IMPORT_S, "s")
    values["host.steal_frac"] = (
        steal_fraction(stat_start, cpu_times()), "frac",
    )
    values["host.ref_kernel_s"] = ((ref_start + ref_end) / 2.0, "s")
    values["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0,
        "frac",
    )
    return {
        "correct": correct and failed == 0,
        "attempted": k,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()
        },
    }


def prepare(cls) -> None:
    """Fill the private caches the workload's set-up loads from."""
    preset = load_preset()
    if cls is HammerDefended:
        HammerDefended.load_profile(preset)


def write_golden() -> None:
    outputs = {}
    for name, cls in WORKLOADS.items():
        prepare(cls)
        workload = cls()
        workload.setup()
        outputs[name] = workload.trial(GOLDEN_SEED)
        workload.close()
    payload = {
        "note": "outputs of each workload's warm-up trial "
                f"(trial seed {GOLDEN_SEED}); regenerate with "
                "`python3 e2ebench/run.py --write-golden`",
        "recorded_on": fingerprint(),
        "outputs": outputs,
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True).replace("\n    ", " ") + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("action", choices=("prepare", "measure", "golden"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.action == "golden":
        write_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    cls = WORKLOADS[args.workload]
    if args.action == "prepare":
        prepare(cls)
        return 0
    print("fingerprint " + json.dumps(fingerprint()), flush=True)
    run = measure_traced if args.trace else measure
    result = run(cls, args.seed, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
