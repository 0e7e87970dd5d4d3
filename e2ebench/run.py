"""End-to-end benchmark of the DNN-Defender reproduction.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload bfa-defended --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --write-golden

Each measurement runs two child interpreters: an untimed ``prepare`` step
that fills the benchmark's private caches under ``.e2ebench-cache/`` in the
checkout (trains the preset on the first run), then a fresh ``measure``
process with BLAS/OpenMP pinned to one thread.  The last line of standard
output is the measure process's JSON result.  The exit code is not 0 when
the checkout holds no ``src/repro`` or a child fails; no result is printed
then.  See ``e2ebench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".e2ebench-cache"
WORKLOADS = ("bfa-defended", "hammer-defended", "preset-train")
PREPARE_TIMEOUT_S = 800
MEASURE_TIMEOUT_S = 170


def child_env() -> dict[str, str]:
    """Environment of the child processes: repo sources, private caches,
    single-threaded math libraries, no inherited ``REPRO_*`` switches."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        E2EBENCH_CACHE=str(CACHE),
        REPRO_CACHE_DIR=str(CACHE / "presets"),
        REPRO_PROFILE_DIR=str(CACHE / "profiles"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
        VECLIB_MAXIMUM_THREADS="1",
    )
    return env


def child(args: list[str], timeout: float, capture: bool):
    return subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), *args],
        cwd=ROOT,
        env=child_env(),
        timeout=timeout,
        stdout=subprocess.PIPE if capture else None,
        text=True,
        check=False,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-golden", action="store_true",
        help="re-record golden.json from the current sources",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro package under {ROOT}", file=sys.stderr)
        return 2
    if args.write_golden:
        return child(["golden"], PREPARE_TIMEOUT_S, capture=False).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    try:
        prepared = child(
            ["prepare", "--workload", args.workload],
            PREPARE_TIMEOUT_S, capture=False,
        )
        if prepared.returncode != 0:
            print("error: prepare step failed", file=sys.stderr)
            return 1
        measured = child(
            [
                "measure", "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            MEASURE_TIMEOUT_S, capture=True,
        )
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines = measured.stdout.strip().splitlines()
    if measured.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write("".join(f"# {line}\n" for line in lines))
        print("error: measure step failed", file=sys.stderr)
        return 1
    sys.stdout.write(measured.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
