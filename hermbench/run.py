"""hermkit benchmark: one workload, one run, one JSON line.

    python3 hermbench/run.py --workload catalog-maps --seed 0 --seconds 25 --trace 0

Run it from the root of a checkout.  It times set-up in fresh interpreters,
starts one single-threaded load process for the workload (``load.py``),
prints every metric by name with its unit, writes a result file under
``hermbench/_run/results/``, and ends with one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  It exits 1 when a
verdict is wrong or a report is not reproducible, and 2 when it cannot run.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before NumPy loads, here and in every child

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import workloads
from load import LAYER_COUNTS, LAYER_SELF

HERE = Path(__file__).resolve().parent
#: Interpreters started to time set-up; the first only warms the bytecode
#: cache and is not counted.
SETUP_RUNS = 10
#: Kernel runs timed by each set-up interpreter (see calibrate.py).
KERNEL_REPEATS = 5
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "samples_per_s": "samples/s",
    "wall_s": "s",
    "check_p50_s": "s",
    "check_tail_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    **{f"{name}.calls_per_sample": "calls/sample" for name in LAYER_COUNTS},
    **{f"{layer}.self_s": "s" for layer in LAYER_SELF},
    "geodsl.parse.self_s": "s",
    "catalog.build_s": "s",
    "trace_overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, root: Path, env: dict) -> str:
    try:
        done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1]} timed out after {CHILD_TIMEOUT_S} s") from exc
    if done.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:3])} failed ({done.returncode}):\n{done.stderr}")
    return done.stdout


def setup_seconds(root: Path, env: dict) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter to a completed
    ``import hermkit.cli``, once per counted run: (scaled to the reference
    speed, as measured).  Each interpreter times the calibration kernel
    itself after the import, on the core it ran on."""
    code = ("import time, hermkit.cli; stamp = time.time(); "
            f"import pathlib, sys; sys.path.insert(0, {str(HERE)!r}); import calibrate; "
            f"print(stamp, calibrate.kernel_seconds({KERNEL_REPEATS}), "
            "pathlib.Path(hermkit.cli.__file__).resolve())")
    src = (root / "src").resolve()
    scaled, raw = [], []
    for k in range(SETUP_RUNS):
        start = time.time()
        stamp, kernel, path = run_child([sys.executable, "-c", code], root, env).split(maxsplit=2)
        if src not in Path(path.strip()).parents:
            raise BenchError(f"hermkit was imported from {path.strip()}, not {src}")
        if k > 0:
            raw.append(float(stamp) - start)
            scaled.append(raw[-1] * calibrate.REFERENCE_S / float(kernel))
    return scaled, raw


def git_commit(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(root: Path) -> dict:
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "load_average": list(os.getloadavg()),
        "git_commit": git_commit(root),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = HERE.parent
    if not (root / "src" / "hermkit" / "cli.py").is_file():
        raise BenchError(f"no hermkit sources under {root / 'src'}")
    env = child_env(root)
    env_before = environment(root)
    setup, setup_raw = ([], []) if args.trace else setup_seconds(root, env)
    out = run_child([sys.executable, str(HERE / "load.py"), "--root", str(root),
                     "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace)], root, env)
    load = json.loads(out.strip().splitlines()[-1])
    env_before["numpy"] = load["numpy"]

    metrics = dict(load["metrics"])
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup)
    if set(metrics) != set(units):
        raise BenchError(f"metric names {sorted(metrics)} do not match {sorted(units)}")
    failed = load["false_verdicts"] + load["errors"]
    result = {
        "correct": failed == 0,
        "attempted": load["attempted"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **result,
              "false_verdicts": load["false_verdicts"], "errors": load["errors"],
              "problems": load["problems"], "notes": load["notes"],
              "setup_samples_s": setup, "setup_samples_raw_s": setup_raw,
              "environment": env_before,
              "load_average_after": list(os.getloadavg())}
    results = HERE / "_run" / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    for name in units:
        print(f"{name:42s} {metrics[name]:.6g} {units[name]}")
    print(f"{'false_verdicts':42s} {load['false_verdicts']} of {load['attempted']} calls")
    print(f"{'errors':42s} {load['errors']} of {load['attempted']} calls")
    notes = load["notes"]
    if "check_tail_percentile" in notes:
        print(f"check_tail_s is p{notes['check_tail_percentile']:g} of "
              f"{notes['check_tail_samples']} calls, median of {notes['check_tail_blocks']} blocks")
    for problem in load["problems"]:
        print(problem, file=sys.stderr)
    print(f"result file: {path.relative_to(root)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"hermbench: {exc}", file=sys.stderr)
        sys.exit(2)
