"""Load process: drives one workload through ``hermkit.cli.main`` in-process.

    python3 hermbench/load.py --root . --workload catalog-maps --seed 0 --seconds 25 --trace 0

It imports hermkit from ``<root>/src``, makes the workload's calls pass after
pass, checks every verdict and compares every JSON report with the one from
the first pass, and prints one JSON object as its last line of output.
``run.py`` starts it, one fresh process per workload.

With ``--trace 0`` it times untraced passes.  With ``--trace 1`` it
alternates untraced and traced passes and reports per-layer numbers from the
traced ones.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before NumPy loads

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import calibrate

#: Timed passes a run always makes.  The tail percentile is taken over blocks
#: of exactly this many passes, so the percentile it reports does not move
#: when the program gets faster and more passes fit in a run.
MIN_PASSES = 6
#: Traced passes a ``--trace 1`` run always makes.
MIN_TRACED_PASSES = 2
#: Candidate percentiles for ``check_tail_s``, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Calls that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Problem messages kept for the result file.
PROBLEMS_KEPT = 8

#: Per-layer call counts, reported per sample point as ``<name>.calls_per_sample``.
LAYER_COUNTS = (
    "numdiff.partial", "numdiff.second_partial", "numdiff.orthonormalize",
    "manifold.Chart.metric", "manifold.christoffel", "manifold.Box.contains",
    "hermitian.hermitian_frame", "hermitian.nijenhuis", "hermitian.dj_stack",
    "maps.MapSpec.call", "maps.differential", "maps.conformality", "numpy.linalg.svd",
    "geodsl.evaluate",
)
#: Layers whose self time is reported as ``<layer>.self_s``.
LAYER_SELF = ("numdiff", "manifold", "hermitian", "maps", "geodsl", "scenarios", "cli")


def tail_latency(latencies) -> tuple[float, float]:
    """(percentile, value): the highest candidate percentile of the latencies
    with at least TAIL_BEYOND of them strictly above its value.

    The value is the nearest-rank percentile.  Raises ValueError when no
    candidate qualifies, which is always the case with fewer than
    TAIL_BEYOND + 1 latencies.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        if n == 0:
            break
        rank = max(1, -(-pct * n // 100))  # ceil(pct * n / 100)
        value = ordered[int(rank) - 1]
        if sum(1 for v in ordered if v > value) >= TAIL_BEYOND:
            return pct, value
    raise ValueError(f"no percentile has {TAIL_BEYOND} of {n} latencies beyond it")


@dataclass
class Tally:
    """Calls attempted and how they went wrong."""

    attempted: int = 0
    false_verdicts: int = 0
    errors: int = 0
    problems: list = field(default_factory=list)

    def record(self, kind: str, label: str, message: str) -> None:
        if kind == "error":
            self.errors += 1
        else:
            self.false_verdicts += 1
        if len(self.problems) < PROBLEMS_KEPT:
            self.problems.append(f"{kind}: {label}: {message}")


def verdict_problem(item, code, text: str) -> tuple[str, str] | None:
    """Compare one call's exit code and JSON report with the item's expected
    verdicts; None when they agree."""
    if code not in (0, 1):
        return "error", f"exit code {code}"
    try:
        payload = json.loads(text)
    except ValueError:
        return "error", "report is not JSON"
    if payload.get("overall") is not item.overall:
        return "false_verdict", f"overall {payload.get('overall')!r}, expected {item.overall}"
    if code != (0 if item.overall else 1):
        return "false_verdict", f"exit code {code} for overall {item.overall}"
    if item.verdicts is not None:
        got = payload.get("classification", {}).get("verdicts")
        if got != item.verdicts:
            return "false_verdict", f"verdicts {got}, expected {item.verdicts}"
    return None


def call_cli(main, argv) -> tuple[object, str, float]:
    """Run one CLI call with its output captured: (exit code or the exception
    raised, stdout text, seconds)."""
    out = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    except Exception as exc:  # a raising call is counted as an error, not fatal
        code = exc
    return code, out.getvalue(), perf_counter() - start


def run_pass(main, items, tally: Tally, reference: list | None, clock) -> tuple[float, list, list]:
    """One call per item: (pass seconds, call latencies, report texts).

    Latencies are scaled to the reference speed by ``clock``, which times the
    calibration kernel after every call; the pass time is their sum.  Each
    report is checked against the item's verdicts and, when a reference pass
    is given, against that pass's report byte for byte.
    """
    latencies, texts = [], []
    for k, item in enumerate(items):
        code, text, seconds = call_cli(main, item.argv)
        latencies.append(seconds * clock.tick())
        texts.append(text)
        tally.attempted += 1
        if isinstance(code, Exception):
            tally.record("error", item.label, f"raised {code!r}")
        elif reference is not None and text != reference[k]:
            tally.record("error", item.label, "report differs from the first pass")
        else:
            problem = verdict_problem(item, code, text)
            if problem is not None:
                tally.record(problem[0], item.label, problem[1])
    return sum(latencies), latencies, texts


def layer_metrics(tracer, points: int, scale: float) -> dict:
    """Per-layer numbers of one traced pass, times scaled to the reference
    speed."""
    out = {f"{name}.calls_per_sample": tracer.calls[name] / points for name in LAYER_COUNTS}
    out.update({f"{layer}.self_s": tracer.layer_self_s(layer) * scale for layer in LAYER_SELF})
    out["geodsl.parse.self_s"] = tracer.self_s["geodsl.parse"] * scale
    out["catalog.build_s"] = tracer.outer_s["catalog"] * scale
    return out


class Clock:
    """Times the calibration kernel; ``tick`` gives the factor that scales
    the time since the previous tick to the reference speed."""

    def __init__(self):
        self.last = calibrate.kernel_seconds()
        self.scales: list = []

    def tick(self) -> float:
        now = calibrate.kernel_seconds()
        self.scales.append(calibrate.scale(self.last, now))
        self.last = now
        return self.scales[-1]


def import_hermkit(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import hermkit.cli
    if src not in Path(hermkit.cli.__file__).resolve().parents:
        raise ImportError(f"hermkit was imported from {hermkit.cli.__file__}, not {src}")
    return hermkit.cli


def measure(args) -> dict:
    root = Path(args.root).resolve()
    cli = import_hermkit(root)
    import numpy
    from hermkit import geodsl

    import tracer as tracing
    import workloads

    missing = set(LAYER_COUNTS) - tracing.names()
    if missing:
        raise tracing.TracerError(f"counts asked for untraced names: {sorted(missing)}")
    items = workloads.items(args.workload, args.seed, root / "hermbench" / "_run" / "configs",
                            geodsl.parse)
    points = sum(item.points for item in items)
    tally = Tally()
    clock = Clock()
    _, _, reference = run_pass(cli.main, items, tally, None, clock)  # warm-up
    notes = {"calls_per_pass": len(items), "points_per_pass": points}
    begin = perf_counter()
    if not args.trace:
        walls, latencies = [], []
        while len(walls) < MIN_PASSES or perf_counter() - begin < args.seconds:
            wall, lat, _ = run_pass(cli.main, items, tally, reference, clock)
            walls.append(wall)
            latencies.append(lat)
        blocks = [tail_latency([t for lat in latencies[b:b + MIN_PASSES] for t in lat])
                  for b in range(0, len(latencies) - MIN_PASSES + 1, MIN_PASSES)]
        wall_s = statistics.median(walls)
        metrics = {
            "samples_per_s": points / wall_s,
            "wall_s": wall_s,
            "check_p50_s": statistics.median(t for lat in latencies for t in lat),
            "check_tail_s": statistics.median(tail for _, tail in blocks),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        notes.update(passes=len(walls), check_tail_percentile=blocks[0][0],
                     check_tail_samples=MIN_PASSES * len(items), check_tail_blocks=len(blocks))
    else:
        plain, traced, layers = [], [], []
        while len(traced) < MIN_TRACED_PASSES or perf_counter() - begin < args.seconds:
            plain.append(run_pass(cli.main, items, tally, reference, clock)[0])
            ticks = len(clock.scales)
            with tracing.Tracer() as tracer:
                traced.append(run_pass(cli.main, items, tally, reference, clock)[0])
            layers.append(layer_metrics(tracer, points, statistics.mean(clock.scales[ticks:])))
        metrics = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
        metrics["trace_overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
        notes.update(passes=len(plain), traced_passes=len(traced))
    notes["speed_scale_median"] = statistics.median(clock.scales)
    return {"attempted": tally.attempted, "false_verdicts": tally.false_verdicts,
            "errors": tally.errors, "problems": tally.problems, "metrics": metrics,
            "notes": notes, "numpy": numpy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout holding src/hermkit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    result = measure(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
