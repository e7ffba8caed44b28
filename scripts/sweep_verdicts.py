"""Print every check's verdict, residual and tolerance over the digest's sweep.

``report_digest.py`` hashes each cell of its seed × step × Richardson sweep
(``SWEEP_*``), so its ``verdicts`` lines show only *that* a cell changed.  This
script runs the same calls and prints one line per cell × scenario × check:

    <cell flags>  <scenario>  <report index>  <check>  <pass|fail>  <residual>  <tolerance>

with the residual as its ``repr`` (every digit), sorted.  Run it on two
checkouts and ``diff`` the outputs: every changed line names a verdict flip
(the pass/fail column) or a drift (the residual or tolerance column):

    python3 scripts/sweep_verdicts.py > after.txt

The number of failing runs (exit code 1) is printed to stderr.  The script
imports hermkit from ``src/`` next to it, so it measures the checkout it
lives in.
"""

from __future__ import annotations

import json
import sys

from report_digest import SWEEP_POINTS, SWEEP_SEEDS, SWEEP_STEPS, run
from hermkit import scenarios  # report_digest puts src/ on the path


def lines() -> tuple[list[str], int, int]:
    """The sorted check lines of the sweep, and the numbers of runs and failing runs."""
    out, runs, failing = [], 0, 0
    for seed in SWEEP_SEEDS:
        for step in SWEEP_STEPS:
            for richardson in ("on", "off"):
                cell = f"seed {seed} step {step} richardson {richardson}"
                extra = ["--seed", str(seed), "--points", SWEEP_POINTS,
                         "--step", step, "--richardson", richardson]
                for sid in scenarios.scenario_ids():
                    text, code = run(["run", sid, *extra, "--report", "json"])
                    runs, failing = runs + 1, failing + (code != 0)
                    for i, report in enumerate(json.loads(text)["reports"]):
                        for c in report["checks"]:
                            verdict = "pass" if c["verdict"] else "fail"
                            out.append(f"{cell}  {sid}  {i}  {c['name']}  {verdict}  "
                                       f"{c['residual']!r}  {c['tolerance']!r}")
    return sorted(out), runs, failing


def main() -> int:
    checks, runs, failing = lines()
    print("\n".join(checks))
    print(f"{failing} of {runs} runs fail", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
