"""Print one SHA-256 digest per hermkit report over a fixed set of calls.

Every call goes through ``hermkit.cli.main``, and one ``sha256  label`` line
is printed per report:

* ``run`` for every scenario at each setting of a flag grid (``--report
  json``);
* ``list``;
* ``classify`` and ``check-map`` (``--report json``) on the benchmark's
  generated DSL configs for a few seeds, written to a temporary directory by
  ``hermbench/workloads.py``.

Run it on two checkouts and ``diff`` the outputs to confirm that a refactor
leaves the reports byte-identical:

    python3 scripts/report_digest.py > after.txt

The script imports hermkit from ``src/`` and the config generator from
``hermbench/`` next to it, so it measures the checkout it lives in.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "hermbench"))

import workloads  # noqa: E402
from hermkit import cli, geodsl, scenarios  # noqa: E402

#: (seed, extra flags) for every report.
GRID = (
    (0, ("--points", "3")),
    (1, ("--points", "3")),
    (5, ("--points", "2", "--step", "1e-3")),
    (2, ("--points", "2", "--richardson", "off")),
)
#: Seeds of the generated DSL configs.
DSL_SEEDS = (0, 1, 7)


def digest(argv: list[str]) -> str:
    """SHA-256 of what ``hermkit`` prints for ``argv``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code == 2:
        raise SystemExit(f"hermkit {' '.join(argv)} exited 2")
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def main() -> int:
    for seed, flags in GRID:
        for sid in scenarios.scenario_ids():
            extra = ["--seed", str(seed), *flags]
            line = digest(["run", sid, *extra, "--report", "json"])
            print(f"{line}  {sid}  {' '.join(extra)}", flush=True)
    print(f"{digest(['list'])}  list", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in DSL_SEEDS:
            for item in workloads.items("dsl-configs", seed, Path(tmp), geodsl.parse):
                print(f"{digest(list(item.argv))}  {item.label}  seed {seed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
