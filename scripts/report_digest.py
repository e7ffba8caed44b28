"""Print one SHA-256 digest per default JSON report over a fixed flag grid.

Every scenario runs through ``hermkit.cli.main([... "--report", "json"])`` at
each grid setting, and one ``sha256  scenario  flags`` line is printed per
report.  Run it on two checkouts and ``diff`` the outputs to confirm that a
refactor leaves the reports byte-identical:

    python3 scripts/report_digest.py > after.txt

The script imports hermkit from ``src/`` next to it, so it measures the
checkout it lives in.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hermkit import cli, scenarios  # noqa: E402

#: (seed, extra flags) for every report.
GRID = (
    (0, ("--points", "3")),
    (1, ("--points", "3")),
    (5, ("--points", "2", "--step", "1e-3")),
    (2, ("--points", "2", "--richardson", "off")),
)


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
