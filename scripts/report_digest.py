"""Print one SHA-256 digest per hermkit report over a fixed set of calls.

Every call goes through ``hermkit.cli.main``, and one ``sha256  label`` line
is printed per report:

* ``run`` for every scenario at each setting of a flag grid (``--report
  json``);
* two lines per cell of the seed × step × Richardson sweep (``SWEEP_*``):
  ``sweep`` hashes the cell's ``run --report json`` outputs and exit codes of
  all scenarios, in scenario order, and ``verdicts`` hashes, from the same
  runs, only each scenario's id, exit code and every check's (name, verdict),
  so a change that moves residuals shows a verdict flip as a changed
  ``verdicts`` line;
* ``list``;
* ``classify`` and ``check-map`` (``--report json``) on the benchmark's
  generated DSL configs for a few seeds, written to a temporary directory by
  ``hermbench/workloads.py``;
* ``classify`` and ``check-map`` on the fixed configs in ``HAND_CONFIGS``,
  whose metrics and maps use the functions and the non-integer powers the
  generated configs leave out;
* ``errors``: the exit code, output and error message of ``classify`` and
  ``check-map`` on the fixed configs in ``ERROR_CONFIGS``, which end in an
  error (exit 2), so that the rows the contract checks name are pinned too.

Run it on two checkouts and ``diff`` the outputs to confirm that a refactor
leaves the reports byte-identical:

    python3 scripts/report_digest.py > after.txt

or compare against a saved baseline, such as the committed
``scripts/report_digest.txt``: ``--check FILE`` prints the label of every
line that differs from FILE (or is missing on either side) and exits 1 if
there is one, 0 otherwise:

    python3 scripts/report_digest.py --check scripts/report_digest.txt

The script imports hermkit from ``src/`` and the config generator from
``hermbench/`` next to it, so it measures the checkout it lives in.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "hermbench"))

import workloads  # noqa: E402
from hermkit import cli, geodsl, scenarios  # noqa: E402

#: (seed, extra flags) for every report; the last two cells sit in the roundoff
#: (step 1e-5) and truncation (step 1e-3 without Richardson) regimes, where the
#: third-order map operators are most sensitive to the order of their arithmetic.
GRID = (
    (0, ("--points", "3")),
    (1, ("--points", "3")),
    (5, ("--points", "2", "--step", "1e-3")),
    (2, ("--points", "2", "--richardson", "off")),
    (3, ("--points", "2", "--step", "1e-5")),
    (3, ("--points", "2", "--step", "1e-3", "--richardson", "off")),
)
#: The sweep: every scenario at ``SWEEP_POINTS`` points, in every cell of
#: seeds × steps × Richardson on/off; some runs exit 1 (a failed check).
SWEEP_SEEDS = (0, 1, 2, 3)
SWEEP_STEPS = ("1e-3", "1e-4", "1e-5")
SWEEP_POINTS = "10"
#: Seeds of the generated DSL configs.
DSL_SEEDS = (0, 1, 7)
#: Hand-written configs: log, tan, atan2, sqrt and non-integer ^ in g and in maps.
HAND_CONFIGS = {
    "functions-2d": """\
dim = 2
domain x1 = [0.5, 1.5]
domain x2 = [0.2, 1.2]
g = [[sqrt(1 + x1^2) + log(2 + x2)^1.5 + 0.1*atan2(x2, x1) + 0.05*tan(x1/2), 0], \
[0, sqrt(1 + x1^2) + log(2 + x2)^1.5 + 0.1*atan2(x2, x1) + 0.05*tan(x1/2)]]
J = [[0, -1], [1, 0]]
map logz -> 2 = [log(sqrt(x1^2 + x2^2)), atan2(x2, x1)]
map mixed -> 2 = [tan(x1/2) + x2^1.5, sqrt(x1 + x2) - log(x1)]
""",
    "functions-4d": """\
dim = 4
domain x1 = [0.3, 1.3]
domain x2 = [0.3, 1.3]
domain x3 = [-0.5, 0.5]
domain x4 = [-0.5, 0.5]
g[1][1] = 1 + x2^0.5
g[2][2] = 1 + x2^0.5
g[3][3] = exp(0.3*atan2(x3, 1 + x1)) * sqrt(2 + x4)
g[4][4] = exp(0.3*atan2(x3, 1 + x1)) * sqrt(2 + x4)
J = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
map proj -> 2 = [x1, x2]
map curved -> 2 = [log(1 + x1^2 + x2^2) + tan(0.3*x3), atan2(x2, x1)^1.5 + x4]
""",
}
#: Flags of every hand-written config call.
HAND_FLAGS = ("--report", "json", "--seed", "0", "--points", "3")
#: Configs whose calls end in an error, each with its calls.  The metrics of the
#: ``band`` configs are positive-definite on the probe region, the inner 80 % of
#: the box, so they parse, but not in the outer band, where a sample other than
#: the first falls: the first bad row is named.  ``domain x0`` names no
#: coordinate.  A form feed in a comment does not end its line, so the error is
#: on line 5.  The two domain errors: an x1 interval narrower than twice the
#: sampling margin (4 steps a side) leaves nothing to sample, and a map whose
#: images lie past the flat target's box (+-1e9) fails the target's interior
#: check, which names the first image.
ERROR_CONFIGS = {
    "band-2d": ("""\
dim = 2
domain x1 = [-1, 1]
domain x2 = [-1, 1]
g = [[0.85 - x2, 0], [0, 0.85 - x2]]
J = [[0, -1], [1, 0]]
map square -> 2 = [x1^2 - x2^2, 2*x1*x2]
""", [("classify",), ("check-map", "--map", "square")]),
    "band-4d": ("""\
dim = 4
domain x1 = [-1, 1]
domain x2 = [-1, 1]
domain x3 = [-1, 1]
domain x4 = [-1, 1]
g[1][1] = 0.65 - x2^2
g[2][2] = 0.65 - x2^2
g[3][3] = 0.65 - x2^2
g[4][4] = 0.65 - x2^2
J = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
map fold -> 2 = [x1*x3 - x2*x4, x1*x4 + x2*x3]
""", [("classify",), ("check-map", "--map", "fold")]),
    "domain-x0": ("""\
dim = 2
domain x0 = [0, 1]
g = [[1, 0], [0, 1]]
""", [("classify",)]),
    "formfeed-comment": ("""\
dim = 2
# a comment\fg = [[1, 0]]
g = [[1, 0], [0, 1]]
J = [[0, -1], [1, 0]]
map f -> 2 = [x1]
""", [("classify",)]),
    "narrow-domain": ("""\
dim = 2
domain x1 = [0, 0.0005]
g = [[1, 0], [0, 1]]
J = [[0, -1], [1, 0]]
""", [("classify",)]),
    "far-target": ("""\
dim = 2
g = [[1, 0], [0, 1]]
J = [[0, -1], [1, 0]]
map far -> 2 = [2e9 + x1, x2]
""", [("check-map", "--map", "far")]),
}
#: Flags of every call on an ``ERROR_CONFIGS`` config.
ERROR_FLAGS = ("--report", "json", "--seed", "0", "--points", "6")


def run(argv: list[str]) -> tuple[str, int]:
    """What ``hermkit`` prints for ``argv``, and its exit code (never 2)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code == 2:
        raise SystemExit(f"hermkit {' '.join(argv)} exited 2")
    return out.getvalue(), code


def error_digest(argv: list[str]) -> str:
    """SHA-256 of the exit code, output and error message of ``hermkit`` on
    ``argv``, which must exit 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 2:
        raise SystemExit(f"hermkit {' '.join(argv)} exited {code}, not 2")
    return hashlib.sha256(f"{code}\n{out.getvalue()}\n{err.getvalue()}".encode("utf-8")).hexdigest()


def digest(argv: list[str]) -> str:
    """SHA-256 of what ``hermkit`` prints for ``argv``."""
    return hashlib.sha256(run(argv)[0].encode("utf-8")).hexdigest()


def sweep_digests(extra: list[str]) -> tuple[str, str]:
    """SHA-256 of every scenario's report and exit code under ``extra``, and of
    every scenario's id, exit code and checks' (name, verdict) alone."""
    reports, verdicts = hashlib.sha256(), hashlib.sha256()
    for sid in scenarios.scenario_ids():
        text, code = run(["run", sid, *extra, "--report", "json"])
        reports.update(f"{sid} {code}\n{text}".encode("utf-8"))
        checks = [(check["name"], check["verdict"])
                  for report in json.loads(text)["reports"] for check in report["checks"]]
        verdicts.update(f"{sid} {code} {checks!r}\n".encode("utf-8"))
    return reports.hexdigest(), verdicts.hexdigest()


def lines():
    """Every ``sha256  label`` line, in order."""
    for seed, flags in GRID:
        for sid in scenarios.scenario_ids():
            extra = ["--seed", str(seed), *flags]
            yield f"{digest(['run', sid, *extra, '--report', 'json'])}  {sid}  {' '.join(extra)}"
    for seed in SWEEP_SEEDS:
        for step in SWEEP_STEPS:
            for richardson in ("on", "off"):
                extra = ["--seed", str(seed), "--points", SWEEP_POINTS,
                         "--step", step, "--richardson", richardson]
                reports, verdicts = sweep_digests(extra)
                yield f"{reports}  sweep  {' '.join(extra)}"
                yield f"{verdicts}  verdicts  {' '.join(extra)}"
    yield f"{digest(['list'])}  list"
    with tempfile.TemporaryDirectory() as tmp:
        for seed in DSL_SEEDS:
            for item in workloads.items("dsl-configs", seed, Path(tmp), geodsl.parse):
                yield f"{digest(list(item.argv))}  {item.label}  seed {seed}"
        for name, source in HAND_CONFIGS.items():
            path = Path(tmp) / f"{name}.geo"
            path.write_text(source, encoding="utf-8")
            calls = [("classify",)] + [("check-map", "--map", m)
                                       for m in geodsl.parse(source).maps]
            for call in calls:
                line = digest([*call, "--config", str(path), *HAND_FLAGS])
                yield f"{line}  {' '.join(call)} {name}"
        for name, (source, calls) in ERROR_CONFIGS.items():
            path = Path(tmp) / f"{name}.geo"
            path.write_text(source, encoding="utf-8")
            for call in calls:
                line = error_digest([*call, "--config", str(path), *ERROR_FLAGS])
                yield f"{line}  errors {' '.join(call)} {name}"


def by_label(text_lines) -> dict:
    """label -> digest of ``sha256  label`` lines."""
    return {label: sha for sha, label in (line.split("  ", 1) for line in text_lines)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="FILE",
                        help="print the labels whose digest differs from FILE; exit 1 if any")
    args = parser.parse_args(argv)
    if args.check is None:
        for line in lines():
            print(line, flush=True)
        return 0
    expected = by_label(Path(args.check).read_text(encoding="utf-8").splitlines())
    got = by_label(lines())
    drift = [label for label in {**expected, **got} if expected.get(label) != got.get(label)]
    for label in drift:
        print(label, flush=True)
    print(f"{len(drift)} of {len(expected)} lines differ from {args.check}", file=sys.stderr)
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
