"""Command-line entry point.

Commands:
  list        show the scenario vocabulary
  run         run scenarios and report residuals/verdicts
  classify    classify the structure of a user config chart
  check-map   harmonic-morphism checks for a map from a user config

Exit codes: 0 all requested verdicts true, 1 some verdict false,
2 usage or config error.  JSON reports are byte-identical across runs with
equal flags (schema_version 2).  They are written by :func:`_json`, which
gives ``json.dumps(payload, sort_keys=True, indent=2)`` byte for byte: with
``indent`` set, CPython 3.11's ``json`` drops its C encoder for a pure-Python
one that took about 7 % of a pass over the structure scenarios.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import geodsl, scenarios
from .errors import DslError, GeometryError, UnknownScenario
from .manifold import SamplePlan
from .numdiff import DiffConfig

SCHEMA_VERSION = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermkit",
        description="chart-local numerical checks for almost Hermitian geometry "
                    "and harmonic-morphism predicates")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_numeric_flags(p):
        p.add_argument("--seed", type=int, default=0, help="sample-plan seed")
        p.add_argument("--points", type=int, default=20, help="samples per scenario")
        p.add_argument("--step", type=float, default=1e-4, help="finite-difference step")
        p.add_argument("--tol", type=float, default=1e-6, help="absolute tolerance floor")
        p.add_argument("--richardson", choices=["on", "off"], default="on",
                       help="fourth-order step extrapolation")
        p.add_argument("--report", choices=["text", "json"], default="text")
        p.add_argument("--out", type=Path, default=None, help="write the report here")

    p_list = sub.add_parser("list", help="list scenario ids")
    p_run = sub.add_parser("run", help="run one or more scenarios")
    p_run.add_argument("scenario", nargs="+", help="scenario id(s); see 'list'")
    add_numeric_flags(p_run)
    p_classify = sub.add_parser("classify", help="classify a user config chart")
    p_classify.add_argument("--config", type=Path, required=True)
    add_numeric_flags(p_classify)
    p_map = sub.add_parser("check-map", help="harmonic-morphism checks for a config map")
    p_map.add_argument("--config", type=Path, required=True)
    p_map.add_argument("--map", dest="map_name", required=True)
    add_numeric_flags(p_map)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call: building one
    formats every argument's help, and ``parse_args`` keeps no state between
    calls."""
    return build_parser()


def _diff_config(args) -> DiffConfig:
    return DiffConfig(step=args.step, richardson=args.richardson == "on",
                      tolerance_abs=args.tol)


def _plan(args) -> SamplePlan:
    return SamplePlan(seed=args.seed, count=args.points)


def _flags_dict(args) -> dict:
    return {"seed": args.seed, "points": args.points, "step": args.step,
            "tol": args.tol, "richardson": args.richardson == "on"}


def _report_payload(reports, args) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "config": _flags_dict(args),
        "reports": [r.to_dict() for r in reports],
        "overall": all(r.overall for r in reports),
    }


def _render_text(payload: dict) -> str:
    lines = []
    for rep in payload["reports"]:
        lines.append(f"scenario {rep['scenario_id']}: "
                     f"{'PASS' if rep['overall'] else 'FAIL'}")
        for c in rep["checks"]:
            op = "<=" if c["mode"] == "le" else ">"
            lines.append(f"  [{'ok' if c['verdict'] else 'XX'}] {c['name']}: "
                         f"residual {c['residual']!r} {op} tolerance {c['tolerance']!r} "
                         f"(samples {c['samples_used']}, excluded {c['excluded_samples']})")
    lines.append(f"overall: {'PASS' if payload['overall'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _render_classification(payload: dict, config_name: str) -> str:
    report = payload["classification"]
    lines = [f"classification of {config_name} (tolerance {report['tolerance']!r}):"]
    for name, verdict in report["verdicts"].items():
        lines.append(f"  [{'ok' if verdict else 'XX'}] {name}: "
                     f"residual {report['residuals'][name]!r}")
    return "\n".join(lines) + "\n"


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
#: How ``json`` writes a value of each scalar type.
_SCALARS = {str: json.encoder.encode_basestring_ascii, int: int.__repr__,
            float: lambda x: _NONFINITE.get(text := float.__repr__(x), text),
            bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def _json(value, newline: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte; ``newline``
    is a newline and the indent of the line ``value`` starts on.  A scalar item
    is written without a call of its own."""
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        brackets = "[]"
        items = [w(v) if (w := _SCALARS.get(type(v))) else _json(v, inner) for v in value]
    elif isinstance(value, dict):
        brackets = "{}"
        items = [f"{_key(k)}: {w(v) if (w := _SCALARS.get(type(v))) else _json(v, inner)}"
                 for k, v in sorted(value.items())]
    else:  # a scalar; a subclass of str, int or float (np.float64) is written as its base
        for base in (type(value), str, int, float):
            if base in _SCALARS and isinstance(value, base):
                return _SCALARS[base](value)
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}{newline}{brackets[1]}"


def _key(key) -> str:
    """A dict key as ``json`` writes it: a number, bool or None as the string of its value."""
    if not isinstance(key, (str, int, float)) and key is not None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return _SCALARS[str](key if isinstance(key, str) else _json(key))


def _emit(payload: dict, args, render=_render_text) -> None:
    """Write the payload as JSON, or as text by ``render``, to --out or stdout."""
    if args.report == "json":
        text = _json(payload) + "\n"
    else:
        text = render(payload)
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_list() -> int:
    for sid in scenarios.scenario_ids():
        sys.stdout.write(f"{sid}\n    {scenarios.scenario_description(sid)}\n")
    return 0


def _cmd_run(args) -> int:
    cfg = _diff_config(args)
    plan = _plan(args)
    reports = [scenarios.run_scenario(sid, plan, cfg) for sid in args.scenario]
    payload = _report_payload(reports, args)
    _emit(payload, args)
    return 0 if payload["overall"] else 1


def _load_config(path: Path) -> geodsl.GeoConfig:
    return geodsl.parse(path.read_text(encoding="utf-8"))


def _cmd_classify(args) -> int:
    from .hermitian import classify_structure, structure_jet

    config = _load_config(args.config)
    chart, structure = geodsl.to_chart(config)
    if structure is None:
        raise DslError("classify needs a 'J = ...' block in the config")
    cfg = _diff_config(args)
    points = _plan(args).points(chart, cfg)
    report = classify_structure(structure_jet(chart, structure, points, cfg))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": _flags_dict(args),
        "classification": report.to_dict(),
        "warnings": config.warnings,
        "overall": all(report.verdicts.values()),
    }
    _emit(payload, args, lambda p: _render_classification(p, args.config.name))
    return 0 if payload["overall"] else 1


def _cmd_check_map(args) -> int:
    config = _load_config(args.config)
    if args.map_name not in config.maps:
        raise DslError(f"config has no map named {args.map_name!r}; "
                       f"available: {sorted(config.maps)}")
    cfg = _diff_config(args)
    spec = geodsl.to_map(config, args.map_name, cfg)
    report = scenarios.check_harmonic_morphism(
        spec, _plan(args), scenario_id=f"user-map-{args.map_name}")
    payload = _report_payload([report], args)
    _emit(payload, args)
    return 0 if payload["overall"] else 1


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "classify":
            return _cmd_classify(args)
        return _cmd_check_map(args)
    except (UnknownScenario, DslError, GeometryError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
