"""Tests of the benchmark itself: python -m pytest hermbench/tests"""

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

import dslgen
import load
import run
import tracer
import workloads
from conftest import HERMBENCH, ROOT


def test_tail_latency_needs_ten_latencies_beyond():
    for n in (0, 1, 9, 10, 19):
        with pytest.raises(ValueError):
            load.tail_latency([float(k) for k in range(n)])
    assert load.tail_latency([float(k) for k in range(20)]) == (50.0, 9.0)
    assert load.tail_latency([float(k) for k in range(44)]) == (75.0, 32.0)
    assert load.tail_latency([float(k) for k in range(116)]) == (90.0, 104.0)


def test_tail_latency_counts_only_latencies_strictly_beyond():
    with pytest.raises(ValueError):
        load.tail_latency([1.0] * 50)


def test_generated_configs_carry_expected_verdicts(tmp_path):
    from hermkit import cli, geodsl

    items = workloads.items("dsl-configs", 3, tmp_path, geodsl.parse)
    assert {item.overall for item in items} == {True, False}
    for item in items:
        code, text, _ = load.call_cli(cli.main, item.argv)
        assert load.verdict_problem(item, code, text) is None, item.label


def test_generator_is_seeded():
    first = [c.text for c in dslgen.generate(5)]
    assert first == [c.text for c in dslgen.generate(5)]
    assert first != [c.text for c in dslgen.generate(6)]


def test_self_check_rejects_an_incompatible_metric():
    from hermkit import geodsl

    flat = dslgen.generate(0)[0]
    metric = [list(row) for row in flat.metric]
    metric[1][1] = "4.0"
    stretched = dataclasses.replace(flat, metric=tuple(map(tuple, metric)),
                                    metric_value=lambda x: np.diag([1.0, 4.0, 1.0, 1.0]))
    with pytest.raises(dslgen.GeneratorError, match="not g-compatible"):
        dslgen.self_check(stretched, geodsl.parse, dslgen.probe_points(0))


def test_self_check_rejects_text_that_disagrees_with_its_oracle():
    from hermkit import geodsl

    flat = dslgen.generate(0)[0]
    name, exprs, value, morphism = flat.maps[0]
    broken = dataclasses.replace(
        flat, maps=((name, (exprs[0] + " + x1^2", exprs[1]), value, morphism),))
    with pytest.raises(dslgen.GeneratorError, match="disagrees"):
        dslgen.self_check(broken, geodsl.parse, dslgen.probe_points(0))


_TRACED_ITEM = """
import json, sys
sys.path[:0] = [{hermbench!r}]
import load, tracer
cli = load.import_hermkit(load.Path({root!r}))
argv = ["run", "torus-square-lemma", "hopf-s3", "--report", "json", "--points", "2"]
_, plain, _ = load.call_cli(cli.main, argv)
with tracer.Tracer() as t:
    _, traced, _ = load.call_cli(cli.main, argv)
print(json.dumps({{"calls": t.calls, "same_report": plain == traced}}))
"""


def test_layer_counts_repeat_across_traced_runs():
    code = _TRACED_ITEM.format(hermbench=str(HERMBENCH), root=str(ROOT))
    runs = []
    for _ in range(2):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, check=True)
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    assert runs[0]["same_report"] and runs[1]["same_report"]
    assert runs[0]["calls"] == runs[1]["calls"]
    for name in ("maps.MapSpec.call", "manifold.Box.contains", "numpy.linalg.svd",
                 "manifold.christoffel", "scenarios.run_scenario", "cli.main"):
        assert runs[0]["calls"][name] > 0, name


def test_tracer_fails_loudly_on_a_missing_entry_point(monkeypatch):
    import hermkit.cli  # noqa: F401  loads every layer
    from hermkit import hermitian, maps, manifold

    originals = (maps.differential, manifold.Box.contains, hermitian.christoffel)
    layers = dict(tracer.LAYERS, maps=tracer.LAYERS["maps"] + ("renamed_operator",))
    monkeypatch.setattr(tracer, "LAYERS", layers)
    with pytest.raises(tracer.TracerError, match="renamed_operator"):
        with tracer.Tracer():
            pass
    assert (maps.differential, manifold.Box.contains, hermitian.christoffel) == originals


def test_tracer_wraps_every_binding_and_restores_it():
    import hermkit.cli  # noqa: F401
    from hermkit import hermitian, manifold, maps, scenarios

    original = manifold.christoffel
    with tracer.Tracer():
        assert hermitian.christoffel is maps.christoffel is manifold.christoffel
        assert manifold.christoffel is not original
        assert scenarios.classify_structure is hermitian.classify_structure
    assert hermitian.christoffel is maps.christoffel is manifold.christoffel is original


def test_benchmark_json_names_match_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
