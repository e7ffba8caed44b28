import json

import numpy as np
import pytest

from hermkit import cli, scenarios
from test_geodsl import CONFORMAL_SRC


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


@pytest.fixture
def payloads(monkeypatch):
    """Every payload that ``cli.main`` writes while the test runs."""
    seen = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda payload, *args: seen.append(payload)
                        or emit(payload, *args))
    return seen


def test_the_writer_equals_json_dumps_on_every_run_report(payloads, tmp_path):
    out = str(tmp_path / "report.json")
    for sid in scenarios.scenario_ids():
        cli.main(["run", sid, "--points", "2", "--report", "json", "--out", out])
        assert cli._json(payloads[-1]) == _dumps(payloads[-1]), sid
        assert (tmp_path / "report.json").read_text(encoding="utf-8") == _dumps(payloads[-1]) + "\n"
    assert len(payloads) == 40


def test_the_writer_equals_json_dumps_on_config_reports(payloads, tmp_path):
    """classify and check-map on a config in the style of the benchmark's generator."""
    path = tmp_path / "conformal.geo"
    path.write_text(CONFORMAL_SRC, encoding="utf-8")
    flags = ["--config", str(path), "--points", "3", "--report", "json", "--out",
             str(tmp_path / "report.json")]
    for argv in (["classify"], ["check-map", "--map", "holo"], ["check-map", "--map", "quad"]):
        assert cli.main([*argv, *flags]) in (0, 1)
    assert len(payloads) == 3
    assert all(cli._json(p) == _dumps(p) for p in payloads)


SYNTHETIC = {
    "empty": [{}, [], (), {"inner": {}}],
    "tuples": (1, (2.5, "x"), [()]),
    "detail": {"b": {"worst": {"row": 3, "at": [0.5, -0.25]}}, "a": {"c": [{"d": None}]}},
    "floats": [float("nan"), float("inf"), -float("inf"), -0.0, 1e-300, 1e300, 0.1],
    "numpy": [np.float64(0.1), np.float64("nan"), np.float64(-np.inf)],
    "bools": [True, 1, False, 0, {"flag": True, "count": 1}],
    "strings": ["Kähler ∂J", 'say "hi"', "back\\slash", "tab\there\nnew\x00\x1f\x7f", "\ud83d"],
    "keys": [{2: "two", 10: "ten"}, {1.5: 0, -0.0: 1, float("inf"): 2}, {False: 0, True: 1},
             {None: "null"}, {"Kähler": 1, "\n": 2}],
}


@pytest.mark.parametrize("key", sorted(SYNTHETIC))
def test_the_writer_equals_json_dumps_on_synthetic_payloads(key):
    assert cli._json(SYNTHETIC[key]) == _dumps(SYNTHETIC[key])
    assert cli._json({key: SYNTHETIC[key]}) == _dumps({key: SYNTHETIC[key]})


@pytest.mark.parametrize("value", [np.bool_(True), np.int64(3), np.float32(0.5), {1, 2},
                                   {(1, 2): 0}, {"a": 1, 2: "b"}],
                         ids=["bool_", "int64", "float32", "set", "tuple-key", "mixed-keys"])
def test_the_writer_raises_the_type_error_json_dumps_raises(value):
    for payload in (value, {"report": [value]}):
        with pytest.raises(TypeError) as expected:
            _dumps(payload)
        with pytest.raises(TypeError) as got:
            cli._json(payload)
        assert str(got.value) == str(expected.value)
