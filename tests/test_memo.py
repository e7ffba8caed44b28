"""The point memos of maps, charts and structures.

Each ``MapSpec``, ``Chart`` and ``AlmostComplexField`` evaluates each distinct
point once, hands out read-only arrays, stores nothing for a call that raises,
and frees its memo with itself; ``numdiff.memoized`` is the only cache.
"""

import ast
import dataclasses
import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

from hermkit import catalog, maps, numdiff, scenarios
from hermkit.errors import EvaluationOutsideDomain, SingularMetric
from hermkit.hermitian import hermitian_frame
from hermkit.manifold import Box, Chart, SamplePlan, christoffel
from hermkit.maps import MapSpec, point_jet
from hermkit.numdiff import DiffConfig, constant, memoized

CFG = DiffConfig()
CE_POINT = np.array([0.5, 0.7, 0.9, 1.1])


def hopf():
    return catalog.hopf_map(1).maps["hopf"]


def counting(spec):
    """A fresh copy of ``spec`` whose map records the bytes of every row it is
    evaluated at."""
    seen = []

    def fn(x, inner=spec.fn):
        seen.extend(p.tobytes() for p in np.asarray(x, dtype=float))
        return inner(x)

    return dataclasses.replace(spec, fn=fn), seen


def run_row(sid, entry, plan, spec=None):
    """Run a scenario's check on ``entry``; a map scenario runs on ``spec``
    when given."""
    _, check_name, _, key, kwargs = scenarios.SCENARIOS[sid]
    run = getattr(scenarios, check_name)
    if key in entry.maps:
        return run(spec or entry.maps[key], plan=plan, scenario_id=sid, **kwargs)
    return run(entry.charts[key], entry.structures["J"], plan=plan, cfg=CFG,
               scenario_id=sid, **kwargs)


@pytest.mark.parametrize("sid", ["product-hopf-1-1-two-of-three",
                                 "punctured-hopf-2-integrability-plus", "hopf-s3"])
def test_map_evaluated_once_per_distinct_point(sid):
    _, _, entry_id, key, _ = scenarios.SCENARIOS[sid]
    entry = catalog.get_entry(entry_id, CFG)
    spec, seen = counting(entry.maps[key])
    assert run_row(sid, entry, SamplePlan(seed=0, count=2), spec).overall
    assert seen
    assert len(seen) == len(set(seen))


MAP_SCENARIOS = [sid for sid in scenarios.scenario_ids()
                 if scenarios.SCENARIOS[sid][3] in catalog.get_entry(scenarios.SCENARIOS[sid][2],
                                                                    CFG).maps]


def test_twenty_nine_map_scenarios():
    assert len(MAP_SCENARIOS) == 29


@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("sid", MAP_SCENARIOS)
def test_map_check_takes_two_differentials_and_memoizes_phi_only(sid, count, monkeypatch):
    """A map check differentiates the map at most twice (its samples, then its
    stencil jet), and afterwards the map's memo holds phi and nothing else."""
    calls = []
    differential = maps.differential
    monkeypatch.setattr(maps, "differential", lambda spec, x:
                        calls.append(np.shape(x)) or differential(spec, x))
    _, _, entry_id, key, _ = scenarios.SCENARIOS[sid]
    entry = catalog.get_entry(entry_id, CFG)
    assert run_row(sid, entry, SamplePlan(0, count)).overall
    assert 0 < len(calls) <= 2
    assert calls[0] == (count, entry.maps[key].source.dim)
    assert {k[0] for k in entry.maps[key]._memo} == {"phi"}


def test_second_jet_makes_no_map_call():
    """A jet is not memoized, but the map values its stencil reads are."""
    spec, seen = counting(hopf())
    first = point_jet(spec, CE_POINT)
    evaluated = len(seen)
    again = point_jet(spec, CE_POINT.copy())
    assert len(seen) == evaluated
    assert again.spec is spec
    assert np.array_equal(again.differential, first.differential)
    assert again.rank == first.rank


def test_stacked_jet_raises_what_its_first_bad_row_raises():
    """A stack whose second row is outside the chart raises the class and the
    message of that row alone, and stores no jet."""
    spec = hopf()
    bad = np.array(spec.source.box.lo, dtype=float)
    with pytest.raises(EvaluationOutsideDomain) as alone:
        point_jet(dataclasses.replace(spec), bad)
    with pytest.raises(EvaluationOutsideDomain) as stacked:
        point_jet(spec, np.array([CE_POINT, bad, CE_POINT - 0.1]))
    assert str(stacked.value) == str(alone.value)
    assert not any(k[0] == "jet" for k in spec._memo)


def test_memoized_arrays_are_read_only():
    entry = catalog.hopf_map(1)
    spec = entry.maps["hopf"]
    structure = spec.source_structure
    arrays = [spec(CE_POINT), spec.source.metric(CE_POINT, CFG), structure(CE_POINT),
              christoffel(spec.source, CE_POINT, CFG), point_jet(spec, CE_POINT).metric]
    for a in arrays:
        with pytest.raises(ValueError):
            a[...] = 0.0


def test_stacked_frame_stores_no_frame_entry():
    """Hermitian frames are not memoized, at a stack of stencil points or at
    a point."""
    entry = catalog.calabi_eckmann(1, 1, CFG)
    chart, structure = entry.charts["ce"], entry.structures["J"]
    (x,) = SamplePlan(count=1).points(chart, CFG)
    other = catalog.calabi_eckmann(1, 1, CFG)  # the pivots come from another memo
    pivots = hermitian_frame(other.charts["ce"], other.structures["J"], x, CFG).pivots
    stack = x + CFG.step * np.vstack([np.eye(6), -np.eye(6)])
    assert hermitian_frame(chart, structure, stack, CFG, pivots).m == 3
    assert not any(k[0] == "frame" for k in structure._memo)
    hermitian_frame(chart, structure, x, CFG, pivots)
    hermitian_frame(chart, structure, x, CFG)
    assert not any(k[0] == "frame" for k in structure._memo)


def test_memo_keeps_no_alias_of_the_callers_point():
    chart = Chart(dim=2, box=Box((-1.0, -1.0), (1.0, 1.0)), metric_fn=constant(np.eye(2)))
    spec = MapSpec(chart, chart, lambda x: x, CFG)
    x = np.array([0.1, 0.2])
    y = spec(x)
    x[0] = 0.5
    assert y.tolist() == [0.1, 0.2]
    assert spec(np.array([0.1, 0.2])) is y


def test_row_keys_store_nothing_when_the_stack_raises():
    memo = {}
    keys = [("phi", b"a"), ("phi", b"b")]

    def failing(missing):
        raise ValueError("no value")

    with pytest.raises(ValueError):
        memoized(memo, keys, failing)
    assert memo == {}
    asked = []

    def compute(missing):
        asked.append(missing)
        return np.array([[1.0, 2.0], [3.0, 4.0]])

    rows = memoized(memo, [keys[0], keys[1], keys[0]], compute)
    assert asked == [[0, 1]]
    assert rows[0] is rows[2] is memo[keys[0]]
    assert [row.tolist() for row in rows] == [[1.0, 2.0], [3.0, 4.0], [1.0, 2.0]]
    for row in rows:
        with pytest.raises(ValueError):
            row[...] = 0.0
    again = memoized(memo, keys[::-1], failing)
    assert again[0] is rows[1] and again[1] is rows[0]


def test_all_miss_stack_is_the_frozen_computed_stack():
    """When every row of a stack is a distinct miss, the computed stack comes back
    as it is: read-only and equal to the rows now stored; a stack with a hit is
    stacked from the stored rows."""
    memo, asked, computed = {}, [], []

    def compute(stack):
        asked.append(stack)
        computed.append(2.0 * stack)
        return computed[-1]

    stack = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    out = numdiff.memoized_rows(memo, "v", stack, compute)
    assert out is computed[0]
    assert not out.flags.writeable
    with pytest.raises(ValueError):
        out[...] = 0.0
    assert np.array_equal(out, [memo[("v", p.tobytes())] for p in stack])
    assert np.array_equal(out, 2.0 * stack) and len(asked) == 1
    mixed = numdiff.memoized_rows(memo, "v", np.array([[0.3, 0.4], [0.7, 0.8]]), compute)
    assert np.array_equal(mixed, [[0.6, 0.8], [1.4, 1.6]])
    assert np.array_equal(asked[1], [[0.7, 0.8]])


def test_map_stack_that_raises_stores_no_row():
    chart = Chart(dim=2, box=Box((-1.0, -1.0), (1.0, 1.0)), metric_fn=constant(np.eye(2)))

    def fn(x):
        if np.any(x[:, 0] > 0.5):
            raise EvaluationOutsideDomain("x0 > 0.5")
        return np.array(x)

    spec = MapSpec(chart, chart, fn, CFG)
    with pytest.raises(EvaluationOutsideDomain):
        spec(np.array([[0.1, 0.2], [0.9, 0.2]]))
    assert spec._memo == {}
    stack = spec(np.array([[0.1, 0.2], [0.3, 0.2], [0.1, 0.2]]))
    assert stack.tolist() == [[0.1, 0.2], [0.3, 0.2], [0.1, 0.2]]
    assert len(spec._memo) == 2


def test_failed_evaluation_stores_nothing():
    calls = []

    def asymmetric(x):
        calls.append(x)
        return constant([[1.0, 0.5], [0.2, 1.0]])(x)

    chart = Chart(dim=2, box=Box((-1.0, -1.0), (1.0, 1.0)), metric_fn=asymmetric)
    for _ in range(2):
        with pytest.raises(SingularMetric, match="not symmetric"):
            chart.metric([0.0, 0.0], CFG)
    assert len(calls) == 2


def test_jet_outside_the_domain_raises_each_time():
    spec = hopf()
    lo = np.array(spec.source.box.lo, dtype=float)
    for _ in range(2):
        with pytest.raises(EvaluationOutsideDomain, match="closer than"):
            point_jet(spec, lo)


@pytest.fixture
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    yield
    gc.enable()


@pytest.mark.parametrize("sid", scenarios.scenario_ids())
def test_entry_freed_by_refcount(sid, no_cyclic_gc):
    """With the cyclic collector off, a scenario's maps and charts are freed as
    soon as the entry and the report are dropped: no memo holds its owner."""
    entry = catalog.get_entry(scenarios.SCENARIOS[sid][2], CFG)
    report = run_row(sid, entry, SamplePlan(0, 1))
    refs = [weakref.ref(obj) for obj in (*entry.maps.values(), *entry.charts.values(),
                                          *entry.structures.values())]
    del entry, report
    assert [ref for ref in refs if ref() is not None] == []


SRC = Path(__file__).resolve().parents[1] / "src" / "hermkit"


def unkeyed_tobytes(source: str) -> list[int]:
    """Lines of ``.tobytes()`` calls that are not inside the key, the second
    argument, of a ``memoized(...)`` call: the mark of a side cache."""
    tree = ast.parse(source)
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    keys = {id(n) for call in calls if getattr(call.func, "id", None) == "memoized"
            and len(call.args) > 1 for n in ast.walk(call.args[1])}
    return [call.lineno for call in calls
            if getattr(call.func, "attr", None) == "tobytes" and id(call) not in keys]


def test_detector_flags_a_side_cache():
    source = ("cache = {}\n"
              "def f(x):\n"
              "    return memoized(memo, ('g', x.tobytes()), lambda: x)\n"
              "def g(x):\n"
              "    return cache.setdefault(x.tobytes(), x)\n")
    assert unkeyed_tobytes(source) == [5]


def test_every_point_key_is_a_memo_key():
    """Only ``numdiff.memoized`` caches by point in the package."""
    found = {p.name: unkeyed_tobytes(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
