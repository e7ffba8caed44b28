"""Work counts of checks that cache nothing by point.

``MapSpec``, ``Chart`` and ``AlmostComplexField`` evaluate the stack they are
asked for, each time; a check builds its stacks once and passes them down.  So
the number of map evaluations, differentials and Christoffel builds of a check
does not grow with its samples, a call that raises raises again, and nothing
keys a value by the bytes of a point.
"""

import dataclasses
import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

from hermkit import catalog, maps, numdiff, scenarios
from hermkit.errors import EvaluationOutsideDomain, SingularMetric
from hermkit.hermitian import AlmostComplexField, StructureJet, hermitian_frame
from hermkit.manifold import Box, Chart, Embedding, SamplePlan
from hermkit.maps import MapSpec, point_jet
from hermkit.numdiff import DiffConfig, constant

CFG = DiffConfig()
CE_POINT = np.array([0.5, 0.7, 0.9, 1.1])


def hopf():
    return catalog.hopf_map(1).maps["hopf"]


def counting(spec):
    """A copy of ``spec`` whose map records the number of rows of every stack it
    is evaluated on."""
    calls = []

    def fn(x, inner=spec.fn):
        calls.append(len(x))
        return inner(x)

    return dataclasses.replace(spec, fn=fn), calls


def run_row(sid, entry, plan, spec=None):
    """Run a scenario's check on ``entry``; a map scenario runs on ``spec``
    when given."""
    _, check_name, _, key, kwargs = scenarios.SCENARIOS[sid]
    run = getattr(scenarios, check_name)
    on = ((spec or entry.maps[key],) if key in entry.maps
          else (entry.charts[key], entry.structures["J"]))
    return run(*on, plan=plan, cfg=CFG, scenario_id=sid, **kwargs)


MAP_SCENARIOS = [sid for sid in scenarios.scenario_ids()
                 if scenarios.SCENARIOS[sid][3] in catalog.get_entry(
                     scenarios.SCENARIOS[sid][2]).maps]


def test_twenty_nine_map_scenarios():
    assert len(MAP_SCENARIOS) == 29


@pytest.mark.parametrize("sid", MAP_SCENARIOS)
def test_map_calls_do_not_grow_with_the_samples(sid):
    """A map check evaluates its map on a few stacks, at most 10, and on as many
    at 3 samples as at 2: each stack holds its rows for all the samples."""
    _, _, entry_id, key, _ = scenarios.SCENARIOS[sid]
    calls = {}
    for count in (2, 3):
        entry = catalog.get_entry(entry_id)
        spec, calls[count] = counting(entry.maps[key])
        assert run_row(sid, entry, SamplePlan(seed=0, count=count), spec).overall
    assert 0 < len(calls[2]) == len(calls[3]) <= 10
    assert [3 * rows for rows in calls[2]] == [2 * rows for rows in calls[3]]


@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("sid", MAP_SCENARIOS)
def test_map_check_takes_two_differentials(sid, count, monkeypatch):
    """A map check differentiates the map once (it took two, the samples and then
    their stencil jet): on its samples, and for a check that reads the stencil
    on their stencil points after them, in one stack."""
    calls = []
    differential = maps.differential
    monkeypatch.setattr(maps, "differential", lambda spec, x, cfg:
                        calls.append(np.array(x)) or differential(spec, x, cfg))
    _, _, entry_id, key, _ = scenarios.SCENARIOS[sid]
    entry = catalog.get_entry(entry_id)
    plan, spec = SamplePlan(0, count), entry.maps[key]
    assert run_row(sid, entry, plan).overall
    samples = np.array(plan.points(spec.source, CFG))
    (x,) = calls
    assert np.array_equal(x[:count], samples)
    assert len(x) == count or np.array_equal(
        x[count:], numdiff.stencil(samples, CFG).reshape(-1, spec.source.dim))


def test_stencil_of_a_jet_built_without_one_differentiates_only_its_points(monkeypatch):
    """Reading ``stencil`` on a jet built without one takes one
    ``maps.differential`` call, on exactly the stencil points of its rows (not
    on the rows again); a taken jet reads its rows' blocks of that stencil jet."""
    spec = hopf()
    samples = np.array(SamplePlan(seed=0, count=2).points(spec.source, CFG))
    jet, calls = point_jet(spec, samples, CFG), []
    differential = maps.differential
    monkeypatch.setattr(maps, "differential", lambda spec, x, cfg:
                        calls.append(np.array(x)) or differential(spec, x, cfg))
    points = numdiff.stencil(samples, CFG).reshape(-1, spec.source.dim)
    assert np.array_equal(jet.stencil.x, points)
    assert np.array_equal(jet[[1]].stencil.x, points[len(points) // 2:])
    (x,) = calls
    assert np.array_equal(x, points)


def counted_structure_jet(monkeypatch, calls):
    """Structure jets on the Calabi-Eckmann chart whose J records the rows it runs
    on, and the part read: J."""
    entry = catalog.get_entry("ce-1-1")
    chart, j = entry.charts["ce"], entry.structures["J"]
    counted = AlmostComplexField(chart, lambda x: calls.append(len(x)) or j.fn(x))
    return chart, lambda x: StructureJet(chart, counted, x, CFG,
                                         held={"metric": chart.metric(x)}), "j"


def counted_point_jet(monkeypatch, calls):
    """Hopf map jets, with the vertical projector recording the rows it is built
    on, and the part read: the projector."""
    projector = maps._vertical_projector
    monkeypatch.setattr(maps, "_vertical_projector",
                        lambda jet: calls.append(len(jet.x)) or projector(jet))
    spec = hopf()
    return spec.source, lambda x: point_jet(spec, x, CFG), "projector"


@pytest.mark.parametrize("counted, scenario", [
    (counted_structure_jet, None),
    (counted_point_jet, ("product-hopf-1-1-two-of-three", [4, 96]))])
def test_a_part_read_through_two_taken_jets_is_built_once_on_the_root(counted, scenario,
                                                                      monkeypatch):
    """One convention for both jet types (``numdiff.Jet``): a jet taken from a
    taken jet is taken from the root jet, holds no part before it is read, and
    reads its rows of the root's part, built once on all the root's rows, bit for
    bit the part built on those rows alone.  A two-of-three check builds the
    vertical projector once on its sample jet and once on its stencil jet."""
    calls = []
    chart, make, name = counted(monkeypatch, calls)
    x = SamplePlan(seed=0, count=4).points(chart, CFG)
    jet = make(x)
    taken = jet[[3, 1, 0]][[2, 0]]
    assert taken.whole[0] is jet and taken.whole[1].tolist() == [0, 3]
    assert taken.held == {} and name not in vars(taken)
    value = getattr(taken, name)
    assert calls == [4]
    alone = getattr(make(x[[0, 3]]), name)
    assert calls == [4, 2]
    assert value.shape == alone.shape and value.tobytes() == alone.tobytes()
    if scenario:
        sid, rows = scenario
        calls.clear()
        assert scenarios.run_scenario(sid, SamplePlan(seed=0, count=4), CFG).overall
        assert calls == rows


@pytest.mark.parametrize("sid", MAP_SCENARIOS)
def test_map_check_evaluates_phi_on_its_samples_once(sid, monkeypatch):
    """phi(x) at the samples is the sample jet's ``image``: the check's map runs
    on the stack of its samples once (the map inside a composition is another
    ``MapSpec`` and is not counted)."""
    _, _, entry_id, key, _ = scenarios.SCENARIOS[sid]
    entry = catalog.get_entry(entry_id)
    spec, plan = entry.maps[key], SamplePlan(count=2)
    samples, seen = np.array(plan.points(spec.source, CFG)), []
    call = MapSpec.__call__
    monkeypatch.setattr(MapSpec, "__call__", lambda self, x: seen.append(
        self is spec and np.array_equal(x, samples)) or call(self, x))
    assert run_row(sid, entry, plan).overall
    assert sum(seen) == 1


def test_surface_case_builds_each_sample_metric_twice(monkeypatch):
    """In the surface case the target metric at phi(samples) is built by the
    sample jet and by the target Christoffel build, and the source metric at each
    sample once, as a row of the jet's stack (the source Christoffel symbols
    invert and difference the jet's own metrics); no operator builds either
    again.  Source and target are renamed copies of their charts, so the source
    structure's own metric evaluations are not counted."""
    sid = "hopf-s3-surface-case"
    _, check_name, entry_id, key, kwargs = scenarios.SCENARIOS[sid]
    spec = catalog.get_entry(entry_id).maps[key]
    spec = dataclasses.replace(spec, source=dataclasses.replace(spec.source, name="source"),
                               target=dataclasses.replace(spec.target, name="target"))
    plan = SamplePlan(count=2)
    samples = np.array(plan.points(spec.source, CFG))
    images, built, rows = spec(samples), [], []
    metric = Chart.metric
    monkeypatch.setattr(Chart, "metric", lambda self, x: built.append(
        self is spec.target and np.array_equal(x, images)) or rows.extend(
        x if self is spec.source else ()) or metric(self, x))
    assert getattr(scenarios, check_name)(spec, plan=plan, cfg=CFG, scenario_id=sid,
                                          **kwargs).overall
    assert 0 < sum(built) <= 2
    assert [sum(np.array_equal(p, x) for p in rows) for x in samples] == [1] * len(samples)


def test_surface_case_builds_dpsi_and_g_on_the_sample_stack_at_most_once(monkeypatch):
    """The ambient J takes |d_i psi|^2 from the D(psi) it holds
    (``catalog._chart_components``), and the source Christoffel symbols invert
    the jet's own g: D(psi) and the metric each run at most once on exactly the
    sample stack (4 times D(psi) before: the jet, J directly, J through
    ``chart.metric`` and ``metric_inverse``)."""
    sid = "hopf-s3-surface-case"
    _, check_name, entry_id, key, kwargs = scenarios.SCENARIOS[sid]
    spec, plan = catalog.get_entry(entry_id).maps[key], SamplePlan(count=2)
    samples, seen = np.array(plan.points(spec.source, CFG)), []
    dpsi, metric = Embedding.dpsi, Chart.metric
    monkeypatch.setattr(Embedding, "dpsi", lambda self, x: seen.append(
        ("dpsi", np.array_equal(x, samples))) or dpsi(self, x))
    monkeypatch.setattr(Chart, "metric", lambda self, x: seen.append(
        ("metric", np.array_equal(x, samples))) or metric(self, x))
    assert getattr(scenarios, check_name)(spec, plan=plan, cfg=CFG, scenario_id=sid,
                                          **kwargs).overall
    assert seen.count(("dpsi", True)) <= 1 and seen.count(("metric", True)) <= 1
    assert seen.count(("dpsi", False)) > 0 and seen.count(("metric", False)) > 0


def test_source_j_runs_on_the_samples_once(monkeypatch):
    """Holomorphy and the source structure jet read J at the samples from the
    sample jet's ``j``: the source structure runs on the sample stack once."""
    sid = "hopf-s3-surface-case"
    _, check_name, entry_id, key, kwargs = scenarios.SCENARIOS[sid]
    spec, plan = catalog.get_entry(entry_id).maps[key], SamplePlan(count=2)
    samples, seen = np.array(plan.points(spec.source, CFG)), []
    call = AlmostComplexField.__call__
    monkeypatch.setattr(AlmostComplexField, "__call__", lambda self, x: seen.append(
        self is spec.source_structure and np.array_equal(x, samples)) or call(self, x))
    assert getattr(scenarios, check_name)(spec, plan=plan, cfg=CFG, scenario_id=sid,
                                          **kwargs).overall
    assert sum(seen) == 1


@pytest.mark.parametrize("sid, builds", [
    ("hopf-s3", 0), ("hopf-s3-surface-case", 0), ("annulus-radial-fibres", 0),
    ("product-hopf-1-1-two-of-three", 1),  # homothety reads the stencil's dilations
    ("punctured-hopf-1-integrability-plus", 1),  # condition (ii) reads its frames
])
def test_stencil_target_metric_built_only_where_read(sid, builds, monkeypatch):
    """A check builds h at phi of its stencil points only where it reads it, and
    then at each of them once: no target-metric build holds a stencil image row
    in the fibre-only checks, and in the others every stencil image row is built
    exactly once.  Stencil points along a fibre can have a sample's image bit for
    bit, which h is built at anyway; those rows are not counted."""
    _, check_name, entry_id, key, kwargs = scenarios.SCENARIOS[sid]
    spec, plan = catalog.get_entry(entry_id).maps[key], SamplePlan(count=2)
    samples = np.array(plan.points(spec.source, CFG))
    images = [y for y in spec(numdiff.stencil(samples, CFG).reshape(-1, samples.shape[1]))
              if not any(np.array_equal(y, f) for f in spec(samples))]
    rows = []
    metric = Chart.metric
    monkeypatch.setattr(Chart, "metric", lambda self, x: rows.extend(
        x if self is spec.target else ()) or metric(self, x))
    assert getattr(scenarios, check_name)(spec, plan=plan, cfg=CFG, scenario_id=sid,
                                          **kwargs).overall
    assert images and [sum(np.array_equal(p, y) for p in rows) for y in images] == [
        builds] * len(images)


def test_stacked_jet_raises_what_its_first_bad_row_raises():
    """A stack whose second row is outside the chart raises the class and the
    message of that row alone."""
    spec = hopf()
    bad = np.array(spec.source.box.lo, dtype=float)
    with pytest.raises(EvaluationOutsideDomain) as alone:
        point_jet(spec, bad[None], CFG)
    with pytest.raises(EvaluationOutsideDomain) as stacked:
        point_jet(spec, np.array([CE_POINT, bad, CE_POINT - 0.1]), CFG)
    assert str(stacked.value) == str(alone.value)


def test_stacked_frame_at_stencil_points_keeps_the_pivots():
    """The greedy frame picks the point's axes at every stencil point around it:
    the frame at the stack of the stencil points is complete, and each of its
    vectors moves by O(step) from the point's (another axis would move it by O(1))."""
    entry = catalog.calabi_eckmann(1, 1)
    chart, structure = entry.charts["ce"], entry.structures["J"]
    (x,) = SamplePlan(count=1).points(chart, CFG)
    at_x = hermitian_frame(chart, structure, x[None])
    stack = x + CFG.step * np.vstack([np.eye(6), -np.eye(6)])
    frames = hermitian_frame(chart, structure, stack)
    assert frames.m == 3
    for near, at in zip(frames.real_frame, at_x.real_frame):
        assert np.max(np.abs(near - at)) <= 100.0 * CFG.step


def test_map_value_keeps_no_alias_of_the_callers_point():
    chart = Chart(dim=2, box=Box((-1.0, -1.0), (1.0, 1.0)), metric_fn=constant(np.eye(2)))
    spec = MapSpec(chart, chart, lambda x: x)
    x = np.array([[0.1, 0.2]])
    y = spec(x)
    x[0, 0] = 0.5
    assert y.tolist() == [[0.1, 0.2]]


def test_failed_evaluation_stores_nothing():
    calls = []

    def asymmetric(x):
        calls.append(x)
        return constant([[1.0, 0.5], [0.2, 1.0]])(x)

    chart = Chart(dim=2, box=Box((-1.0, -1.0), (1.0, 1.0)), metric_fn=asymmetric)
    for _ in range(2):
        with pytest.raises(SingularMetric, match="not symmetric"):
            chart.metric([[0.0, 0.0]])
    assert len(calls) == 2


def test_jet_outside_the_domain_raises_each_time():
    spec = hopf()
    lo = np.array(spec.source.box.lo, dtype=float)
    for _ in range(2):
        with pytest.raises(EvaluationOutsideDomain, match="closer than"):
            point_jet(spec, lo[None], CFG)


@pytest.fixture
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    yield
    gc.enable()


@pytest.mark.parametrize("sid", scenarios.scenario_ids())
def test_entry_freed_by_refcount(sid, no_cyclic_gc):
    """With the cyclic collector off, a scenario's maps and charts are freed as
    soon as the entry and the report are dropped: nothing holds its owner."""
    entry = catalog.get_entry(scenarios.SCENARIOS[sid][2])
    report = run_row(sid, entry, SamplePlan(0, 1))
    refs = [weakref.ref(obj) for obj in (*entry.maps.values(), *entry.charts.values(),
                                          *entry.structures.values())]
    del entry, report
    assert [ref for ref in refs if ref() is not None] == []


SRC = Path(__file__).resolve().parents[1] / "src" / "hermkit"


def test_no_value_is_keyed_by_a_point():
    """No module keys a cache by the bytes of a point: ``.tobytes()`` appears
    nowhere in the package."""
    found = {p.name: p.read_text().count(".tobytes()") for p in sorted(SRC.glob("*.py"))}
    assert {name: n for name, n in found.items() if n} == {}
