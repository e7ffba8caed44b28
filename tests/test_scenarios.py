import dataclasses
import inspect

import numpy as np
import pytest

from hermkit import catalog, cli, geodsl, hermitian, manifold, maps, numdiff, scenarios
from hermkit.errors import (PreconditionFailed, TargetDimensionTooSmall,
                            TooManyExcludedSamples, UnknownScenario, WrongDimension)
from hermkit.manifold import Box, Chart, SamplePlan
from hermkit.maps import MapSpec
from hermkit.numdiff import DiffConfig, constant
from hermkit.scenarios import (biconditional_check, check, check_gauduchon,
                               check_lemma_tension, check_rejected_morphism,
                               check_surface_case, check_two_of_three,
                               implication_check, run_scenario)

SMALL = SamplePlan(seed=11, count=5)
CFG = DiffConfig()


@pytest.mark.parametrize("sid", scenarios.scenario_ids())
def test_every_registered_scenario_passes(sid):
    report = run_scenario(sid, SMALL, CFG)
    failed = [c.name for c in report.checks if not c.verdict]
    assert report.overall, (sid, failed)


@pytest.mark.parametrize("flags,named", [(["--step", "1e-17"], "step 1e-17 "),
                                         (["--step", "1e-300"], "step 1e-300 "),
                                         (["--tol", "inf"], "got inf"),
                                         (["--tol", "1e400"], "got inf")])
def test_run_rejects_a_step_or_tolerance_that_decides_nothing(flags, named, capsys):
    """A step below the coordinates' resolution made every residual 0.0 and an
    infinite tolerance passed every ``le`` check: both are usage errors."""
    assert cli.main(["run", "hopf-s3", "--points", "2", *flags]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and named in out.err


MAIN_CALLS = [
    (["run", "torus-classify", "--points", "2", "--report", "json"], 0),
    (["run"], 2),
    (["list"], 0),
    (["frobnicate"], 2),
    (["run", "--help"], 0),
    (["run", "hopf-s3", "--points", "two"], 2),
    (["run", "no-such-scenario", "--points", "2"], 2),
]


def test_main_twice_in_a_row_prints_and_returns_the_same(capsys):
    """The process keeps one parser: a second pass over good and bad calls,
    each right after a different one, prints the same output and returns the
    same exit code as the first pass."""
    passes = []
    for _ in range(2):
        outputs = []
        for argv, code in MAIN_CALLS:
            assert cli.main(argv) == code, argv
            outputs.append(capsys.readouterr())
            assert outputs[-1].out or outputs[-1].err
        passes.append(outputs)
    assert passes[0] == passes[1]


@pytest.mark.parametrize("sid", scenarios.scenario_ids())
def test_table_row_resolves(sid):
    """Each row names a check, a catalog entry and exactly one map or chart of
    it, and its kwargs fit the check's signature."""
    _, check_name, entry_id, key, kwargs = scenarios.SCENARIOS[sid]
    assert check_name.startswith("check_")
    run = getattr(scenarios, check_name)
    assert callable(run)
    assert entry_id in catalog.entry_ids()
    entry = catalog.get_entry(entry_id)
    assert (key in entry.maps) != (key in entry.charts)
    signature = inspect.signature(run)
    on = (entry.maps[key],) if key in entry.maps else (entry.charts[key], entry.structures["J"])
    signature.bind(*on, plan=SMALL, cfg=CFG, scenario_id=sid, **kwargs)


def test_unknown_scenario():
    with pytest.raises(UnknownScenario):
        run_scenario("no-such-scenario", SMALL, CFG)
    with pytest.raises(UnknownScenario):
        scenarios.scenario_description("no-such-scenario")


def test_overall_is_conjunction_of_checks():
    for sid in ("hopf-s3", "torus-classify", "torus-nonconformal-rejected"):
        report = run_scenario(sid, SMALL, CFG)
        assert report.overall == all(c.verdict for c in report.checks)


def test_run_scenario_deterministic():
    a = run_scenario("hopf-s3", SMALL, CFG).to_dict()
    b = run_scenario("hopf-s3", SMALL, CFG).to_dict()
    assert a == b


@pytest.mark.parametrize("entry_id", ["hopf-s3", "punctured-hopf-1", "ce-1-0"])
def test_one_entry_serves_every_config(entry_id):
    """Geometry holds no ``DiffConfig``: one entry, built once, checked at two
    configs, gives for every scenario on it the report that ``run_scenario``
    gives at each (the Hopf map, the lift rows, and the chart checks), and the
    two configs are told apart."""
    entry = catalog.get_entry(entry_id)
    sids = [sid for sid, row in scenarios.SCENARIOS.items() if row[2] == entry_id]
    assert len(sids) >= 2
    for sid in sids:
        _, check_name, _, key, kwargs = scenarios.SCENARIOS[sid]
        on = ((entry.maps[key],) if key in entry.maps
              else (entry.charts[key], entry.structures["J"]))
        reports = []
        for cfg in (DiffConfig(step=1e-3), DiffConfig(step=1e-4, richardson=False)):
            report = getattr(scenarios, check_name)(*on, plan=SMALL, cfg=cfg, scenario_id=sid,
                                                    **kwargs).to_dict()
            assert report == run_scenario(sid, SMALL, cfg).to_dict(), (sid, cfg)
            reports.append(report["checks"])
        assert reports[0] != reports[1], sid


def test_geometry_takes_no_diff_config():
    """No field of the geometry's classes and no parameter of a public catalog
    builder, of ``get_entry``, of the pointwise chart methods or of ``to_map`` is a
    ``DiffConfig``: only a check's jets hold one."""
    def mentions_config(annotation, default=inspect.Parameter.empty):
        return "DiffConfig" in str(annotation) or isinstance(default, DiffConfig)

    for cls in (Chart, manifold.Embedding, MapSpec, hermitian.AlmostComplexField,
                catalog.CatalogEntry):
        fields = dataclasses.fields(cls)
        assert fields and not [f.name for f in fields if mentions_config(f.type, f.default)]
    builders = [fn for name, fn in inspect.getmembers(catalog, inspect.isfunction)
                if fn.__module__ == catalog.__name__ and not name.startswith("_")]
    pointwise = [Chart.metric, Chart.metric_inverse, manifold.Embedding.dpsi,
                 hermitian.hermitian_frame, geodsl.to_map]
    assert catalog.get_entry in builders and catalog.hopf_map in builders
    for fn in builders + pointwise:
        params = inspect.signature(fn).parameters.values()
        assert not [p.name for p in params
                    if p.name == "cfg" or mentions_config(p.annotation, p.default)], fn
    assert not hasattr(catalog, "DEFAULT_CFG")
    for dependent in (maps.PointJet, hermitian.StructureJet):
        assert "cfg" in {f.name for f in dataclasses.fields(dependent)}


@pytest.mark.parametrize("sid", ["hopf-s3", "product-hopf-1-1-lemma",
                                 "ce-1-0-classify", "hopf-surface-coords-surface-case"])
def test_tolerance_monotonicity(sid):
    """Loosening the tolerance never flips a verdict from true to false."""
    tight = run_scenario(sid, SMALL, CFG)
    loose = run_scenario(sid, SMALL, DiffConfig(tolerance_abs=20 * CFG.tolerance_abs))
    for before, after in zip(tight.checks, loose.checks):
        assert before.name == after.name
        if before.verdict and before.mode == "le":
            assert after.verdict, before.name


def test_check_semantics():
    c = check("sample", 0.5, 1.0, 3)
    assert c.verdict and c.mode == "le"
    c = check("reject", 0.5, 1.0, 3, mode="gt")
    assert not c.verdict
    with pytest.raises(ValueError):
        check("negative", -1.0, 1.0, 3)


def test_implication_coupling_semantics():
    tol = 1e-6
    # antecedent passes: consequent must be within 10x tolerance
    assert implication_check("i", 1e-7, 5e-6, tol, 1).verdict
    assert not implication_check("i", 1e-7, 5e-5, tol, 1).verdict
    # antecedent fails: consequent bounded by 10x antecedent (continuity)
    assert implication_check("i", 0.5, 1.0, tol, 1).verdict
    assert not implication_check("i", 1e-3, 0.5, tol, 1).verdict


def test_biconditional_coupling_semantics():
    tol = 1e-6
    assert biconditional_check("b", 1e-8, 1e-8, tol, 1).verdict     # both pass
    assert biconditional_check("b", 0.3, 0.5, tol, 1).verdict       # fail together
    assert not biconditional_check("b", 1e-8, 0.5, tol, 1).verdict  # split


def test_coupling_monotone_in_tolerance():
    for a, b in [(1e-7, 5e-6), (2e-6, 1e-4), (0.3, 0.5), (1e-8, 0.5)]:
        previous = None
        for tol in (1e-8, 1e-6, 1e-4, 1e-2):
            verdict = implication_check("i", a, b, tol, 1).verdict
            if previous is not None and previous:
                assert verdict
            previous = verdict


def test_lemma_precondition_antiholomorphic():
    entry = catalog.flat_torus()
    with pytest.raises(PreconditionFailed) as err:
        check_lemma_tension(entry.maps["conjugation"], SMALL, CFG)
    assert err.value.precondition == "holomorphic"


STANDARD_J = [[0.0, -1.0], [1.0, 0.0]]


def identity_map(source_g, target_g) -> MapSpec:
    """The identity of the square with the standard J on both sides and the
    given constant metrics."""
    charts = [Chart(dim=2, box=Box((-1.0, -1.0), (1.0, 1.0)), metric_fn=constant(g))
              for g in (source_g, target_g)]
    source, target = (hermitian.AlmostComplexField(c, constant(STANDARD_J)) for c in charts)
    return MapSpec(charts[0], charts[1], lambda x: x, source_structure=source,
                   target_structure=target)


@pytest.mark.parametrize("run", [check_surface_case, check_lemma_tension, lambda spec, plan, cfg:
                                 scenarios.check_harmonic_morphism(spec, plan, cfg,
                                                                   include_holomorphy=True)])
@pytest.mark.parametrize("side", ["source", "target"])
def test_map_checks_reject_incompatible_structure(run, side):
    """The standard J is not compatible with g = diag(1, 4): J^T g J = diag(4, 1).
    The identity is holomorphic, so only the almost Hermitian check can stop it."""
    bad, good = np.diag([1.0, 4.0]), np.eye(2)
    spec = identity_map(bad, good) if side == "source" else identity_map(good, bad)
    with pytest.raises(PreconditionFailed) as err:
        run(spec, SMALL, CFG)
    assert err.value.precondition == "almost Hermitian"
    assert "g(J., J.) - g residual 3" in str(err.value)


def test_map_checks_accept_compatible_structure():
    spec = identity_map(np.eye(2), 4.0 * np.eye(2))
    assert check_lemma_tension(spec, SMALL, CFG).overall
    assert scenarios.check_harmonic_morphism(spec, SMALL, CFG, include_holomorphy=True).overall


def test_zero_dimensional_fibres_are_minimal():
    """A regular map between charts of equal dimension has 0-dimensional fibres,
    which are trivially minimal: the surface case holds and the fibre residual
    is exactly 0."""
    spec = identity_map(np.eye(2), 4.0 * np.eye(2))
    report = check_surface_case(spec, SMALL, CFG)
    assert report.overall
    assert report.metadata["residuals"]["fibre_minimality"] == 0.0
    assert report.get_check("morphism-iff-minimal-fibres").samples_used == SMALL.count
    jet = maps.point_jet(spec, np.array([[0.1, 0.2]]), CFG)
    assert maps.fibre_mean_curvature(jet).tolist() == [[0.0, 0.0]]


def test_lemma_precondition_target_not_symplectic():
    entry = catalog.punctured_hopf(2, perturbed=True)
    with pytest.raises(PreconditionFailed) as err:
        check_lemma_tension(entry.maps["hopf"], SMALL, CFG)
    assert "symplectic" in err.value.precondition


def test_two_of_three_dimension_gate_without_structures():
    entry = catalog.annulus_radial()
    with pytest.raises(TargetDimensionTooSmall):
        check_two_of_three(entry.maps["radial"], SMALL, CFG)


def test_two_of_three_routes_to_surface_case():
    entry = catalog.flat_t4()
    report = check_two_of_three(entry.maps["projection"], SMALL, CFG, scenario_id="t4")
    assert report.metadata["routed"] == "surface-case"
    assert report.overall


def test_surface_case_requires_surface():
    entry = catalog.product_hopf(1, 1)
    with pytest.raises(WrongDimension):
        check_surface_case(entry.maps["hopf"], SMALL, CFG)


def test_gauduchon_requires_complex_dimension_two():
    entry = catalog.flat_torus()
    with pytest.raises(WrongDimension):
        check_gauduchon(entry.charts["torus"], entry.structures["J"], SMALL, CFG)


def test_near_critical_exclusion_cap():
    """A map whose differential keeps one singular value barely above the rank
    threshold excludes every sample and must error instead of passing silently."""
    src = Chart(dim=2, box=Box((0.0, 0.0), (1.0, 1.0)), metric_fn=constant(np.eye(2)))
    tgt = Chart(dim=2, box=Box((-2.0, -2.0), (2.0, 2.0)), metric_fn=constant(np.eye(2)))
    spec = MapSpec(src, tgt, lambda x: x * [1.0, 5e-6])
    with pytest.raises(TooManyExcludedSamples):
        scenarios.check_harmonic_morphism(spec, SMALL, CFG, include_fibres=True)


def test_rejected_morphism_catches_good_maps_too():
    """The rejection check must fail (overall False) on an actual morphism."""
    entry = catalog.hopf_map(1)
    report = check_rejected_morphism(entry.maps["hopf"], SMALL, CFG, "hopf-not-rejected")
    assert not report.overall


def test_cosymplectic_image_sides_recorded():
    report = run_scenario("punctured-hopf-2-cosymplectic-image", SMALL, CFG)
    res = report.metadata["residuals"]
    assert res["target_cosymplectic"] <= 1e-5
    assert res["harmonic_morphism"] <= 1e-5
    report = run_scenario("punctured-hopf-2-cosymplectic-image-perturbed", SMALL, CFG)
    res = report.metadata["residuals"]
    assert res["target_cosymplectic"] > 1e-2
    assert res["harmonic_morphism"] > 1e-2


def test_surface_case_failing_sides_match():
    """For the nonharmonic holomorphic map the two biconditional sides are
    equal nonzero numbers (the identity holds with both sides nonzero)."""
    report = run_scenario("hopf-surface-coords-surface-case", SMALL, CFG)
    c = report.get_check("lee-pushforward-iff-tension")
    assert c.detail["side_a"] > 0.1
    np.testing.assert_allclose(c.detail["side_a"], c.detail["side_b"], rtol=1e-5)


def test_lift_invariant_checks_count_the_points_they_use():
    # the invariants are checked on the first 5 samples only
    report = run_scenario("punctured-hopf-1-lift-plus", SamplePlan(seed=0, count=7), CFG)
    assert report.get_check("lift-square-identity").samples_used == 5
    assert report.get_check("lift-metric-compatibility").samples_used == 5
    assert report.get_check("lifted-nijenhuis").samples_used == 7


def sample_points(sid, plan):
    """The plan's samples on the source of a map scenario's map."""
    _, _, entry_id, key, _ = scenarios.SCENARIOS[sid]
    return plan.points(catalog.get_entry(entry_id).maps[key].source, CFG)


def times_at(points, x):
    return sum(np.array_equal(p, x) for p in points)


def wrap_christoffel(monkeypatch, record):
    """Wrap every Christoffel build at every module that binds ``christoffel``:
    ``record(chart, x, inverted)`` sees each build, with its rows x and whether
    the g^-1 it reads is one that ``invert_metric`` returned on a metric held by
    its caller, not one that ``Chart.metric_inverse`` evaluated g for again.  A
    structure jet builds its symbols when first read, right after
    ``metric_derivative``, which names the chart; a map jet built with its
    stencil jet builds its source symbols in ``maps`` from the g^-1 it inverted
    at its rows, ``chart`` None."""
    inverted, fresh, pending = {}, {}, []
    invert, derivative, build = (manifold.invert_metric, manifold.metric_derivative,
                                 manifold.christoffel)
    chart_inverse = manifold.Chart.metric_inverse

    def inverting(g, x):
        out = invert(g, x)
        inverted[id(out)] = (out, x)  # the array is kept, so its id is not reused
        return out

    def evaluating(chart, x):
        out = chart_inverse(chart, x)
        fresh[id(out)] = out
        return out

    def differencing(chart, x, cfg):
        pending.append((chart, x))
        return derivative(chart, x, cfg)

    def recording(g_inv, dg):
        chart, x = pending.pop() if pending else (None, inverted[id(g_inv)][1])
        record(chart, x, id(g_inv) in inverted and id(g_inv) not in fresh)
        return build(g_inv, dg)

    wrappers = {"invert_metric": inverting, "metric_derivative": differencing,
                "christoffel": recording}
    for module in (manifold, hermitian, maps):
        for name, wrapper in wrappers.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    monkeypatch.setattr(manifold.Chart, "metric_inverse", evaluating)


@pytest.mark.parametrize("sid", ["hopf-s3", "product-hopf-1-1-lemma",
                                 "punctured-hopf-2-integrability-plus"])
def test_each_sample_is_differentiated_once(sid, monkeypatch):
    """The map's jet at a sample is built once, alone or as a row of a stack,
    and passed to every operator."""
    seen = []
    differential = maps.differential

    def recording(spec, x, cfg):
        seen.extend(np.array(x, dtype=float))
        return differential(spec, x, cfg)

    monkeypatch.setattr(maps, "differential", recording)
    plan = SamplePlan(count=2)
    assert run_scenario(sid, plan, CFG).overall
    for x in sample_points(sid, plan):
        assert times_at(seen, x) == 1


def test_lifted_structure_jet_built_once_per_sample(monkeypatch):
    """The lifted J is built once, by the structure jet, at each sample and at
    each point of its stencil (on the map's sample jet and its stencil jet); the
    invariant check reads the structure jet's J (it built J at the samples again
    before), and the lifted field itself is never built."""
    read = []
    lifted_j = maps.lifted_j
    monkeypatch.setattr(maps, "lifted_j", lambda jet, orientation:
                        read.extend(jet.x) or lifted_j(jet, orientation))
    monkeypatch.setattr(maps, "lift_structure", None)
    sid = "punctured-hopf-1-lift-plus"
    plan = SamplePlan(count=2)
    assert run_scenario(sid, plan, CFG).overall
    for x in sample_points(sid, plan):
        assert times_at(read, x) == 1
        assert [times_at(read, p) for p in numdiff.stencil(x[None], CFG)[0]] == [1] * 4 * 4


@pytest.mark.parametrize("sid", ["hopf-s3-surface-case", "product-hopf-1-1-two-of-three"])
def test_christoffel_built_once_per_sample(sid, monkeypatch):
    """A check builds Christoffel symbols on as many stacks at 3 samples as at 2,
    each the stack of all its samples, never one sample alone, and every build,
    source or target, reads the g^-1 that its structure jet's one
    ``invert_metric`` call built from the metric the map's jet holds."""
    rows, held = [], []
    wrap_christoffel(monkeypatch, lambda chart, x, inverted: rows.append(len(x))
                     or held.append(inverted))
    for count in (2, 3):
        assert run_scenario(sid, SamplePlan(count=count), CFG).overall
    assert rows.count(2) == rows.count(3) > 0
    assert set(rows) == {2, 3}
    assert all(held)


def test_condition_ii_builds_no_target_frame(monkeypatch):
    """Condition (ii) lifts the (1,0)-parts of the target's unit axes at phi(x)
    and at the stencil images: no Hermitian frame is built and no vector is
    projected, and the report is the one built unpatched."""
    sid = "punctured-hopf-2-integrability-plus"
    _, _, entry_id, key, _ = scenarios.SCENARIOS[sid]
    spec = catalog.get_entry(entry_id).maps[key]
    plan = SamplePlan(count=2)
    expected = scenarios.check_integrability_theorem(spec, 1, plan, CFG, scenario_id=sid)
    monkeypatch.setattr(hermitian, "hermitian_frame", None)
    monkeypatch.setattr(hermitian, "project_out", None)
    monkeypatch.setattr(numdiff, "project_out", None)
    report = scenarios.check_integrability_theorem(spec, 1, plan, CFG, scenario_id=sid)
    assert report.overall and report.to_dict() == expected.to_dict()


@pytest.mark.parametrize("count, near_critical", [(4, None), (10, 1)])
def test_integrability_reads_the_lift_invariants_from_its_lifted_jet(count, near_critical,
                                                                     monkeypatch):
    """The lifted J is built once on the included samples and once on their stencil
    points, and the lift invariants are read from it: over the first five included
    samples, so a near-critical sample among the first five is left out of them."""
    rows, lifted_j, conformality = [], maps.lifted_j, maps.conformality
    monkeypatch.setattr(maps, "lifted_j", lambda jet, orientation:
                        rows.append(len(jet.x)) or lifted_j(jet, orientation))

    def marked(jet):
        split = conformality(jet)
        if len(jet.x) == count and near_critical is not None:
            split.near_critical[near_critical] = True
        return split

    monkeypatch.setattr(maps, "conformality", marked)
    sid = "punctured-hopf-2-integrability-plus"
    _, _, entry_id, key, _ = scenarios.SCENARIOS[sid]
    spec = catalog.get_entry(entry_id).maps[key]
    plan = SamplePlan(0, count)
    report = scenarios.check_integrability_theorem(spec, 1, plan, CFG, scenario_id=sid)
    used = [r for r in range(count) if r != near_critical]
    assert report.overall and rows == [len(used), 24 * len(used)]
    first = sample_points(sid, plan)[used[:5]]
    square, compat = hermitian.invariant_residuals(
        spec.source.metric(first), lifted_j(maps.point_jet(spec, first, CFG), 1))
    assert report.metadata["lifted_invariants"] == {
        "square": float(np.max(square)), "compatibility": float(np.max(compat))}


def test_lift_matrix_built_once_on_the_samples_and_once_on_the_stencil(monkeypatch):
    """The lift checks read the horizontal-lift matrices from the jets' ``lift``:
    the invariants, the lifted structure jet and condition (ii) share one build
    on the sample jet and one on its stencil jet."""
    built = []
    lift_matrix = maps._lift_matrix
    monkeypatch.setattr(maps, "_lift_matrix",
                        lambda jet: built.append(jet.x) or lift_matrix(jet))
    sid = "punctured-hopf-2-integrability-plus"
    _, _, entry_id, key, _ = scenarios.SCENARIOS[sid]
    spec = catalog.get_entry(entry_id).maps[key]
    plan = SamplePlan(0, 2)
    assert scenarios.check_integrability_theorem(spec, 1, plan, CFG, scenario_id=sid).overall
    samples = np.array(sample_points(sid, plan))
    at_samples, at_stencil = built
    assert np.array_equal(at_samples, samples)
    assert np.array_equal(at_stencil, numdiff.stencil(samples, CFG).reshape(-1, spec.source.dim))


MAP_SCENARIOS = [sid for sid, (_, _, entry_id, key, _) in scenarios.SCENARIOS.items()
                 if key in catalog.get_entry(entry_id).maps]


def test_there_are_29_map_scenarios():
    assert len(MAP_SCENARIOS) == 29


@pytest.mark.parametrize("sid", MAP_SCENARIOS)
def test_map_check_builds_each_source_christoffel_row_once(sid, monkeypatch):
    """The tension, the Lee push-forward, the fibre mean curvature and the lifted
    structure read the source Christoffel symbols from the sample jet's
    ``source``: no source Christoffel build repeats a row that the check has
    already built, and every build reads the g^-1 that the source jet inverted
    from the jet's own g (``christoffel`` inverts nothing; its d g comes from the
    stencil jet's g for a jet built with one).  The source is a renamed copy of
    the chart, so the target side of a map into its own chart (the identity) is
    not counted."""
    _, check_name, entry_id, key, kwargs = scenarios.SCENARIOS[sid]
    spec = catalog.get_entry(entry_id).maps[key]
    spec = dataclasses.replace(spec, source=dataclasses.replace(spec.source, name="source"))
    built, held = [], []

    def recording(chart, x, inverted):
        if chart is None or chart is spec.source:  # None: built in maps, on the source
            built.extend(p.tobytes() for p in x)
            held.append(inverted)

    wrap_christoffel(monkeypatch, recording)
    check_map = getattr(scenarios, check_name)
    assert check_map(spec, plan=SamplePlan(count=2), cfg=CFG, scenario_id=sid, **kwargs).overall
    assert built and len(built) == len(set(built)) and all(held)


def map_spec(sid):
    _, _, entry_id, key, _ = scenarios.SCENARIOS[sid]
    return catalog.get_entry(entry_id).maps[key]


def run_on(spec, sid, plan):
    _, check_name, _, _, kwargs = scenarios.SCENARIOS[sid]
    return getattr(scenarios, check_name)(spec, plan=plan, cfg=CFG, scenario_id=sid, **kwargs)


@pytest.mark.parametrize("sid", ["hopf-s3", "hopf-s3-surface-case", "product-hopf-1-1"])
def test_target_metric_at_each_image_is_built_once(sid, monkeypatch):
    """The tension's target Christoffel symbols read h at phi(x) from the jet's
    ``target_metric`` and evaluate h only at the stencil points of phi(x): h is
    built at each sample's image once (twice when the Christoffel build asked the
    chart for it again)."""
    spec, plan, rows = map_spec(sid), SamplePlan(count=2), []
    metric = Chart.metric
    monkeypatch.setattr(Chart, "metric", lambda self, x: (
        rows.extend(x) if self is spec.target else None) or metric(self, x))
    assert run_on(spec, sid, plan).overall
    for y in spec(sample_points(sid, plan)):
        assert times_at(rows, y) == 1


#: Work of a check at ``SamplePlan(seed=0, count=4)``: each side's structure jet
#: builds its Christoffel symbols, h, J and g^-1 (one ``inv`` and one ``cholesky``,
#: the positive-definiteness test) once, and every reader shares them (before: 3
#: Christoffel builds, 136 target metric rows, 72 target J rows, 6 ``inv`` and 4
#: positive-definiteness tests on the map checks, and 2 ``inv`` calls on the
#: classification).
SIDE_WORK = {"christoffel": 2, "target metric rows": 68, "target J rows": 68, "inv": 2,
             "cholesky": 2}


@pytest.mark.parametrize("sid, work", [
    ("product-hopf-1-1-lemma", SIDE_WORK),
    ("punctured-hopf-2-cosymplectic-image", SIDE_WORK),
    ("ce-1-1-classify", {"christoffel": 1, "inv": 1, "cholesky": 1})])
def test_each_side_builds_its_structure_jet_once(sid, work, monkeypatch):
    """The source and the target structure jets of a map check, and the one jet
    of a classification, each build Gamma, g^-1, h and the target J once: the
    tension, the Lee push-forward, div J, the target classification and the
    Christoffel builds all read them."""
    _, _, entry_id, key, _ = scenarios.SCENARIOS[sid]
    entry = catalog.get_entry(entry_id)
    spec, count = entry.maps.get(key), dict.fromkeys(work, 0)

    def counting(name, call, rows=lambda *args: 1):
        return lambda *args: count.__setitem__(name, count[name] + rows(*args)) or call(*args)

    build = manifold.christoffel
    for module in (manifold, hermitian, maps):
        monkeypatch.setattr(module, "christoffel", counting("christoffel", build))
    if spec:
        monkeypatch.setattr(Chart, "metric", counting(
            "target metric rows", Chart.metric, lambda chart, x:
            len(x) if chart is spec.target else 0))
        monkeypatch.setattr(type(spec.target_structure), "__call__", counting(
            "target J rows", type(spec.target_structure).__call__,
            lambda field, x: len(x) if field is spec.target_structure else 0))
    monkeypatch.setattr(np.linalg, "inv", counting("inv", np.linalg.inv))
    monkeypatch.setattr(np.linalg, "cholesky", counting("cholesky", np.linalg.cholesky))
    plan = SamplePlan(seed=0, count=4)
    if spec:
        assert run_on(spec, sid, plan).overall
    else:
        _, check_name, _, _, kwargs = scenarios.SCENARIOS[sid]
        assert getattr(scenarios, check_name)(entry.charts[key], entry.structures["J"],
                                              plan=plan, cfg=CFG, **kwargs).overall
    assert count == work


@pytest.mark.parametrize("sid", ["product-hopf-1-1-two-of-three",
                                 "punctured-hopf-2-two-of-three"])
def test_source_metric_at_each_sample_is_built_once(sid, monkeypatch):
    """The homothety residual inverts the jet's g at the samples instead of
    asking the chart through ``manifold.gradient``: g is built at each sample
    once, as a row of the jet's one stack (twice before)."""
    spec, plan, rows = map_spec(sid), SamplePlan(count=2), []
    metric = Chart.metric
    monkeypatch.setattr(Chart, "metric", lambda self, x: (
        rows.extend(x) if self is spec.source else None) or metric(self, x))
    monkeypatch.setattr(manifold, "gradient", None)
    assert run_on(spec, sid, plan).overall
    for x in sample_points(sid, plan):
        assert times_at(rows, x) == 1


def test_target_j_at_each_stencil_image_is_evaluated_once(monkeypatch):
    """The lifted J and condition (ii) read the target J at phi of the stencil
    points from the jet's ``target_j``: J is evaluated at each stencil image once
    (twice when condition (ii) evaluated it again)."""
    sid = "punctured-hopf-2-integrability-plus"
    spec, plan, rows = map_spec(sid), SamplePlan(count=2), []
    call = hermitian.AlmostComplexField.__call__
    monkeypatch.setattr(hermitian.AlmostComplexField, "__call__", lambda self, x: (
        rows.extend(x) if self is spec.target_structure else None)
        or call(self, x))
    assert run_on(spec, sid, plan).overall
    samples = np.array(sample_points(sid, plan))
    images = spec(numdiff.stencil(samples, CFG).reshape(-1, spec.source.dim))
    assert len(images) == 2 * 4 * spec.source.dim
    for y in images:
        assert times_at(rows, y) == 1
