"""Named verification scenarios: each encodes a geometric statement as a list of
tolerance-parameterized checks over catalog objects and assembles a
:class:`VerificationReport`.

Check semantics
---------------
Every check carries a residual and a tolerance.  In mode ``le`` (the default)
it passes when residual <= tolerance; in mode ``gt`` it is a *rejection* check
that passes when the residual exceeds the tolerance, used for statements of the
form "this quantity is genuinely nonzero".

Implications "A passing forces B to pass" are scored as
``b <= 10 * max(a, tol)`` and biconditionals as
``max(a, b) <= 10 * max(min(a, b), tol)``.  Both are monotone in the
tolerance, and inside the tolerance regime they reduce to the plain
"if one side passes, the other passes at 10x tolerance" coupling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import catalog, maps
from .errors import (CriticalPoint, FibreDimension, PreconditionFailed,
                     TargetDimensionTooSmall, TooManyExcludedSamples,
                     UnknownScenario, WrongDimension)
from .hermitian import (AlmostComplexField, classify_structure, divergence_J,
                        g_norm, lee_vector, nabla_j_tensor, nijenhuis)
from .manifold import Chart, SamplePlan
from .maps import KIND_CRITICAL, KIND_REGULAR, MapSpec
from .numdiff import Array, DiffConfig

#: Tolerance coupling factor between the two sides of a proved implication.
COUPLING = 10.0
#: Fraction of planned samples that may be excluded as near-critical.
EXCLUSION_CAP = 0.10


@dataclass(frozen=True)
class CheckResult:
    """One named check: residual, tolerance, verdict and sample bookkeeping."""

    name: str
    residual: float
    tolerance: float
    verdict: bool
    samples_used: int
    excluded_samples: int = 0
    mode: str = "le"
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "verdict": bool(self.verdict),
            "samples_used": self.samples_used,
            "excluded_samples": self.excluded_samples,
            "mode": self.mode,
        }
        if self.detail:
            out["detail"] = {k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
                             for k, v in self.detail.items()}
        return out


def check(name: str, residual: float, tolerance: float, used: int, excluded: int = 0,
          mode: str = "le", **detail) -> CheckResult:
    residual = float(residual)
    if residual < 0:
        raise ValueError("residuals are nonnegative by construction")
    verdict = residual <= tolerance if mode == "le" else residual > tolerance
    return CheckResult(name, residual, float(tolerance), bool(verdict), used, excluded,
                       mode, dict(detail))


def implication_check(name: str, antecedent: float, consequent: float, tol: float,
                      used: int, excluded: int = 0, **detail) -> CheckResult:
    """Consequent must be small wherever the antecedent is (continuity coupling)."""
    bound = COUPLING * max(antecedent, tol)
    return check(name, consequent, bound, used, excluded,
                 antecedent=antecedent, **detail)


def biconditional_check(name: str, a: float, b: float, tol: float, used: int,
                        excluded: int = 0, **detail) -> CheckResult:
    """The two residuals pass or fail together, up to the coupling factor."""
    bound = COUPLING * max(min(a, b), tol)
    return check(name, max(a, b), bound, used, excluded,
                 side_a=a, side_b=b, **detail)


@dataclass(frozen=True)
class VerificationReport:
    """Per-scenario list of named checks; ``overall`` is their conjunction."""

    scenario_id: str
    checks: tuple
    metadata: dict

    @property
    def overall(self) -> bool:
        return all(c.verdict for c in self.checks)

    def get_check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(f"no check named {name!r} in scenario {self.scenario_id!r}")

    def to_dict(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "checks": [c.to_dict() for c in self.checks],
            "overall": self.overall,
            "metadata": self.metadata,
        }


def _report(scenario_id: str, checks: Sequence[CheckResult], plan: SamplePlan,
            cfg: DiffConfig, **metadata) -> VerificationReport:
    meta = {
        "config": {"step": cfg.step, "richardson": cfg.richardson,
                   "tolerance_abs": cfg.tolerance_abs,
                   "tolerance_factor": cfg.tolerance_factor},
        "plan": {"seed": plan.seed, "count": plan.count, "margin": plan.margin},
    }
    meta.update(metadata)
    return VerificationReport(scenario_id, tuple(checks), meta)


def _guard_excluded(excluded: int, total: int, what: str) -> None:
    if excluded > EXCLUSION_CAP * total:
        raise TooManyExcludedSamples(
            f"{excluded}/{total} samples excluded as near-critical in {what}")


def _map_scale(spec: MapSpec, points: Sequence[Array]) -> float:
    """Input-magnitude scale for map residual tolerances: differentials enter
    the tension and conformality sums quadratically."""
    worst = 0.0
    for x in points:
        worst = max(worst, float(np.linalg.norm(maps.differential(spec, x))))
    return (1.0 + worst) ** 2


def _nijenhuis_residual(chart: Chart, j_field: AlmostComplexField, x, g: Array,
                        cfg: DiffConfig) -> float:
    """Max |N(e_a, e_b)| over coordinate pairs, sharing one derivative stack."""
    from .hermitian import dj_stack

    d = chart.dim
    dj = dj_stack(chart, j_field, x, cfg)
    worst = 0.0
    for a in range(d):
        for b in range(a + 1, d):
            ea = np.zeros(d)
            eb = np.zeros(d)
            ea[a] = 1.0
            eb[b] = 1.0
            worst = max(worst, g_norm(g, nijenhuis(chart, j_field, x, ea, eb, cfg, dj=dj)))
    return worst


# ---------------------------------------------------------------------------
# map-level scenario assemblies
# ---------------------------------------------------------------------------

def check_harmonic_morphism(spec: MapSpec, plan: SamplePlan,
                            scenario_id: str = "harmonic-morphism",
                            include_holomorphy: bool = False,
                            include_fibres: bool = False,
                            expected_dilation: float | None = None) -> VerificationReport:
    """Horizontal weak conformality plus vanishing tension, checked samplewise.

    Critical samples satisfy horizontal weak conformality vacuously and are
    flagged; optional extras add holomorphy, fibre minimality and a pinned
    dilation value to the report.
    """
    cfg = spec.cfg
    points = plan.points(spec.source, cfg)
    scale = _map_scale(spec, points)
    tol = cfg.tolerance(scale)
    conf_res = 0.0
    tension_res = 0.0
    dilation_dev = 0.0
    critical = 0
    for x in points:
        c = maps.conformality(spec, x)
        if c.kind == KIND_CRITICAL:
            critical += 1
        else:
            conf_res = max(conf_res, c.conformality_residual)
            if expected_dilation is not None:
                dilation_dev = max(dilation_dev, abs(c.dilation - expected_dilation))
        h = spec.target.metric(spec(x), cfg)
        tension_res = max(tension_res, g_norm(h, maps.tension(spec, x).tension))
    checks = [
        check("horizontally-weakly-conformal", conf_res, tol, len(points)),
        check("tension-vanishes", tension_res, tol, len(points)),
    ]
    if include_holomorphy:
        holo = max(maps.holomorphy_residual(spec, x) for x in points)
        checks.insert(0, check("holomorphic", holo, tol, len(points)))
    if expected_dilation is not None:
        checks.append(check("dilation-deviation", dilation_dev, tol, len(points),
                            expected=expected_dilation))
    excluded = 0
    if include_fibres:
        fibre_res, used, excluded = _fibre_residual(spec, points)
        _guard_excluded(excluded, len(points), "fibre minimality")
        checks.append(check("fibre-minimality", fibre_res, tol, used, excluded))
    return _report(scenario_id, checks, plan, cfg, critical_samples=critical,
                   map=spec.name)


def _fibre_residual(spec: MapSpec, points: Sequence[Array]) -> tuple[float, int, int]:
    """Max fibre mean-curvature norm over regular, non-near-critical samples."""
    worst = 0.0
    used = 0
    excluded = 0
    for x in points:
        c = maps.conformality(spec, x)
        if c.kind == KIND_CRITICAL:
            continue
        if not c.regular:
            raise CriticalPoint(f"degenerate-rank sample at {x!r}")
        if c.near_critical:
            excluded += 1
            continue
        g = spec.source.metric(x, spec.cfg)
        worst = max(worst, g_norm(g, maps.fibre_mean_curvature(spec, x)))
        used += 1
    return worst, used, excluded


def check_rejected_morphism(spec: MapSpec, plan: SamplePlan,
                            scenario_id: str) -> VerificationReport:
    """The detector must *fail* this map: conformality or tension residual is
    genuinely large (rejection mode)."""
    cfg = spec.cfg
    points = plan.points(spec.source, cfg)
    scale = _map_scale(spec, points)
    tol = cfg.tolerance(scale)
    conf_res = 0.0
    tension_res = 0.0
    for x in points:
        c = maps.conformality(spec, x)
        if c.kind != KIND_CRITICAL:
            conf_res = max(conf_res, c.conformality_residual)
        h = spec.target.metric(spec(x), cfg)
        tension_res = max(tension_res, g_norm(h, maps.tension(spec, x).tension))
    return _report(scenario_id, [
        check("non-morphism-detected", max(conf_res, tension_res), COUPLING * tol,
              len(points), mode="gt", conformality=conf_res, tension=tension_res),
    ], plan, cfg, map=spec.name)


def check_two_of_three(spec: MapSpec, plan: SamplePlan,
                       scenario_id: str = "two-of-three") -> VerificationReport:
    """For targets of real dimension > 2: of {harmonic morphism, minimal fibres,
    horizontal homothety}, any two passing force the third at the coupling
    factor.  Dimension-2 targets route to :func:`check_surface_case`."""
    cfg = spec.cfg
    if spec.target.dim <= 2:
        if spec.source_structure is None or spec.target_structure is None:
            raise TargetDimensionTooSmall(
                "target has real dimension 2 and no structures for the surface case")
        report = check_surface_case(spec, plan, scenario_id=scenario_id)
        meta = dict(report.metadata)
        meta["routed"] = "surface-case"
        return VerificationReport(report.scenario_id, report.checks, meta)
    points = plan.points(spec.source, cfg)
    scale = _map_scale(spec, points)
    tol = cfg.tolerance(scale)
    hm_res = 0.0
    for x in points:
        c = maps.conformality(spec, x)
        if not c.regular:
            raise CriticalPoint(f"two-of-three needs regular samples, got {c.kind}")
        h = spec.target.metric(spec(x), cfg)
        hm_res = max(hm_res, c.conformality_residual,
                     g_norm(h, maps.tension(spec, x).tension))
    fibre_res, used, excluded = _fibre_residual(spec, points)
    _guard_excluded(excluded, len(points), "fibre minimality")
    hom_res = maps.homothety_residual(spec, points)
    checks = [
        implication_check("morphism+minimal-imply-homothetic",
                          max(hm_res, fibre_res), hom_res, tol, len(points)),
        implication_check("minimal+homothetic-imply-morphism",
                          max(fibre_res, hom_res), hm_res, tol, len(points)),
        implication_check("morphism+homothetic-imply-minimal",
                          max(hm_res, hom_res), fibre_res, tol, used, excluded),
    ]
    return _report(scenario_id, checks, plan, cfg, map=spec.name,
                   residuals={"harmonic_morphism": hm_res, "fibre_minimality": fibre_res,
                              "homothety": hom_res})


def check_surface_case(spec: MapSpec, plan: SamplePlan,
                       scenario_id: str = "surface-case") -> VerificationReport:
    """Holomorphic maps to a 1-complex-dimensional target: the Lee push-forward
    vanishes exactly when the tension does, and the morphism verdict matches
    fibre minimality at regular points."""
    cfg = spec.cfg
    if spec.target.dim != 2:
        raise WrongDimension("surface case needs a target of real dimension 2")
    if spec.source_structure is None or spec.target_structure is None:
        raise PreconditionFailed("holomorphic", "structures missing on one side")
    points = plan.points(spec.source, cfg)
    scale = _map_scale(spec, points)
    tol = cfg.tolerance(scale)
    holo = max(maps.holomorphy_residual(spec, x) for x in points)
    if holo > tol:
        raise PreconditionFailed("holomorphic", f"residual {holo} > {tol}")
    lee_res = 0.0
    tension_res = 0.0
    conf_res = 0.0
    critical = 0
    for x in points:
        td = maps.tension(spec, x)
        h = spec.target.metric(spec(x), cfg)
        tension_res = max(tension_res, g_norm(h, td.tension))
        lee_res = max(lee_res, g_norm(h, td.lee_pushforward))
        c = maps.conformality(spec, x)
        if c.kind == KIND_CRITICAL:
            critical += 1
        else:
            conf_res = max(conf_res, c.conformality_residual)
    fibre_res, used, excluded = _fibre_residual(spec, points)
    _guard_excluded(excluded, len(points), "fibre minimality")
    hm_res = max(conf_res, tension_res)
    checks = [
        check("holomorphic", holo, tol, len(points)),
        biconditional_check("lee-pushforward-iff-tension", lee_res, tension_res,
                            tol, len(points)),
        biconditional_check("morphism-iff-minimal-fibres", hm_res, fibre_res,
                            tol, used, excluded),
    ]
    return _report(scenario_id, checks, plan, cfg, map=spec.name,
                   critical_samples=critical,
                   residuals={"lee_pushforward": lee_res, "tension": tension_res,
                              "fibre_minimality": fibre_res})


def check_cosymplectic_image(spec: MapSpec, plan: SamplePlan,
                             scenario_id: str = "cosymplectic-image") -> VerificationReport:
    """For a holomorphic horizontally weakly conformal map, the target is
    cosymplectic exactly when the map is a harmonic morphism.

    Density of the image cannot be decided numerically; the target structure is
    classified at the pushed sample points and that surrogate is recorded in
    the metadata.  The source's cosymplectic residual is recorded as context.
    """
    cfg = spec.cfg
    if spec.source_structure is None or spec.target_structure is None:
        raise PreconditionFailed("holomorphic", "structures missing on one side")
    points = plan.points(spec.source, cfg)
    scale = _map_scale(spec, points)
    tol = cfg.tolerance(scale)
    holo = max(maps.holomorphy_residual(spec, x) for x in points)
    if holo > tol:
        raise PreconditionFailed("holomorphic", f"residual {holo} > {tol}")
    conf_res = 0.0
    tension_res = 0.0
    pushed = []
    for x in points:
        c = maps.conformality(spec, x)
        if c.kind != KIND_CRITICAL:
            conf_res = max(conf_res, c.conformality_residual)
        h = spec.target.metric(spec(x), cfg)
        tension_res = max(tension_res, g_norm(h, maps.tension(spec, x).tension))
        pushed.append(spec(x))
    if conf_res > tol:
        raise PreconditionFailed("horizontally weakly conformal",
                                 f"residual {conf_res} > {tol}")
    source_cos = 0.0
    for x in points:
        g = spec.source.metric(x, cfg)
        source_cos = max(source_cos, g_norm(g, divergence_J(
            spec.source, spec.source_structure, x, cfg)))
    target_report = classify_structure(spec.target, spec.target_structure, plan, cfg,
                                       complex_form=False, points=pushed)
    hm_res = max(conf_res, tension_res)
    checks = [
        biconditional_check("target-cosymplectic-iff-harmonic-morphism",
                            target_report.residual_cosympl, hm_res, tol, len(points)),
    ]
    return _report(scenario_id, checks, plan, cfg, map=spec.name,
                   coverage="target classified at pushed samples (density surrogate)",
                   source_cosymplectic_residual=source_cos,
                   residuals={"target_cosymplectic": target_report.residual_cosympl,
                              "harmonic_morphism": hm_res})


def check_lemma_tension(spec: MapSpec, plan: SamplePlan,
                        scenario_id: str = "tension-identity") -> VerificationReport:
    """tau(phi) = -dphi(J div J) for holomorphic maps into a (1,2)-symplectic
    target, as a samplewise residual."""
    cfg = spec.cfg
    if spec.source_structure is None or spec.target_structure is None:
        raise PreconditionFailed("holomorphic", "structures missing on one side")
    points = plan.points(spec.source, cfg)
    scale = _map_scale(spec, points)
    tol = cfg.tolerance(scale)
    holo = max(maps.holomorphy_residual(spec, x) for x in points)
    if holo > tol:
        raise PreconditionFailed("holomorphic", f"residual {holo} > {tol}")
    pushed = [spec(x) for x in points]
    target_report = classify_structure(spec.target, spec.target_structure, plan, cfg,
                                       complex_form=False, points=pushed)
    if not target_report.verdicts["one_two_symplectic"]:
        raise PreconditionFailed("target (1,2)-symplectic",
                                 f"residual {target_report.residual_12sympl}")
    worst = 0.0
    sides = (0.0, 0.0)
    for x in points:
        td = maps.tension(spec, x)
        h = spec.target.metric(spec(x), cfg)
        worst = max(worst, td.lemma_residual)
        sides = (max(sides[0], g_norm(h, td.tension)),
                 max(sides[1], g_norm(h, td.lee_pushforward)))
    checks = [check("tension-equals-minus-lee-pushforward", worst, tol, len(points),
                    tension_norm=sides[0], lee_pushforward_norm=sides[1])]
    return _report(scenario_id, checks, plan, cfg, map=spec.name)


def check_integrability_theorem(spec: MapSpec, orientation: int, plan: SamplePlan,
                                scenario_id: str = "integrability") -> VerificationReport:
    """Lifted structures on a conformal submersion with 1-complex-dimensional
    fibres: superminimal fibres plus the horizontal bracket condition force the
    lifted structure to be integrable."""
    cfg = spec.cfg
    if spec.source.dim - spec.target.dim != 2:
        raise FibreDimension("integrability scenario needs 2-dimensional fibres")
    points = plan.points(spec.source, cfg)
    scale = _map_scale(spec, points)
    tol = cfg.tolerance(scale)
    pushed = [spec(x) for x in points]
    target_nij = 0.0
    for y in pushed:
        h = spec.target.metric(y, cfg)
        target_nij = max(target_nij, _nijenhuis_residual(spec.target,
                                                         spec.target_structure, y, h, cfg))
    if target_nij > tol:
        raise PreconditionFailed("target Hermitian", f"Nijenhuis residual {target_nij}")
    lifted = maps.lift_structure(spec, orientation)
    inv = lifted.invariant_residuals(points[: min(len(points), 5)], cfg)
    supermin = 0.0
    nij = 0.0
    used = 0
    excluded = 0
    included = []
    for x in points:
        c = maps.conformality(spec, x)
        if c.near_critical or not c.regular:
            excluded += 1
            continue
        included.append(x)
        supermin = max(supermin, maps.superminimality_residual(spec, lifted, x))
        g = spec.source.metric(x, cfg)
        nij = max(nij, _nijenhuis_residual(spec.source, lifted, x, g, cfg))
        used += 1
    _guard_excluded(excluded, len(points), "integrability sampling")
    cond_ii = maps.condition_ii_residual(spec, lifted, included)
    checks = [
        check("fibres-superminimal", supermin, tol, used, excluded),
        check("horizontal-bracket-condition", cond_ii, tol, used, excluded),
        implication_check("lifted-structure-integrable", max(supermin, cond_ii), nij,
                          tol, used, excluded),
    ]
    return _report(scenario_id, checks, plan, cfg, map=spec.name,
                   orientation=orientation, lifted_invariants=inv,
                   residuals={"superminimality": supermin, "condition_ii": cond_ii,
                              "nijenhuis": nij})


def check_lifted_structure(spec: MapSpec, orientation: int, plan: SamplePlan,
                           scenario_id: str, expect_parallel: bool) -> VerificationReport:
    """Integrability and (non-)parallelism of one lifted structure.

    With ``expect_parallel`` the covariant derivative of the lift must vanish;
    otherwise it must exceed the non-parallelism floor of 1e-3 somewhere.
    """
    cfg = spec.cfg
    points = plan.points(spec.source, cfg)
    scale = _map_scale(spec, points)
    tol = cfg.tolerance(scale)
    lifted = maps.lift_structure(spec, orientation)
    inv_points = points[:5]
    inv = lifted.invariant_residuals(inv_points, cfg)
    nij = 0.0
    nabla = 0.0
    d = spec.source.dim
    for x in points:
        g = spec.source.metric(x, cfg)
        t = nabla_j_tensor(spec.source, lifted, x, cfg)
        for i in range(d):
            for jdx in range(d):
                col = np.sqrt(max(float(t[i, :, jdx] @ g @ t[i, :, jdx]), 0.0))
                nabla = max(nabla, col)
        nij = max(nij, _nijenhuis_residual(spec.source, lifted, x, g, cfg))
    checks = [
        check("lift-square-identity", inv["square"], 1e-9, len(inv_points)),
        check("lift-metric-compatibility", inv["compatibility"], 1e-9, len(inv_points)),
        check("lifted-nijenhuis", nij, tol, len(points)),
    ]
    if expect_parallel:
        checks.append(check("lift-parallel", nabla, tol, len(points)))
    else:
        checks.append(check("lift-not-parallel", nabla, 1e-3, len(points), mode="gt"))
    return _report(scenario_id, checks, plan, cfg, map=spec.name,
                   orientation=orientation)


def check_gauduchon(chart: Chart, j_field: AlmostComplexField, plan: SamplePlan,
                    cfg: DiffConfig, scenario_id: str = "gauduchon",
                    expected_delta_norm: float | None = None) -> VerificationReport:
    """On complex dimension 2, J is parallel in the directions div J and
    J div J, over eight probe vectors per sample."""
    if chart.dim != 4:
        raise WrongDimension("this identity is specific to complex dimension 2")
    points = plan.points(chart, cfg)
    r_delta = 0.0
    r_lee = 0.0
    norm_dev = 0.0
    scale = 1.0
    for x in points:
        g = chart.metric(x, cfg)
        j = j_field(x)
        t = nabla_j_tensor(chart, j_field, x, cfg)
        delta = np.einsum("ij,ikj->k", np.linalg.inv(g), t)
        lee = j @ delta
        probes = []
        for i in range(4):
            e = np.zeros(4)
            e[i] = 1.0
            e = e / np.sqrt(g[i, i])
            probes.append(e)
            probes.append(j @ e)
        for y in probes:
            r_delta = max(r_delta, g_norm(g, np.einsum("ikj,i,j->k", t, delta, y)))
            r_lee = max(r_lee, g_norm(g, np.einsum("ikj,i,j->k", t, lee, y)))
        dn = g_norm(g, delta)
        scale = max(scale, (1.0 + dn) * (1.0 + float(np.max(np.abs(t)))))
        if expected_delta_norm is not None:
            norm_dev = max(norm_dev, abs(dn - expected_delta_norm))
    tol = cfg.tolerance(scale)
    checks = [
        check("divergence-direction-parallel", r_delta, tol, len(points)),
        check("lee-direction-parallel", r_lee, tol, len(points)),
    ]
    if expected_delta_norm is not None:
        checks.append(check("divergence-norm", norm_dev, tol, len(points),
                            expected=expected_delta_norm))
    return _report(scenario_id, checks, plan, cfg, probes_per_sample=8)


def check_divergence_closed_form(r: int, s: int, plan: SamplePlan, cfg: DiffConfig,
                                 scenario_id: str = "") -> VerificationReport:
    """Numerical div J on the odd-sphere product against the closed form
    -2 (r J1 n1 + s J2 n2) pushed to chart components."""
    entry = catalog.calabi_eckmann(r, s, cfg)
    chart = entry.charts["ce"]
    j_field = entry.structures["J"]
    points = plan.points(chart, cfg)
    worst = 0.0
    scale = 1.0
    for x in points:
        num = divergence_J(chart, j_field, x, cfg)
        ana = catalog.odd_sphere_product_divergence(chart, r, s, x, cfg)
        worst = max(worst, float(np.max(np.abs(num - ana))))
        scale = max(scale, 1.0 + float(np.max(np.abs(ana))))
    tol = cfg.tolerance(scale)
    sid = scenario_id or f"ce-{r}-{s}-divergence"
    return _report(sid, [check("divergence-matches-closed-form", worst, tol,
                               len(points))], plan, cfg, r=r, s=s)


def check_structure_verdicts(chart: Chart, j_field: AlmostComplexField, plan: SamplePlan,
                             cfg: DiffConfig, expected: dict,
                             scenario_id: str = "classify") -> VerificationReport:
    """Structure classification scored against the expected verdict pattern,
    plus agreement of the real-form and Hermitian-frame-form residuals."""
    report = classify_structure(chart, j_field, plan, cfg, complex_form=True)
    tol = report.tolerance
    n = len(report.samples)
    residuals = {
        "kahler": report.residual_kahler,
        "one_two_symplectic": report.residual_12sympl,
        "cosymplectic": report.residual_cosympl,
        "integrable": report.residual_integrable,
    }
    checks = []
    for name, value in residuals.items():
        want = expected[name]
        mode = "le" if want else "gt"
        bound = tol if want else COUPLING * tol
        checks.append(check(f"{name}-{'holds' if want else 'fails'}", value, bound,
                            n, mode=mode))
    checks.append(biconditional_check("one-two-symplectic-real-vs-complex-form",
                                      report.residual_12sympl,
                                      report.residual_12sympl_complex, tol, n))
    checks.append(biconditional_check("cosymplectic-real-vs-complex-form",
                                      report.residual_cosympl,
                                      report.residual_cosympl_complex, tol, n))
    return _report(scenario_id, checks, plan, cfg,
                   structure_report=report.to_dict())


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_ALL_TRUE = {"kahler": True, "one_two_symplectic": True, "cosymplectic": True,
             "integrable": True}
_CE_PATTERN = {"kahler": False, "one_two_symplectic": False, "cosymplectic": False,
               "integrable": True}


def _classify_scenario(entry_id: str, chart_key: str, expected: dict, sid: str):
    def run(plan: SamplePlan, cfg: DiffConfig) -> VerificationReport:
        entry = catalog.get_entry(entry_id)
        return check_structure_verdicts(entry.charts[chart_key], entry.structures["J"],
                                        plan, cfg, expected, scenario_id=sid)
    return run


def _scenario_hopf_s3(plan, cfg):
    entry = catalog.hopf_map(1, cfg)
    return check_harmonic_morphism(entry.maps["hopf"], plan, scenario_id="hopf-s3",
                                   include_holomorphy=True, include_fibres=True,
                                   expected_dilation=1.0)


def _scenario_product_hopf(plan, cfg):
    entry = catalog.product_hopf(1, 1, cfg=cfg)
    return check_harmonic_morphism(entry.maps["hopf"], plan,
                                   scenario_id="product-hopf-1-1",
                                   include_holomorphy=True, include_fibres=True,
                                   expected_dilation=1.0)


def _scenario_mobius(which: str):
    params = {"scale": (2.0, 0.0, 0.0, 1.0),
              "generic": (1.0, 0.3, 0.1, 1.0)}[which]

    def run(plan, cfg):
        entry = catalog.mobius_postcompose(catalog.hopf_map(1, cfg), params,
                                           suffix=f"mobius-{which}")
        return check_harmonic_morphism(entry.maps["hopf"], plan,
                                       scenario_id=f"hopf-s3-mobius-{which}",
                                       include_holomorphy=True)
    return run


def _scenario_lemma(entry_builder, map_name: str, sid: str):
    def run(plan, cfg):
        entry = entry_builder(cfg)
        return check_lemma_tension(entry.maps[map_name], plan, scenario_id=sid)
    return run


def _scenario_surface(entry_builder, map_name: str, sid: str):
    def run(plan, cfg):
        entry = entry_builder(cfg)
        return check_surface_case(entry.maps[map_name], plan, scenario_id=sid)
    return run


def _scenario_two_of_three(entry_builder, map_name: str, sid: str):
    def run(plan, cfg):
        entry = entry_builder(cfg)
        return check_two_of_three(entry.maps[map_name], plan, scenario_id=sid)
    return run


def _scenario_integrability(n: int, orientation: int, sid: str):
    def run(plan, cfg):
        entry = catalog.punctured_hopf(n, cfg=cfg)
        return check_integrability_theorem(entry.maps["hopf"], orientation, plan,
                                           scenario_id=sid)
    return run


def _scenario_lift(n: int, orientation: int, sid: str):
    def run(plan, cfg):
        entry = catalog.punctured_hopf(n, cfg=cfg)
        return check_lifted_structure(entry.maps["hopf"], orientation, plan,
                                      scenario_id=sid, expect_parallel=orientation == 1)
    return run


def _scenario_cosymplectic_image(perturbed: bool, sid: str):
    def run(plan, cfg):
        entry = catalog.punctured_hopf(2, perturbed=perturbed, cfg=cfg)
        report = check_cosymplectic_image(entry.maps["hopf"], plan, scenario_id=sid)
        if perturbed:
            # both sides of the biconditional must genuinely fail here
            res = report.metadata["residuals"]
            tol = cfg.tolerance(_map_scale(entry.maps["hopf"],
                                           plan.points(entry.charts["source"], cfg)))
            extra = check("both-sides-nonzero",
                          min(res["target_cosymplectic"], res["harmonic_morphism"]),
                          COUPLING * tol, plan.count, mode="gt")
            return VerificationReport(report.scenario_id, report.checks + (extra,),
                                      report.metadata)
        return report
    return run


def _scenario_gauduchon(entry_id: str, chart_key: str, expected_norm: float, sid: str):
    def run(plan, cfg):
        entry = catalog.get_entry(entry_id)
        return check_gauduchon(entry.charts[chart_key], entry.structures["J"], plan,
                               cfg, scenario_id=sid, expected_delta_norm=expected_norm)
    return run


def _scenario_annulus(rescaled: bool, sid: str):
    def run(plan, cfg):
        entry = catalog.annulus_radial(target_scale=1.7 if rescaled else 1.0, cfg=cfg)
        spec = entry.maps["radial"]
        points = plan.points(spec.source, cfg)
        scale = _map_scale(spec, points)
        tol = cfg.tolerance(scale)
        fibre_res, used, excluded = _fibre_residual(spec, points)
        _guard_excluded(excluded, len(points), "fibre minimality")
        dilations = [maps.conformality(spec, x).dilation for x in points]
        expected = [(1.7 if rescaled else 1.0) / x[0] for x in points]
        dev = max(abs(d - e) for d, e in zip(dilations, expected))
        checks = [
            check("fibre-minimality", fibre_res, tol, used, excluded),
            check("dilation-matches-target-rescaled-1-over-r", dev, tol, len(points)),
        ]
        return _report(sid, checks, plan, cfg, map=spec.name)
    return run


def _scenario_t4_integrability(plan, cfg):
    entry = catalog.flat_t4(cfg)
    return check_integrability_theorem(entry.maps["projection"], +1, plan,
                                       scenario_id="t4-projection-integrability")


def _scenario_torus_identity_image(plan, cfg):
    entry = catalog.flat_torus(cfg)
    return check_cosymplectic_image(entry.maps["identity"], plan,
                                    scenario_id="torus-identity-cosymplectic-image")


def _scenario_conjugation(plan, cfg):
    entry = catalog.flat_torus(cfg)
    return check_harmonic_morphism(entry.maps["conjugation"], plan,
                                   scenario_id="torus-conjugation")


def _scenario_nonconformal(plan, cfg):
    entry = catalog.flat_torus(cfg)
    return check_rejected_morphism(entry.maps["nonconformal"], plan,
                                   scenario_id="torus-nonconformal-rejected")


SCENARIOS: dict[str, tuple[str, Callable]] = {
    "torus-classify": ("flat torus structure classification (all classes hold)",
                       _classify_scenario("flat-torus", "torus", _ALL_TRUE,
                                          "torus-classify")),
    "cp-1-classify": ("Fubini-Study line: Kaehler classification",
                      _classify_scenario("cp-1", "cp", _ALL_TRUE, "cp-1-classify")),
    "cp-2-classify": ("Fubini-Study plane: Kaehler classification",
                      _classify_scenario("cp-2", "cp", _ALL_TRUE, "cp-2-classify")),
    "ce-1-0-classify": ("S3 x S1: integrable, not cosymplectic",
                        _classify_scenario("ce-1-0", "ce", _CE_PATTERN,
                                           "ce-1-0-classify")),
    "ce-1-1-classify": ("S3 x S3: integrable, not cosymplectic",
                        _classify_scenario("ce-1-1", "ce", _CE_PATTERN,
                                           "ce-1-1-classify")),
    "ce-1-0-divergence": ("div J on S3 x S1 against the closed form",
                          lambda plan, cfg: check_divergence_closed_form(1, 0, plan, cfg)),
    "ce-0-1-divergence": ("div J on S1 x S3 against the closed form",
                          lambda plan, cfg: check_divergence_closed_form(0, 1, plan, cfg)),
    "ce-1-1-divergence": ("div J on S3 x S3 against the closed form",
                          lambda plan, cfg: check_divergence_closed_form(1, 1, plan, cfg)),
    "ce-2-1-divergence": ("div J on S5 x S3 against the closed form",
                          lambda plan, cfg: check_divergence_closed_form(2, 1, plan, cfg)),
    "hopf-s3": ("Hopf projection: holomorphic Riemannian submersion with "
                "vanishing tension and geodesic fibres", _scenario_hopf_s3),
    "product-hopf-1-1": ("product Hopf projection: harmonic morphism checks",
                         _scenario_product_hopf),
    "product-hopf-1-1-lemma": ("tension identity on the product Hopf projection",
                               _scenario_lemma(lambda cfg: catalog.product_hopf(1, 1, cfg=cfg),
                                               "hopf", "product-hopf-1-1-lemma")),
    "torus-square-lemma": ("tension identity for the squaring map on the flat torus",
                           _scenario_lemma(catalog.flat_torus, "square",
                                           "torus-square-lemma")),
    "hopf-surface-lemma": ("tension identity with both sides nonzero",
                           _scenario_lemma(catalog.hopf_surface_coords, "coords",
                                           "hopf-surface-lemma")),
    "hopf-s3-surface-case": ("surface-target biconditionals for the Hopf projection",
                             _scenario_surface(lambda cfg: catalog.hopf_map(1, cfg),
                                               "hopf", "hopf-s3-surface-case")),
    "hopf-surface-coords-surface-case": ("surface-target biconditionals where both "
                                         "sides fail together",
                                         _scenario_surface(catalog.hopf_surface_coords,
                                                           "coords",
                                                           "hopf-surface-coords-surface-case")),
    "product-hopf-1-1-two-of-three": ("morphism/minimal-fibres/homothety coupling",
                                      _scenario_two_of_three(
                                          lambda cfg: catalog.product_hopf(1, 1, cfg=cfg),
                                          "hopf", "product-hopf-1-1-two-of-three")),
    "product-hopf-1-1-rescaled-two-of-three": ("coupling is stable under constant "
                                               "rescaling of the target metric",
                                               _scenario_two_of_three(
                                                   lambda cfg: catalog.product_hopf(
                                                       1, 1, target_scale=1.5, cfg=cfg),
                                                   "hopf",
                                                   "product-hopf-1-1-rescaled-two-of-three")),
    "punctured-hopf-2-two-of-three": ("coupling on the punctured-space projection",
                                      _scenario_two_of_three(
                                          lambda cfg: catalog.punctured_hopf(2, cfg=cfg),
                                          "hopf", "punctured-hopf-2-two-of-three")),
    "t4-projection-two-of-three": ("dimension gate: 2-dimensional target routes to "
                                   "the surface case",
                                   _scenario_two_of_three(catalog.flat_t4, "projection",
                                                          "t4-projection-two-of-three")),
    "punctured-hopf-1-lift-plus": ("orientation +1 lift is the parallel structure",
                                   _scenario_lift(1, +1, "punctured-hopf-1-lift-plus")),
    "punctured-hopf-1-lift-minus": ("orientation -1 lift is integrable, not parallel",
                                    _scenario_lift(1, -1, "punctured-hopf-1-lift-minus")),
    "punctured-hopf-2-lift-plus": ("orientation +1 lift is the parallel structure",
                                   _scenario_lift(2, +1, "punctured-hopf-2-lift-plus")),
    "punctured-hopf-2-lift-minus": ("orientation -1 lift is integrable, not parallel",
                                    _scenario_lift(2, -1, "punctured-hopf-2-lift-minus")),
    "punctured-hopf-1-integrability-plus": ("superminimality + bracket condition "
                                            "force integrability",
                                            _scenario_integrability(
                                                1, +1, "punctured-hopf-1-integrability-plus")),
    "punctured-hopf-1-integrability-minus": ("same, opposite fibre orientation",
                                             _scenario_integrability(
                                                 1, -1, "punctured-hopf-1-integrability-minus")),
    "punctured-hopf-2-integrability-plus": ("superminimality + bracket condition "
                                            "force integrability",
                                            _scenario_integrability(
                                                2, +1, "punctured-hopf-2-integrability-plus")),
    "punctured-hopf-2-integrability-minus": ("same, opposite fibre orientation",
                                             _scenario_integrability(
                                                 2, -1, "punctured-hopf-2-integrability-minus")),
    "t4-projection-integrability": ("integrable product projection (trivial case)",
                                    _scenario_t4_integrability),
    "punctured-hopf-2-cosymplectic-image": ("cosymplectic target matches the morphism "
                                            "verdict (both sides hold)",
                                            _scenario_cosymplectic_image(
                                                False, "punctured-hopf-2-cosymplectic-image")),
    "punctured-hopf-2-cosymplectic-image-perturbed": (
        "conformally stretched target: both sides fail together",
        _scenario_cosymplectic_image(True, "punctured-hopf-2-cosymplectic-image-perturbed")),
    "torus-identity-cosymplectic-image": ("identity on the flat torus (trivial case)",
                                          _scenario_torus_identity_image),
    "hopf-surface-gauduchon": ("div J directions are parallel on S3 x S1, |div J| = 2",
                               _scenario_gauduchon("ce-1-0", "ce", 2.0,
                                                   "hopf-surface-gauduchon")),
    "t4-gauduchon": ("div J directions are parallel on the flat 4-torus",
                     _scenario_gauduchon("flat-t4", "t4", 0.0, "t4-gauduchon")),
    "hopf-s3-mobius-scale": ("post-composition with w -> 2w keeps the morphism verdict",
                             _scenario_mobius("scale")),
    "hopf-s3-mobius-generic": ("post-composition with a generic fractional-linear "
                               "map keeps the morphism verdict",
                               _scenario_mobius("generic")),
    "torus-conjugation": ("anti-holomorphic isometry-like map is still a morphism",
                          _scenario_conjugation),
    "torus-nonconformal-rejected": ("a generic quadratic map is correctly rejected",
                                    _scenario_nonconformal),
    "annulus-radial-fibres": ("radial fibres of the annulus projection are straight",
                              _scenario_annulus(False, "annulus-radial-fibres")),
    "annulus-radial-rescaled-fibres": ("target rescaling changes the dilation, "
                                       "not the fibre geometry",
                                       _scenario_annulus(True, "annulus-radial-rescaled-fibres")),
}


def scenario_ids() -> list[str]:
    return sorted(SCENARIOS)


def scenario_description(scenario_id: str) -> str:
    try:
        return SCENARIOS[scenario_id][0]
    except KeyError:
        raise UnknownScenario(f"unknown scenario {scenario_id!r}") from None


def run_scenario(scenario_id: str, plan: SamplePlan, cfg: DiffConfig) -> VerificationReport:
    """Dispatch to the named check with freshly built catalog objects.

    Deterministic for equal (scenario_id, plan, cfg).
    """
    try:
        _, runner = SCENARIOS[scenario_id]
    except KeyError:
        raise UnknownScenario(f"unknown scenario {scenario_id!r}") from None
    return runner(plan, cfg)
