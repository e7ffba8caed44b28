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

Registry
--------
``SCENARIOS`` is a data table: each row names a description, a ``check_*``
function of this module, a catalog entry id, the key of a map or a chart in
that entry, and the check's keyword arguments.  :func:`run_scenario` builds the
entry at the run's ``DiffConfig`` and calls the check on the map, or on the
chart with the entry's structure ``J``.

A map check builds the map's jet at its samples once, as one stack, in
:func:`_map_points`, and every operator reads that stacked jet (or the rows
:meth:`maps.PointJet.take` selects from it), one stacked call each: the
conformality data, holomorphy, the tension, the Lee push-forward and the
third-order operators.  A check that reads the stencil (fibres, homothety, the
lifts) builds the jet over its samples and their stencil points at once.  So a
map check takes one ``maps.differential`` call, and reads phi, the target metric,
the conformality data and the source structure jet at its samples from the jet.
A structure check builds one stacked structure jet for all its samples (the lift
checks, one for the lifted J) and reads its rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Sequence

import numpy as np

from . import catalog, maps
from .errors import (CriticalPoint, FibreDimension, PreconditionFailed,
                     TargetDimensionTooSmall, TooManyExcludedSamples,
                     UnknownScenario, WrongDimension)
from .hermitian import (AlmostComplexField, StructureJet, apply_j, classify_structure,
                        divergence_J, g_norm, invariant_residuals, nabla_J, nijenhuis,
                        pair_norms, structure_jet, unit_axes)
from .manifold import Chart, SamplePlan
from .maps import KIND_DEGENERATE, ConformalityData, MapSpec, PointJet
from .numdiff import TOLERANCE_FACTOR, Array, DiffConfig, g_length

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
                   "tolerance_factor": TOLERANCE_FACTOR},
        "plan": {"seed": plan.seed, "count": plan.count, "margin": plan.margin},
    }
    meta.update(metadata)
    return VerificationReport(scenario_id, tuple(checks), meta)


def _guard_excluded(excluded: int, total: int, what: str) -> None:
    if excluded > EXCLUSION_CAP * total:
        raise TooManyExcludedSamples(
            f"{excluded}/{total} samples excluded as near-critical in {what}")


def _map_scale(stack: PointJet) -> float:
    """Input-magnitude scale for map residual tolerances: differentials enter
    the tension and conformality sums quadratically."""
    return (1.0 + max([0.0, *(float(np.linalg.norm(d)) for d in stack.differential)])) ** 2


def _nijenhuis_residual(jet: StructureJet) -> float:
    """Max |N(e_a, e_b)| over coordinate pairs and the rows of a stacked jet, in one pass."""
    return float(np.max(pair_norms(nijenhuis, jet, combinations(np.eye(jet.x.shape[1]), 2))))


def _map_points(spec: MapSpec, plan: SamplePlan,
                stencil: bool = False) -> tuple[PointJet, float]:
    """The stacked jet at the plan's samples on its source (with ``stencil``, built
    with their stencil points) and the map-residual tolerance."""
    stack = maps.point_jet(spec, plan.points(spec.source, spec.cfg), stencil)
    return stack, spec.cfg.tolerance(_map_scale(stack))


def _lift_invariants(metric: Array, j: Array) -> tuple[dict, int]:
    """max|J^2 + I| and max|J^T g J - g| of a lifted J over the first five
    samples, and their number."""
    square, compat = invariant_residuals(metric[:5], j[:5])
    return {"square": float(np.max(square)), "compatibility": float(np.max(compat))}, len(square)


def _conformality_max(confs: ConformalityData) -> float:
    """Largest conformality residual over the non-critical samples."""
    return float(np.max(confs.conformality_residual[confs.rank > 0], initial=0.0))


def _target_max(stack: PointJet, vectors) -> float:
    """The largest target-metric norm at phi(x) over the rows of ``vectors``, a
    stack of target vectors at the rows of a stacked jet."""
    return max([0.0, *g_norm(stack.target_metric, vectors).tolist()])


def _fibre_residual(stack: PointJet) -> tuple[float, int, int]:
    """Max fibre mean-curvature norm over regular, non-near-critical samples,
    with the number of samples used and excluded; too many exclusions raise."""
    degenerate = np.flatnonzero(stack.split.kind == KIND_DEGENERATE)
    if degenerate.size:
        raise CriticalPoint(f"degenerate-rank sample at {stack.x[degenerate[0]]!r}")
    rows = np.flatnonzero(stack.split.regular & ~stack.split.near_critical)
    excluded, used = int(np.sum(stack.split.near_critical)), stack.take(rows)
    values = g_norm(used.metric, maps.fibre_mean_curvature(used)) if rows.size else []
    _guard_excluded(excluded, len(stack.x), "fibre minimality")
    return float(np.max(values, initial=0.0)), len(values), excluded


def _require_holomorphic(spec: MapSpec, stack: PointJet, tol: float) -> float:
    """The holomorphy residual over the samples; raises unless it is within tol."""
    if spec.source_structure is None or spec.target_structure is None:
        raise PreconditionFailed("holomorphic", "structures missing on one side")
    holo = max(maps.holomorphy_residual(stack))
    if holo > tol:
        raise PreconditionFailed("holomorphic", f"residual {holo} > {tol}")
    return holo


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
    stack, tol = _map_points(spec, plan, stencil=include_fibres)
    confs, n = stack.split, len(stack.x)
    checks = [
        check("horizontally-weakly-conformal", _conformality_max(confs), tol, n),
        check("tension-vanishes", _target_max(stack, maps.tension(stack)), tol, n),
    ]
    if include_holomorphy:
        checks.insert(0, check("holomorphic", max(maps.holomorphy_residual(stack)), tol, n))
    if expected_dilation is not None:
        dev = float(np.max(np.abs(confs.dilation[confs.rank > 0] - expected_dilation),
                           initial=0.0))
        checks.append(check("dilation-deviation", dev, tol, n, expected=expected_dilation))
    if include_fibres:
        fibre_res, used, excluded = _fibre_residual(stack)
        checks.append(check("fibre-minimality", fibre_res, tol, used, excluded))
    return _report(scenario_id, checks, plan, spec.cfg,
                   critical_samples=int(np.sum(confs.rank == 0)), map=spec.name)


def check_rejected_morphism(spec: MapSpec, plan: SamplePlan,
                            scenario_id: str) -> VerificationReport:
    """The detector must *fail* this map: conformality or tension residual is
    genuinely large (rejection mode)."""
    stack, tol = _map_points(spec, plan)
    conf_res = _conformality_max(stack.split)
    tension_res = _target_max(stack, maps.tension(stack))
    return _report(scenario_id, [
        check("non-morphism-detected", max(conf_res, tension_res), COUPLING * tol,
              len(stack.x), mode="gt", conformality=conf_res, tension=tension_res),
    ], plan, spec.cfg, map=spec.name)


def check_two_of_three(spec: MapSpec, plan: SamplePlan,
                       scenario_id: str = "two-of-three") -> VerificationReport:
    """For targets of real dimension > 2: of {harmonic morphism, minimal fibres,
    horizontal homothety}, any two passing force the third at the coupling
    factor.  Dimension-2 targets route to :func:`check_surface_case`."""
    if spec.target.dim <= 2:
        if spec.source_structure is None or spec.target_structure is None:
            raise TargetDimensionTooSmall(
                "target has real dimension 2 and no structures for the surface case")
        report = check_surface_case(spec, plan, scenario_id=scenario_id)
        meta = dict(report.metadata)
        meta["routed"] = "surface-case"
        return VerificationReport(report.scenario_id, report.checks, meta)
    stack, tol = _map_points(spec, plan, stencil=True)
    maps.require_regular(stack, "two-of-three needs regular samples")
    tension = g_norm(stack.target_metric, maps.tension(stack))
    hm_res = float(np.max([stack.split.conformality_residual, tension], initial=0.0))
    fibre_res, used, excluded = _fibre_residual(stack)
    hom_res = max(maps.homothety_residual(stack))
    n = len(stack.x)
    checks = [
        implication_check("morphism+minimal-imply-homothetic",
                          max(hm_res, fibre_res), hom_res, tol, n),
        implication_check("minimal+homothetic-imply-morphism",
                          max(fibre_res, hom_res), hm_res, tol, n),
        implication_check("morphism+homothetic-imply-minimal",
                          max(hm_res, hom_res), fibre_res, tol, used, excluded),
    ]
    return _report(scenario_id, checks, plan, spec.cfg, map=spec.name,
                   residuals={"harmonic_morphism": hm_res, "fibre_minimality": fibre_res,
                              "homothety": hom_res})


def check_surface_case(spec: MapSpec, plan: SamplePlan,
                       scenario_id: str = "surface-case") -> VerificationReport:
    """Holomorphic maps to a 1-complex-dimensional target: the Lee push-forward
    vanishes exactly when the tension does, and the morphism verdict matches
    fibre minimality at regular points."""
    if spec.target.dim != 2:
        raise WrongDimension("surface case needs a target of real dimension 2")
    stack, tol = _map_points(spec, plan, stencil=True)
    holo = _require_holomorphic(spec, stack, tol)
    tension_res = _target_max(stack, maps.tension(stack))
    lee_res = _target_max(stack, maps.lee_pushforward(stack))
    confs = stack.split
    fibre_res, used, excluded = _fibre_residual(stack)
    hm_res = max(_conformality_max(confs), tension_res)
    checks = [
        check("holomorphic", holo, tol, len(stack.x)),
        biconditional_check("lee-pushforward-iff-tension", lee_res, tension_res,
                            tol, len(stack.x)),
        biconditional_check("morphism-iff-minimal-fibres", hm_res, fibre_res,
                            tol, used, excluded),
    ]
    return _report(scenario_id, checks, plan, spec.cfg, map=spec.name,
                   critical_samples=int(np.sum(confs.rank == 0)),
                   residuals={"lee_pushforward": lee_res, "tension": tension_res,
                              "fibre_minimality": fibre_res})


def check_cosymplectic_image(spec: MapSpec, plan: SamplePlan,
                             scenario_id: str = "cosymplectic-image",
                             expect_both_fail: bool = False) -> VerificationReport:
    """For a holomorphic horizontally weakly conformal map, the target is
    cosymplectic exactly when the map is a harmonic morphism.

    Density of the image cannot be decided numerically; the target structure is
    classified at the pushed sample points and that surrogate is recorded in
    the metadata.  The source's cosymplectic residual is recorded as context.
    With ``expect_both_fail`` both sides of the biconditional must also be
    genuinely nonzero.
    """
    cfg = spec.cfg
    stack, tol = _map_points(spec, plan)
    _require_holomorphic(spec, stack, tol)
    conf_res = _conformality_max(stack.split)
    if conf_res > tol:
        raise PreconditionFailed("horizontally weakly conformal",
                                 f"residual {conf_res} > {tol}")
    source = stack.structure
    source_cos = float(np.max(g_norm(source.metric, divergence_J(source)), initial=0.0))
    target_report = classify_structure(spec.target, spec.target_structure, plan, cfg,
                                       points=stack.image)
    target_cos = target_report.residual_cosympl
    hm_res = max(conf_res, _target_max(stack, maps.tension(stack)))
    checks = [
        biconditional_check("target-cosymplectic-iff-harmonic-morphism",
                            target_cos, hm_res, tol, len(stack.x)),
    ]
    if expect_both_fail:
        checks.append(check("both-sides-nonzero", min(target_cos, hm_res),
                            COUPLING * tol, len(stack.x), mode="gt"))
    return _report(scenario_id, checks, plan, cfg, map=spec.name,
                   coverage="target classified at pushed samples (density surrogate)",
                   source_cosymplectic_residual=source_cos,
                   residuals={"target_cosymplectic": target_cos,
                              "harmonic_morphism": hm_res})


def check_lemma_tension(spec: MapSpec, plan: SamplePlan,
                        scenario_id: str = "tension-identity") -> VerificationReport:
    """tau(phi) = -dphi(J div J) for holomorphic maps into a (1,2)-symplectic
    target, as a samplewise residual."""
    cfg = spec.cfg
    stack, tol = _map_points(spec, plan)
    _require_holomorphic(spec, stack, tol)
    target_report = classify_structure(spec.target, spec.target_structure, plan, cfg,
                                       points=stack.image)
    if not target_report.verdicts["one_two_symplectic"]:
        raise PreconditionFailed("target (1,2)-symplectic",
                                 f"residual {target_report.residual_12sympl}")
    tau, push = maps.tension(stack), maps.lee_pushforward(stack)
    checks = [check("tension-equals-minus-lee-pushforward",
                    _target_max(stack, tau + push), tol, len(stack.x),
                    tension_norm=_target_max(stack, tau),
                    lee_pushforward_norm=_target_max(stack, push))]
    return _report(scenario_id, checks, plan, cfg, map=spec.name)


def check_integrability_theorem(spec: MapSpec, orientation: int, plan: SamplePlan,
                                scenario_id: str = "integrability") -> VerificationReport:
    """Lifted structures on a conformal submersion with 1-complex-dimensional
    fibres: superminimal fibres plus the horizontal bracket condition force the
    lifted structure to be integrable."""
    cfg = spec.cfg
    if spec.source.dim - spec.target.dim != 2:
        raise FibreDimension("integrability scenario needs 2-dimensional fibres")
    stack, tol = _map_points(spec, plan, stencil=True)
    target_nij = _nijenhuis_residual(structure_jet(spec.target, spec.target_structure,
                                                  stack.image, cfg, connection=False))
    if target_nij > tol:
        raise PreconditionFailed("target Hermitian", f"Nijenhuis residual {target_nij}")
    first = stack.take(np.arange(min(5, len(stack.x))))
    inv, _ = _lift_invariants(first.metric, maps.lifted_j(first, orientation))
    rows = np.flatnonzero(stack.split.regular & ~stack.split.near_critical)
    used, excluded = len(rows), len(stack.x) - len(rows)
    _guard_excluded(excluded, len(stack.x), "integrability sampling")
    included = stack.take(rows)
    lifted = maps.lifted_structure_jet(included, orientation)
    supermin = max(maps.superminimality_residual(included, lifted))
    nij = _nijenhuis_residual(lifted)
    cond_ii = max(maps.condition_ii_residual(included, lifted))
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
    stack, tol = _map_points(spec, plan, stencil=True)
    lifted = maps.lifted_structure_jet(stack, orientation)
    inv, inv_count = _lift_invariants(lifted.metric, lifted.j)
    nabla = float(np.max(g_length(np.moveaxis(lifted.nabla, (1, 3), (0, 1)), lifted.metric)))
    nij = _nijenhuis_residual(lifted)
    checks = [
        check("lift-square-identity", inv["square"], 1e-9, inv_count),
        check("lift-metric-compatibility", inv["compatibility"], 1e-9, inv_count),
        check("lifted-nijenhuis", nij, tol, len(stack.x)),
    ]
    if expect_parallel:
        checks.append(check("lift-parallel", nabla, tol, len(stack.x)))
    else:
        checks.append(check("lift-not-parallel", nabla, 1e-3, len(stack.x), mode="gt"))
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
    jets = structure_jet(chart, j_field, points, cfg)
    g, delta = jets.metric, divergence_J(jets)
    probes = [p for e in unit_axes(g) for p in (e, apply_j(jets, e))]
    norms = pair_norms(nabla_J, jets, product((delta, apply_j(jets, delta)), probes))
    r_delta, r_lee = (float(np.max(half)) for half in np.split(norms, 2))
    dn = g_norm(g, delta)
    scale = max(1.0, float(np.max((1.0 + dn) * (1.0 + np.max(np.abs(jets.nabla),
                                                              axis=(1, 2, 3))))))
    norm_dev = (0.0 if expected_delta_norm is None
                else float(np.max(np.abs(dn - expected_delta_norm))))
    tol = cfg.tolerance(scale)
    checks = [
        check("divergence-direction-parallel", r_delta, tol, len(points)),
        check("lee-direction-parallel", r_lee, tol, len(points)),
    ]
    if expected_delta_norm is not None:
        checks.append(check("divergence-norm", norm_dev, tol, len(points),
                            expected=expected_delta_norm))
    return _report(scenario_id, checks, plan, cfg, probes_per_sample=8)


def check_divergence_closed_form(chart: Chart, j_field: AlmostComplexField,
                                 plan: SamplePlan, cfg: DiffConfig, scenario_id: str,
                                 r: int, s: int) -> VerificationReport:
    """Numerical div J on the odd-sphere product S^{2r+1} x S^{2s+1} against
    the closed form -2 (r J1 n1 + s J2 n2) pushed to chart components."""
    points = plan.points(chart, cfg)
    nums = divergence_J(structure_jet(chart, j_field, points, cfg))
    ana = catalog.odd_sphere_product_divergence(chart, r, s, points, cfg)
    worst = float(np.max(np.abs(nums - ana)))
    tol = cfg.tolerance(max(1.0, 1.0 + float(np.max(np.abs(ana)))))
    return _report(scenario_id, [check("divergence-matches-closed-form", worst, tol,
                                       len(points))], plan, cfg, r=r, s=s)


def check_structure_verdicts(chart: Chart, j_field: AlmostComplexField, plan: SamplePlan,
                             cfg: DiffConfig, expected: dict,
                             scenario_id: str = "classify") -> VerificationReport:
    """Structure classification scored against the expected verdict pattern:
    a ``holds`` check per class expected to hold, a ``fails`` rejection check
    per class expected to fail."""
    report = classify_structure(chart, j_field, plan, cfg)
    tol, n = report.tolerance, len(report.samples)
    checks = [check(f"{name}-holds", value, tol, n) if expected[name]
              else check(f"{name}-fails", value, COUPLING * tol, n, mode="gt")
              for name, value in report.residuals.items()]
    return _report(scenario_id, checks, plan, cfg,
                   structure_report=report.to_dict())


def check_radial_fibres(spec: MapSpec, plan: SamplePlan, scenario_id: str,
                        target_scale: float) -> VerificationReport:
    """Straight radial fibres of the annulus projection are minimal, and the
    dilation is target_scale / r."""
    stack, tol = _map_points(spec, plan, stencil=True)
    fibre_res, used, excluded = _fibre_residual(stack)
    dev = float(np.max(np.abs(stack.split.dilation - target_scale / stack.x[:, 0])))
    checks = [
        check("fibre-minimality", fibre_res, tol, used, excluded),
        check("dilation-matches-target-rescaled-1-over-r", dev, tol, len(stack.x)),
    ]
    return _report(scenario_id, checks, plan, spec.cfg, map=spec.name)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_ALL_TRUE = {"kahler": True, "one_two_symplectic": True, "cosymplectic": True,
             "integrable": True}
_CE_PATTERN = {"kahler": False, "one_two_symplectic": False, "cosymplectic": False,
               "integrable": True}
_MORPHISM_EXTRAS = {"include_holomorphy": True, "include_fibres": True,
                    "expected_dilation": 1.0}

#: scenario id -> (description, check function name, catalog entry id, map or
#: chart key in that entry, keyword arguments of the check).
SCENARIOS: dict[str, tuple[str, str, str, str, dict]] = {
    "torus-classify": ("flat torus structure classification (all classes hold)",
                       "check_structure_verdicts", "flat-torus", "torus",
                       {"expected": _ALL_TRUE}),
    "cp-1-classify": ("Fubini-Study line: Kaehler classification",
                      "check_structure_verdicts", "cp-1", "cp", {"expected": _ALL_TRUE}),
    "cp-2-classify": ("Fubini-Study plane: Kaehler classification",
                      "check_structure_verdicts", "cp-2", "cp", {"expected": _ALL_TRUE}),
    "ce-1-0-classify": ("S3 x S1: integrable, not cosymplectic",
                        "check_structure_verdicts", "ce-1-0", "ce",
                        {"expected": _CE_PATTERN}),
    "ce-1-1-classify": ("S3 x S3: integrable, not cosymplectic",
                        "check_structure_verdicts", "ce-1-1", "ce",
                        {"expected": _CE_PATTERN}),
    "ce-1-0-divergence": ("div J on S3 x S1 against the closed form",
                          "check_divergence_closed_form", "ce-1-0", "ce", {"r": 1, "s": 0}),
    "ce-0-1-divergence": ("div J on S1 x S3 against the closed form",
                          "check_divergence_closed_form", "ce-0-1", "ce", {"r": 0, "s": 1}),
    "ce-1-1-divergence": ("div J on S3 x S3 against the closed form",
                          "check_divergence_closed_form", "ce-1-1", "ce", {"r": 1, "s": 1}),
    "ce-2-1-divergence": ("div J on S5 x S3 against the closed form",
                          "check_divergence_closed_form", "ce-2-1", "ce", {"r": 2, "s": 1}),
    "hopf-s3": ("Hopf projection: holomorphic Riemannian submersion with "
                "vanishing tension and geodesic fibres",
                "check_harmonic_morphism", "hopf-s3", "hopf", _MORPHISM_EXTRAS),
    "product-hopf-1-1": ("product Hopf projection: harmonic morphism checks",
                         "check_harmonic_morphism", "product-hopf-1-1", "hopf",
                         _MORPHISM_EXTRAS),
    "product-hopf-1-1-lemma": ("tension identity on the product Hopf projection",
                               "check_lemma_tension", "product-hopf-1-1", "hopf", {}),
    "torus-square-lemma": ("tension identity for the squaring map on the flat torus",
                           "check_lemma_tension", "flat-torus", "square", {}),
    "hopf-surface-lemma": ("tension identity with both sides nonzero",
                           "check_lemma_tension", "hopf-surface-coords", "coords", {}),
    "hopf-s3-surface-case": ("surface-target biconditionals for the Hopf projection",
                             "check_surface_case", "hopf-s3", "hopf", {}),
    "hopf-surface-coords-surface-case": ("surface-target biconditionals where both "
                                         "sides fail together",
                                         "check_surface_case", "hopf-surface-coords",
                                         "coords", {}),
    "product-hopf-1-1-two-of-three": ("morphism/minimal-fibres/homothety coupling",
                                      "check_two_of_three", "product-hopf-1-1", "hopf", {}),
    "product-hopf-1-1-rescaled-two-of-three": ("coupling is stable under constant "
                                               "rescaling of the target metric",
                                               "check_two_of_three",
                                               "product-hopf-1-1-rescaled", "hopf", {}),
    "punctured-hopf-2-two-of-three": ("coupling on the punctured-space projection",
                                      "check_two_of_three", "punctured-hopf-2", "hopf", {}),
    "t4-projection-two-of-three": ("dimension gate: 2-dimensional target routes to "
                                   "the surface case",
                                   "check_two_of_three", "flat-t4", "projection", {}),
    "punctured-hopf-1-lift-plus": ("orientation +1 lift is the parallel structure",
                                   "check_lifted_structure", "punctured-hopf-1", "hopf",
                                   {"orientation": 1, "expect_parallel": True}),
    "punctured-hopf-1-lift-minus": ("orientation -1 lift is integrable, not parallel",
                                    "check_lifted_structure", "punctured-hopf-1", "hopf",
                                    {"orientation": -1, "expect_parallel": False}),
    "punctured-hopf-2-lift-plus": ("orientation +1 lift is the parallel structure",
                                   "check_lifted_structure", "punctured-hopf-2", "hopf",
                                   {"orientation": 1, "expect_parallel": True}),
    "punctured-hopf-2-lift-minus": ("orientation -1 lift is integrable, not parallel",
                                    "check_lifted_structure", "punctured-hopf-2", "hopf",
                                    {"orientation": -1, "expect_parallel": False}),
    "punctured-hopf-1-integrability-plus": ("superminimality + bracket condition "
                                            "force integrability",
                                            "check_integrability_theorem",
                                            "punctured-hopf-1", "hopf", {"orientation": 1}),
    "punctured-hopf-1-integrability-minus": ("same, opposite fibre orientation",
                                             "check_integrability_theorem",
                                             "punctured-hopf-1", "hopf", {"orientation": -1}),
    "punctured-hopf-2-integrability-plus": ("superminimality + bracket condition "
                                            "force integrability",
                                            "check_integrability_theorem",
                                            "punctured-hopf-2", "hopf", {"orientation": 1}),
    "punctured-hopf-2-integrability-minus": ("same, opposite fibre orientation",
                                             "check_integrability_theorem",
                                             "punctured-hopf-2", "hopf", {"orientation": -1}),
    "t4-projection-integrability": ("integrable product projection (trivial case)",
                                    "check_integrability_theorem", "flat-t4", "projection",
                                    {"orientation": 1}),
    "punctured-hopf-2-cosymplectic-image": ("cosymplectic target matches the morphism "
                                            "verdict (both sides hold)",
                                            "check_cosymplectic_image", "punctured-hopf-2",
                                            "hopf", {}),
    "punctured-hopf-2-cosymplectic-image-perturbed": (
        "conformally stretched target: both sides fail together",
        "check_cosymplectic_image", "punctured-hopf-2-perturbed", "hopf",
        {"expect_both_fail": True}),
    "torus-identity-cosymplectic-image": ("identity on the flat torus (trivial case)",
                                          "check_cosymplectic_image", "flat-torus",
                                          "identity", {}),
    "hopf-surface-gauduchon": ("div J directions are parallel on S3 x S1, |div J| = 2",
                               "check_gauduchon", "ce-1-0", "ce",
                               {"expected_delta_norm": 2.0}),
    "t4-gauduchon": ("div J directions are parallel on the flat 4-torus",
                     "check_gauduchon", "flat-t4", "t4", {"expected_delta_norm": 0.0}),
    "hopf-s3-mobius-scale": ("post-composition with w -> 2w keeps the morphism verdict",
                             "check_harmonic_morphism", "hopf-s3-mobius-scale", "hopf",
                             {"include_holomorphy": True}),
    "hopf-s3-mobius-generic": ("post-composition with a generic fractional-linear "
                               "map keeps the morphism verdict",
                               "check_harmonic_morphism", "hopf-s3-mobius-generic", "hopf",
                               {"include_holomorphy": True}),
    "torus-conjugation": ("anti-holomorphic isometry-like map is still a morphism",
                          "check_harmonic_morphism", "flat-torus", "conjugation", {}),
    "torus-nonconformal-rejected": ("a generic quadratic map is correctly rejected",
                                    "check_rejected_morphism", "flat-torus", "nonconformal",
                                    {}),
    "annulus-radial-fibres": ("radial fibres of the annulus projection are straight",
                              "check_radial_fibres", "annulus-radial", "radial",
                              {"target_scale": 1.0}),
    "annulus-radial-rescaled-fibres": ("target rescaling changes the dilation, "
                                       "not the fibre geometry",
                                       "check_radial_fibres", "annulus-radial-rescaled",
                                       "radial", {"target_scale": 1.7}),
}


def scenario_ids() -> list[str]:
    return sorted(SCENARIOS)


def scenario_description(scenario_id: str) -> str:
    try:
        return SCENARIOS[scenario_id][0]
    except KeyError:
        raise UnknownScenario(f"unknown scenario {scenario_id!r}") from None


def run_scenario(scenario_id: str, plan: SamplePlan, cfg: DiffConfig) -> VerificationReport:
    """Build the scenario's catalog entry at ``cfg`` and run its check on the
    named map, or on the named chart with the entry's structure ``J``.

    Deterministic for equal (scenario_id, plan, cfg).
    """
    try:
        _, check_name, entry_id, key, kwargs = SCENARIOS[scenario_id]
    except KeyError:
        raise UnknownScenario(f"unknown scenario {scenario_id!r}") from None
    entry = catalog.get_entry(entry_id, cfg)
    # Looked up at call time, so a wrapper installed on the module attribute
    # (as a tracer does) is the one that runs.
    run = globals()[check_name]
    if key in entry.maps:
        return run(entry.maps[key], plan=plan, scenario_id=scenario_id, **kwargs)
    return run(entry.charts[key], entry.structures["J"], plan=plan, cfg=cfg,
               scenario_id=scenario_id, **kwargs)
