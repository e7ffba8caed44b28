"""The benchmark's workloads as lists of CLI calls with known verdicts.

Each workload takes the workload seed, which feeds ``--seed`` of every call
and the DSL config generator; the program sees only the generated inputs.

* ``catalog-maps``: the 29 registered scenarios that build a MapSpec, with
  few points each.  ``maps``, ``numdiff`` and ``manifold.Box.contains`` do
  most of the work, on NumPy closures from ``catalog``.
* ``catalog-structures``: the 11 scenarios that build no map, with many
  points each.  ``hermitian`` and ``christoffel`` do most of the work and
  ``maps`` does none, so a maps optimisation should leave it unchanged.
* ``dsl-configs``: ``classify`` and ``check-map`` on generated 4-dimensional
  configs.  The same ``numdiff``/``hermitian``/``maps`` code runs on
  interpreted expression trees instead of catalog closures, and expected-false
  verdicts catch a change that makes everything pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import dslgen

CATALOG_MAPS = (
    "annulus-radial-fibres", "annulus-radial-rescaled-fibres",
    "hopf-s3", "hopf-s3-mobius-generic", "hopf-s3-mobius-scale",
    "hopf-s3-surface-case", "hopf-surface-coords-surface-case", "hopf-surface-lemma",
    "product-hopf-1-1", "product-hopf-1-1-lemma",
    "product-hopf-1-1-rescaled-two-of-three", "product-hopf-1-1-two-of-three",
    "punctured-hopf-1-integrability-minus", "punctured-hopf-1-integrability-plus",
    "punctured-hopf-1-lift-minus", "punctured-hopf-1-lift-plus",
    "punctured-hopf-2-cosymplectic-image", "punctured-hopf-2-cosymplectic-image-perturbed",
    "punctured-hopf-2-integrability-minus", "punctured-hopf-2-integrability-plus",
    "punctured-hopf-2-lift-minus", "punctured-hopf-2-lift-plus",
    "punctured-hopf-2-two-of-three",
    "t4-projection-integrability", "t4-projection-two-of-three",
    "torus-conjugation", "torus-identity-cosymplectic-image",
    "torus-nonconformal-rejected", "torus-square-lemma",
)
CATALOG_STRUCTURES = (
    "ce-1-0-classify", "ce-1-1-classify", "cp-1-classify", "cp-2-classify",
    "torus-classify",
    "ce-0-1-divergence", "ce-1-0-divergence", "ce-1-1-divergence", "ce-2-1-divergence",
    "hopf-surface-gauduchon", "t4-gauduchon",
)
#: Sample points per CLI call.
POINTS = {"catalog-maps": 2, "catalog-structures": 12, "dsl-configs": 16}
NAMES = tuple(POINTS)


@dataclass(frozen=True)
class Item:
    """One CLI call and the verdicts it must report: ``overall`` always, and
    for ``classify`` the four class verdicts."""

    label: str
    argv: tuple
    points: int
    overall: bool
    verdicts: dict | None = None


def _flags(seed: int, points: int) -> tuple:
    return ("--report", "json", "--seed", str(seed), "--points", str(points))


def items(workload: str, seed: int, workdir: Path, parse=None) -> list[Item]:
    """The workload's calls for one seed.  ``dsl-configs`` writes its configs
    under ``workdir`` and needs ``parse``, the config parser, for the
    generator's self-check."""
    points = POINTS[workload]
    flags = _flags(seed, points)
    if workload != "dsl-configs":
        ids = CATALOG_MAPS if workload == "catalog-maps" else CATALOG_STRUCTURES
        # every catalog scenario holds at the default DiffConfig
        return [Item(sid, ("run", sid) + flags, points, True) for sid in ids]
    out = []
    for path, config in dslgen.write_configs(seed, workdir / f"seed-{seed}", parse):
        cfg_flags = ("--config", str(path)) + flags
        out.append(Item(f"classify {config.name}", ("classify",) + cfg_flags, points,
                        all(config.verdicts.values()), config.verdicts))
        for name, _, _, morphism in config.maps:
            out.append(Item(f"check-map {config.name} {name}",
                            ("check-map", "--map", name) + cfg_flags, points, morphism))
    return out
