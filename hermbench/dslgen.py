"""Seeded generator of 4-dimensional geodsl configs whose verdicts are known.

Coordinates are x1..x4 with z1 = x1 + i*x2 and z2 = x3 + i*x4, on the box
[-1, 1]^4, and J is the standard structure (multiplication by i).

* Flat configs use g = I.  Every structure class holds.  Each carries
  holomorphic polynomial maps into C, which are harmonic morphisms, and one
  non-holomorphic quadratic map, which is neither horizontally conformal nor
  harmonic.
* Conformally flat configs use g = exp(2u) I with a trigonometric u.  (g, J)
  is integrable, but not Kaehler, (1,2)-symplectic or cosymplectic.

Every expression comes from a fixed template and the seed draws only its
coefficients, so every seed asks for the same amount of work.  Before a config
is written, :func:`self_check` confirms that it parses and that its text
means what the generator intended.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DIM = 4
DOMAIN = (-1.0, 1.0)
J_TEXT = (("0.0", "-1.0", "0.0", "0.0"),
          ("1.0", "0.0", "0.0", "0.0"),
          ("0.0", "0.0", "0.0", "-1.0"),
          ("0.0", "0.0", "1.0", "0.0"))

FLAT_CONFIGS = 3
CONFORMAL_CONFIGS = 3
#: Holomorphic maps as monomial templates z1^p * z2^q, one map per template.
HOLOMORPHIC_TEMPLATES = (
    ((1, 0), (0, 1), (1, 1)),
    ((1, 0), (0, 1), (2, 0), (0, 2)),
)
#: Bound on |J^2 + I| and |J^T g J - g| / max|g| at the probe points.
SELF_CHECK_TOL = 1e-12
PROBES = 5

VERDICTS_FLAT = {"kahler": True, "one_two_symplectic": True, "cosymplectic": True,
                 "integrable": True}
VERDICTS_CONFORMAL = {"kahler": False, "one_two_symplectic": False,
                      "cosymplectic": False, "integrable": True}


@dataclass(frozen=True)
class GeneratedConfig:
    """One config: its source, a numeric oracle for g and each map, and the
    verdicts the CLI must report."""

    name: str
    metric: tuple            # 4 x 4 expression strings
    metric_value: object     # point -> 4 x 4 array
    maps: tuple              # (name, (expr, expr), point -> 2-vector, harmonic morphism?)
    verdicts: dict

    @property
    def text(self) -> str:
        lines = [f"# {self.name}", f"dim = {DIM}"]
        lines += [f"domain x{i + 1} = [{DOMAIN[0]!r}, {DOMAIN[1]!r}]" for i in range(DIM)]
        lines.append("g = " + _matrix_text(self.metric))
        lines.append("J = " + _matrix_text(J_TEXT))
        for name, exprs, _, _ in self.maps:
            lines.append(f"map {name} -> 2 = [{exprs[0]}, {exprs[1]}]")
        return "\n".join(lines) + "\n"


def _num(value: float) -> str:
    return repr(float(value))


def _matrix_text(rows) -> str:
    return "[" + ", ".join("[" + ", ".join(row) + "]" for row in rows) + "]"


def _coef(rng: np.random.Generator, lo: float, hi: float) -> float:
    """A coefficient with random sign and magnitude in [lo, hi), four decimals,
    so the text and the oracle use the same double."""
    return round(float(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)), 4)


# ---------------------------------------------------------------------------
# real polynomials as {exponents of (x1, x2, x3, x4): coefficient}
# ---------------------------------------------------------------------------

_Z = ({(1, 0, 0, 0): 1.0, (0, 1, 0, 0): 1j},
      {(0, 0, 1, 0): 1.0, (0, 0, 0, 1): 1j})


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


def _monomial(p: int, q: int) -> dict:
    out = {(0, 0, 0, 0): 1.0 + 0j}
    for _ in range(p):
        out = _poly_mul(out, _Z[0])
    for _ in range(q):
        out = _poly_mul(out, _Z[1])
    return out


def _poly_text(poly: dict) -> str:
    terms = []
    for exps, c in sorted(poly.items(), reverse=True):
        if c == 0.0:
            continue
        factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                   for i, e in enumerate(exps) if e > 0]
        body = "*".join([_num(abs(c))] + factors)
        sign = "-" if c < 0 else "+"
        terms.append(f"{sign} {body}")
    text = " ".join(terms)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _holomorphic_map(rng: np.random.Generator, template) -> tuple:
    """Coefficients: linear ones of size about 1, higher ones at most 0.15, so
    the differential has no zero on the box."""
    coefs = []
    for p, q in template:
        lo, hi = (0.8, 1.2) if p + q == 1 else (0.05, 0.15)
        coefs.append(complex(_coef(rng, lo, hi), _coef(rng, lo, hi)))
    poly: dict = {}
    for c, (p, q) in zip(coefs, template):
        for e, v in _monomial(p, q).items():
            poly[e] = poly.get(e, 0) + c * v
    exprs = (_poly_text({e: v.real for e, v in poly.items()}),
             _poly_text({e: v.imag for e, v in poly.items()}))

    def value(x):
        z1, z2 = complex(x[0], x[1]), complex(x[2], x[3])
        w = sum(c * z1**p * z2**q for c, (p, q) in zip(coefs, template))
        return np.array([w.real, w.imag])
    return exprs, value


def _quadratic_map(rng: np.random.Generator) -> tuple:
    a = [abs(_coef(rng, 0.5, 1.0)) for _ in range(5)]
    exprs = (f"{_num(a[0])}*x1^2 + {_num(a[1])}*x2^2 + {_num(a[2])}*x3",
             f"{_num(a[3])}*x1*x3 + {_num(a[4])}*x4")

    def value(x):
        return np.array([a[0] * x[0]**2 + a[1] * x[1]**2 + a[2] * x[2],
                         a[3] * x[0] * x[2] + a[4] * x[3]])
    return exprs, value


def _flat_config(rng: np.random.Generator, name: str) -> GeneratedConfig:
    maps = []
    for k, template in enumerate(HOLOMORPHIC_TEMPLATES):
        exprs, value = _holomorphic_map(rng, template)
        maps.append((f"holo{k + 1}", exprs, value, True))
    exprs, value = _quadratic_map(rng)
    maps.append(("quad", exprs, value, False))
    metric = tuple(tuple(_num(1.0 if i == j else 0.0) for j in range(DIM))
                   for i in range(DIM))
    return GeneratedConfig(name, metric, lambda x: np.eye(DIM), tuple(maps),
                           dict(VERDICTS_FLAT))


def _conformal_config(rng: np.random.Generator, name: str) -> GeneratedConfig:
    a1, a2 = (abs(_coef(rng, 0.15, 0.4)) for _ in range(2))
    b1, b2, b3, b4 = (abs(_coef(rng, 0.5, 1.5)) for _ in range(4))
    u = (f"{_num(a1)}*sin({_num(b1)}*x1 + {_num(b2)}*x3) + "
         f"{_num(a2)}*cos({_num(b3)}*x2 - {_num(b4)}*x4)")
    factor = f"exp(2*({u}))"
    metric = tuple(tuple(factor if i == j else _num(0.0) for j in range(DIM))
                   for i in range(DIM))

    def metric_value(x):
        uu = a1 * math.sin(b1 * x[0] + b2 * x[2]) + a2 * math.cos(b3 * x[1] - b4 * x[3])
        return math.exp(2.0 * uu) * np.eye(DIM)
    return GeneratedConfig(name, metric, metric_value, (), dict(VERDICTS_CONFORMAL))


def generate(seed: int) -> list[GeneratedConfig]:
    """The workload's configs for one seed, in a fixed order."""
    rng = np.random.default_rng([seed, 0x6765])
    configs = [_flat_config(rng, f"flat-{k}") for k in range(FLAT_CONFIGS)]
    configs += [_conformal_config(rng, f"conformal-{k}") for k in range(CONFORMAL_CONFIGS)]
    return configs


# ---------------------------------------------------------------------------
# self-check
# ---------------------------------------------------------------------------

class GeneratorError(Exception):
    """A generated config does not mean what the generator intended."""


def _eval_text(expr: str, x) -> float:
    """Evaluate generated expression text with Python's own arithmetic; the
    generator only writes + - * / ^, numbers, x1..x4, sin, cos and exp, whose
    precedence matches Python's once ^ is spelled **."""
    names = {f"x{i + 1}": float(v) for i, v in enumerate(x)}
    names.update(sin=math.sin, cos=math.cos, exp=math.exp)
    return float(eval(expr.replace("^", "**"), {"__builtins__": {}}, names))


def probe_points(seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng([seed, 0x7072])
    return [np.zeros(DIM)] + [rng.uniform(*DOMAIN, DIM) for _ in range(PROBES - 1)]


def self_check(config: GeneratedConfig, parse, probes) -> None:
    """Raise GeneratorError unless the config parses, its text agrees with the
    oracle, and J^2 = -I and g(J., J.) = g hold at every probe point."""
    try:
        parse(config.text)
    except Exception as exc:  # any parser failure means the generator is wrong
        raise GeneratorError(f"{config.name}: does not parse: {exc}") from exc
    for x in probes:
        g = np.array([[_eval_text(e, x) for e in row] for row in config.metric])
        g_oracle = config.metric_value(x)
        scale = max(1.0, float(np.max(np.abs(g_oracle))))
        if np.max(np.abs(g - g_oracle)) > SELF_CHECK_TOL * scale:
            raise GeneratorError(f"{config.name}: metric text disagrees with its oracle at {x}")
        j = np.array([[_eval_text(e, x) for e in row] for row in J_TEXT])
        if np.max(np.abs(j @ j + np.eye(DIM))) > SELF_CHECK_TOL:
            raise GeneratorError(f"{config.name}: J^2 != -I at {x}")
        if np.max(np.abs(j.T @ g @ j - g)) > SELF_CHECK_TOL * scale:
            raise GeneratorError(f"{config.name}: J is not g-compatible at {x}")
        for name, exprs, value, _ in config.maps:
            got = np.array([_eval_text(e, x) for e in exprs])
            want = value(x)
            if np.max(np.abs(got - want)) > SELF_CHECK_TOL * max(1.0, float(np.max(np.abs(want)))):
                raise GeneratorError(f"{config.name}: map {name} text disagrees with its oracle")


def write_configs(seed: int, directory: Path, parse) -> list[tuple[Path, GeneratedConfig]]:
    """Generate, self-check and write the configs for a seed."""
    directory.mkdir(parents=True, exist_ok=True)
    probes = probe_points(seed)
    out = []
    for config in generate(seed):
        self_check(config, parse, probes)
        path = directory / f"{config.name}.geo"
        path.write_text(config.text, encoding="utf-8")
        out.append((path, config))
    return out
