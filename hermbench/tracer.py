"""Outside-in layer tracer for hermkit.

The tracer wraps named entry points of each hermkit module from outside the
package: nothing under ``src/`` changes.  A module function is replaced at
every hermkit module that binds it (``hermitian`` and ``maps`` import
``christoffel`` and ``orthonormalize`` by name, ``scenarios`` imports
``classify_structure``), and a method is replaced on its class.  An entry
point that cannot be found raises :class:`TracerError`, so a rename cannot
silently zero a count.

Every wrapped call is a span.  Spans nest on a stack; when a span closes, its
duration is added to its parent's child time, and its self time (duration
minus the time its child spans cover) to its name.  Spans are folded into
per-name counts and times as they close instead of being stored one by one:
a pass opens millions of them, and storing each would inflate the traced
run's memory.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: Traced entry points by layer.  ``Class.method`` names a method.  Besides the
#: functions that per-layer counts are reported for, each layer lists its main
#: public operators, so their time is not charged to the caller's layer.
LAYERS = {
    "numdiff": ("partial", "second_partial", "orthonormalize"),
    "manifold": ("Box.contains", "Chart.contains", "Chart.require_interior",
                 "Chart.metric", "Chart.metric_inverse", "SamplePlan.points",
                 "christoffel", "gradient", "lie_bracket"),
    "hermitian": ("AlmostComplexField.__call__", "hermitian_frame", "dj_stack",
                  "nabla_j_tensor", "divergence_J", "lee_vector", "nijenhuis",
                  "classify_structure"),
    "maps": ("MapSpec.__call__", "differential", "holomorphy_residual", "conformality",
             "sff_tensor", "tension", "fibre_mean_curvature", "homothety_residual",
             "superminimality_residual", "lift_structure", "condition_ii_residual"),
    "catalog": ("get_entry", "flat_torus", "flat_t4", "complex_projective",
                "calabi_eckmann", "hopf_map", "product_hopf", "punctured_hopf",
                "hopf_surface_coords", "annulus_radial", "mobius_postcompose"),
    "geodsl": ("parse", "evaluate", "to_chart", "to_map"),
    "scenarios": ("run_scenario", "check_harmonic_morphism", "check_rejected_morphism",
                  "check_two_of_three", "check_surface_case", "check_cosymplectic_image",
                  "check_lemma_tension", "check_integrability_theorem",
                  "check_lifted_structure", "check_gauduchon",
                  "check_divergence_closed_form", "check_structure_verdicts"),
    "cli": ("main",),
}

#: Functions outside hermkit whose calls are counted without a span, so their
#: time stays with the hermkit caller: (module, function).
COUNTED = (("numpy.linalg", "svd"),)

PACKAGE = "hermkit"


class TracerError(Exception):
    """A listed entry point was not found, or the tracer was misused."""


def names() -> set:
    """Every name a tracer reports calls for."""
    out = {span_name(layer, entry) for layer, entries in LAYERS.items() for entry in entries}
    return out | {f"{module}.{attr}" for module, attr in COUNTED}


def span_name(layer: str, entry: str) -> str:
    """Report name of an entry point: ``maps.MapSpec.__call__`` reads
    ``maps.MapSpec.call``."""
    return f"{layer}.{entry.replace('__call__', 'call')}"


class Tracer:
    """Installs wrappers on enter and restores the originals on exit.

    After a traced region, ``calls`` maps span and counter names to call
    counts, ``self_s`` maps span names to their self time, and ``outer_s``
    maps each layer to the time spent in its outermost spans (spans with no
    enclosing span of the same layer).
    """

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: dict = defaultdict(float)
        self.outer_s: dict = defaultdict(float)
        self._stack: list = []
        self._depth: Counter = Counter()
        self._restore: list = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, layer: str, name: str, fn):
        stack = self._stack
        depth = self._depth
        calls = self.calls
        self_s = self.self_s
        outer_s = self.outer_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            depth[layer] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                depth[layer] -= 1
                if stack:
                    stack[-1][0] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - frame[0]
                if depth[layer] == 0:
                    outer_s[layer] += elapsed
        return traced

    def _counter(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def layer_self_s(self, layer: str) -> float:
        """Self time of all spans of a layer."""
        prefix = layer + "."
        return sum(t for name, t in self.self_s.items() if name.startswith(prefix))

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper, home) -> None:
        """Replace ``original`` in ``home`` and in every hermkit module that
        binds it under any name."""
        owners = [home] + [m for n, m in sorted(sys.modules.items())
                           if m is not None and m is not home
                           and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._set(owner, attr, wrapper)

    def __enter__(self) -> "Tracer":
        if self._restore:
            raise TracerError("tracer is already installed")
        try:
            for layer, entries in LAYERS.items():
                module = sys.modules.get(f"{PACKAGE}.{layer}")
                if module is None:
                    raise TracerError(f"module {PACKAGE}.{layer} is not loaded")
                for entry in entries:
                    self._install_span(module, layer, entry)
            for module_name, attr in COUNTED:
                module = sys.modules[module_name]
                original = getattr(module, attr, None)
                if original is None:
                    raise TracerError(f"{module_name}.{attr} not found")
                self._rebind(original, self._counter(f"{module_name}.{attr}", original),
                             module)
        except BaseException:
            self._uninstall()
            raise
        return self

    def _install_span(self, module, layer: str, entry: str) -> None:
        name = span_name(layer, entry)
        if "." in entry:
            cls_name, method = entry.split(".")
            cls = getattr(module, cls_name, None)
            original = None if cls is None else cls.__dict__.get(method)
            if not callable(original):
                raise TracerError(f"{PACKAGE}.{layer}.{entry} not found")
            self._set(cls, method, self._span(layer, name, original))
            return
        original = getattr(module, entry, None)
        if not callable(original):
            raise TracerError(f"{PACKAGE}.{layer}.{entry} not found")
        self._rebind(original, self._span(layer, name, original), module)

    def _uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc) -> None:
        self._uninstall()
        if self._stack:
            raise TracerError("spans still open when the tracer was removed")
