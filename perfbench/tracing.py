"""In-memory span tracing of the qheun layers, installed from outside src/.

A span is ``(name, start, end, parent, case, slot)``: ``slot`` numbers the
spans in the order they open, ``parent`` is the slot of the enclosing span
(or -1) and ``case`` the id of the benchmark case that was running.  Spans
are appended when they close, so a child precedes its parent in the list.

``install`` replaces every module attribute (and, for methods, the class
attribute) that names a wrapped function with a timing wrapper, because
names such as ``spectral_polynomial`` are imported by value into several
qheun modules and patching only the defining module would miss those calls.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

#: span name -> (module, attribute[, class]) of the wrapped public function.
#: The layer of a span is the part of its name before the first dot.
WRAPPED = {
    "cli.main": ("qheun.cli", "main"),
    "cli.load_params": ("qheun.cli", "load_params"),
    "ultra.classify": ("qheun.ultra", "classify"),
    "ultra.predict_roots": ("qheun.ultra", "predict_roots"),
    "ultra.tilde_cN1": ("qheun.ultra", "tilde_cN1"),
    "ultra.leading_recursion": ("qheun.ultra", "leading_recursion"),
    "ultra.collision_check": ("qheun.ultra", "collision_check"),
    "ultra.multiplicity_prefactors": ("qheun.ultra", "multiplicity_prefactors"),
    "spectral.spectral_polynomial": ("qheun.spectral", "spectral_polynomial"),
    "spectral.coefficients_exact": ("qheun.spectral", "coefficients_exact"),
    "spectral.image": ("qheun.spectral", "coefficient_values", "EPoly"),
    "spectral.coefficients_numeric": ("qheun.spectral", "coefficients_numeric"),
    "spectral.residual_check": ("qheun.spectral", "residual_check"),
    "qmono.reduce": ("qheun.spectral", "reduced_coefficient", "EPoly"),
    "qmono.equiv_sim": ("qheun.qmono", "equiv_sim"),
    "qmono.equiv_approx": ("qheun.qmono", "equiv_approx"),
    "qmono.ultradiscretize": ("qheun.qmono", "ultradiscretize"),
    "qmono.eval_terms": ("qheun.qmono", "eval_terms"),
    "roots.find_spectral_roots": ("qheun.roots", "find_spectral_roots"),
    "roots.find_real_roots": ("qheun.roots", "find_real_roots"),
    "roots.real_roots_of_rational_poly": ("qheun.roots", "real_roots_of_rational_poly"),
    "roots.estimate_exponents": ("qheun.roots", "estimate_exponents"),
    "roots.match_predictions": ("qheun.roots", "match_predictions"),
}

LAYERS = ("cli", "ultra", "spectral", "qmono", "roots")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, object, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.case = None
        self._stack: list[int] = []
        self._next = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            slot = tracer._next
            tracer._next += 1
            tracer._stack.append(slot)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.counts[name + ".raised." + type(exc).__name__] += 1
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((name, start, end, parent, tracer.case, slot))
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def install(self, hooks=None) -> None:
        """Patch every attribute naming a function of WRAPPED.  ``hooks``
        maps span names to ``after(tracer, args, result)`` callbacks."""
        hooks = hooks or {}
        modules = [m for n, m in sys.modules.items() if n == "qheun" or n.startswith("qheun.")]
        for name, (modname, attr, *cls) in WRAPPED.items():
            owner = sys.modules[modname]
            if cls:
                owner = getattr(owner, cls[0])
                original = owner.__dict__[attr]
                targets = [owner]
            else:
                original = getattr(owner, attr)
                targets = [m for m in modules if m.__dict__.get(attr) is original]
            wrapper = self._wrap(name, original, hooks.get(name))
            for target in targets:
                self._patched.append((target, attr, original))
                setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()


# -- span arithmetic -------------------------------------------------------


def _positions(spans) -> dict[int, int]:
    """Slot id -> list position (slots are assigned when a span opens,
    positions when it closes)."""
    return {s[5]: i for i, s in enumerate(spans)}


def child_time(spans) -> list[float]:
    """Per span: the time its direct children cover.  Children of one span
    never overlap (one thread), so that is the sum of their durations."""
    pos = _positions(spans)
    out = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            out[pos[s[3]]] += s[2] - s[1]
    return out


def layer_self(spans) -> dict[str, float]:
    """Self time (duration minus children) summed per layer."""
    out = {layer: 0.0 for layer in LAYERS}
    for s, covered in zip(spans, child_time(spans)):
        out[layer_of(s[0])] += s[2] - s[1] - covered
    return out


def group_time(spans, names) -> float:
    """Wall time inside spans named in ``names``, counting a span only when
    no enclosing span is also in ``names`` (equiv_approx calls
    ultradiscretize, for one)."""
    pos = _positions(spans)
    total = 0.0
    for s in spans:
        if s[0] not in names:
            continue
        parent = s[3]
        while parent >= 0 and spans[pos[parent]][0] not in names:
            parent = spans[pos[parent]][3]
        if parent < 0:
            total += s[2] - s[1]
    return total


def covered_share(spans, name) -> float | None:
    """Share of the time of spans called ``name`` that their children cover."""
    covered = child_time(spans)
    total = sum(s[2] - s[1] for s in spans if s[0] == name)
    inner = sum(c for s, c in zip(spans, covered) if s[0] == name)
    return inner / total if total else None
