"""Outside-in layer trace: wrap every public ``quenta`` function, keep self times.

``install()`` imports every module of the ``quenta`` package and replaces
each public function it defines with a timing wrapper, in every ``quenta``
module namespace that binds it (``rank`` is called both as ``code.rank``
and as ``oracle.rank``).  Methods are left alone: field arithmetic is
called millions of times and is part of its caller's self time.

A wrapper's self time is its duration minus the durations of the wrapped
calls made inside it.  The functions named in ``REQUIRED`` feed the
per-layer metrics; a missing one is an error, never a silent zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import statistics
from time import perf_counter

LAYERS = ("gf", "poly", "defset", "code", "constructions", "oracle", "cli", "config")

REQUIRED = (
    "code.rank", "code.kernel_basis", "code.product", "code.cyclic_code",
    "code.hermitian_dual_code", "code.min_distance_exhaustive",
    "poly.generator_from_defset",
    "oracle.relative_min_weight", "oracle.entanglement_rank_euclid",
    "oracle.entanglement_rank_hermitian", "oracle.verify_instance", "oracle.instances",
    "cli.main", "cli.output_row",
)


def _public_functions(module):
    """(name, function) for each public function the module itself defines."""
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


def quenta_modules() -> list:
    import quenta
    mods = [quenta]
    for info in pkgutil.iter_modules(quenta.__path__):
        mods.append(importlib.import_module(f"quenta.{info.name}"))
    return mods


def patch_everywhere(modules, original, replacement) -> int:
    """Rebind ``original`` to ``replacement`` in every module that binds it."""
    bound = 0
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if obj is original:
                setattr(mod, name, replacement)
                bound += 1
    return bound


class Tracer:
    """Self time and call counts per wrapped function, plus a few work counts."""

    def __init__(self):
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts = {
            "code.rank.entries": 0,
            "code.min_distance.capped": 0,
            "code.min_distance.words": 0,
            "oracle.relative_min_weight.capped": 0,
        }
        self.cyclic_keys: set = set()
        self._stack: list[float] = []
        self._observers = {
            "code.rank": self._observe_rank,
            "code.min_distance_exhaustive": self._observe_min_distance,
            "oracle.relative_min_weight": self._observe_relative,
            "code.cyclic_code": self._observe_cyclic,
        }

    def install(self) -> None:
        modules = quenta_modules()
        wrapped = {}
        for mod in modules[1:]:
            layer = mod.__name__.split(".", 1)[1]
            for name, fn in _public_functions(mod):
                wrapped[f"{layer}.{name}"] = fn
        missing = [key for key in REQUIRED if key not in wrapped]
        missing += [layer for layer in LAYERS
                    if not any(key.startswith(layer + ".") for key in wrapped)]
        if missing:
            raise LookupError(f"trace: not found in quenta: {', '.join(missing)}")
        for key, fn in wrapped.items():
            self.self_s[key] = 0.0
            self.calls[key] = 0
            patch_everywhere(modules, fn, self._wrap(key, fn))

    def _wrap(self, key, fn):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        observe = self._observers.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            outcome = None
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                dt = perf_counter() - t0
                self_s[key] += dt - stack.pop()
                calls[key] += 1
                if stack:
                    stack[-1] += dt
                if observe is not None:
                    observe(args, kwargs, outcome)

        return traced

    def _observe_rank(self, args, kwargs, outcome):
        M = args[0] if args else kwargs["M"]
        self.counts["code.rank.entries"] += M.nrows * M.ncols

    def _observe_min_distance(self, args, kwargs, outcome):
        if isinstance(outcome, Exception):
            if type(outcome).__name__ == "EnumerationCapError":
                self.counts["code.min_distance.capped"] += 1
            return
        C = args[0] if args else kwargs["C"]
        # computed, not observed: early exit at weight 1 enumerates fewer
        self.counts["code.min_distance.words"] += C.field.q ** C.k

    def _observe_relative(self, args, kwargs, outcome):
        if outcome == "capped":
            self.counts["oracle.relative_min_weight.capped"] += 1

    def _observe_cyclic(self, args, kwargs, outcome):
        Z, base, ext = args[:3]
        self.cyclic_keys.add((Z.n, Z.q, tuple(sorted(Z.elems)),
                              base.p, base.m, tuple(base.modulus),
                              ext.p, ext.m, tuple(ext.modulus)))

    def dump(self) -> dict:
        return {"self_s": self.self_s, "calls": self.calls,
                "counts": dict(self.counts, **{"code.cyclic_code.distinct": len(self.cyclic_keys)})}


def _layer_sum(table: dict, layer: str) -> float:
    return sum(v for key, v in table.items() if key.split(".", 1)[0] == layer)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def pass_metrics(raw: dict) -> dict[str, float]:
    """Per-layer metric values of one traced pass."""
    s, c, n = raw["self_s"], raw["calls"], raw["counts"]
    instances = c["oracle.verify_instance"]
    out = {f"{layer}.self_s": _layer_sum(s, layer) for layer in LAYERS}
    out.update({
        "gf.calls": _layer_sum(c, "gf"),
        "poly.generator.calls": c["poly.generator_from_defset"],
        "defset.calls": _layer_sum(c, "defset"),
        "constructions.calls": _layer_sum(c, "constructions"),
        "code.rank.self_s": s["code.rank"],
        "code.rank.calls": c["code.rank"],
        "code.rank.entries": n["code.rank.entries"],
        "code.kernel_basis.self_s": s["code.kernel_basis"],
        "code.product.self_s": s["code.product"],
        "code.cyclic_code.self_s": s["code.cyclic_code"],
        "code.cyclic_code.calls": c["code.cyclic_code"],
        "code.cyclic_code.distinct_ratio": _ratio(n["code.cyclic_code.distinct"],
                                                  c["code.cyclic_code"]),
        "code.hermitian_dual_code.calls_per_instance": _ratio(c["code.hermitian_dual_code"],
                                                              instances),
        "code.min_distance.self_s": s["code.min_distance_exhaustive"],
        "code.min_distance.calls": c["code.min_distance_exhaustive"],
        "code.min_distance.capped": n["code.min_distance.capped"],
        "code.min_distance.words": n["code.min_distance.words"],
        "code.min_distance.words_per_s": _ratio(n["code.min_distance.words"],
                                                s["code.min_distance_exhaustive"]),
        "oracle.relative_min_weight.self_s": s["oracle.relative_min_weight"],
        "oracle.relative_min_weight.calls": c["oracle.relative_min_weight"],
        "oracle.relative_min_weight.capped": n["oracle.relative_min_weight.capped"],
        "oracle.entanglement_rank.self_s": (s["oracle.entanglement_rank_euclid"]
                                            + s["oracle.entanglement_rank_hermitian"]),
        "oracle.verify_instance.self_s": s["oracle.verify_instance"],
        "oracle.instances.self_s": s["oracle.instances"],
    })
    return out


COUNT_METRICS = (
    "gf.calls", "poly.generator.calls", "defset.calls", "constructions.calls",
    "code.rank.calls", "code.rank.entries", "code.cyclic_code.calls",
    "code.cyclic_code.distinct_ratio", "code.hermitian_dual_code.calls_per_instance",
    "code.min_distance.calls", "code.min_distance.capped", "code.min_distance.words",
    "oracle.relative_min_weight.calls", "oracle.relative_min_weight.capped",
)


def combine(passes: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median over traced passes; counts must agree exactly between passes."""
    problems = [f"{name} differs between traced passes: {[p[name] for p in passes]}"
                for name in COUNT_METRICS
                if any(p[name] != passes[0][name] for p in passes)]
    merged = {name: (passes[0][name] if name in COUNT_METRICS
                     else statistics.median(p[name] for p in passes))
              for name in passes[0]}
    return merged, problems
