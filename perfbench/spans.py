"""Layer spans recorded from outside the program.

Tracing replaces public boundary functions of `ferchar` at module-attribute
level, in the module that calls them, with wrappers that time each call.
Nothing under `src/` is edited.  A span's self time is its duration minus
the time spent in wrapped calls made inside it, so the self times of all
spans add up to the time spent inside the outermost span.

Spans are aggregated per name as they close (calls, self time); the
per-call counters that the metrics need are taken from the arguments or
results at the same boundary.
"""

from __future__ import annotations

import functools
import importlib
import time

# span name -> ((module, attribute), ...) as seen from the calling module.
# int_rank and reduce_rows are wrapped where presented and fusion call them,
# so the reduce_rows calls inside int_rank stay part of the rank span.
BOUNDARIES = {
    "cli": (("ferchar.cli", "main"),),
    "verify": (("ferchar.verify", "run_case"),),
    "exactlin.rank": (("ferchar.presented", "int_rank"),),
    "exactlin.reduce": (("ferchar.presented", "reduce_rows"),
                        ("ferchar.fusion", "reduce_rows")),
    "presented.enumerate": (("ferchar.presented", "component_monomials"),),
    "presented.relations": (("ferchar.presented", "relation_rows"),),
    "presented.components": (("ferchar.presented", "component_dimension"),),
    "presented.normal_form": (("ferchar.fusion", "normal_form_basis"),),
    "fusion.module": (("ferchar.fusion", "principal_subspace"),),
    "fusion.filtration": (("ferchar.fusion", "fusion_character"),),
    "fusion.apply": (("ferchar.fusion", "FusionContext.apply"),),
    "fermionic.sum": (("ferchar.fermionic", "evaluate_fermionic_sum"),
                      ("ferchar.fermionic", "lattice_principal_character")),
    "fermionic.limit": (("ferchar.fermionic", "character_L_fusion"),),
    "fermionic.poly": (("ferchar.fermionic", "limit_sum_polynomial"),),
    "gradedchar.compare": (("ferchar.verify", "compare"),
                           ("ferchar.fermionic", "compare"),
                           ("ferchar.fusion", "compare")),
    "gradedchar.convolve": (("ferchar.fermionic", "convolve"),),
}

# the spans below verify.run_case; their self time is the attributed share
LAYER_SPANS = tuple(n for n in BOUNDARIES if n not in ("cli", "verify"))


class BoundaryMissing(RuntimeError):
    pass


def _resolve(module: str, attr: str):
    """(owner object, attribute name, current value) for module.attr[.sub]."""
    owner = importlib.import_module(module)
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last, getattr(owner, last)


def check_boundaries() -> None:
    """Raise BoundaryMissing naming every wrapped attribute that is gone."""
    missing = []
    for targets in BOUNDARIES.values():
        for module, attr in targets:
            try:
                _resolve(module, attr)
            except (ImportError, AttributeError):
                missing.append(f"{module}.{attr}")
    if missing:
        raise BoundaryMissing("traced boundaries no longer exist: "
                              + ", ".join(missing))


def _cols(rows) -> int:
    return 1 + max((max(r) for r in rows if r), default=-1)


class Tracer:
    """Installs the span wrappers and accumulates per-span totals."""

    def __init__(self):
        self.calls = dict.fromkeys(BOUNDARIES, 0)
        self.self_s = dict.fromkeys(BOUNDARIES, 0.0)
        self.counts = {"rank_cells": 0, "rank_max_rows": 0, "rank_max_cols": 0,
                       "escalations": 0, "relation_rows_total": 0,
                       "stabilized_at_max": 0}
        self._stack: list[float] = []  # child time of each open span
        self._monomials = None

    def install(self) -> None:
        check_boundaries()
        observers = {"exactlin.rank": self._on_rank,
                     "presented.relations": self._on_relations,
                     "fermionic.limit": self._on_limit}
        for name, targets in BOUNDARIES.items():
            for module, attr in targets:
                owner, last, fn = _resolve(module, attr)
                if name == "presented.enumerate":
                    self._monomials = fn
                setattr(owner, last, self._wrap(name, fn, observers.get(name)))

    def _wrap(self, name, fn, observe):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dur
                calls[name] += 1
                self_s[name] += dur - inner
            if observe is not None:
                observe(args, result)
            return result

        return span

    def _on_rank(self, args, result) -> None:
        rows, cols = len(args[0]), _cols(args[0])
        c = self.counts
        c["rank_cells"] += rows * cols
        c["rank_max_rows"] = max(c["rank_max_rows"], rows)
        c["rank_max_cols"] = max(c["rank_max_cols"], cols)
        c["escalations"] += result.escalated

    def _on_relations(self, args, result) -> None:
        self.counts["relation_rows_total"] += len(result[0])

    def _on_limit(self, args, result) -> None:
        c = self.counts
        c["stabilized_at_max"] = max(c["stabilized_at_max"], result.stabilized_at)

    def summary(self, pass_s: float) -> dict:
        """Per-layer values of one traced pass, keyed by metric name."""
        s, n, c = self.self_s, self.calls, self.counts
        info = self._monomials.cache_info()
        lookups = info.hits + info.misses
        out = {
            "exactlin.rank_s": s["exactlin.rank"],
            "exactlin.rank_calls": n["exactlin.rank"],
            "exactlin.rank_cells": c["rank_cells"],
            "exactlin.rank_max_rows": c["rank_max_rows"],
            "exactlin.rank_max_cols": c["rank_max_cols"],
            "exactlin.escalations": c["escalations"],
            "exactlin.reduce_s": s["exactlin.reduce"],
            "exactlin.reduce_calls": n["exactlin.reduce"],
            "presented.enumerate_s": s["presented.enumerate"],
            "presented.enumerate_calls": n["presented.enumerate"],
            "presented.monomial_cache_hit_ratio":
                info.hits / lookups if lookups else 0.0,
            "presented.monomial_cache_entries": info.currsize,
            "presented.relations_s": s["presented.relations"],
            "presented.relation_rows_total": c["relation_rows_total"],
            "presented.components": n["presented.components"],
            "presented.normal_form_s": s["presented.normal_form"],
            "fusion.module_s": s["fusion.module"],
            "fusion.filtration_s": s["fusion.filtration"],
            "fusion.apply_s": s["fusion.apply"],
            "fusion.apply_calls": n["fusion.apply"],
            "fermionic.sum_s": s["fermionic.sum"],
            "fermionic.limit_s": s["fermionic.limit"],
            "fermionic.poly_s": s["fermionic.poly"],
            "fermionic.poly_calls": n["fermionic.poly"],
            "fermionic.stabilized_at_max": c["stabilized_at_max"],
            "gradedchar.compare_s": s["gradedchar.compare"],
            "gradedchar.convolve_s": s["gradedchar.convolve"],
            "verify.self_s": s["verify"],
            "cli.self_s": s["cli"],
            "trace.attributed_frac":
                sum(s[name] for name in LAYER_SPANS) / pass_s,
        }
        return out
