"""In-memory span tracer for the galbench package, installed from outside.

`Tracer.install` wraps every public function of every `galbench` module in
each namespace that holds a reference to it (`from .perm import close_group`
copies the reference into `aut`, `galois` and the package), plus
`PermGroup.elements` on the class.  Each call records a span (name, start,
end, parent span, request id, result count); a call with no traced caller
starts a new request.  `uninstall` puts every original back.  Per-layer
figures are computed from the spans afterwards.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter


def _result_count(name: str, result):
    if name in ("perm.all_subgroups", "perm.PermGroup.elements"):
        return len(result)
    if name == "galois.find_code":
        return int(result is not None)
    if name == "cli.run_command":
        return result
    return None


def galbench_modules() -> list:
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "galbench" or k.startswith("galbench."))]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, request, count)
        self.requests = 0
        self._stack: list[int] = []
        self._installed: list[tuple] = []  # (owner, attribute, original)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            if stack:
                parent = stack[-1]
            else:
                parent = -1
                self.requests += 1
            request = self.requests
            stack.append(idx)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, request,
                              _result_count(name, result))
        traced.__wrapped_by_tracer__ = True
        return traced

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module in galbench_modules():
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or not value.__module__.startswith("galbench")):
                    continue
                wrapper = wrappers.get(value)
                if wrapper is None:
                    layer = value.__module__.rsplit(".", 1)[-1]
                    wrapper = wrappers[value] = self._wrap(f"{layer}.{value.__name__}", value)
                self._installed.append((module, attr, value))
                setattr(module, attr, wrapper)
        perm = sys.modules["galbench.perm"]
        original = perm.PermGroup.elements
        self._installed.append((perm.PermGroup, "elements", original))
        perm.PermGroup.elements = self._wrap("perm.PermGroup.elements", original)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("name", "start", "end", "parent", "request", "count"), span))) + "\n")

    def metrics(self) -> dict:
        """Per-layer counts, busy times (ms) and ratios over all spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_ms: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, (name, start, end, _, _, _) in enumerate(spans):
            layer = name.split(".", 1)[0]
            self_ms[layer] = self_ms.get(layer, 0.0) + (end - start - child_time[i]) * 1e3
            calls[name] = calls.get(name, 0) + 1

        def busy_ms(*names):
            """Time inside any of `names`, counting nested calls once."""
            inside = set(names)
            total = 0.0
            for name, start, end, parent, _, _ in spans:
                if name in inside and not self._has_ancestor(parent, inside):
                    total += end - start
            return total * 1e3

        def count_sum(name):
            return sum(s[5] or 0 for s in spans if s[0] == name)

        def n(*names):
            return sum(calls.get(k, 0) for k in names)

        group_names = ("aut.automorphism_group", "aut.automorphism_group_fixing")
        group_spans = [i for i, s in enumerate(spans) if s[0] in group_names]
        has_child = set(s[3] for s in spans)
        hits = sum(1 for i in group_spans if i not in has_child)
        find_code = n("galois.find_code")
        return {
            "cli.self_ms": self_ms.get("cli", 0.0),
            "structure.load_calls": n("structure.load_structure"),
            "structure.load_ms": busy_ms("structure.load_structure"),
            "formula.parse_ms": busy_ms("formula.parse_formula"),
            "formula.evaluate_ms": busy_ms("formula.evaluate"),
            "formula.solution_set_calls": n("formula.solution_set"),
            "formula.solution_set_ms": busy_ms("formula.solution_set"),
            "aut.group_requests": len(group_spans),
            "aut.searches": n("aut.search_automorphism_generators"),
            "aut.search_ms": busy_ms("aut.search_automorphism_generators"),
            "aut.cache_hit_ratio": hits / len(group_spans) if group_spans else 0.0,
            "aut.relative_restriction_calls": n("aut.relative_restriction"),
            "aut.relative_restriction_ms": busy_ms("aut.relative_restriction"),
            "perm.close_group_calls": n("perm.close_group"),
            "perm.close_group_ms": busy_ms("perm.close_group"),
            "perm.stabilizer_ms": busy_ms("perm.stabilizer_pointwise",
                                          "perm.setwise_stabilizer"),
            "perm.orbit_ms": busy_ms("perm.orbit", "perm.orbit_of_point"),
            "perm.all_subgroups_ms": busy_ms("perm.all_subgroups"),
            "perm.subgroups_found": count_sum("perm.all_subgroups"),
            "perm.elements_calls": n("perm.PermGroup.elements"),
            "perm.elements_enumerated": count_sum("perm.PermGroup.elements"),
            "galois.dcl_calls": n("galois.dcl"),
            "galois.find_code_calls": find_code,
            "galois.find_code_ms": busy_ms("galois.find_code"),
            "galois.code_found_ratio": (count_sum("galois.find_code") / find_code
                                        if find_code else 0.0),
            "galois.find_generator_ms": busy_ms("galois.find_generator"),
            "galois.self_ms": self_ms.get("galois", 0.0),
            "suite.law_suite_ms": busy_ms("suite.run_law_suite"),
            "corpus.load_calls": n("corpus.load_corpus"),
            "cli.usage_rejects": sum(1 for s in spans
                                     if s[0] == "cli.run_command" and s[5] == 2),
        }

    def _has_ancestor(self, parent: int, names: set) -> bool:
        while parent >= 0:
            span = self.spans[parent]
            if span[0] in names:
                return True
            parent = span[3]
        return False
