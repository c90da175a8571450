"""Spans recorded around calls into qmeaslab's public functions.

The tracer wraps each listed function wherever a qmeaslab module binds it
(including the package namespace and the calling modules' own imports), so
calls between modules are seen as well as calls from the benchmark.  A
wrapper never alters arguments, results or exceptions; it only appends a
span ``[name, start, end, parent, report, attrs]`` to an in-memory list.
Self times and counts are derived from those spans afterwards.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter
from typing import Any, Callable, Iterable

NAME, START, END, PARENT, REPORT, ATTRS = range(6)

MODULES = ("hilbert", "pauli", "chain", "sectors", "cascade", "radiation", "scenarios")


def _layout_dim(args, kwargs, result):
    layout = args[1] if len(args) > 1 else kwargs["layout"]
    return {"dim": layout.dim}


# (module, qualified name, attrs hook or None).  A hook reads the call's
# arguments or result after the call and returns span attributes.
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("hilbert", "mixture_of", lambda a, k, r: {"dim_sq": r.layout.dim ** 2}),
    ("pauli", "apply", None),
    ("pauli", "expectation", None),
    ("pauli", "expectation_mixed", None),
    ("pauli", "all_strings", lambda a, k, r: {"strings": len(r)}),
    ("pauli", "sum_matrix", _layout_dim),
    ("pauli", "sup_norm_estimate", None),
    ("chain", "full_passage", None),
    ("chain", "passage_step", None),
    ("chain", "closed_form_final", None),
    ("chain", "final_branches", None),
    ("sectors", "chain_observable_preset", None),
    ("sectors", "restricted_algebra", lambda a, k, r: {
        "kept": len(r.generators),
        "candidates": len((a[1] if len(a) > 1 else k["candidate_pool"]).generators)}),
    ("sectors", "discriminate", None),
    ("sectors", "op_expectation", None),
    ("sectors", "op_sup_norm", None),
    ("sectors", "op_expectation_mixed", None),
    ("cascade", "run_cascade", None),
    ("cascade", "unmeasured_it_exists", None),
    ("cascade", "information_tradeoff", None),
    ("cascade", "BranchConnector.support", None),
    ("radiation", "check_c22", None),
    ("radiation", "glauber_generators", None),
    ("radiation", "full_observable", None),
    ("radiation", "build_final_state", None),
    ("scenarios", "parse_config", None),
    ("scenarios", "run", None),
    ("scenarios", "emit", lambda a, k, r: {"bytes": len(r)}),
)


class Tracer:
    """Owns the span list and the patches that feed it.

    ``install()`` swaps every binding of each target for a wrapper;
    ``uninstall()`` puts the originals back, so untraced reports run the
    library exactly as shipped.
    """

    def __init__(self):
        self.spans: list[list[Any]] = []
        self.report = -1
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any, Any]] = []
        modules = [importlib.import_module("qmeaslab")] + [
            importlib.import_module(f"qmeaslab.{m}") for m in MODULES]
        for mod_name, qualname, hook in TARGETS:
            owner = importlib.import_module(f"qmeaslab.{mod_name}")
            *cls_path, attr = qualname.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(f"{mod_name}.{qualname}", original, hook)
            if cls_path:
                self._patches.append((owner, attr, original, wrapper))
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, original, wrapper))

    def _wrap(self, span_name: str, fn: Callable, hook: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.report, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if hook is not None:
                rec[ATTRS] = hook(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    def write(self, out) -> None:
        """One JSON span per line, in start order, to a text stream."""
        for name, start, end, parent, report, attrs in self.spans:
            out.write(json.dumps({"name": name, "start": start, "end": end,
                                  "parent": parent, "report": report,
                                  "attrs": attrs}) + "\n")


def summarize(spans: Iterable[list[Any]]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total self seconds, summed numeric attributes,
    the largest ``dim`` seen, and (for ``sectors.op_expectation``) the calls
    made under a ``sectors.discriminate`` span.

    Self time is a span's duration minus the durations of its direct
    children; spans are strictly nested on one thread, so the children never
    overlap.
    """
    spans = list(spans)
    child_time = [0.0] * len(spans)
    in_discriminate = [False] * len(spans)
    for i, rec in enumerate(spans):
        parent = rec[PARENT]
        if parent >= 0:
            child_time[parent] += rec[END] - rec[START]
            in_discriminate[i] = (in_discriminate[parent]
                                  or spans[parent][NAME] == "sectors.discriminate")
    out: dict[str, dict[str, float]] = {}
    for i, rec in enumerate(spans):
        agg = out.setdefault(rec[NAME], {"calls": 0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += (rec[END] - rec[START]) - child_time[i]
        if in_discriminate[i]:
            agg["under_discriminate"] = agg.get("under_discriminate", 0) + 1
        for key, value in (rec[ATTRS] or {}).items():
            agg[key] = agg.get(key, 0) + value
            if key == "dim":
                agg["dim_max"] = max(agg.get("dim_max", 0), value)
    return out
