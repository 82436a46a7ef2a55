"""Spans around calls into the library's public functions, recorded from
outside the library, and the per-layer metrics derived from them.

A span has a name (``module.function``), a start, an end, the index of the span
that was open when it started, and the trace id of the cell or system being
worked on. Spans are kept in memory; ``layer_metrics`` reduces them at the end
of a run.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from contextlib import contextmanager

# ``systems`` is left out: each of its calls takes well under a microsecond,
# so it is timed inside the cremona and speciality spans instead.
TRACED_MODULES = ("literals", "cremona", "speciality", "oracle")

_clock = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "trace_id", "attrs")

    def __init__(self, name, start, end, parent, trace_id, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.trace_id = trace_id
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


def _observe_rank(args, kwargs, result):
    rows, cols = args[0].shape
    return {"rows": rows, "cols": cols, "rank": result}


def _observe_matrix(args, kwargs, result):
    rows, cols = result.entries.shape
    return {"rows": rows, "cols": cols}


def _observe_procedure(args, kwargs, result):
    dim, trace = result
    return {"dim": dim, "steps": tuple(step.kind for step in trace.steps)}


# what a span keeps of its call's arguments and result, by span name
OBSERVERS = {
    "oracle.rank_mod_p": _observe_rank,
    "oracle.conditions_matrix": _observe_matrix,
    "speciality.conjectured_dimension": _observe_procedure,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.trace_id = 0
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack, observe = self.spans, self._stack, OBSERVERS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.trace_id)
            spans.append(span)
            stack.append(index)
            span.start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = _clock()
                stack.pop()
            if observe is not None:
                span.attrs = observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def instrument(self):
        """Replace every public function of the traced modules, wherever a
        loaded ``fatpoint3`` module binds it, by a wrapper that records a span;
        put the originals back on exit."""
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"fatpoint3.{short}"]
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self.wrap(f"{short}.{name}", fn)
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "fatpoint3" or mod_name.startswith("fatpoint3.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)


def _covered(intervals) -> float:
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            start, end = max(span.start, parent.start), min(span.end, parent.end)
            if end > start:
                children.setdefault(span.parent, []).append((start, end))
    return [span.duration - _covered(children.get(i, ())) for i, span in enumerate(spans)]


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def _median_us(spans, name):
    values = [s.duration for s in spans if s.name == name]
    return statistics.median(values) * 1e6 if values else None


def _oracle_metrics(spans) -> dict:
    # an oracle call is an oracle span not opened inside another oracle span
    top_of: dict[int, int] = {}
    calls = []
    for i, span in enumerate(spans):
        if not span.name.startswith("oracle."):
            continue
        parent = span.parent
        if parent is not None and spans[parent].name.startswith("oracle."):
            top_of[i] = top_of[parent]
        else:
            top_of[i] = i
            calls.append(i)
    if not calls:
        return {}
    # an oracle that eliminates without rank_mod_p, or assembles without
    # conditions_matrix, leaves those parts at zero
    ranks = [i for i, s in enumerate(spans) if s.name == "oracle.rank_mod_p"]
    matrices = [s for s in spans if s.name == "oracle.conditions_matrix"]
    oracle_s = sum(spans[i].duration for i in calls)
    assembly_s = sum(s.duration for s in matrices)
    rank_s = sum(spans[i].duration for i in ranks)
    ops = sum(spans[i].attrs["rank"] * spans[i].attrs["rows"] * spans[i].attrs["cols"] for i in ranks)
    per_call: dict[int, list[dict]] = {}
    for i in ranks:
        per_call.setdefault(top_of[i], []).append(spans[i].attrs)
    full_first = raised = 0
    for seeds in per_call.values():
        first = seeds[0]
        full_first += first["rank"] == min(first["rows"], first["cols"])
        best = -1
        for attrs in seeds:
            if attrs["rank"] > best:
                raised += 1
                best = attrs["rank"]
    matrix_bytes = [s.attrs["rows"] * s.attrs["cols"] * 8 for s in matrices]
    return {
        "oracle.assembly_s": assembly_s,
        "oracle.assembly_share": assembly_s / oracle_s,
        "oracle.rank_s": rank_s,
        "oracle.rank_share": rank_s / oracle_s,
        "oracle.other_s": oracle_s - assembly_s - rank_s,
        "oracle.rank_ops_computed": ops,
        "oracle.rank_gops_per_s": ops / rank_s / 1e9 if rank_s else 0.0,
        "oracle.eliminations": len(ranks),
        "oracle.full_rank_share": full_first / len(per_call) if per_call else 0.0,
        "oracle.seed_yield": raised / len(ranks) if ranks else 0.0,
        "oracle.matrix_bytes_computed": sum(matrix_bytes),
        "oracle.peak_matrix_mb_computed": max(matrix_bytes, default=0) / 2**20,
    }


def _procedure_metrics(spans) -> dict:
    # one system per procedure call that is not nested in another traced call
    runs = [s.attrs for s in spans if s.name == "speciality.conjectured_dimension" and s.parent is None]
    if not runs:
        return {}
    steps = [kind for attrs in runs for kind in attrs["steps"]]
    return {
        "cremona.steps_per_system": len(steps) / len(runs),
        "speciality.quadric_step_share": steps.count("remove_quadric") / len(steps) if steps else 0.0,
        "cremona.systems_with_cremona": sum("cremona" in a["steps"] for a in runs),
        "cremona.systems_with_component_removal": sum("remove_component" in a["steps"] for a in runs),
        "speciality.systems_with_quadric_removal": sum("remove_quadric" in a["steps"] for a in runs),
        "speciality.empty_systems": sum(a["dim"] < 0 for a in runs),
    }


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer metrics from one traced replay lasting ``wall_s`` seconds.
    A metric whose layer saw no call is left out."""
    selfs = self_times(spans)
    out: dict = {}
    for layer in TRACED_MODULES:
        mine = [i for i, s in enumerate(spans) if _module(s.name) == layer]
        if mine:
            out[f"{layer}.self_s"] = sum(selfs[i] for i in mine)
            out[f"{layer}.calls"] = len(mine)
    for key, name in (
        ("speciality.conjectured_us", "speciality.conjectured_dimension"),
        ("speciality.remove_quadrics_us", "speciality.remove_quadrics"),
        ("cremona.reduce_to_standard_us", "cremona.reduce_to_standard"),
        ("literals.parse_us", "literals.parse_system"),
        ("literals.render_us", "cremona.render_trace"),
    ):
        value = _median_us(spans, name)
        if value is not None:
            out[key] = value
    out.update(_oracle_metrics(spans))
    out.update(_procedure_metrics(spans))
    if spans:
        out["trace.coverage"] = sum(selfs) / wall_s
    return out
