"""Span tracer around the public functions of the ``windmills`` layers.

``Tracer.install`` wraps every public function of each layer module in every
``windmills.*`` namespace that binds it (``families`` calls ``pairs_of``
through its own ``from .sequences import`` binding, for example).  Each call
made while the tracer is active records one span in memory:

    [name, layer, start, end, parent span index, op id, error, extra]

``extra`` is the argument key of a sequence generator, the ``nodes`` of an
oracle ``SearchResult``, or None.  ``layer_metrics`` derives every per-layer
metric from a list of spans.
"""

from __future__ import annotations

import statistics
import sys
import time

LAYERS = ("cli", "families", "assemble", "sequences", "windmill", "oracle")
# The benchmark's own spans: one per timed call, parent of the layer spans.
ROOT_LAYER = "bench"

NAME, LAYER, START, END, PARENT, OP, ERROR, EXTRA = range(8)

_JSON_FUNCS = ("to_json", "from_json", "to_json_obj", "from_json_obj")


def _is_generator(layer: str, name: str) -> bool:
    return layer == "sequences" and (name.startswith("gen_") or name == "fixed_small_twofold")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self.active = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer; ``uninstall`` undoes it."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"windmills.{layer}"]
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == module.__name__
                ):
                    wrappers[id(obj)] = self._wrap(obj, layer, name)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "windmills" or mod_name.startswith("windmills.")):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._restore.append((module, name, obj))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._restore):
            setattr(module, name, obj)
        self._restore.clear()

    def _wrap(self, fn, layer: str, name: str):
        spans, stack = self.spans, self._stack
        generator = _is_generator(layer, name)
        oracle = layer == "oracle"

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op, False, None]
            if generator:
                span[EXTRA] = repr((args, sorted(kwargs.items())))
            spans.append(span)
            stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if oracle and isinstance(getattr(result, "nodes", None), int):
                span[EXTRA] = result.nodes
            return result

        traced.__wrapped__ = fn
        traced.__name__ = name
        return traced

    # -- root spans -------------------------------------------------------------

    def open_root(self, name: str) -> list | None:
        if not self.active:
            return None
        span = [name, ROOT_LAYER, time.perf_counter(), 0.0, -1, self.op, False, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close_root(self, span: list | None, error: bool) -> None:
        if span is None:
            return
        span[END] = time.perf_counter()
        span[ERROR] = error
        self._stack.pop()


def _outermost_time(spans: list[list], names, layer: str) -> tuple[float, int]:
    """Inclusive time of the outermost spans of ``names`` in ``layer``, and their count."""
    total, calls = 0.0, 0
    for span in spans:
        if span[LAYER] != layer or span[NAME] not in names:
            continue
        calls += 1
        parent = span[PARENT]
        nested = False
        while parent >= 0:
            above = spans[parent]
            if above[LAYER] == layer and above[NAME] in names:
                nested = True
                break
            parent = above[PARENT]
        if not nested:
            total += span[END] - span[START]
    return total, calls


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the durations of its direct children."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def layer_metrics(spans: list[list], ops: int) -> dict[str, float]:
    """Every per-layer metric of one traced repetition of ``ops`` operations."""
    own = self_times(spans)
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = 0.0
        metrics[f"{layer}.calls"] = 0
        metrics[f"{layer}.errors"] = 0
    for span, self_s in zip(spans, own):
        layer = span[LAYER]
        if layer == ROOT_LAYER:
            continue
        metrics[f"{layer}.self_s"] += self_s
        parent = span[PARENT]
        if parent < 0 or spans[parent][LAYER] != layer:
            metrics[f"{layer}.calls"] += 1
            metrics[f"{layer}.errors"] += int(span[ERROR])

    for name in ("pairs_of", "validate"):
        seconds, calls = _outermost_time(spans, (name,), "sequences")
        metrics[f"sequences.{name}.s"] = seconds
        metrics[f"sequences.{name}.calls"] = calls
    metrics["sequences.langford_sequence.s"] = _outermost_time(
        spans, ("langford_sequence",), "sequences"
    )[0]

    gen_names = {s[NAME] for s in spans if _is_generator(s[LAYER], s[NAME])}
    seconds, calls = _outermost_time(spans, gen_names, "sequences")
    distinct = {(s[NAME], s[EXTRA]) for s in spans if s[NAME] in gen_names}
    metrics["sequences.gen.s"] = seconds
    metrics["sequences.gen.calls"] = calls
    metrics["sequences.gen.distinct_ratio"] = len(distinct) / calls if calls else 0.0

    seconds, calls = _outermost_time(spans, ("verify",), "windmill")
    metrics["windmill.verify.s"] = seconds
    metrics["windmill.verify.calls"] = calls
    metrics["windmill.verify.per_op"] = calls / ops if ops else 0.0
    metrics["windmill.json.s"] = _outermost_time(spans, _JSON_FUNCS, "windmill")[0]

    oracle_s = sum(
        s[END] - s[START]
        for s in spans
        if s[LAYER] == "oracle" and (s[PARENT] < 0 or spans[s[PARENT]][LAYER] != "oracle")
    )
    search_s, _ = _outermost_time(spans, ("search_labelling",), "oracle")
    nodes = sum(s[EXTRA] for s in spans if s[LAYER] == "oracle" and isinstance(s[EXTRA], int))
    metrics["oracle.s"] = oracle_s
    metrics["oracle.nodes"] = nodes
    metrics["oracle.nodes_per_s"] = nodes / search_s if search_s else 0.0
    return metrics


def function_self_times(spans: list[list]) -> dict[str, float]:
    """``layer.name`` -> summed self time, for the trace summary."""
    totals: dict[str, float] = {}
    for span, self_s in zip(spans, self_times(spans)):
        if span[LAYER] != ROOT_LAYER:
            key = f"{span[LAYER]}.{span[NAME]}"
            totals[key] = totals.get(key, 0.0) + self_s
    return totals


def median_metrics(per_rep: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
