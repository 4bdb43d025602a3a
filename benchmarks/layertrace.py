"""Outside-in layer trace: wraps treekd's public functions from benchmark code.

Each wrapped function becomes a span (name, start, end, parent) recorded in
memory; small hot helpers get count-only wrappers.  Wrappers replace the
module (or class) attributes that callers look up at call time, in every
loaded ``treekd`` module that holds the same function object, so a call such
as ``protocol.run_rounds -> subroutine_round`` goes through the wrapper.
A target that no longer exists is reported as absent instead of failing.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# Spans: (target, hook on the call's arguments, hook on its result).  A hook
# returns {counter: amount} to add to the current call's counts.
SPAN_TARGETS: Tuple[Tuple[str, Optional[Callable], Optional[Callable]], ...] = (
    ("cli.cmd_run", None, None),
    ("cli.cmd_sweep", None, None),
    ("cli.cmd_analyze", None, None),
    ("config_io.load_config", None, None),
    ("linear_code.code_by_name", None, None),
    ("linear_code.decode_to_codeword", None, None),
    ("linear_code.index_of", None, None),
    (
        "protocol.run_block",
        None,
        lambda res: {"protocol.run_block.completed": int(
            getattr(res, "status", None) == "completed"
        )},
    ),
    ("protocol.run_rounds", None, None),
    ("protocol.decide_abort", None, None),
    ("protocol.reconcile", None, None),
    ("subroutine.subroutine_round", None, None),
    ("subroutine.reconstruct_assignment", None, None),
    ("graph_core.mst_kruskal", None, None),
    ("channel_sim.simulate_pairwise_kd", None, None),
    ("transcript_io.transcript_lines", None, None),
    (
        "transcript_io.parse_transcript",
        lambda args: {"transcript_io.parse_transcript.lines": len(args[0])}
        if args and hasattr(args[0], "__len__") else {},
        None,
    ),
    (
        # Computed, not observed: the brute-force analyzer checks 2^(n-1)
        # assignments per call.
        "eve_analysis.consistent_configurations",
        lambda args: {"eve_analysis.assignments_enumerated": 2 ** (args[1].n - 1)}
        if len(args) > 1 and hasattr(args[1], "n") else {},
        None,
    ),
    ("eve_analysis.rounds_from_transcript", None, None),
    ("eve_analysis.secret_entropy", None, None),
)

# Count-only wrappers: target -> counter name.
COUNT_TARGETS: Dict[str, str] = {
    "graph_core.validate_graph": "graph_core.validate_graph.calls",
    "graph_core.terminal_agents": "graph_core.terminal_agents.calls",
    "graph_core.SpanningTree.incident_edges": "graph_core.SpanningTree.incident_edges.calls",
    "graph_core.SpanningTree.adjacency": "graph_core.SpanningTree.adjacency.calls",
    "channel_sim.broadcast": "channel_sim.broadcast.calls",
    "bits.BitString.__init__": "bits.BitString.constructed",
    "rng.SeededRng.substream": "rng.SeededRng.substream.calls",
}

ALL_TARGETS = tuple(t for t, _, _ in SPAN_TARGETS) + tuple(COUNT_TARGETS)


def _resolve(target: str):
    """(owner, attribute, function) for a dotted target under treekd, or None."""
    module_name, *path = target.split(".")
    owner = sys.modules.get(f"treekd.{module_name}")
    for part in path[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not callable(getattr(owner, path[-1], None)):
        return None
    return owner, path[-1], getattr(owner, path[-1])


class Tracer:
    """Installs wrappers for one command call at a time and keeps the spans."""

    def __init__(self):
        # (call_id, name, start, end, parent index or -1)
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self.counts: Dict[int, Counter] = {}
        self.absent: List[str] = [t for t in ALL_TARGETS if _resolve(t) is None]
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []
        self._call_id = -1

    def _span_wrapper(self, name, fn, on_args, on_result):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_args is not None:
                self.counts[self._call_id].update(on_args(args))
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (self._call_id, name, start, end, parent)
            if on_result is not None:
                self.counts[self._call_id].update(on_result(result))
            return result

        return wrapper

    def _count_wrapper(self, counter, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[self._call_id][counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, target: str, wrapper_for) -> None:
        found = _resolve(target)
        if found is None:
            return
        owner, attr, fn = found
        wrapper = wrapper_for(fn)
        if isinstance(owner, type):
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
            return
        # A module function: patch every treekd module that imported it.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "treekd" or mod_name.startswith("treekd.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, name, fn))
                    setattr(mod, name, wrapper)

    def record(self, call_id: int, fn: Callable):
        """Run fn() with every wrapper installed; spans carry call_id."""
        self._call_id = call_id
        self.counts[call_id] = Counter()
        for target, on_args, on_result in SPAN_TARGETS:
            self._replace(
                target,
                lambda fn, name=target, a=on_args, r=on_result: self._span_wrapper(
                    name, fn, a, r
                ),
            )
        for target, counter in COUNT_TARGETS.items():
            self._replace(target, lambda fn, c=counter: self._count_wrapper(c, fn))
        try:
            return fn()
        finally:
            for owner, attr, original in reversed(self._undo):
                setattr(owner, attr, original)
            self._undo.clear()

    def per_call(self) -> Dict[int, Dict[str, float]]:
        """Per call: <span>.calls/.total_s/.self_s plus every counter."""
        child_time = [0.0] * len(self.spans)
        for call_id, _name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[int, Dict[str, float]] = {
            call_id: dict(counts) for call_id, counts in self.counts.items()
        }
        for i, (call_id, name, start, end, _parent) in enumerate(self.spans):
            row = out[call_id]
            row[f"{name}.calls"] = row.get(f"{name}.calls", 0) + 1
            row[f"{name}.total_s"] = row.get(f"{name}.total_s", 0.0) + end - start
            row[f"{name}.self_s"] = (
                row.get(f"{name}.self_s", 0.0) + end - start - child_time[i]
            )
        return out

    def durations(self, name: str) -> List[float]:
        return [end - start for _c, n, start, end, _p in self.spans if n == name]

    def write(self, path) -> None:
        """Write the spans as tab-separated lines: call, name, start, end, parent."""
        with open(path, "w") as fh:
            for call_id, name, start, end, parent in self.spans:
                fh.write(f"{call_id}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def tail(values: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest rank with >= 10 samples above it.

    With fewer than 22 samples no rank above the median has ten samples
    above it, so the upper median is returned as the tail.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - 11, n // 2)
    return ordered[rank], 100.0 * (rank + 1) / n


def median_of(rows: List[Dict[str, float]], key: str) -> float:
    return statistics.median(row.get(key, 0.0) for row in rows) if rows else 0.0
