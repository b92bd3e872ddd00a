"""Tracing from outside the library: spans around calls into its public functions.

`Tracer.install` rebinds each traced function in every loaded `braidnf`
module that holds it. That catches calls made through a module attribute
(`engine.twist_codes(...)` inside the solver) and through a name bound by
`from ... import` (`process_word` inside the CLI) alike, because callers look
both up when they call. A traced function that no longer exists is recorded
as absent instead of failing the run.

A span is (name, start_ns, end_ns, parent index, request id). Spans stay in
memory until the run ends. A span's self time is its duration minus the part
of it that its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

# (module, function) pairs traced; the span name is "<module tail>.<function>".
TARGETS = (
    ("braidnf.braidword", "parse_word"),
    ("braidnf.engine", "pack"),
    ("braidnf.engine", "twist_codes"),
    ("braidnf.engine", "reduce_codes"),
    ("braidnf.engine", "unpack"),
    ("braidnf.gbase", "format_gbase"),
    ("braidnf.solver", "process_word"),
    ("braidnf.solver", "words_equal"),
    ("braidnf.oracle", "word_image"),
    ("braidnf.cli", "main"),
)

# Work done after a traced call returns, to count what it returned. It is a
# child span of the caller's span, so it never lands in anyone's self time.
COUNTING = "trace.count"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.request = -1
        self.absent: set[str] = set()
        self.counts: dict[str, int] = defaultdict(int)
        self.max_list_length = 0
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []
        self._counters = {
            "solver.process_word": self._count_process_word,
            "gbase.format_gbase": self._count_format_gbase,
            "oracle.word_image": self._count_word_image,
        }

    def wrap(self, name: str, function):
        """`function` with a span recorded around every call."""
        spans, stack = self.spans, self._stack
        counter = self._counters.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                return_value = function(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            if counter is not None:
                counter(return_value)
                spans.append((COUNTING, end, time.perf_counter_ns(), parent, self.request))
            return return_value

        return traced

    def install(self) -> None:
        """Rebind every traced function that exists; note the ones that do not."""
        wrappers = {}
        for module_name, function_name in TARGETS:
            name = f"{module_name.rsplit('.', 1)[-1]}.{function_name}"
            try:
                function = getattr(importlib.import_module(module_name), function_name)
            except (ImportError, AttributeError):
                self.absent.add(name)
                continue
            wrappers[id(function)] = (function, self.wrap(name, function))
        for module_name, module in list(sys.modules.items()):
            if module_name != "braidnf" and not module_name.startswith("braidnf."):
                continue
            for attribute, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attribute, wrappers[id(value)][1])
                    self._rebound.append((module, attribute, value))

    def uninstall(self) -> None:
        for module, attribute, original in self._rebound:
            setattr(module, attribute, original)
        self._rebound.clear()

    def _count_process_word(self, return_value) -> None:
        gbase, per_letter = return_value
        counts = self.counts
        counts["process_word.calls"] += 1
        counts["final_list_length"] += len(gbase)
        for stats in per_letter:
            counts["links_visited"] += stats.links_visited + stats.reduce_links_visited
            counts["links_inserted"] += stats.links_inserted
            counts["links_deleted"] += stats.reduce_links_deleted
            if stats.pre_reduce_length > self.max_list_length:
                self.max_list_length = stats.pre_reduce_length

    def _count_format_gbase(self, text) -> None:
        self.counts["format_gbase.bytes"] += len(text)

    def _count_word_image(self, image) -> None:
        self.counts["syllables"] += len(image)

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start_ns": start, "end_ns": end,
                     "parent": parent, "request": request}
                ) + "\n")


def covered_ns(intervals: list[tuple[int, int]], start: int, end: int) -> int:
    """Length of the union of `intervals`, clipped to [start, end]."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def busy_and_self_ns(spans) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
    """Per span name: total duration, total self time and number of calls."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    busy: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    for index, (name, start, end, _, _) in enumerate(spans):
        busy[name] += end - start
        self_ns[name] += end - start - covered_ns(children.get(index, []), start, end)
        calls[name] += 1
    return busy, self_ns, calls


# Per-layer metrics: name -> (unit, traced functions it is computed from).
# Times and counts are per request, except max_list_length (the longest list
# held in the run), final_list_length (per process_word call) and the ratios.
_COUNTED = ("solver.process_word",)
LAYER_METRICS = {
    "engine.twist_codes.ms": ("ms", ("engine.twist_codes",)),
    "engine.reduce_codes.ms": ("ms", ("engine.reduce_codes",)),
    "engine.twist_codes.calls": ("count", ("engine.twist_codes",)),
    "engine.ns_per_link": ("ns", ("engine.twist_codes", "engine.reduce_codes") + _COUNTED),
    "engine.pack.ms": ("ms", ("engine.pack",)),
    "engine.unpack.ms": ("ms", ("engine.unpack",)),
    "gbase.format_gbase.ms": ("ms", ("gbase.format_gbase",)),
    "gbase.format_gbase.bytes": ("bytes", ("gbase.format_gbase",)),
    "solver.process_word.self_ms": ("ms", ("solver.process_word",)),
    "solver.words_equal.self_ms": ("ms", ("solver.words_equal",)),
    "solver.links_visited": ("count", _COUNTED),
    "solver.links_inserted": ("count", _COUNTED),
    "solver.links_deleted": ("count", _COUNTED),
    "solver.links_kept_ratio": ("ratio", _COUNTED),
    "solver.max_list_length": ("count", _COUNTED),
    "solver.final_list_length": ("count", _COUNTED),
    "oracle.word_image.ms": ("ms", ("oracle.word_image",)),
    "oracle.word_image.calls": ("count", ("oracle.word_image",)),
    "oracle.syllables": ("count", ("oracle.word_image",)),
    "braidword.parse_word.ms": ("ms", ("braidword.parse_word",)),
    "cli.main.self_ms": ("ms", ("cli.main",)),
    "trace.overhead_pct": ("%", ()),
}


# Times of layers that one of the two workloads in BENCHMARK.json never
# calls (words_equal and oracle on `wide`, format_gbase and cli on
# `verdict`), so they read exactly 0 on every run there; a time that never
# changes is no measurement. They are printed on the summary line and left
# out of the JSON result.
SUMMARY_ONLY = (
    "gbase.format_gbase.ms",
    "solver.words_equal.self_ms",
    "oracle.word_image.ms",
    "cli.main.self_ms",
)

def layer_metrics(
    tracer: Tracer, requests: int, untraced_ns: int, traced_ns: int
) -> tuple[dict[str, float], list[str]]:
    """The per-layer metric values, and the names of those marked absent.

    `untraced_ns` and `traced_ns` are the summed request times of the same
    requests run without and with tracing. An absent metric reads 0.
    """
    busy, self_ns, calls = busy_and_self_ns(tracer.spans)
    counts = tracer.counts
    ms = 1.0 / (requests * 1e6)
    values = {
        "engine.twist_codes.ms": busy["engine.twist_codes"] * ms,
        "engine.reduce_codes.ms": busy["engine.reduce_codes"] * ms,
        "engine.twist_codes.calls": calls["engine.twist_codes"] / requests,
        "engine.ns_per_link": (busy["engine.twist_codes"] + busy["engine.reduce_codes"])
        / max(counts["links_visited"], 1),
        "engine.pack.ms": busy["engine.pack"] * ms,
        "engine.unpack.ms": busy["engine.unpack"] * ms,
        "gbase.format_gbase.ms": busy["gbase.format_gbase"] * ms,
        "gbase.format_gbase.bytes": counts["format_gbase.bytes"] / requests,
        "solver.process_word.self_ms": self_ns["solver.process_word"] * ms,
        "solver.words_equal.self_ms": self_ns["solver.words_equal"] * ms,
        "solver.links_visited": counts["links_visited"] / requests,
        "solver.links_inserted": counts["links_inserted"] / requests,
        "solver.links_deleted": counts["links_deleted"] / requests,
        "solver.links_kept_ratio": (counts["links_inserted"] - counts["links_deleted"])
        / max(counts["links_inserted"], 1),
        "solver.max_list_length": tracer.max_list_length,
        "solver.final_list_length": counts["final_list_length"]
        / max(counts["process_word.calls"], 1),
        "oracle.word_image.ms": busy["oracle.word_image"] * ms,
        "oracle.word_image.calls": calls["oracle.word_image"] / requests,
        "oracle.syllables": counts["syllables"] / requests,
        "braidword.parse_word.ms": busy["braidword.parse_word"] * ms,
        "cli.main.self_ms": self_ns["cli.main"] * ms,
        "trace.overhead_pct": 100.0 * (traced_ns / untraced_ns - 1.0),
    }
    absent = sorted(
        metric for metric, (_, sources) in LAYER_METRICS.items()
        if any(source in tracer.absent for source in sources)
    )
    for metric in absent:
        values[metric] = 0.0
    return values, absent
