"""Span tracing of ``rainbowmatch`` from outside the package.

The tracer wraps the package's public functions and the constructors of its
graph classes.  A function imported by name into another module
(``switching`` and ``cli`` import ``verify_rainbow_matching`` from ``core``)
is replaced in every module namespace that holds it, so calls through any of
them are seen.  Each call
records one span: name, start, end and the span open around it.  Counts are
recorded at the same boundaries.  Self time is a span's duration minus the
durations of the spans directly inside it.

A generator is traced per resumption: each ``next`` on it is one span, so
the time the consumer spends between two paths is not counted as the
generator's own.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

SPAN_CAP = 200_000  # spans kept in memory for the written trace


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, start, child_time, span_id, parent_id]
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.meters: list = []
        self.spans: list = []
        self.recording = False
        self._undo: list[tuple[object, str, object]] = []

    # --- spans ----------------------------------------------------------------
    def _enter(self, name: str) -> list:
        span_id = -1
        if self.recording and len(self.spans) < SPAN_CAP:
            span_id = len(self.spans)
            self.spans.append(None)
        parent = self.stack[-1][3] if self.stack else -1
        frame = [name, perf_counter(), 0.0, span_id, parent]
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        self.stack.pop()
        name, start, child, span_id, parent = frame
        duration = end - start
        self.incl_s[name] += duration
        self.self_s[name] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        if span_id >= 0:
            self.spans[span_id] = (name, start, end, parent)

    # --- wrappers -------------------------------------------------------------
    def _function(self, name, fn, hook):
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if hook is not None:
                hook(result)
            return result

        return traced

    def _generator(self, name, fn, count_key):
        enter, exit_, counts = self._enter, self._exit, self.counts

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                frame = enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    exit_(frame)
                counts[count_key] += 1
                yield item

        return traced

    def _constructor(self, name, cls, hook):
        enter, exit_ = self._enter, self._exit
        init = cls.__init__

        def traced(obj, *args, **kwargs):
            frame = enter(name)
            try:
                init(obj, *args, **kwargs)
            finally:
                exit_(frame)
            hook(obj)

        self._set(cls, "__init__", traced)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "rainbowmatch" and not mod_name.startswith("rainbowmatch."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def install(self, mods) -> None:
        """Wrap the layers' entry points; ``mods`` holds the imported modules."""
        c = self.counts

        def add(key, amount=1):
            c[key] += amount

        self._constructor(
            "core.ColouredBipartiteMultigraph",
            mods.core.ColouredBipartiteMultigraph,
            lambda g: (add("core.graphs_built"), add("core.edges_indexed", len(g.edges))),
        )
        self._constructor(
            "digraph.LabelledDigraph",
            mods.digraph.LabelledDigraph,
            lambda d: (add("digraph.digraphs_built"), add("digraph.arcs_indexed", len(d.arcs))),
        )
        meter_init = mods.budget.BudgetMeter.__init__
        meters = self.meters

        def meter_traced(meter, *args, **kwargs):
            meter_init(meter, *args, **kwargs)
            meters.append(meter)

        self._set(mods.budget.BudgetMeter, "__init__", meter_traced)

        def augment_hook(result):
            add("switching.augment_calls")
            if isinstance(result, mods.core.RainbowMatching):
                add("switching.augment_hits")

        def oracle_hook(result):
            add("oracle.calls")
            add("oracle.nodes", result.nodes)

        functions = [
            (mods.core, "read_edge_list", None),
            (mods.latin, "parse_latin", None),
            (mods.core, "verify_rainbow_matching", None),
            (mods.switching, "augment", augment_hook),
            (mods.switching, "solve_switching_engine",
             lambda r: add("switching.rotation_states", r[1].rotations)),
            (mods.switching, "build_switch_digraph", lambda r: add("switching.digraphs_built")),
            (mods.oracle, "exact_max_rainbow_matching", oracle_hook),
            (mods.connectivity, "low_expansion_ball",
             lambda r: add("connectivity.ball_vertices", len(r[1]))),
            (mods.connectivity, "rainbow_ball_layers",
             lambda r: add("connectivity.layer_vertices", len(r))),
            (mods.connectivity, "build_two_hop_digraph",
             lambda r: add("connectivity.twohop_arcs", len(r[0].arcs))),
            (mods.connectivity, "rainbow_path_through", None),
            (mods.menger, "rainbow_st_paths", lambda r: add("menger.paths", len(r))),
            (mods.menger, "fractional_menger", None),
            (mods.menger, "verify_property_I", None),
            (mods.menger, "verify_property_II", None),
            (mods.cli, "run", None),
        ]
        for mod, attr, hook in functions:
            original = getattr(mod, attr)
            short = mod.__name__.rsplit(".", 1)[-1]
            self._replace_everywhere(original, self._function(f"{short}.{attr}", original, hook))
        kernel = mods.digraph.iter_rainbow_paths
        self._replace_everywhere(
            kernel,
            self._generator("digraph.iter_rainbow_paths", kernel, "digraph.paths_yielded"),
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # --- per operation and per pass -------------------------------------------
    def end_op(self) -> dict[str, int]:
        """Counts of the operation just finished; resets them."""
        counts = dict(self.counts)
        counts["budget.nodes"] = sum(m.nodes for m in self.meters)
        self.counts.clear()
        self.meters.clear()
        return counts

    def take_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Self and inclusive times since the last call; resets them."""
        times = (dict(self.self_s), dict(self.incl_s))
        self.self_s.clear()
        self.incl_s.clear()
        return times

    def write_spans(self, path: str) -> int:
        """Write the recorded spans as JSON lines; returns how many."""
        written = 0
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                if span is None:  # still open; cannot happen between passes
                    continue
                name, start, end, parent = span
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent}) + "\n")
                written += 1
        return written
