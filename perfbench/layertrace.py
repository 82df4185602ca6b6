"""Tracing confan from outside, by wrapping its functions at module boundaries.

``Tracer.install()`` wraps every public function of each layer module (and
every private one that another module imports by name), plus
``Fan.maximal_cones``, and rebinds the wrapper under every name that held the
original: module globals, ``from .x import y`` bindings in other modules, the
package namespace and module-level dicts such as the CLI's table of fan
constructions.  Nothing in the package's source changes; ``uninstall()``
restores every binding.

Each call pushes a frame.  On return, the frame's self time (its duration
minus its children's) is added to its layer, and its duration to its
parent's child time, so the layers' self times of a job add up to the job's
time inside ``cli.main``.  Calls of the hot leaf functions in ``FOLDED`` are
only counted and timed; every other call also records a span
(name, start, end, parent span, job), up to ``SPAN_CAP`` spans per function
and job, beyond which calls are folded the same way and counted by
``spans_dropped()``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("inputs", "matroid", "arith", "config", "fans", "classes", "charp", "cli")

FOLDED = frozenset(
    {
        "matroid.rank_of",
        "matroid.closure",
        "arith.det",
        "arith.matrix_rank",
        "arith.solve_exact",
    }
)

SPAN_CAP = 200

FAN_CONSTRUCTIONS = frozenset(
    {"fans.bergman_fan", "fans.square_conormal_fan", "fans.delta_fan", "fans.delta_tilde_fan"}
)

# functions whose results feed the derived counters of Tracer._after
COUNTED = FAN_CONSTRUCTIONS | {"matroid.flats", "arith.solve_exact"}


class Tracer:
    def __init__(self, package="confan"):
        self.package = package
        self.spans = []  # (id, name, start, end, parent id or None, job)
        self.self_s = defaultdict(float)  # layer -> self seconds
        self.calls = defaultdict(int)  # "layer.func" -> calls
        self.total_s = defaultdict(float)  # "layer.func" -> seconds, outermost calls
        self.counts = defaultdict(int)  # derived counters, see _after
        self.job = None
        self._stack = []
        self._depth = defaultdict(int)
        self._job_spans = defaultdict(int)
        self._last_id = 0
        self._patches = []

    # -- installation ------------------------------------------------------

    def install(self):
        modules = {
            layer: importlib.import_module("%s.%s" % (self.package, layer))
            for layer in LAYERS
        }
        every = [
            m for name, m in sorted(sys.modules.items())
            if name == self.package or name.startswith(self.package + ".")
        ]
        targets = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                imported = any(
                    other is not mod and vars(other).get(name) is obj for other in every
                )
                if not name.startswith("_") or imported:
                    targets[obj] = self._wrap(obj, layer, "%s.%s" % (layer, name))
        for mod in every:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in targets:
                    self._patch(mod, name, targets[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in targets:
                            self._patch(obj, key, targets[val])
        fan = modules["fans"].Fan
        self._patch(fan, "maximal_cones", self._wrap(fan.maximal_cones, "fans", "fans.maximal_cones"))
        return modules

    def _patch(self, holder, name, new):
        if isinstance(holder, dict):
            self._patches.append((holder, name, holder[name]))
            holder[name] = new
        else:
            self._patches.append((holder, name, getattr(holder, name)))
            setattr(holder, name, new)

    def uninstall(self):
        for holder, name, old in reversed(self._patches):
            if isinstance(holder, dict):
                holder[name] = old
            else:
                setattr(holder, name, old)
        self._patches.clear()

    def abandon_job(self):
        """Forget the calls a job left open.  A timeout raised into a job can
        land in a wrapper's own bookkeeping, before its try or before its
        finally pops the call, and must not skew the jobs after it."""
        self._stack.clear()
        self._depth.clear()

    def spans_dropped(self):
        """Calls per function, outside FOLDED, that recorded no span
        because SPAN_CAP was reached."""
        recorded = defaultdict(int)
        for (qual, _), n in self._job_spans.items():
            recorded[qual] += n
        return {q: self.calls[q] - n for q, n in sorted(recorded.items()) if self.calls[q] > n}

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, fn, layer, qual):
        folded = qual in FOLDED
        after = self._after if qual in COUNTED else None
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent else None
            span = parent_span
            if not folded and self._job_spans[qual, self.job] < SPAN_CAP:
                self._job_spans[qual, self.job] += 1
                self._last_id += 1
                span = self._last_id
            frame = [0.0, span, span != parent_span]
            stack.append(frame)
            depth[qual] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[qual] -= 1
                took = end - start
                self.self_s[layer] += took - frame[0]
                if parent is not None:
                    parent[0] += took
                self.calls[qual] += 1
                if not depth[qual]:
                    self.total_s[qual] += took
                if frame[2]:
                    self.spans.append((span, qual, start, end, parent_span, self.job))
            if after:
                after(qual, result, took)
            return result

        return wrapper

    def _after(self, qual, result, took):
        if qual == "matroid.flats":
            self.counts["matroid.flats.size"] += len(result)
        elif qual == "arith.solve_exact":
            self.counts["arith.solve_exact.solved"] += result is not None
        elif qual in FAN_CONSTRUCTIONS and not any(self._depth[q] for q in FAN_CONSTRUCTIONS):
            self.counts["fans.faces"] += len(result.cones)
            self.counts["fans.build_s"] += took
