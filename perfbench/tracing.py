"""Spans around the program's public functions, recorded from outside it.

:func:`traced` wraps each function named in :data:`SPANS` in a timer and
binds the wrapper wherever a ``lecnce`` module holds the function: the
defining module, every module that imported it by name, and the
``alignment.DTW_ALGORITHMS`` table that ``align`` dispatches through.  On
exit the original objects are put back, so untraced and traced rounds run
in one process.

Spans are aggregated in memory by (command, parent span, span) instead of
being kept one by one: a desk round makes about a million calls.  A span's
self time is its duration minus the durations of the spans it called.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

LECNCE_MODULES = ("numerics", "alignment", "losses", "encoders", "datagen", "evalkit", "trainer", "textaug", "cli")


def _rows(args, kwargs, result):
    return {"rows": len(args[1])}


def _cells(args, kwargs, result):
    values = getattr(args[0], "values", args[0])
    return {"cells": int(np.size(values))}


def _hinge_active(args, kwargs, result):
    return {"active": int(result.value > 0.0)}


def _file_mb(args, kwargs, result):
    return {"mb": os.path.getsize(args[0]) / 1e6}


# (defining module, function) -> (span name, counter hook or None)
SPANS = {
    ("datagen", "generate_dataset"): ("datagen.generate", None),
    ("datagen", "save_dataset"): ("datagen.save", None),
    ("datagen", "load_dataset"): ("datagen.load", None),
    ("trainer", "train_run"): ("trainer.run", None),
    ("trainer", "train_step"): ("trainer.step", None),
    ("encoders", "forward"): ("encoders.forward", _rows),
    ("encoders", "backward"): ("encoders.backward", None),
    ("encoders", "adamw_step"): ("encoders.adamw", None),
    ("encoders", "save_checkpoint"): ("encoders.ckpt_save", _file_mb),
    ("encoders", "load_checkpoint"): ("encoders.ckpt_load", None),
    ("losses", "clip_lecnce"): ("losses.clip_lecnce", None),
    ("losses", "hier_lecnce"): ("losses.hier_lecnce", None),
    ("losses", "info_nce"): ("losses.info_nce", None),
    ("losses", "build_cost_matrix"): ("losses.cost_build", None),
    ("losses", "cost_matrix_backward"): ("losses.cost_backward", None),
    ("losses", "dtw_hinge"): ("losses.hinge", _hinge_active),
    ("alignment", "dtw_dp"): ("alignment.dp", _cells),
    ("alignment", "dtw_greedy"): ("alignment.greedy", None),
    ("alignment", "dtw_subgradient"): ("alignment.subgradient", None),
    ("alignment", "reverse_columns"): ("alignment.reverse", None),
    ("numerics", "as_matrix"): ("numerics.as_matrix", None),
    ("evalkit", "linear_probe"): ("evalkit.probe", None),
    ("evalkit", "zero_shot_classify"): ("evalkit.zero_shot", None),
    ("evalkit", "recall_at_k"): ("evalkit.recall", None),
    ("evalkit", "pool_video_embedding"): ("evalkit.pool", None),
}


class Tracer:
    """Aggregated spans of one round.

    ``stats[(command, parent, name)]`` holds [calls, total_s, self_s];
    ``counters[(command, name, counter)]`` sums what the span hooks count;
    ``steps`` keeps (level, total_s, self_s) of every train_step call.
    """

    def __init__(self):
        self.command = None
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = defaultdict(float)
        self.steps: list[tuple[str, float, float]] = []
        self._stack: list[list] = []  # [span name, time spent in child spans]

    def wrap(self, name, fn, hook=None):
        stack, stats, counters = self._stack, self.stats, self.counters
        perf_counter = time.perf_counter

        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = stats[(self.command, parent, name)]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if hook is not None:
                for counter, value in hook(args, kwargs, result).items():
                    counters[(self.command, name, counter)] += value
            if name == "trainer.step":
                self.steps.append((args[0], dt, dt - frame[1]))
            return result

        span.__wrapped__ = fn
        return span

    def calls(self, name, command="train") -> int:
        return sum(v[0] for (cmd, _, n), v in self.stats.items() if n == name and cmd == command)

    def total_s(self, name, command="train") -> float:
        return sum(v[1] for (cmd, _, n), v in self.stats.items() if n == name and cmd == command)

    def self_s(self, name, command="train") -> float:
        return sum(v[2] for (cmd, _, n), v in self.stats.items() if n == name and cmd == command)

    def counter(self, name, counter, command="train") -> float:
        return self.counters.get((command, name, counter), 0.0)

    def edges(self) -> list[dict]:
        """The call tree as (command, parent, span) edges, for the BENCH file."""
        return [
            {"command": cmd, "parent": parent, "span": name, "calls": v[0], "total_s": v[1], "self_s": v[2]}
            for (cmd, parent, name), v in sorted(self.stats.items(), key=lambda kv: tuple(map(str, kv[0])))
        ]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Bind ``tracer``'s span wrappers wherever the program looks its functions up."""
    modules = [sys.modules[f"lecnce.{m}"] for m in LECNCE_MODULES]
    alignment = sys.modules["lecnce.alignment"]
    patched = []  # (namespace, key, original); a dict namespace for DTW_ALGORITHMS
    try:
        for (module_name, attr), (name, hook) in SPANS.items():
            original = getattr(sys.modules[f"lecnce.{module_name}"], attr)
            wrapper = tracer.wrap(name, original, hook)
            sites = [(m, key) for m in modules for key, value in vars(m).items() if value is original]
            sites += [(alignment.DTW_ALGORITHMS, key) for key, value in alignment.DTW_ALGORITHMS.items() if value is original]
            for namespace, key in sites:
                patched.append((namespace, key, original))
                _bind(namespace, key, wrapper)
        yield tracer
    finally:
        for namespace, key, original in reversed(patched):
            _bind(namespace, key, original)


def _bind(namespace, key, value):
    if isinstance(namespace, dict):
        namespace[key] = value
    else:
        setattr(namespace, key, value)
