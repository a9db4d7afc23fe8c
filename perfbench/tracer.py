"""Span tracer for the traced run.

The tracer wraps, from outside the program, the names that arbor's callers
look up at call time: module functions such as ``arbor.runner.sync`` and
methods of the pipeline, processor and tree classes.  Each call becomes a
span (name, start, end, parent span, keyframe id) kept in memory; a layer's
self time is its spans' durations minus the time their child spans cover.

A name that no longer exists is reported as a missing layer; the run goes on
and that layer's metrics read 0.
"""

from __future__ import annotations

import gzip
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute path, span name); the attribute path may name a class
# method as "Class.method"
TARGETS = (
    ("arbor.runner", "read_jsonl", "runner.read_jsonl"),
    ("arbor.runner", "sync", "solver.sync"),
    ("arbor.runner", "lm_solve", "solver.lm_solve"),
    ("arbor.solver", "total_cost", "solver.total_cost"),
    ("arbor.solver", "_linearize", "solver.linearize"),
    ("arbor.solver", "evaluate", "factors.evaluate"),
    ("arbor.processors", "integrate_step", "preint.integrate_step"),
    ("arbor.processors", "state_at_high_rate", "preint.state_at_high_rate"),
    ("arbor.processors", "Pipeline.dispatch", "processors.dispatch"),
    ("arbor.processors", "Pipeline.broadcast", "processors.broadcast"),
    ("arbor.processors", "MotionProcessor.process_capture", "processors.motion"),
    ("arbor.processors", "LandmarkTracker.process_capture", "processors.tracker"),
    ("arbor.processors", "LoopCloser.detect_and_close", "processors.loop_detect"),
    ("arbor.tree", "ProblemTree.enforce_window", "tree.enforce_window"),
    ("arbor.tree", "ProblemTree.drain_notifications", "tree.drain"),
)
# numpy.linalg as seen from arbor.solver (lm_solve's dense solve and its
# eigenvalue singularity check)
LINALG_TARGETS = (("solve", "numpy.linalg.solve"), ("eigvalsh", "numpy.linalg.eigvalsh"))

PRIOR_KINDS = ("prior_pose", "prior_block")
EVAL_KINDS = ("range_bearing", "motion", "relative_pose", "prior")


class _Proxy:
    """Stands in for a module; named attributes are replaced, the rest delegate."""

    def __init__(self, real, **overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.spans: list = []   # [name, start, end, parent index, keyframe id]
        self._stack: list = []
        self.keyframe = 0
        self.counts: Counter = Counter()
        self.active_dims: list = []
        self.factors_last = 0
        self._useful: dict = {}  # id(SolverProblem) -> factors touching an active column
        self._restore: list = []
        self.missing: list = []

    # ------------------------------------------------------------------
    # spans

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.keyframe]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # counters taken at the wrapped boundaries

    def _after_evaluate(self, args, result):
        kind = args[0].kind
        self.counts["factors.evals." + ("prior" if kind in PRIOR_KINDS else kind)] += 1

    def _after_sync(self, args, result):
        problem = args[0]
        blocks = problem.blocks
        self._useful[id(problem)] = sum(
            1 for f in problem.factors.values()
            if any(blocks[tuple(c)].offset is not None for c in f.constrained))
        self.active_dims.append(problem.total_dim)
        self.factors_last = len(problem.factors)

    def _after_sweep(self, args, result):
        problem = args[0]
        self.counts["factors.useful"] += self._useful.get(id(problem), 0)
        self.counts["factors.swept"] += len(problem.factors)

    def _after_lm(self, args, result):
        self.counts["solver.iterations"] += result.iterations
        self.counts["solver.accepted_steps"] += result.accepted_steps

    def _after_drain(self, args, result):
        self.counts["tree.notifications"] += len(result)

    def _after_loop(self, args, result):
        if result is not None:
            self.counts["processors.loop_closures"] += 1

    # ------------------------------------------------------------------
    # install / remove

    def install(self):
        after = {
            "factors.evaluate": self._after_evaluate,
            "solver.sync": self._after_sync,
            "solver.total_cost": self._after_sweep,
            "solver.linearize": self._after_sweep,
            "solver.lm_solve": self._after_lm,
            "tree.drain": self._after_drain,
            "processors.loop_detect": self._after_loop,
        }
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            try:
                for part in owner_path:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except AttributeError:
                self.missing.append(name)
                continue
            setattr(owner, attr, self._wrap(name, fn, after.get(name)))
            self._restore.append((owner, attr, fn))

        solver = importlib.import_module("arbor.solver")
        real_np = getattr(solver, "np", None)
        linalg = getattr(real_np, "linalg", None)
        if linalg is None:
            self.missing.extend(name for _, name in LINALG_TARGETS)
            return
        wrapped = {attr: self._wrap(name, getattr(linalg, attr))
                   for attr, name in LINALG_TARGETS}
        solver.np = _Proxy(real_np, linalg=_Proxy(linalg, **wrapped))
        self._restore.append((solver, "np", real_np))

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore = []

    def on_keyframe(self):
        self.keyframe += 1

    # ------------------------------------------------------------------
    # results

    def layer_totals(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, total, self_s = out.get(name, (0, 0.0, 0.0))
            dur = end - start
            out[name] = (calls + 1, total + dur, self_s + dur - child_time[i])
        return out

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for name, start, end, parent, kf in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "keyframe": kf}))
                fh.write("\n")


def layer_metrics(tracer: Tracer, keyframes: int, nodes_final: int) -> dict:
    """Per-layer metrics of one traced replay (seconds are self time)."""
    totals = tracer.layer_totals()

    def self_s(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    c = tracer.counts
    solves = calls("solver.lm_solve")
    cost_evals = calls("solver.total_cost")
    # lm_solve evaluates the cost once at its start and once per tried step
    steps = cost_evals - solves
    dims = tracer.active_dims
    swept = c["factors.swept"]
    m = {
        "runner.read_log_s": self_s("runner.read_jsonl"),
        "runner.records": calls("processors.dispatch"),
        "processors.dispatch_self_s": self_s("processors.dispatch"),
        "processors.motion_s": self_s("processors.motion"),
        "processors.tracker_s": self_s("processors.tracker"),
        "processors.broadcast_s": self_s("processors.broadcast"),
        "processors.keyframes": keyframes,
        "processors.loop_detect_s": self_s("processors.loop_detect"),
        "processors.loop_closures": c["processors.loop_closures"],
        "preint.integrate_s": self_s("preint.integrate_step"),
        "preint.high_rate_s": self_s("preint.state_at_high_rate"),
        "preint.integrate_steps": calls("preint.integrate_step"),
        "preint.high_rate_queries": calls("preint.state_at_high_rate"),
        "tree.enforce_window_s": self_s("tree.enforce_window"),
        "tree.drain_s": self_s("tree.drain"),
        "tree.notifications": c["tree.notifications"],
        "tree.nodes_final": nodes_final,
        "solver.sync_s": self_s("solver.sync"),
        "solver.lm_self_s": self_s("solver.lm_solve"),
        "solver.linearize_s": self_s("solver.linearize"),
        "solver.cost_s": self_s("solver.total_cost"),
        "solver.linearizations": calls("solver.linearize"),
        "solver.cost_evals": cost_evals,
        "solver.linear_solve_s": self_s("numpy.linalg.solve", "numpy.linalg.eigvalsh"),
        "solver.linear_solves": calls("numpy.linalg.solve"),
        "solver.active_dim_max": max(dims) if dims else 0,
        "solver.active_dim_mean": sum(dims) / len(dims) if dims else 0.0,
        "solver.iterations": c["solver.iterations"],
        "solver.steps_attempted": steps,
        "solver.step_accept_ratio": c["solver.accepted_steps"] / steps if steps else 0.0,
        "solver.factors_last": tracer.factors_last,
        "factors.evaluate_s": self_s("factors.evaluate"),
        "factors.evaluations": calls("factors.evaluate"),
        "factors.useful_ratio": c["factors.useful"] / swept if swept else 0.0,
    }
    for kind in EVAL_KINDS:
        m["factors.evals." + kind] = c["factors.evals." + kind]
    return m
