"""Child process of the benchmark: build, replay, check and time one workload.

Started by ``run.py`` with PYTHONPATH pointing at the checkout's ``src`` and
the BLAS thread count fixed in the environment.  It reads the manifest of
generated logs, replays whole cycles over them until the time is spent, and
prints one JSON object with the measurements as its last line of output.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time

import numpy as np
from arbor import tree as T
from arbor.config import auto_setup, parse_config
from arbor.runner import ESTIMATE_CALIB, ESTIMATE_SENSOR, replay

from tracer import Tracer, layer_metrics
from workloads import WORKLOADS

# fresh builds timed before each replay, on top of the replay's own build
EXTRA_BUILDS = 10
# relative tolerance between the benchmark's ATE and MetricsReport.ate_rmse
ATE_MATCH_RTOL = 1e-9


def build(config_text):
    """One fresh application; returns it with the parse and auto-setup times."""
    t0 = perf_counter()
    server = parse_config(config_text)
    t1 = perf_counter()
    app = auto_setup(server)
    t2 = perf_counter()
    return app, t1 - t0, t2 - t1


def read_truth(path):
    """Truth poses by timestamp and the true calibration, read apart from arbor."""
    poses, calib = {}, None
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["sensor"] == "truth":
                poses[rec["t"]] = rec["data"]
            elif rec["sensor"] == "truth_calib":
                calib = rec["data"]
    return poses, calib


def walk(tree, node):
    yield node
    for child in tree.children(node):
        yield from walk(tree, child)


class Replayer:
    """Replays logs for one workload and checks every replay's outputs."""

    def __init__(self, workload, config_text):
        self.wl = workload
        self.config_text = config_text
        self.setup_samples: list = []   # (parse_s, auto_setup_s)
        self.problems: list = []
        self.truth: dict = {}

    def time_builds(self, n):
        for _ in range(n):
            _, parse_s, setup_s = build(self.config_text)
            self.setup_samples.append((parse_s, setup_s))

    def replay(self, entry, tracer=None):
        """One closed-loop replay of a log; returns its measurements."""
        wl = self.wl
        gc.collect()
        self.time_builds(EXTRA_BUILDS)
        app, parse_s, setup_s = build(self.config_text)
        self.setup_samples.append((parse_s, setup_s))
        first_t = app.tree.node(app.first_frame).timestamp

        latencies, kf_times, reports, window_breaches = [], [], [], []
        marks = []   # (wall, cpu) at the callback, then after the probe
        probe_times = []
        dispatch_start = {}
        if tracer is None:
            dispatch = app.pipeline.dispatch

            def timed_dispatch(sensor, t, data):
                t0 = perf_counter()
                events = dispatch(sensor, t, data)
                for event in events:
                    dispatch_start[id(event)] = t0
                return events

            app.pipeline.dispatch = timed_dispatch

        def on_keyframe(tree, event, report):
            if tracer is None:
                now, cpu_now = perf_counter(), process_time()
                latencies.append(now - dispatch_start.pop(id(event)))
                probe_times.append(probe())
                marks.append((now, cpu_now, perf_counter(), process_time()))
            else:
                tracer.on_keyframe()
            kf_times.append(event.t)
            reports.append((report.initial_cost, report.final_cost))
            if wl.window_frames is not None and len(tree.frames()) > wl.window_frames:
                window_breaches.append(event.t)

        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            c0, w0 = process_time(), perf_counter()
            records, metrics = replay(app, entry["log"], truth_path=entry["truth"],
                                      on_keyframe=on_keyframe)
            w1, c1 = perf_counter(), process_time()
        finally:
            if tracer is not None:
                tracer.uninstall()

        ate = self.check(entry, app, records, metrics, [first_t] + kf_times, reports,
                         window_breaches)
        # the replay cut at each keyframe's callback into segments of equal
        # work in every replay of the same log
        starts = [(w0, c0)] + [(m[2], m[3]) for m in marks]
        ends = [(m[0], m[1]) for m in marks] + [(w1, c1)]
        return {"wall": w1 - w0, "keyframes": len(kf_times), "ate": ate,
                "nodes": nodes_in(app.tree) if tracer is not None else None,
                "latencies": latencies, "probe": probe_times,
                "seg_wall": [e[0] - s[0] for s, e in zip(starts, ends)],
                "seg_cpu": [e[1] - s[1] for s, e in zip(starts, ends)]}

    def check(self, entry, app, records, metrics, frame_times, reports, window_breaches):
        """Correctness of one replay, computed apart from the program."""
        wl, log = self.wl, Path(entry["log"]).name
        problems = self.problems
        if entry["truth"] not in self.truth:
            self.truth[entry["truth"]] = read_truth(entry["truth"])
        poses, calib_true = self.truth[entry["truth"]]

        estimates = [r for r in records if r.sensor == ESTIMATE_SENSOR]
        unmatched = [r.t for r in estimates if r.t not in poses]
        if unmatched:
            problems.append(f"{log}: estimates at {unmatched[:3]} have no truth pose")
        sq = [(r.data[0] - poses[r.t][0]) ** 2 + (r.data[1] - poses[r.t][1]) ** 2
              for r in estimates if r.t in poses]
        ate = math.sqrt(sum(sq) / len(sq))
        if abs(ate - metrics.ate_rmse) > ATE_MATCH_RTOL * ate:
            problems.append(f"{log}: ATE {ate!r} != MetricsReport.ate_rmse {metrics.ate_rmse!r}")
        if not ate < wl.ate_ceiling_m:
            problems.append(f"{log}: ATE {ate:.4g} m not under {wl.ate_ceiling_m} m")

        est_times = sorted(r.t for r in estimates)
        if est_times != sorted(frame_times):
            problems.append(f"{log}: {len(est_times)} pose estimates for "
                            f"{len(frame_times) - 1} keyframes plus the first frame")
        bad = [(i, f) for i, f in reports if not f <= i]
        if bad:
            problems.append(f"{log}: {len(bad)} solves end above their initial cost")
        violations = app.tree.check_consistency()
        if violations:
            problems.append(f"{log}: check_consistency: {violations[:3]}")
        if window_breaches:
            problems.append(f"{log}: more than {wl.window_frames} live frames after "
                            f"{len(window_breaches)} keyframes")
        if wl.needs_loop_closure:
            tree = app.tree
            closures = sum(1 for n in walk(tree, tree.problem_id)
                           if n.kind == T.FACTOR
                           and getattr(tree.node(n).payload, "kind", None) == "relative_pose")
            if closures == 0:
                problems.append(f"{log}: no relative_pose factor added")
        if wl.calib_rel_tol is not None:
            est = next((r.data for r in records if r.sensor == ESTIMATE_CALIB), None)
            rel = [abs(e - c) / abs(c) for e, c in zip(est or [], calib_true)]
            if est is None:
                problems.append(f"{log}: no calibration estimate")
            elif not max(rel) <= wl.calib_rel_tol:
                problems.append(f"{log}: intrinsic {est} off truth {calib_true} by "
                                f"{max(rel):.3%} (limit {wl.calib_rel_tol:.0%})")
        return ate


# The machine's speed is sampled at every keyframe callback by a fixed probe
# (interpreter work and small numpy calls, like the estimator's own mix), and
# every reported time is scaled by PROBE_REF_S / (mean probe time of the
# run): times read as on this machine when the probe takes PROBE_REF_S.
PROBE_REF_S = 300e-6
_PROBE_V = np.arange(3.0)


def probe():
    """Seconds taken by the fixed probe."""
    t0 = perf_counter()
    s = 0.0
    for i in range(150):
        v = _PROBE_V * i
        s += math.hypot(v[0], v[1]) + float(v @ v)
    return perf_counter() - t0


def percentile(sorted_values, pct):
    """Linear-interpolation percentile of sorted samples."""
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def median(values):
    return percentile(sorted(values), 50.0)


def nodes_in(tree):
    return sum(1 for _ in walk(tree, tree.problem_id))


def run_cycles(seconds, logs, one_replay):
    """Whole cycles over the logs until another cycle would overrun ``seconds``."""
    start = perf_counter()
    cycles = []
    while True:
        t0 = perf_counter()
        cycles.append([one_replay(entry) for entry in logs])
        now = perf_counter()
        if now - start + (now - t0) > seconds:
            return cycles


def per_segment_median(replays, key):
    """Per segment (or keyframe), the median over the replays of one log."""
    return [median(v) for v in zip(*(r[key] for r in replays))]


def measure(wl, manifest, seconds, trace, trace_path):
    runner = Replayer(wl, wl.config_path.read_text())
    runner.time_builds(EXTRA_BUILDS)   # warm-up, not reported
    runner.setup_samples.clear()
    logs = manifest["logs"]
    result = {"report": {"logs": [e["seed"] for e in logs]}}

    if not trace:
        cycles = run_cycles(seconds, logs, runner.replay)
        attempted = sum(r["keyframes"] for c in cycles for r in c)
        wall = cpu = 0.0
        lat = []
        for i, entry in enumerate(logs):
            replays = [c[i] for c in cycles]
            if len({r["keyframes"] for r in replays}) != 1:
                runner.problems.append(f"replays of log {entry['seed']} differ in keyframes")
                continue
            wall += sum(per_segment_median(replays, "seg_wall"))
            cpu += sum(per_segment_median(replays, "seg_cpu"))
            lat += per_segment_median(replays, "latencies")
        lat.sort()
        setup = median([p + s for p, s in runner.setup_samples])
        probes = [x for c in cycles for r in c for x in r["probe"]]
        scale = PROBE_REF_S * len(probes) / sum(probes)
        data_s = sum(e["data_s"] for e in logs)
        ref = [c[0]["ate"] for c in cycles]
        if len(set(ref)) != 1:
            runner.problems.append(f"reference log ATE differs between cycles: {ref}")
        metrics = {
            "realtime_factor": (data_s / (wall * scale), "s/s"),
            "cpu_s_per_data_s": (cpu * scale / data_s, "s/s"),
            "kf_latency_p50_ms": (1e3 * scale * percentile(lat, 50.0), "ms"),
            "kf_latency_tail_ms": (1e3 * scale * percentile(lat, wl.tail_pct), "ms"),
            "setup_s": (setup * scale, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ate_m": (ref[0], "m"),
        }
        result["report"].update({
            "cycles": len(cycles), "latency_samples": len(lat),
            "tail_pct": wl.tail_pct, "setup_samples": len(runner.setup_samples),
            "ate_per_log": [r["ate"] for r in cycles[0]],
            "probe_mean_us": 1e6 * sum(probes) / len(probes),
            "unscaled": {"realtime_factor": data_s / wall, "cpu_s_per_data_s": cpu / data_s,
                         "kf_latency_p50_ms": 1e3 * percentile(lat, 50.0),
                         "kf_latency_tail_ms": 1e3 * percentile(lat, wl.tail_pct),
                         "setup_s": setup},
        })
    else:
        traced = []   # (layer metrics, traced wall, untraced wall less the probes)
        keep = {}

        def traced_pair(entry):
            plain = runner.replay(entry)
            tracer = Tracer()
            run = runner.replay(entry, tracer)
            traced.append((layer_metrics(tracer, run["keyframes"], run["nodes"]),
                           run["wall"], sum(plain["seg_wall"])))
            if not keep:
                keep["tracer"] = tracer
            else:
                tracer.spans.clear()
            return {"keyframes": plain["keyframes"] + run["keyframes"]}

        # a traced cycle replays the reference and the first seeded log twice
        # each, once plain and once under the tracer
        logs = logs[:2]
        cycles = run_cycles(seconds, logs, traced_pair)
        attempted = sum(r["keyframes"] for c in cycles for r in c)
        tracer = keep["tracer"]
        tracer.write(trace_path)
        names = traced[0][0].keys()
        metrics = {n: (sum(t[0][n] for t in traced) / len(traced),
                       "s" if n.endswith("_s") else "ratio" if n.endswith("ratio") else "count")
                   for n in names}
        parse = [p for p, _ in runner.setup_samples]
        auto = [s for _, s in runner.setup_samples]
        wall_traced = sum(t[1] for t in traced)
        wall_plain = sum(t[2] for t in traced)
        metrics.update({
            "config.parse_s": (median(parse), "s"),
            "config.auto_setup_s": (median(auto), "s"),
            "trace.overhead": (wall_traced / wall_plain - 1.0, "ratio"),
            "trace.spans": (len(tracer.spans), "count"),
            "trace.missing_layers": (len(tracer.missing), "count"),
        })
        result["report"].update({"cycles": len(cycles), "traced_replays": len(traced),
                                 "missing_layers": tracer.missing,
                                 "trace_file": str(trace_path)})

    result.update({
        "correct": not runner.problems,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    result["report"]["problems"] = runner.problems
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)
    manifest = json.loads(Path(args.manifest).read_text())
    result = measure(WORKLOADS[args.workload], manifest, args.seconds,
                     bool(args.trace), args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
