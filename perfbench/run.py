"""Replay benchmark for arbor: end-to-end and per-layer metrics per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--blas-threads K]

Without ``--workload`` every workload runs in turn.  Without ``--seed`` the
seeded logs start from the scenario's committed seed.  Each workload's logs
are simulated here, untimed; a fresh child process (``measure.py``) then
builds, replays, checks and times them.  With ``--trace 1`` the child also
replays each log under the span tracer and reports per-layer metrics in place
of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
# a run with --workload must end within 180 s, simulation included
DEADLINE_S = 175.0

sys.path.insert(0, str(HERE))
from workloads import SEED_STRIDE, WORKLOADS  # noqa: E402


def make_logs(workload, seed, directory):
    """Simulate the reference log and the seeded logs; returns the manifest."""
    from arbor.sim import load_scenario, simulate, write_jsonl

    text = workload.scenario_path.read_text()
    ref_seed = load_scenario(text).seed
    base = ref_seed if seed is None else seed
    seeds = [ref_seed] + [base + SEED_STRIDE * i for i in range(workload.seeded_logs)]
    logs = []
    for i, s in enumerate(seeds):
        scenario = load_scenario(text)
        scenario.seed = s
        captures, truth = simulate(scenario)
        log, truth_path = directory / f"{i}_{s}_log.jsonl", directory / f"{i}_{s}_truth.jsonl"
        write_jsonl(captures, log)
        write_jsonl(truth, truth_path)
        logs.append({"seed": s, "log": str(log), "truth": str(truth_path),
                     "data_s": captures[-1].t - captures[0].t})
    return {"logs": logs}


def run_workload(name, seed, seconds, trace, blas_threads):
    started = time.monotonic()
    workload = WORKLOADS[name]
    work = OUT_DIR / f"{name}_{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        manifest_path = work / "manifest.json"
        manifest_path.write_text(json.dumps(make_logs(workload, seed, work)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(blas_threads)
        cmd = [sys.executable, str(HERE / "measure.py"), "--workload", name,
               "--manifest", str(manifest_path), "--seconds", str(seconds),
               "--trace", str(trace),
               "--trace-out", str(OUT_DIR / f"trace_{name}.jsonl.gz")]
        proc = subprocess.run(cmd, env=env, cwd=str(ROOT), stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)))
        if proc.returncode != 0:
            raise RuntimeError(f"measuring child for {name} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["report"]["blas_threads"] = blas_threads
    return result


def print_report(name, result):
    rep = result["report"]
    print(f"== {name}: logs (seeds) {rep['logs']}, cycles {rep['cycles']}, "
          f"BLAS threads {rep['blas_threads']}")
    for key, m in result["metrics"].items():
        print(f"  {key:32s} {m['value']:.6g} {m['unit']}")
    print(f"  operations (keyframes) attempted {result['attempted']} failed {result['failed']}")
    for key in ("unscaled", "probe_mean_us", "latency_samples", "tail_pct",
                "setup_samples", "ate_per_log", "traced_replays", "missing_layers",
                "trace_file"):
        if key in rep:
            print(f"  {key}: {rep[key]}")
    for problem in rep["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="one workload (default: all, in turn)")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--blas-threads", type=int, default=1)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit, so that subprocess.run kills and reaps
    # the measuring child on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "arbor" / "__init__.py").is_file():
        print(f"perfbench: no arbor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        t0 = time.perf_counter()
        results[name] = run_workload(name, args.seed, args.seconds, args.trace,
                                     args.blas_threads)
        print_report(name, results[name])
        print(f"  wall time of this workload's run: {time.perf_counter() - t0:.1f} s")

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
