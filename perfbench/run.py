"""Episode benchmark for strm.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 30 --trace 0

Writes a seeded synthetic clip set as .stfb files, sets up the workload
several times (load_dataset, build_params or load_checkpoint, one warm-up
episode), runs episodes as a closed loop (one caller, the next episode only
after the previous one returns) for --seconds, then checks gradients and
matching on one episode at the set-up parameters and exits non-zero if
either check fails. With --trace 0 it reports the end-to-end metrics;
with --trace 1 it alternates untraced and traced episodes and reports
per-layer self time, tape nodes and forward GFLOP. The last line of stdout
is one JSON object; a full record with the environment goes to
.bench_build/perfbench/results/, and traced spans to .bench_build/perfbench/spans/.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import dataclasses
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 9
MIN_EPISODES = 100  # so that p90 has at least 10 samples beyond it
MEMORY_EPISODES = 3


def pin_blas_threads() -> int:
    """Pin BLAS to the CPUs this process may use; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(nproc: int, load_at_start: tuple[float, float, float]) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "nproc": nproc,
        "loadavg_start": list(load_at_start),
    }


def timed_loop(wl, state, seconds: float, tracer) -> dict:
    """Closed loop of episodes; with a tracer, odd-numbered episodes are traced."""
    times: dict[bool, list[float]] = {False: [], True: []}
    attempted = failed = 0
    counter = 1
    start = time.perf_counter()
    while True:
        traced = tracer is not None and counter % 2 == 1
        if traced:
            tracer.episode = counter
            tracer.install()
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.span("bench.episode"):
                    wl.step(state, counter)
            else:
                wl.step(state, counter)
            ok = True
        except Exception:
            ok = False
            if not failed:
                traceback.print_exc(file=sys.stderr)
        t1 = time.perf_counter()
        if traced:
            tracer.remove()
        attempted += 1
        failed += not ok
        if ok:
            times[traced].append((t1 - t0) * 1e3)
        counter += 1
        if t1 - start >= seconds and attempted >= MIN_EPISODES:
            break
    wall_s = time.perf_counter() - start
    return {"untraced_ms": times[False], "traced_ms": times[True], "attempted": attempted,
            "failed": failed, "wall_s": wall_s, "next": counter}


def peak_traced_mb(wl, state, counter: int) -> float:
    """Median over a few episodes of the peak bytes tracemalloc sees above the
    episode's starting level."""
    peaks = []
    tracemalloc.start()
    try:
        for i in range(MEMORY_EPISODES):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            wl.step(state, counter + i)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return statistics.median(peaks) / 2**20


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    load_at_start = os.getloadavg()
    nproc = pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import strm
    except ImportError as exc:
        print(f"perfbench: cannot import strm from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(strm.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: strm comes from {strm.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import tracer as tracer_mod
    import workloads as wl

    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(wl.WORKLOADS)}")
    # BENCHMARK.json names the metrics each mode reports and gives their units.
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    env = environment(nproc, load_at_start)
    print("# env " + json.dumps(env))

    inputs = OUT / "inputs" / f"{workload.name}-s{args.seed}-{os.getpid()}"
    tracer = tracer_mod.Tracer() if args.trace else None
    try:
        manifest = wl.write_clips(inputs, workload, args.seed)
        checkpoint = None if workload.train else wl.write_checkpoint(inputs, workload, args.seed)
        setup_s = []
        state = None
        for _ in range(SETUP_REPEATS):
            state = None
            gc.collect()
            if tracer is not None:
                tracer.install()
            t0 = time.perf_counter()
            try:
                state = wl.set_up(workload, args.seed, manifest, checkpoint)
            finally:
                setup_s.append(time.perf_counter() - t0)
                if tracer is not None:
                    tracer.remove()
        # The gates check the set-up parameters: after many SGD steps the
        # gradient can shrink below what a finite difference resolves.
        gate_state = dataclasses.replace(state, params=copy.deepcopy(state.params))
        loop = timed_loop(wl, state, args.seconds, tracer)
        if not loop["untraced_ms"] or (tracer is not None and not loop["traced_ms"]):
            print("perfbench: no timed episode succeeded", file=sys.stderr)
            return 4
        if tracer is None:
            ok_ms = loop["untraced_ms"]
            metrics = {
                "episode_ms_p50": statistics.median(ok_ms),
                "episode_ms_p90": statistics.quantiles(ok_ms, n=10, method="inclusive")[8],
                "episodes_per_s": len(ok_ms) / loop["wall_s"],
                "setup_s": statistics.median(setup_s),
                # Read before the gates, whose probe tapes are not part of the workload.
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "success_rate": 1.0 - loop["failed"] / loop["attempted"],
            }
        else:
            metrics = tracer.layer_metrics()
            metrics["diffcore.peak_traced_mb"] = peak_traced_mb(wl, state, loop["next"])
            metrics["trace.overhead_frac"] = (statistics.median(loop["traced_ms"])
                                              / statistics.median(loop["untraced_ms"]) - 1.0)
            tracer.write_jsonl(OUT / "spans" / f"{workload.name}-s{args.seed}.jsonl")
        grad_err = wl.directional_check(gate_state)
        match_err = wl.matching_check(gate_state)
        gates = {"grad_rel_err": grad_err, "matching_abs_err": match_err}
        print(f"# gates {json.dumps(gates)}")
        if not (grad_err <= wl.GRAD_BOUND and match_err <= wl.ORACLE_BOUND):
            print(f"perfbench: correctness gate failed: {gates}", file=sys.stderr)
            return 3
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    samples = {"untraced": len(loop["untraced_ms"]), "traced": len(loop["traced_ms"])}
    error_rate = loop["failed"] / loop["attempted"]
    print(f"# {workload.name}: {loop['attempted']} episodes attempted, {loop['failed']} failed "
          f"(error_rate {error_rate:.4g}), timed samples {samples}, wall {loop['wall_s']:.2f} s")
    for name, value in metrics.items():
        print(f"#   {name:34s} {value:14.6g} {units.get(name, '?')}")
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "gates": gates, "samples": samples,
              "attempted": loop["attempted"], "failed": loop["failed"],
              "error_rate": error_rate, "setup_s_each": setup_s,
              "metrics": metrics, "episode_ms": {"untraced": loop["untraced_ms"],
                                                 "traced": loop["traced_ms"]}}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    if sorted(metrics) != sorted(names):
        print(f"perfbench: metrics {sorted(metrics)} differ from BENCHMARK.json's {names}",
              file=sys.stderr)
        return 4
    if not all(math.isfinite(v) for v in metrics.values()):
        print(f"perfbench: non-finite metric in {metrics}", file=sys.stderr)
        return 4
    print(json.dumps({
        "correct": True,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
