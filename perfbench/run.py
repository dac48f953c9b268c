"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload loop-http --seed 1 --seconds 40 --trace 0

With --trace 0 the last line of standard output holds every end-to-end
metric; with --trace 1 it holds every per-layer metric, from cycles that
alternate untraced and traced, and the spans go to
.perfbench/traces/<workload>.jsonl, replacing the last traced run's. A
human summary goes to standard error. The exit code is 0 when the run
finished, whatever its checks found, and 2, without a result, when the
program under test cannot be found or the disk has less than 512 MiB free.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "setup_s": "s", "run_s": "s", "replay_s": "s", "cpu_s": "s",
    "backend_requests": "count", "workspace_files": "count", "workspace_dirs": "count",
    "workspace_mb": "MiB", "peak_rss_mb": "MiB",
}
MIN_FREE_BYTES = 512 * 2**20
HOST_REPEATS = 7
SETUPS_PER_CYCLE = 2


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def host_ref() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now."""
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(120_000):
        acc = (acc * 31 + i) % 1_000_003
        table[acc & 1023] = i
    return time.perf_counter() - t0


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "evoloop" / "__init__.py").is_file():
        print(f"error: no evoloop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    free = shutil.disk_usage(ROOT).free
    if free < MIN_FREE_BYTES:
        print(f"error: {free / 2**20:.0f} MiB free under {ROOT}, "
              f"need {MIN_FREE_BYTES / 2**20:.0f}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    # a terminated run still stops the stub service and removes its workspaces
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    result = run(workload, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def run(workload, seconds: float, trace: bool) -> dict:
    hosts = [host_ref() for _ in range(HOST_REPEATS)]
    setups, cycles, traced = [], [], []
    try:
        workload.prepare()
        workload.open()
        # one cycle first, checked but not timed: imports, the interpreter's
        # caches and the volume's state after whatever ran before settle
        warmup = workload.cycle(0)
        deadline = time.perf_counter() + seconds
        index = 1
        while True:
            setups += [workload.setup() for _ in range(SETUPS_PER_CYCLE)]
            tracer = None
            if trace and index % 2 == 0:
                tracer = tracing.Tracer()
                tracer.install()
            try:
                cycle = workload.cycle(index, tracer)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            (traced if tracer is not None else cycles).append((cycle, tracer))
            index += 1
            if time.perf_counter() >= deadline and (not trace or index % 2 == 1):
                break
    finally:
        workload.close()
    hosts += [host_ref() for _ in range(HOST_REPEATS)]

    everything = [warmup] + [c for c, _ in cycles + traced]
    attempted = sum(c.attempted for c in everything)
    failed = sum(c.failed for c in everything)
    correct = not any(c.wrong for c in everything)
    # a cycle whose cold run failed times something else: leave it out
    plain = [c for c, _ in cycles if c.cold_ok]
    traced = [(c, t) for c, t in traced if c.cold_ok]

    if trace:
        trace_dir = workload.root / workloads.WORK_DIR / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        path = trace_dir / f"{workload.name}.jsonl"
        path.unlink(missing_ok=True)
        layers = []
        for k, (cycle, tracer) in enumerate(traced):
            tracer.write(path, k)
            values = tracing.layer_metrics(tracer.spans, tracer.retries)
            values["service.requests"] = cycle.service.get("requests", 0)
            values["service.busy_s"] = cycle.service.get("busy_s", 0.0)
            values["service.peak_in_flight"] = cycle.service.get("peak_in_flight", 0)
            layers.append(values)
        values = {name: median([v.get(name, 0) for v in layers])
                  for name in tracing.PER_LAYER}
        values["host.ref_s"] = median(hosts)
        values["trace.overhead_s"] = (median([c.cold_s for c, _ in traced])
                                      - median([c.cold_s for c in plain]))
        metrics = {name: {"value": values[name], "unit": per_layer_unit(name)}
                   for name in tracing.PER_LAYER}
    else:
        values = {
            "setup_s": median(setups),
            "run_s": median([c.cold_s for c in plain]),
            "replay_s": median([c.replay_s for c in plain]),
            "cpu_s": median([c.cold_cpu_s for c in plain]),
            "backend_requests": max((c.requests for c in plain), default=0),
            "workspace_files": max((c.files for c in plain), default=0),
            "workspace_dirs": max((c.dirs for c in plain), default=0),
            "workspace_mb": max((c.bytes for c in plain), default=0) / 2**20,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    summary(workload, setups, hosts, plain, traced)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def summary(workload, setups, hosts, plain, traced) -> None:
    def fmt(values):
        return " ".join(f"{v:.4f}" for v in values)

    err = sys.stderr
    print(f"{workload.name} seed {workload.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced cycles", file=err)
    print(f"  setup_s   {fmt(setups)}", file=err)
    print(f"  host_s    {fmt(hosts)}", file=err)
    print(f"  cold_s    {fmt(c.cold_s for c in plain)}", file=err)
    print(f"  warm_s    {fmt(c.warm_s for c in plain)}", file=err)
    print(f"  replay_s  {fmt(c.replay_s for c in plain)}", file=err)
    if traced:
        print(f"  traced cold_s {fmt(c.cold_s for c, _ in traced)}", file=err)


if __name__ == "__main__":
    sys.exit(main())
