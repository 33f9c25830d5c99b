"""sl3frieze benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from the seed, runs ops one after another until
their summed latency reaches --seconds, checks every output and prints, as the
last line of stdout, {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 every op runs
twice, untraced and traced (alternating which goes first), and the metrics are
the per-layer ones. Times in the metrics are rescaled to the reference
machine's speed (see calibration.py). The line before the result, prefixed
"perfbench-info", records the environment, the cache state at the start, op
and sample counts, latency_p90_ms where at least 100 samples give it ten
samples above, error_rate, the machine's measured speed and the raw,
unscaled timings. The traced run also writes its spans to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict, namedtuple
from time import perf_counter

from calibration import CAL_REF_S, calibrate
from tracing import SPAN_NAMES, Tracer
from workloads import HERE, OUT, ROOT, WORKLOADS, Generate, crossing_cache_entries

SETUP_PROBES = 2  # cold set-ups in fresh interpreters, besides the run's own

# One executed op: `speed` turns its latency (s) into reference-speed seconds;
# `counts` is what the traced run reads off its output.
Record = namedtuple("Record", "op traced latency speed failed counts")

COUNT_UNITS = {
    "frieze.diamonds_per_op": "count",
    "frieze.max_entry_bits": "bits",
    "separation.pairs_per_op": "count",
    "mutation.moves_enumerated_per_step": "moves/step",
    "mutation.max_value_bits": "bits",
    "oracle.targets_per_op": "count",
}


def git_commit():
    """HEAD of the checkout's git repository, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "cpu_model": cpu, "commit": git_commit()}


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so that a calibration
    measures the CPU the op next to it ran on. Returns the CPUs it runs on."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:
        pass
    return sorted(os.sched_getaffinity(0))


def calibrations_after(seconds):
    """Calibration times taken right after `seconds` of timed work: about one
    per 50 ms of it, so that long work is scaled by a steady estimate of the
    speed around it."""
    return [calibrate() for _ in range(1 + min(int(seconds / 0.05), 19))]


def speed(before, after):
    """Factor that turns time measured between the two sets of calibrations
    into reference-speed time."""
    return CAL_REF_S / statistics.median(before + after)


def timed_setup(workload):
    """(raw seconds, seconds at reference speed) of workload.setup(). Each
    piece the set-up yields is scaled by the calibrations around it."""
    pieces = workload.setup()
    raw = normalized = 0.0
    before = [calibrate()]
    done = False
    while not done:
        start = perf_counter()
        try:
            next(pieces)
        except StopIteration:
            done = True
        piece = perf_counter() - start
        after = calibrations_after(piece)
        raw += piece
        normalized += piece * speed(before, after)
        before = after
    return raw, normalized


def probe_setup(name, seed):
    done = subprocess.run([sys.executable, str(HERE / "probe_setup.py"), name, str(seed)],
                          capture_output=True, text=True, timeout=170, check=True, cwd=ROOT)
    raw, normalized = done.stdout.split()[-2:]
    return float(raw), float(normalized)


def measure(workload, seconds, tracer):
    """Closed loop over the workload's inputs until the ops' summed latency
    reaches `seconds`. Every op sits between runs of calibrate(). Returns
    (records, failure messages)."""
    records, failures = [], []
    timed = 0.0
    i = 0
    before = [calibrate()]
    while timed < seconds:
        inp = workload.inputs[i % len(workload.inputs)]
        modes = (False,) if tracer is None else ((False, True) if i % 2 == 0 else (True, False))
        for traced in modes:
            if tracer is not None:
                tracer.op = i
            start = perf_counter()
            try:
                out = workload.op(inp, traced)
                error = None
            except Exception as e:  # a failed op is counted, never fatal
                out, error = None, e
            latency = perf_counter() - start
            timed += latency
            if traced:
                tracer.spans.append((i, "op", start, start + latency))
            if error is None:
                try:
                    workload.check(inp, out)
                except Exception as e:
                    error = e
            if error is not None:
                failures.append(f"op {i}: {type(error).__name__}: {error}")
            counts = workload.counts(inp, out) if traced and error is None else None
            after = calibrations_after(latency)
            records.append(Record(i, traced, latency, speed(before, after), error is not None, counts))
            before = after
        i += 1
    return records, failures


def end_to_end(workload, records, setup):
    lat = [r.latency * r.speed for r in records]
    completed = sum(1 for r in records if not r.failed)
    if isinstance(workload, Generate):
        rss = max(workload.child_rss_mb, default=0.0)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "ops_per_s": {"value": completed / sum(lat), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(lat) * 1000, "unit": "ms"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "setup_s": {"value": statistics.median(s[1] for s in setup), "unit": "s"},
    }


def per_layer(workload, records, tracer):
    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    ops = len(traced)
    op_speed = {r.op: r.speed for r in traced}
    busy, calls = defaultdict(float), defaultdict(int)
    for op, name, start, end in tracer.spans:
        busy[name] += (end - start) * op_speed[op]
        calls[name] += 1
    values = {}
    for name in SPAN_NAMES:
        values[f"{name}.ms_per_op"] = (busy[name] * 1000 / ops, "ms")
        values[f"{name}.calls_per_op"] = (calls[name] / ops, "count")
    layer_s = sum(busy[name] for name in SPAN_NAMES)
    traced_s = sum(r.latency * r.speed for r in traced)
    plain_s = sum(r.latency * r.speed for r in plain)
    overhead_ms = (plain_s - layer_s) * 1000 / ops if isinstance(workload, Generate) else 0.0
    values["cli.process_overhead_ms"] = (overhead_ms, "ms")
    values["trace.overhead_pct"] = ((traced_s / plain_s - 1) * 100, "%")
    values["trace.coverage_pct"] = (layer_s / traced_s * 100, "%")
    values["trace.traced_ops"] = (ops, "count")

    sums, maxima = defaultdict(int), defaultdict(int)
    counted = [r.counts for r in traced if r.counts is not None]
    for c in counted:
        for key, v in c.items():
            if key.endswith("_bits"):
                maxima[key] = max(maxima[key], v)
            else:
                sums[key] += v
    n = max(len(counted), 1)
    counts = {
        "frieze.diamonds_per_op": sums["diamonds"] / n,
        "frieze.max_entry_bits": maxima["entry_bits"],
        "separation.pairs_per_op": sums["pairs"] / n,
        "mutation.moves_enumerated_per_step": sums["moves_offered"] / sums["moves_taken"] if sums["moves_taken"] else 0,
        "mutation.max_value_bits": maxima["value_bits"],
        "oracle.targets_per_op": sums["targets"] / n,
    }
    for key, v in counts.items():
        values[key] = (v, COUNT_UNITS[key])
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    env = environment()
    env["run_on_cpus"] = pin_to_one_cpu()
    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, tracer)
    setup = [timed_setup(workload)]
    setup += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    cache_entries = crossing_cache_entries()

    records, failures = measure(workload, args.seconds, tracer)
    for message in failures[:5]:
        print(message, file=sys.stderr)

    plain = [r for r in records if not r.traced]
    attempted, failed = len(records), sum(1 for r in records if r.failed)
    raw_lat = [r.latency for r in plain]
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env,
        "cache_at_start": {"state": workload.cache, "crossing_entries": cache_entries},
        "input_pool": len(workload.inputs),
        "attempted": attempted,
        "samples": len(plain),
        "error_rate": failed / attempted,
        "machine_speed": statistics.median(r.speed for r in records),
        "setup_samples_s": [s[1] for s in setup],
        "raw": {"ops_per_s": sum(1 for r in plain if not r.failed) / sum(raw_lat),
                "latency_p50_ms": statistics.median(raw_lat) * 1000,
                "setup_s": statistics.median(s[0] for s in setup)},
    }
    if len(plain) >= 100:
        info["latency_p90_ms"] = statistics.quantiles([r.latency * r.speed for r in plain], n=10)[8] * 1000
        info["raw"]["latency_p90_ms"] = statistics.quantiles(raw_lat, n=10)[8] * 1000
    if tracer is None:
        metrics = end_to_end(workload, records, setup)
    else:
        metrics = per_layer(workload, records, tracer)
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"info": info, "spans": tracer.spans}, fh)
    print("perfbench-info " + json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
