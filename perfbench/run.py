#!/usr/bin/env python3
"""End-to-end benchmark of the generate_graph -> edgelist2adw -> partition_file
pipeline, with a traced run that splits partitioning time into layers.

    python3 perfbench/run.py --workload unbounded --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root. The first run builds the shipped binaries and
the three benchmark programs into .bench_build/cmake (CMakeLists.txt here).
Inputs come from the seed alone. Workloads (README.md says why each one):

    unbounded   rmat 500k edges, adwise, L = -1, --output + --checkpoint
    hdrf-4m     rmat 4M edges, hdrf
    sharded-z2  rmat 500k edges in 2 .adw shards, adwise, L = -1, spread 16

--trace 0 times partition_file with tracing off, repeating it until
--seconds have passed (at least three times), and reports the end-to-end
metrics as medians. The host's speed drifts by up to 2x over minutes, so
the harness also runs perfbench_calib, a fixed kernel that shares no code
with the program, before the first run and after each, and reports times in
reference-host seconds: wall x CALIB_REF_S / the median calibration time
(setup_s too). The raw walls are printed above the JSON line.
--trace 1 runs partition_file once untraced and perfbench_driver once
traced, and reports the per-layer metrics. Every run's output is verified
(edge multiset, partition ids, replication and balance against the
program's own summary, and output determinism); a run failing any check
counts in "failed" and adds no timing. Human-readable lines go first; the
last stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}.
"""
import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

K = 32
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_BUILD = os.path.join(BUILD, "cmake")
RUN_TIMEOUT_S = 150

WORKLOADS = {
    "unbounded": dict(scale=1, algorithm="adwise", checkpoint=True),
    "hdrf-4m": dict(scale=4, algorithm="hdrf"),
    "sharded-z2": dict(scale=1, algorithm="adwise", shards=2, spread=16),
}

END_TO_END_UNITS = {
    "partition_ref_s": "s",
    "edges_per_ref_s": "1/s",
    "replication_factor": "ratio",
    "load_balance": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metric -> unit, in the order the traced run prints them.
PER_LAYER_UNITS = {
    "io.open_s": "s", "io.next_s": "s", "io.prefetch_wait_s": "s",
    "io.pread_s": "s", "io.retries": "count",
    "core.self_s": "s", "core.scores_per_assignment": "ratio",
    "core.assignments_per_pop": "ratio",
    "core.forced_secondary_share": "share",
    "core.candidates_per_score": "ratio", "core.secondary_rescans": "count",
    "core.demotion_sweeps": "count", "core.max_window": "count",
    "core.final_window": "count", "core.adaptations": "count",
    "core.batch_rescore_s": "s", "core.drain_walk_s": "s",
    "core.window_refill_s": "s",
    "partition.self_s": "s", "partition.ckpt_count": "count",
    "partition.ckpt_snapshot_s": "s", "partition.ckpt_commit_s": "s",
    "partition.ckpt_bytes": "bytes", "partition.spot_wall_s": "s",
    "partition.spot_max_s": "s", "partition.spot_min_s": "s",
    "partition.spot_speedup": "ratio", "partition.spot_merge_s": "s",
    "cli.sink_s": "s", "cli.sink_fsync_s": "s", "cli.finalize_s": "s",
    "cli.output_bytes": "bytes",
    "graph.generate_s": "s", "io.convert_s": "s", "io.shard_s": "s",
    "trace.wall_s": "s", "trace.overhead": "ratio",
    "trace.unattributed_share": "share", "host.calib_s": "s",
}

SETUP_REPEATS = 3
# Timed partition_file runs per untraced invocation, at least: the median
# of three shrugs off one slow run.
MIN_RUNS = 3

# perfbench_calib rounds per calibration (~0.28 s), calibrations before the
# first timed run, the kernel's time on the reference host (the 4-vCPU VM
# the README's numbers come from) and the checksum every run of it must
# print.
CALIB_ROUNDS = 4
CALIB_WARMUP = 3
CALIB_REF_S = 0.28
CALIB_CHECKSUM = 3373132608200149839


class BenchError(Exception):
    """The benchmark itself could not run (build, tools, setup)."""


def log(msg):
    print(msg, flush=True)


def binary(name):
    for sub in ("adwise/examples", "adwise/tools", ""):
        path = os.path.join(CMAKE_BUILD, sub, name)
        if os.path.isfile(path):
            return path
    raise BenchError(f"{name} was not built")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError(f"no CMakeLists.txt at {ROOT}: run from the "
                         "repository root of a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as out:
        steps = [
            ["cmake", "-S", BENCH_DIR, "-B", CMAKE_BUILD,
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", CMAKE_BUILD, "-j", "4", "--target",
             "partition_file", "generate_graph", "edgelist2adw",
             "perfbench_driver", "perfbench_check", "perfbench_calib"],
        ]
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def timed(cmd, stdout=subprocess.DEVNULL):
    """Runs one setup step; returns its wall seconds."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, stdout=stdout, stderr=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    return elapsed


def setup(workload, seed, work):
    """Builds the workload's input SETUP_REPEATS times; returns the input
    path, the .adw path, the per-step times of each repeat and the .adw
    digest."""
    w = WORKLOADS[workload]
    txt = os.path.join(work, "graph.txt")
    adw = os.path.join(work, "graph.adw")
    adws = os.path.join(work, "graph.adws")
    repeats = []
    digests = set()
    for _ in range(SETUP_REPEATS):
        with open(txt, "w") as out:
            gen_s = timed([binary("generate_graph"), "rmat",
                           str(w["scale"]), str(seed)], stdout=out)
        conv_s = timed([binary("edgelist2adw"), txt, adw])
        shard_s = 0.0
        if "shards" in w:
            shard_s = timed([binary("edgelist2adw"), "--shards",
                             str(w["shards"]), adw, adws])
        repeats.append({"graph.generate_s": gen_s, "io.convert_s": conv_s,
                        "io.shard_s": shard_s,
                        "setup_s": gen_s + conv_s + shard_s})
        digests.add(sha256(adw))
    if len(digests) != 1:
        raise BenchError("the same seed built different .adw inputs")
    os.remove(txt)
    # Write the inputs back now: writeback during the first timed run
    # would slow it.
    os.sync()
    return (adws if "shards" in w else adw), adw, repeats, digests.pop()


def spawn_timed(cmd, stderr_path, stdout_path=os.devnull):
    """Runs cmd, returning (exit code, wall seconds, CPU seconds, peak RSS in
    MB) for that one process, from wait4."""
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    start = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, os.environ, file_actions=[
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, write, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, write, 0o644),
    ])
    killer = threading.Timer(RUN_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        killer.cancel()
    elapsed = time.perf_counter() - start
    return (os.waitstatus_to_exitcode(status), elapsed,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def partition_args(workload, graph, out, work):
    w = WORKLOADS[workload]
    # L = -1: no latency preference, so every workload is deterministic.
    args = [graph, w["algorithm"], str(K), "-1", "--output", out]
    if w.get("checkpoint"):
        args += ["--checkpoint", os.path.join(work, "run.adwk")]
    if "spread" in w:
        args += ["--spread", str(w["spread"])]
    return args


SUMMARY_RE = re.compile(r"replication degree ([0-9.]+), imbalance ([0-9.]+)")


def verify(adw, out, stderr_text, expect):
    """Checks one run's assignment file. Returns (metrics, error); error is
    None when every check passes. `expect` holds what an earlier run of the
    same input produced (filled in by the first run)."""
    if os.path.exists(out + ".partial"):
        return None, "a .partial output file was left behind"
    if not os.path.exists(out):
        return None, "no output file"
    proc = subprocess.run([binary("perfbench_check"), adw, out, str(K)],
                          capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        return None, "perfbench_check failed: " + proc.stderr.strip()
    check = json.loads(proc.stdout)
    if not check["ok"]:
        return None, check["error"]
    summary = SUMMARY_RE.search(stderr_text)
    if summary is None:
        return None, "no replication summary on stderr"
    for name, printed in (("replication", summary.group(1)),
                          ("imbalance", summary.group(2))):
        if abs(check[name] - float(printed)) > 0.5e-4 + 1e-9:
            return None, (f"{name} {check[name]:.6f} recomputed from the file "
                          f"does not round to the printed {printed}")
    counters = re.search(r"^adwise counters: .*$", stderr_text, re.M)
    seen = {"output": sha256(out),
            "counters": counters.group(0) if counters else None}
    for key, value in seen.items():
        if expect.setdefault(key, value) != value:
            return None, f"{key} differs from an earlier run of this seed"
    return {"replication_factor": check["replication"],
            "load_balance": check["load_balance"]}, None


class DigestRecord:
    """Output digests per (workload, input .adw, partition_file build), kept
    in .bench_build so repeated invocations check determinism across runs."""

    def __init__(self, workload, adw_digest):
        self.path = os.path.join(BUILD, "digests.json")
        self.key = (f"{workload}/{adw_digest}/"
                    f"{sha256(binary('partition_file'))}")
        try:
            with open(self.path) as f:
                self.all = json.load(f)
        except (OSError, ValueError):
            self.all = {}
        self.expect = dict(self.all.get(self.key, {}))

    def save(self):
        self.all[self.key] = self.expect
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.all, f, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def describe_input(workload, seed, adw, digest):
    proc = subprocess.run([binary("perfbench_check"), adw],
                          capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("perfbench_check failed: " + proc.stderr.strip())
    info = json.loads(proc.stdout)
    log(f"input {workload} seed {seed}: |V|={info['vertices']} "
        f"|E|={info['edges']} max_degree={info['max_degree']} "
        f"adw_sha256={digest}")
    return info


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def print_metric(name, unit, values):
    med = statistics.median(values)
    q1, q3 = quartiles(values)
    log(f"  {name:<28} {med:>14.6g} {unit:<6} "
        f"(median of {len(values)}, q1 {q1:.6g}, q3 {q3:.6g})")


def calibrate():
    """Runs perfbench_calib once; returns its kernel seconds."""
    proc = subprocess.run([binary("perfbench_calib"), str(CALIB_ROUNDS)],
                          capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("perfbench_calib failed: " + proc.stderr.strip())
    result = json.loads(proc.stdout)
    if result["checksum"] != CALIB_CHECKSUM:
        raise BenchError(f"perfbench_calib checksum {result['checksum']} is "
                         f"not {CALIB_CHECKSUM}")
    return result["seconds"]


def run_untraced(workload, seed, seconds, work, graph, adw, digest, info,
                 setups):
    """Times partition_file until `seconds` have passed (at least MIN_RUNS
    times), calibrating the host CALIB_WARMUP times first and once after
    every run. Times are reported on the reference-host scale: the median
    wall x CALIB_REF_S / the median calibration, medians on both sides so
    one disturbed sample moves neither. setup_s is scaled the same way."""
    record = DigestRecord(workload, digest)
    cli = binary("partition_file")
    samples = {"partition_s": [], "peak_rss_mb": [], "replication_factor": [],
               "load_balance": []}
    attempted = failed = 0
    start = time.perf_counter()
    calibs = [calibrate() for _ in range(CALIB_WARMUP)]
    while attempted < MIN_RUNS or time.perf_counter() - start < seconds:
        attempted += 1
        out = os.path.join(work, f"run{attempted}.out")
        err = os.path.join(work, f"run{attempted}.err")
        code, wall, cpu, rss = spawn_timed(
            [cli] + partition_args(workload, graph, out, work), err)
        calibs.append(calibrate())
        with open(err) as f:
            stderr_text = f.read()
        quality, error = (None, f"exit code {code}: {stderr_text.strip()}") \
            if code != 0 else verify(adw, out, stderr_text, record.expect)
        if error is None:
            log(f"run {attempted}: partition_s {wall:.4f} cpu_s {cpu:.4f} "
                f"then calib_s {calibs[-1]:.4f} peak_rss_mb {rss:.1f} "
                f"replication {quality['replication_factor']:.4f}")
            samples["partition_s"].append(wall)
            samples["peak_rss_mb"].append(rss)
            for name, value in quality.items():
                samples[name].append(value)
        else:
            failed += 1
            log(f"run {attempted}: FAILED: {error}")
        for path in (out, err):
            if os.path.exists(path):
                os.remove(path)
    if failed == 0:
        record.save()

    metrics = {}
    log(f"{workload} seed {seed}: end-to-end metrics")
    if samples["partition_s"]:
        scale = CALIB_REF_S / statistics.median(calibs)
        ref_s = statistics.median(samples["partition_s"]) * scale
        values = {"partition_ref_s": ref_s,
                  "edges_per_ref_s": info["edges"] / ref_s,
                  "setup_s": scale * statistics.median(s["setup_s"]
                                                       for s in setups)}
        for name in ("replication_factor", "load_balance", "peak_rss_mb"):
            values[name] = statistics.median(samples[name])
        for name, unit in END_TO_END_UNITS.items():
            log(f"  {name:<28} {values[name]:>14.6g} {unit}")
            metrics[name] = {"value": values[name], "unit": unit}
        log("  from the wall times (scale to the reference host "
            f"{scale:.6g}):")
        print_metric("partition_s", "s", samples["partition_s"])
        print_metric("host.calib_s", "s", calibs)
        print_metric("setup_wall_s", "s", [s["setup_s"] for s in setups])
    log(f"  {'error_rate':<28} {failed / attempted:>14.6g} share "
        f"({failed} of {attempted} runs failed)")
    return metrics, attempted, failed


def run_traced(workload, seed, work, graph, adw, digest, setups):
    """One untraced partition_file run and one traced perfbench_driver run
    on the same input: per-layer metrics, and the driver checked against
    the CLI. host.calib_s is one calibration before the two, so a reader
    can tell a slow host from a slow layer."""
    record = DigestRecord(workload, digest)
    calib_s = calibrate()
    attempted = failed = 0
    outputs = {}
    cli_wall = None
    layers = None
    for tool in ("partition_file", "perfbench_driver"):
        attempted += 1
        out = os.path.join(work, f"{tool}.out")
        err = os.path.join(work, f"{tool}.err")
        stdout_path = os.path.join(work, f"{tool}.stdout")
        code, wall, _, _ = spawn_timed(
            [binary(tool)] + partition_args(workload, graph, out, work), err,
            stdout_path)
        with open(err) as f:
            stderr_text = f.read()
        quality, error = (None, f"exit code {code}: {stderr_text.strip()}") \
            if code != 0 else verify(adw, out, stderr_text, record.expect)
        if error is None and tool == "perfbench_driver":
            with open(stdout_path) as f:
                layers = json.loads(f.read().strip().splitlines()[-1])
            error = check_attribution(layers)
        if error is None:
            outputs[tool] = sha256(out)
            if tool == "partition_file":
                cli_wall = wall
            log(f"{tool}: {wall:.4f} s, replication "
                f"{quality['replication_factor']:.4f}")
        else:
            failed += 1
            log(f"{tool}: FAILED: {error}")
    if failed == 0:
        record.save()

    metrics = {}
    if layers is not None:
        m = dict(layers["metrics"])
        for name in ("graph.generate_s", "io.convert_s", "io.shard_s"):
            m[name] = statistics.median(s[name] for s in setups)
        if cli_wall is not None:
            m["trace.overhead"] = m["trace.wall_s"] / cli_wall
        m["host.calib_s"] = calib_s
        log(f"{workload} seed {seed}: per-layer metrics (traced run; "
            f"attribution sums {' + '.join(layers['attribution'])} "
            f"+ unattributed = trace.wall_s)")
        for name, unit in PER_LAYER_UNITS.items():
            value = m.get(name, 0.0)
            log(f"  {name:<28} {value:>14.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
        wall = m["trace.wall_s"]
        shares = {}
        for name in layers["attribution"]:
            layer = name.split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + m[name] / wall
        log("  layer shares of trace.wall_s: " + ", ".join(
            f"{k} {v:.3f}" for k, v in sorted(shares.items())) +
            f", unattributed {m['trace.unattributed_share']:.3f}")
    if len(outputs) == 2:
        if outputs["partition_file"] != outputs["perfbench_driver"]:
            failed += 1
            log("FAILED: the driver's assignment file differs from the CLI's")
        else:
            log("driver output is byte-identical to partition_file's")
    return metrics, attempted, failed


def check_attribution(layers):
    m = layers["metrics"]
    wall = m["trace.wall_s"]
    parts = sum(m[name] for name in layers["attribution"])
    rest = m["trace.unattributed_share"] * wall
    if abs(parts + rest - wall) > 1e-6 * wall:
        return "layer times plus the remainder do not sum to trace.wall_s"
    if m["trace.unattributed_share"] < -0.02:
        return (f"layers over-attribute the wall by "
                f"{-m['trace.unattributed_share']:.3f}")
    if m.get("trace.dropped_spans", 0) > 0:
        return "the trace session dropped spans; span times undercount"
    return None


def run_workload(workload, seed, seconds, trace):
    work = os.path.join(BUILD, "work", workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        graph, adw, setups, digest = setup(workload, seed, work)
        info = describe_input(workload, seed, adw, digest)
        if trace:
            return run_traced(workload, seed, work, graph, adw, digest, setups)
        return run_untraced(workload, seed, seconds, work, graph, adw, digest,
                            info, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn a termination request into an exception, so the running child is
    # killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        build()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        metrics, attempted, failed = {}, 0, 0
        for name in names:
            m, a, f = run_workload(name, args.seed, args.seconds,
                                   args.trace == 1)
            attempted += a
            failed += f
            if args.workload == "all":
                m = {f"{name}/{k}": v for k, v in m.items()}
            metrics.update(m)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
