#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload repro|replay-4t|replay-1t|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds perfbench/ (which
compiles ../src) into .bench_build/; every run then starts
.bench_build/perfbench_main, which does the measured work and writes raw
samples to a scratch directory under .bench_build/. This script turns them
into metrics, checks every output, prints the run context and one line per
metric, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics (see perfbench/layers.json for which
end-to-end metric each should move). The exit code is 0 only when every
check passed. `--workload all` runs the three workloads in one process and
prefixes each metric with its workload; peak_rss_mib is then that
process's high-water mark so far.

Checks: each repro pass's eleven figure documents must match the SHA-256
digests in perfbench/digests.json, recorded from the code before the
benchmark existed; each replayed profile must equal StrideProfiler::consume
run on the generator itself; a traced run's exact counts must repeat.

`--record-digests OFFSET[,OFFSET...]` re-records digests.json instead.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench_main"
DIGESTS = HERE / "digests.json"
WORKLOADS = ("repro", "replay-4t", "replay-1t")
THREADS = 4
# A run must end within 180 s; the build of a fresh checkout has its own.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


# -- Statistics ------------------------------------------------------------


def median(values):
    return statistics.median(values)


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Nearest-rank: returns {"percentile", "value", "samples"}, or None when
    there are fewer than eleven samples.
    """
    n = len(values)
    if n < 11:
        return None
    p = (100 * (n - 10)) // n
    rank = max(1, math.ceil(p * n / 100))
    return {"percentile": p, "value": sorted(values)[rank - 1], "samples": n}


def self_times(spans):
    """Span id -> its duration minus the part its children cover (ns)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        covered, cursor = 0, start
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ns"]):
            lo, hi = max(c["start_ns"], cursor), min(c["end_ns"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = end - start - covered
    return out


def prediction(name, layers):
    """The layers.json prediction for per-layer metric `name`: its own
    entry, or else its module's (the part of the name before the dot)."""
    return layers["metrics"].get(name) or layers["modules"][name.split(".")[0]]


# -- Output checks ---------------------------------------------------------


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_documents(directory, expected):
    """Compares every figure document in `directory` with its digest.

    Returns (attempted, failures) with one attempt per expected document.
    """
    failures = []
    present = {p.name for p in Path(directory).glob("*.json")}
    for name, digest in sorted(expected.items()):
        if name not in present:
            failures.append(f"{name}: missing")
        elif sha256(Path(directory) / name) != digest:
            failures.append(f"{name}: digest mismatch")
    for name in sorted(present - set(expected)):
        failures.append(f"{name}: unexpected document")
    return len(expected), failures


def load_digests():
    return json.loads(DIGESTS.read_text())


def repro_offset(seed, digests):
    """The workload seed offset (PipelineConfig::WorkloadSeedOffset) that
    --seed selects among the offsets digests.json ships."""
    offsets = sorted(int(o) for o in digests["offsets"])
    return offsets[seed % len(offsets)]


# -- Build and run ---------------------------------------------------------


def fail(message, code=2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no StrideProf source tree at {ROOT / 'src'}")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(THREADS),
                  "--target", "perfbench_main"])
    with open(log, "w") as out:
        for step in steps:
            try:
                rc = subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {step[:2]} failed: {e}", 3)
            if rc != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed (log: {log})", 3)


def run_main(args, work):
    """Runs perfbench_main; returns its exit code and stderr text."""
    err = work / "stderr.txt"
    with open(err, "w") as e:
        try:
            rc = subprocess.run([str(BINARY)] + args + ["--work", str(work)],
                                stdout=subprocess.DEVNULL, stderr=e,
                                timeout=RUN_TIMEOUT_S, cwd=work).returncode
        except subprocess.TimeoutExpired:
            rc = -1
    return rc, err.read_text()


def git(*args):
    try:
        r = subprocess.run(["git", "-C", str(ROOT)] + list(args),
                           capture_output=True, text=True, timeout=30)
        return r.stdout.strip() if r.returncode == 0 else None
    except OSError:
        return None


def print_context(build_info, threads):
    """Prints what every result is recorded with: core count, threads,
    compiler, flags, build type and the source revision."""
    # Only ask git inside a git checkout: elsewhere it would search the
    # parent directories.
    sha = dirty = None
    if (ROOT / ".git").exists():
        sha = git("rev-parse", "HEAD")
        status = git("status", "--porcelain", "--", "src", "perfbench")
        dirty = None if status is None else bool(status)
    src = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            src.update(str(p.relative_to(ROOT)).encode() + b"\0")
            src.update(p.read_bytes())
    ctx = {"nproc": os.cpu_count(), "threads": threads,
           "compiler": build_info.get("compiler"),
           "flags": build_info.get("flags"),
           "build_type": build_info.get("build_type"),
           "git_sha": sha, "git_dirty": dirty,
           "src_sha256": src.hexdigest()}
    print("context: " + json.dumps(ctx, sort_keys=True))


# -- Metrics ---------------------------------------------------------------


def timed_metrics(workload, res, expected, work):
    """End-to-end metrics of one timed workload, plus its checks."""
    attempted, failures = 0, []
    if "setup_error" in res:
        return None, 1, [res["setup_error"]], {
            "peak_rss_mib": res["peak_rss_mib"]}
    if workload == "repro":
        if not res["writes_ok"]:
            failures.append("a figure document could not be written")
        for i in range(res["figure_dirs"]):
            n, bad = check_documents(work / workload / f"pass{i}", expected)
            attempted += n
            failures += [f"pass {i}: {b}" for b in bad]
    else:
        attempted = len(res["wall_s"])
        failures += ["replay differs from the oracle"] * res["failed"]

    wall = res["wall_s"]
    metrics = {
        "setup_s": median(res["setup_s"]),
        "wall_s": median(wall),
        "cpu_s": median(res["cpu_s"]),
    }
    # Printed but not gated: the repro pass's peak depends on which jobs
    # the four workers overlap, and swings between about 220 and 280 MiB.
    extra = {"passes": len(wall), "setups": len(res["setup_s"]),
             "peak_rss_mib": res["peak_rss_mib"]}
    if workload != "repro":
        extra["events_per_s"] = median(
            [e / w for e, w in zip(res["events"], wall)])
    t = tail(wall)
    if t:
        extra["wall_s_tail"] = t
    return metrics, attempted, failures, extra


def traced_metrics(trace, expected, work):
    """Per-layer metrics of a traced run, plus its checks."""
    rep, rpl = trace["repro"], trace["replay"]
    spans = trace["spans"]
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def total(name):
        return sum(own[s["id"]] for s in spans if s["name"] == name) / 1e9

    def dur(s):
        return (s["end_ns"] - s["start_ns"]) / 1e9

    def paired(name):
        return sum(dur(by_id[s["pair_of"]]) - dur(s)
                   for s in spans if s["name"] == name)

    checks = []  # (ok, what)
    for stage in ("engine", "replay"):
        n, bad = check_documents(work / "trace-repro" / stage, expected)
        checks += [(True, None)] * (n - len(bad))
        checks += [(False, f"traced {stage} figures: {b}") for b in bad]
    counts = rep["counts"]
    checks.append((all(c == counts[0] for c in counts),
                   "exact counts differ between traced runs"))
    checks.append((rep["writes_ok"], "a figure document was not written"))
    checks.append((rpl.get("ok", False), "traced replay failed"))
    checks.append((rpl.get("serial_matches_oracle", False),
                   "serial replay profile differs from the oracle"))
    checks.append((rpl.get("sharded_matches_oracle", False),
                   "sharded replay profile differs from the oracle"))
    ev = rpl.get("trace_events")
    checks.append((ev == rpl.get("decoded_events") ==
                   rpl.get("parallel_decoded_events"),
                   "stream event totals differ between decodes"))
    failures = [what for ok, what in checks if not ok]
    if not rpl.get("ok", False):
        return None, len(checks), failures

    c = counts[0]
    memsys_s = paired("interp.run.no-memsys")
    live_s = paired("interp.run.no-profiler")
    dispatch_s = total("interp.run") - memsys_s - live_s

    # The jobs the engine ran, from its outcomes. The figure calls' own
    # job lists only key the unique set, so a change to what the engine
    # runs moves these; a call whose outcomes no longer match its list is
    # noted, not failed.
    jobs = [o for call in rep["calls"] for o in call["outcomes"]]
    for call in rep["calls"]:
        if len(call["outcomes"]) != len(call["keys"]):
            print(f"note: figure {call['figure']} call ran "
                  f"{len(call['outcomes'])} jobs for {len(call['keys'])} "
                  f"listed")
    run_s = sum(j["duration_us"] for j in jobs) / 1e6
    calls_wall = sum(call["wall_s"] for call in rep["calls"])
    consume_s = total("profile.consume")
    decode_s = total("stream.decode")
    shard_s = total("replay.shard_profile")
    m = {
        "workloads.build_s": total("workloads.build"),
        "workloads.builds": c["builds"],
        "instrument.instrument_s": total("instrument"),
        "interp.decode_s": total("interp.decode"),
        "interp.dispatch_s": dispatch_s,
        "interp.instructions": c["instructions"],
        "interp.ns_per_inst": dispatch_s * 1e9 / c["instructions"],
        "memsys.memsys_s": memsys_s,
        "memsys.accesses": c["memsys_accesses"],
        "memsys.l1_misses": c["l1_misses"],
        "memsys.ns_per_access": memsys_s * 1e9 / c["memsys_accesses"],
        "feedback.classify_s": total("feedback.classify"),
        "prefetch.insert_s": total("prefetch.insert"),
        "prefetch.inserted": c["inserted"],
        "obs.report_write_s": rep["report_write_s"],
        "obs.report_bytes": rep["report_bytes"],
        "driver.jobs": len(jobs),
        "driver.unique_jobs": rep["unique_jobs"],
        "driver.unique_job_ratio": rep["unique_jobs"] / max(len(jobs), 1),
        "driver.job_run_s": run_s,
        "driver.job_wait_s":
            sum(j["start_us"] - j["ready_us"] for j in jobs) / 1e6,
        "driver.worker_util": run_s / (THREADS * calls_wall),
        "driver.longest_job_s":
            max((j["duration_us"] for j in jobs), default=0) / 1e6,
        "profile.live_s": live_s,
        "profile.consume_s": consume_s,
        "profile.invocations": c["invocations"],
        "profile.processed": c["processed"],
        "profile.lfu_calls": c["lfu_calls"],
        "profile.processed_ratio": c["processed"] / c["invocations"],
        "profile.replay_invocations": rpl["invocations"],
        "profile.replay_processed": rpl["processed"],
        "profile.replay_lfu_calls": rpl["lfu_calls"],
        "profile.replay_processed_ratio":
            rpl["processed"] / rpl["invocations"],
        "stream.events": ev,
        "stream.write_s": total("stream.write"),
        "stream.decode_s": decode_s,
        "stream.decode_events_per_s": rpl["decoded_events"] / decode_s,
        "stream.bytes_per_event": rpl["trace_bytes"] / ev,
        "replay.decode_parallel_s": total("replay.decode_parallel"),
        "replay.shard_profile_s": shard_s,
        "replay.shard_overhead": shard_s / consume_s,
        "trace.overhead_s": rep["traced_wall_s"] - rep["untraced_wall_s"],
    }
    return m, len(checks), failures


# -- Main ------------------------------------------------------------------


def record_digests(offsets, work):
    """Runs one repro pass per offset and writes digests.json."""
    table = {"schema": "perfbench.digests/1", "offsets": {}}
    if DIGESTS.is_file():
        table = load_digests()
    for off in offsets:
        rc, err = run_main(["--workload", "repro", "--seed", "0", "--offset",
                            str(off), "--seconds", "0.001", "--trace", "0"],
                           work)
        if rc != 0:
            sys.stderr.write(err)
            fail(f"repro pass at offset {off} failed", 1)
        docs = work / "repro" / "pass0"
        table["offsets"][str(off)] = {
            p.name: sha256(p) for p in sorted(docs.glob("*.json"))}
        print(f"recorded offset {off}")
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def emit(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", metavar="OFFSETS")
    a = ap.parse_args()
    if a.workload is None and a.record_digests is None:
        ap.error("--workload is required")
    if a.seed < 0:
        ap.error("--seed must be >= 0")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    build()
    work = BUILD / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if a.record_digests:
            record_digests([int(o) for o in a.record_digests.split(",")], work)
            return 0
        return measure(a, work, bench)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(a, work, bench):
    wanted = bench["per_layer" if a.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    digests = load_digests()
    offset = repro_offset(a.seed, digests)
    expected = digests["offsets"][str(offset)]
    workloads = list(WORKLOADS) if a.workload == "all" else [a.workload]
    start = time.monotonic()
    rc, err = run_main(["--workload", ",".join(workloads),
                        "--seed", str(a.seed), "--offset", str(offset),
                        "--seconds", str(a.seconds),
                        "--trace", str(a.trace)], work)
    if rc != 0:
        sys.stderr.write(err[-4000:])
        print(f"perfbench_main exited with {rc}", file=sys.stderr)
        return emit(False, 1, 1, {})

    def show(name, value, note=""):
        print(f"  {name:28s} {value:>16.6g} {units.get(name, '')} {note}")

    if a.trace:
        # Kept for inspection: the spans, counts and engine outcomes.
        shutil.copyfile(work / "trace.json", BUILD / "last-trace.json")
        trace = json.loads((work / "trace.json").read_text())
        print_context(trace["build"], THREADS)
        metrics, attempted, failures = traced_metrics(trace, expected, work)
        results = {"traced": metrics or {}}
    else:
        results, attempted, failures = {}, 0, []
        for w in workloads:
            res = json.loads((work / f"result-{w}.json").read_text())
            m, n, bad, extra = timed_metrics(w, res, expected, work)
            attempted += n
            failures += [f"{w}: {b}" for b in bad]
            results[w] = m or {}
            print(f"{w}: seed {a.seed}, repro offset {offset}, "
                  f"{extra.get('passes', 0)} passes, "
                  f"{extra.get('setups', 0)} set-ups")
            for name, v in (m or {}).items():
                show(name, v)
            show("peak_rss_mib", extra["peak_rss_mib"], "MiB")
            if "events_per_s" in extra:
                show("events_per_s", extra["events_per_s"], "1/s")
            if "wall_s_tail" in extra:
                t = extra["wall_s_tail"]
                show("wall_s_tail", t["value"],
                     f"s (p{t['percentile']} of {t['samples']} passes)")
            print_context(res["build"], 1 if w == "replay-1t" else THREADS)
    if a.trace:
        for name, v in results["traced"].items():
            show(name, v)
    for w, m in results.items():
        if m and set(m) != set(units):
            failures.append(f"{w}: metrics differ from BENCHMARK.json: "
                            f"{sorted(set(m) ^ set(units))}")
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    attempted = max(attempted, 1)
    print(f"error_rate: {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} checks failed, "
          f"{time.monotonic() - start:.1f} s)")

    if len(workloads) == 1 or a.trace:
        metrics = next(iter(results.values()))
    else:
        metrics = {f"{w}/{k}": v for w, m in results.items()
                   for k, v in m.items()}
    out = {k: {"value": v, "unit": units.get(k.split("/")[-1], "")}
           for k, v in metrics.items()}
    return emit(not failures, attempted, len(failures), out)


if __name__ == "__main__":
    sys.exit(main())
