#!/usr/bin/env python3
"""End-to-end BotMeter benchmark.

Builds the tools from the checkout in Release, writes a seeded workload trace
to disk, and replays it through the real tools (botmeter_analyze,
botmeter_stream, botmeter_cluster) as a closed loop: one client process at a
time reads the whole trace as fast as it can, which is how BotMeter charts a
landscape from stored border logs.

    python3 botbench/run.py --workload fleet_text --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics (wall time and peak RSS per tool,
set-up time). --trace 1 runs the tools once for the correctness gate and then
the traced per-layer driver (driver/bench_layers.cpp), and reports the
per-layer ledger computed from its spans. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--quick shrinks every workload for the benchmark's own self-test.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TOOLS = ("analyze", "stream", "cluster")
TOOL_TARGETS = ("botmeter_analyze", "botmeter_stream_tool", "botmeter_cluster_tool")
SHARDS = 3          # three shard threads plus the producer on a 4-core host
# One-tuple stream runs per measurement (median reported): at least
# SETUP_MIN_RUNS, more while under SETUP_MIN_S, since a run can take 15 ms.
SETUP_MIN_RUNS, SETUP_MIN_S, SETUP_MAX_RUNS = 15, 2.0, 60
TOOL_TIMEOUT_S = 150

# Workload shapes. Every tool runs every workload. `equal` names the tools
# whose --history-out series must be byte-equal: analyze has no compact
# path, so on sharded_skew only stream and cluster share one.
WORKLOADS = {
    # Ingest-bound: decode, resolution (half of it misses) and attribution
    # over a 100k-domain matcher index; the timing estimator is cheap.
    "fleet_text": {
        "family": "Conficker.C", "servers": 32, "epochs": 2, "codec": "text",
        "gen": ["--bots-per-server", "16", "--benign-ratio", "1"],
        "compact": False, "equal": TOOLS,
        "quick": {"servers": 8, "gen": ["--bots-per-server", "4", "--benign-ratio", "1"]},
    },
    # Estimate-bound: three 1024-bot cells, Bernoulli intervals.
    "population_scale": {
        "family": "newGoZ", "servers": 3, "epochs": 1, "codec": "binary",
        "gen": ["--bots-per-server", "1024"],
        "compact": False, "equal": TOOLS,
        "quick": {"servers": 3, "gen": ["--bots-per-server", "48"]},
    },
    # Zipf-skewed fleet: heavy cells spill to KMV cells, light ones stay
    # exact, and the heavy range shard is the cluster's straggler.
    "sharded_skew": {
        "family": "newGoZ", "servers": 48, "epochs": 1, "codec": "binary",
        "gen": ["--skew-top", "1024", "--skew-exponent", "1.5"],
        "compact": True, "equal": ("stream", "cluster"),
        "quick": {"servers": 12, "gen": ["--skew-top", "128", "--skew-exponent", "1.5"]},
    },
}


class BenchError(Exception):
    """The benchmark cannot produce a result (missing sources, failed build)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


# --------------------------------------------------------------------------
# Build

def sh(cmd, logfile):
    # Compiler scratch files stay inside the checkout too.
    tmp = build_root() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    with open(logfile, "a") as out:
        out.write("$ " + " ".join(map(str, cmd)) + "\n")
        out.flush()
        rc = subprocess.run([str(c) for c in cmd], stdout=out, stderr=subprocess.STDOUT,
                            env=dict(os.environ, TMPDIR=str(tmp))).returncode
    if rc != 0:
        tail = Path(logfile).read_text(errors="replace").splitlines()[-30:]
        raise BenchError("command failed (%d): %s\n%s" % (rc, " ".join(map(str, cmd)), "\n".join(tail)))


def configure(src, build, extra, logfile):
    cache = build / "CMakeCache.txt"
    if cache.exists() and "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % src not in cache.read_text():
        shutil.rmtree(build)  # configured from another checkout
    if not cache.exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        sh(["cmake", "-S", src, "-B", build, *gen, "-DCMAKE_BUILD_TYPE=Release", *extra], logfile)


def build():
    """Build the three tools and the driver programs; return their paths."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("no BotMeter sources at %s: run from a full checkout" % ROOT)
    bb = build_root()
    bb.mkdir(parents=True, exist_ok=True)
    logfile = bb / "build.log"
    core, drv = bb / "botmeter", bb / "driver"
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    configure(ROOT, core, [], logfile)
    sh(["cmake", "--build", core, "-j", jobs, "--target", *TOOL_TARGETS], logfile)
    configure(BENCH / "driver", drv, ["-DBOTMETER_ROOT=%s" % ROOT, "-DBOTMETER_BUILD=%s" % core], logfile)
    sh(["cmake", "--build", drv, "-j", jobs], logfile)
    bins = {t: core / "tools" / ("botmeter_" + t) for t in TOOLS}
    bins["gen"], bins["layers"] = drv / "bench_gen", drv / "bench_layers"
    return bins


def fingerprint():
    cache = {}
    for line in (build_root() / "botmeter" / "CMakeCache.txt").read_text().splitlines():
        if ":" in line and "=" in line and not line.startswith(("#", "//")):
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True, text=True).stdout
    digest = hashlib.sha256()
    for path in sorted(p for d in ("src", "tools") for p in (ROOT / d).rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = got.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "compiler": compiler,
        "compiler_version": version.splitlines()[0] if version else "unknown",
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "cxx_flags": (cache.get("CMAKE_CXX_FLAGS", "") + " " +
                      cache.get("CMAKE_CXX_FLAGS_" + cache.get("CMAKE_BUILD_TYPE", "").upper(), "")).strip(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# --------------------------------------------------------------------------
# Workload and tool runs

def shape(name, quick):
    w = dict(WORKLOADS[name])
    if quick:
        w.update(w["quick"])
    return w


def generate(bins, w, seed, out):
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    cmd = [bins["gen"], "--family", w["family"], "--servers", w["servers"], "--epochs", w["epochs"],
           "--seed", seed, "--codec", w["codec"], "--out", out, *w["gen"]]
    got = subprocess.run([str(c) for c in cmd], capture_output=True, text=True)
    if got.returncode != 0:
        raise BenchError("workload generation failed: " + got.stderr.strip())
    truth = json.loads((out / "truth.json").read_text())
    ext = ".bin" if w["codec"] == "binary" else ".txt"
    return out / ("trace" + ext), out / ("setup" + ext), truth


def tool_cmd(bins, tool, w, trace, history):
    cmd = [bins[tool], "--family", w["family"], "--servers", w["servers"], "--epochs", w["epochs"],
           "--trace", trace, "--history-out", history]
    if tool == "cluster":
        cmd += ["--shards", SHARDS]
    else:
        cmd += ["--threads", 1]
    if w["compact"] and tool != "analyze":
        cmd += ["--compact-state"]
    return [str(c) for c in cmd]


def run_process(cmd, stdout_path, stderr_path):
    """Run one tool process; return (exit code, wall seconds, peak RSS MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        killer = threading.Timer(TOOL_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# Correctness gate

def tallies(tool, stdout, stderr):
    """(ingested, matched, unmatched, late) as the tool reports them."""
    if tool == "analyze":
        # "# estimator: X, N lookups analyzed" and a matched_lookups column.
        head = stdout.splitlines()[0]
        ingested = int(head.rsplit(",", 1)[1].split()[0])
        matched = sum(int(line.split()[-1]) for line in stdout.splitlines() if line.startswith("server-"))
        return ingested, matched, ingested - matched, 0
    for line in stderr.splitlines():
        if " tuples (" in line and "late-dropped" in line:
            words = line.replace(",", " ").replace(":", " ").replace(";", " ").split()
            ingested = int(words[words.index("tuples") - 1])
            return (ingested, int(words[words.index("matched") - 1]),
                    int(words[words.index("unmatched") - 1]), int(words[words.index("late-dropped") - 1]))
    raise ValueError("no tally line")


def check_tallies(tool, stdout, stderr, truth, tuples):
    """Return a list of problems with a finished tool run's reported counts."""
    try:
        ingested, matched, unmatched, late = tallies(tool, stdout, stderr)
    except (ValueError, IndexError) as e:
        return ["%s: cannot read tallies (%s)" % (tool, e)]
    problems = []
    if ingested != tuples:
        problems.append("%s ingested %d of %d tuples" % (tool, ingested, tuples))
    if matched + unmatched != ingested:
        problems.append("%s: matched %d + unmatched %d != ingested %d" % (tool, matched, unmatched, ingested))
    if late != 0:
        problems.append("%s dropped %d late tuples" % (tool, late))
    # The detector is perfect (miss rate 0): every DGA tuple matches and
    # every benign one does not.
    if tuples == truth["tuples"] and matched != truth["dga_tuples"]:
        problems.append("%s matched %d, the trace holds %d DGA tuples" % (tool, matched, truth["dga_tuples"]))
    return problems


def decode_series(doc):
    """{(server, epoch): cell} from a botmeter.landscape_series.v1 document."""
    cells, state = {}, {}
    for entry in doc["entries"]:
        if entry["encoding"] == "full":
            state = {}
        for cell in entry["cells"]:
            state[cell["server"]] = cell
        for server in range(doc["server_count"]):
            cells[(server, entry["epoch"])] = state.get(server, {"population": 0.0})
    return cells


def check_series(text, w):
    try:
        doc = json.loads(text)
        cells = decode_series(doc)
    except (ValueError, KeyError, TypeError) as e:
        return ["history does not parse: %s" % e], None
    problems = []
    if doc.get("schema") != "botmeter.landscape_series.v1":
        problems.append("history schema %r" % doc.get("schema"))
    if doc.get("epochs_recorded") != w["epochs"] or doc.get("server_count") != w["servers"]:
        problems.append("history holds %s epochs x %s servers" % (doc.get("epochs_recorded"), doc.get("server_count")))
    return problems, cells


class Gate:
    """Checks every tool run; any problem counts the run as failed."""

    def __init__(self, w, truth):
        self.w, self.truth = w, truth
        self.reference = {}   # tool -> history bytes of its first run
        self.series = {}      # tool -> decoded cells of its first valid history
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            for p in problems:
                log("gate: " + p)
        return not problems

    def check_run(self, tool, rc, stdout, stderr, history):
        """Gate one tool run given its exit code, outputs and history bytes."""
        if rc != 0:
            return self.record(["%s exited %d: %s" % (tool, rc, stderr.strip().splitlines()[:1])])
        problems = check_tallies(tool, stdout, stderr, self.truth, self.truth["tuples"])
        series_problems, cells = check_series(history, self.w)
        problems += series_problems
        if cells is not None and not series_problems:
            self.series.setdefault(tool, cells)
        first = self.reference.setdefault(tool, history)
        if history != first:
            problems.append("%s history differs from its first run" % tool)
        group = [t for t in self.w["equal"] if t in self.reference]
        if tool in self.w["equal"] and group and self.reference[group[0]] != history:
            problems.append("%s history differs from %s on the same trace" % (tool, group[0]))
        return self.record(problems)


def quality(cells, truth):
    """(mean ARE of population, |90% interval coverage - 0.9|) over cells with bots."""
    errors, covered, n = [], 0, 0
    for epoch_truth in truth["truth"]:
        for server, true_n in enumerate(epoch_truth["active_per_server"]):
            if true_n <= 0:
                continue
            cell = cells.get((server, epoch_truth["epoch"]), {"population": 0.0})
            errors.append(abs(cell["population"] - true_n) / true_n)
            n += 1
            if "lo" in cell and cell["lo"] <= true_n <= cell["hi"]:
                covered += 1
    return statistics.fmean(errors), abs(covered / n - 0.9)


# --------------------------------------------------------------------------
# Per-layer ledger from the driver's spans

LAYERS = ("dga", "detect", "core", "trace", "stream", "estimators", "obs", "cluster")


def ledger(doc):
    """Per-layer metrics and wall-time shares from a bench_layers trace."""
    spans = doc["traceEvents"]
    data = doc["otherData"]
    by_name, children = {}, {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
        children.setdefault(s["args"]["parent"], []).append(s)

    def total_ms(name):
        return sum(s["dur"] for s in by_name.get(name, [])) / 1000.0

    def contained_ms(name, layer):
        return sum(s["args"]["contains"].get(layer, 0.0) for s in by_name.get(name, []))

    # Self time: a span's duration less its child spans and less the lower
    # layers' work it contains (measured separately on the same input).
    booked = {layer: 0.0 for layer in LAYERS}
    booked["unattributed"] = 0.0
    root = by_name["bench.run"][0]
    for s in spans:
        dur = s["dur"] / 1000.0
        own = dur - sum(c["dur"] for c in children.get(s["args"]["id"], [])) / 1000.0
        contains = s["args"]["contains"]
        inner = sum(contains.values())
        scale = min(1.0, max(own, 0.0) / inner) if inner > 0 else 0.0
        for layer, ms in contains.items():
            booked[layer] += ms * scale
        layer = s["name"].split(".", 1)[0]
        booked[layer if layer in booked else "unattributed"] += max(own - inner * scale, 0.0)
    wall_ms = root["dur"] / 1000.0

    tuples, epochs = data["tuples"], data["epochs"]
    cells, spilled = data["exact_cells"], data["spilled_cells"]
    stages = data["cluster_lag_stage_ms"]
    closes = [s["epoch_close"] for s in stages]
    matched = data["cluster_shard_matched"]
    m = {
        "dga.pool_ms_per_epoch": (total_ms("dga.epoch_pool") / epochs, "ms"),
        "detect.index_ms": (total_ms("detect.add_epoch"), "ms"),
        "core.prepare_ms": (total_ms("core.prepare_epochs"), "ms"),
        "core.estimate_ms_per_cell": (total_ms("core.estimate_epoch_row") / (cells + spilled), "ms"),
        "trace.decode_ns_per_tuple": (total_ms("trace.decode") * 1e6 / tuples, "ns"),
        "detect.resolve_ns_per_tuple": (total_ms("detect.resolve") * 1e6 / tuples, "ns"),
        "detect.match_ratio": (data["match_matched"] / data["match_attempted"], "ratio"),
        "detect.distinct_domains": (data["distinct_domains"], "count"),
        "stream.ingest_ns_per_tuple": (
            (total_ms("stream.ingest") - contained_ms("stream.ingest", "detect")) * 1e6 / tuples, "ns"),
        "stream.close_ms_per_epoch": (total_ms("stream.advance") / epochs, "ms"),
        "stream.peak_open_bytes": (data["stream_peak_open_bytes"], "bytes"),
        "stream.compact_spills": (data["stream_compact_spills"], "count"),
        "stream.late_dropped": (data["stream_late_dropped"], "count"),
        "estimators.point_ms_per_cell": (total_ms("estimators.estimate") / max(cells, 1), "ms"),
        # Estimators without intervals (timing) make the difference pure
        # timing noise; a cost is never negative.
        "estimators.interval_ms_per_cell": (max(
            total_ms("estimators.estimate_with_interval") - total_ms("estimators.estimate"), 0.0) / max(cells, 1),
            "ms"),
        "estimators.compact_ms_per_cell": (total_ms("estimators.compact_estimate") / max(spilled, 1), "ms"),
        "estimators.memo_hit_ratio": (
            data["memo_hits"] / max(data["memo_hits"] + data["memo_misses"], 1), "ratio"),
        "obs.history_us_per_epoch": (total_ms("obs.record") * 1e3 / epochs, "us"),
        "cluster.producer_ns_per_tuple": (total_ms("cluster.ingest") * 1e6 / tuples, "ns"),
        "cluster.queue_wait_ms": (sum(s["queue_wait"] for s in stages), "ms"),
        "cluster.shard_ingest_ms": (sum(s["shard_ingest"] for s in stages), "ms"),
        "cluster.epoch_close_ms": (sum(closes), "ms"),
        "cluster.merge_publish_ms": (sum(s["merge_publish"] for s in stages), "ms"),
        "cluster.finish_ms": (total_ms("cluster.finish"), "ms"),
        "cluster.shard_skew": (max(matched) / max(statistics.fmean(matched), 1e-9), "ratio"),
        "cluster.close_skew": (max(closes) / max(statistics.fmean(closes), 1e-9), "ratio"),
        "ledger.traced_wall_s": (wall_ms / 1000.0, "s"),
    }
    for layer, ms in booked.items():
        m[layer + ".share"] = (ms / wall_ms, "ratio")
    stream_path_ms = sum(total_ms(n) for n in (
        "stream.construct", "trace.decode", "stream.ingest", "stream.advance", "stream.finish"))
    return m, stream_path_ms, data


# --------------------------------------------------------------------------

def measure(args):
    w = shape(args.workload, args.quick)
    bins = build()
    host = fingerprint()
    tag = "%s%s-seed%d-trace%d" % (args.workload, "-quick" if args.quick else "", args.seed, args.trace)
    work = build_root() / "work" / tag
    trace, setup_trace, truth = generate(bins, w, args.seed, work)
    log("%s: %d tuples (%d DGA, %d benign), %d bots, generated in %.2f s" % (
        args.workload, truth["tuples"], truth["dga_tuples"], truth["benign_tuples"], truth["bots"], truth["gen_s"]))
    gate = Gate(w, truth)

    def run_tool(tool, n, trace_path=trace, setup=False):
        stem = work / ("%s-%s%d" % (tool, "setup" if setup else "", n))
        history = stem.with_suffix(".series.json")
        rc, wall, rss = run_process(tool_cmd(bins, tool, w, trace_path, history),
                                    stem.with_suffix(".out"), stem.with_suffix(".err"))
        out = stem.with_suffix(".out").read_text(errors="replace")
        err = stem.with_suffix(".err").read_text(errors="replace")
        if setup:
            problems = [] if rc == 0 else ["set-up run exited %d" % rc]
            if rc == 0:
                problems += check_tallies(tool, out, err, truth, 1)
            ok = gate.record(problems)
        else:
            ok = gate.check_run(tool, rc, out, err, history.read_text() if history.exists() else "")
        return ok, wall, rss

    walls = {t: [] for t in TOOLS}
    rss = {t: [] for t in TOOLS}
    metrics, extra = {}, {}
    if args.trace == 0:
        setup_walls, setup_start = [], time.perf_counter()
        while len(setup_walls) < SETUP_MIN_RUNS or (
                time.perf_counter() - setup_start < SETUP_MIN_S and len(setup_walls) < SETUP_MAX_RUNS):
            setup_walls.append(run_tool("stream", len(setup_walls), setup_trace, setup=True)[1])
        deadline = time.perf_counter() + args.seconds
        rounds = 0
        while True:
            # Rotate the order so no tool always runs on a cold or warm cache.
            for tool in TOOLS[rounds % 3:] + TOOLS[:rounds % 3]:
                ok, wall, peak = run_tool(tool, rounds)
                if ok:
                    walls[tool].append(wall)
                    rss[tool].append(peak)
            rounds += 1
            if time.perf_counter() >= deadline:
                break
        for tool in TOOLS:
            if walls[tool]:
                metrics[tool + "_wall_s"] = (statistics.median(walls[tool]), "s")
                metrics[tool + "_peak_rss_mb"] = (statistics.median(rss[tool]), "MB")
        metrics["setup_s"] = (statistics.median(setup_walls), "s")
        extra["samples"] = {t: len(walls[t]) for t in TOOLS}
        extra["setup_samples"] = len(setup_walls)
    else:
        for tool in TOOLS:
            walls[tool].append(run_tool(tool, 0)[1])
        spans_path = work / "spans.json"
        cmd = [bins["layers"], "--family", w["family"], "--servers", w["servers"], "--epochs", w["epochs"],
               "--shards", SHARDS, "--trace", trace, "--spans-out", spans_path]
        if w["compact"]:
            cmd += ["--compact-state", "1"]
        rc, wall, _ = run_process([str(c) for c in cmd], work / "layers.out", work / "layers.err")
        problems = [] if rc == 0 else ["bench_layers exited %d: %s" % (rc, (work / "layers.err").read_text()[:300])]
        if rc == 0:
            layer_metrics, stream_path_ms, data = ledger(json.loads(spans_path.read_text()))
            metrics.update(layer_metrics)
            metrics["ledger.stream_traced_to_untraced"] = (stream_path_ms / 1000.0 / walls["stream"][0], "ratio")
            if not data["cluster_matches_stream"]:
                problems.append("traced cluster landscape differs from the traced stream engine")
            if data["stream_ingested"] != truth["tuples"] or data["stream_matched"] != truth["dga_tuples"]:
                problems.append("traced stream engine tallies disagree with the trace")
            if data["stream_late_dropped"] or data["cluster_late_dropped"]:
                problems.append("traced run dropped late tuples")
            extra["spans"] = str(spans_path.relative_to(ROOT)) if spans_path.is_relative_to(ROOT) else str(spans_path)
        gate.record(problems)
        if "stream" in gate.series:
            are, gap = quality(gate.series["stream"], truth)
            metrics["quality.landscape_are"] = (are, "ratio")
            metrics["quality.interval_coverage_gap"] = (gap, "ratio")

    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "quick": args.quick, "host": host, "tuples": truth["tuples"], "generate_s": truth["gen_s"],
              "wall_samples_s": walls, "rss_samples_mb": rss, "problems": gate.problems, **extra,
              "result": result}
    results = build_root() / "results"
    results.mkdir(exist_ok=True)
    (results / (tag + ".json")).write_text(json.dumps(record, indent=2) + "\n")
    print("# host " + json.dumps(host, sort_keys=True))
    if args.trace == 0:
        for tool in TOOLS:
            print("# %s: %d samples, wall s %s" % (tool, len(walls[tool]), " ".join("%.3f" % x for x in walls[tool])))
    print(json.dumps(result, sort_keys=True), flush=True)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="reduced sizes, for the self-test")
    args = parser.parse_args(argv)
    try:
        measure(args)
    except BenchError as e:
        log("botbench: %s" % e)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
