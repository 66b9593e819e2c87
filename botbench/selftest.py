#!/usr/bin/env python3
"""Self-test of the BotMeter benchmark at reduced workload sizes.

    python3 botbench/selftest.py

Checks that:
  1. every workload runs in --quick mode with --trace 0 and --trace 1, passes
     its correctness gate, and prints every metric BENCHMARK.json names, each
     with its unit;
  2. the correctness gate fails a run whose history series was altered, whose
     tallies show a late drop, or that exited non-zero;
  3. run.py exits non-zero, printing no result, when the checkout holds only
     the benchmark's own files.
Exits 0 when all checks hold.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "botbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)


def check_metrics():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            got = run_bench(workload, trace)
            what = "%s --trace %d" % (workload, trace)
            check(got.returncode == 0, what + " exits 0")
            try:
                result = json.loads(got.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                check(False, what + " prints a JSON result line")
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, what + " result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  what + " passes its gate")
            want = {m["name"]: m["unit"] for m in SPEC[kind]}
            have = {k: v["unit"] for k, v in result["metrics"].items()}
            check(have == want, what + " prints every %s metric with its unit" % kind)


def check_gate():
    w = run.shape("fleet_text", True)
    work = run.build_root() / "work" / "fleet_text-quick-seed1-trace0"
    truth = json.loads((work / "truth.json").read_text())

    def outputs(tool):
        return ((work / ("%s-0.out" % tool)).read_text(), (work / ("%s-0.err" % tool)).read_text(),
                (work / ("%s-0.series.json" % tool)).read_text())

    def fresh_gate():
        gate = run.Gate(w, truth)
        check(gate.check_run("analyze", 0, *outputs("analyze")), "gate accepts the analyze run")
        return gate

    out, err, series = outputs("stream")
    gate = fresh_gate()
    check(gate.check_run("stream", 0, out, err, series), "gate accepts an unaltered stream series")

    doc = json.loads(series)
    doc["entries"][-1]["cells"][0]["population"] += 1.0
    gate = fresh_gate()
    check(not gate.check_run("stream", 0, out, err, json.dumps(doc, indent=2)) and gate.failed == 1,
          "gate fails a stream run whose history series was altered")

    gate = fresh_gate()
    check(not gate.check_run("stream", 0, out, err.replace(" 0 late-dropped", " 3 late-dropped"), series),
          "gate fails a stream run that dropped late tuples")

    gate = fresh_gate()
    check(not gate.check_run("cluster", 1, *outputs("cluster")), "gate fails a run that exited 1")


def check_bare_checkout():
    bare = run.build_root() / "selftest-bare"
    if bare.exists():
        shutil.rmtree(bare)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "botbench", ignore=shutil.ignore_patterns("__pycache__"))
    got = run_bench("fleet_text", 0, cwd=bare)
    check(got.returncode != 0 and not got.stdout.strip(), "run.py fails without a result outside a checkout")
    shutil.rmtree(bare)


if __name__ == "__main__":
    check_metrics()
    check_gate()
    check_bare_checkout()
    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    sys.exit(1 if failures else 0)
