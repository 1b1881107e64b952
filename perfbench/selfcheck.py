"""Self-check of the benchmark, run from the root of the repository:

    python3 perfbench/selfcheck.py

For every workload in BENCHMARK.json it makes a short run untraced (seed 1)
and traced (seed 2), and asserts that each prints a correct result holding
exactly the metrics BENCHMARK.json names for that mode, each with its unit.
Then it corrupts one stored simulated outcome and asserts that the run
fails.  Exits non-zero on the first failed assertion.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

EXPECTED = "perfbench/expected.txt"


def run(bench, workload, seed, trace, extra=()):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), *extra]
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True)


def fail(msg):
    sys.exit("selfcheck: " + msg)


def check_result(bench, workload, seed, trace):
    proc = run(bench, workload, seed, trace)
    if proc.returncode != 0:
        fail(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{workload} seed {seed}: not correct: {result}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        fail(f"{workload}: attempted {result['attempted']}")
    want = bench["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in want}:
        fail(f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
             f"{sorted(set(got) ^ {m['name'] for m in want})}")
    for m in want:
        v = got[m["name"]]
        if v["unit"] != m["unit"]:
            fail(f"{workload}: {m['name']} in {v['unit']}, not {m['unit']}")
        if not (isinstance(v["value"], (int, float)) and math.isfinite(v["value"])):
            fail(f"{workload}: {m['name']} = {v['value']}")
        if not trace and v["value"] <= 0:
            fail(f"{workload}: end-to-end metric {m['name']} = {v['value']}")
    print(f"ok   {workload} seed {seed} trace {trace}: {len(got)} metrics")


def check_sabotage(bench, workload, seed):
    tmp = tempfile.mkdtemp(prefix=".perfbench-selfcheck-", dir=".")
    try:
        path = os.path.join(tmp, "expected.txt")
        with open(EXPECTED) as src, open(path, "w") as dst:
            for line in src:
                fields = line.split()
                if fields[:2] == [workload, str(seed)]:
                    k, v = fields[2].split("=")
                    fields[2] = f"{k}={int(v) + 1}"
                    line = " ".join(fields) + "\n"
                dst.write(line)
        proc = run(bench, workload, seed, 0, ["--expected", path])
    finally:
        shutil.rmtree(tmp)
    last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
    if proc.returncode == 0 or json.loads(last[0]).get("correct") is not False:
        fail(f"{workload}: a wrong stored outcome did not fail the run")
    print(f"ok   {workload}: a wrong stored outcome fails the run")


def main():
    bench = json.load(open("BENCHMARK.json"))
    for w in bench["workloads"]:
        check_result(bench, w["name"], 1, 0)
        check_result(bench, w["name"], 2, 1)
    for w in bench["workloads"]:
        check_sabotage(bench, w["name"], 3)
    print("selfcheck passed")


if __name__ == "__main__":
    main()
