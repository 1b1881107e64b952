"""Run the benchmark on several seeds and report each metric's median and
spread (interquartile range as a share of the median), the figures a
benchmark must keep below its bounds.

    python3 perfbench/spread.py --workload fabric-64b --seeds 1-10 [--seconds S]
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
        else:
            spread = float("nan")
        bound = bounds[name]
        flag = "ok" if spread < bound / 3 else "WIDE"
        print(f"{name:40s} median {med:14.6g} spread {spread:7.4f}"
              f" bound {bound} ({flag})")


if __name__ == "__main__":
    main()
