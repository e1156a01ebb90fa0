#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports how steady it is.

For every workload and seed it runs the command in BENCHMARK.json
(untraced), then prints, per end-to-end metric, the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` next to the metric's bound. Run it from the
repository root:

    python3 perfbench/steady.py --seeds 1-10 [--workloads road-medium,...]
                                [--markdown perfbench/STEADINESS.md]

``--bin PATH`` runs an already built benchmark binary instead of the
command (same flags).
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time


def seeds_of(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run(cmd, workload, seed, seconds):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    p = subprocess.run(argv, capture_output=True, text=True)
    took = time.time() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    result = json.loads(lines[-1])
    factor = re.search(r"host speed factor ([0-9.]+)", p.stderr)
    result["speed_factor"] = float(factor.group(1)) if factor else float("nan")
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run")
    return result, took


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--bin", default=None)
    ap.add_argument("--markdown", default=None)
    ap.add_argument("--title", default="")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    cmd = [args.bin] if args.bin else bench["command"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = seeds_of(args.seeds)
    metrics = bench["end_to_end"]

    md = []
    if args.title:
        md.append(f"### {args.title}\n")
    worst = {}
    for w in workloads:
        values = {m["name"]: [] for m in metrics}
        raw = {m["name"]: [] for m in metrics}
        times = []
        for s in seeds:
            result, took = run(cmd, w, s, bench["run_seconds"])
            times.append(took)
            for m in metrics:
                v = result["metrics"][m["name"]]["value"]
                values[m["name"]].append(v)
                # Roughly the value before the host-speed scaling (the
                # run-wide factor; the metrics are scaled pass by pass).
                f = result["speed_factor"]
                raw[m["name"]].append(v * f if m["unit"] == "s"
                                      else v / f if "/" in m["unit"] else v)
            print(f"{w} seed {s}: {took:.1f}s, host speed factor "
                  f"{result['speed_factor']:.3f}", file=sys.stderr, flush=True)
        md.append(f"#### {w} — seeds {args.seeds}, {len(seeds)} runs, "
                  f"{statistics.median(times):.1f} s per run (median)\n")
        md.append("| metric | unit | median | q1 | q3 | spread | bound | spread/bound "
                  "| unscaled spread |")
        md.append("|---|---|---:|---:|---:|---:|---:|---:|---:|")
        for m in metrics:
            v = values[m["name"]]
            # One seed (a held-out check) has no quartiles: report its value.
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("nan")
            ratio = spread / m["bound"]
            worst[(w, m["name"])] = ratio
            rv = raw[m["name"]]
            r1, _, r3 = statistics.quantiles(rv, n=4) if len(rv) > 1 else (rv[0],) * 3
            rspread = (r3 - r1) / statistics.median(rv)
            md.append(f"| {m['name']} | {m['unit']} | {med:.6g} | {q1:.6g} | "
                      f"{q3:.6g} | {spread:.4f} | {m['bound']} | {ratio:.2f} "
                      f"| {rspread:.4f} |")
        md.append("")
    text = "\n".join(md)
    print(text)
    if args.markdown:
        with open(args.markdown, "a") as f:
            f.write(text + "\n")
    over = [(k, r) for k, r in worst.items() if k[1] != "setup_s" and r > 1]
    if over:
        raise SystemExit(f"spread above bound: {over}")


if __name__ == "__main__":
    main()
