"""Run a workload on several seeds and report each metric's spread.

    python3 perfbench/prove.py [--workloads a,b] [--seeds 1-10] [--trace 0] [--save NAME]

For every workload it runs ``perfbench/run.py`` once per seed, one run at
a time, and prints each metric's median, quartiles and spread (the
distance between the first and third quartile, as a share of the median)
next to the metric's bound in ``BENCHMARK.json``.  ``--save NAME`` writes
the per-run values and the summary to ``perfbench/results/NAME.json``,
replacing only the workloads of this call in an existing file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("inf")}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--save", default="")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    saved: dict = {"seeds": seed_list(args.seeds), "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in saved["seeds"]:
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            elapsed = time.perf_counter() - start
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                continue
            record = json.loads((ROOT / "perfbench" / "out" / f"{workload}-s{seed}-t{args.trace}.json").read_text())
            saved["host"] = record["host"]
            runs.append({"seed": seed, "elapsed_s": elapsed, **result, "detail": record["detail"]})
            print(f"{workload} seed {seed}: {elapsed:.1f} s", file=sys.stderr)
        names = list(runs[0]["metrics"]) if runs else []
        summary = {}
        print(f"\n{workload}: {len(runs)} runs")
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = s = summarize(values) if len(values) >= 2 else {"median": values[0]}
            bound = bounds.get(name)
            note = ""
            if bound is not None and "spread" in s:
                note = f"bound {bound:.2f}  {'ok' if s['spread'] < bound / 3 else 'WIDE'}"
            print(f"  {name:<26} median {s['median']:<14.6g} spread {s.get('spread', float('nan')):.4f}  {note}")
        saved["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.save:
        # Re-proving some workloads keeps the others' saved runs.
        out = ROOT / "perfbench" / "results" / f"{args.save}.json"
        if out.exists():
            saved["workloads"] = {**json.loads(out.read_text())["workloads"], **saved["workloads"]}
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(saved, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
