"""Run every workload through run.py and print the end-to-end table.

    python3 bench/report.py --seeds 1 2 3 [--workloads readme cube_lp]
                            [--seconds 12] [--traced] [--save bench/results/BENCH_1.json]

Each (workload, seed) is one untraced run.py call in a fresh process, as a
benchmark harness would make it.  For every end-to-end metric the table gives
the median over seeds and the quartile spread (Q3 - Q1) / median, the figure
that must stay below the metric's bound.  The fastest pass in seconds
(wall_s, cpu_s) follows, ungated, and then error_rate: failed / attempted
invocations, 0 when every output checks.
--traced adds one traced run per workload (first seed) and its per-layer
metrics.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
UNGATED = (("wall_s", "s"), ("cpu_s", "s"))   # fastest pass in seconds, printed too


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: {proc.stderr.strip()}")
    path = BENCH / "out" / workload / f"result-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def spread(values) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--save", type=Path)
    args = parser.parse_args(argv)

    saved = {"seconds": args.seconds, "seeds": args.seeds, "environment": None,
             "workloads": {}}
    print(f"{'workload':10s} {'metric':12s} {'unit':6s} {'median':>10s} {'spread':>7s} "
          f"{'bound':>6s}  samples")
    for name in args.workloads:
        runs = [run(name, seed, args.seconds, 0) for seed in args.seeds]
        saved["environment"] = {k: v for k, v in runs[0]["environment"].items()
                                if k not in ("seed", "seed_used")}
        entry = saved["workloads"][name] = {
            "seed_used": runs[0]["environment"]["seed_used"],
            "runs": [{"seed": r["environment"]["seed"], "failed": r["failed"],
                      "attempted": r["attempted"],
                      "metrics": {**r["metrics"],
                                  **{k: m["value"] for k, m in r["reported"].items()}},
                      "pass_wall_s": [p["wall_s"] for p in r["samples"]],
                      "pass_cpu_s": [p["cpu_s"] for p in r["samples"]],
                      "round_wall_s": [x["wall_s"] for x in r["reference_rounds"]],
                      "setup_samples": r["setup_samples"]} for r in runs],
            "summary": {}}
        for m in spec["end_to_end"]:
            values = [r["reported"][m["name"]]["value"] for r in runs]
            counts = [r["sample_counts"][m["name"]] for r in runs]
            entry["summary"][m["name"]] = {"unit": m["unit"], "median": statistics.median(values),
                                           "spread": spread(values), "runs": len(runs)}
            print(f"{name:10s} {m['name']:12s} {m['unit']:6s} {statistics.median(values):10.4f} "
                  f"{spread(values):7.3f} {m['bound']:6.2f}  {len(runs)} runs of {counts}")
        for metric, unit in UNGATED:
            values = [r["metrics"][metric] for r in runs]
            entry["summary"][metric] = {"unit": unit, "median": statistics.median(values),
                                        "spread": spread(values), "runs": len(runs)}
            print(f"{name:10s} {metric:12s} {unit:6s} {statistics.median(values):10.4f} "
                  f"{spread(values):7.3f} {'-':>6s}  not gated: follows the host's speed")
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        entry["summary"]["error_rate"] = {"unit": "ratio", "median": failed / attempted,
                                          "failed": failed, "attempted": attempted}
        print(f"{name:10s} {'error_rate':12s} {'ratio':6s} {failed / attempted:10.4f} "
              f"{'':7s} {'':6s}  {failed}/{attempted} invocations")
        for r in runs:
            for problem in r["problems"]:
                print(f"  FAILED seed {r['environment']['seed']}: {problem}")
        if args.traced:
            traced = run(name, args.seeds[0], args.seconds, 1)
            entry["traced"] = {"seed": args.seeds[0], "failed": traced["failed"],
                               "metrics": {k: m["value"] for k, m in traced["reported"].items()},
                               "top_self_layer": traced["top_self_layer"],
                               "expected_top_layer": traced["expected_top_layer"],
                               "stationary_methods": traced["stationary_methods"],
                               "warnings": traced["warnings"]}
            print(f"{name:10s} largest self time: {traced['top_self_layer']} "
                  f"(expected {traced['expected_top_layer']})")
            for metric, m in traced["reported"].items():
                print(f"{'':10s}   {metric:28s} {m['value']:.6g} {m['unit']}")
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(saved, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
