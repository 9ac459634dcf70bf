"""Benchmark entry point: one workload, one run, one JSON result on the last line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/.
With --trace 0 the result holds the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics.  The workload runs in a fresh worker
process (worker.py); set-up time is measured here in further fresh
interpreters before and after it.  Full records go to bench/out/<workload>/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import cube
from workloads import WORKLOADS, cube_path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_RUNS = 3        # fresh imports before the worker, and as many after it
DEADLINE_S = 170.0   # the whole run, set-up included
THREAD_VARS = ("RICCI_BOUND_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")

IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import ricci_bounds.cli; "
                  "t = time.perf_counter() - t; print(t, ricci_bounds.cli.__file__)")


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def _env() -> dict:
    """The package from the checkout, run on a single thread.

    On the shared 2-core host the default eps-sweep pool (one thread per
    core, each with its own OpenBLAS threads) oversubscribed the cores: its
    passes were slower than single-threaded ones, and their times followed
    the host's scheduler more than the program (bench/README.md).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({name: "1" for name in THREAD_VARS})
    return env


def setup_times(runs: int, deadline: float) -> list:
    """Seconds a fresh interpreter spends on `import ricci_bounds.cli`, `runs` times."""
    times = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT, env=_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr.strip()[-300:]}")
        seconds, path = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"imported {path}, not the checkout's src/")
        times.append(float(seconds))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "ricci_bounds" / "cli.py").is_file():
        return fail(f"no package source at {ROOT / 'src' / 'ricci_bounds'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]

    generate_s = 0.0
    if workload.cube_bits is not None:
        t0 = perf_counter()
        cube.write_cube_chain(cube_path(OUT / workload.name / "inputs"), workload.cube_bits,
                              cube.cube_p(args.seed))
        generate_s = perf_counter() - t0

    measured = {"inputs.generate_s": generate_s}
    try:
        setups = setup_times(SETUP_RUNS, deadline) if args.trace == 0 else []
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--workload", workload.name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - perf_counter()))
        if args.trace == 0 and proc.returncode == 0:
            # Samples on both sides of the worker, so that a slow spell of the
            # host at one end of the run moves the median less.
            setups += setup_times(SETUP_RUNS, deadline)
            measured["setup_s"] = statistics.median(setups)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    if proc.returncode != 0 or not proc.stdout.strip():
        return fail(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    measured.update(record["metrics"])
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        return fail(f"worker did not measure {missing}")

    record["generate_s"] = generate_s
    if args.trace == 0:
        record["setup_samples"] = setups
        counts = {"wall_rel": record["passes"], "cpu_rel": record["passes"],
                  "setup_s": len(setups)}
    else:
        counts = {m["name"]: len(record["traced_samples"]) for m in wanted}
    record["error_rate"] = record["failed"] / record["attempted"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    record["reported"] = metrics
    record["sample_counts"] = {name: counts.get(name, 1) for name in metrics}
    path = OUT / workload.name / f"result-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload={workload.name} seed={args.seed} trace={args.trace} "
          f"passes={record['passes']} invocations={record['attempted']} "
          f"inputs.generate_s={generate_s:.4f}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']} (n={record['sample_counts'][name]})")
    if args.trace == 0:
        for name in ("wall_s", "cpu_s"):
            print(f"  {name:28s} {measured[name]:.6g} s (fastest of {record['passes']} "
                  f"passes; not gated)")
    print(f"  {'error_rate':28s} {record['error_rate']:.6g} ratio "
          f"({record['failed']}/{record['attempted']})")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")
    if args.trace and record["expected_top_layer"] not in (None, record["top_self_layer"]):
        print(f"  MISMATCH largest self time in {record['top_self_layer']}, "
              f"expected {record['expected_top_layer']}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
