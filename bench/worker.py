"""One workload in one fresh process: warm up, time passes, check every output.

A pass calls `ricci_bounds.cli.main(argv)` once per invocation of the
workload, catching SystemExit for the exit code, with stdout and stderr
captured and warnings recorded.  Outputs are checked after the pass, outside
the timed region.  Untraced passes alternate with the reference rounds of
calibrate.py.  Prints one JSON object with the per-pass samples, the
checks and the environment; run.py turns it into the benchmark's result.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --record   # rewrite bench/reference/NAME
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference"
MIN_PASSES = 3        # untraced timed passes, even when one pass outlasts --seconds
# wall_rel and cpu_rel are the median pass in reference rounds; wall_s and
# cpu_s, the fastest pass in seconds, follow the host's drift and are kept
# for the record (bench/README.md).

sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import cube  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Harness:
    def __init__(self, cli, workload, seed: int, out_dir: Path):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.invocations = workload.invocations(seed, OUT / workload.name / "inputs")
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.warnings = []

    def run_pass(self, label: str, tracer=None) -> dict:
        """Run every invocation once and check the outputs; returns the pass sample."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        runs = []
        cpu0, t0 = _cpu_s(), perf_counter()
        for inv in self.invocations:
            if tracer is not None:
                tracer.invocation = f"{label}:{inv.name}"
            runs.append(self._invoke(inv))
        wall, cpu = perf_counter() - t0, _cpu_s() - cpu0
        sample = {"wall_s": wall, "cpu_s": cpu, "warnings": 0, "bytes_written": 0,
                  "files_changed": 0, "nonfinite_values": 0}
        for inv, run in zip(self.invocations, runs):
            self.attempted += 1
            sample["warnings"] += len(run["warnings"])
            self.warnings += [f"{inv.name}: {w}" for w in run["warnings"]]
            problems = self._check(inv, run, sample)
            if problems:
                self.failed += 1
                self.problems += [f"{label}:{inv.name}: {p}" for p in problems]
        return sample

    def _invoke(self, inv) -> dict:
        out = self.out_dir / inv.name
        stdout, stderr = io.StringIO(), io.StringIO()
        code, error = None, None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                self.cli.main([*inv.argv, "--out", str(out)])
            except SystemExit as exc:
                code = exc.code
            except Exception:  # an invocation failure is a measured outcome
                error = traceback.format_exc(limit=-3)
        return {"code": code, "error": error, "stdout": stdout.getvalue(),
                "stderr": stderr.getvalue(),
                "warnings": [f"{w.category.__name__}: {w.message} "
                             f"({Path(w.filename).name}:{w.lineno})" for w in caught]}

    def _check(self, inv, run, sample) -> list:
        if run["error"]:
            return [f"raised {run['error'].strip().splitlines()[-1]}"]
        if run["code"] != 0:
            return [f"exit code {run['code']!r}, stderr {run['stderr'].strip()[:200]!r}"]
        out = self.out_dir / inv.name
        lines = run["stdout"].strip().splitlines()
        problems = []
        if not lines or not re.fullmatch(inv.verdict, lines[-1]):
            problems.append(f"verdict line {lines[-1] if lines else ''!r}")
        try:
            sample["bytes_written"] += checks.bytes_written(out)
            sample["nonfinite_values"] += checks.nonfinite_bounds(out)
            if self.workload.cube_bits is not None:
                problems += checks.check_cube(out, self.workload.cube_bits,
                                              cube.cube_p(self.seed))
            elif not inv.seeded:
                found, changed = checks.check_reference(out, run["stdout"],
                                                        REFERENCE / self.workload.name / inv.name)
                problems += found
                sample["files_changed"] += changed
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"output unreadable: {type(exc).__name__}: {exc}")
        return problems


def _median(samples, key):
    return statistics.median(s[key] for s in samples)


def _fastest(samples, key):
    return min(s[key] for s in samples)


def _git_commit():
    """HEAD of the checkout, read from .git without leaving the checkout; None if absent."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _blas_threads():
    """OpenBLAS's own thread count, from the library numpy loaded; None if unknown."""
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype, fn.argtypes = ctypes.c_int, []
        return fn()
    return None


def environment(seed: int, workload) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"),
                 "threads": _blas_threads(),
                 "env": {k: os.environ.get(k) for k in (
                     "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "RICCI_BOUND_THREADS")}},
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "seed": seed,
        "seed_used": workload.seed_used,
    }


def record(cli, workload) -> None:
    """Write the reference outputs of the workload's fixed-input invocations."""
    shutil.rmtree(REFERENCE / workload.name, ignore_errors=True)
    harness = Harness(cli, workload, 0, REFERENCE / workload.name)
    for inv in harness.invocations:
        if inv.seeded:
            continue
        run = harness._invoke(inv)
        if run["error"] or run["code"] != 0:
            raise SystemExit(f"{inv.name}: exit {run['code']!r} {run['error'] or ''}")
        (REFERENCE / workload.name / inv.name / checks.STDOUT_FILE).write_text(
            run["stdout"], encoding="utf-8")
        print(f"recorded {REFERENCE / workload.name / inv.name}")


def _time_left(start: float, seconds: float, last: float) -> bool:
    """Whether another step as long as the last one still ends within `seconds`."""
    return perf_counter() - start + last <= seconds


def timed_passes(harness, seconds: float):
    """Timed passes, each between two reference rounds; returns both lists."""
    samples, rounds, start = [], [calibrate.reference_round()], perf_counter()
    while len(samples) < MIN_PASSES or _time_left(
            start, seconds, samples[-1]["wall_s"] + rounds[-1]["wall_s"]):
        samples.append(harness.run_pass(f"p{len(samples)}"))
        rounds.append(calibrate.reference_round())
    return samples, rounds


def traced_passes(harness, seconds: float):
    """Alternate untraced and traced passes; per-layer metrics come from the traced ones."""
    tracer = tracing.Tracer()
    plain, traced, layers = [], [], []
    start = perf_counter()
    while not traced or _time_left(start, seconds,
                                   plain[-1]["wall_s"] + traced[-1]["wall_s"]):
        plain.append(harness.run_pass(f"u{len(plain)}"))
        first = len(tracer.spans)
        with tracing.Patches(tracer):
            traced.append(harness.run_pass(f"t{len(traced)}", tracer))
        layers.append(tracing.layer_metrics(tracer.spans[first:]))
    return tracer, plain, traced, layers, tracer.spans[first:]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    import ricci_bounds.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported {cli.__file__}, not the checkout's src/")
    if args.record:
        record(cli, workload)
        return 0

    harness = Harness(cli, workload, args.seed, OUT / workload.name / "pass")
    warm = harness.run_pass("warmup")
    result = {"workload": workload.name, "trace": args.trace,
              "warmup_wall_s": warm["wall_s"], "environment": environment(args.seed, workload)}
    if args.trace == 0:
        calibrate.reference_round()   # warms the round's own imports and caches
        samples, rounds = timed_passes(harness, args.seconds)
        result["samples"] = samples
        result["reference_rounds"] = rounds
        result["median_wall_s"] = _median(samples, "wall_s")
        result["median_cpu_s"] = _median(samples, "cpu_s")
        result["metrics"] = {
            "wall_s": _fastest(samples, "wall_s"),
            "cpu_s": _fastest(samples, "cpu_s"),
            "wall_rel": statistics.median(calibrate.relative_costs(samples, rounds, "wall_s")),
            "cpu_rel": statistics.median(calibrate.relative_costs(samples, rounds, "cpu_s")),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    else:
        tracer, plain, traced, layers, last = traced_passes(harness, args.seconds)
        metrics = {name: statistics.median(layer[name] for layer in layers)
                   for name in layers[0]}
        for key in ("bytes_written", "warnings", "files_changed"):
            metrics[f"cli.{key}"] = _median(traced, key)
        metrics["bounds.nonfinite_values"] = _median(traced, "nonfinite_values")
        metrics["trace.overhead_s"] = _fastest(traced, "wall_s") - _fastest(plain, "wall_s")
        self_s = {layer: metrics[f"{layer}.self_s"] for layer in tracing.LAYERS}
        top = max(self_s, key=self_s.get)
        result.update(samples=plain, traced_samples=traced, metrics=metrics,
                      stationary_methods=tracing.stationary_methods(last),
                      top_self_layer=top, expected_top_layer=workload.expected_top_layer)
        spans_path = OUT / workload.name / f"spans-seed{args.seed}.jsonl"
        with spans_path.open("w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s.__dict__) + "\n")
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    result.update(passes=len(result["samples"]), attempted=harness.attempted,
                  failed=harness.failed, problems=harness.problems[:20],
                  warnings=sorted(set(harness.warnings)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
