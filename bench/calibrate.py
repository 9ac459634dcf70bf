"""A fixed reference round that measures the host's speed, not the package's.

The shared host's speed drifts by a third and more over minutes (see
bench/README.md), and every pass of a workload drifts with it.  A worker runs
one reference round before each timed pass and one after the last; a pass's
time divided by the mean of the rounds on either side of it is the pass's
cost in reference rounds, which the host's drift moves far less than the
seconds themselves.

The round imports nothing from the package, so no change to the package
moves it.  Its three parts follow the kinds of work the workloads do:
interpreted Python (the parameter search and the checks), numpy on arrays of
a quarter million elements (the jump simulation and the dense chains), and
small HiGHS linear programs (the certified W1 of `cube_lp`).  Its arrays stay
small so that the round never sets the worker's peak RSS.
"""
from __future__ import annotations

import math
import random
import resource
from time import perf_counter

import numpy as np
from scipy.optimize import linprog

REPEAT = 3            # parts per round: a longer round averages the host over more time
PY_STEPS = 120_000
NP_SIZE = 250_000     # 2 MB arrays
NP_REPEAT = 4
LP_COUNT = 24
LP_SIDE = 12        # transport LP between two distributions on 12 points


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _python() -> float:
    rng = random.Random(12345)
    table, acc = {}, 0.0
    for i in range(PY_STEPS):
        x = rng.random()
        acc += math.exp(-x * x)
        table[i & 1023] = acc
    return acc


def _numpy() -> float:
    rng = np.random.default_rng(12345)
    total = 0.0
    for _ in range(NP_REPEAT):
        a = rng.standard_normal(NP_SIZE)
        total += float(np.cumsum(a)[-1]) + float(np.exp(-a * a).sum())
        total += float(np.sort(a[: NP_SIZE // 4])[0])
    return total


def _linprog() -> float:
    rng = np.random.default_rng(7)
    n = LP_SIDE
    a_eq = np.zeros((2 * n, n * n))
    for i in range(n):
        a_eq[i, i * n:(i + 1) * n] = 1.0
        a_eq[n + i, i::n] = 1.0
    b_eq = np.full(2 * n, 1.0 / n)
    total = 0.0
    for _ in range(LP_COUNT):
        res = linprog(rng.random(n * n), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                      method="highs")
        total += res.fun
    return total


def reference_round() -> dict:
    """Run the round once; its wall and CPU seconds."""
    cpu0, t0 = _cpu_s(), perf_counter()
    for _ in range(REPEAT):
        _python()
        _numpy()
        _linprog()
    return {"wall_s": perf_counter() - t0, "cpu_s": _cpu_s() - cpu0}


def relative_costs(passes: list, rounds: list, key: str) -> list:
    """Each pass's `key` time over the mean of the reference rounds around it."""
    if len(rounds) != len(passes) + 1:
        raise ValueError(f"{len(passes)} passes need {len(passes) + 1} rounds, got {len(rounds)}")
    return [p[key] / ((before[key] + after[key]) / 2)
            for p, before, after in zip(passes, rounds, rounds[1:])]
