"""Biased hypercube chain for the `cube_lp` workload, with its closed forms.

States are {0,1}^N under the Hamming metric.  One step picks a coordinate
uniformly and resamples it from Bernoulli(p).  Coupling both copies through
the same coordinate and the same coin shows W1(P_x, P_y) = (N-1)/N for every
neighbouring pair, and the coordinate x_j that differs is a 1-Lipschitz
witness for the matching lower bound.  So kappa = 1/N exactly, for every p
(Ollivier, "Ricci curvature of Markov chains on metric spaces", JFA 2009).
From the origin 0...0 the other profile constants are exact too:
rho = (1 - N p)/N at eps = 1, J(x0) = p, and s^2 = 2^2/4 = 1 because every
kernel row is supported on a ball of diameter 2.

Pure Python, so the parent process writes the file without importing numpy.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

BITS = 9            # 512 states, 2304 neighbouring pairs at eps = 1
EPSILON = 1.0
P_RANGE = (0.05, 0.95)


def cube_p(seed: int) -> float:
    """The resampling bias drawn from the workload seed."""
    return random.Random(seed).uniform(*P_RANGE)


def cube_chain(bits: int, p: float) -> dict:
    """Chain-spec document: exact integer Hamming `dist`, row-stochastic `kernel`."""
    n = 1 << bits
    dist = [[bin(x ^ y).count("1") for y in range(n)] for x in range(n)]
    kernel = []
    for x in range(n):
        row = [0.0] * n
        stay = 0.0
        for i in range(bits):
            flip = (1.0 - p) if (x >> i) & 1 else p   # the resampled bit differs
            row[x ^ (1 << i)] = flip / bits
            stay += (1.0 - flip) / bits
        row[x] = stay
        kernel.append(row)
    return {"points": [format(x, f"0{bits}b") for x in range(n)],
            "dist": dist, "kernel": kernel, "origin": 0}


def write_cube_chain(path: Path, bits: int, p: float) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cube_chain(bits, p)), encoding="utf-8")


def closed_form(bits: int, p: float) -> dict:
    """Exact profile values at eps = 1 with origin 0...0."""
    return {"kappa_local": 1.0 / bits, "rho": (1.0 - bits * p) / bits,
            "j0": p, "s2": 1.0}
