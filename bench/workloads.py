"""The benchmark's workloads: which CLI invocations a pass runs, and why.

Each workload runs in its own fresh process (see worker.py).  A pass calls
`ricci_bounds.cli.main(argv)` once per invocation, in the order listed.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Tuple

import cube

VERIFY_PASS = r"verdict: PASS \(dominated=True, truncation_audit=True\)"


@dataclass(frozen=True)
class Invocation:
    name: str                 # output subdirectory, unique within the workload
    argv: Tuple[str, ...]     # CLI arguments; the harness appends --out
    verdict: str              # regex the last stdout line must match in full
    seeded: bool = False      # output varies with the seed: no reference files


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: Callable[[int, Path], Tuple[Invocation, ...]]
    seed_used: bool
    expected_top_layer: Optional[str]  # layer whose self time should dominate
    cube_bits: Optional[int] = None


def _readme(seed: int, inputs: Path) -> Tuple[Invocation, ...]:
    return (
        Invocation("verify", ("verify", "--n0", "5", "--k", "10", "--epsilon", "2",
                              "--strategy", "grid"), VERIFY_PASS),
        Invocation("regime_sqrt", ("example-mmk", "--n0", "25", "--k", "30",
                                   "--epsilon", "5"), VERIFY_PASS),
        Invocation("regime_narrow", ("example-mmk", "--n0", "25", "--k", "27",
                                     "--epsilon", "2"), VERIFY_PASS),
        Invocation("regime_wide", ("example-mmk", "--n0", "5", "--k", "15",
                                   "--epsilon", "4"), VERIFY_PASS),
        Invocation("ou", ("example-ou", "--alpha", "0.5"), VERIFY_PASS),
        Invocation("jump", ("example-jump", "--alpha", "1", "--paths", "1000000",
                            "--seed", str(seed)),
                   r"verdict: PASS \(empirical tail vs bound\)", seeded=True),
        Invocation("sweep", ("sweep", "--n0", "25", "--k", "30", "--epsilons", "1:15:1",
                             "--ref-level", "45", "--strategy", "grid"),
                   r"argmin epsilon: 5\.0 \(reference level 45\)"),
    )


def _ou_fine(seed: int, inputs: Path) -> Tuple[Invocation, ...]:
    return (Invocation("ou_fine", ("example-ou", "--alpha", "0.5", "--grid-step", "0.02"),
                       VERIFY_PASS),)


def _mmk_large(seed: int, inputs: Path) -> Tuple[Invocation, ...]:
    return (Invocation("mmk_large", ("example-mmk", "--n0", "900", "--k", "930",
                                     "--epsilon", "30"), VERIFY_PASS),)


def cube_path(inputs: Path) -> Path:
    return inputs / f"cube{cube.BITS}.json"


def _cube_lp(seed: int, inputs: Path) -> Tuple[Invocation, ...]:
    return (Invocation("cube_lp", ("curvature", "--chain", str(cube_path(inputs)),
                                   "--epsilon", "1"),
                       r"profile: eps=1\.0 rho=\S+ j0=\S+ s2=1", seeded=True),)


# Why each workload exists is stated in BENCHMARK.json and bench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload("readme", _readme, seed_used=True, expected_top_layer=None),
    Workload("ou_fine", _ou_fine, seed_used=False, expected_top_layer="chain_model"),
    Workload("mmk_large", _mmk_large, seed_used=False, expected_top_layer="chain_model"),
    Workload("cube_lp", _cube_lp, seed_used=True, expected_top_layer="transport",
             cube_bits=cube.BITS),
)}
