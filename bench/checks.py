"""Output checks for one invocation: exit code, verdict line, reference files,
closed forms.

Numbers are compared at RTOL relative plus ATOL absolute; every other
character, including `inf`, `nan`, `Infinity` and `NaN`, must match exactly.
Byte differences from a reference are counted apart (`cli.files_changed`)
and are not failures.
"""
from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path
from typing import List, Optional

import cube

RTOL = 1e-9
ATOL = 1e-13
CLOSED_FORM_TOL = 1e-9   # the certified LP's duality tolerance
STDOUT_FILE = "stdout.txt"

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _split(text: str):
    """Alternating (text, number) pieces: text at even, numbers at odd indices."""
    parts, pos = [], 0
    for m in _NUMBER.finditer(text):
        parts += [text[pos:m.start()], m.group()]
        pos = m.end()
    parts.append(text[pos:])
    return parts


def text_mismatch(got: str, want: str) -> Optional[str]:
    """None when `got` equals `want` up to the numeric tolerance, else a reason."""
    a, b = _split(got), _split(want)
    if len(a) != len(b):
        return f"{(len(a) - 1) // 2} numbers where the reference has {(len(b) - 1) // 2}"
    for i, (x, y) in enumerate(zip(a, b)):
        if i % 2 == 0:
            if x != y:
                return f"text {x[:40]!r} where the reference has {y[:40]!r}"
        elif abs(float(x) - float(y)) > RTOL * max(abs(float(x)), abs(float(y))) + ATOL:
            return f"number {x} where the reference has {y}"
    return None


def nonfinite_bounds(out_dir: Path) -> int:
    """inf/nan entries in the bound_raw column of bounds.csv, if written."""
    path = out_dir / "bounds.csv"
    if not path.exists():
        return 0
    with path.open(encoding="utf-8") as fh:
        return sum(not math.isfinite(float(row["bound_raw"])) for row in csv.DictReader(fh))


def bytes_written(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


def check_reference(out_dir: Path, stdout: str, ref_dir: Path):
    """Problems against the recorded reference, and the count of files whose bytes differ."""
    problems: List[str] = []
    want_files = sorted(p.name for p in ref_dir.iterdir() if p.name != STDOUT_FILE)
    got_files = sorted(p.name for p in out_dir.iterdir())
    if got_files != want_files:
        problems.append(f"wrote {got_files}, reference has {want_files}")
    changed = 0
    for name in set(want_files) & set(got_files):
        got, want = (out_dir / name).read_bytes(), (ref_dir / name).read_bytes()
        if got != want:
            changed += 1
            why = text_mismatch(got.decode("utf-8"), want.decode("utf-8"))
            if why:
                problems.append(f"{name}: {why}")
    why = text_mismatch(stdout, (ref_dir / STDOUT_FILE).read_text(encoding="utf-8"))
    if why:
        problems.append(f"stdout: {why}")
    return problems, changed


def check_cube(out_dir: Path, bits: int, p: float) -> List[str]:
    """Compare the hypercube profile with its closed forms."""
    profile = json.loads((out_dir / "profile.json").read_text(encoding="utf-8"))
    want = cube.closed_form(bits, p)
    problems = []
    if len(profile["kappa_local"]) != 1 << bits:
        problems.append(f"{len(profile['kappa_local'])} kappa_local values, want {1 << bits}")
    worst = max(abs(k - want["kappa_local"]) for k in profile["kappa_local"])
    if worst > CLOSED_FORM_TOL:
        problems.append(f"kappa_local off 1/N by {worst:.3e}")
    for key in ("rho", "j0", "s2"):
        if abs(profile[key] - want[key]) > CLOSED_FORM_TOL:
            problems.append(f"{key}={profile[key]!r}, closed form {want[key]!r}")
    return problems
