"""The README commands' outputs against the benchmark's recorded references.

Runs every unseeded invocation of the benchmark's `readme` workload through
`ricci_bounds.cli.main` and compares what it writes with
`bench/reference/readme/<name>/`, at the benchmark's own tolerance (relative
1e-9 plus absolute 1e-13).  A loaded chain's `curvature` outputs are pinned
byte for byte to `tests/reference/cube7/`.  The bench modules are only read:
nothing is written under bench/.
"""
import re
from pathlib import Path

import pytest

from ricci_bounds.cli import main

from conftest import BENCH, import_from_bench

REFERENCE = BENCH / "reference" / "readme"

checks, workloads = import_from_bench("checks", "workloads")
INVOCATIONS = [inv for inv in workloads.WORKLOADS["readme"].invocations(0, Path("."))
               if not inv.seeded]


def test_six_unseeded_readme_invocations():
    assert [inv.name for inv in INVOCATIONS] == [
        "verify", "regime_sqrt", "regime_narrow", "regime_wide", "ou", "sweep"]


@pytest.mark.parametrize("inv", INVOCATIONS, ids=lambda inv: inv.name)
def test_readme_outputs_match_reference(inv, tmp_path, capsys):
    out = tmp_path / inv.name
    with pytest.raises(SystemExit) as exit_info:
        main([*inv.argv, "--out", str(out)])
    stdout = capsys.readouterr().out
    assert exit_info.value.code == 0
    assert re.fullmatch(inv.verdict, stdout.strip().splitlines()[-1])
    problems, _ = checks.check_reference(out, stdout, REFERENCE / inv.name)
    assert problems == []


CUBE7 = Path(__file__).resolve().parent / "reference" / "cube7"


def test_loaded_cube7_curvature_is_byte_identical_to_reference(tmp_path, capsys):
    # the load_chain route (triangle proof, certified LPs) pinned to the bit:
    # the biased hypercube {0,1}^7 at p = 0.1, written as the benchmark writes
    # its cube_lp input
    (cube,) = import_from_bench("cube")
    path = tmp_path / "cube7.json"
    cube.write_cube_chain(path, 7, 0.1)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main(["curvature", "--chain", str(path), "--epsilon", "1", "--origin", "0",
              "--out", str(out)])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == (CUBE7 / "stdout.txt").read_text(encoding="utf-8")
    assert sorted(p.name for p in out.iterdir()) == ["envelope.csv", "profile.json"]
    for name in ("envelope.csv", "profile.json"):
        assert (out / name).read_bytes() == (CUBE7 / name).read_bytes(), name
