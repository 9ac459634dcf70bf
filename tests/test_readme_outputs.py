"""The README commands' outputs against the benchmark's recorded references.

Runs every unseeded invocation of the benchmark's `readme` workload through
`ricci_bounds.cli.main` and compares what it writes with
`bench/reference/readme/<name>/`, at the benchmark's own tolerance (relative
1e-9 plus absolute 1e-13).  The bench modules are only read: nothing is
written under bench/.
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
