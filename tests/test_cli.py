import json

import numpy as np
import pytest

from ricci_bounds.cli import main

from conftest import biased_reflecting_walk, write_chain_json


def run_cli(args):
    with pytest.raises(SystemExit) as exit_info:
        main(args)
    return exit_info.value.code


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_example_mmk_artifacts(tmp_path):
    out = tmp_path / "run"
    code = run_cli(["example-mmk", "--n0", "5", "--k", "10", "--out", str(out)])
    assert code == 0
    for name in ("profile.json", "params.json", "bounds.csv",
                 "stationary.csv", "comparison.csv"):
        assert (out / name).exists(), name
    profile = json.loads((out / "profile.json").read_text())
    assert profile["s2"] == 1.0
    header, rows = read_csv(out / "comparison.csv")
    assert header[-1] == "dominated"
    assert all(row[-1] == "True" for row in rows)


def test_example_mmk_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(["example-mmk", "--n0", "5", "--k", "10", "--out", str(a)])
    run_cli(["example-mmk", "--n0", "5", "--k", "10", "--out", str(b)])
    for name in ("bounds.csv", "stationary.csv", "comparison.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_example_ou_passes(tmp_path):
    out = tmp_path / "ou"
    code = run_cli(["example-ou", "--out", str(out)])
    assert code == 0
    assert (out / "bounds.csv").exists()


def test_example_jump_artifacts(tmp_path):
    out = tmp_path / "jump"
    code = run_cli(["example-jump", "--alpha", "1", "--paths", "50000",
                    "--seed", "3", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out / "jump_tail.csv")
    assert header == ["l", "empirical", "empirical_CI_high", "bound"]
    assert len(rows) == 5


def test_sweep_reports_argmin(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = run_cli(["sweep", "--n0", "25", "--k", "30", "--trunc", "160",
                    "--epsilons", "2:8:1", "--ref-level", "45",
                    "--strategy", "grid", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "argmin epsilon: 5.0" in captured
    header, rows = read_csv(out / "sweep.csv")
    assert header[0] == "epsilon"
    assert len(rows) == 7


def test_verify_zero_curvature_chain_log_linear(tmp_path):
    # attractive zero-curvature walk: the bound curve decays log-linearly
    chain = biased_reflecting_walk(60, 1 / 3)
    path = write_chain_json(tmp_path / "walk.json", chain.points, chain.dist,
                            chain.kernel, origin=0)
    out = tmp_path / "verify"
    code = run_cli(["verify", "--chain", str(path), "--epsilon", "1",
                    "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out / "bounds.csv")
    assert header == ["l", "bound_raw", "bound_clamped", "kind"]
    princ = [(float(r[0]), float(r[1])) for r in rows if r[3] == "theorem_princ"]
    levels = np.array([p[0] for p in princ])
    vals = np.array([p[1] for p in princ])
    slopes = np.diff(np.log(vals)) / np.diff(levels)
    np.testing.assert_allclose(slopes, slopes[0], atol=1e-9)


def test_verify_loaded_chain_skips_truncation_audit(tmp_path, capsys):
    # a JSON chain was never truncated by the CLI; its last states may carry
    # real stationary mass without any bound being violated
    chain = biased_reflecting_walk(8, 1 / 3)
    path = write_chain_json(tmp_path / "walk8.json", chain.points, chain.dist,
                            chain.kernel, origin=0)
    code = run_cli(["verify", "--chain", str(path), "--epsilon", "1",
                    "--out", str(tmp_path / "v")])
    assert "verdict: PASS (dominated=True" in capsys.readouterr().out
    assert code == 0


def test_verify_exit_2_when_not_attractive(tmp_path):
    # drift away from the origin: rho <= 0, the theorems say nothing
    chain = biased_reflecting_walk(40, 2 / 3)
    path = write_chain_json(tmp_path / "away.json", chain.points, chain.dist,
                            chain.kernel, origin=0)
    code = run_cli(["verify", "--chain", str(path), "--epsilon", "1",
                    "--out", str(tmp_path / "v2")])
    assert code == 2


def test_bad_input_exit_3(tmp_path):
    code = run_cli(["verify", "--out", str(tmp_path / "x")])
    assert code == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run_cli(["curvature", "--chain", str(bad), "--out", str(tmp_path / "y")])
    assert code == 3


def test_curvature_bound_stationary_commands(tmp_path):
    out = tmp_path / "pieces"
    assert run_cli(["curvature", "--n0", "2", "--k", "4", "--trunc", "40",
                    "--epsilon", "1", "--out", str(out)]) == 0
    assert (out / "profile.json").exists()
    assert (out / "envelope.csv").exists()
    assert run_cli(["bound", "--n0", "2", "--k", "4", "--trunc", "40",
                    "--epsilon", "1", "--strategy", "grid",
                    "--out", str(out)]) == 0
    assert (out / "bounds.csv").exists()
    assert run_cli(["stationary", "--n0", "2", "--k", "4", "--trunc", "40",
                    "--out", str(out)]) == 0
    header, rows = read_csv(out / "stationary.csv")
    assert header == ["point", "mass"]
    total = sum(float(r[1]) for r in rows)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_profile_json_is_reloadable(tmp_path):
    out = tmp_path / "prof"
    run_cli(["curvature", "--n0", "5", "--k", "10", "--trunc", "60",
             "--epsilon", "1", "--out", str(out)])
    doc = json.loads((out / "profile.json").read_text())
    assert doc["rho"] == pytest.approx(1 / 15, abs=1e-12)
    assert doc["envelope"]["breakpoints"][0] == 0.0


def test_example_ou_grid_at_alpha_half_reports_infinite_C(tmp_path, capsys):
    # the grid meets (alpha, d0) pairs whose ln C exceeds the float range;
    # their report carries C = inf instead of raising OverflowError
    code = run_cli(["example-ou", "--alpha", "0.5", "--strategy", "grid",
                    "--out", str(tmp_path / "ou")])
    assert code == 0
    assert "verdict: PASS" in capsys.readouterr().out


def test_sweep_grid_at_alpha_half_reports_argmin(tmp_path, capsys):
    code = run_cli(["sweep", "--alpha", "0.5", "--epsilons", "1:6:0.5",
                    "--strategy", "grid", "--out", str(tmp_path / "sweep")])
    assert code == 0
    assert "argmin epsilon: 1.0" in capsys.readouterr().out
