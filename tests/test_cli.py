import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ricci_bounds import cli
from ricci_bounds import equilibrium as eq
from ricci_bounds.chain_model import build_mmk_chain
from ricci_bounds.cli import main

from conftest import (biased_reflecting_walk, irregular_line_chain, line_chain,
                      random_graph_chain, star_chain, write_chain_json)


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
    same = write_chain_json(tmp_path / "same.json", ["a", "b", "c"],
                            [[0, 0, 5], [0, 0, 1], [5, 1, 0]], np.full((3, 3), 1 / 3))
    code = run_cli(["stationary", "--chain", str(same), "--out", str(tmp_path / "z")])
    assert code == 3


def test_unexpected_error_exit_4(tmp_path, capsys):
    # power iteration never settles on the periodic star, and exit 1 is kept
    # for violations
    chain = star_chain()
    star = write_chain_json(tmp_path / "star.json", chain.points, chain.dist, chain.kernel)
    code = run_cli(["stationary", "--chain", str(star), "--out", str(tmp_path / "s")])
    assert code == 4
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert err.rstrip().splitlines()[-1].startswith("internal error: PowerIterationError: ")


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


def test_import_loads_no_scipy_stats():
    # scipy.stats costs about half a second of import; scipy.special suffices
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, ricci_bounds.cli; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_example_jump_bound_past_float_range_is_inf(tmp_path):
    # alpha * T = 20: the bound's exponent I(ln l)/alpha - l ln l leaves the
    # float range at the upper levels, where the bound reads inf
    out = tmp_path / "jump"
    code = run_cli(["example-jump", "--alpha", "0.005", "--horizon", "4000",
                    "--paths", "10", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out / "jump_tail.csv")
    assert [r[3] for r in rows[-2:]] == ["inf", "inf"]


@pytest.mark.parametrize("argv", [
    ["verify", "--n0", "5", "--k", "10", "--epsilon", "2", "--origin", "99"],
    ["curvature", "--n0", "5", "--k", "10", "--epsilon", "2", "--origin", "-3"],
])
def test_origin_out_of_range_exit_3(argv, tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli([*argv, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: --origin")
    assert list(out.iterdir()) == []


def _irregular_walk(rng, n_points):
    """Nearest-neighbour walk on irregularly spaced points, biased downwards."""
    p_up = rng.uniform(0.1, 0.35)
    steps = np.ones(n_points - 1)
    kernel = np.diag(p_up * steps, 1) + np.diag((1 - p_up) * steps, -1)
    kernel[0, 0], kernel[-1, -1] = 1 - p_up, p_up
    return line_chain(np.cumsum(rng.uniform(0.8, 1.2, n_points)), kernel)


@st.composite
def _cli_cases(draw):
    """A small aperiodic chain (made lazy in the test, so every row has a
    self-loop), a command, a strategy, an epsilon among the chain's distances
    and an origin in -2..n+1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(6, 16))
    make = draw(st.sampled_from([_irregular_walk, irregular_line_chain, random_graph_chain]))
    chain = make(rng, n)
    # the shorter distances: at the long ones d0 lies beyond every chain's radius
    eps = draw(st.sampled_from(sorted(set(chain.dist[chain.dist > 0].tolist()))[:2 * n]))
    return (chain, draw(st.sampled_from(["verify", "curvature", "bound", "sweep"])),
            draw(st.sampled_from(["paper", "grid", "convex"])), eps,
            draw(st.integers(0, n - 1) | st.integers(-2, n + 1)))


@settings(max_examples=100, deadline=None)
@given(case=_cli_cases())
def test_exit_code_is_documented_and_bad_origin_is_bad_input(case):
    chain, command, strategy, eps, origin = case
    with tempfile.TemporaryDirectory() as tmp:
        path = write_chain_json(Path(tmp) / "chain.json", chain.points, chain.dist,
                                (chain.kernel + np.eye(chain.n)) / 2)
        eps_args = (["--epsilons", f"{eps!r}:{eps!r}:1"] if command == "sweep"
                    else ["--epsilon", repr(eps)])
        code = run_cli([command, "--chain", str(path), *eps_args,
                        "--strategy", strategy, "--origin", str(origin),
                        "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3)
    if not 0 <= origin < chain.n:
        assert code == 3


@st.composite
def _short_mmk_cases(draw):
    """A CLI-built M/M/k chain whose --trunc lies between k and k + 40 (often
    too short to hold the stationary law), and a strategy."""
    n0 = draw(st.integers(1, 40))
    k = draw(st.integers(n0 + 1, n0 + 12))
    return n0, k, draw(st.integers(k, k + 40)), draw(st.sampled_from(["paper", "grid", "convex"]))


@settings(max_examples=100, deadline=None)
@given(case=_short_mmk_cases())
@example(case=(5, 10, 50, "grid"))
@example(case=(25, 30, 45, "paper"))
def test_exit_1_means_a_dominated_cell_is_false(case):
    n0, k, trunc, strategy = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        code = run_cli(["verify", "--n0", str(n0), "--k", str(k), "--trunc", str(trunc),
                        "--strategy", strategy, "--out", str(out)])
        cells = ([row[-1] for row in read_csv(out / "comparison.csv")[1]]
                 if (out / "comparison.csv").exists() else None)
    assert code in (0, 1, 2, 3)
    assert (code == 1) == (cells is not None and "False" in cells)
    if cells is not None and "False" not in cells:
        audit_ok = eq.truncation_audit(eq.stationary_birth_death(build_mmk_chain(n0, k, trunc)))
        assert code == (0 if audit_ok else 3)


@pytest.mark.parametrize("argv, flag", [
    (["verify", "--n0", "25", "--k", "30", "--trunc", "45", "--epsilon", "5"], "--trunc"),
    (["verify", "--alpha", "0.5", "--grid-width", "6", "--epsilon", "2"], "--grid-width"),
])
def test_short_cut_off_with_every_level_dominated_exits_3(argv, flag, tmp_path, capsys):
    out = tmp_path / "v"
    assert run_cli([*argv, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == \
        "verdict: FAIL (dominated=True, truncation_audit=False)"
    err = captured.err.strip()
    assert err.startswith(f"error: the cut-off set by {flag} is too short: "
                          "its last 10 states carry stationary mass ")
    assert {row[-1] for row in read_csv(out / "comparison.csv")[1]} == {"True"}


@pytest.mark.parametrize("argv, code", [
    (["verify", "--n0", "abc"], 3),
    (["verify", "--bogus", "1"], 3),
    (["verify", "--strategy", "fast"], 3),
    (["example-jump", "--alpha", "nan", "--paths", "10"], 3),
    (["verify", "--n0", "5", "--k", "10", "--epsilon", "2", "--strategy", "grid",
      "--ref-level", "nan"], 3),
    (["example-ou", "--alpha", "0.5", "--grid-width", "inf"], 3),
    (["sweep", "--n0", "5", "--k", "10", "--epsilons", "1:inf:1"], 3),
    (["verify", "--help"], 0),
])
def test_malformed_or_non_finite_command_line_exits_3(argv, code, tmp_path, capsys):
    out = tmp_path / "u"
    assert run_cli([*argv, "--out", str(out)]) == code
    if code:
        assert "error: " in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["verify", "--n0", "25", "--k", "27", "--epsilon", "2"],
    ["stationary", "--n0", "25", "--k", "27"],
])
def test_auto_truncation_solves_each_law_once(argv, tmp_path, monkeypatch):
    events = []
    build, solve = cli.build_mmk_chain, eq.stationary_birth_death

    def counted_build(*args):
        events.append(("build", build(*args)))
        return events[-1][1]

    def counted_solve(chain):
        events.append(("solve", chain))
        return solve(chain)

    monkeypatch.setattr(cli, "build_mmk_chain", counted_build)
    monkeypatch.setattr(eq, "stationary_birth_death", counted_solve)
    assert run_cli([*argv, "--out", str(tmp_path / "o")]) == 0
    # truncations 67, 134, 268 and 536: one solve right after each build, none after
    assert [kind for kind, _ in events] == ["build", "solve"] * 4
    assert all(events[i][1] is events[i + 1][1] for i in range(0, len(events), 2))


def _closed_form_truncation(n0, k):
    """Oracle: the M/M/k law in closed form, pi(j)/pi(j-1) = n0/min(j, k), with
    the truncation doubled until that law passes the truncation audit."""
    trunc = k + 40
    while True:
        states = np.arange(1, trunc + 1)
        log_pi = np.concatenate([[0.0], np.cumsum(np.log(n0 / np.minimum(states, k)))])
        pi = np.exp(log_pi - log_pi.max())
        pi /= pi.sum()
        if eq.truncation_audit(eq.StationaryResult(pi, "birth_death_exact", np.nan)):
            return trunc
        trunc *= 2


@settings(max_examples=40, deadline=None)
@given(n0=st.integers(1, 60), extra=st.integers(1, 40))
def test_auto_truncation_matches_the_closed_form_law(n0, extra):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        assert run_cli(["stationary", "--n0", str(n0), "--k", str(n0 + extra),
                        "--out", str(out)]) == 0
        _, rows = read_csv(out / "stationary.csv")
    assert len(rows) == _closed_form_truncation(n0, n0 + extra) + 1
