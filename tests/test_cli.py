import csv
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import unittest.mock
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ricci_bounds import MetricChain
from ricci_bounds import bounds as bounds_mod
from ricci_bounds import chain_model, cli, transport
from ricci_bounds import jump_process as jp
from ricci_bounds import equilibrium as eq
from ricci_bounds.chain_model import build_mmk_chain
from ricci_bounds.cli import main
from ricci_bounds.curvature import local_curvature
from ricci_bounds.errors import TransportError

from conftest import (biased_reflecting_walk, cube_chain, irregular_line_chain,
                      line_chain, random_graph_chain, reversal_chain, star_chain,
                      write_chain_json)


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


def test_epsilon_past_every_distance_exits_2_asking_for_a_smaller_one(tmp_path, capsys):
    # the eps-geodesic check passes, but no state is 100 from the origin 5
    code = run_cli(["curvature", "--n0", "5", "--k", "10", "--epsilon", "100",
                    "--out", str(tmp_path / "c")])
    assert code == 2
    assert "exceeds every distance from the origin; use a smaller epsilon" in capsys.readouterr().err


def test_epsilon_past_the_radius_is_refused_before_any_transport(monkeypatch, tmp_path,
                                                                 capsys):
    # the annulus test reads one row of dist; an LP solved first would fail
    # here as an internal error (exit 4)
    chain = cube_chain(4, 0.2)
    path = write_chain_json(tmp_path / "cube4.json", chain.points, chain.dist,
                            chain.kernel, origin=0)

    def no_lp(*args, **kwargs):
        raise AssertionError("a transport LP was solved")

    monkeypatch.setattr(scipy.optimize, "linprog", no_lp)
    code = run_cli(["curvature", "--chain", str(path), "--epsilon", "10",
                    "--out", str(tmp_path / "c")])
    assert code == 2
    assert "use a smaller epsilon" in capsys.readouterr().err


@pytest.mark.parametrize("eps, solves", [("1", 1), ("2", 2)])
def test_a_loaded_chain_solves_the_graph_of_its_smallest_distance_once(
        monkeypatch, tmp_path, eps, solves):
    # the triangle check on load proves that the pairs at distance 1 realize
    # the Hamming metric; eps = 1 has the same pairs and reuses that, eps = 2
    # has more and is solved on its own
    chain = cube_chain(6, 0.05)
    path = write_chain_json(tmp_path / "cube6.json", chain.points, chain.dist,
                            chain.kernel, origin=0)
    thresholds = []
    shortest_paths = chain_model._shortest_paths
    monkeypatch.setattr(chain_model, "_shortest_paths",
                        lambda d, t: thresholds.append(t) or shortest_paths(d, t))
    code = run_cli(["curvature", "--chain", str(path), "--epsilon", eps,
                    "--out", str(tmp_path / "c")])
    assert code == 0
    assert len(thresholds) == solves and thresholds[0] == 1.0


def test_non_geodesic_epsilon_exits_2_asking_for_a_larger_one(tmp_path, capsys):
    # M/M/k states are 1 apart, so no chain of steps <= 0.5 joins two of them
    code = run_cli(["verify", "--n0", "5", "--k", "10", "--epsilon", "0.5",
                    "--out", str(tmp_path / "v")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("inapplicable: chain is not 0.5-geodesic")
    assert "increase --epsilon" in err


def test_verify_exit_1_when_a_bound_falls_under_the_exact_tail(monkeypatch, tmp_path,
                                                               capsys):
    # the general bound scaled far under the exact tail breaks it at every
    # level where the tail carries more than the 1e-12 slack
    real = bounds_mod.bound_princ

    def shrunk(*args, **kwargs):
        curve = real(*args, **kwargs)
        curve.values = curve.values * 1e-30
        return curve

    monkeypatch.setattr(bounds_mod, "bound_princ", shrunk)
    out = tmp_path / "v"
    code = run_cli(["verify", "--n0", "5", "--k", "10", "--epsilon", "2",
                    "--strategy", "grid", "--out", str(out)])
    assert code == 1
    last = capsys.readouterr().out.rstrip().splitlines()[-1]
    assert last == "verdict: FAIL (dominated=False, truncation_audit=True)"
    header, rows = read_csv(out / "comparison.csv")
    assert header[-1] == "dominated"
    assert "False" in [row[-1] for row in rows]


def test_verify_judges_an_exact_far_tail_relatively(monkeypatch, tmp_path, capsys):
    # regime_sqrt's exact tail falls to 6.7e-22 at l = 255, far under any
    # absolute slack: a bound scaled by 1e-40 past l = 200 must still fail there
    real = bounds_mod.bound_princ

    def shrunk_far_tail(*args, **kwargs):
        curve = real(*args, **kwargs)
        curve.values = np.where(curve.levels >= 200, curve.values * 1e-40, curve.values)
        return curve

    monkeypatch.setattr(bounds_mod, "bound_princ", shrunk_far_tail)
    out = tmp_path / "sqrt"
    code = run_cli(["example-mmk", "--n0", "25", "--k", "30", "--epsilon", "5",
                    "--out", str(out)])
    assert code == 1
    last = capsys.readouterr().out.rstrip().splitlines()[-1]
    assert last == "verdict: FAIL (dominated=False, truncation_audit=True)"
    _, rows = read_csv(out / "comparison.csv")
    assert rows[-1][0] == "255" and rows[-1][-1] == "False"
    assert all(row[-1] == "True" for row in rows if float(row[0]) < 200)


@settings(max_examples=25, deadline=None)
@given(n0=st.integers(1, 30), extra=st.integers(1, 12), where=st.floats(0.0, 1.0))
@example(n0=25, extra=5, where=1.0)
def test_a_bound_just_under_the_exact_tail_at_one_level_exits_1(n0, extra, where):
    # the relative rule sees a shortfall of 1e-6 at any level, however small the tail
    k = n0 + extra
    trunc = cli._auto_truncation(n0, k)
    chain = build_mmk_chain(n0, k, trunc)
    pi = eq.stationary_birth_death(chain).distribution
    real = bounds_mod.bound_princ
    marked = {}

    def under(profile, params, levels):
        curve = real(profile, params, levels)
        i = marked["i"] = int(where * (levels.size - 1))
        exact = eq.empirical_tail(pi, chain, profile.origin, levels).values
        curve.values[i] = (1.0 - 1e-6) * exact[i]
        return curve

    with tempfile.TemporaryDirectory() as tmp, \
            unittest.mock.patch.object(bounds_mod, "bound_princ", under):
        out = Path(tmp)
        code = run_cli(["verify", "--n0", str(n0), "--k", str(k), "--trunc", str(trunc),
                        "--strategy", "grid", "--out", str(out)])
        cells = ([row[-1] for row in read_csv(out / "comparison.csv")[1]]
                 if code != 2 else None)
    assume(code != 2)
    assert code == 1
    assert cells[marked["i"]] == "False" and cells.count("False") == 1


def test_no_admissible_pair_writes_the_infeasibility_report(tmp_path, capsys):
    out = tmp_path / "infeasible"
    code = run_cli(["bound", "--n0", "25", "--k", "30", "--trunc", "160", "--epsilon", "1",
                    "--strategy", "grid", "--ref-level", "3", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "inapplicable: no admissible (alpha, d0) pair on the search lattice")
    doc = json.loads((out / "infeasibility_report.json").read_text())
    assert doc["error"].startswith("no admissible (alpha, d0) pair")
    assert len(doc["report"]) == 64


def test_dump_samples_writes_the_samples_behind_the_empirical_tail(tmp_path):
    out = tmp_path / "jump"
    assert run_cli(["example-jump", "--alpha", "1", "--paths", "2000", "--seed", "3",
                    "--dump-samples", "--out", str(out)]) == 0
    header, rows = read_csv(out / "jump_samples.csv")
    assert header == ["X_T"]
    assert len(rows) == 2000
    samples = np.array([float(r[0]) for r in rows])
    _, tail = read_csv(out / "jump_tail.csv")
    for row in tail:
        assert float(row[1]) == np.mean(samples >= float(row[0])), row[0]


def test_dump_samples_streams_its_rows(tmp_path):
    # 200,000 samples, written block by block as they are summed: 1.6 MB of
    # Poisson counts, a block of the simulation and the text of one block; a
    # list of one-element rows, one per sample, is about 20 MB on its own
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert run_cli(["example-jump", "--paths", "200000", "--seed", "7",
                        "--dump-samples", "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 12e6, peak
    assert len((tmp_path / "jump_samples.csv").read_text().splitlines()) == 200_001


def test_a_failed_simulation_leaves_no_samples_file(tmp_path):
    # the samples are written as they are summed, so a run that fails after
    # its first block must take back what it wrote
    def half_run(config, levels, sink):
        sink(np.zeros(3))
        raise RuntimeError("simulation failed")

    with unittest.mock.patch.object(jp, "simulate_paths", half_run):
        assert run_cli(["example-jump", "--paths", "2000", "--dump-samples",
                        "--out", str(tmp_path)]) == cli.EXIT_INTERNAL
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_csv_fields_holding_a_comma_are_quoted(tmp_path):
    # the grid search's note names "(alpha, d0)"; a loaded chain's point
    # label may hold a comma or a quote
    out = tmp_path / "sweep"
    assert run_cli(["sweep", "--n0", "25", "--k", "30", "--epsilons", "1:2:1",
                    "--ref-level", "3", "--strategy", "grid", "--out", str(out)]) == 2
    with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert len(header) == 8 and len(rows) == 2
    note = ("no admissible (alpha, d0) pair on the search lattice (on every "
            "candidate either C >= 1 or the drift condition fails); the bound "
            "gives nothing here")
    assert all(len(row) == 8 and row[-1] == note for row in rows)
    chain = biased_reflecting_walk(4, 1 / 3)
    labels = ["a,b", 'say "c"', "d", "e"]
    path = write_chain_json(tmp_path / "labels.json", labels, chain.dist, chain.kernel)
    assert run_cli(["stationary", "--chain", str(path), "--out", str(tmp_path / "s")]) == 0
    with open(tmp_path / "s" / "stationary.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["point", "mass"]
    assert [row[0] for row in rows] == labels
    assert sum(float(row[1]) for row in rows) == pytest.approx(1.0, abs=1e-12)


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


@pytest.mark.parametrize("field, value", [
    ("origin", [1]), ("origin", {"x": 1}), ("origin", 1.7), ("origin", True),
    ("origin", 7), ("points", 3), ("points", "abc"), ("points", ["a", "a", "c"]),
    ("dist", [[0, 1], [1, 0], [2, 1]]), ("dist", []), ("dist", [[0, 1, 2], [1, 0], [2, 1, 0]]),
    ("kernel", 1),
], ids=["origin_list", "origin_object", "origin_float", "origin_bool",
        "origin_out_of_range", "points_number", "points_string", "points_duplicate",
        "dist_3x2", "dist_empty", "dist_ragged", "kernel_number"])
def test_malformed_points_or_origin_exit_3(field, value, tmp_path, capsys):
    chain = biased_reflecting_walk(3, 1 / 3)
    path = write_chain_json(tmp_path / "walk3.json", ["a", "b", "c"], chain.dist,
                            chain.kernel, origin="a")
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    code = run_cli(["curvature", "--chain", str(path), "--epsilon", "1", "--origin", "0",
                    "--out", str(tmp_path / "c")])
    assert code == 3
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("missing", [False, True], ids=["directory", "missing"])
def test_unreadable_chain_file_exits_3(missing, tmp_path, capsys):
    path = tmp_path / "nonexistent.json" if missing else tmp_path
    code = run_cli(["sweep", "--chain", str(path), "--epsilons", "1:2:1",
                    "--out", str(tmp_path / "s")])
    assert code == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"error: {path}: cannot read: ")


def test_example_jump_default_horizon_follows_alpha(tmp_path, capsys):
    # exp(-25 alpha) is 3.7e-6 at alpha = 0.5: the default horizon becomes 37
    out = tmp_path / "jump"
    assert run_cli(["example-jump", "--alpha", "0.5", "--paths", "1000", "--seed", "3",
                    "--out", str(out)]) == 0
    capsys.readouterr()
    assert run_cli(["example-jump", "--alpha", "0.5", "--horizon", "5", "--paths", "1000",
                    "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: horizon too short")


@pytest.mark.parametrize("argv, message", [
    (["curvature", "--chain", "{chain}", "--n0", "25", "--k", "30"],
     "ricci-bounds curvature: error: argument --n0: not allowed with argument --chain"),
    (["example-ou", "--chain", "{chain}"],
     "ricci-bounds: error: unrecognized arguments: --chain {chain}"),
    (["verify", "--n0", "5", "--k", "10", "--alpha", "0.5"],
     "ricci-bounds verify: error: argument --alpha: not allowed with argument --n0"),
], ids=["chain_and_n0", "example_ou_chain", "n0_and_alpha"])
def test_more_than_one_chain_source_exits_3(argv, message, tmp_path, capsys):
    chain = biased_reflecting_walk(8, 1 / 3)
    path = write_chain_json(tmp_path / "walk8.json", chain.points, chain.dist,
                            chain.kernel, origin=0)
    out = tmp_path / "s"
    assert run_cli([a.format(chain=path) for a in argv] + ["--out", str(out)]) == 3
    assert capsys.readouterr().err.splitlines()[-1] == message.format(chain=path)
    assert not out.exists() or list(out.iterdir()) == []


def _least_line(command):
    """The shortest command line of `command` that parses: its required flags."""
    queue = [] if command in ("example-ou", "example-jump") else ["--n0", "5", "--k", "10"]
    return [command, *queue, *(["--epsilons", "1:3:1"] if command == "sweep" else [])]


_FOREIGN = [(command, flag) for command, (_, _, flags, _) in cli.COMMANDS.items()
            for flag in cli.FLAGS if flag not in (*flags, "--out")]


@pytest.mark.parametrize("command, flag", _FOREIGN, ids=["".join(c) for c in _FOREIGN])
def test_a_flag_the_command_does_not_take_exits_3(command, flag, tmp_path, capsys):
    cli.build_parser().parse_args(_least_line(command))   # the line parses without it
    out = tmp_path / "f"
    assert run_cli([*_least_line(command), flag, "1", "--out", str(out)]) == 3
    assert capsys.readouterr().err.splitlines()[-1] == \
        f"ricci-bounds: error: unrecognized arguments: {flag} 1"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--n0", "5", "--k", "10", "--epsilons", "1:3:1", "--epsilon", "99"],
     "unrecognized arguments: --epsilon 99"),   # not an abbreviation of --epsilons
    (["verify", "--n0", "5", "--k", "10", "--strategy", "paper", "--ref-level", "1e9"],
     "--ref-level needs --strategy grid"),
    (["stationary", "--n0", "5", "--k", "10", "--epsilon", "2"],
     "unrecognized arguments: --epsilon 2"),
    (["example-jump", "--paths", "1000", "--n0", "5", "--strategy", "grid"],
     "unrecognized arguments: --n0 5 --strategy grid"),
    (["verify", "--n0", "5", "--k", "10", "--eps", "2"], "unrecognized arguments: --eps 2"),
    (["verify", "--alpha", "0.5", "--k", "10"], "--k needs --n0"),
    (["stationary", "--chain", "missing.json", "--trunc", "50"], "--trunc needs --n0"),
    (["curvature", "--n0", "5", "--k", "10", "--grid-step", "0.1"], "--grid-step needs --alpha"),
    (["bound", "--chain", "missing.json", "--grid-width", "3"], "--grid-width needs --alpha"),
    (["stationary", "--n0", "5", "--k", "10", "--grid-width=3"], "--grid-width needs --alpha"),
    (["verify", "--n0", "5", "--k", "10", "--grid-step", "0.1"], "--grid-step needs --alpha"),
    (["sweep", "--n0", "5", "--k", "10", "--epsilons", "1:3:1", "--grid-width", "3"],
     "--grid-width needs --alpha"),
    (["bound", "--n0", "5", "--k", "10", "--ref-level", "9"], "--ref-level needs --strategy grid"),
    (["example-mmk", "--n0", "5", "--k", "10", "--strategy", "convex", "--ref-level=9"],
     "--ref-level needs --strategy grid"),
    (["example-ou", "--ref-level", "9"], "--ref-level needs --strategy grid"),
], ids=["sweep_epsilon", "verify_ref_level", "stationary_epsilon", "example_jump_n0",
        "abbreviated", "k_without_n0", "trunc_without_n0", "curvature_grid_step",
        "bound_grid_width", "stationary_grid_width", "verify_grid_step", "sweep_grid_width",
        "bound_ref_level", "example_mmk_ref_level", "example_ou_ref_level"])
def test_a_flag_the_command_line_does_not_read_exits_3(argv, message, tmp_path, capsys):
    out = tmp_path / "n"
    assert run_cli([*argv, "--out", str(out)]) == 3
    assert capsys.readouterr().err.splitlines()[-1] == f"ricci-bounds: error: {message}"
    assert not out.exists()


def test_readme_flag_table_is_the_command_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| Command | Flags it takes |\n|---|---|\n")[1].split("\n\n")[0]
    rows = dict(re.findall(r"^\| `([a-z-]+)` \| (.+) \|$", table, flags=re.M))
    assert list(rows) == list(cli.COMMANDS)
    for command, (_, _, flags, own) in cli.COMMANDS.items():
        expected = {}
        for flag in flags:
            keywords = {**cli.FLAGS[flag], **own.get(flag, {})}
            expected[flag] = (str(keywords.get("default", "")),
                              " (required)" if keywords.get("required") else "")
        documented = re.findall(r"`(--[a-z0-9-]+)(?:=([^`]*))?`( \(required\))?", rows[command])
        assert {flag: (default, required) for flag, default, required in documented} == \
            expected, command
        assert ("`--chain` or `--n0` or `--alpha`" in rows[command]) == \
            (set(cli.SOURCES) <= set(flags)), command
    assert f"`--out={cli.FLAGS['--out']['default']}`" in readme


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


def test_failed_transport_certificate_exit_4(monkeypatch, tmp_path, capsys):
    # every measure the CLI builds is a validated kernel row, so a failed
    # certificate is an internal error, not bad input
    chain = cube_chain(3, 0.2)
    path = write_chain_json(tmp_path / "cube3.json", chain.points, chain.dist,
                            chain.kernel, origin=0)
    real = scipy.optimize.linprog

    def corrupted(*args, **kwargs):
        res = real(*args, **kwargs)
        res.x = np.zeros_like(res.x)
        return res

    monkeypatch.setattr(scipy.optimize, "linprog", corrupted)
    code = run_cli(["curvature", "--chain", str(path), "--epsilon", "1",
                    "--out", str(tmp_path / "c")])
    assert code == 4
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert err.rstrip().splitlines()[-1].startswith("internal error: TransportError: pair")


def _two_closed_classes():
    """Six line points whose kernel never leaves {0, 1, 2} or {3, 4, 5}."""
    kernel = np.zeros((6, 6))
    for lo in (0, 3):
        kernel[lo, [lo, lo + 1]] = 0.5
        kernel[lo + 1, [lo, lo + 2]] = 0.5
        kernel[lo + 2, [lo + 1, lo + 2]] = 0.5
    return line_chain(np.arange(6.0), kernel, origin=0)


@pytest.mark.parametrize("argv", [
    ["curvature"], ["bound"], ["verify"], ["stationary"], ["sweep", "--epsilons", "1:2:1"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("make_chain", [star_chain, _two_closed_classes],
                         ids=["periodic_star", "two_closed_classes"])
def test_awkward_chains_end_in_a_documented_exit_code(make_chain, argv, tmp_path):
    chain = make_chain()
    path = write_chain_json(tmp_path / "chain.json", chain.points, chain.dist,
                            chain.kernel, origin=0)
    out = tmp_path / "out"
    code = run_cli([argv[0], "--chain", str(path), *argv[1:], "--out", str(out)])
    if code == 1:
        _, rows = read_csv(out / "comparison.csv")
        assert any(row[-1] == "False" for row in rows)
    else:
        assert code in (0, 2, 3, 4)


@pytest.mark.parametrize("source, argv, n_eps", [
    ("two_closed_classes", ["--epsilons", "1:2:1"], 2),
    ("mmk", ["--n0", "25", "--k", "30", "--epsilons", "1:6:1", "--ref-level", "8",
             "--strategy", "convex"], 6),
])
def test_sweep_with_nothing_admissible_exits_2(source, argv, n_eps, tmp_path, capsys):
    # rho = 0 at every eps on the closed classes; d0 beyond level 8 on M/M/k
    if source == "two_closed_classes":
        chain = _two_closed_classes()
        path = write_chain_json(tmp_path / "chain.json", chain.points, chain.dist,
                                chain.kernel, origin=0)
        argv = ["--chain", str(path), *argv]
    out = tmp_path / "sweep"
    assert run_cli(["sweep", *argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("inapplicable: no eps in --epsilons ")
    assert "argmin epsilon" not in captured.out
    header, rows = read_csv(out / "sweep.csv")
    assert header[-1] == "note"
    assert len(rows) == n_eps and all(row[-1] for row in rows)
    assert {row[-2] for row in rows} == {"inf"}


@pytest.mark.parametrize("argv, code", [
    (["bound", "--strategy", "grid", "--epsilon", "1"], 2),
    (["bound", "--epsilon", "1"], 2),
    (["verify", "--epsilon", "1"], 2),
    (["verify", "--strategy", "grid", "--epsilon", "1"], 2),
    (["sweep", "--epsilons", "1:3:1"], 2),
    (["curvature", "--epsilon", "1"], 0),
], ids=["bound_grid", "bound_paper", "verify_paper", "verify_grid", "sweep", "curvature"])
def test_negative_local_curvature_gives_no_bound(argv, code, tmp_path, capsys):
    # rho = 0.4 > 0, but K_eps = -0.8 at states 3 and 4: the envelope clamped at
    # 0 is no minorant there, and the grid's "bound" of 9.8e-10 at l = 39 sat
    # under an exact tail of 0.80
    chain = reversal_chain()
    path = write_chain_json(tmp_path / "reversal.json", chain.points, chain.dist,
                            chain.kernel, origin=0)
    out = tmp_path / "r"
    assert run_cli([argv[0], "--chain", str(path), *argv[1:], "--out", str(out)]) == code
    err = capsys.readouterr().err
    if argv[0] == "curvature":
        assert min(json.loads((out / "profile.json").read_text())["kappa_local"]) < -0.79
        return
    if argv[0] == "sweep":
        assert err.startswith("inapplicable: no eps in --epsilons ")
        _, rows = read_csv(out / "sweep.csv")
        assert [row[-1] for row in rows] == [
            f"K_eps = -0.8 < 0 at point 3 (eps = {eps}): the theorems need nonnegative "
            "curvature" for eps in (1.0, 2.0, 3.0)]
        return
    assert err == ("inapplicable: K_eps = -0.8 < 0 at point 3 (eps = 1.0): the theorems "
                   "need nonnegative curvature\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv, flag", [
    (["bound", "--n0", "900", "--k", "930", "--epsilon", "30", "--levels", "1:2"],
     "--levels"),
    (["example-jump", "--paths", "1000000", "--levels", "1:2"], "--levels"),
    (["sweep", "--n0", "900", "--k", "930", "--epsilons", "1:2"], "--epsilons"),
    (["example-jump", "--paths", "1000000", "--levels", "0.5:3:0.5"], "--levels"),
    (["sweep", "--n0", "5", "--k", "10", "--epsilons", "0:2:1"], "--epsilons"),
    (["curvature", "--n0", "5", "--k", "10", "--epsilon", "0"], "--epsilon"),
])
def test_a_bad_range_is_refused_before_any_work(argv, flag, tmp_path, capsys, monkeypatch):
    # the parser refuses the range, example-jump's levels at or below 1,
    # where the Poissonian bound is undefined, or an eps at or below 0: no
    # chain is built, no path is simulated and no out dir is made
    def never(*args):
        raise AssertionError("the command ran past its parser")

    for name in ("build_mmk_chain", "_auto_truncation"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.setattr(jp, "simulate_paths", never)
    out = tmp_path / "r"
    assert run_cli([*argv, "--out", str(out)]) == 3
    reason = {"1:2": "bad range '1:2', expected a:b:step",
              "0.5:3:0.5": "the Poissonian tail bound needs every level > 1, got 0.5",
              "0:2:1": "every epsilon must be > 0, got 0",
              "0": "epsilon must be > 0, got 0"}[argv[-1]]
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        f"error: argument {flag}: {reason}")
    assert not out.exists()


@pytest.mark.parametrize("tight_level", [None, 2.0, 5.0])
def test_example_jump_exit_1_means_a_row_breaks_its_bound(tight_level, tmp_path,
                                                          monkeypatch):
    # a zero bound at one level is broken when some path reaches that level;
    # none of the 2000 reaches 5, and an empirical 0 against a bound of 0 passes
    real = jp.poissonian_tail_bound
    monkeypatch.setattr(jp, "poissonian_tail_bound",
                        lambda l, alpha: 0.0 if l == tight_level else real(l, alpha))
    out = tmp_path / "jump"
    code = run_cli(["example-jump", "--alpha", "1", "--paths", "2000", "--seed", "3",
                    "--out", str(out)])
    _, rows = read_csv(out / "jump_tail.csv")
    broken = [float(r[0]) for r in rows if float(r[1]) > float(r[3])]
    assert code == (1 if broken else 0)
    assert broken == ([] if tight_level in (None, 5.0) else [tight_level])


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
    return (chain, draw(st.sampled_from(["verify", "curvature", "bound", "sweep", "stationary"])),
            draw(st.sampled_from(["paper", "grid", "convex"])), eps,
            draw(st.integers(0, n - 1) | st.integers(-2, n + 1)))


@settings(max_examples=100, deadline=None)
@given(case=_cli_cases())
def test_exit_code_is_documented_and_bad_origin_is_bad_input(case):
    chain, command, strategy, eps, origin = case
    with tempfile.TemporaryDirectory() as tmp:
        path = write_chain_json(Path(tmp) / "chain.json", chain.points, chain.dist,
                                (chain.kernel + np.eye(chain.n)) / 2)
        # only the flags the command takes, so that a usage error cannot
        # stand in for the --origin check
        flags = [("--epsilons", f"{eps!r}:{eps!r}:1"), ("--epsilon", repr(eps)),
                 ("--strategy", strategy), ("--origin", str(origin))]
        code = run_cli([command, "--chain", str(path),
                        *(a for flag, value in flags if flag in cli.COMMANDS[command][2]
                          for a in (flag, value)),
                        "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3)
    if command != "stationary" and not 0 <= origin < chain.n:   # stationary reads no origin
        assert code == 3


@pytest.mark.filterwarnings("ignore:.*no neighbour within")
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_relabelling_the_points_moves_no_curvature_and_no_exit_code(seed, data):
    # a permutation of the points reorders every pair, every transport block
    # and the classes that the transport dedup groups by their bytes; one
    # kernel row copied onto another point gives that dedup copies to find
    rng = np.random.default_rng(seed)
    base = random_graph_chain(rng)
    kernel = base.kernel.copy()
    a, b = rng.choice(base.n, size=2, replace=False)
    kernel[b] = kernel[a]
    chain = MetricChain(points=base.points, dist=base.dist, kernel=kernel)
    perm = rng.permutation(chain.n)          # point i of the relabelled chain is point perm[i]
    relabelled = MetricChain(points=tuple(chain.points[p] for p in perm),
                             dist=chain.dist[np.ix_(perm, perm)], kernel=kernel[np.ix_(perm, perm)])
    eps = data.draw(st.sampled_from(sorted(set(chain.dist[chain.dist > 0].tolist()))[:4]))
    origin = data.draw(st.integers(0, chain.n - 1))
    back = np.argsort(perm)
    np.testing.assert_allclose(local_curvature(relabelled, eps)[back],
                               local_curvature(chain, eps), rtol=0, atol=transport.CERT_TOL)
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, c, o in (("chain", chain, origin), ("relabelled", relabelled, back[origin])):
            path = write_chain_json(Path(tmp) / f"{name}.json", c.points, c.dist, c.kernel)
            codes.append(run_cli(["curvature", "--chain", str(path), "--epsilon", repr(eps),
                                  "--origin", str(o), "--out", str(Path(tmp) / name)]))
    assert codes[0] == codes[1]


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
        pi = eq.stationary_birth_death(build_mmk_chain(n0, k, trunc)).distribution
        audit_ok = eq.truncation_audit(pi)
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


@pytest.mark.parametrize("argv, budget", [
    (["sweep", "--n0", "5", "--k", "10", "--epsilons", "1:1e6:1e-3"], "MAX_RANGE_POINTS"),
    (["bound", "--n0", "5", "--k", "10", "--epsilon", "2", "--levels", "3:1e9:1"],
     "MAX_RANGE_POINTS"),
    (["example-ou", "--alpha", "0.5", "--grid-width", "1e6"], "MAX_DENSE_STATES"),
    (["verify", "--n0", "100000", "--k", "100001"], "MAX_DENSE_STATES"),
    (["example-jump", "--paths", "1000000000"], "MAX_PATHS"),
])
def test_over_budget_sizes_exit_3_before_allocating(argv, budget, tmp_path, capsys):
    # each size is refused from the flags alone, before any array of that size
    # exists; a range is refused by the parser, before the out dir is made
    out = tmp_path / "b"
    assert run_cli([*argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert re.match("(ricci-bounds [a-z]+: )?error: ", err.splitlines()[-1])
    assert f"budget {budget} = " in err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("budget, code", [(537, 0), (536, 3)])
def test_auto_truncation_ends_at_the_dense_chain_budget(budget, code, tmp_path,
                                                        monkeypatch, capsys):
    # n0 = 25, k = 27 fails the audit at truncations 67, 134 and 268 and keeps
    # 536 (537 states) where the budget allows it
    monkeypatch.setattr(chain_model, "MAX_DENSE_STATES", budget)
    out = tmp_path / "t"
    assert run_cli(["stationary", "--n0", "25", "--k", "27", "--out", str(out)]) == code
    if code:
        assert "error: 537 states exceed the dense-chain budget MAX_DENSE_STATES = 536 " \
            in capsys.readouterr().err
    else:
        assert len(read_csv(out / "stationary.csv")[1]) == 537


@pytest.mark.parametrize("argv, states, solves", [
    (["verify", "--n0", "25", "--k", "27", "--epsilon", "2"], 537, 1),
    (["stationary", "--n0", "25", "--k", "27"], 537, 1),
    (["sweep", "--n0", "25", "--k", "30", "--epsilons", "1:15:1"], 281, 0),
], ids=["verify", "stationary", "sweep"])
def test_auto_truncation_builds_only_the_kept_chain(argv, states, solves, tmp_path,
                                                    monkeypatch):
    # the rejected truncations are audited on the law of their rates: no chain, no solve
    built, solved = [], []
    build, solve = cli.build_mmk_chain, eq.stationary_birth_death

    def counted_build(*args):
        built.append(build(*args))
        return built[-1]

    def counted_solve(chain):
        solved.append(chain)
        return solve(chain)

    monkeypatch.setattr(cli, "build_mmk_chain", counted_build)
    monkeypatch.setattr(eq, "stationary_birth_death", counted_solve)
    assert run_cli([*argv, "--out", str(tmp_path / "o")]) == 0
    assert [chain.n for chain in built] == [states]
    assert len(solved) == solves
    assert all(chain is built[0] for chain in solved)


def _closed_form_truncation(n0, k):
    """Oracle: the M/M/k law in closed form, pi(j)/pi(j-1) = n0/min(j, k), with
    the truncation doubled until that law passes the truncation audit."""
    trunc = k + 40
    while True:
        states = np.arange(1, trunc + 1)
        log_pi = np.concatenate([[0.0], np.cumsum(np.log(n0 / np.minimum(states, k)))])
        pi = np.exp(log_pi - log_pi.max())
        pi /= pi.sum()
        if eq.truncation_audit(pi):
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


def test_alpha_without_epsilon_takes_example_ou_eps(tmp_path, capsys):
    # d0 = 15.2 lay past the radius 10 under the old alpha-dependent default eps
    verify, example = tmp_path / "verify", tmp_path / "example"
    assert run_cli(["verify", "--alpha", "0.3", "--out", str(verify)]) == 0
    assert run_cli(["example-ou", "--alpha", "0.3", "--out", str(example)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == out[1] == "verdict: PASS (dominated=True, truncation_audit=True)"
    names = sorted(p.name for p in verify.iterdir())
    assert names == sorted(p.name for p in example.iterdir())
    assert all((verify / n).read_bytes() == (example / n).read_bytes() for n in names)


def test_curvature_on_the_autoregression_defaults_to_eps_3(tmp_path):
    out = tmp_path / "c"
    assert run_cli(["curvature", "--alpha", "0.5", "--out", str(out)]) == 0
    assert json.loads((out / "profile.json").read_text())["epsilon"] == 3.0


_WALK3 = biased_reflecting_walk(3, 1 / 3)
_WALK3_DOC = {"points": ["a", "b", "c"], "dist": _WALK3.dist.tolist(),
              "kernel": _WALK3.kernel.tolist()}


@pytest.mark.parametrize("argv, doc, message", [
    (["verify", "--n0", "5", "--k", "10", "--epsilon", "abc"], None,
     "ricci-bounds verify: error: argument --epsilon: invalid float value: 'abc'"),
    (["bound", "--n0", "5", "--k", "10", "--epsilon", "2", "--levels", "1:2"], None,
     "ricci-bounds bound: error: argument --levels: bad range '1:2', expected a:b:step"),
    (["verify", "--n0", "5"], None, "ricci-bounds: error: --n0 needs --k"),
    (["curvature", "--epsilon", "1"], None,
     "ricci-bounds curvature: error: one of the arguments --chain --n0 --alpha is required"),
    (["curvature", "--chain", "{chain}", "--epsilon", "1"], _WALK3_DOC,
     "error: chain has no origin hint; pass --origin"),
    (["example-mmk", "--alpha", "0.5"], None,
     "ricci-bounds example-mmk: error: the following arguments are required: --n0, --k"),
    (["sweep", "--n0", "5", "--k", "10"], None,
     "ricci-bounds sweep: error: the following arguments are required: --epsilons"),
    (["example-ou", "--grid-width", "0.01"], None,
     "error: grid too small; increase grid_half_width (--grid-width)"),
    (["example-jump", "--paths", "0"], None, "error: n_paths (--paths) must be positive"),
    (["curvature", "--chain", "{chain}", "--epsilon", "1", "--origin", "0"], [_WALK3_DOC],
     "error: {chain}: top-level value must be an object"),
    (["curvature", "--chain", "{chain}", "--epsilon", "1", "--origin", "0"],
     dict(_WALK3_DOC, kernel=[["x"] * 3] * 3), "error: {chain}: dist/kernel must be numeric"),
    (["curvature", "--chain", "{chain}", "--epsilon", "1", "--origin", "0"],
     dict(_WALK3_DOC, dist=[[0, "1", 2], ["1", 0, 1], [2, 1, 0]]),
     "error: {chain}: dist/kernel must be numeric matrices: dist holds a string, "
     "not a JSON number"),
    (["curvature", "--chain", "{chain}", "--epsilon", "1", "--origin", "0"],
     dict(_WALK3_DOC, dist=[[0, True, 2], [True, 0, True], [2, True, 0]]),
     "error: {chain}: dist/kernel must be numeric matrices: dist holds true or false, "
     "not a JSON number"),
    (["curvature", "--chain", "{chain}", "--epsilon", "1", "--origin", "0"],
     dict(_WALK3_DOC, dist=[[0, 1, 2], [1, 0, 1], [2, False, 0]]),
     "error: {chain}: dist/kernel must be numeric matrices: dist holds true or false, "
     "not a JSON number"),
    (["curvature", "--chain", "{chain}", "--epsilon", "1", "--origin", "0"],
     dict(_WALK3_DOC, kernel=[[float("nan")] * 3] * 3),
     "error: {chain}: non-finite number 'NaN' not accepted"),
    (["curvature", "--chain", "{chain}", "--epsilon", "1"], dict(_WALK3_DOC, origin="z"),
     "error: {chain}: origin label 'z' not among points"),
    (["curvature", "--chain", "{chain}", "--epsilon", "1", "--origin", "0"],
     dict(_WALK3_DOC, dist=[[0, -1, 2], [-1, 0, 1], [2, 1, 0]]),
     "error: {chain}: negative distance entry"),
    (["curvature", "--chain", "{chain}"],
     {"points": ["a"], "dist": [[0]], "kernel": [[1]], "origin": 0},
     "error: no default eps: the chain has no positive distance; pass --epsilon"),
], ids=["epsilon_not_a_number", "range_without_step", "n0_without_k", "no_chain_source",
        "no_origin", "example_mmk_without_n0", "sweep_without_epsilons", "grid_too_small",
        "no_paths",
        "chain_file_list", "chain_file_strings", "chain_file_numeric_strings",
        "chain_file_booleans", "chain_file_false", "chain_file_nan", "chain_file_unknown_origin",
        "chain_file_negative_dist", "one_point_chain_without_epsilon"])
def test_every_refusal_exits_3_with_its_message(argv, doc, message, tmp_path, capsys):
    chain = tmp_path / "chain.json"
    if doc is not None:
        chain.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "r"
    assert run_cli([a.format(chain=chain) for a in argv] + ["--out", str(out)]) == 3
    # a rejected chain file is named at the head of the message
    assert capsys.readouterr().err.splitlines()[-1].startswith(message.format(chain=chain))
    assert not out.exists() or list(out.iterdir()) == []


def test_a_chain_file_that_is_not_utf8_is_named(tmp_path, capsys):
    chain = tmp_path / "chain.json"
    data = json.dumps(_WALK3_DOC).encode().replace(b'"a"', b'"a\xff"')
    chain.write_bytes(data)
    at = data.index(b"\xff")
    assert run_cli(["curvature", "--chain", str(chain), "--epsilon", "1", "--origin", "0",
                    "--out", str(tmp_path / "r")]) == 3
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: {chain}: not UTF-8: byte {at}: invalid start byte")


def test_default_epsilon_reads_the_distances_through_a_mask():
    # the mask d > 0 is n^2 bytes; a copy of the positive distances would add
    # 8 (n^2 - n) more
    rng = np.random.default_rng(3)
    n = 1000
    chain = line_chain(np.cumsum(rng.uniform(0.5, 2.0, n)), np.eye(n))
    cfg = cli.build_parser().parse_args(["curvature", "--chain", "unused.json"])
    tracemalloc.start()
    try:
        eps = cli._default_epsilon(cfg, chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert eps == np.min(chain.dist[chain.dist > 0])
    assert peak < 2 * n * n, peak


def test_nonzero_lp_status_is_a_transport_error_and_exits_4(monkeypatch, tmp_path, capsys):
    chain = cube_chain(3, 0.2)
    path = write_chain_json(tmp_path / "cube3.json", chain.points, chain.dist,
                            chain.kernel, origin=0)
    real = scipy.optimize.linprog

    def failed(*args, **kwargs):
        res = real(*args, **kwargs)
        res.status, res.message = 4, "numerical difficulties"
        return res

    monkeypatch.setattr(scipy.optimize, "linprog", failed)
    with pytest.raises(TransportError, match="^transport LP failed for pairs 0..0: "):
        transport.w1_flow(chain, [0], [1])
    code = run_cli(["curvature", "--chain", str(path), "--epsilon", "1",
                    "--out", str(tmp_path / "c")])
    assert code == 4
    assert capsys.readouterr().err.rstrip().splitlines()[-1].startswith(
        "internal error: TransportError: transport LP failed for pairs ")
