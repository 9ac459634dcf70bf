"""Command-line front end: build/load chain -> profile -> bounds -> ground truth.

`COMMANDS` gives each command its function, help line, flags and keywords of
its own, which take the place of the shared ones, `FLAGS` each flag's
argparse keywords, and `NEEDS` the flags read only with another: the only
copy of the names and defaults.  A flag that a
command does not take, or an abbreviated one, is a usage error.  Each
command decides its verdict and exit code here, from the rows it writes.

Exit status: 0 all requested checks pass, 1 a bound was violated (in
`verify`, a bound under (1 - DOMINANCE_TOL) times an exact birth-death tail
at some level, or more than DOMINANCE_TOL under a power-iteration tail),
2 the theorems are inapplicable (no admissible parameters / rho <= 0; a
K_eps < 0 at some point, which `curvature` still writes with exit 0; an eps
at which the chain is not eps-geodesic, which asks for a larger eps, or one
past every distance from the origin, which asks for a smaller one; for
`sweep`, no eps in the grid gives a finite bound at the reference level,
and sweep.csv is still written),
3 invalid input (a malformed or non-finite command line, a rejected chain
file, an --origin outside 0..n-1, a --trunc / --grid-width cut-off that
leaves mass past the last state, or a size over its budget), 4 internal
error, a failed transport certificate included.
Plot rendering is out of scope: every figure-equivalent output is a
documented CSV.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import equilibrium as eq
from . import jump_process as jp
from .chain_model import (MetricChain, build_discrete_ou_chain, build_mmk_chain,
                          check_epsilon_geodesic, load_chain, mmk_rates)
from .curvature import curvature_profile
from .errors import ChainFormatError, InadmissibleParamsError, InapplicableError

STRATEGY_MAP = {"paper": "paper_default", "grid": "grid", "convex": "alpha_convexity"}

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_INAPPLICABLE = 2
EXIT_BAD_INPUT = 3
EXIT_INTERNAL = 4
DOMINANCE_TOL = 1e-12  # verify: a bound may fall this far under the exact tail
MAX_RANGE_POINTS = 100_000  # most points an a:b:step range (--levels, --epsilons) may hold


def _write_csv(path: Path, header, rows) -> None:
    """Numbers in .17g; a field holding a comma or a quote is quoted."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows([v if isinstance(v, str) else format(float(v), ".17g") for v in row]
                      for row in rows)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _finite_float(text: str) -> float:
    """argparse type for the float flags: nan and inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _parse_range(spec: str) -> np.ndarray:
    """argparse type of the range flags: 'a:b:step' as an inclusive grid."""
    try:
        a, b, step = (float(tok) for tok in spec.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range {spec!r}, expected a:b:step") from None
    if not all(map(math.isfinite, (a, b, step))) or step <= 0 or b < a:
        raise argparse.ArgumentTypeError(f"bad range {spec!r}: need finite a <= b and step > 0")
    if (b - a) / step >= MAX_RANGE_POINTS:
        raise argparse.ArgumentTypeError(f"range {spec!r} has more points than the budget "
                                         f"MAX_RANGE_POINTS = {MAX_RANGE_POINTS}")
    return np.arange(a, b + step * 1e-9, step)


def _above(parse, low: float, need: str):
    """argparse type: `parse`, then every value above `low`, so a value the
    command cannot take is refused before any chain is built or path simulated."""
    def check(text: str):
        value = parse(text)
        if np.min(value) <= low:
            raise argparse.ArgumentTypeError(f"{need} > {low:g}, got {np.min(value):g}")
        return value
    return check


def _auto_truncation(n0: int, k: int) -> int:
    """The first of k + 40, 2(k + 40), ... whose M/M/k law, solved from the
    rates alone, passes the truncation audit.  Past the dense-chain budget
    `mmk_rates` refuses the next candidate."""
    trunc = k + 40
    while True:
        up, _, down = mmk_rates(n0, k, trunc)
        if eq.truncation_audit(eq.birth_death_law(up, down)):
            return trunc
        trunc *= 2


def _build_chain(cfg: argparse.Namespace) -> MetricChain:
    if cfg.chain_file is not None:
        return load_chain(cfg.chain_file)
    if cfg.n0 is not None:
        trunc = cfg.trunc if cfg.trunc is not None else _auto_truncation(cfg.n0, cfg.k)
        return build_mmk_chain(cfg.n0, cfg.k, trunc)
    return build_discrete_ou_chain(cfg.alpha, cfg.grid_width, cfg.grid_step)


def _default_epsilon(cfg: argparse.Namespace, chain: MetricChain) -> float:
    """--epsilon, else the one default eps of the chain's source."""
    if cfg.epsilon is not None:
        return cfg.epsilon
    if cfg.n0 is not None:
        return float(max(1, min(round(np.sqrt(cfg.n0)), cfg.k - cfg.n0)))
    if chain.gaussian_variance is not None:
        return 3.0
    # the smallest positive distance, read through a mask: no copy of the distances
    d = chain.dist
    eps = float(np.min(d, where=d > 0, initial=np.inf))
    if eps == np.inf:
        raise ChainFormatError(
            "no default eps: the chain has no positive distance; pass --epsilon")
    return eps


def _origin(cfg: argparse.Namespace, chain: MetricChain) -> int:
    """--origin, else the chain's origin hint; an index outside 0..n-1 is bad input."""
    origin = cfg.origin if cfg.origin is not None else chain.origin_hint
    if origin is None:
        raise ChainFormatError("chain has no origin hint; pass --origin")
    if not 0 <= origin < chain.n:
        raise ChainFormatError(f"--origin {origin} is outside 0..{chain.n - 1}")
    return origin


def _profile(cfg: argparse.Namespace, chain: MetricChain):
    eps = _default_epsilon(cfg, chain)
    origin = _origin(cfg, chain)
    witness = check_epsilon_geodesic(chain, eps)
    if witness is not None:
        raise InapplicableError(
            f"chain is not {eps}-geodesic (witness pair {witness}); increase --epsilon")
    return curvature_profile(chain, eps, origin)


def _default_levels(cfg, profile, chain, d0: float) -> np.ndarray:
    if cfg.levels is not None:
        return cfg.levels
    lmax = float(chain.dist[profile.origin].max())
    if lmax <= d0:
        raise InadmissibleParamsError(
            f"d0 = {d0:.6g} is beyond the chain's radius {lmax:.6g}; "
            "nothing to bound")
    return np.linspace(d0 + bounds_mod.LEVEL_TOL, lmax, 80)


def _bound_curves(cfg, profile, chain):
    strategy = STRATEGY_MAP[cfg.strategy]
    params = bounds_mod.search_params(profile, strategy=strategy,
                                      reference_level=cfg.reference_level)
    levels = _default_levels(cfg, profile, chain, params.d0)
    princ = bounds_mod.bound_princ(profile, params, levels)
    curves = [princ]
    if float(levels.min()) > bounds_mod.paper_default_d0(profile):
        curves.append(bounds_mod.bound_theorem1(profile, levels))
    return params, levels, curves


def _write_tail_curves(path: Path, curves) -> None:
    """TailCurve export: long format, one row per (level, curve)."""
    rows = [[l, v, clamped, c.kind] for c in curves
            for l, v, clamped in zip(c.levels, c.values, c.clamped())]
    _write_csv(path, ["l", "bound_raw", "bound_clamped", "kind"], rows)


def _comparison_rows(curves, tail):
    header, columns = ["l"], [curves[0].levels]
    for c in curves:
        header += [f"{c.kind}_raw", f"{c.kind}_clamped"]
        columns += [c.values, c.clamped()]
    return header + ["empirical"], np.column_stack(columns + [tail.values]).tolist()


def cmd_curvature(cfg: argparse.Namespace) -> int:
    chain = _build_chain(cfg)
    profile = _profile(cfg, chain)
    _write_json(cfg.out_dir / "profile.json", profile.as_dict())
    env = profile.envelope
    _write_csv(cfg.out_dir / "envelope.csv", ["r", "K"],
               list(zip(env.breakpoints, env.values)))
    print(f"profile: eps={profile.epsilon} rho={profile.rho:.12g} "
          f"j0={profile.j0:.12g} s2={profile.s2:.12g}")
    return EXIT_PASS


def cmd_bound(cfg: argparse.Namespace) -> int:
    chain = _build_chain(cfg)
    profile = _profile(cfg, chain)
    params, levels, curves = _bound_curves(cfg, profile, chain)
    _write_json(cfg.out_dir / "params.json", params.as_dict())
    _write_tail_curves(cfg.out_dir / "bounds.csv", curves)
    print(f"params: alpha={params.alpha:.12g} d0={params.d0:.12g} "
          f"strategy={params.strategy}")
    return EXIT_PASS


def cmd_stationary(cfg: argparse.Namespace) -> int:
    chain = _build_chain(cfg)
    result = eq.stationary_law(chain)
    _write_csv(cfg.out_dir / "stationary.csv", ["point", "mass"],
               list(zip(chain.points, result.distribution)))
    print(f"stationary: method={result.method} residual={result.residual:.3e}")
    return EXIT_PASS


def cmd_verify(cfg: argparse.Namespace) -> int:
    chain = _build_chain(cfg)
    profile = _profile(cfg, chain)
    params, levels, curves = _bound_curves(cfg, profile, chain)
    result = eq.stationary_law(chain)
    tail = eq.empirical_tail(result.distribution, chain, profile.origin, levels)
    _write_json(cfg.out_dir / "profile.json", profile.as_dict())
    _write_json(cfg.out_dir / "params.json", params.as_dict())
    _write_csv(cfg.out_dir / "stationary.csv", ["point", "mass"],
               list(zip(chain.points, result.distribution)))
    _write_tail_curves(cfg.out_dir / "bounds.csv", curves)
    # only a chain this CLI truncated can lose mass past its last state
    audit_ok = eq.truncation_audit(result.distribution) if cfg.chain_file is None else True
    # an exact birth-death tail is judged relatively, down to its last level;
    # power iteration's far tail is uncertified, so it keeps an absolute slack
    exact = result.method == "birth_death_exact"
    per_level = np.all([c.values >= tail.values * (1.0 - DOMINANCE_TOL) if exact
                        else c.values + DOMINANCE_TOL >= tail.values for c in curves], axis=0)
    dominated = bool(per_level.all())
    verdict = "PASS" if (dominated and audit_ok) else "FAIL"
    header, rows = _comparison_rows(curves, tail)
    _write_csv(cfg.out_dir / "comparison.csv", header + ["dominated"],
               [row + [str(bool(d))] for row, d in zip(rows, per_level)])
    print(f"verdict: {verdict} (dominated={dominated}, truncation_audit={audit_ok})")
    if not dominated:
        return EXIT_VIOLATION
    if not audit_ok:
        flag = "--trunc" if cfg.n0 is not None else "--grid-width"
        print(f"error: the cut-off set by {flag} is too short: its last 10 states "
              f"carry stationary mass {eq.cutoff_mass(result.distribution):.3e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    return EXIT_PASS


def cmd_example_jump(cfg: argparse.Namespace) -> int:
    config = jp.JumpProcessConfig(drift_alpha=cfg.alpha, horizon_T=cfg.horizon,
                                  n_paths=cfg.paths, seed=cfg.seed)
    samples = cfg.out_dir / "jump_samples.csv"
    part = samples.with_name(samples.name + ".part")
    with contextlib.ExitStack() as files:
        sink = None
        if cfg.dump_samples:
            # written under a temporary name, renamed once every path is in:
            # a run that fails partway leaves no samples file
            files.callback(part.unlink, missing_ok=True)
            fh = files.enter_context(open(part, "w", newline="", encoding="utf-8"))
            fh.write("X_T\n")

            def sink(block):
                # each block as it is summed, in _write_csv's text ("%.17g" is
                # format's ".17g"), one % per 2^16 samples: no row list per path
                for r in range(0, block.size, 1 << 16):
                    rows = tuple(block[r:r + (1 << 16)].tolist())
                    fh.write("%.17g\n" * len(rows) % rows)
        tally = jp.simulate_paths(config, cfg.levels, sink)
        if cfg.dump_samples:
            fh.close()
            part.replace(samples)
    rows = jp.tail_comparison(tally, cfg.alpha)
    _write_csv(cfg.out_dir / "jump_tail.csv",
               ["l", "empirical", "empirical_CI_high", "bound"], rows)
    print(f"mean={tally.mean:.6g} (stationary mean 1/alpha = {1 / cfg.alpha:.6g})")
    dominated = not any(empirical > bound for _, empirical, _, bound in rows)
    print(f"verdict: {'PASS' if dominated else 'FAIL'} (empirical tail vs bound)")
    return EXIT_PASS if dominated else EXIT_VIOLATION


def cmd_sweep(cfg: argparse.Namespace) -> int:
    chain = _build_chain(cfg)
    origin = _origin(cfg, chain)
    ref = cfg.reference_level
    if ref is None:
        ref = 3.0 * float(np.median(cfg.epsilons)) + 2.0 * float(chain.dist[origin].max()) / 3.0
    rows = bounds_mod.epsilon_sweep(chain, origin, cfg.epsilons, ref,
                                    strategy=STRATEGY_MAP[cfg.strategy])
    _write_csv(cfg.out_dir / "sweep.csv",
               ["epsilon", "rho", "envelope_max", "envelope_support_end",
                "alpha", "d0", "bound_at_reference", "note"], rows)
    best = min((r for r in rows if math.isfinite(r[6])), key=lambda r: r[6], default=None)
    if best is None:
        raise InapplicableError(
            f"no eps in --epsilons {cfg.epsilons[0]:g}..{cfg.epsilons[-1]:g} gives a finite "
            f"bound at the reference level {ref:.6g} (sweep.csv notes why)")
    print(f"argmin epsilon: {best[0]} (reference level {ref:.6g})")
    return EXIT_PASS


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3 (invalid input), not argparse's 2 (inapplicable here)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


# Each flag once, with its argparse keywords.
FLAGS = {
    "--chain": dict(dest="chain_file", help="chain-spec JSON file"),
    "--n0": dict(type=int),
    "--k": dict(type=int),
    "--trunc": dict(type=int),
    "--alpha": dict(type=_finite_float, help="autoregression rate, or example-jump's drift"),
    "--grid-step": dict(type=_finite_float, default=0.05),
    "--grid-width": dict(type=_finite_float, default=10.0),
    "--epsilon": dict(type=_above(_finite_float, 0, "epsilon must be")),
    "--origin": dict(type=int),
    "--strategy": dict(choices=sorted(STRATEGY_MAP), default="paper"),
    "--levels": dict(type=_parse_range, help="level grid as a:b:step"),
    "--epsilons": dict(type=_above(_parse_range, 0, "every epsilon must be"),
                       help="sweep epsilon grid as a:b:step"),
    "--ref-level": dict(dest="reference_level", type=_finite_float),
    "--seed": dict(type=int, default=0),
    "--paths": dict(type=int, default=100_000),
    "--horizon": dict(type=_finite_float,
                      help="default: the least integer T >= 25 with exp(-alpha T) < 1e-8"),
    "--dump-samples": dict(action="store_true"),
    "--out": dict(dest="out_dir", type=Path, default=".", help="output directory"),
}
SOURCES = ("--chain", "--n0", "--alpha")   # a command taking all three needs one of them
_CHAIN = (*SOURCES, "--k", "--trunc", "--grid-step", "--grid-width")
_BOUND = ("--epsilon", "--origin", "--strategy", "--levels", "--ref-level")
COMMANDS = {
    "curvature": (cmd_curvature, "write the curvature profile of a chain",
                  (*_CHAIN, "--epsilon", "--origin"), {}),
    "bound": (cmd_bound, "evaluate tail bounds at chosen parameters", _CHAIN + _BOUND, {}),
    "stationary": (cmd_stationary, "write the exact/iterated stationary distribution",
                   _CHAIN, {}),
    "verify": (cmd_verify, "full pipeline with a PASS/FAIL dominance verdict",
               _CHAIN + _BOUND, {}),
    "example-mmk": (cmd_verify, "reproduce the queueing example end to end",
                    ("--n0", "--k", "--trunc", *_BOUND),
                    {"--n0": dict(required=True), "--k": dict(required=True)}),
    "example-ou": (cmd_verify, "reproduce the Gaussian autoregression example end to end",
                   ("--alpha", "--grid-step", "--grid-width", *_BOUND),
                   {"--alpha": dict(default=0.5)}),
    "example-jump": (cmd_example_jump, "reproduce the drift-jump example end to end",
                     ("--alpha", "--horizon", "--paths", "--seed", "--levels", "--dump-samples"),
                     {"--alpha": dict(default=1.0),
                      "--levels": dict(type=_above(_parse_range, 1, "the Poissonian tail "
                                                   "bound needs every level"),
                                       default=(2, 3, 5, 8, 12))}),
    "sweep": (cmd_sweep, "epsilon sweep exposing the rho/curvature trade-off",
              (*_CHAIN, "--origin", "--strategy", "--epsilons", "--ref-level"),
              {"--epsilons": dict(required=True)}),
}
# A flag read only with another, which the command line then needs.
NEEDS = {"--n0": "--k", "--k": "--n0", "--trunc": "--n0", "--grid-step": "--alpha",
         "--grid-width": "--alpha"}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built on first use and kept: one process may call `main` many times."""
    parser = _Parser(prog="ricci-bounds", allow_abbrev=False,
                     description="Coarse Ricci curvature and equilibrium concentration "
                                 "bounds for finite Markov chains.")
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    dests = set()
    for name, (func, summary, flags, own) in COMMANDS.items():
        sub = subparsers.add_parser(name, allow_abbrev=False, help=summary)
        sub.set_defaults(func=func)
        sources = (sub.add_mutually_exclusive_group(required=True)
                   if set(SOURCES) <= set(flags) else sub)
        for flag in (*flags, "--out"):
            into = sources if flag in SOURCES else sub
            dests.add(into.add_argument(flag, **FLAGS[flag] | own.get(flag, {})).dest)
    parser.set_defaults(**dict.fromkeys(dests))   # a flag the command does not take is None
    return parser


def run(cfg: argparse.Namespace) -> int:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return cfg.func(cfg)
    except InapplicableError as exc:
        print(f"inapplicable: {exc}", file=sys.stderr)
        if exc.report:
            _write_json(cfg.out_dir / "infeasibility_report.json",
                        {"error": str(exc), "report": exc.report})
        return EXIT_INAPPLICABLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main(argv=None) -> None:
    parser = build_parser()
    cfg = parser.parse_args(argv)
    given = {arg.partition("=")[0] for arg in (sys.argv[1:] if argv is None else argv)}
    for flag, needed in NEEDS.items():
        if flag in given and getattr(cfg, needed[2:]) is None:
            parser.error(f"{flag} needs {needed}")
    # only the grid search reads --ref-level, but sweep reads it with every strategy
    if "--ref-level" in given and cfg.strategy != "grid" and cfg.command != "sweep":
        parser.error("--ref-level needs --strategy grid")
    sys.exit(run(cfg))


if __name__ == "__main__":
    main()
