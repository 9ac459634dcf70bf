"""Command-line front end: build/load chain -> profile -> bounds -> ground truth.

Commands
--------
curvature     write the curvature profile of a chain
bound         evaluate tail bounds at chosen parameters
stationary    write the exact/iterated stationary distribution
verify        full pipeline with a PASS/FAIL dominance verdict
example-mmk   reproduce the queueing example end to end
example-ou    reproduce the Gaussian autoregression example end to end
example-jump  reproduce the drift-jump example end to end
sweep         epsilon sweep exposing the rho/curvature trade-off

Each command reads its configuration from the parsed argparse namespace;
the parser's option names and defaults are the only copy of them.  Each
command decides its verdict and exit code here, from the rows it writes.

Exit status: 0 all requested checks pass, 1 a bound was violated (in
`verify`, a bound under (1 - DOMINANCE_TOL) times an exact birth-death tail
at some level, or more than DOMINANCE_TOL under a power-iteration tail),
2 the theorems are inapplicable (no admissible parameters / rho <= 0; an
eps at which the chain is not eps-geodesic, which asks for a larger eps,
or one past every distance from the origin, which asks for a smaller one;
for `sweep`, no eps in the grid gives a finite bound at the reference
level, and sweep.csv is still written),
3 invalid input (a malformed or non-finite command line, a rejected chain
file, an --origin outside 0..n-1, a --trunc / --grid-width cut-off that
leaves mass past the last state, or a size over its budget), 4 internal
error, a failed transport certificate included.
Plot rendering is out of scope: every figure-equivalent output is a
documented CSV.
"""
from __future__ import annotations

import argparse
import csv
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
    """Parse 'a:b:step' into an inclusive grid."""
    try:
        a, b, step = (float(tok) for tok in spec.split(":"))
    except ValueError as exc:
        raise ChainFormatError(f"bad range {spec!r}, expected a:b:step") from exc
    if not all(map(math.isfinite, (a, b, step))) or step <= 0 or b < a:
        raise ChainFormatError(f"bad range {spec!r}: need finite a <= b and step > 0")
    if (b - a) / step >= MAX_RANGE_POINTS:
        raise ChainFormatError(f"range {spec!r} has more points than the budget "
                               f"MAX_RANGE_POINTS = {MAX_RANGE_POINTS}")
    return np.arange(a, b + step * 1e-9, step)


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
    given = [flag for flag, value in (("--chain", cfg.chain_file), ("--n0", cfg.n0),
                                      ("--alpha", cfg.alpha)) if value is not None]
    if len(given) > 1:
        raise ChainFormatError(f"give one chain source, not {' and '.join(given)}")
    if cfg.chain_file is not None:
        return load_chain(cfg.chain_file)
    if cfg.n0 is not None:
        if cfg.k is None:
            raise ChainFormatError("--n0 requires --k")
        trunc = cfg.trunc if cfg.trunc is not None else _auto_truncation(cfg.n0, cfg.k)
        return build_mmk_chain(cfg.n0, cfg.k, trunc)
    if cfg.alpha is not None:
        return build_discrete_ou_chain(cfg.alpha, cfg.grid_width, cfg.grid_step)
    raise ChainFormatError(
        "no chain source: give --chain FILE, or --n0/--k, or --alpha/--grid-width/--grid-step")


def _default_epsilon(cfg: argparse.Namespace, chain: MetricChain) -> float:
    if cfg.epsilon is not None:
        return cfg.epsilon
    if cfg.n0 is not None:
        return float(max(1, min(round(np.sqrt(cfg.n0)), cfg.k - cfg.n0)))
    if chain.gaussian_variance is not None and cfg.alpha is not None:
        # scale that balances rho against d0 for the Gaussian autoregression
        return float((np.sqrt(2 * np.log(2) * cfg.alpha) + np.sqrt(8 / np.pi))
                     / cfg.alpha)
    return float(np.min(chain.dist[chain.dist > 0]))


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
    if cfg.levels:
        return _parse_range(cfg.levels)
    lmax = float(chain.dist[profile.origin].max())
    if lmax <= d0:
        raise InadmissibleParamsError(
            f"d0 = {d0:.6g} is beyond the chain's radius {lmax:.6g}; "
            "nothing to bound")
    return np.linspace(d0 + 1e-9, lmax, 80)


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
    rows = []
    for c in curves:
        for l, v, clamped in zip(c.levels, c.values, c.clamped()):
            rows.append([l, v, clamped, c.kind])
    _write_csv(path, ["l", "bound_raw", "bound_clamped", "kind"], rows)


def _comparison_rows(curves, tail):
    header = ["l"]
    for c in curves:
        header += [f"{c.kind}_raw", f"{c.kind}_clamped"]
    header.append("empirical")
    clamped = [c.clamped() for c in curves]
    rows = []
    for i, l in enumerate(curves[0].levels):
        row = [l]
        for c, cl in zip(curves, clamped):
            row += [c.values[i], cl[i]]
        rows.append(row + [tail.values[i]])
    return header, rows


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


def cmd_example_mmk(cfg: argparse.Namespace) -> int:
    if cfg.n0 is None or cfg.k is None:
        raise ChainFormatError("example-mmk needs --n0 and --k")
    return cmd_verify(cfg)


def cmd_example_ou(cfg: argparse.Namespace) -> int:
    if cfg.alpha is None:
        cfg.alpha = 0.5
    if cfg.epsilon is None:
        cfg.epsilon = 3.0
    return cmd_verify(cfg)


def cmd_example_jump(cfg: argparse.Namespace) -> int:
    alpha = cfg.alpha if cfg.alpha is not None else 1.0
    config = jp.JumpProcessConfig(drift_alpha=alpha, horizon_T=cfg.horizon,
                                  n_paths=cfg.paths, seed=cfg.seed)
    samples = jp.simulate_paths(config)
    levels = _parse_range(cfg.levels) if cfg.levels else np.array([2.0, 3.0, 5.0, 8.0, 12.0])
    rows = jp.tail_comparison(samples, levels, alpha)
    _write_csv(cfg.out_dir / "jump_tail.csv",
               ["l", "empirical", "empirical_CI_high", "bound"], rows)
    if cfg.dump_samples:
        _write_csv(cfg.out_dir / "jump_samples.csv", ["X_T"],
                   [[v] for v in samples])
    mean = float(samples.mean())
    print(f"mean={mean:.6g} (stationary mean 1/alpha = {1 / alpha:.6g})")
    dominated = not any(empirical > bound for _, empirical, _, bound in rows)
    print(f"verdict: {'PASS' if dominated else 'FAIL'} (empirical tail vs bound)")
    return EXIT_PASS if dominated else EXIT_VIOLATION


def cmd_sweep(cfg: argparse.Namespace) -> int:
    chain = _build_chain(cfg)
    origin = _origin(cfg, chain)
    if not cfg.epsilons:
        raise ChainFormatError("sweep needs --epsilons a:b:step")
    eps_list = _parse_range(cfg.epsilons)
    ref = cfg.reference_level
    if ref is None:
        ref = 3.0 * float(np.median(eps_list)) + 2.0 * float(chain.dist[origin].max()) / 3.0
    rows = bounds_mod.epsilon_sweep(chain, origin, eps_list, ref,
                                    strategy=STRATEGY_MAP[cfg.strategy])
    _write_csv(cfg.out_dir / "sweep.csv",
               ["epsilon", "rho", "envelope_max", "envelope_support_end",
                "alpha", "d0", "bound_at_reference", "note"], rows)
    best = min((r for r in rows if math.isfinite(r[6])), key=lambda r: r[6], default=None)
    if best is None:
        raise InapplicableError(
            f"no eps in --epsilons {cfg.epsilons} gives a finite bound at the "
            f"reference level {ref:.6g} (sweep.csv notes why)")
    print(f"argmin epsilon: {best[0]} (reference level {ref:.6g})")
    return EXIT_PASS


COMMANDS = {
    "curvature": cmd_curvature,
    "bound": cmd_bound,
    "stationary": cmd_stationary,
    "verify": cmd_verify,
    "example-mmk": cmd_example_mmk,
    "example-ou": cmd_example_ou,
    "example-jump": cmd_example_jump,
    "sweep": cmd_sweep,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3 (invalid input), not argparse's 2 (inapplicable here)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ricci-bounds",
        description="Coarse Ricci curvature and equilibrium concentration bounds "
                    "for finite Markov chains.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--chain", dest="chain_file", help="chain-spec JSON file")
    parser.add_argument("--n0", type=int)
    parser.add_argument("--k", type=int)
    parser.add_argument("--trunc", type=int)
    parser.add_argument("--alpha", type=_finite_float,
                        help="autoregression rate (example-ou) or drift rate (example-jump)")
    parser.add_argument("--grid-step", type=_finite_float, default=0.05)
    parser.add_argument("--grid-width", type=_finite_float, default=10.0)
    parser.add_argument("--epsilon", type=_finite_float)
    parser.add_argument("--origin", type=int)
    parser.add_argument("--strategy", choices=sorted(STRATEGY_MAP), default="paper")
    parser.add_argument("--levels", help="level grid as a:b:step")
    parser.add_argument("--epsilons", help="sweep epsilon grid as a:b:step")
    parser.add_argument("--ref-level", dest="reference_level", type=_finite_float)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--paths", type=int, default=100_000)
    parser.add_argument("--horizon", type=_finite_float,
                        help="default: 25, or the least integer T with exp(-alpha T) < 1e-8")
    parser.add_argument("--dump-samples", action="store_true")
    parser.add_argument("--out", dest="out_dir", type=Path, default=".",
                        help="output directory")
    return parser


def run(cfg: argparse.Namespace) -> int:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return COMMANDS[cfg.command](cfg)
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
    sys.exit(run(build_parser().parse_args(argv)))


if __name__ == "__main__":
    main()
