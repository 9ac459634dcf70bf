"""Outside-in tracing: wrap the package's public functions where they are looked up.

`Patches` replaces each name in TARGETS at its lookup site (for example
`ricci_bounds.curvature.w1_flow`, which is what `local_curvature` calls) with
a wrapper that records a span: name, start, end, parent, invocation id.
Spans stay in memory and are written out when the run ends.  A target that
is missing at its site stops the run and is named; a target that exists but
is never called is a valid zero reading.

Each thread keeps its own span stack.  A span opened on a thread whose stack
is empty (an `epsilon_sweep` pool worker) is parented to the span open on the
main thread, which is the `bounds.epsilon_sweep` span waiting on the pool.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional


class TraceError(RuntimeError):
    """The trace cannot be trusted: a patch target is missing, or a self time is negative."""


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    invocation: str
    thread: str
    tags: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.invocation = ""
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._main = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        """`fn` recording one span per call; `hook(args, kwargs, result)` adds tags."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (tracer._main[-1] if tracer._main else None)
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = perf_counter()
            tags = {}
            try:
                result = fn(*args, **kwargs)
            except SystemExit as exc:
                tags["exit"] = exc.code
                raise
            except Exception as exc:
                tags["error"] = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                span = Span(span_id, name, start, end, parent, tracer.invocation,
                            threading.current_thread().name, tags)
                tracer.spans.append(span)
            if hook is not None:
                tags.update(hook(args, kwargs, result))
            return result

        return traced


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _states(args, kwargs, chain):
    return {"states": chain.n}


def _pairs(args, kwargs, result):
    import numpy as np
    d = _arg(args, kwargs, 0, "chain").dist
    eps = _arg(args, kwargs, 1, "epsilon")
    return {"pairs": int(np.count_nonzero((d > 0) & (d <= eps + 1e-12))) // 2}


def _admissible(args, kwargs, params):
    return {"admissible": bool(params.admissible)}


def _levels(args, kwargs, curve):
    return {"levels": int(curve.levels.size)}


def _method(args, kwargs, result):
    return {"method": result.method}


def _paths(args, kwargs, result):
    return {"paths": int(result.size)}


# (lookup site, attribute, span name, hook).  One function may have several
# lookup sites; each gets its own wrapper around the same original.
TARGETS = (
    ("ricci_bounds.cli", "main", "cli.main", None),
    ("ricci_bounds.cli", "run", "cli.run", None),
    ("ricci_bounds.cli", "build_mmk_chain", "chain_model.build_mmk_chain", _states),
    ("ricci_bounds.cli", "build_discrete_ou_chain", "chain_model.build_discrete_ou_chain",
     _states),
    ("ricci_bounds.cli", "load_chain", "chain_model.load_chain", _states),
    ("ricci_bounds.chain_model:MetricChain", "check_triangle_inequality",
     "chain_model.check_triangle_inequality", None),
    ("ricci_bounds.cli", "check_epsilon_geodesic", "chain_model.check_epsilon_geodesic", None),
    ("ricci_bounds.bounds", "check_epsilon_geodesic", "chain_model.check_epsilon_geodesic",
     None),
    ("ricci_bounds.cli", "curvature_profile", "curvature.curvature_profile", None),
    ("ricci_bounds.bounds", "curvature_profile", "curvature.curvature_profile", None),
    ("ricci_bounds.curvature", "local_curvature", "curvature.local_curvature", _pairs),
    ("ricci_bounds.curvature", "curvature_envelope", "curvature.curvature_envelope", None),
    ("ricci_bounds.curvature", "attraction_rho", "curvature.attraction_rho", None),
    ("ricci_bounds.curvature", "subgaussian_s2", "curvature.subgaussian_s2", None),
    ("ricci_bounds.curvature", "w1_flow", "transport.w1_flow", None),
    ("ricci_bounds.curvature", "w1_line", "transport.w1_line", None),
    ("ricci_bounds.curvature", "w1_to_point", "transport.w1_to_point", None),
    ("ricci_bounds.bounds", "search_params", "bounds.search_params", None),
    ("ricci_bounds.bounds", "admissibility", "bounds.admissibility", _admissible),
    ("ricci_bounds.bounds", "theorem1_params", "bounds.theorem1_params", None),
    ("ricci_bounds.bounds", "bound_princ", "bounds.bound_princ", _levels),
    ("ricci_bounds.bounds", "bound_theorem1", "bounds.bound_theorem1", _levels),
    ("ricci_bounds.bounds", "epsilon_sweep", "bounds.epsilon_sweep", None),
    ("ricci_bounds.equilibrium", "stationary_birth_death", "equilibrium.stationary_birth_death",
     _method),
    ("ricci_bounds.equilibrium", "stationary_power", "equilibrium.stationary_power", _method),
    ("ricci_bounds.equilibrium", "empirical_tail", "equilibrium.empirical_tail", None),
    ("ricci_bounds.equilibrium", "truncation_audit", "equilibrium.truncation_audit", None),
    ("ricci_bounds.jump_process", "simulate_paths", "jump_process.simulate_paths", _paths),
    ("ricci_bounds.jump_process", "tail_comparison", "jump_process.tail_comparison", None),
)


def _site(spec: str):
    module, _, attr = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, attr) if attr else obj


class Patches:
    """Context manager installing every TARGETS wrapper and restoring the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved = []

    def __enter__(self):
        try:
            for site_spec, attr, name, hook in TARGETS:
                try:
                    site = _site(site_spec)
                    original = site.__dict__[attr]
                except (ImportError, AttributeError, KeyError) as exc:
                    raise TraceError(f"patch target {site_spec}.{attr} is missing "
                                     f"({type(exc).__name__}: {exc})") from None
                if not callable(original):
                    raise TraceError(f"patch target {site_spec}.{attr} is not callable")
                self._saved.append((site, attr, original))
                setattr(site, attr, self.tracer.wrap(name, original, hook))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc):
        while self._saved:
            site, attr, original = self._saved.pop()
            setattr(site, attr, original)
        return False


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one pass
# ---------------------------------------------------------------------------

LAYERS = ("chain_model", "transport", "curvature", "bounds", "equilibrium",
          "jump_process", "cli")

BUILDERS = ("chain_model.build_mmk_chain", "chain_model.build_discrete_ou_chain",
            "chain_model.load_chain")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span duration minus the part of it that child spans cover; never negative."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        own = (s.end - s.start) - _covered(children[s.id])
        if own < -1e-9:
            raise TraceError(f"negative self time {own:.3e} s for span {s.name} "
                             f"(id {s.id}, invocation {s.invocation})")
        out[s.id] = own
    return out


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Span-derived per-layer metrics of one pass (see bench/README.md)."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(*names):
        return sum(s.end - s.start for n in names for s in by_name[n])

    def count(name):
        return len(by_name[name])

    def tag_sum(name, tag):
        return sum(s.tags.get(tag, 0) for s in by_name[name])

    built = [s.tags["states"] for n in BUILDERS for s in by_name[n] if "states" in s.tags]
    states = max(built, default=0)
    flows = [s.end - s.start for s in by_name["transport.w1_flow"]]
    local_s = total("curvature.local_curvature")
    pairs = tag_sum("curvature.local_curvature", "pairs")
    checked = count("bounds.admissibility")
    simulate_s = total("jump_process.simulate_paths")
    m = {
        "chain_model.build_s": total(*BUILDERS),
        "chain_model.geodesic_s": total("chain_model.check_epsilon_geodesic"),
        "chain_model.geodesic_calls": count("chain_model.check_epsilon_geodesic"),
        "chain_model.states": states,
        "chain_model.dense_mb": 16.0 * states * states / 2**20,
        "transport.w1_flow_calls": len(flows),
        "transport.w1_flow_s": sum(flows),
        "transport.w1_flow_us": statistics.median(flows) * 1e6 if flows else 0.0,
        "transport.w1_line_calls": count("transport.w1_line"),
        "curvature.local_s": local_s,
        "curvature.pairs": pairs,
        "curvature.pairs_per_s": pairs / local_s if local_s > 0 else 0.0,
        "curvature.envelope_s": total("curvature.curvature_envelope"),
        "curvature.s2_s": total("curvature.subgaussian_s2"),
        "bounds.search_s": total("bounds.search_params"),
        "bounds.admissibility_calls": checked,
        "bounds.admissible_ratio": (tag_sum("bounds.admissibility", "admissible") / checked
                                    if checked else 0.0),
        "bounds.sweep_s": total("bounds.epsilon_sweep"),
        "bounds.curve_s": total("bounds.bound_princ", "bounds.bound_theorem1"),
        "bounds.levels": (tag_sum("bounds.bound_princ", "levels")
                          + tag_sum("bounds.bound_theorem1", "levels")),
        "equilibrium.stationary_s": total("equilibrium.stationary_birth_death",
                                          "equilibrium.stationary_power"),
        "equilibrium.tail_s": total("equilibrium.empirical_tail"),
        "jump_process.simulate_s": simulate_s,
        "jump_process.paths_per_s": (tag_sum("jump_process.simulate_paths", "paths")
                                     / simulate_s if simulate_s > 0 else 0.0),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(own[s.id] for s in spans if s.layer == layer)
    return m


def stationary_methods(spans: List[Span]) -> List[str]:
    """The method tag of every stationary solve that returned, in call order."""
    return [s.tags["method"] for s in spans if "method" in s.tags]
