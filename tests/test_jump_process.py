import hashlib
import math
import tracemalloc
import unittest.mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricci_bounds import (JumpProcessConfig, poissonian_tail_bound,
                          simulate_paths, tail_comparison, transform_I)
from ricci_bounds import jump_process
from ricci_bounds.jump_process import MAX_PATHS, clopper_pearson_upper

from conftest import sampled_paths
from dickman import dickman_tail, transform_I_quadrature
from reference_oracles import (empirical_tail_probs, numpy_ptrs_attempt, ptrs_attempt,
                               random_loggam, simulate_paths_terms_copied,
                               tail_shape_witness)


# ----------------------------------------------------------------- config

def test_config_rejects_short_horizon():
    with pytest.raises(ValueError, match="horizon"):
        JumpProcessConfig(drift_alpha=1.0, horizon_T=5.0, n_paths=10, seed=0)


def test_default_horizon_is_the_shortest_that_forgets_the_start():
    assert JumpProcessConfig(1.0, None, 10, 0).horizon_T == 25.0
    assert JumpProcessConfig(0.5, None, 10, 0).horizon_T == 37.0   # exp(-18.5) < 1e-8 < exp(-18)
    assert JumpProcessConfig(0.7368, None, 10, 0).horizon_T == 26.0
    with pytest.raises(ValueError, match="exceeds the budget 5000000"):
        JumpProcessConfig(1e-300, None, 10, 0)


def test_config_rejects_bad_alpha():
    with pytest.raises(ValueError):
        JumpProcessConfig(drift_alpha=0.0, horizon_T=25.0, n_paths=10, seed=0)


def test_config_holds_the_path_budget():
    # the config allocates nothing, and simulate_paths keeps no per-path array:
    # the budget caps the run time, which grows with the paths
    JumpProcessConfig(drift_alpha=1.0, horizon_T=25.0, n_paths=MAX_PATHS, seed=0)
    with pytest.raises(ValueError, match=f"paths exceed the budget MAX_PATHS = {MAX_PATHS}$"):
        JumpProcessConfig(drift_alpha=1.0, horizon_T=25.0, n_paths=MAX_PATHS + 1, seed=0)


# ------------------------------------------------------------- simulation

def test_simulation_deterministic():
    cfg = JumpProcessConfig(drift_alpha=1.0, horizon_T=20.0, n_paths=5000, seed=42)
    a, _ = sampled_paths(cfg)
    b, _ = sampled_paths(cfg)
    np.testing.assert_array_equal(a, b)


def test_simulation_terms_in_place_are_the_copied_terms(monkeypatch):
    # six chunks of 833 paths (1000 at horizon 25, so 1000 * 25 // 30 at 30),
    # the last one short: the in-place terms give the same bits
    monkeypatch.setattr(jump_process, "_CHUNK", 1000)
    cfg = JumpProcessConfig(drift_alpha=0.7, horizon_T=30.0, n_paths=4500, seed=7)
    expected = simulate_paths_terms_copied(cfg, chunk=833)
    assert np.array_equal(sampled_paths(cfg)[0].view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("horizon", [None, 20.0, 25.0])
def test_chunk_is_fixed_up_to_horizon_25(monkeypatch, horizon):
    # the stream of a default alpha = 1 run is the fixed-chunk stream
    monkeypatch.setattr(jump_process, "_CHUNK", 1000)
    cfg = JumpProcessConfig(drift_alpha=1.0, horizon_T=horizon, n_paths=4500, seed=7)
    expected = simulate_paths_terms_copied(cfg, chunk=1000)
    assert np.array_equal(sampled_paths(cfg)[0].view(np.int64), expected.view(np.int64))


def _chunk_jump_counts(cfg, chunk):
    # each chunk's per-path jump counts, replayed from the simulation's stream
    rng = np.random.default_rng(cfg.seed)
    counts = []
    for done in range(0, cfg.n_paths, chunk):
        counts.append(rng.poisson(cfg.horizon_T, size=min(chunk, cfg.n_paths - done)))
        rng.random(int(counts[-1].sum()))
    return counts


def test_reused_terms_buffer_keeps_the_copied_bits(monkeypatch):
    # six chunks of 1000 paths whose jump counts grow past the kept buffer
    # (chunks 3 and 5) and fall below it (chunks 2, 4 and 6)
    monkeypatch.setattr(jump_process, "_CHUNK", 1000)
    cfg = JumpProcessConfig(drift_alpha=1.0, horizon_T=25.0, n_paths=6000, seed=3)
    sizes = [int(c.sum()) for c in _chunk_jump_counts(cfg, 1000)]
    capacity = np.maximum.accumulate(sizes)
    assert list(np.flatnonzero(np.diff(capacity) > 0) + 1) == [2, 4]
    assert list(np.flatnonzero(sizes < capacity)) == [1, 3, 5]
    expected = simulate_paths_terms_copied(cfg, chunk=1000)
    assert np.array_equal(sampled_paths(cfg)[0].view(np.int64), expected.view(np.int64))


def test_chunk_without_jumps_is_exact_zeros_and_keeps_the_stream(monkeypatch):
    # ten chunks of 10 paths with jump counts 0, 1, 0, ..., 0: the first
    # chunk sums nothing from the empty buffer, the second grows it to one term
    monkeypatch.setattr(jump_process, "_CHUNK", 10)
    cfg = JumpProcessConfig(drift_alpha=1e5, horizon_T=1e-3, n_paths=100, seed=34)
    counts = np.concatenate(_chunk_jump_counts(cfg, 10))
    assert [int(c.sum()) for c in counts.reshape(10, 10)] == [0, 1] + [0] * 8
    x, _ = sampled_paths(cfg)
    assert np.array_equal(x.view(np.int64),
                          simulate_paths_terms_copied(cfg, chunk=10).view(np.int64))
    assert np.all(x[counts == 0] == 0.0) and np.all(x[counts > 0] > 0.0)


# (alpha, horizon, paths, seed): six chunks of 833 paths with about 30 jumps
# each, the last chunk short; and five chunks of 1000 paths with about one
# jump each, so that the zero-jump paths after a jump start a block
_BLOCK_CASES = [(0.7, 30.0, 4500, 7), (1e5, 1e-3, 5000, 34)]


@pytest.mark.parametrize("block", [1, 7, 64, 10 ** 6])
@pytest.mark.parametrize("alpha, horizon, n_paths, seed", _BLOCK_CASES)
def test_row_blocks_keep_the_copied_bits(monkeypatch, alpha, horizon, n_paths, seed, block):
    monkeypatch.setattr(jump_process, "_CHUNK", 1000)
    monkeypatch.setattr(jump_process, "_BLOCK", block)
    cfg = JumpProcessConfig(alpha, horizon, n_paths, seed)
    chunk = min(1000, int(1000 * 25 // horizon))
    expected = simulate_paths_terms_copied(cfg, chunk=chunk)
    assert np.array_equal(sampled_paths(cfg)[0].view(np.int64), expected.view(np.int64))


def test_row_block_cases_hold_long_paths_and_zero_jump_paths_at_a_cut():
    # what test_row_blocks_keep_the_copied_bits relies on its cases to hold
    long_run = _chunk_jump_counts(JumpProcessConfig(*_BLOCK_CASES[0]), 833)
    assert [c.size for c in long_run] == [833] * 5 + [335]
    assert max(int(c.max()) for c in long_run) > 7      # past blocks of 1 and 7
    assert max(int(c.sum()) for c in long_run) < 10 ** 6   # one block holds a chunk
    zero_jump_at_cut = 0
    for counts in _chunk_jump_counts(JumpProcessConfig(*_BLOCK_CASES[1]), 1000):
        indptr = np.concatenate(([0], np.cumsum(counts)))
        cuts = np.searchsorted(indptr, np.arange(1, indptr[-1]))   # block 1
        zero_jump_at_cut += int(np.count_nonzero(counts[cuts] == 0))
    assert zero_jump_at_cut > 0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), alpha_horizon=st.floats(18.5, 60.0),
       horizon=st.floats(1e-3, 60.0), n_paths=st.integers(1, 2500),
       block=st.integers(1, 400))
def test_row_blocks_keep_the_copied_bits_everywhere(seed, alpha_horizon, horizon,
                                                    n_paths, block):
    # alpha * horizon past -ln START_TOL = 18.42, so the config accepts it
    cfg = JumpProcessConfig(alpha_horizon / horizon, horizon, n_paths, seed)
    with unittest.mock.patch.object(jump_process, "_CHUNK", 1000), \
            unittest.mock.patch.object(jump_process, "_BLOCK", block):
        x, _ = sampled_paths(cfg)
    expected = simulate_paths_terms_copied(cfg, chunk=min(1000, int(1000 * 25 // horizon)))
    assert np.array_equal(x.view(np.int64), expected.view(np.int64))


# ------------------------------------------------------- Poisson draws

def _draw(x: float) -> float:
    """The double a generator draws nearest x: a multiple of 2**-53."""
    return round(x * 2.0 ** 53) / 2.0 ** 53


# Pairs whose log test np.log decides the other way than libm's log (numpy
# 2.4.6's AVX-512 log on a Xeon: an ulp apart), one accepted and one refused
# per lam; where the two logs agree, they are margin pairs like any other
_NP_LOG_FLIPS = {
    10.0: [(0.9525248041340223, 0.7795558476509671), (0.19247734622437074, 0.9033849218788463)],
    25.0: [(0.0908811635272545, 0.8697045871905638), (0.9201159859976663, 0.7378055110263164)],
    1234.5: [(0.07485882647107855, 0.9782151012993462),
             (0.09292037006167697, 0.9826063364026262)],
    5e6: [(0.11229283213868979, 0.9796751369277886), (0.8628725454242374, 0.9532260241058204)],
}


def _chosen_pairs(lam):
    """Pairs (u, v) on the edges of numpy's PTRS loop at lam."""
    p = jump_process._PoissonPTRS(lam)
    tiny = 2.0 ** -53
    pairs = [(0.0, 0.0), (0.0, 0.5),                       # us = 0, k = -inf
             (1 - tiny, 0.0), (1 - tiny, tiny), (1 - tiny, 0.5), (tiny, 0.0),
             (_draw(0.01), _draw(0.005)), (_draw(0.99), _draw(0.005)),   # V <= us < 0.013
             (_draw(0.01), _draw(0.0125)), (_draw(0.99), _draw(0.0125)),
             (_draw(0.013), 0.5), (_draw(0.07), 0.25), (_draw(0.93), 0.25)]
    # V at vr (on the draw grid from lam = 15 on) and the draws around it
    for v in (_draw(p.vr - tiny), _draw(p.vr), _draw(p.vr + tiny)):
        pairs += [(0.5, v), (0.75, v), (_draw(0.06), v)]
    # V within the log-test margin of its boundary, on both sides of it
    margin = []
    for u in map(_draw, (0.02, 0.05, 0.95, 0.98)):
        us = 0.5 - abs(u - 0.5)
        k = math.floor((2 * p.a / us + p.b) * (u - 0.5) + lam + 0.43)
        if k < 0:
            continue
        log_v = (-lam + k * p.loglam - random_loggam(k + 1) - p.log_invalpha
                 + math.log(p.a / (us * us) + p.b))
        if log_v < 0.0:
            m = round(math.exp(log_v) * 2.0 ** 53)
            margin += [(u, (m + d) / 2.0 ** 53) for d in range(-3, 4)]
    return pairs, margin + _NP_LOG_FLIPS[lam]


@pytest.mark.parametrize("lam", [10.0, 25.0, 1234.5, 5e6])
def test_ptrs_step_is_numpys_loop_on_chosen_pairs(lam):
    pairs, margin = _chosen_pairs(lam)
    # what the cases rely on: margin pairs that the log test settles both ways
    p = jump_process._PoissonPTRS(lam)
    gaps = [math.log(v) + p.log_invalpha - math.log(p.a / (us * us) + p.b)
            - (-lam + k * p.loglam - random_loggam(k + 1))
            for u, v in margin
            for us in [0.5 - abs(u - 0.5)]
            for k in [math.floor((2 * p.a / us + p.b) * (u - 0.5) + lam + 0.43)]]
    assert all(abs(g) <= jump_process._LOG_MARGIN for g in gaps)
    assert min(gaps) <= 0.0 < max(gaps)
    pairs += margin
    k, accepted = p.step(np.array(pairs).ravel())
    for (u, v), kj, ok in zip(pairs, k.tolist(), accepted.tolist()):
        want = ptrs_attempt(lam, u, v)
        assert want == numpy_ptrs_attempt(lam, u, v), (u, v)
        assert (int(kj) if ok else None) == want, (u, v)


@pytest.mark.parametrize("lam", [25.0, 1234.5, 5e6])
def test_ptrs_fast_test_takes_v_at_vr(monkeypatch, lam):
    # numpy's fast test is V <= vr.  Its log test accepts V = vr too (vr bounds
    # a square inside the acceptance region), so the edge shows only with the
    # log test refusing every pair.
    p = jump_process._PoissonPTRS(lam)
    assert _draw(p.vr) == p.vr
    monkeypatch.setattr(jump_process._PoissonPTRS, "_lhs",
                        lambda self, v, us, log: np.full(v.size, np.inf))
    above = math.nextafter(p.vr, 1.0)
    _, accepted = p.step(np.array([0.5, p.vr, 0.75, p.vr, 0.5, above, 0.75, above]))
    assert accepted.tolist() == [True, True, False, False]


@settings(max_examples=40, deadline=None)
@given(lam=st.one_of(st.sampled_from([10.0, 25.0]), st.floats(10.0, 5e6)),
       size=st.integers(1, 40_000), seed=st.integers(0, 2 ** 64 - 1),
       half_draw=st.booleans(),
       bit_generator=st.sampled_from([np.random.PCG64, np.random.MT19937, np.random.SFC64]))
def test_ptrs_fill_draws_what_rng_poisson_draws(lam, size, seed, half_draw, bit_generator):
    # up to three pieces of the stream; a uint32 draw first leaves half of a
    # 64-bit draw buffered, which the draws after the counts must still see.
    # The streams are compared by what they draw next: MT19937's state holds
    # an array, which == does not compare as a whole.
    want_rng, rng = (np.random.Generator(bit_generator(seed)) for _ in range(2))
    if half_draw:
        for r in (want_rng, rng):
            r.integers(0, 2 ** 32, dtype=np.uint32)
    want = want_rng.poisson(lam, size)
    got = np.empty(size, dtype=np.int32)
    jump_process._PoissonPTRS(lam).fill(rng, got)
    assert np.array_equal(got, want)
    def next_draws(r):
        return r.integers(0, 2 ** 32, 3, dtype=np.uint32).tolist(), r.random(3).tolist()

    assert next_draws(rng) == next_draws(want_rng)


@pytest.mark.parametrize("horizon", [9.99, 10.0, 25.0])
def test_simulation_draws_rng_poissons_counts_on_both_sides_of_10(monkeypatch, horizon):
    # numpy multiplies uniforms below lam = 10, and simulate_paths leaves it to
    # rng.poisson there; from 10 on, the bulk PTRS draws give its bits
    monkeypatch.setattr(jump_process, "_CHUNK", 1000)
    cfg = JumpProcessConfig(2.0, horizon, 3500, 11)
    expected = simulate_paths_terms_copied(cfg, chunk=1000)
    assert np.array_equal(sampled_paths(cfg)[0].view(np.int64), expected.view(np.int64))


def test_readme_jump_samples_keep_their_bits():
    # the seeded samples behind example-jump's default run, and the mean it prints
    x, tally = sampled_paths(JumpProcessConfig(1.0, None, 1_000_000, 7))
    assert x.sum().hex() == "0x1.e8830a2b6f26dp+19"
    assert hashlib.sha256(x.tobytes()).hexdigest() == (
        "2889f3466295c824dd96f0cb7794622bf2417c589f05c734b6d601801cf2adcc")
    assert f"{tally.mean:.6g}" == "1.00047"


def test_simulation_peak_memory_is_one_chunk_and_one_block():
    # 0.8 MB of a chunk's int32 row pointers, into which its Poisson counts are
    # drawn and summed in place (rng.poisson's int64 counts took 1.6 MB more),
    # about 1.5 MB of one block's terms and zero column index, and about 1.2 MB
    # of scratch in one fill of a chunk's counts (one piece of the Poisson
    # draws at a time): 4.0 MB measured.  The 8 MB of one
    # float64 per path, which the samples took when they were kept, would pass 6 MB
    cfg = JumpProcessConfig(1.0, None, 1_000_000, 7)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        tally = simulate_paths(cfg, [2.0, 3.0, 5.0, 8.0, 12.0])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert tally.size == 1_000_000
    assert peak <= 6e6, peak


@pytest.mark.parametrize("n_paths", [1, 999, 4500])
def test_streamed_counts_and_mean_are_those_of_the_joined_samples(monkeypatch, n_paths):
    # chunks of 833 paths, the last one short; the levels are unsorted and
    # repeat, one of them is a sample value and one is 0.0, which the exact
    # zeros of the zero-jump paths reach
    monkeypatch.setattr(jump_process, "_CHUNK", 1000)
    cfg = JumpProcessConfig(0.7, 30.0, n_paths, 7)
    x, _ = sampled_paths(cfg)
    levels = [3.0, float(x[n_paths // 2]), 0.5, 0.0, 3.0, 1e3]
    _, tally = sampled_paths(cfg, levels)
    assert tally.size == n_paths
    assert tally.levels.tolist() == levels
    assert tally.counts.tolist() == [int(np.count_nonzero(x >= l)) for l in levels]
    assert tally.counts[1] >= 1
    # the running sum adds each block's sum in path order: the same value up
    # to the rounding of the block sums
    assert tally.mean == pytest.approx(math.fsum(x.tolist()) / n_paths, rel=1e-14, abs=0)


def test_chunk_jump_counts_fit_int32():
    # simulate_paths holds row pointers as int32.  The horizon budget keeps
    # chunk * horizon, a chunk's mean Poisson jump count, at or below
    # _CHUNK * _HORIZON; ten standard deviations past it stay below 2**31 - 1.
    budget = jump_process._CHUNK * jump_process._HORIZON
    for horizon in (1e-3, 1.0, 24.5, 25.0, 26.0, 37.0, 1e3, 12_345.6, budget / 3, budget):
        JumpProcessConfig(20.0 / horizon, horizon, 1, 0)   # exp(-20) < START_TOL
        chunk = min(jump_process._CHUNK, int(budget // horizon))
        assert chunk >= 1 and chunk * horizon <= budget
    with pytest.raises(ValueError, match="exceeds the budget"):
        JumpProcessConfig(1.0, math.nextafter(budget, math.inf), 1, 0)
    assert budget + 10 * math.sqrt(budget) < np.iinfo(np.int32).max


def test_zero_jump_paths_are_exactly_zero():
    cfg = JumpProcessConfig(drift_alpha=50.0, horizon_T=1.0, n_paths=20_000, seed=3)
    x, _ = sampled_paths(cfg)
    frac_zero = float((x == 0.0).mean())
    assert frac_zero == pytest.approx(math.exp(-1.0), abs=0.01)


def test_strong_drift_kills_the_mean():
    cfg = JumpProcessConfig(drift_alpha=50.0, horizon_T=1.0, n_paths=50_000, seed=5)
    x, _ = sampled_paths(cfg)
    # E[X_T] = (1 - exp(-alpha T)) / alpha = 0.02
    assert x.mean() <= 0.05


def test_mean_matches_stationary_value():
    cfg = JumpProcessConfig(drift_alpha=1.0, horizon_T=20.0, n_paths=100_000, seed=9)
    x, _ = sampled_paths(cfg)
    se = x.std() / math.sqrt(x.size)
    assert abs(x.mean() - 1.0) <= 3 * se


# -------------------------------------------------------------- transform

def test_transform_I_at_zero():
    assert transform_I(0.0) == 0.0


def test_transform_I_series_vs_quadrature():
    assert transform_I(1.0) == pytest.approx(1.3179021514544038, abs=1e-12)
    for lam in (0.5, 1.0, 2.0, 5.0, -1.0, -3.0):
        assert abs(transform_I(lam) - transform_I_quadrature(lam)) <= 1e-9


def test_transform_I_asymptotics():
    lam = 30.0
    assert transform_I(lam) / (math.exp(lam) / lam) == pytest.approx(1.0, abs=0.05)


# ------------------------------- the stationary Laplace transform G = exp(I/alpha)

def test_G_normalization():
    assert math.exp(transform_I(0.0) / 1.0) == 1.0


def test_G_derivative_at_zero_gives_mean():
    alpha = 1.0
    h = 1e-6
    deriv = (math.exp(transform_I(h) / alpha) - math.exp(transform_I(-h) / alpha)) / (2 * h)
    assert deriv == pytest.approx(1.0 / alpha, rel=1e-6)


def test_G_moments_match_monte_carlo():
    alpha = 1.0
    cfg = JumpProcessConfig(drift_alpha=alpha, horizon_T=20.0,
                            n_paths=200_000, seed=11)
    x, _ = sampled_paths(cfg)
    h = 1e-5
    log_g = [transform_I(lam) / alpha for lam in (-h, 0.0, h)]
    mean = (log_g[2] - log_g[0]) / (2 * h)
    var = (log_g[2] - 2 * log_g[1] + log_g[0]) / h ** 2
    se_mean = x.std() / math.sqrt(x.size)
    assert abs(x.mean() - mean) <= 3 * se_mean
    centered = (x - x.mean()) ** 2
    se_var = centered.std() / math.sqrt(x.size)
    assert abs(x.var() - var) <= 3 * se_var


def test_G_T_converges_to_G():
    # log G_T = (I(lambda) - I(lambda e^{-alpha T}))/alpha at alpha = 1, T = 20
    val_t = transform_I(1.0) - transform_I(1.0 * math.exp(-20.0))
    val = transform_I(1.0)
    assert abs(math.exp(val_t - val) - 1.0) <= 1e-6


# ------------------------------------------------------------- tail bound

def test_poissonian_bound_small_for_large_level():
    assert poissonian_tail_bound(10.0, alpha=1.0) < 1.0


def test_poissonian_bound_decreasing():
    grid = np.linspace(2.0, 50.0, 97)
    vals = [poissonian_tail_bound(float(l), alpha=1.0) for l in grid]
    assert np.all(np.diff(vals) < 0)


def test_poissonian_bound_strong_drift_limit():
    l = 7.0
    assert poissonian_tail_bound(l, alpha=1e9) == pytest.approx(
        math.exp(-l * math.log(l)), rel=1e-6)


def test_poissonian_bound_past_float_range_is_inf():
    # I(ln 12) / 0.001 is about 5.5e3, far past the 709 where exp overflows
    assert poissonian_tail_bound(12.0, 0.001) == math.inf


def test_poissonian_bound_rejects_small_level():
    with pytest.raises(ValueError):
        poissonian_tail_bound(1.0, alpha=1.0)


# ----------------------------------------------------------- comparisons

def test_clopper_pearson_zero_counts():
    up = clopper_pearson_upper(0, 1_000_000)
    assert up == pytest.approx(-math.log(0.005) / 1_000_000, rel=1e-3)
    assert clopper_pearson_upper(10, 10) == 1.0


def test_tail_comparison_dominated():
    cfg = JumpProcessConfig(drift_alpha=1.0, horizon_T=20.0,
                            n_paths=200_000, seed=13)
    rows = tail_comparison(simulate_paths(cfg, [2.0, 3.0, 5.0]), alpha=1.0)
    assert all(p <= bound for _, p, _, bound in rows)
    for _, _, upper, bound in rows[:2]:
        # plenty of counts at low levels: even the CI upper end is dominated
        assert upper <= bound


def test_witness_drops_empty_levels_and_reports_shapes():
    cfg = JumpProcessConfig(drift_alpha=1.0, horizon_T=20.0,
                            n_paths=50_000, seed=17)
    x, _ = sampled_paths(cfg)
    report = tail_shape_witness(x, [2.0, 3.0, 4.0, 30.0])
    assert report["dropped_levels"] == [30.0]
    assert len(report["levels"]) == 3
    assert len(report["quad_series"]) == 3
    # Against the exact Dickman law (38.2% on [2, 3, 4]), within three
    # standard errors: -ln p_hat has standard error ~ 1/sqrt(count), and the
    # variation is the ratio of the series' largest and smallest entries.
    levels = report["levels"]
    _, counts = empirical_tail_probs(x, levels)
    neg_log = np.array([-math.log(dickman_tail(l)) for l in levels])
    series = neg_log / (np.array(levels) * np.log(levels))
    exact = series.max() / series.min() - 1.0
    rel_se = 1.0 / (np.sqrt(counts) * neg_log)
    tol = 3.0 * (1.0 + exact) * math.hypot(rel_se[series.argmax()],
                                           rel_se[series.argmin()])
    variation = report["poissonian_normalized"]["variation"]
    assert abs(variation - exact) <= tol, (variation, exact, tol)


def test_empirical_tail_probs_counts():
    probs, counts = empirical_tail_probs(np.array([0.5, 1.5, 2.5, 3.5]), [1.0, 3.0])
    np.testing.assert_array_equal(counts, [3, 1])
    np.testing.assert_allclose(probs, [0.75, 0.25])


def test_witness_rejects_levels_at_or_below_one():
    with pytest.raises(ValueError, match="l > 1"):
        tail_shape_witness(np.array([0.5, 1.5]), [1.0])
    with pytest.raises(ValueError, match="l > 1"):
        tail_shape_witness(np.array([0.5, 1.5, 2.5]), [0.5, 2.0])


def test_witness_rejects_all_levels_dropped():
    with pytest.raises(ValueError, match="every level would be dropped"):
        tail_shape_witness(np.array([0.5, 1.5]), [3.0])
