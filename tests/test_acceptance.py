"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. Monte Carlo workloads use pinned master seeds, so
every verdict here is deterministic.
"""

import math

import numpy as np
import pytest

import agentspread as a
from agentspread.analytics import ExperimentPlan, dominance_report, exponent_fit, run_plan
from agentspread.dominators import (
    ClusterProcessConfig,
    chain_sojourn_mean,
    conductance_chain,
    run_cluster_process,
    sample_hitting_times,
    two_phase_process,
)
from agentspread.engine import EngineConfig, finish_times, simulate, simulate_batch
from agentspread.errors import ConnectivityError
from agentspread.policies import PolicySpec

from oracles import adjacency_of, connected_graphs_up_to_iso, ctmc_expected_finish

RING_SWEEP = (64, 256, 1024, 4096, 16384)
GRID_SWEEP = (256, 1024, 4096, 16384)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def batch_mean(g, policy, seed, replicates, beta=1.0):
    s = simulate_batch(g, policy, EngineConfig(beta=beta, seed=seed), replicates)
    ts = finish_times(s)
    return sum(ts) / len(ts)


# ---------------------------------------------------------------------------
# C1: engine vs phase-type oracle on every connected graph with n <= 5
# ---------------------------------------------------------------------------


def test_c01_engine_matches_ctmc_oracle():
    reps = 100_000
    worst = 0.0
    instances = 0
    for n in (2, 3, 4, 5):
        for i, edges in enumerate(connected_graphs_up_to_iso(n)):
            adj = adjacency_of(edges, n)
            g = a.gen_custom(n, edges)
            for policy, ext in (
                (a.NullPolicy(), None),
                (a.RandomHomogeneous(1.0), [1.0 / n] * n),
            ):
                want = ctmc_expected_finish(adj, external=ext)
                got = batch_mean(g, policy, seed=11_000 + 97 * instances, replicates=reps)
                worst = max(worst, abs(got - want) / want)
            instances += 1
    report(
        "C1",
        worst <= 0.01 and instances >= 10,
        f"{instances} connected graphs (n<=5, up to iso), both policies, "
        f"worst |mean error| = {worst:.2%} <= 1%",
    )


# ---------------------------------------------------------------------------
# C2: closed forms for paths and stars
# ---------------------------------------------------------------------------


def test_c02_path_and_star_closed_forms():
    reps = 100_000
    errs = {}
    g = a.gen_line(5)  # path(k+1) with k=4
    m = batch_mean(g, a.NullPolicy(), seed=12_000, replicates=reps)
    errs["path(5)"] = abs(m - 4.0) / 4.0
    for j, m_leaves in enumerate((2, 4, 8)):
        star = a.gen_custom(m_leaves + 1, [(0, i) for i in range(1, m_leaves + 1)])
        want = sum(1.0 / i for i in range(1, m_leaves + 1))
        got = batch_mean(star, a.NullPolicy(), seed=12_100 + j, replicates=reps)
        errs[f"star(m={m_leaves})"] = abs(got - want) / want
    worst = max(errs.values())
    report("C2", worst <= 0.01, f"worst closed-form error {worst:.2%} <= 1% over {sorted(errs)}")


# ---------------------------------------------------------------------------
# C3: line cluster mean-count law
# ---------------------------------------------------------------------------


def test_c03_line_cluster_growth_law():
    reps = 100_000
    cfg = ClusterProcessConfig(growth="line", target_count=10**9, max_time=3.0, seed=13_000)
    ts = (1.0, 2.0, 3.0)
    counts = np.array([[tr.count_at(t) for t in ts] for tr in run_cluster_process(cfg, reps)])
    worst = 0.0
    for t, got in zip(ts, counts.mean(axis=0)):
        want = t * t + 2 * t
        worst = max(worst, abs(got - want) / want)
    report("C3", worst <= 0.02, f"worst |E[N_t]| error {worst:.2%} <= 2% at t in {{1,2,3}}")


# ---------------------------------------------------------------------------
# C4/C5/C6: scaling sweeps
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ring_random_report():
    plan = ExperimentPlan(
        sizes=RING_SWEEP,
        family="ring",
        policy=PolicySpec(kind="random_homogeneous", L=1.0),
        replicates=200,
        seed=1001,
        log_correction="divide_by_log_n",
    )
    return run_plan(plan)


def test_c04_ring_scaling(ring_random_report):
    slope = ring_random_report.exponent
    line_report = run_plan(
        ExperimentPlan(sizes=RING_SWEEP, process="line_clusters", replicates=200, seed=1002)
    )
    line_slope = line_report.fit_raw.slope
    ok = abs(slope - 0.50) <= 0.10 and abs(line_slope - 0.50) <= 0.05
    report(
        "C4",
        ok,
        f"ring random corrected slope {slope:.3f} in 0.50+-0.10; "
        f"line-cluster hitting slope {line_slope:.3f} in 0.50+-0.05",
    )


def test_c05_gsi_scaling(ring_random_report):
    gsi_report = run_plan(
        ExperimentPlan(
            sizes=RING_SWEEP,
            family="ring",
            policy=PolicySpec(kind="gsi", L=1.0),
            replicates=200,
            seed=1003,
            log_correction="none",
        )
    )
    slope = gsi_report.exponent
    random_means = {r.n: r.mean for r in ring_random_report.rows}
    ordered = all(
        row.mean <= random_means[row.n] for row in gsi_report.rows if row.n >= 1024
    )
    ok = abs(slope - 0.50) <= 0.07 and ordered
    report(
        "C5",
        ok,
        f"gsi raw slope {slope:.3f} in 0.50+-0.07; "
        f"mean(gsi) <= mean(random) at n >= 1024: {ordered}",
    )


def test_c06_grid_scaling_corrected_slope():
    # Stated tolerance: corrected slope = 0.333 +- 0.08 for d=2 random
    # spreading. The log factor divided out is the one in the law of the
    # mean, not the ln n of the two-phase upper bound. Coverage reckoning
    # (Boolean / Johnson-Mehl coverage, Hall 1988): with total external
    # rate L spread over n sites and growth at speed ~1, a site is still
    # healthy at time t only if no external infection landed in its
    # backward space-time cone, which holds ~ L t^(d+1) / n arrivals, so
    # P(healthy at t) ~ exp(-c L t^(d+1) / n). The last of ~n sites falls
    # when that is ~1/n, so T ~ (n ln n / L)^(1/(d+1)), and mean /
    # (ln n)^(1/(d+1)) grows as n^(1/(d+1)). Dividing by ln n instead
    # leaves n^(1/3) (ln n)^(-2/3), whose fitted slope over GRID_SWEEP is
    # ~0.24, outside the window whatever the engine does.
    d = 2
    grid_report = run_plan(
        ExperimentPlan(
            sizes=GRID_SWEEP,
            family="grid",
            dim=d,
            policy=PolicySpec(kind="random_homogeneous", L=1.0),
            replicates=200,
            seed=1004,
            log_correction="divide_by_log_n",
        )
    )
    slope = exponent_fit(
        [(r.n, r.mean / math.log(r.n) ** (1 / (d + 1))) for r in grid_report.rows]
    ).slope
    raw = grid_report.fit_raw.slope
    by_ln_n = grid_report.fit_corrected.slope
    report(
        "C6-grid",
        abs(slope - 0.333) <= 0.08,
        f"grid (ln n)^(1/{d + 1})-corrected slope {slope:.3f} vs 0.333+-0.08 "
        f"(raw slope {raw:.3f}; ln n-corrected slope {by_ln_n:.3f}) over n in {GRID_SWEEP}",
    )


def test_c06_fpp_hitting_slope():
    fpp_report = run_plan(
        ExperimentPlan(sizes=GRID_SWEEP, process="fpp_clusters", dim=2, replicates=200, seed=1005)
    )
    slope = fpp_report.fit_raw.slope
    report("C6-fpp", abs(slope - 0.333) <= 0.07, f"fpp(d=2) hitting slope {slope:.3f} in 0.333+-0.07")


# ---------------------------------------------------------------------------
# C7: dominance suite
# ---------------------------------------------------------------------------


def test_c07_dominance_suite():
    reps = 1000
    verdicts = {}
    for n in (64, 256):
        g = a.gen_ring(n)
        part = a.partition_ring(g)

        real = finish_times(
            simulate_batch(g, a.RandomHomogeneous(1.0), EngineConfig(seed=401), reps)
        )
        upper = [
            tp.finish_time for tp in two_phase_process(g, part, 1.0, "homogeneous", 402, reps)
        ]
        verdicts[f"random<=two_phase_hom n={n}"] = dominance_report(real, upper, seed=403)

        real = finish_times(
            simulate_batch(g, a.GsiPolicy(part, 1.0), EngineConfig(seed=404), reps)
        )
        upper = [
            tp.finish_time for tp in two_phase_process(g, part, 1.0, "sequential", 405, reps)
        ]
        verdicts[f"gsi<=two_phase_seq n={n}"] = dominance_report(real, upper, seed=406)

        fast = sample_hitting_times(
            ClusterProcessConfig(growth="line", target_count=n, seeding_rate=1.0, seed=101),
            reps,
        )
        real = finish_times(
            simulate_batch(g, a.GreedyFrontierAdversary(1.0), EngineConfig(seed=202), reps)
        )
        verdicts[f"line_clusters<=adversary n={n}"] = dominance_report(fast, real, seed=303)

    bad = [k for k, v in verdicts.items() if not v.consistent]
    report(
        "C7",
        not bad,
        f"decile ordering (one-sided bootstrap 95%) holds for all {len(verdicts)} pairings"
        + (f"; violations: {bad}" if bad else ""),
    )


# ---------------------------------------------------------------------------
# C8: conductance closed form + chain absorption means
# ---------------------------------------------------------------------------


def test_c08_conductance_and_chain():
    for n in (4, 6, 8, 10, 12):
        res = a.conductance_exact(a.gen_ring(n))
        assert res.value == 2 / (n // 2), f"ring {n} conductance {res.value}"
    reps = 100_000
    worst = 0.0
    for size in (4, 8, 16):
        for psi in (0.5, 1.0):
            want = chain_sojourn_mean(size, psi)
            seed = 14_000 + size * 10 + int(psi * 2)
            got = np.mean(conductance_chain(size, psi, seed, reps))
            worst = max(worst, abs(got - want) / want)
    report(
        "C8",
        worst <= 0.01,
        f"ring conductance exact = 2/floor(n/2) on n in 4..12; "
        f"chain mean vs sojourn sum worst error {worst:.2%} <= 1%",
    )


# ---------------------------------------------------------------------------
# C9: coupon-collector phase 1
# ---------------------------------------------------------------------------


def test_c09_two_phase_coupon_phase1():
    g = a.gen_ring(16)
    part = a.partition_ring(g)  # 4 pieces of n/4
    runs = two_phase_process(g, part, 1.0, "homogeneous", seed=15_000, replicates=100_000)
    got = np.mean([r.phase1 for r in runs])
    want = 25 / 3
    err = abs(got - want) / want
    report("C9", err <= 0.02, f"homogeneous phase-1 mean {got:.4f} vs 25/3, error {err:.2%} <= 2%")


# ---------------------------------------------------------------------------
# C10: RGG pipeline
# ---------------------------------------------------------------------------


def test_c10_rgg_pipeline():
    n = 2000
    r = math.sqrt(5 * math.log(n) / n)
    connected = 0
    validated = 0
    finish = []
    for seed in range(100):
        g = a.gen_rgg(n, r, seed=seed)
        try:
            a.bfs_tree(g, range(n), 0)
        except ConnectivityError:
            continue
        connected += 1
        if validated < 3:  # partition validity sampled on the first few seeds
            a.graphs.validate_partition(g, a.partition_rgg(g))
            validated += 1
        if seed < 50:
            tr = simulate(g, a.RandomHomogeneous(1.0), EngineConfig(seed=seed))
            assert tr.finish_time is not None
            finish.append(tr.finish_time)
    mean_t = sum(finish) / len(finish)
    ok = connected >= 99 and validated == 3 and math.isfinite(mean_t) and len(finish) == 50
    report(
        "C10",
        ok,
        f"{connected}/100 seeds connected (>=99); {validated} chunk partitions valid; "
        f"mean T over 50 seeds = {mean_t:.3f}",
    )


# ---------------------------------------------------------------------------
# C11: static-link equivalence by KS
# ---------------------------------------------------------------------------


def test_c11_static_link_equivalence():
    from scipy import stats

    base_edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
    extra = (0, 5)
    g = a.gen_custom(6, base_edges)
    via_policy = finish_times(
        simulate_batch(
            g, a.StaticLinks([extra], beta_link=1.0), EngineConfig(seed=16_000), 10_000
        )
    )
    g_aug = a.gen_custom(6, base_edges + [extra])
    via_edge = finish_times(
        simulate_batch(g_aug, a.NullPolicy(), EngineConfig(seed=16_001), 10_000)
    )
    _, p = stats.ks_2samp(via_policy, via_edge)
    report("C11", p > 0.01, f"two-sample KS p = {p:.3f} > 0.01 at 10^4 replicates")
