"""Exponent fits, plan runs, dominance verdicts, report output."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from agentspread import analytics
from agentspread.analytics import (
    ExperimentPlan,
    dominance_report,
    exponent_fit,
    run_plan,
    write_gnuplot,
    write_report_csv,
    write_report_json,
)
from agentspread.errors import InvalidParameterError
from agentspread.policies import PolicySpec


# ---------------------------------------------------------------------------
# exponent_fit
# ---------------------------------------------------------------------------


def test_fit_linear_power():
    ns = [10, 100, 1000, 10000]
    fit = exponent_fit([(n, float(n)) for n in ns])
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.ci_low == pytest.approx(fit.ci_high, abs=1e-9)


def test_fit_sqrt_power():
    fit = exponent_fit([(n, math.sqrt(n)) for n in (8, 64, 512, 4096)])
    assert fit.slope == pytest.approx(0.5, abs=1e-12)


def test_fit_intercept():
    fit = exponent_fit([(n, 3.0 * n ** (1 / 3)) for n in (10, 100, 1000)])
    assert fit.slope == pytest.approx(1 / 3, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)


def test_fit_needs_three_points():
    with pytest.raises(InvalidParameterError):
        exponent_fit([(1, 1.0), (2, 2.0)])


def test_fit_rejects_nonpositive():
    with pytest.raises(InvalidParameterError):
        exponent_fit([(1, 1.0), (2, -2.0), (3, 3.0)])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("axis", ["n", "y"])
def test_fit_rejects_non_finite_point(axis, bad):
    pts = [(8, 2.0), (64, 4.0), (512, 8.0)]
    pts[1] = (bad, 4.0) if axis == "n" else (64, bad)
    with pytest.raises(InvalidParameterError, match="finite positive n and y"):
        exponent_fit(pts)


def test_fit_rejects_one_distinct_n():
    with pytest.raises(InvalidParameterError, match="2 distinct n"):
        exponent_fit([(64, 1.0), (64, 2.0), (64.0, 3.0)])


def test_t_table_is_stdtrit_bit_for_bit():
    # Fits of up to 66 points keep the CI that stdtrit gave them, bit for bit.
    from scipy.special import stdtrit

    assert len(analytics._T975) == 64
    for df in range(1, 65):
        assert analytics._t_critical(df) == float(stdtrit(df, 0.975)), df


def test_t_series_matches_stdtrit_beyond_the_table():
    from scipy.special import stdtrit

    for df in range(65, 401):
        want = float(stdtrit(df, 0.975))
        assert analytics._t_critical(df) == pytest.approx(want, rel=1e-13, abs=0), df


def test_fit_past_the_table_matches_a_stdtrit_ci():
    from scipy.special import stdtrit

    rng = np.random.default_rng(5)
    ns = np.arange(10, 77)  # 67 points: df = 65, the first past the table
    fit = exponent_fit([(n, n**0.4 * math.exp(rng.normal(0, 0.05))) for n in ns])
    half = float(stdtrit(65, 0.975)) * fit.stderr
    assert fit.points == 67
    assert fit.ci_low == pytest.approx(fit.slope - half, rel=1e-13, abs=0)
    assert fit.ci_high == pytest.approx(fit.slope + half, rel=1e-13, abs=0)


def test_fit_ci_covers_noise():
    rng = np.random.default_rng(3)
    ns = [2**k for k in range(4, 10)]
    pts = [(n, n**0.5 * math.exp(rng.normal(0, 0.02))) for n in ns]
    fit = exponent_fit(pts)
    assert fit.ci_low < 0.5 < fit.ci_high


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


def test_plan_validates_sizes():
    with pytest.raises(InvalidParameterError):
        ExperimentPlan(sizes=(16, 8, 32))
    with pytest.raises(InvalidParameterError):
        ExperimentPlan(sizes=(16, 32))


@pytest.mark.parametrize("mu_eff", ["log3n", "", "1.0"])
def test_plan_refuses_unknown_mu_eff_word(mu_eff):
    with pytest.raises(InvalidParameterError, match="mu_eff"):
        ExperimentPlan(sizes=(16, 32, 64), process="diagonal_grid_clusters", mu_eff=mu_eff)


@pytest.mark.parametrize("replicates", [0, -3])
def test_plan_refuses_fewer_than_one_replicate(replicates):
    with pytest.raises(InvalidParameterError, match="replicates must be >= 1"):
        ExperimentPlan(sizes=(16, 32, 64), replicates=replicates, process="line_clusters")


def test_run_plan_paths_slope_one():
    # Pure SI on a path seeded at the end: mean T = n-1, slope -> 1.
    plan = ExperimentPlan(
        sizes=(16, 64, 256),
        family="line",
        policy=PolicySpec(kind="null"),
        replicates=150,
        seed=21,
    )
    report = run_plan(plan)
    assert abs(report.exponent - 1.0) < 0.05
    assert not report.incomplete


def test_run_plan_deterministic(tmp_path):
    plan = ExperimentPlan(
        sizes=(8, 16, 32),
        family="ring",
        policy=PolicySpec(kind="random_homogeneous", L=1.0),
        replicates=40,
        seed=5,
    )
    r1 = run_plan(plan)
    r2 = run_plan(plan)
    assert r1.rows == r2.rows
    assert r1.fits["none"] == r2.fits["none"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report_csv(r1, str(a))
    write_report_csv(r2, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_report_self_contained(tmp_path):
    plan = ExperimentPlan(
        sizes=(8, 16, 32),
        family="ring",
        policy=PolicySpec(kind="random_homogeneous", L=1.0),
        replicates=40,
        seed=5,
    )
    report = run_plan(plan)
    path = tmp_path / "report.csv"
    write_report_csv(report, str(path))
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    pts = [(int(r[0]), float(r[1])) for r in rows]
    refit = exponent_fit(pts)
    assert refit.slope == pytest.approx(report.fits["none"].slope, abs=1e-12)


def test_run_plan_writes_bundle_when_output_dir_set(tmp_path):
    plan = ExperimentPlan(
        sizes=(8, 16, 32),
        family="ring",
        policy=PolicySpec(kind="null"),
        replicates=20,
        seed=44,
        output_dir=str(tmp_path / "bundle"),
    )
    run_plan(plan)
    for name in ("report.csv", "report.json", "loglog.dat"):
        assert (tmp_path / "bundle" / name).exists()


def test_run_plan_grid_rows_carry_realized_size():
    # Non-square sizes floor the grid side: rows must name the nodes simulated.
    plan = ExperimentPlan(
        sizes=(1000, 2000, 5000),
        family="grid",
        dim=2,
        policy=PolicySpec(kind="random_homogeneous", L=1.0),
        replicates=4,
        seed=9,
    )
    report = run_plan(plan)
    assert [r.n for r in report.rows] == [961, 1936, 4900]
    assert all(r.events == r.n * plan.replicates for r in report.rows)


def test_run_plan_rejects_repeated_realized_sizes():
    # 100, 110 and 120 all realize a 10x10 grid, so the fit would divide by 0.
    plan = ExperimentPlan(sizes=(100, 110, 120), family="grid", replicates=3, seed=1)
    with pytest.raises(InvalidParameterError, match="110 realizes 100"):
        run_plan(plan)


@pytest.mark.parametrize(
    "sizes,process,family",
    [((1, 4, 9), "line_clusters", "ring"), ((2, 16, 64), "simulate", "grid")],
)
def test_run_plan_rejects_size_below_two_nodes(sizes, process, family):
    # ln 1 = 0 divides the log-corrected fit by zero; grid size 2 realizes 1 node.
    plan = ExperimentPlan(sizes=sizes, process=process, family=family, replicates=5, seed=1)
    with pytest.raises(InvalidParameterError, match=f"size {sizes[0]} realizes 1 node"):
        run_plan(plan)


def test_run_plan_cluster_process():
    plan = ExperimentPlan(
        sizes=(50, 100, 200),
        process="line_clusters",
        replicates=50,
        seed=6,
    )
    report = run_plan(plan)
    assert len(report.rows) == 3
    assert report.fits["none"] is not None


def test_run_plan_budget_marks_incomplete():
    plan = ExperimentPlan(
        sizes=(8, 16, 32),
        family="ring",
        policy=PolicySpec(kind="null"),
        replicates=20,
        seed=7,
        event_budget=100,  # exhausted after the first size
    )
    report = run_plan(plan)
    assert report.incomplete
    assert len(report.rows) < 3


def test_deciles_monotone():
    plan = ExperimentPlan(
        sizes=(8, 16, 32), family="ring", policy=PolicySpec(kind="null"),
        replicates=60, seed=8,
    )
    for row in run_plan(plan).rows:
        assert list(row.deciles) == sorted(row.deciles)


# ---------------------------------------------------------------------------
# Dominance verdicts
# ---------------------------------------------------------------------------


def test_dominance_identical_samples_consistent():
    rng = np.random.default_rng(10)
    a = rng.exponential(1.0, 500)
    verdict = dominance_report(a, a, seed=1)
    assert verdict.consistent
    assert verdict.verdict == "consistent-with-dominance"


def test_dominance_shifted_consistent():
    rng = np.random.default_rng(11)
    a = rng.exponential(1.0, 500)
    verdict = dominance_report(a, a + 1.0, seed=2)
    assert verdict.consistent
    assert all(d > 0 for d in verdict.diffs)


def test_dominance_detects_violation():
    rng = np.random.default_rng(12)
    a = rng.exponential(1.0, 800) + 5.0
    b = rng.exponential(1.0, 800)
    verdict = dominance_report(a, b, seed=3)
    assert not verdict.consistent
    assert "violation-at-deciles" in verdict.verdict


def test_dominance_report_pinned():
    # pins the bootstrap stream: one integers() row per resample pair
    # draws the values a loop of per-sample calls did (odd size included)
    rng = np.random.default_rng(14)
    a = rng.exponential(1.0, 1000)
    b = 0.6 * rng.exponential(1.0, 997) + 0.35
    verdict = dominance_report(a, b, seed=4)
    assert verdict.upper95 == (
        0.32168587625611866,
        0.28324744143359165,
        0.22597010184223965,
        0.1875174193286653,
        0.14788507025579778,
        0.0632272303709883,
        -0.09735304035908203,
        -0.1844023207809484,
        -0.5853783678680717,
    )
    assert verdict.verdict == "violation-at-deciles[70,80,90]"


class ArrayBound:
    """A Generator whose ``integers`` draws a row's resamples of sizes
    ``na`` and ``nb`` with the array bound ``dominance_report`` once
    passed for every pair of sizes."""

    def __init__(self, gen, na, nb):
        self.gen = gen
        self.high = np.repeat([na, nb], [na, nb])

    def integers(self, low, high, size):
        return self.gen.integers(low, self.high, size=size)


@pytest.mark.parametrize("na,nb", [(100, 100), (137, 137), (1000, 1000), (100, 137), (997, 1000)])
def test_dominance_verdict_is_the_array_bound_verdict(na, nb, monkeypatch):
    # Equal sizes draw with a scalar bound: one 32-bit word per element
    # either way, so the same resamples and verdict as the array bound.
    rng = np.random.default_rng(na + 3 * nb)
    a = rng.exponential(1.0, na)
    b = 0.8 * rng.exponential(1.0, nb) + 0.3
    got = dominance_report(a, b, seed=5)
    substream = analytics.substream
    monkeypatch.setattr(analytics, "substream", lambda *key: ArrayBound(substream(*key), na, nb))
    assert got == dominance_report(a, b, seed=5)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 137, 411, 997, 1000])
def test_sorted_deciles_are_numpys_linear_quantiles(n):
    # the reference: np.quantile's own partition and interpolation, at the
    # deciles and at the bootstrap's 0.95, on continuous draws and on
    # integer-valued ones, whose neighbouring order statistics tie
    rng = np.random.default_rng(n)
    draws = (rng.exponential(1.0, (50, n)), rng.integers(0, 4, (50, n)).astype(float))
    for levels in (analytics.DECILES, (0.95,)):
        for draw in draws:
            rows = np.sort(draw, axis=1)
            rows[0] = 1.0  # ties: every order statistic equal
            want = np.quantile(rows, levels, axis=1, method="linear").T
            assert np.array_equal(analytics._sorted_quantiles(rows, levels), want)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 137, 1000])
def test_summarize_reads_numpys_linear_deciles(n):
    # a one-replicate row included: its deciles are its one time
    rng = np.random.default_rng(n + 1)
    for times in (rng.exponential(2.0, n), rng.integers(0, 5, n).astype(float)):
        row = analytics.summarize(n, times.tolist(), 7)
        want = np.quantile(times, analytics.DECILES, method="linear")
        assert np.array_equal(row.deciles, want)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_summarize_refuses_non_finite_times(bad):
    # a NaN would sort last and read as a value among the deciles
    with pytest.raises(InvalidParameterError, match=f"n=3: index 1 holds {bad}"):
        analytics.summarize(3, [1.0, bad, 2.0], 0)


def test_dominance_refuses_an_all_nan_b():
    # b = Exp(mean 1) falls below a = Exp(mean 10) at every decile; an
    # all-NaN b once read consistent-with-dominance
    rng = np.random.default_rng(21)
    a = rng.exponential(10.0, 200)
    assert dominance_report(a, rng.exponential(1.0, 200), seed=1).violations
    with pytest.raises(InvalidParameterError, match="sample b: index 0 holds nan"):
        dominance_report(a, np.full(200, np.nan), seed=1)


def test_dominance_refuses_an_inf_in_a():
    rng = np.random.default_rng(23)
    a = rng.exponential(1.0, 200)
    a[17] = np.inf
    with pytest.raises(InvalidParameterError, match="sample a: index 17 holds inf"):
        dominance_report(a, rng.exponential(1.0, 200), seed=1)


def test_dominance_report_peaks_under_1_mib_of_python_heap():
    # The bootstrap draws its resamples in chunks of _BOOT_CHUNK_BYTES
    # indices; at 2^19 one report on 1000 + 1000 points peaked 1.62 MiB,
    # at 2^17 0.52 MiB.
    rng = np.random.default_rng(22)
    a = rng.exponential(1.0, 1000)
    b = rng.exponential(1.0, 1000) + 0.2
    dominance_report(a, b, seed=1)  # warm-up: first-call caches stay out of the peak
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        dominance_report(a, b, seed=1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20, peak


def test_dominance_rejects_small_samples():
    with pytest.raises(InvalidParameterError):
        dominance_report([1.0] * 50, [1.0] * 500)


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------


def test_report_files(tmp_path):
    plan = ExperimentPlan(
        sizes=(8, 16, 32), family="ring", policy=PolicySpec(kind="null"),
        replicates=30, seed=13, log_correction="divide_by_log_n",
    )
    report = run_plan(plan)
    csv = tmp_path / "r.csv"
    js = tmp_path / "r.json"
    dat = tmp_path / "r.dat"
    write_report_csv(report, str(csv))
    write_report_json(report, str(js))
    write_gnuplot(report, str(dat))
    header = csv.read_text().splitlines()[0]
    assert header == "n,mean,std,d10,d20,d30,d40,d50,d60,d70,d80,d90"
    payload = json.loads(js.read_text())
    assert payload["master_seed"] == 13
    assert payload["fits"]["none"]["points"] == 3
    assert payload["fits"]["divide_by_log_n"] is not None
    lines = [l for l in dat.read_text().splitlines() if not l.startswith("#")]
    assert all(len(l.split()) == 2 for l in lines)
