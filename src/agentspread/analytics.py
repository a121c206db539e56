"""Monte Carlo orchestration, scaling regressions, and dominance verdicts.

An experiment plan sweeps one process (engine simulation or a cluster
process) over a list of sizes, summarizes finish times per size, and fits
the log-log growth exponent. Upper bounds for randomized spreading carry
a log n factor while lower bounds do not, so the exponent is fitted both
on raw means and on means divided by log n, and both slopes are reported;
the plan's ``log_correction`` selects which one is primary. The ln n
divisor matches the two-phase upper bound's log factor, not the law of
the mean under random spreading on a d-dimensional lattice, which by
space-time coverage is (n ln n)^(1/(d+1)); dividing by ln n therefore
leaves a slope below 1/(d+1) at any finite n.

All sub-seeds derive from the plan's master seed through the counter-based
stream splitter, so identical plans produce bit-identical reports (wall
clock metadata aside).
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy import stats as _stats

from .dominators import ClusterProcessConfig, run_cluster_process
from .engine import EngineConfig, finish_times, simulate_batch
from .errors import InvalidParameterError
from .graphs import Graph, make_graph
from .policies import PolicySpec, build_policy, canonical_partition
from .rng import CH_BOOTSTRAP, CH_DERIVE, stream, substream

DECILES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

# Purpose tags mixed into per-size derived seeds.
_P_ENGINE = 0
_P_GRAPH = 1
_P_PROCESS = 2


def derive_seed(master: int, tag: int) -> int:
    """64-bit sub-seed that is a pure function of (master, tag)."""
    return int(stream(master, (tag << 3) | CH_DERIVE).integers(1 << 63))


# ---------------------------------------------------------------------------
# Exponent fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    ci_low: float
    ci_high: float
    stderr: float
    points: int


def exponent_fit(points) -> ExponentFit:
    """OLS of ln(y) on ln(n) with a t-based 95% CI from the residuals."""
    pts = [(float(n), float(y)) for n, y in points]
    if len(pts) < 3:
        raise InvalidParameterError(f"need >= 3 points, got {len(pts)}")
    if any(y <= 0 for _, y in pts) or any(n <= 0 for n, _ in pts):
        raise InvalidParameterError("exponent fit needs positive n and y")
    x = np.log([n for n, _ in pts])
    y = np.log([v for _, v in pts])
    m = len(pts)
    xbar = x.mean()
    ybar = y.mean()
    sxx = float(((x - xbar) ** 2).sum())
    slope = float(((x - xbar) * (y - ybar)).sum() / sxx)
    intercept = float(ybar - slope * xbar)
    resid = y - (intercept + slope * x)
    df = m - 2
    s2 = float((resid**2).sum() / df)
    se = math.sqrt(s2 / sxx)
    tcrit = float(_stats.t.ppf(0.975, df))
    return ExponentFit(
        slope=slope,
        intercept=intercept,
        ci_low=slope - tcrit * se,
        ci_high=slope + tcrit * se,
        stderr=se,
        points=m,
    )


# ---------------------------------------------------------------------------
# Experiment plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentPlan:
    """One sweep: a process, a size list, replication, and fit options."""

    sizes: tuple[int, ...]
    family: str = "ring"  # ring | line | grid | rgg (process="simulate")
    policy: PolicySpec = field(default_factory=lambda: PolicySpec(kind="null"))
    replicates: int = 200
    beta: float = 1.0
    seed: int = 0
    log_correction: str = "none"  # none | divide_by_log_n
    process: str = "simulate"  # simulate | line_clusters | fpp_clusters | diagonal_grid_clusters
    dim: int = 2
    rgg_radius: float | None = None  # None: critical sqrt(5 ln n / n)
    seeding_rate: float = 1.0
    mu_eff: float | str = 1.0  # "log2n" scales with size
    occupancy: int | str = 1  # "logn" scales with size
    initial_infected: int = 0
    event_budget: int | None = None
    output_dir: str | None = None  # when set, run_plan writes the report bundle there

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.sizes)
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise InvalidParameterError("size sweep must be strictly increasing")
        if len(sizes) < 3:
            raise InvalidParameterError("size sweep needs >= 3 points for regression")
        if self.log_correction not in ("none", "divide_by_log_n"):
            raise InvalidParameterError(f"unknown log_correction {self.log_correction!r}")
        if self.process not in (
            "simulate",
            "line_clusters",
            "fpp_clusters",
            "diagonal_grid_clusters",
        ):
            raise InvalidParameterError(f"unknown process {self.process!r}")
        object.__setattr__(self, "sizes", sizes)


@dataclass
class SweepRow:
    n: int
    mean: float
    std: float
    deciles: tuple[float, ...]
    replicates: int
    events: int


@dataclass
class ScalingReport:
    rows: list[SweepRow]
    fit_raw: ExponentFit | None
    fit_corrected: ExponentFit | None
    log_correction: str
    master_seed: int
    incomplete: bool
    runtime_seconds: float
    plan_echo: dict

    @property
    def fit(self) -> ExponentFit | None:
        """The fit selected by the plan's log_correction."""
        return self.fit_corrected if self.log_correction == "divide_by_log_n" else self.fit_raw

    @property
    def exponent(self) -> float:
        f = self.fit
        if f is None:
            raise InvalidParameterError("report has no fit (fewer than 3 rows)")
        return f.slope

    @property
    def exponent_ci(self) -> tuple[float, float]:
        f = self.fit
        if f is None:
            raise InvalidParameterError("report has no fit (fewer than 3 rows)")
        return (f.ci_low, f.ci_high)


def build_graph(plan: ExperimentPlan, n: int) -> Graph:
    seed = derive_seed(plan.seed, (n << 2) | _P_GRAPH)
    return make_graph(plan.family, n, plan.dim, plan.rgg_radius, seed)


def _resolve_cluster_cfg(plan: ExperimentPlan, n: int) -> ClusterProcessConfig:
    growth = {
        "line_clusters": "line",
        "fpp_clusters": "fpp",
        "diagonal_grid_clusters": "diagonal",
    }[plan.process]
    mu = plan.mu_eff
    if mu == "log2n":
        mu = math.log(n) ** 2
    occ = plan.occupancy
    if occ == "logn":
        occ = max(1, math.ceil(math.log(n)))
    return ClusterProcessConfig(
        growth=growth,
        target_count=n,
        seeding_rate=plan.seeding_rate,
        beta=plan.beta,
        dim=plan.dim,
        mu_eff=float(mu),
        occupancy=int(occ),
        seed=derive_seed(plan.seed, (n << 2) | _P_PROCESS),
    )


def _engine_times(plan: ExperimentPlan, n: int, g: Graph) -> tuple[int, list[float], int]:
    """Engine replicates on the graph built for requested size n."""
    handle = build_policy(plan.policy, g)
    cfg = EngineConfig(
        beta=plan.beta,
        initial_infected=plan.initial_infected,
        seed=derive_seed(plan.seed, (n << 2) | _P_ENGINE),
    )
    summaries = simulate_batch(g, handle, cfg, plan.replicates)
    return g.n, finish_times(summaries), sum(s.events for s in summaries)


def _sample_times(plan: ExperimentPlan, n: int) -> tuple[int, list[float], int]:
    """Realized size, finish-time sample and the event count spent
    producing it (a grid realizes side**d <= n nodes)."""
    if plan.process == "simulate":
        return _engine_times(plan, n, build_graph(plan, n))
    cfg = _resolve_cluster_cfg(plan, n)
    events = 0
    times = []
    for k in range(plan.replicates):
        trace = run_cluster_process(cfg, k)
        if trace.hitting_time is not None:
            times.append(trace.hitting_time)
        events += trace.events
    return n, times, events


def summarize(n: int, times, events: int) -> SweepRow:
    arr = np.asarray(times, dtype=float)
    if arr.size == 0:
        raise InvalidParameterError(f"no finished runs at n={n}")
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    decs = tuple(float(q) for q in np.quantile(arr, DECILES, method="linear"))
    return SweepRow(
        n=n,
        mean=float(arr.mean()),
        std=std,
        deciles=decs,
        replicates=int(arr.size),
        events=events,
    )


def run_plan(plan: ExperimentPlan) -> ScalingReport:
    """Execute the sweep and fit the scaling exponent.

    Deterministic for a fixed plan (master seed included); if the event
    budget runs out mid-sweep the partial report is flagged incomplete.
    """
    t0 = time.perf_counter()
    rows: list[SweepRow] = []
    total_events = 0
    incomplete = False
    for n in plan.sizes:
        try:
            size, times, events = _sample_times(plan, n)
        except KeyboardInterrupt:
            # flush what finished so far as a partial report
            incomplete = True
            break
        rows.append(summarize(size, times, events))
        total_events += events
        if plan.event_budget is not None and total_events > plan.event_budget:
            incomplete = len(rows) < len(plan.sizes)
            break
    fit_raw = fit_corrected = None
    if len(rows) >= 3:
        fit_raw = exponent_fit([(r.n, r.mean) for r in rows])
        fit_corrected = exponent_fit([(r.n, r.mean / math.log(r.n)) for r in rows])
    echo = asdict(plan)
    echo["policy"].pop("partition", None)
    report = ScalingReport(
        rows=rows,
        fit_raw=fit_raw,
        fit_corrected=fit_corrected,
        log_correction=plan.log_correction,
        master_seed=plan.seed,
        incomplete=incomplete,
        runtime_seconds=time.perf_counter() - t0,
        plan_echo=echo,
    )
    if plan.output_dir is not None:
        os.makedirs(plan.output_dir, exist_ok=True)
        write_report_csv(report, os.path.join(plan.output_dir, "report.csv"))
        write_report_json(report, os.path.join(plan.output_dir, "report.json"))
        write_gnuplot(report, os.path.join(plan.output_dir, "loglog.dat"))
    return report


# ---------------------------------------------------------------------------
# Concentration probe
# ---------------------------------------------------------------------------


@dataclass
class ConcentrationRow:
    n: int
    threshold: float
    exceed_fraction: float


@dataclass
class ConcentrationTable:
    kappa: float
    rows: list[ConcentrationRow]
    decaying: bool


def concentration_probe(plan: ExperimentPlan, kappa: float) -> ConcentrationTable:
    """Fraction of runs with T >= kappa * h(n) * ln n for each size.

    h(n) comes from the family's canonical partition: the larger of the
    piece count over the budget and the worst piece diameter.
    """
    if plan.process != "simulate":
        raise InvalidParameterError("concentration probe needs an engine sweep")
    rows = []
    fractions = []
    for n in plan.sizes:
        g = build_graph(plan, n)
        part = canonical_partition(g, max(plan.policy.L, 1e-12))
        l_min = plan.policy.L if plan.policy.kind in ("random_homogeneous", "gsi") else 1.0
        h = max(part.g / l_min, max(part.piece_diameters))
        threshold = kappa * h * math.log(n)
        _, times, _ = _engine_times(plan, n, g)
        arr = np.asarray(times)
        frac = float((arr >= threshold).mean()) if arr.size else 1.0
        rows.append(ConcentrationRow(n=n, threshold=threshold, exceed_fraction=frac))
        fractions.append(frac)
    decaying = all(b <= a + 1e-12 for a, b in zip(fractions, fractions[1:]))
    return ConcentrationTable(kappa=kappa, rows=rows, decaying=decaying)


# ---------------------------------------------------------------------------
# Stochastic dominance verdicts
# ---------------------------------------------------------------------------


@dataclass
class DominanceVerdict:
    """Per-decile comparison of two finish-time samples (is a <=_st b?)."""

    deciles_a: tuple[float, ...]
    deciles_b: tuple[float, ...]
    diffs: tuple[float, ...]
    upper95: tuple[float, ...]
    violations: tuple[int, ...]

    @property
    def consistent(self) -> bool:
        return not self.violations

    @property
    def verdict(self) -> str:
        if self.consistent:
            return "consistent-with-dominance"
        return "violation-at-deciles[" + ",".join(map(str, self.violations)) + "]"


def dominance_report(
    sample_a, sample_b, *, n_boot: int = 2000, seed: int = 0
) -> DominanceVerdict:
    """One-sided bootstrap check that sample_a <=_st sample_b by deciles.

    Decile q is a violation when even the 95th percentile of the
    bootstrap distribution of decile_b - decile_a is negative (ties and
    noise-level crossings are allowed).
    """
    a = np.asarray(list(sample_a), dtype=float)
    b = np.asarray(list(sample_b), dtype=float)
    if a.size < 100 or b.size < 100:
        raise InvalidParameterError(
            f"dominance report needs >= 100 points per sample, got {a.size} and {b.size}"
        )
    qa = np.quantile(a, DECILES, method="linear")
    qb = np.quantile(b, DECILES, method="linear")
    rng = substream(seed, 0, CH_BOOTSTRAP)
    boot = np.empty((n_boot, len(DECILES)))
    for i in range(n_boot):
        ra = a[rng.integers(0, a.size, size=a.size)]
        rb = b[rng.integers(0, b.size, size=b.size)]
        boot[i] = np.quantile(rb, DECILES, method="linear") - np.quantile(
            ra, DECILES, method="linear"
        )
    upper = np.quantile(boot, 0.95, axis=0)
    violations = tuple(
        int(round(DECILES[i] * 100)) for i in range(len(DECILES)) if upper[i] < 0
    )
    return DominanceVerdict(
        deciles_a=tuple(map(float, qa)),
        deciles_b=tuple(map(float, qb)),
        diffs=tuple(float(x) for x in (qb - qa)),
        upper95=tuple(map(float, upper)),
        violations=violations,
    )


# ---------------------------------------------------------------------------
# Report output
# ---------------------------------------------------------------------------


def write_report_csv(report: ScalingReport, path: str) -> None:
    cols = ",".join(f"d{int(q * 100)}" for q in DECILES)
    with open(path, "w") as fh:
        fh.write(f"n,mean,std,{cols}\n")
        for r in report.rows:
            decs = ",".join(f"{d:.17g}" for d in r.deciles)
            fh.write(f"{r.n},{r.mean:.17g},{r.std:.17g},{decs}\n")


def _fit_dict(fit: ExponentFit | None) -> dict | None:
    if fit is None:
        return None
    return {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "ci": [fit.ci_low, fit.ci_high],
        "stderr": fit.stderr,
        "points": fit.points,
    }


def write_report_json(report: ScalingReport, path: str) -> None:
    payload = {
        "master_seed": report.master_seed,
        "log_correction": report.log_correction,
        "fit_raw": _fit_dict(report.fit_raw),
        "fit_corrected": _fit_dict(report.fit_corrected),
        "incomplete": report.incomplete,
        "runtime_seconds": report.runtime_seconds,
        "plan": report.plan_echo,
        "rows": [
            {
                "n": r.n,
                "mean": r.mean,
                "std": r.std,
                "deciles": list(r.deciles),
                "replicates": r.replicates,
                "events": r.events,
            }
            for r in report.rows
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_gnuplot(report: ScalingReport, path: str) -> None:
    """Two-column file (n, fitted y) ready for a log-log plot."""
    with open(path, "w") as fh:
        fh.write("# n y\n")
        for r in report.rows:
            y = r.mean / math.log(r.n) if report.log_correction == "divide_by_log_n" else r.mean
            fh.write(f"{r.n} {y:.17g}\n")
