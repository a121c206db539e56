"""Monte Carlo orchestration, scaling regressions, and dominance checks.

An experiment plan sweeps one process (engine simulation or a cluster
process) over a list of sizes, summarizes finish times per size, and fits
the log-log growth exponent. Upper bounds for randomized spreading carry
a log n factor while lower bounds do not, so one table, ``fits``, holds
the exponent fitted under each ``log_correction`` (raw means, and means
divided by ln n); the plan's ``log_correction`` selects ``fit``. The ln n
divisor matches the two-phase upper bound's log factor, not the law of
the mean under random spreading on a d-dimensional lattice, which by
space-time coverage is (n ln n)^(1/(d+1)); dividing by ln n therefore
leaves a slope below 1/(d+1) at any finite n.

A fit's 95% CI uses Student's t 0.975 quantile at df = points - 2. Up to
df = 64 it is scipy's ``stdtrit`` value, written out as a table; beyond
that it is solved from the closed-form t distribution for integer df
(Abramowitz and Stegun 26.7.3/26.7.4). The package thus needs numpy alone.

A dominance check runs a policy against the process that bounds it, as
paired by the one table of ``sim dominate`` modes.

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
from typing import Callable, NamedTuple

import numpy as np

from .dominators import (
    ClusterProcessConfig,
    sample_hitting_times,
    sample_hits,
    two_phase_process,
)
from .engine import EngineConfig, finish_times, simulate_batch
from .errors import InvalidParameterError, integral
from .graphs import Graph, Partition, canonical_partition, make_graph
from .policies import PolicySpec, build_policy
from .rng import CH_BOOTSTRAP, CH_DERIVE, substream

DECILES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

# log_correction -> divisor of each size's mean before a fit, decided only here
_LOG_DIVISOR = {"none": lambda n: 1.0, "divide_by_log_n": math.log}

# Bootstrap resamples behind each dominance verdict.
_N_BOOT = 2000
# Bytes of resample indices dominance_report draws at once. Its temporaries
# come to about three times this, and peak RSS keeps them: at 4 MiB,
# ring-dominance peaked 16 MiB (28%) above the per-resample loop. Chunks
# this small run as fast.
_BOOT_CHUNK_BYTES = 1 << 19

# Purpose tags mixed into per-size derived seeds.
_P_ENGINE = 0
_P_GRAPH = 1
_P_PROCESS = 2


def derive_seed(master: int, tag: int) -> int:
    """64-bit sub-seed that is a pure function of (master, tag)."""
    return int(substream(master, tag, CH_DERIVE).integers(1 << 63))


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


# Student t 0.975 quantiles for df = 1..64, float(scipy.special.stdtrit(df,
# 0.975)) written out: each repr round-trips, so a fit of up to 66 points
# reads the value scipy gives.
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378, 2.039513446396408, 2.0369333434601016,
    2.0345152974493383, 2.0322445093177186, 2.030107928250343, 2.0280940009804502,
    2.0261924630291093, 2.0243941639119694, 2.022690920036761, 2.021075390306273,
    2.019540970441376, 2.0180817028184443, 2.016692199227824, 2.0153675744437636,
    2.014103388880846, 2.012895598919429, 2.0117405137297655, 2.010634757624232,
    2.0095752371292392, 2.008559112100761, 2.007583770315836, 2.006646805061688,
    2.0057459953178687, 2.0048792881880564, 2.0040447832891455, 2.003240718847872,
    2.002465459291007, 2.0017174841452356, 2.000995378088267, 2.0002978220142604,
    1.999623584994939, 1.9989715170333788, 1.998340542520741, 1.997729654317693,
)


def _t_central_mass(theta: float, df: int) -> float:
    """A(t | df) = P(|T| <= t) at theta = atan(t / sqrt(df)), in the closed
    form for integer df: Abramowitz and Stegun 26.7.3 (odd) and 26.7.4
    (even). Both sum cos(theta)^j over the j of df's parity up to df - 2,
    each term the previous one times (j + 1) / (j + 2) cos(theta)^2."""
    c2 = math.cos(theta) ** 2
    j = df % 2
    term = math.cos(theta) if j else 1.0
    total = 0.0
    while j <= df - 2:
        total += term
        term *= (j + 1) / (j + 2) * c2
        j += 2
    if df % 2:
        return 2 / math.pi * (theta + math.sin(theta) * total)
    return math.sin(theta) * total


def _t_critical(df: int) -> float:
    """Student t 0.975 quantile: the table up to df = 64, beyond it the root
    of A(t | df) = 0.95, bisected in theta until the bracket stops shrinking."""
    if df <= len(_T975):
        return _T975[df - 1]
    lo, hi = 0.0, math.pi / 2
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return math.sqrt(df) * math.tan(mid)
        if _t_central_mass(mid, df) < 0.95:
            lo = mid
        else:
            hi = mid


def exponent_fit(points) -> ExponentFit:
    """OLS of ln(y) on ln(n) with a t-based 95% CI from the residuals."""
    pts = [(float(n), float(y)) for n, y in points]
    if len(pts) < 3:
        raise InvalidParameterError(f"need >= 3 points, got {len(pts)}")
    if not all(0 < v < math.inf for pt in pts for v in pt):
        raise InvalidParameterError("exponent fit needs finite positive n and y")
    if len({n for n, _ in pts}) < 2:
        raise InvalidParameterError("exponent fit needs >= 2 distinct n")
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
    tcrit = _t_critical(df)
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


# ExperimentPlan.process of each cluster process -> its ClusterProcessConfig.growth
_CLUSTER_GROWTH = {
    "line_clusters": "line",
    "fpp_clusters": "fpp",
    "diagonal_grid_clusters": "diagonal",
}


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
        sizes = tuple(integral("sizes", n) for n in self.sizes)
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise InvalidParameterError("size sweep must be strictly increasing")
        if len(sizes) < 3:
            raise InvalidParameterError("size sweep needs >= 3 points for regression")
        if self.log_correction not in _LOG_DIVISOR:
            raise InvalidParameterError(f"unknown log_correction {self.log_correction!r}")
        if self.process != "simulate" and self.process not in _CLUSTER_GROWTH:
            raise InvalidParameterError(f"unknown process {self.process!r}")
        if isinstance(self.mu_eff, str) and self.mu_eff != "log2n":
            raise InvalidParameterError(f"mu_eff must be a real or 'log2n', got {self.mu_eff!r}")
        object.__setattr__(self, "sizes", sizes)
        for name in ("replicates", "dim", "initial_infected"):
            object.__setattr__(self, name, integral(name, getattr(self, name)))
        if self.replicates < 1:
            raise InvalidParameterError(f"replicates must be >= 1, got {self.replicates}")
        if self.occupancy != "logn":
            object.__setattr__(self, "occupancy", integral("occupancy", self.occupancy))
        if self.event_budget is not None:
            object.__setattr__(self, "event_budget", integral("event_budget", self.event_budget))


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
    fits: dict[str, ExponentFit | None]  # log_correction -> its fit, None below 3 rows
    log_correction: str
    master_seed: int
    incomplete: bool
    runtime_seconds: float
    plan_echo: dict

    @property
    def fit(self) -> ExponentFit | None:  # the one the plan's log_correction selects
        return self.fits[self.log_correction]

    @property
    def exponent(self) -> float:
        f = self.fit
        if f is None:
            raise InvalidParameterError("report has no fit (fewer than 3 rows)")
        return f.slope


def build_graph(plan: ExperimentPlan, n: int) -> Graph:
    seed = derive_seed(plan.seed, (n << 2) | _P_GRAPH)
    return make_graph(plan.family, n, plan.dim, plan.rgg_radius, seed)


def _resolve_cluster_cfg(plan: ExperimentPlan, n: int) -> ClusterProcessConfig:
    mu = plan.mu_eff
    if mu == "log2n":
        mu = math.log(n) ** 2
    occ = plan.occupancy
    if occ == "logn":
        occ = max(1, math.ceil(math.log(n)))
    return ClusterProcessConfig(
        growth=_CLUSTER_GROWTH[plan.process],
        target_count=n,
        seeding_rate=plan.seeding_rate,
        beta=plan.beta,
        dim=plan.dim,
        mu_eff=float(mu),
        occupancy=occ,
        seed=derive_seed(plan.seed, (n << 2) | _P_PROCESS),
    )


def _sample_times(plan: ExperimentPlan, n: int) -> tuple[int, list[float], int]:
    """Realized size, finish-time sample and the event count spent
    producing it (a grid realizes side**d <= n nodes)."""
    if plan.process == "simulate":
        g = build_graph(plan, n)
        handle = build_policy(plan.policy, g)
        ecfg = EngineConfig(
            beta=plan.beta,
            initial_infected=plan.initial_infected,
            seed=derive_seed(plan.seed, (n << 2) | _P_ENGINE),
        )
        batch = simulate_batch(g, handle, ecfg, plan.replicates)
        return g.n, finish_times(batch), sum(batch.events)
    times, events = sample_hits(_resolve_cluster_cfg(plan, n), plan.replicates)
    return n, times, sum(events)


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
        if size < 2:  # ln 1 = 0 would divide a fit by zero
            raise InvalidParameterError(
                f"size {n} realizes {size} node(s); a log-log fit needs at least 2"
            )
        if rows and size <= rows[-1].n:
            raise InvalidParameterError(
                f"size {n} realizes {size} nodes, no more than the size before it "
                f"({rows[-1].n}); realized sizes must be strictly increasing"
            )
        rows.append(summarize(size, times, events))
        total_events += events
        if plan.event_budget is not None and total_events > plan.event_budget:
            incomplete = len(rows) < len(plan.sizes)
            break
    fits = {
        c: exponent_fit([(r.n, r.mean / div(r.n)) for r in rows]) if len(rows) >= 3 else None
        for c, div in _LOG_DIVISOR.items()
    }
    echo = asdict(plan)
    echo["policy"].pop("partition", None)
    report = ScalingReport(
        rows=rows,
        fits=fits,
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


def _sorted_deciles(rows: np.ndarray) -> np.ndarray:
    """The ``DECILES`` of each row of ``rows``, which are sorted, one row of
    deciles each: numpy's ``linear`` quantile rule read straight off the two
    order statistics a <= b around (n - 1) q, with gamma its fractional
    part. The value is a + (b - a) gamma, or b - (b - a) (1 - gamma) where
    gamma >= 0.5, the arithmetic ``np.quantile`` does, so every value is
    the same. Needs n >= 2."""
    pos = (rows.shape[1] - 1) * np.asarray(DECILES)
    below = np.floor(pos)
    gamma = pos - below
    at = below.astype(np.intp)
    a = rows[:, at]
    b = rows[:, at + 1]
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)


def dominance_report(sample_a, sample_b, *, seed: int = 0) -> DominanceVerdict:
    """One-sided bootstrap check that sample_a <=_st sample_b by deciles.

    Decile q is a violation when even the 95th percentile of the
    ``_N_BOOT``-resample bootstrap distribution of decile_b - decile_a is
    negative (ties and noise-level crossings are allowed).
    """
    a = np.asarray(list(sample_a), dtype=float)
    b = np.asarray(list(sample_b), dtype=float)
    if a.size < 100 or b.size < 100:
        raise InvalidParameterError(
            f"dominance report needs >= 100 points per sample, got {a.size} and {b.size}"
        )
    qa = np.quantile(a, DECILES, method="linear")
    qb = np.quantile(b, DECILES, method="linear")
    # Each row of one integers() call draws a resample of a, then one of b,
    # the very values of a loop of per-sample calls; chunks of rows cap the
    # memory. A bounded draw takes one 32-bit word per element whether its
    # bound is a scalar or an array, so equal sizes pass the faster scalar.
    rng = substream(seed, 0, CH_BOOTSTRAP)
    na, nb = a.size, b.size
    high = na if na == nb else np.repeat([na, nb], [na, nb])
    rows = max(1, _BOOT_CHUNK_BYTES // (8 * (na + nb)))
    boot = np.empty((_N_BOOT, len(DECILES)))
    for lo in range(0, _N_BOOT, rows):
        idx = rng.integers(0, high, size=(min(rows, _N_BOOT - lo), na + nb))
        ra = np.sort(a[idx[:, :na]], axis=1)
        rb = np.sort(b[idx[:, na:]], axis=1)
        boot[lo : lo + len(idx)] = _sorted_deciles(rb) - _sorted_deciles(ra)
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


def _two_phase(g, partition, L, mode, seed, replicates, beta) -> list[float]:
    runs = two_phase_process(g, partition, L, mode, seed, replicates, beta)
    return [tp.finish_time for tp in runs]


def _line_hits(g, partition, L, mode, seed, replicates, beta) -> list[float]:
    cfg = ClusterProcessConfig("line", g.n, seeding_rate=L, beta=beta, seed=seed)
    return sample_hitting_times(cfg, replicates)


class _Pairing(NamedTuple):
    kind: str  # the policy, built by build_policy
    bound: Callable[..., list[float]]  # finish times of the bounding process
    upper: bool  # an upper bound runs on a partition and is sample b, a lower one sample a
    label: str  # "a <=st b"


# ``sim dominate`` mode -> its pairing
_DOMINANCE_MODES = {
    "homogeneous": _Pairing(
        "random_homogeneous", _two_phase, True, "random_homogeneous <=st two_phase[homogeneous]"
    ),
    "sequential": _Pairing("gsi", _two_phase, True, "gsi <=st two_phase[sequential]"),
    "line_vs_adversary": _Pairing(
        "greedy_frontier_adversary",
        _line_hits,
        False,
        "line_clusters <=st greedy_frontier_adversary",
    ),
}


def dominance_check(
    g: Graph,
    mode: str,
    L: float,
    replicates: int,
    seed: int,
    beta: float = 1.0,
    partition: Partition | None = None,
) -> tuple[str, DominanceVerdict]:
    """Matched batches of a policy and the process that bounds it, for one
    ``sim dominate`` mode: ``homogeneous``, ``sequential`` (two-phase upper
    bounds, on ``partition``, by default the canonical one) or
    ``line_vs_adversary`` (line clusters below the greedy adversary, on
    rings and lines only). Returns the label ``a <=st b`` and the verdict.
    """
    pairing = _DOMINANCE_MODES.get(mode)
    if pairing is None:
        raise InvalidParameterError(f"unknown dominate mode {mode!r}")
    if not pairing.upper and g.family not in ("ring", "line"):
        raise InvalidParameterError(
            f"{mode} bounds spreading on ring and line graphs only, not {g.family}"
        )
    if pairing.upper and partition is None:
        partition = canonical_partition(g, L)
    handle = build_policy(PolicySpec(kind=pairing.kind, L=L, partition=partition), g)
    real = finish_times(simulate_batch(g, handle, EngineConfig(beta=beta, seed=seed), replicates))
    bound = pairing.bound(g, partition, L, mode, seed, replicates, beta)
    a, b = (real, bound) if pairing.upper else (bound, real)
    return pairing.label, dominance_report(a, b, seed=seed)


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
        "fits": {c: _fit_dict(f) for c, f in report.fits.items()},
        "incomplete": report.incomplete,
        "runtime_seconds": report.runtime_seconds,
        "plan": report.plan_echo,
        "rows": [asdict(r) for r in report.rows],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_gnuplot(report: ScalingReport, path: str) -> None:
    """Two-column file (n, fitted y) ready for a log-log plot."""
    with open(path, "w") as fh:
        fh.write("# n y\n")
        div = _LOG_DIVISOR[report.log_correction]
        for r in report.rows:
            fh.write(f"{r.n} {r.mean / div(r.n):.17g}\n")
