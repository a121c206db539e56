"""The traced round: profiler, policy timing proxy, per-layer counts.

A traced round runs the same work as an untraced one under the
standard-library profiler, with every policy handle wrapped in
``TimedPolicy``. From the profile it reads each module's self time and
exact call counts at the layer boundaries. Profiling slows pure-Python
code unevenly, so no end-to-end metric is ever taken from a traced
round; ``trace.overhead`` says by how much it slowed this one.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time

from agentspread import dominators, graphs, rng

HOOKS = (
    "reset",
    "rate_of",
    "total_rate",
    "healthy_rate",
    "sample_target",
    "internal_rate",
    "apply_internal",
    "on_infect",
)

MODULES = ("engine", "rng", "policies", "graphs", "dominators", "analytics")


class TimedPolicy:
    """Delegates every hook to a program policy handle, counting the calls
    and the time spent in them; other attributes read through."""

    def __init__(self, inner, tally):
        self._inner = inner
        for name in HOOKS:
            setattr(self, name, self._timed(getattr(inner, name), tally))

    @staticmethod
    def _timed(hook, tally):
        clock = time.perf_counter

        def call(*args):
            t = clock()
            try:
                return hook(*args)
            finally:
                tally[0] += 1
                tally[1] += clock() - t

        return call

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _key(module, path):
    """Profile key of ``module.path``; None once a refactor removes it."""
    obj = module
    for part in path.split("."):
        obj = getattr(obj, part, None)
    code = getattr(obj, "__code__", None)
    return code and (code.co_filename, code.co_firstlineno, code.co_name)


def _module_of(filename):
    head, base = os.path.split(filename)
    if os.path.basename(head) != "agentspread" or not base.endswith(".py"):
        return None
    return base[:-3]


def traced_round(run):
    """Run ``run(wrap)`` under the profiler; return its result, wall time,
    the profile and the hook tally [calls, seconds]."""
    tally = [0, 0.0]
    prof = cProfile.Profile()
    t = time.perf_counter()
    prof.enable()
    try:
        out = run(lambda handle: TimedPolicy(handle, tally))
    finally:
        prof.disable()
    return out, time.perf_counter() - t, prof, tally


def layer_counts(prof, tally, infections):
    """Per-layer traced metrics from one profile."""
    stats = pstats.Stats(prof).stats
    total_self = sum(v[2] for v in stats.values()) or 1.0
    self_time = dict.fromkeys(MODULES, 0.0)
    heap_pops = 0
    for (filename, _, name), (_, nc, tt, _, callers) in stats.items():
        mod = _module_of(filename)
        if mod in self_time:
            self_time[mod] += tt
        if name == "<built-in method _heapq.heappop>":
            heap_pops += sum(
                c[0] for (f, _, _), c in callers.items() if _module_of(f) == "engine"
            )

    def calls(module, *paths):
        return sum(stats.get(_key(module, p), (0, 0))[1] for p in paths)

    def cumulative(module, path):
        return stats.get(_key(module, path), (0, 0, 0.0, 0.0))[3]

    out = {f"{m}.self_share": self_time[m] / total_self for m in MODULES}
    out.update(
        {
            "graphs.bfs_calls": calls(graphs, "bfs_distances"),
            "graphs.gen_grid_s": cumulative(graphs, "gen_grid"),
            "engine.heap_pops": heap_pops,
            "engine.pops_per_infection": heap_pops / infections if infections else 0.0,
            "rng.reseeds": calls(rng, "reseed"),
            "rng.sampler_inits": calls(rng, "ExpSampler.__init__", "UniformSampler.__init__"),
            "rng.exp_draws": calls(rng, "ExpSampler.draw"),
            "rng.uniform_draws": calls(rng, "UniformSampler.draw"),
            "policies.hook_calls": tally[0],
            "policies.hook_s": tally[1],
            "dominators.grow_calls": calls(dominators, "_LatticeCluster.grow"),
        }
    )
    return out
