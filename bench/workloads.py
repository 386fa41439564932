"""The benchmark's workloads, each one `ExperimentSpec` built from a seed.

Every workload uses the default network and the default channel model.
The workload seed picks the simulation seeds and the channel-draw seed, so
one seed always gives the same inputs; seed 0 gives the default network
(channel seed 52), on which the seed program's exact counts were taken.

Why each workload exists (see README.md for the full table):

* ``solve-n3``: one exact N=3 solve with a short simulation behind it, so
  nearly all the time is `mdp.build_model` + `value_iteration`. It shows a
  solver change and predicts no change from a simulator change.
* ``contend``: N=10 and N=50, far above the state budget, so `ehmdp` runs
  the myopic chooser and nothing is solved. Time goes to the per-slot loop
  of `simulator` and the `eqat` controllers, in one process. The mirror
  image of ``solve-n3``.
* ``grid-ref``: the reference grid of N in {2, 3}, all strategies, on a
  2-worker pool. The serial solve in the parent before the pool starts caps
  its speed-up, so work that overlaps or parallelises the phases of
  `experiments` shows here and nowhere else.
"""

from __future__ import annotations

STRATEGIES = ("ehmdp", "fq", "rs", "eqat", "dfq", "rc")
DEFAULT_CHANNEL_SEED = 52

# full size: (n_nodes, t_hat, strategies, seeds per run, slots, workers)
WORKLOADS = {
    "solve-n3": ([3], [10], ["ehmdp"], 2, 2_000, 1),
    "contend": ([10, 50], [10], list(STRATEGIES), 5, 2_000, 1),
    "grid-ref": ([2, 3], [10], list(STRATEGIES), 5, 10_000, 2),
}

# smoke-test size: the same shape of grid, small enough for a unit test
TINY = {
    "solve-n3": ([2], [10], ["ehmdp"], 1, 50, 1),
    "contend": ([10, 50], [10], list(STRATEGIES), 1, 50, 1),
    "grid-ref": ([2], [10, 20], list(STRATEGIES), 1, 50, 2),
}


def make_spec(name: str, seed: int, tiny: bool = False):
    """The `ExperimentSpec` of workload `name` for workload seed `seed`."""
    from rwsnsim.experiments import ExperimentSpec

    table = TINY if tiny else WORKLOADS
    if name not in table:
        raise ValueError(f"unknown workload {name!r}; expected one of {sorted(table)}")
    n_nodes, t_hat, strategies, n_seeds, slots, workers = table[name]
    return ExperimentSpec(
        n_nodes=list(n_nodes),
        t_hat=list(t_hat),
        strategies=list(strategies),
        seeds=list(range(seed * n_seeds, (seed + 1) * n_seeds)),
        slots=slots,
        workers=workers,
        channel={"seed": DEFAULT_CHANNEL_SEED + seed},
    )


def strategy_sizes() -> list[tuple[str, int]]:
    """Every (strategy, N) pair some full-size workload simulates."""
    pairs = {(s, n) for n_nodes, _, strategies, *_ in WORKLOADS.values()
             for s in strategies for n in n_nodes}
    return sorted(pairs, key=lambda p: (STRATEGIES.index(p[0]), p[1]))
