"""Centralized scheduling MDP: per-node kernels, value iteration, per-slot choosers.

States are joint (battery, queue) tuples over all nodes; the action set is
the selected node (modulation is pre-folded, see the energy module). The
cost of a slot is the number of packets dropped to buffer overflow, so the
solved value function reads as expected discounted packet loss.

The per-node law, written once in `kernel_model`. Over a slot a node
receives X ~ Binomial(k, lambda) packets (`arrival_pmf`: k =
`arrivals_per_slot` opportunities of probability `arrival_prob` each, as
the simulator draws them). A selected node that can transmit departs
D = 1 packet with probability ps and D = 0 otherwise, its battery moving by
the net harvest quantum either way (the downlink charges the node even
after a corrupted packet); every other node departs none. The packet leaves
before the slot's arrivals, so the next queue is min(Q, q - D + X) and the
slot drops max(0, q - D + X - Q) packets. Each kernel row stores one entry
per (D, X) outcome with that drop count as its reward, so the row's
sum of prob * reward is the expected loss by construction.

Product form. Under action k, node k moves by its selected kernel S_k and
every other node by the shared arrival-only kernel U, independently, and
the cost is a sum over nodes. So the joint law is never enumerated:
`build_model` stores the N+1 per-node kernels U, S_0, ..., S_{N-1} as
sparse rows over the m = (K+1)(Q+1) local states (row = kernel * m + local
state), and `value_iteration` applies them as mode products on v viewed
as an (m,)*N tensor, node 0 on the slowest axis:

    Q(., k) = base_k + omega * (U x ... x S_k x ... x U) v
    base_k  = sum over n != k of rU(s_n), plus rS_k(s_k)

where rU and rS_k are the kernels' expected one-slot losses per local
state, and omega is the params' `discount`; the stopping tolerance is their
`vi_tol` (see `value_iteration`). The U products along the axes after k are
shared between actions. A sweep costs O(N^2 m^(N+1)) flops; the
joint-sized storage is v and the (N, m^N) array Q.

Stopping. The solve stops when the sup-norm of Tv - v drops below
tol * (1 - omega) / (2 * omega), the standard test that puts the returned
Tv within tol/2 of the optimal values and its greedy policy within tol of
optimal. A sweep that does not stop shifts Tv by one constant, the midpoint
of MacQueen's bounds (see `value_iteration`). The kernels are stochastic,
so a constant moves every action's Q alike: each sweep's greedy policy is
that of the same sweep of plain value iteration, while the residual falls
with the span of Tv - v, not its sup-norm (229 sweeps against 276 at N=3).
References: MacQueen, J. Math. Anal. Appl. 14, 1966; Puterman, Markov
Decision Processes, 1994, Thm 6.3.1 and Sec. 6.6.

Ties. The policy takes the lowest node index among the actions whose Q
lies within TIE_RTOL * max(1, |min Q|) of the minimum, so actions equal up
to rounding do not get ordered by summation order.

Budget. `check_budget`, which `build_model` applies, refuses a joint state
count m^N above its budget (200,000 states by default: N=3 has 74,088 at
the defaults, N=4 has 3.1 M).
`kernel_model` itself has none: the kernels are O(N m) at any N.

Boundary conventions (the interior cases follow the law above; the
boundaries need explicit choices):
  * a selected node with an empty queue, or with too little battery to
    afford one transmission, spends the slot charging only: it departs
    nothing and its battery jumps by the full-slot harvest quantum;
  * batteries clamp to [0, K] (overcharge is wasted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NetworkParams
from .energy import NodeEnergyProfile, energy_profiles, packet_success_prob

DEFAULT_STATE_BUDGET = 200_000
# value_iteration raises ValueIterationError after this many sweeps
MAX_SWEEPS = 100_000
# actions whose Q values differ by less than this, relative, count as tied
TIE_RTOL = 1e-12


class StateSpaceBudgetError(RuntimeError):
    def __init__(self, count: int, budget: int):
        super().__init__(
            f"joint state space has {count} states, exceeding the budget of {budget}"
        )
        self.count = count
        self.budget = budget


class ValueIterationError(RuntimeError):
    pass


def arrival_pmf(params: NetworkParams) -> np.ndarray:
    """P(X = x), x = 0..k: the packets one node receives over a slot, Binomial(k, lambda)."""
    k, lam = params.arrivals_per_slot, params.arrival_prob
    return np.array([math.comb(k, x) * lam**x * (1.0 - lam) ** (k - x) for x in range(k + 1)])


@dataclass
class TransitionModel:
    """The N+1 per-node kernels whose products make up the joint law.

    Kernel 0 is the arrival-only kernel U shared by every unselected node;
    kernel 1 + k is node k's selected kernel S_k. Each spans the n_local
    per-node states, and row r = kernel * n_local + local state spans
    entries [row_ptr[r], row_ptr[r+1]) of (local next state, probability,
    packets dropped), one entry per (departure, arrivals) outcome. The sizes
    are those of `params`.
    """

    params: NetworkParams
    row_ptr: np.ndarray
    next_state: np.ndarray
    prob: np.ndarray
    reward: np.ndarray

    @property
    def n_actions(self) -> int:
        return self.params.n_nodes

    @property
    def n_local(self) -> int:
        return self.params.per_node_states

    @property
    def n_states(self) -> int:
        return self.params.joint_state_count

    def expected(self, values: np.ndarray) -> np.ndarray:
        """Per kernel (rows) and local state (columns), the mean of per-entry `values`."""
        rows = np.repeat(np.arange(self.row_ptr.size - 1), np.diff(self.row_ptr))
        sums = np.bincount(rows, weights=self.prob * values, minlength=self.row_ptr.size - 1)
        return sums.reshape(-1, self.n_local)

    def kernel(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Kernel j as a dense n_local x n_local matrix, with its expected loss per row."""
        m = self.n_local
        ptr = self.row_ptr[j * m:(j + 1) * m + 1]
        lo, hi = ptr[0], ptr[-1]
        rows = np.repeat(np.arange(m), np.diff(ptr))
        matrix = np.zeros((m, m))
        np.add.at(matrix, (rows, self.next_state[lo:hi]), self.prob[lo:hi])
        return matrix, self.expected(self.reward)[j]


def kernel_model(params: NetworkParams, profiles: list[NodeEnergyProfile]) -> TransitionModel:
    """The kernels U, S_0, ..., S_{N-1} of the per-node law; O(N * per-node states)."""
    K, Q = params.battery_levels, params.queue_cap
    battery, queue = np.divmod(np.arange(params.per_node_states), Q + 1)
    ps = packet_success_prob(params)
    # per kernel and local state: the battery after the slot, and P(D = 1)
    after, departs = [battery], [np.zeros(battery.size)]
    for prof in profiles:
        tx = (queue >= 1) & (battery >= prof.min_tx_level)
        gain = np.where(tx, prof.delta_levels, prof.harvest_only_levels)
        after.append(np.clip(battery + gain, 0, K))
        departs.append(np.where(tx, ps, 0.0))
    departs = np.array(departs)[..., None, None]
    pmf = arrival_pmf(params)
    # outcome axes after the local state: departure D in (0, 1), then arrivals X
    level = queue[:, None, None] - np.array([0, 1])[:, None] + np.arange(pmf.size)
    prob = np.concatenate([1.0 - departs, departs], axis=2) * pmf
    nxt = np.array(after)[..., None, None] * (Q + 1) + np.minimum(level, Q)
    dropped = np.broadcast_to(np.maximum(level - Q, 0), prob.shape)
    prob, nxt, dropped = (a.reshape(-1, 2 * pmf.size) for a in (prob, nxt, dropped))
    keep = prob > 0.0
    row_ptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    sums = np.add.reduceat(prob[keep], row_ptr[:-1])
    bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-12)
    if bad.size:
        raise AssertionError(f"kernel row {bad[0]} sums to {sums[bad[0]]!r}")
    return TransitionModel(
        params=params,
        row_ptr=row_ptr.astype(np.int64),
        next_state=nxt[keep].astype(np.int64),
        prob=prob[keep],
        reward=dropped[keep].astype(np.float64),
    )


def check_budget(params: NetworkParams, budget: int) -> None:
    """Raise StateSpaceBudgetError when the joint state space exceeds `budget`."""
    n_states = params.joint_state_count
    if n_states > budget:
        raise StateSpaceBudgetError(n_states, budget)


def build_model(params: NetworkParams, budget: int = DEFAULT_STATE_BUDGET) -> TransitionModel:
    """The kernels of an exactly solvable model; refuses joint spaces above `budget`."""
    check_budget(params, budget)
    return kernel_model(params, energy_profiles(params))


@dataclass
class ValueIterationResult:
    values: np.ndarray            # expected discounted packet loss per state
    policy: np.ndarray            # minimizing node per state, lowest index on ties
    sweeps: int
    residual: float
    residual_history: list[float]
    params: NetworkParams


def _apply_last_axis(kernel: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Apply an m x m kernel along the last axis of x and rotate that axis to the front.

    x is a flat (m,)*N tensor; out receives the result, flat, with axis order
    (last, first, ..., second to last). N such steps restore the order.
    """
    m = kernel.shape[0]
    np.matmul(kernel, x.reshape(-1, m).T, out=out.reshape(m, -1))
    return out


def greedy_policy(q: np.ndarray) -> np.ndarray:
    """Per state (column of q), the lowest action within the tie tolerance of the minimum."""
    best = q.min(axis=0)
    return np.argmax(q <= best + TIE_RTOL * np.maximum(1.0, np.abs(best)), axis=0)


def value_iteration(model: TransitionModel) -> ValueIterationResult:
    """Solve the discounted model to the standard stopping bound, with MacQueen's shift.

    The discount omega and the tolerance tol are the params' `discount` and
    `vi_tol`. Each sweep maps the iterate v to Tv and takes lo and hi, the
    least and greatest entry of Tv - v. It stops when the residual
    max(-lo, hi) = ||Tv - v|| drops below tol * (1 - omega) / (2 * omega),
    and returns Tv with the policy greedy on that sweep's Q. Otherwise the
    next sweep starts from Tv + omega / (1 - omega) * (lo + hi) / 2. As
    T(v + c) = Tv + omega * c, the next residual is at most omega * (hi - lo)
    / 2. The stopping bound needs only that the returned values are T of
    the final iterate, so they stay within tol/2 of the optimal values and
    the policy's value within tol of optimal. Raises ValueIterationError
    after MAX_SWEEPS sweeps.

    The kernel products go through BLAS, whose summation order depends on
    its thread count, so the values are reproducible only to rounding across
    thread counts. The policy and the sweep count agree at 1 and 2 threads
    (N=3, defaults), which a test pins.
    """
    p = model.params
    w = p.discount
    if not (0.0 <= w < 1.0):
        raise ValueError(f"discount {w} outside [0, 1)")
    threshold = p.vi_tol * (1.0 - w) / (2.0 * w) if w > 0 else np.inf

    n = model.n_actions
    kernels = [model.kernel(j) for j in range(n + 1)]
    arrival, arrival_cost = kernels[0]
    # base[k] = sum over nodes of the expected one-slot cost, node k selected
    base = np.empty((n, model.n_states))
    for k in range(n):
        acc = np.zeros(1)
        for node in range(n):
            cost = kernels[1 + k][1] if node == k else arrival_cost
            acc = np.add.outer(acc, cost).reshape(-1)
        base[k] = acc
    # action k's chain: S_k along axis k, then U along each axis before it;
    # its last kernel carries the discount, so the chain lands in q scaled
    chains = [[kernels[1 + k][0]] + [arrival] * k for k in range(n)]
    for chain in chains:
        chain[-1] = w * chain[-1]

    # sweeps write into these: allocating fresh joint-sized arrays each sweep
    # costs about as much as the kernel products themselves
    v, v_next = np.zeros(model.n_states), np.empty(model.n_states)
    q = np.empty_like(base)
    work = np.empty((2, model.n_states))
    suffixes = np.empty((2, model.n_states))
    history: list[float] = []
    for sweep in range(1, MAX_SWEEPS + 1):
        # suffix: v with U applied along every axis after k, those axes rotated
        # to the front, so axis k is last
        suffix = v
        for k in reversed(range(n)):
            x = suffix
            for i, kernel in enumerate(chains[k]):
                x = _apply_last_axis(kernel, x, q[k] if i == k else work[i % 2])
            if k:
                suffix = _apply_last_axis(arrival, suffix, suffixes[k % 2])
        q += base
        np.min(q, axis=0, out=v_next)
        diff = np.subtract(v_next, v, out=work[0])
        lo, hi = float(diff.min()), float(diff.max())
        residual = max(-lo, hi)
        history.append(residual)
        if residual < threshold:
            return ValueIterationResult(
                values=v_next, policy=greedy_policy(q), sweeps=sweep, residual=residual,
                residual_history=history, params=p,
            )
        v, v_next = v_next, v
        v += w / (1.0 - w) * (lo + hi) / 2.0
    raise ValueIterationError(
        f"no convergence after {MAX_SWEEPS} sweeps (last residual {history[-1]:.3e}, "
        f"threshold {threshold:.3e})"
    )


# -- per-slot action choosers -------------------------------------------------


class PolicyChooser:
    """Exact mode: the solved policy's action at the joint state, by table lookup.

    Holds only plain tables, so it pickles small (a list of node indices, not
    the solve's arrays) and is built once per scenario.
    """

    def __init__(self, result: ValueIterationResult):
        p = result.params
        self.policy: list[int] = result.policy.tolist()
        self.m = p.per_node_states
        self.width = p.queue_cap + 1

    def __call__(self, batteries: list[int], queues: list[int]) -> int:
        m, width = self.m, self.width
        idx = 0
        for b, q in zip(batteries, queues):
            idx = idx * m + b * width + q
        return self.policy[idx]


class MyopicChooser:
    """Approximate mode for joint spaces too large to enumerate.

    One-step lookahead on the kernels, with c_S and c_U the expected losses
    of S_n and U: selecting node n rather than leaving it to U changes this
    slot's expected loss by c_S(s) - c_U(s) and, with every node left to U
    in the next slot, that slot's by omega * ((S_n - U) c_U)(s); every
    other node's terms cancel out of the argmin. Documented heuristic
    stand-in for the exact policy; ties go to the longest queue, then the
    lowest battery, then the lowest index. A score depends only on the node
    and its own (battery, queue), so the sort keys are tabulated once. They
    are distinct (each carries its node), so one sort turns them into
    integer ranks, and a choice is the node of the least rank among N
    lookups. `profiles` default to those of `params`.
    """

    def __init__(self, params: NetworkParams,
                 profiles: list[NodeEnergyProfile] | None = None):
        if profiles is None:
            profiles = energy_profiles(params)
        model = kernel_model(params, profiles)
        cost = model.expected(model.reward)
        ahead = model.expected(cost[0][model.next_state])
        score = (cost[1:] - cost[0]) + params.discount * (ahead[1:] - ahead[0])
        width = params.queue_cap + 1
        keys = [
            [[(float(score[n, e * width + q]), -q, e, n) for q in range(width)]
             for e in range(params.battery_levels + 1)]
            for n in range(params.n_nodes)
        ]
        order = sorted(k for table in keys for row in table for k in row)
        rank = {k: r for r, k in enumerate(order)}
        self.node_of = [k[3] for k in order]
        self.ranks = [[[rank[k] for k in row] for row in table] for table in keys]

    def __call__(self, batteries: list[int], queues: list[int]) -> int:
        return self.node_of[min([table[e][q]
                                 for table, e, q in zip(self.ranks, batteries, queues)])]
