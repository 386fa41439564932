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
state). The arrivals come after the departure and touch the queue alone,
so the kernels factor further: U = I x A and S_k = M_k (I x A), where A is
the (Q+1) x (Q+1) arrival kernel of one queue, I spans the K+1 battery
levels and M_k is node k's battery move and departure (`factors`, built
from the per-node arrays `kernel_model` stores beside the rows).
`value_iteration` applies the factors as mode products on v viewed as an
(m,)*N tensor, node 0 on the slowest axis:

    Q(., k) = common + (rS_k - rU)(s_k) + M_k along axis k of w
    w       = omega * (I x A) x ... x (I x A) v
    common  = sum over all nodes n of rU(s_n)

where rU and rS_k are the kernels' expected one-slot losses per local
state, and omega is the params' `discount`; the stopping tolerance is their
`vi_tol` (see `value_iteration`). Only `common` and w are joint-sized; each
action's correction is an m-vector along its own axis. The arrivals are
the same under every action, so w is formed once a sweep: N products with
A along the queue axes, then one with M_k per action. A sweep costs
O(N m^(N+1)) flops. Every product reads its operand through a C-contiguous
view (`_apply_axis`). Through a transposed view, 350 m-wide products at
N=3 took 45-53 ms, but 1.1-1.4 s once the process had slept 5 s, with two
BLAS threads on 2 cores; the contiguous forms took 49-71 ms after the same
sleep.

Stopping. The solve stops when the sup-norm of Tv - v drops below
tol * (1 - omega) / (2 * omega), the standard test that puts the returned
Tv within tol/2 of the optimal values and its greedy policy within tol of
optimal. A sweep that does not stop first shifts Tv by one constant, the
midpoint of MacQueen's bounds. It then mixes the shifted Tv with the last
ANDERSON_DEPTH sweeps (type-II Anderson acceleration). It falls back to the
plain shifted step, with the history cleared, when the residual rises
above ANDERSON_RISE times its best since the last fallback or that best is
ANDERSON_STALL sweeps old; the min in T makes the map nonsmooth, where
mixing alone has no convergence guarantee. At N=3 and the defaults plain
value iteration takes 276 sweeps, the shift alone 229 and the shift with
mixing 44. References: MacQueen, J. Math. Anal. Appl. 14, 1966; Puterman,
Markov Decision Processes, 1994, Thm 6.3.1 and Sec. 6.6; Walker & Ni, SIAM
J. Numer. Anal. 49(4), 2011; Zhang, O'Donoghue & Boyd, SIAM J. Optim.
30(4), 2020.

What is proved and what is tested. The stopping bound holds at any
iterate, so mixing keeps it: the returned values are within tol/2 of the
optimal values and the policy within tol of optimal. That the policy is
also the one plain value iteration returns is not proved. With the shift
alone it was, since a constant moves every action's Q alike; mixed
iterates are other vectors. Tests pin it on the desk instances and at N=3.

Memory. The joint-sized arrays are v, Tv, `common`, Q (N rows), two work
rows and the mixing history, 2 * ANDERSON_DEPTH rows, 2 * depth * S * 8
bytes. The history stays float64: float32 rounding in the iterates would
part actions whose Q ties (see Ties). At N=3 (S = 74,088) and depth 4 the
history is 4.7 MB; at N=4 (S = 3.11 M) about 200 MB.

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
# Anderson mixing in value_iteration: the sweeps mixed, the ridge weight
# relative to the mean diagonal of their Gram matrix, and the fallback to
# the plain step: a residual above ANDERSON_RISE times the best since the
# last fallback, or ANDERSON_STALL sweeps without a new best
ANDERSON_DEPTH = 4
ANDERSON_REG = 1e-10
ANDERSON_RISE = 10.0
ANDERSON_STALL = 10
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
    are those of `params`. The solve reads the same law in factors
    (`factors`): per kernel and local state the battery level after the slot
    (`after`) and P(D = 1) (`departs`), and the arrivals' pmf (`arrivals`).
    """

    params: NetworkParams
    row_ptr: np.ndarray
    next_state: np.ndarray
    prob: np.ndarray
    reward: np.ndarray
    after: np.ndarray
    departs: np.ndarray
    arrivals: np.ndarray

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

    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        """The arrival kernel A over one queue's Q+1 lengths, and per kernel j
        the n_local x n_local move M_j of the battery and the departure, dense.

        The departure comes before the slot's arrivals, which touch the queue
        alone, so kernel j is M_j (I x A), I over the battery levels.
        """
        cap = self.params.queue_cap
        length = np.arange(cap + 1)[:, None]
        arrival = np.zeros((cap + 1, cap + 1))
        np.add.at(arrival, (length, np.minimum(length + np.arange(self.arrivals.size), cap)),
                  self.arrivals)
        kernels, m = self.departs.shape
        queue = np.arange(m) % (cap + 1)
        moves = np.zeros((kernels, m, m))
        for d, prob in ((0, 1.0 - self.departs), (1, self.departs)):
            # D = 1 has probability 0 wherever the queue is empty
            target = self.after * (cap + 1) + np.maximum(queue - d, 0)
            np.add.at(moves, (np.arange(kernels)[:, None], np.arange(m), target), prob)
        return arrival, moves


def kernel_model(params: NetworkParams, profiles: list[NodeEnergyProfile]) -> TransitionModel:
    """The kernels U, S_0, ..., S_{N-1} of the per-node law, as rows and in
    factors; O(N * per-node states)."""
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
    after, departs = np.array(after), np.array(departs)
    pmf = arrival_pmf(params)
    # outcome axes after the local state: departure D in (0, 1), then arrivals X
    level = queue[:, None, None] - np.array([0, 1])[:, None] + np.arange(pmf.size)
    d1 = departs[..., None, None]
    prob = np.concatenate([1.0 - d1, d1], axis=2) * pmf
    nxt = after[..., None, None] * (Q + 1) + np.minimum(level, Q)
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
        after=after,
        departs=departs,
        arrivals=pmf,
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
    fallbacks: int                # sweeps that took the plain step, dropping the history
    residual: float
    residual_history: list[float]
    params: NetworkParams


def _apply_axis(kernel: np.ndarray, x: np.ndarray, before: int, out: np.ndarray) -> None:
    """Apply a square kernel along one axis of the flat tensor x, into out.

    `before` is the product of the sizes of the axes before it. Both forms
    read x through a C-contiguous view: one gemm per index of the axes
    before, or, on the last axis, one gemm by the kernel's transpose. That
    transpose is copied: through a transposed view, the (Q+1)-wide arrival
    kernel's product runs about 3.5 times slower.
    """
    k = kernel.shape[0]
    after = x.size // (before * k)
    if after == 1:
        np.matmul(x.reshape(before, k), np.ascontiguousarray(kernel.T),
                  out=out.reshape(before, k))
    else:
        np.matmul(kernel, x.reshape(before, k, after), out=out.reshape(before, k, after))


class _Backup:
    """Bellman backups of one model in factored form, into arrays it owns.

    The one-slot cost splits into `common`, the sum over nodes of rU, which
    every action shares, and action k's correction rS_k - rU along axis k.
    A call leaves in `q` each action's Q minus `common`. Adding `common`
    after the minimum over actions gives the same bits as adding it before,
    since rounding is monotone. Between calls the rows of `work` are free.
    """

    def __init__(self, model: TransitionModel):
        n, w = model.n_actions, model.params.discount
        self.arrival, moves = model.factors()
        cost = model.expected(model.reward)
        self.common = np.zeros(1)
        for _ in range(n):
            self.common = np.add.outer(self.common, cost[0]).reshape(-1)
        self.corrections = cost[1:] - cost[0]
        # the selected nodes' moves carry the discount, so they land in q scaled
        self.moves = w * moves[1:]
        # sweeps write into these: allocating fresh joint-sized arrays each sweep
        # costs about as much as the kernel products themselves
        self.q = np.empty((n, model.n_states))
        self.work = np.empty((2, model.n_states))

    def __call__(self, v: np.ndarray) -> np.ndarray:
        q, work = self.q, self.work
        m = self.moves.shape[1]
        batteries = m // self.arrival.shape[0]
        # the slot's arrivals, the same under every action: A along each
        # queue axis, the battery axes untouched
        x = v
        for k in range(len(q)):
            _apply_axis(self.arrival, x, m ** k * batteries, work[k % 2])
            x = work[k % 2]
        for k, move in enumerate(self.moves):
            _apply_axis(move, x, m ** k, q[k])
            q[k].reshape(m ** k, m, -1)[...] += self.corrections[k][:, None]
        return q


class _Anderson:
    """Type-II Anderson mixing over the last `depth` sweeps (Walker & Ni, 2011).

    Row i of `df` and `dg` holds, when `pairs[i]`, the change between two
    consecutive sweeps of the shifted residual f and of the shifted Tv g;
    row `last` holds the last sweep's own f and g. `gram` holds the inner
    products of the df rows, updated one row per sweep.
    """

    def __init__(self, depth: int, n_states: int):
        self.df = np.zeros((depth, n_states))
        self.dg = np.zeros((depth, n_states))
        self.gram = np.zeros((depth, depth))
        self.pairs = np.zeros(depth, dtype=bool)
        self.last: int | None = None

    def clear(self) -> bool:
        """Forget every sweep; True when that changes the next step."""
        primed = self.last is not None
        self.pairs[:] = False
        self.last = None
        return primed

    def mix(self, f: np.ndarray, g: np.ndarray, scratch: np.ndarray) -> None:
        """Replace g by g - dG gamma, gamma the regularized least-squares fit of f
        by dF; then remember this sweep's f and g (before the mix)."""
        depth = self.pairs.size
        if not depth:
            return
        i = self.last
        if i is not None:
            np.subtract(f, self.df[i], out=self.df[i])
            np.subtract(g, self.dg[i], out=self.dg[i])
            self.pairs[i] = True
            self.gram[i] = self.gram[:, i] = self.df @ self.df[i]
            used = np.flatnonzero(self.pairs)
            gram = self.gram[np.ix_(used, used)]
            scale = np.trace(gram) / used.size
            gamma = np.zeros(depth)
            if scale > 0.0:  # else every df row is 0, and so is the fit
                gram.flat[::used.size + 1] += ANDERSON_REG * scale
                gamma[used] = np.linalg.solve(gram, (self.df @ f)[used])
            np.dot(gamma, self.dg, out=scratch)
        self.last = 0 if i is None else (i + 1) % depth
        self.df[self.last] = f
        self.dg[self.last] = g
        self.pairs[self.last] = False
        if i is not None:
            g -= scratch


def greedy_policy(q: np.ndarray) -> np.ndarray:
    """Per state (column of q), the lowest action within the tie tolerance of the minimum."""
    best = q.min(axis=0)
    return np.argmax(q <= best + TIE_RTOL * np.maximum(1.0, np.abs(best)), axis=0)


def value_iteration(model: TransitionModel) -> ValueIterationResult:
    """Solve the discounted model to the standard stopping bound, with MacQueen's
    shift and Anderson mixing.

    The discount omega and the tolerance tol are the params' `discount` and
    `vi_tol`. Each sweep maps the iterate v to Tv and takes lo and hi, the
    least and greatest entry of Tv - v. It stops when the residual
    max(-lo, hi) = ||Tv - v|| drops below tol * (1 - omega) / (2 * omega),
    and returns Tv with the policy greedy on that sweep's Q. Otherwise it
    shifts: g = Tv + c, c = omega / (1 - omega) * (lo + hi) / 2. As
    T(v + c) = Tv + omega * c, the plain next iterate g has residual at most
    omega * (hi - lo) / 2. The next iterate is g mixed with the last
    ANDERSON_DEPTH sweeps (`_Anderson`), unless the residual is above
    ANDERSON_RISE times the best since the last fallback, or that best is
    ANDERSON_STALL sweeps old: then the history is dropped and the next
    iterate is g. The stopping bound needs only that the returned values
    are T of the final iterate, so they stay within tol/2 of the optimal
    values and the policy's value within tol of optimal, whatever the
    iterates were. Raises ValueIterationError after MAX_SWEEPS sweeps.

    The kernel products go through BLAS, whose summation order depends on
    its thread count, so the values are reproducible only to rounding across
    thread counts (at N=3 only the product along axis 0, the one gemm over
    the whole tensor, differs). Mixing feeds that rounding back into the
    iterates, so the sweep count can differ too: at N=3 and bs_power 1.0, 96
    sweeps at one thread and 95 at two, with the same policy. Tests pin that
    the policy agrees at 1 and 2 threads for N=3 at the defaults and at
    bs_power 1.0, and the sweep count at the defaults (44 each).
    """
    p = model.params
    w = p.discount
    if not (0.0 <= w < 1.0):
        raise ValueError(f"discount {w} outside [0, 1)")
    threshold = p.vi_tol * (1.0 - w) / (2.0 * w) if w > 0 else np.inf

    backup = _Backup(model)
    anderson = _Anderson(ANDERSON_DEPTH, model.n_states)
    v, v_next = np.zeros(model.n_states), np.empty(model.n_states)
    history: list[float] = []
    best, stale, fallbacks = np.inf, 0, 0
    for sweep in range(1, MAX_SWEEPS + 1):
        q = backup(v)
        # one elementwise pass per action: np.min over axis 0 is slower
        np.minimum(q[0], q[-1], out=v_next)
        for row in q[1:-1]:
            np.minimum(v_next, row, out=v_next)
        v_next += backup.common
        diff = np.subtract(v_next, v, out=backup.work[0])
        lo, hi = float(diff.min()), float(diff.max())
        residual = max(-lo, hi)
        history.append(residual)
        if residual < threshold:
            del anderson  # the policy's temporaries reuse its memory
            q += backup.common
            return ValueIterationResult(
                values=v_next, policy=greedy_policy(q), sweeps=sweep, fallbacks=fallbacks,
                residual=residual, residual_history=history, params=p,
            )
        if residual < best:
            best, stale = residual, 0
        else:
            stale += 1
        if residual > ANDERSON_RISE * best or stale >= ANDERSON_STALL:
            fallbacks += anderson.clear()
            best, stale = residual, 0
        shift = w / (1.0 - w) * (lo + hi) / 2.0
        v_next += shift
        diff += shift
        anderson.mix(diff, v_next, backup.work[1])
        v, v_next = v_next, v
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
    lookups. `profiles` are the energy profiles of `params`.
    """

    def __init__(self, params: NetworkParams, profiles: list[NodeEnergyProfile]):
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
