"""Centralized scheduling MDP: per-node kernels, value iteration, per-slot choosers.

States are joint (battery, queue) tuples over all nodes; the action set is
the selected node (modulation is pre-folded, see the energy module). The
cost of a slot is the number of packets dropped to buffer overflow, so the
solved value function reads as expected discounted packet loss.

The per-node law, applied once in `build_model` to the battery moves that
`energy` tabulates and the simulator reads. Over a slot a node receives
X ~ Binomial(k, lambda) packets (`core.arrival_pmf`: k = `arrivals_per_slot`
opportunities of probability `arrival_prob` each, as the simulator draws
them). A selected node that can transmit departs D = 1 packet with
probability ps and D = 0 otherwise, its battery moving by the net harvest
quantum either way (the downlink charges the node even after a corrupted
packet); every other node departs none. The packet leaves before the slot's
arrivals, so the next queue is min(Q, q - D + X) and the slot drops
max(0, q - D + X - Q) packets.

Product form. Under action k, node k moves by its selected kernel S_k and
every other node by the shared arrival-only kernel U, independently, and
the cost is a sum over nodes. So the joint law is never enumerated:
`build_model` holds the N+1 per-node kernels U, S_0, ..., S_{N-1} over the
m = (K+1)(Q+1) local states. The arrivals come after the departure and
touch the queue alone, so the kernels factor further: U = I x A and
S_k = M_k (I x A), where A is the (Q+1) x (Q+1) arrival kernel of one
queue, I spans the K+1 battery levels and M_k is node k's battery move and
departure. `build_model` applies the tables once, assembling A and the
M_k, and derives rU (below) from the arrival law. The solve and both
choosers read A, the M_k and rU. The sparse rows, one entry per (nonzero
of M_k, arrival count X) with the packets it drops as its reward, are
derived from the M_k on first read, for the benchmark and the test oracles.

Every drop is a packet that arrives after the slot's departure and battery
move and finds the queue full. So a selected node's expected loss is its
move applied to the arrival-only loss, rS_k = M_k rU, with rU and rS_k the
kernels' expected one-slot losses per local state. A law that splits a
battery move over two levels (randomized rounding) keeps this, since it
only splits M's entries. Each row of M_k sums to 1, so M_k along axis k of
a sum over nodes leaves every other node's term and turns node k's rU into
rS_k. `value_iteration` therefore applies one form for every action, on v
viewed as an (m,)*N tensor, node 0 on the slowest axis:

    Q(., k) = M_k along axis k of z
    z       = common + omega * (I x A) x ... x (I x A) v
    common  = sum over all nodes n of rU(s_n)

where omega is the params' `discount`; the stopping tolerance is their
`vi_tol` (see `value_iteration`). The arrivals are the same under every
action, so z is formed once a sweep: N products with A along the queue
axes, the first scaled by omega, and one add of `common`; then one product
with M_k per action. A sweep costs O(N m^(N+1)) flops. Every product reads
its operand in place, never through a transposed view, in matmul calls of
at most BLAS_SLICE = 2^18 multiply-adds each (`_apply_axis`), the largest
gemm OpenBLAS runs on the calling thread. A larger gemm wakes its worker
threads, which are slow to wake once the process has idled: at N=3 the
moves along the first and the last axis are about 3.1 M multiply-adds
each, and as single gemms they made the first solve after 12 s asleep take
about 1 s, with two BLAS threads on 2 cores, against under 0.1 s sliced.

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

Reachable levels. `build_model` holds B x {0..Q} per node, B the least
set of battery levels that holds `initial_battery` and that every kernel's
move keeps, read off the M of every level; when B drops a level, it builds
the kernels again on B. That set of joint states is closed under every
action: an unselected node's battery does not move, a selected one moves
within B, and arrivals move queues alone. A closed set is a sub-MDP with
the same Bellman equation on its states (Puterman, 1994), so its solve is
exact on every state a run, which starts there with empty queues, can
visit. At the defaults both moves from a full battery end full: B = {K},
and N=3 solves 343 states, not 74,088.

Memory. The joint-sized arrays are v, Tv, `common`, two work rows and the
mixing history, 2 * ANDERSON_DEPTH rows: (5 + 2 * depth) * S * 8 bytes at
any N, S the joint states solved, since each action's Q folds into Tv as it
is made (`_Backup`). Only the stopping sweep forms the N per-action rows,
for the tie rule, once the history is dropped. The history stays float64:
float32 rounding in the iterates would part actions whose Q ties (see
Ties). At depth 4 that is 13 rows: 7.3 MiB for the full N=3 model
(S = 74,088), and 309 MiB for the full N=4 model (S = 3.11 M), whose solve
peaks at 344 MiB of RSS.

Ties. The policy takes the lowest node index among the actions whose Q
lies within TIE_RTOL * max(1, |min Q|) of the minimum, so actions equal up
to rounding do not get ordered by summation order.

Budget. Callers decide whether a joint space is small enough to solve;
Memory gives what a solve holds, and `build_model` alone is O(N m^2) at
any N (0.72 MB at N=50).

Boundary conventions (the interior cases follow the law above; the
boundaries need explicit choices):
  * a selected node with an empty queue, or with too little battery to
    afford one transmission, spends the slot charging only: it departs
    nothing and its battery jumps by the full-slot harvest quantum;
  * batteries clamp to [0, K] (overcharge is wasted), in `energy`'s tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import getitem

import numpy as np

from .core import NetworkParams, arrival_pmf
from .energy import energy_profiles, packet_success_prob

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
# the most multiply-adds one matmul call of the solve does: OpenBLAS runs a
# gemm of at most 65,536 * GEMM_MULTITHREAD_THRESHOLD (4) multiply-adds on
# the calling thread, so no call wakes its worker threads
BLAS_SLICE = 2 ** 18


class ValueIterationError(RuntimeError):
    pass


@dataclass
class TransitionModel:
    """The per-node kernels U, S_0, ..., S_{N-1}, kernel j = M_j (I x A), over the
    battery `levels` it holds, every queue length at each: local state
    i * (Q+1) + q is level levels[i] with q packets, and m counts them. In the
    factors the solve reads: `arrival` A, (Q+1) x (Q+1); `moves` M, per kernel
    the dense m x m move of the battery and the departure (M_0 = I); `loss`
    rU, U's expected loss per local state. In the sparse `rows`, derived on
    first read, row r = j * m + local state spans entries [row_ptr[r],
    row_ptr[r+1]) of (local next state, probability, packets dropped), one
    per nonzero of M and arrival count.
    """

    params: NetworkParams
    levels: np.ndarray
    arrival: np.ndarray
    moves: np.ndarray
    loss: np.ndarray

    @property
    def n_actions(self) -> int:
        return self.params.n_nodes

    @property
    def n_states(self) -> int:
        return self.moves.shape[1] ** self.n_actions

    @cached_property
    def rows(self) -> tuple[np.ndarray, ...]:
        """(row_ptr, next_state, prob, reward), for the benchmark and the test oracles:
        each nonzero of M times each arrival count, then the queue capped at Q."""
        moves, pmf, Q = self.moves, arrival_pmf(self.params), self.params.queue_cap
        j, s, mid = np.nonzero(moves)
        prob = moves[j, s, mid][:, None] * pmf
        level = (mid % (Q + 1))[:, None] + np.arange(pmf.size)
        nxt = (mid - mid % (Q + 1))[:, None] + np.minimum(level, Q)
        keep = prob > 0.0
        rows = np.repeat(j * moves.shape[1] + s, keep.sum(axis=1))
        row_ptr = np.searchsorted(rows, np.arange(moves.shape[0] * moves.shape[1] + 1))
        return (row_ptr.astype(np.int64), nxt[keep].astype(np.int64), prob[keep],
                np.maximum(level - Q, 0)[keep].astype(np.float64))

    row_ptr = property(lambda self: self.rows[0])
    next_state = property(lambda self: self.rows[1])
    prob = property(lambda self: self.rows[2])
    reward = property(lambda self: self.rows[3])


def build_model(params: NetworkParams) -> TransitionModel:
    """The kernels U, S_0, ..., S_{N-1} of the per-node law, from the energy
    profiles of `params`, on the battery levels a run can be in (see Reachable
    levels); O(N * per-node states^2)."""
    width, batteries = params.queue_cap + 1, params.battery_levels + 1
    model = _build(params, np.arange(batteries))
    # step[b, c]: some kernel moves some state at level b to level c
    step = model.moves.reshape(-1, batteries, width, batteries, width).any(axis=(0, 2, 4))
    kept = np.arange(batteries) == params.initial_battery
    for _ in range(params.battery_levels):  # a pass that changes `kept` adds a level, K at most
        kept = kept | step[kept].any(axis=0)
    return model if kept.all() else _build(params, np.flatnonzero(kept))


def _build(params: NetworkParams, levels: np.ndarray) -> TransitionModel:
    """The kernels on the battery `levels`, a set that every move keeps."""
    Q, m = params.queue_cap, len(levels) * (params.queue_cap + 1)
    level, queue = np.divmod(np.arange(m), Q + 1)
    battery = levels[level]
    ps = packet_success_prob(params)
    # per kernel and local state: the level after the slot, and P(D = 1)
    after, departs = [level], [np.zeros(m)]
    for prof in energy_profiles(params):
        tx = (queue >= 1) & (battery >= prof.min_tx_level)
        after.append(np.searchsorted(levels, np.where(tx, np.take(prof.after_tx, battery),
                                                      np.take(prof.after_charge, battery))))
        departs.append(np.where(tx, ps, 0.0))
    after, departs = np.array(after), np.array(departs)
    pmf = arrival_pmf(params)
    # A: a queue of each length gains X packets, capped at Q
    length = np.arange(Q + 1)[:, None]
    arrival = np.zeros((Q + 1, Q + 1))
    np.add.at(arrival, (length, np.minimum(length + np.arange(pmf.size), Q)), pmf)
    # M: departure D = 0, then D = 1 (probability 0 wherever the queue is empty)
    target = after * (Q + 1) + np.maximum(queue - np.array([0, 1])[:, None, None], 0)
    moves = np.zeros((len(after), m, m))
    np.add.at(moves, (np.arange(len(after))[:, None], np.arange(m), target),
              np.array([1.0 - departs, departs]))
    for name, kernel in (("A", arrival), ("M", moves)):
        off = np.abs(kernel.sum(axis=-1) - 1.0)
        if off.max() > 1e-12:
            raise AssertionError(f"a row of {name} sums to 1 +- {off.max()!r}")
    # rU: U's expected overflow per queue length, the arrivals summed in order
    over = np.maximum(length + np.arange(pmf.size) - Q, 0)
    loss = np.tile(np.add.accumulate(over * pmf, axis=1)[:, -1], len(levels))
    return TransitionModel(params, levels, arrival, moves, loss)


@dataclass
class ValueIterationResult:
    values: np.ndarray            # expected discounted packet loss per state
    policy: np.ndarray            # minimizing node per state, lowest index on ties
    sweeps: int
    fallbacks: int                # sweeps that took the plain step, dropping the history
    residual: float
    residual_history: list[float]
    params: NetworkParams
    levels: np.ndarray            # the model's battery levels, as local states count them


def _apply_axis(kernel: np.ndarray, x: np.ndarray, before: int, out: np.ndarray) -> None:
    """Apply a square kernel along one axis of the flat tensor x, into out.

    `before` is the product of the sizes of the axes before it. Both forms
    read x in place, never through a transposed view: the kernel times the
    (axis, after) matrix at each index of the axes before, or, on the last
    axis, the (before, axis) matrix times the kernel's transpose. That
    transpose is copied: through a transposed view, the (Q+1)-wide arrival
    kernel's product runs about 3.5 times slower. Each matmul call does at
    most BLAS_SLICE multiply-adds: a run of whole indices before the axis,
    a block of columns of one index's matrix, or a block of rows on the
    last axis.
    """
    k = kernel.shape[0]
    after = x.size // (before * k)
    if after == 1:
        x, out, kernel_t = x.reshape(before, k), out.reshape(before, k), kernel.T.copy()
        rows = max(1, BLAS_SLICE // (k * k))
        for i in range(0, before, rows):
            np.matmul(x[i:i + rows], kernel_t, out=out[i:i + rows])
        return
    x, out = x.reshape(before, k, after), out.reshape(before, k, after)
    cols = min(after, max(1, BLAS_SLICE // (k * k)))
    runs = max(1, BLAS_SLICE // (k * k * cols))
    for i in range(0, before, runs):
        for j in range(0, after, cols):
            np.matmul(kernel, x[i:i + runs, :, j:j + cols], out=out[i:i + runs, :, j:j + cols])


class _Backup:
    """Bellman backups of one model in factored form, into arrays it owns.

    A call writes Tv, the minimum over actions of Q(., k) = M_k along axis k
    of z (see the module docstring), folding each action's product into it
    as it goes, and leaves z in `work[0]` for `actions`. Between calls
    `work[1]` is free, and so is `work[0]` once `actions` is not needed.
    """

    def __init__(self, model: TransitionModel):
        self.arrival = model.arrival
        self.discounted = model.params.discount * model.arrival
        self.common = np.zeros(1)
        for _ in range(model.n_actions):
            self.common = np.add.outer(self.common, model.loss).reshape(-1)
        self.moves = model.moves[1:]
        # sweeps write into these: allocating fresh joint-sized arrays each sweep
        # costs about as much as the kernel products themselves
        self.work = np.empty((2, model.n_states))

    def __call__(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        work, n = self.work, len(self.moves)
        m = self.moves.shape[1]
        batteries = m // self.arrival.shape[0]
        # z: the slot's arrivals, the same under every action (A along each
        # queue axis, the battery axes untouched, the first product carrying
        # the discount), plus every node's arrival-only loss; product k
        # writes row (n - 1 - k) % 2, so z ends in work[0]
        z = v
        for k in range(n):
            row = work[(n - 1 - k) % 2]
            _apply_axis(self.arrival if k else self.discounted, z, m ** k * batteries, row)
            z = row
        z += self.common
        _apply_axis(self.moves[0], z, 1, out)
        for k in range(1, n):
            _apply_axis(self.moves[k], z, m ** k, work[1])
            np.minimum(out, work[1], out=out)
        return out

    def actions(self) -> np.ndarray:
        """Each action's Q, one row per action, from the z of the last call."""
        m = self.moves.shape[1]
        q = np.empty((len(self.moves), self.work.shape[1]))
        for k, move in enumerate(self.moves):
            _apply_axis(move, self.work[0], m ** k, q[k])
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

    The kernel products go through BLAS in calls of at most BLAS_SLICE
    multiply-adds, which OpenBLAS runs on the calling thread whatever its
    thread count. So the summation order does not depend on that count, and
    neither do the values, bit for bit, nor the sweeps, which mixing would
    otherwise part by feeding rounding back into the iterates. Tests pin the
    values, the sweep count and the policy at 1 and 2 threads for N=3 at
    the defaults (44 sweeps) and at bs_power 1.0 (98).
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
        backup(v, v_next)
        # work[0] holds z until the policy is taken, so the residual goes in work[1]
        diff = np.subtract(v_next, v, out=backup.work[1])
        lo, hi = float(diff.min()), float(diff.max())
        residual = max(-lo, hi)
        history.append(residual)
        if residual < threshold:
            del anderson  # the per-action rows and the policy's temporaries reuse its memory
            return ValueIterationResult(
                values=v_next, policy=greedy_policy(backup.actions()), sweeps=sweep,
                fallbacks=fallbacks, residual=residual, residual_history=history, params=p,
                levels=model.levels,
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
        anderson.mix(diff, v_next, backup.work[0])
        v, v_next = v_next, v
    raise ValueIterationError(
        f"no convergence after {MAX_SWEEPS} sweeps (last residual {history[-1]:.3e}, "
        f"threshold {threshold:.3e})"
    )


# -- per-slot action choosers -------------------------------------------------


class PolicyChooser:
    """Exact mode: the solved policy's action at the joint state, by table lookup.

    Holds only plain tables, so it pickles small (the node indices as bytes,
    one per joint state: an exactly solvable network has far fewer than 256
    nodes) and is built once per scenario. A battery level the solve did not
    hold raises KeyError.
    """

    def __init__(self, result: ValueIterationResult):
        width = result.params.queue_cap + 1
        self.policy = result.policy.astype(np.uint8).tobytes()
        self.m = len(result.levels) * width
        # the first local state of each level
        self.base = {int(b): i * width for i, b in enumerate(result.levels)}

    def __call__(self, batteries: list[int], queues: list[int]) -> int:
        m, base = self.m, self.base
        idx = 0
        for b, q in zip(batteries, queues):
            idx = idx * m + base[b] + q
        return self.policy[idx]


class MyopicChooser:
    """Approximate mode for joint spaces too large to enumerate.

    One-step lookahead on the factors of `build_model`'s model, rU the
    expected loss of U: selecting node n rather than leaving it to U moves it
    by M_n first, which changes this slot's expected loss plus the discounted
    loss of the next, every node then left to U, by ((M_n - I) y)(s),
    y = rU + omega * (I x A) rU; every other node's terms cancel out of the
    argmin. Documented heuristic stand-in for the exact policy; ties go to
    the longest queue, then the lowest battery, then the lowest index. rU
    and A see the queue alone, and so does y: the score sums M_n's battery
    part out and applies its queue part to y in order, so states whose queue
    parts are equal tie, whichever levels they move to. A score depends only
    on the node and its own (battery, queue), so the sort keys are tabulated
    once, on the model's levels (any other level raises KeyError). They are
    distinct (each carries its node), so one sort turns them into integer
    ranks, and a choice is the node of the least rank among N lookups.

    Rows per battery vector. A call reads node n's rank at its queue from
    ``rows[n]``, the node's rank list at its battery. The rows are read at
    one battery vector, kept as a copy in ``levels`` (the simulator passes
    its own list and changes it in place), and read again only when a
    call's batteries differ from it. Such a call copies the vector and makes
    N more lookups, so it costs about twice a call that reuses the rows and
    up to a quarter more than one fresh lookup per node. At the defaults no
    battery moves off its start level, so the rows are read once per run;
    on the scarce network about 9 % of calls at N=10 and 1 % at N=50 read
    them again.
    """

    def __init__(self, model: TransitionModel):
        p, levels = model.params, model.levels.tolist()
        n, width = p.n_nodes, p.queue_cap + 1
        loss = model.loss[:width]   # the same at every level
        y = loss + p.discount * (model.arrival @ loss)
        queue_part = model.moves[1:].reshape(n, len(levels), width, len(levels), width).sum(axis=3)
        score = np.add.accumulate(queue_part * y, axis=-1)[..., -1] - y
        keys = [[[(float(score[k, i, q]), -q, b, k) for q in range(width)]
                 for i, b in enumerate(levels)] for k in range(n)]
        order = sorted(key for table in keys for row in table for key in row)
        rank = {key: r for r, key in enumerate(order)}
        self.node_of = [key[3] for key in order]
        # per node, its rank list at each level the model holds
        self.ranks = [{b: [rank[key] for key in row] for b, row in zip(levels, table)}
                      for table in keys]
        self.levels = self.rows = None   # the battery vector and the rows read at it

    def __call__(self, batteries: list[int], queues: list[int]) -> int:
        if batteries != self.levels:
            self.rows = list(map(getitem, self.ranks, batteries))
            self.levels = list(batteries)
        return self.node_of[min(map(getitem, self.rows, queues))]
