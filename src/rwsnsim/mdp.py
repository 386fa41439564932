"""Centralized scheduling MDP: transition laws, per-node kernels, value iteration.

States are joint (battery, queue) tuples over all nodes; the action set is
the selected node (modulation is pre-folded, see the energy module). The
cost of a transition is the expected number of packets dropped to buffer
overflow, so the solved value function reads as discounted packet loss.

Product form. Under action k, node k moves by its selected kernel S_k and
every other node by the shared arrival-only kernel U, independently, and
the cost is a sum over nodes. So the joint law is never enumerated:
`build_model` stores the N+1 per-node kernels U, S_0, ..., S_{N-1} as
sparse rows over the m = (K+1)(Q+1) local states (row = kernel * m + local
state), and `value_iteration` applies them as mode products on v viewed
as an (m,)*N tensor, node 0 on the slowest axis:

    Q(., k) = base_k + omega * (U x ... x S_k x ... x U) v
    base_k  = sum over n != k of rU(s_n), plus rS_k(s_k)

where rU and rS_k are the kernels' expected one-slot costs per local
state. The U products along the axes after k are shared between actions.
A sweep costs O(N^2 m^(N+1)) flops; the joint-sized storage is v and the
(N, m^N) array Q.

Ties. The policy takes the lowest node index among the actions whose Q
lies within TIE_RTOL * max(1, |min Q|) of the minimum, so actions equal up
to rounding do not get ordered by summation order.

Budget. `build_model` refuses a joint state count m^N above its budget
(200,000 states by default: N=3 has 74,088 at the defaults, N=4 has 3.1 M).

Boundary conventions (the interior cases follow the standard law; the
boundaries need explicit choices):
  * a selected node with an empty queue, or with too little battery to
    afford one transmission, spends the slot charging only: its queue
    follows the arrival-only law and its battery jumps by the full-slot
    harvest quantum;
  * at a full queue the "+1" mass folds into "stay full" and the pinned
    transition carries the overflow cost;
  * batteries clamp to [0, K] (overcharge is wasted);
  * one arrival opportunity per slot: U and S_k apply `arrival_prob` once.
    This is a known artefact, not a law of the model: the simulator applies
    `params.arrivals_per_slot` opportunities per slot (slot_len /
    arrival_period, rounded), and `myopic_chooser` uses a third law,
    1 - (1 - lambda)^k. Where k > 1 (k = 2 at t_hat = 20 with the default
    10 ms arrival period) the exact policy is solved for 1/k of the load it
    runs under.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NetworkParams, NodeState, check_node_state
from .energy import NodeEnergyProfile, energy_profiles, node_energy_profile, packet_success_prob

DEFAULT_STATE_BUDGET = 200_000
# actions whose Q values differ by less than this, relative, count as tied
TIE_RTOL = 1e-12

Dist = list[tuple[NodeState, float]]


class StateSpaceBudgetError(RuntimeError):
    def __init__(self, count: int, budget: int):
        super().__init__(
            f"joint state space has {count} states, exceeding the budget of {budget}"
        )
        self.count = count
        self.budget = budget


class ValueIterationError(RuntimeError):
    pass


def can_transmit(s: NodeState, profile: NodeEnergyProfile) -> bool:
    """A node can transmit iff it has a packet and battery for one attempt."""
    return s.queue >= 1 and s.battery >= profile.min_tx_level


def _clamp(level: int, top: int) -> int:
    return max(0, min(top, level))


def _merge(pairs: list[tuple[NodeState, float]]) -> Dist:
    out: dict[NodeState, float] = {}
    for state, p in pairs:
        if p > 0.0:
            out[state] = out.get(state, 0.0) + p
    return sorted(out.items())


def unselected_transition(s: NodeState, params: NetworkParams) -> Dist:
    """Arrival-only law: queue +1 w.p. lambda (pinned at Q), battery unchanged."""
    check_node_state(s, params)
    lam = params.arrival_prob
    q_up = min(s.queue + 1, params.queue_cap)
    return _merge([
        (NodeState(s.battery, q_up), lam),
        (NodeState(s.battery, s.queue), 1.0 - lam),
    ])


def selected_transition(
    s: NodeState, params: NetworkParams, node: int = 0,
    profile: NodeEnergyProfile | None = None,
) -> Dist:
    """Law of the scheduled node.

    When transmitting: queue +1 w.p. (1-ps)*lambda, -1 w.p. ps*(1-lambda),
    unchanged otherwise, battery jumping by the net harvest quantum in all
    three cases (the downlink charges the node even after a corrupted
    packet). When it cannot transmit, the slot is charge-only.
    """
    check_node_state(s, params)
    if profile is None:
        profile = node_energy_profile(params, node)
    K = params.battery_levels
    lam = params.arrival_prob
    if not can_transmit(s, profile):
        e = _clamp(s.battery + profile.harvest_only_levels, K)
        q_up = min(s.queue + 1, params.queue_cap)
        return _merge([
            (NodeState(e, q_up), lam),
            (NodeState(e, s.queue), 1.0 - lam),
        ])
    ps = packet_success_prob(params)
    e = _clamp(s.battery + profile.delta_levels, K)
    q_up = min(s.queue + 1, params.queue_cap)
    return _merge([
        (NodeState(e, q_up), (1.0 - ps) * lam),
        (NodeState(e, s.queue - 1), ps * (1.0 - lam)),
        (NodeState(e, s.queue), (1.0 - ps) * (1.0 - lam) + ps * lam),
    ])


def node_reward(
    s_from: NodeState, s_to: NodeState, params: NetworkParams,
    selected: bool, profile: NodeEnergyProfile | None = None,
) -> float:
    """Expected packets this node drops on a transition pinned at a full queue."""
    if not (s_from.queue == s_to.queue == params.queue_cap):
        return 0.0
    if selected and profile is not None and can_transmit(s_from, profile):
        return (1.0 - packet_success_prob(params)) * params.arrival_prob
    return params.arrival_prob


@dataclass
class TransitionModel:
    """The N+1 per-node kernels whose products make up the joint law.

    Kernel 0 is the arrival-only kernel U shared by every unselected node;
    kernel 1 + k is node k's selected kernel S_k. Each spans the n_local
    per-node states, and row r = kernel * n_local + local state spans
    entries [row_ptr[r], row_ptr[r+1]) of (local next state, probability,
    reward).
    """

    params: NetworkParams
    n_actions: int
    n_local: int
    row_ptr: np.ndarray
    next_state: np.ndarray
    prob: np.ndarray
    reward: np.ndarray

    @property
    def n_states(self) -> int:
        return self.n_local**self.n_actions

    def kernel(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Kernel j as a dense n_local x n_local matrix, with its expected cost per row."""
        m = self.n_local
        ptr = self.row_ptr[j * m:(j + 1) * m + 1]
        lo, hi = ptr[0], ptr[-1]
        rows = np.repeat(np.arange(m), np.diff(ptr))
        matrix = np.zeros((m, m))
        np.add.at(matrix, (rows, self.next_state[lo:hi]), self.prob[lo:hi])
        cost = np.bincount(rows, weights=self.prob[lo:hi] * self.reward[lo:hi], minlength=m)
        return matrix, cost


def _kernel_rows(params: NetworkParams, profiles: list[NodeEnergyProfile]):
    """(next local index, prob, reward) entries per row, kernel by kernel: U, then each S_k."""
    width = params.queue_cap + 1
    states = [NodeState(b, q) for b in range(params.battery_levels + 1) for q in range(width)]
    rows = [
        [(ns.battery * width + ns.queue, p, node_reward(s, ns, params, selected=False))
         for ns, p in unselected_transition(s, params)]
        for s in states
    ]
    for prof in profiles:
        rows += [
            [(ns.battery * width + ns.queue, p,
              node_reward(s, ns, params, selected=True, profile=prof))
             for ns, p in selected_transition(s, params, profile=prof)]
            for s in states
        ]
    return rows


def build_model(params: NetworkParams, budget: int = DEFAULT_STATE_BUDGET) -> TransitionModel:
    """The kernels U, S_0, ..., S_{N-1}; O(N * per-node states)."""
    n_states = params.joint_state_count
    if n_states > budget:
        raise StateSpaceBudgetError(n_states, budget)
    rows = _kernel_rows(params, energy_profiles(params))
    row_ptr = np.cumsum([0] + [len(entries) for entries in rows])
    nxt, prob, reward = zip(*(e for entries in rows for e in entries))
    prob = np.asarray(prob, dtype=np.float64)
    sums = np.add.reduceat(prob, row_ptr[:-1])
    bad = np.flatnonzero(np.abs(sums - 1.0) > 1e-12)
    if bad.size:
        raise AssertionError(f"kernel row {bad[0]} sums to {sums[bad[0]]!r}")
    return TransitionModel(
        params=params,
        n_actions=params.n_nodes,
        n_local=params.per_node_states,
        row_ptr=row_ptr.astype(np.int64),
        next_state=np.asarray(nxt, dtype=np.int64),
        prob=prob,
        reward=np.asarray(reward, dtype=np.float64),
    )


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


def value_iteration(
    model: TransitionModel,
    omega: float | None = None,
    tol: float | None = None,
    max_sweeps: int = 100_000,
) -> ValueIterationResult:
    """Solve the discounted model to the standard stopping bound.

    Stops when the sup-norm sweep difference drops below
    tol * (1 - omega) / (2 * omega), which bounds the distance of the
    greedy policy's value from optimal by tol.
    """
    p = model.params
    w = p.discount if omega is None else omega
    eps = p.vi_tol if tol is None else tol
    if not (0.0 <= w < 1.0):
        raise ValueError(f"discount {w} outside [0, 1)")
    threshold = eps * (1.0 - w) / (2.0 * w) if w > 0 else np.inf

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

    # sweeps write into these: allocating fresh joint-sized arrays each sweep
    # costs about as much as the kernel products themselves
    v, v_next = np.zeros(model.n_states), np.empty(model.n_states)
    q = np.empty_like(base)
    work = np.empty((2, model.n_states))
    suffixes = np.empty((2, model.n_states))
    history: list[float] = []
    for sweep in range(1, max_sweeps + 1):
        # suffix: v with U applied along every axis after k, those axes rotated
        # to the front, so axis k is last
        suffix = v
        for k in reversed(range(n)):
            x = suffix
            steps = [kernels[1 + k][0]] + [arrival] * k
            for i, kernel in enumerate(steps):
                x = _apply_last_axis(kernel, x, q[k] if i == k else work[i % 2])
            if k:
                suffix = _apply_last_axis(arrival, suffix, suffixes[k % 2])
        q *= w
        q += base
        np.min(q, axis=0, out=v_next)
        diff = np.subtract(v_next, v, out=work[0])
        residual = float(np.abs(diff, out=diff).max())
        history.append(residual)
        v, v_next = v_next, v
        if residual < threshold:
            return ValueIterationResult(
                values=v, policy=greedy_policy(q), sweeps=sweep, residual=residual,
                residual_history=history, params=p,
            )
    raise ValueIterationError(
        f"no convergence after {max_sweeps} sweeps (last residual {history[-1]:.3e}, "
        f"threshold {threshold:.3e})"
    )


# -- per-slot action choosers -------------------------------------------------


def policy_chooser(result: ValueIterationResult):
    """Exact mode: table lookup of the solved policy."""
    p = result.params
    m = p.per_node_states
    width = p.queue_cap + 1

    def choose(batteries: list[int], queues: list[int]) -> int:
        idx = 0
        for b, q in zip(batteries, queues):
            idx = idx * m + b * width + q
        return int(result.policy[idx])

    return choose


def myopic_chooser(params: NetworkParams, profiles: list[NodeEnergyProfile]):
    """Approximate mode for joint spaces too large to enumerate.

    Scores each candidate by the change in expected overflow it causes for
    that node over this slot plus a discount-weighted look at the next
    slot, holding every other node to the arrival-only law (their terms
    cancel out of the argmin). Documented heuristic stand-in for the exact
    policy; ties go to the longest queue, then the lowest battery, then the
    lowest index. A score depends only on the node and its own (battery,
    queue), so the sort keys are tabulated once. They are distinct (each
    carries its node), so one sort turns them into integer ranks, and a
    choice is the node of the least rank among N lookups.
    """
    ps = packet_success_prob(params)
    # probability of at least one arrival over the slot's opportunities
    lam = 1.0 - (1.0 - params.arrival_prob) ** params.arrivals_per_slot
    Q = params.queue_cap
    w = params.discount

    def key(n: int, e: int, q: int) -> tuple[float, int, int, int]:
        if q >= 1 and e >= profiles[n].min_tx_level:
            imm_sel = (1.0 - ps) * lam if q == Q else 0.0
            next_full_sel = (
                ps * lam + (1.0 - ps) if q == Q
                else (1.0 - ps) * lam if q == Q - 1
                else 0.0
            )
        else:  # charge-only slot: queue behaves as if unselected
            imm_sel = lam if q == Q else 0.0
            next_full_sel = 1.0 if q == Q else lam if q == Q - 1 else 0.0
        imm_uns = lam if q == Q else 0.0
        next_full_uns = 1.0 if q == Q else lam if q == Q - 1 else 0.0
        delta = (imm_sel - imm_uns) + w * lam * (next_full_sel - next_full_uns)
        return (delta, -q, e, n)

    keys = [
        [[key(n, e, q) for q in range(Q + 1)] for e in range(params.battery_levels + 1)]
        for n in range(params.n_nodes)
    ]
    order = sorted(k for table in keys for row in table for k in row)
    rank = {k: r for r, k in enumerate(order)}
    node_of = [k[3] for k in order]
    ranks = [[[rank[k] for k in row] for row in table] for table in keys]

    def choose(batteries: list[int], queues: list[int]) -> int:
        return node_of[min([table[e][q] for table, e, q in zip(ranks, batteries, queues)])]

    return choose
