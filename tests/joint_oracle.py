"""Enumerated joint model of the scheduling MDP, kept as a test oracle.

The solver in `rwsnsim.mdp` never forms the joint law: it builds one
vectorised kernel per node and applies one per axis of the value tensor.
This module writes the law the slow, direct way instead:

  * `node_law` is one node's slot in plain python, event by event in the
    simulator's order (the departure, then `arrivals_per_slot` arrival
    opportunities, each dropping its packet on a full queue);
  * `joint_transition` and `transition_reward` multiply those laws into
    joint rows, and `build_joint_model` enumerates them, so the factored
    solver can be checked against a plain sweep over those rows;
  * the node state (`NodeState`, range-checked by `check_node_state`) and
    the joint state indexing (`state_index`, `iter_joint_states`, ...) that
    enumeration needs; the solver itself only ever indexes local states;
  * `full_model`, the solver's kernels on every battery level, where
    `build_model` keeps those a run can be in, to check the law everywhere;
    `expected`, the mean of a per-entry quantity over each of the solver's
    sparse rows, and `dense_kernel`, one of its per-node kernels read off
    those rows into a matrix, to check the rows against the law and the
    stored factors.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from rwsnsim import mdp
from rwsnsim.core import NetworkParams
from rwsnsim.energy import NodeEnergyProfile, energy_profiles, packet_success_prob
from rwsnsim.mdp import TIE_RTOL, TransitionModel


class NodeState(NamedTuple):
    """Quantized per-node state: battery level index and queue length."""

    battery: int
    queue: int


def check_node_state(s: NodeState, params: NetworkParams) -> None:
    if not (0 <= s.battery <= params.battery_levels):
        raise ValueError(f"battery level {s.battery} outside [0, {params.battery_levels}]")
    if not (0 <= s.queue <= params.queue_cap):
        raise ValueError(f"queue length {s.queue} outside [0, {params.queue_cap}]")


JointState = tuple[NodeState, ...]
Dist = list[tuple[NodeState, float]]


def node_state_index(s: NodeState, params: NetworkParams) -> int:
    check_node_state(s, params)
    return s.battery * (params.queue_cap + 1) + s.queue


def node_state_unindex(idx: int, params: NetworkParams) -> NodeState:
    width = params.queue_cap + 1
    return NodeState(battery=idx // width, queue=idx % width)


def state_index(s: JointState, params: NetworkParams) -> int:
    """Mixed-radix encoding of a joint state; node 0 is most significant.

    Bijective onto [0, ((K+1)(Q+1))**N).
    """
    if len(s) != params.n_nodes:
        raise ValueError(f"joint state has {len(s)} nodes, expected {params.n_nodes}")
    m = params.per_node_states
    idx = 0
    for node in s:
        idx = idx * m + node_state_index(node, params)
    return idx


def state_unindex(idx: int, params: NetworkParams) -> JointState:
    if not (0 <= idx < params.joint_state_count):
        raise ValueError(f"state index {idx} outside [0, {params.joint_state_count})")
    m = params.per_node_states
    out = []
    for _ in range(params.n_nodes):
        out.append(node_state_unindex(idx % m, params))
        idx //= m
    return tuple(reversed(out))


def iter_joint_states(params: NetworkParams) -> Iterator[JointState]:
    """All joint states in index order."""
    for idx in range(params.joint_state_count):
        yield state_unindex(idx, params)


def can_transmit(s: NodeState, profile: NodeEnergyProfile) -> bool:
    """A node can transmit iff it has a packet and battery for one attempt."""
    return s.queue >= 1 and s.battery >= profile.min_tx_level


def node_law(
    s: NodeState, params: NetworkParams, profile: NodeEnergyProfile, selected: bool,
) -> list[tuple[NodeState, float, int]]:
    """One node's slot: (next state, probability, packets dropped) per distinct outcome.

    A selected node that can transmit sends one packet, which leaves with
    probability ps, and moves its battery by the net harvest quantum; a
    selected node that cannot spends the slot charging; an unselected node
    keeps its battery. Then each arrival opportunity brings a packet with
    probability lambda, dropped if the queue is full.
    """
    check_node_state(s, params)
    K, Q, lam = params.battery_levels, params.queue_cap, params.arrival_prob
    battery = s.battery
    queues = {(s.queue, 0): 1.0}  # (queue, dropped so far) -> probability
    if selected and can_transmit(s, profile):
        ps = packet_success_prob(params)
        battery += profile.delta_levels
        queues = {(s.queue, 0): 1.0 - ps, (s.queue - 1, 0): ps}
    elif selected:
        battery += profile.harvest_only_levels
    battery = max(0, min(K, battery))
    for _ in range(params.arrivals_per_slot):
        step: dict[tuple[int, int], float] = {}
        for (q, dropped), pr in queues.items():
            hit = (q, dropped + 1) if q == Q else (q + 1, dropped)
            for key, p_key in (((q, dropped), pr * (1.0 - lam)), (hit, pr * lam)):
                step[key] = step.get(key, 0.0) + p_key
        queues = step
    return sorted((NodeState(battery, q), pr, dropped)
                  for (q, dropped), pr in queues.items() if pr > 0.0)


def node_transition(
    s: NodeState, params: NetworkParams, profile: NodeEnergyProfile, selected: bool,
) -> tuple[Dist, dict[NodeState, float]]:
    """`node_law` merged by next state, and the expected drops given each next state."""
    mass: dict[NodeState, float] = {}
    loss: dict[NodeState, float] = {}
    for ns, pr, dropped in node_law(s, params, profile, selected):
        mass[ns] = mass.get(ns, 0.0) + pr
        loss[ns] = loss.get(ns, 0.0) + pr * dropped
    return sorted(mass.items()), {ns: loss[ns] / mass[ns] for ns in mass}


def transition_reward(
    s_alpha: JointState, s_beta: JointState, k: int, params: NetworkParams,
    profiles: list[NodeEnergyProfile] | None = None,
) -> float:
    """Expected dropped packets over all nodes, given the joint transition
    s_alpha -> s_beta with node k selected."""
    if profiles is None:
        profiles = energy_profiles(params)
    total = 0.0
    for n, (a, b) in enumerate(zip(s_alpha, s_beta)):
        total += node_transition(a, params, profiles[n], selected=(n == k))[1].get(b, 0.0)
    return total


def _product(laws: list[tuple[Dist, dict[NodeState, float]]]):
    """Joint (next state, probability, expected drops) of independent per-node laws."""
    acc: list[tuple[JointState, float, float]] = [((), 1.0, 0.0)]
    for dist, loss in laws:
        acc = [(prefix + (ns,), p * pn, r + loss[ns]) for prefix, p, r in acc for ns, pn in dist]
    return acc


def joint_transition(
    s_alpha: JointState, k: int, params: NetworkParams,
    profiles: list[NodeEnergyProfile] | None = None,
) -> list[tuple[JointState, float]]:
    """Product of selected node k's law with every other node's arrival law."""
    if profiles is None:
        profiles = energy_profiles(params)
    laws = [node_transition(s, params, profiles[n], selected=(n == k))
            for n, s in enumerate(s_alpha)]
    return [(sb, p) for sb, p, _ in _product(laws)]


@dataclass
class JointModel:
    """Sparse rows of (next joint state, probability, reward) per (state, action).

    Row r = state * n_actions + action spans entries [row_ptr[r], row_ptr[r+1]).
    """

    params: NetworkParams
    n_states: int
    n_actions: int
    row_ptr: np.ndarray
    next_state: np.ndarray
    prob: np.ndarray
    reward: np.ndarray

    def row(self, state: int, action: int):
        r = state * self.n_actions + action
        lo, hi = self.row_ptr[r], self.row_ptr[r + 1]
        return self.next_state[lo:hi], self.prob[lo:hi], self.reward[lo:hi]


def build_joint_model(params: NetworkParams) -> JointModel:
    """Enumerate every joint row; O(states * actions * row width) python steps."""
    profiles = energy_profiles(params)
    n = params.n_nodes
    local = [node_state_unindex(i, params) for i in range(params.per_node_states)]
    laws = {(node, selected): {s: node_transition(s, params, profiles[node], selected)
                               for s in local}
            for node in range(n) for selected in (False, True)}
    # typed arrays, not lists: the N=3 model has about two million entries
    row_ptr = array("q", [0])
    next_out = array("q")
    prob_out = array("d")
    rew_out = array("d")
    for s in iter_joint_states(params):
        for k in range(n):
            for sb, p, r in _product([laws[i, i == k][si] for i, si in enumerate(s)]):
                next_out.append(state_index(sb, params))
                prob_out.append(p)
                rew_out.append(r)
            row_ptr.append(len(next_out))
    return JointModel(
        params=params,
        n_states=params.joint_state_count,
        n_actions=n,
        row_ptr=np.frombuffer(row_ptr, dtype=np.int64),
        next_state=np.frombuffer(next_out, dtype=np.int64),
        prob=np.frombuffer(prob_out, dtype=np.float64),
        reward=np.frombuffer(rew_out, dtype=np.float64),
    )


def _expected_costs(model: JointModel) -> np.ndarray:
    return np.add.reduceat(model.prob * model.reward, model.row_ptr[:-1])


def _backup(model: JointModel, base: np.ndarray, v: np.ndarray, omega: float) -> np.ndarray:
    cont = np.add.reduceat(model.prob * v[model.next_state], model.row_ptr[:-1])
    return (base + omega * cont).reshape(model.n_states, model.n_actions)


def bellman_q(model: JointModel, v: np.ndarray, omega: float) -> np.ndarray:
    """One Bellman backup of v over the joint rows, as a (states, actions) array."""
    return _backup(model, _expected_costs(model), v, omega)


def tie_policy(q: np.ndarray) -> np.ndarray:
    """Per state, the lowest action whose Q is within TIE_RTOL of the row minimum."""
    best = q.min(axis=1, keepdims=True)
    return np.argmax(q <= best + TIE_RTOL * np.maximum(1.0, np.abs(best)), axis=1)


def joint_value_iteration(model: JointModel, omega: float, tol: float, shift: bool = True):
    """Value iteration over the joint rows with the solver's stopping rule.

    With `shift`, each sweep that does not stop moves the iterate by
    MacQueen's constant omega / (1 - omega) * (lo + hi) / 2, lo and hi the
    extremes of the sweep's difference, as the solver does; without it, this
    is plain value iteration. Returns (values, policy under the tie rule,
    sweeps, residual history).
    """
    threshold = tol * (1.0 - omega) / (2.0 * omega)
    base = _expected_costs(model)
    v = np.zeros(model.n_states)
    history = []
    while True:
        q = _backup(model, base, v, omega)
        v_new = q.min(axis=1)
        diff = v_new - v
        lo, hi = float(diff.min()), float(diff.max())
        history.append(max(-lo, hi))
        if history[-1] < threshold:
            return v_new, tie_policy(q), len(history), history
        v = v_new + omega / (1.0 - omega) * (lo + hi) / 2.0 if shift else v_new


def policy_values(model: JointModel, policy: np.ndarray, omega: float) -> np.ndarray:
    """Exact discounted loss of a stationary policy: a dense solve of (I - omega P) v = c."""
    rows = np.arange(model.n_states) * model.n_actions + np.asarray(policy)
    P = np.zeros((model.n_states, model.n_states))
    cost = np.zeros(model.n_states)
    for s, r in enumerate(rows):
        lo, hi = model.row_ptr[r], model.row_ptr[r + 1]
        np.add.at(P[s], model.next_state[lo:hi], model.prob[lo:hi])
        cost[s] = model.prob[lo:hi] @ model.reward[lo:hi]
    return np.linalg.solve(np.eye(model.n_states) - omega * P, cost)


def optimal_values(model: JointModel, omega: float) -> np.ndarray:
    """v* by policy iteration from "always node 0", each evaluation a dense solve.

    A state switches action only on a gain above 1e-12 relative, so rounding
    ties cannot cycle; the loop ends when no state improves.
    """
    states = np.arange(model.n_states)
    policy = np.zeros(model.n_states, dtype=np.int64)
    while True:
        v = policy_values(model, policy, omega)
        q = bellman_q(model, v, omega)
        best = q.argmin(axis=1)
        better = q[states, best] < q[states, policy] - 1e-12 * np.maximum(1.0, np.abs(v))
        if not better.any():
            return v
        policy[better] = best[better]


def backward_induction(model: JointModel, omega: float, horizon: int):
    """Finite-horizon dynamic program, plain python loops."""
    S, A = model.n_states, model.n_actions
    rows = {}
    for s in range(S):
        for a in range(A):
            nxt, pr, rw = model.row(s, a)
            rows[s, a] = list(zip(nxt.tolist(), pr.tolist(), rw.tolist()))
    v = [0.0] * S
    for _ in range(horizon):
        v_new = [0.0] * S
        for s in range(S):
            best = None
            for a in range(A):
                q = sum(p * (r + omega * v[n]) for n, p, r in rows[s, a])
                if best is None or q < best:
                    best = q
            v_new[s] = best
        v = v_new
    policy = [0] * S
    for s in range(S):
        best, best_a = None, 0
        for a in range(A):
            q = sum(p * (r + omega * v[n]) for n, p, r in rows[s, a])
            if best is None or q < best - 1e-15:
                best, best_a = q, a
        policy[s] = best_a
    return v, policy


def full_model(params: NetworkParams) -> TransitionModel:
    """The solver's kernels on every battery level 0..K, reachable or not."""
    return mdp._build(params, np.arange(params.battery_levels + 1))


def expected(model: TransitionModel, values: np.ndarray) -> np.ndarray:
    """Per kernel (rows) and local state (columns), the mean of per-entry `values`."""
    rows = np.repeat(np.arange(model.row_ptr.size - 1), np.diff(model.row_ptr))
    sums = np.bincount(rows, weights=model.prob * values, minlength=model.row_ptr.size - 1)
    return sums.reshape(-1, model.moves.shape[1])


def dense_kernel(model: TransitionModel, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Kernel j of `model` as a dense m x m matrix, m the local states, with
    its expected loss per row."""
    m = model.moves.shape[1]
    ptr = model.row_ptr[j * m:(j + 1) * m + 1]
    lo, hi = ptr[0], ptr[-1]
    rows = np.repeat(np.arange(m), np.diff(ptr))
    matrix = np.zeros((m, m))
    np.add.at(matrix, (rows, model.next_state[lo:hi]), model.prob[lo:hi])
    return matrix, expected(model, model.reward)[j]
