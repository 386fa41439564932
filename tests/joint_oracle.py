"""Enumerated joint model of the scheduling MDP, kept as a test oracle.

The solver in `rwsnsim.mdp` never forms the joint law: it applies one
per-node kernel per axis of the value tensor. This module builds the law
the slow, direct way instead, one joint row at a time from
`joint_transition` and `transition_reward`, and solves it with a plain
sweep over those rows, so the factored solver can be checked against it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from rwsnsim.core import Action, JointState, NetworkParams, NodeState, iter_joint_states, state_index
from rwsnsim.energy import NodeEnergyProfile, energy_profiles
from rwsnsim.mdp import TIE_RTOL, node_reward, selected_transition, unselected_transition


def transition_reward(
    s_alpha: JointState, s_beta: JointState, action: Action | int, params: NetworkParams,
    profiles: list[NodeEnergyProfile] | None = None,
) -> float:
    """Expected dropped packets over all nodes for one joint transition."""
    k = action.selected if isinstance(action, Action) else action
    if profiles is None:
        profiles = energy_profiles(params)
    total = 0.0
    for n, (a, b) in enumerate(zip(s_alpha, s_beta)):
        total += node_reward(a, b, params, selected=(n == k), profile=profiles[n])
    return total


def joint_transition(
    s_alpha: JointState, action: Action | int, params: NetworkParams,
    profiles: list[NodeEnergyProfile] | None = None,
) -> list[tuple[JointState, float]]:
    """Product of the selected node's law with every other node's arrival law."""
    k = action.selected if isinstance(action, Action) else action
    if profiles is None:
        profiles = energy_profiles(params)
    acc: list[tuple[tuple[NodeState, ...], float]] = [((), 1.0)]
    for n, s in enumerate(s_alpha):
        dist = (
            selected_transition(s, params, node=n, profile=profiles[n])
            if n == k
            else unselected_transition(s, params)
        )
        acc = [(prefix + (ns,), p * pn) for prefix, p in acc for ns, pn in dist]
    return acc


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
    """Enumerate every joint row; O(states * actions * row width) python calls."""
    profiles = energy_profiles(params)
    n = params.n_nodes
    # typed arrays, not lists: the N=3 model has about two million entries
    row_ptr = array("q", [0])
    next_out = array("q")
    prob_out = array("d")
    rew_out = array("d")
    for s in iter_joint_states(params):
        for k in range(n):
            for sb, p in joint_transition(s, k, params, profiles):
                next_out.append(state_index(sb, params))
                prob_out.append(p)
                rew_out.append(transition_reward(s, sb, k, params, profiles))
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


def joint_value_iteration(model: JointModel, omega: float, tol: float):
    """Value iteration over the joint rows with the solver's stopping rule.

    Returns (values, policy under the tie rule, sweeps, residual history).
    """
    threshold = tol * (1.0 - omega) / (2.0 * omega)
    base = _expected_costs(model)
    v = np.zeros(model.n_states)
    history = []
    while True:
        q = _backup(model, base, v, omega)
        v_new = q.min(axis=1)
        history.append(float(np.max(np.abs(v_new - v))))
        v = v_new
        if history[-1] < threshold:
            return v, tie_policy(q), len(history), history


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
