"""Semi-decentralized contention laws: self-nomination probability and its escalation.

Each node nominates itself with a probability f(e, q) that grows with its
queue and shrinks with its battery (`tx_prob`, one of the `TxProbDesign`
families), raised by a factor (1 + alpha) per failed frame (`escalate`).
The contention loop that uses them, with its threshold gate and backoff,
runs in `simulator.EqatStrategy`; `rc` and `dfq` run the same loop on fixed
tables in place of f (`simulator.FixedTableStrategy`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import inf

from .core import NetworkParams


@dataclass(frozen=True)
class TxProbDesign:
    """Family and parameters of the self-nomination probability p = f(e, q).

    kinds:
      exponential  (1 - exp(-rate_q * q)) * exp(-rate_e * e), raw level units
      sigmoid      sin(pi/2 * q/Q) * cos(pi/2 * e/K), normalized units
      gamma        regularized lower incomplete gamma of q / (scale * e)
    """

    kind: str
    rate_q: float = 0.5
    rate_e: float = 0.5
    shape: float = 2.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("exponential", "sigmoid", "gamma"):
            raise ValueError(f"unknown design kind {self.kind!r}")
        # written `not 0 < x < inf`, so a NaN fails them too
        if self.kind == "exponential" and not (0 < self.rate_q < inf and 0 < self.rate_e < inf):
            raise ValueError("exponential rates must be positive and finite")
        if self.kind == "gamma" and not (0 < self.shape < inf and 0 < self.scale < inf):
            raise ValueError("gamma shape and scale must be positive and finite")

    @classmethod
    def parse(cls, token: str) -> "TxProbDesign":
        """Parse CLI/config tokens: sigmoid | exp:RATE | exp:RQ:RE | gamma:SHAPE:SCALE.

        exp:RATE sets both per-unit rates to RATE. Any other token, or one
        whose values the family refuses, raises ValueError naming the token.
        """
        name, *args = token.strip().lower().split(":")
        try:
            values = [float(x) for x in args]
        except ValueError:
            values = []
        try:
            if name == "sigmoid" and not args:
                return cls("sigmoid")
            if name == "exp" and len(values) in (1, 2):
                return cls("exponential", rate_q=values[0], rate_e=values[-1])
            if name == "gamma" and len(values) == 2:
                return cls("gamma", shape=values[0], scale=values[1])
        except ValueError as e:
            raise ValueError(f"design token {token!r}: {e}") from None
        raise ValueError(f"unknown design token {token!r}")

    @property
    def label(self) -> str:
        """The token `parse` reads back as this design, each value spelt ``:g``
        where that reads back exactly, else as its float's repr."""
        if self.kind == "exponential":
            if self.rate_q == self.rate_e:
                return f"exp:{_exact(self.rate_q)}"
            return f"exp:{_exact(self.rate_q)}:{_exact(self.rate_e)}"
        if self.kind == "gamma":
            return f"gamma:{_exact(self.shape)}:{_exact(self.scale)}"
        return "sigmoid"


def _exact(x: float) -> str:
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


def tx_prob(design: TxProbDesign, battery: int, queue: int, params: NetworkParams) -> float:
    """Self-nomination probability at a (battery, queue) point in range; always in [0, 1]."""
    if not 0 <= battery <= params.battery_levels:
        raise ValueError(f"battery level {battery} outside [0, {params.battery_levels}]")
    if not 0 <= queue <= params.queue_cap:
        raise ValueError(f"queue length {queue} outside [0, {params.queue_cap}]")
    if queue == 0:
        return 0.0
    if design.kind == "exponential":
        return (1.0 - math.exp(-design.rate_q * queue)) * math.exp(-design.rate_e * battery)
    if design.kind == "sigmoid":
        return math.sin(0.5 * math.pi * queue / params.queue_cap) * math.cos(
            0.5 * math.pi * battery / params.battery_levels
        )
    # gamma: the argument q/(scale * e) blows up as e -> 0, where the
    # regularized gamma saturates at 1
    if battery == 0:
        return 1.0
    # imported here: scipy costs more to import than the rest of the package
    from scipy.special import gammainc

    return float(gammainc(design.shape, queue / (design.scale * battery)))


def escalate(base: float, alpha: float, fails: int) -> float:
    """min(1, (1 + alpha)^fails * base), safe for unbounded fail counts."""
    if base <= 0.0:
        return 0.0
    if fails * math.log1p(alpha) + math.log(base) >= 0.0:
        return 1.0
    return (1.0 + alpha) ** fails * base
