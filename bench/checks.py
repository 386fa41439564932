"""Output checks run on every benchmark repetition.

Each check returns a list of problems; an empty list means the outputs
passed. A run whose outputs fail any check is not a valid measurement.
"""

from __future__ import annotations

import csv
from pathlib import Path


def read_raw_csv(path: str | Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def check_conservation(raw_rows: list[dict]) -> list[str]:
    """generated == delivered + dropped + in_queue_final on every raw row."""
    problems = []
    for i, row in enumerate(raw_rows):
        gen, dlv, drp, left = (int(row[k]) for k in
                               ("generated", "delivered", "dropped", "in_queue_final"))
        if gen != dlv + drp + left:
            problems.append(
                f"raw row {i} ({row['strategy']} N={row['n_nodes']} seed={row['seed']}): "
                f"generated {gen} != delivered {dlv} + dropped {drp} + in_queue_final {left}"
            )
    return problems


def check_no_failures(failures: list[dict]) -> list[str]:
    return [f"failure row: {f}" for f in failures]


def check_ehmdp_exact(scenarios: list[dict], strategies: list[str]) -> list[str]:
    """Every N<=3 scenario solves exactly, so a silent myopic fallback shows."""
    if "ehmdp" not in strategies:
        return []
    return [
        f"scenario N={s['n_nodes']} T={s['t_hat']} ran ehmdp in {s['ehmdp_mode']!r} mode, "
        f"expected 'exact'"
        for s in scenarios
        if s["n_nodes"] <= 3 and s["ehmdp_mode"] != "exact"
    ]


def check_residuals(solves: list[dict]) -> list[str]:
    """The final value-iteration residual is below its stopping threshold."""
    return [
        f"value iteration for N={s['n_nodes']} slot_len={s['slot_len']} stopped at residual "
        f"{s['residual']!r}, not below its threshold {s['threshold']!r}"
        for s in solves
        if not s["residual"] < s["threshold"]
    ]


def check_outputs(raw_rows, failures, scenarios, strategies, solves=()) -> list[str]:
    return (check_conservation(raw_rows) + check_no_failures(failures)
            + check_ehmdp_exact(scenarios, strategies) + check_residuals(list(solves)))
