"""Search budgets and the runtime meter that enforces them."""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import BudgetExceeded

# Nodes between two reads of the clock.
CLOCK_STRIDE = 4096


@dataclass(frozen=True)
class SearchBudget:
    """Resource cap for exhaustive searches.

    A budgeted function builds exactly one ``BudgetMeter`` per call; every
    walk and probe below it ticks that meter and never sees the budget.

    node_limit   -- maximum number of search nodes visited
    time_limit   -- wall-clock seconds, read every CLOCK_STRIDE nodes: a
                    search of fewer than 4,096 nodes never stops on time,
                    and an overrun is at most 4,096 nodes of work
    """

    node_limit: int = 10_000_000
    time_limit: float = 30.0

    def __post_init__(self) -> None:
        for name in ("node_limit", "time_limit"):
            value = getattr(self, name)
            if not value > 0:  # a NaN time limit would never expire
                raise ValueError(f"{name} must be positive, got {value}")


class BudgetMeter:
    """Counts search nodes against a budget; checks the clock occasionally."""

    __slots__ = ("nodes", "node_limit", "deadline")

    def __init__(self, budget: SearchBudget | None):
        budget = budget or SearchBudget()
        self.nodes = 0
        self.node_limit = budget.node_limit
        self.deadline = time.monotonic() + budget.time_limit

    def tick(self, n: int = 1) -> None:
        self.nodes += n
        if self.nodes > self.node_limit:
            raise BudgetExceeded(f"node limit exceeded ({self.node_limit})")
        if self.nodes % CLOCK_STRIDE < n and time.monotonic() > self.deadline:
            raise BudgetExceeded("time limit exceeded")
