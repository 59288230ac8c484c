"""Search budgets and the runtime meter that enforces them."""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import BudgetExceeded


@dataclass(frozen=True)
class SearchBudget:
    """Resource cap for exhaustive searches.

    node_limit   -- maximum number of search nodes visited
    time_limit   -- wall-clock seconds
    """

    node_limit: int = 10_000_000
    time_limit: float = 30.0

    def __post_init__(self) -> None:
        if self.node_limit <= 0 or self.time_limit <= 0:
            raise ValueError("budget fields must be positive")


class BudgetMeter:
    """Counts search nodes against a budget; checks the clock occasionally."""

    __slots__ = ("nodes", "node_limit", "deadline", "_clock_stride")

    def __init__(self, budget: SearchBudget | None):
        budget = budget or SearchBudget()
        self.nodes = 0
        self.node_limit = budget.node_limit
        self.deadline = time.monotonic() + budget.time_limit
        self._clock_stride = 4096

    def tick(self, n: int = 1) -> None:
        self.nodes += n
        if self.nodes > self.node_limit:
            raise BudgetExceeded(f"node limit exceeded ({self.node_limit})")
        if self.nodes % self._clock_stride < n and time.monotonic() > self.deadline:
            raise BudgetExceeded("time limit exceeded")
