import sys
from pathlib import Path

import pytest

from rainbowmatch.budget import BudgetMeter

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def meters_built(monkeypatch):
    """The number of ``BudgetMeter``s constructed so far, as a one-item list."""
    built = [0]
    init = BudgetMeter.__init__

    def counting_init(meter, *args, **kwargs):
        built[0] += 1
        init(meter, *args, **kwargs)

    monkeypatch.setattr(BudgetMeter, "__init__", counting_init)
    return built
