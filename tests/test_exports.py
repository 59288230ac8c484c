import pytest

import rainbowmatch
import rainbowmatch.oracle


@pytest.mark.parametrize("module", [rainbowmatch, rainbowmatch.oracle], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
