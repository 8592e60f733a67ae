"""Shared pytest fixtures."""

import pytest

from repro.guest import blockjit

#: The block JIT's former rule: compile every block on its 2nd sighting.
EAGER_HOT_THRESHOLD = 2


@pytest.fixture
def eager_jit(monkeypatch):
    """Compile every block on its 2nd sighting instead of at the
    break-even threshold.

    Small test programs run most blocks fewer times than
    :data:`repro.guest.blockjit.DEFAULT_HOT_THRESHOLD`, so under the
    default rule the closure-vs-``step()`` differentials would compare
    almost nothing but interpreter steps.  Pool workers forked after
    this fixture ran inherit the eager rule; ones forked before it keep
    the default.
    """
    monkeypatch.setattr(blockjit, "DEFAULT_HOT_THRESHOLD", EAGER_HOT_THRESHOLD)
