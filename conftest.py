"""Session-wide pytest set-up for the whole repository."""

from __future__ import annotations

import gc


def pytest_collection_finish(session):
    """Move the objects made while importing the test modules (pytest,
    hypothesis, networkx, numpy: some 57k) out of the collector's reach.
    The benchmark's own runner freezes its heap the same way before it
    times anything; without this, each gc.collect() it makes between
    jobs traverses the test session's heap and takes 40-60 ms instead of
    a few, which is longer than the jobs its tests time."""
    gc.collect()
    gc.freeze()


def pytest_unconfigure(config):
    gc.unfreeze()
