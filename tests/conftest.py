"""Shared pytest fixtures."""

import pytest

from srs import Path, rewrite


@pytest.fixture
def replay_derived(monkeypatch):
    """Make ``Path._derived`` replay its moves through ``Path.from_moves``
    and assert the target its caller states, so that every path the test
    derives is checked as a path from outside is.  Derived paths are kept
    on the presentations they belong to, which these tests build afresh,
    and in ``normal_path``'s cache, emptied first, so the test reads none
    built without the replay."""

    def replaying(cls, base, moves, target):
        path = Path.from_moves(base, moves)
        assert path.target == target, f"derived path ends at {path.target}, not {target}"
        return path

    monkeypatch.setattr(Path, "_derived", classmethod(replaying))
    rewrite.normal_path.cache_clear()
