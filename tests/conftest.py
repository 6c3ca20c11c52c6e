"""Shared pytest fixtures."""

import pytest

from srs import Path, abelian, critical, rewrite, transport


@pytest.fixture
def replay_derived(monkeypatch):
    """Make ``Path._derived`` replay its moves through ``Path.from_moves``
    and assert the target its caller states, so that every path the test
    derives is checked as a path from outside is.  The caches that hold
    derived paths are emptied first, so the test reads none built without
    the replay."""

    def replaying(cls, base, moves, target):
        path = Path.from_moves(base, moves)
        assert path.target == target, f"derived path ends at {path.target}, not {target}"
        return path

    monkeypatch.setattr(Path, "_derived", classmethod(replaying))
    for cache in (rewrite.normal_path, critical.is_convergent, abelian._basis, transport._rule_image):
        cache.cache_clear()
