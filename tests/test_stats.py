"""Tests for the named-counter registry."""

from repro.stats import Stats


def test_increment_and_get():
    stats = Stats()
    stats.inc("a")
    stats.inc("a", 2)
    assert stats["a"] == 3
    assert stats.get("missing") == 0.0
    assert stats.get("missing", 7.0) == 7.0


def test_set_overwrites():
    stats = Stats()
    stats.inc("a", 5)
    stats.set("a", 1)
    assert stats["a"] == 1


def test_contains_and_names():
    stats = Stats()
    stats.inc("b")
    stats.inc("a")
    assert "a" in stats and "c" not in stats
    assert list(stats.names()) == ["a", "b"]


def test_merge_adds_counters():
    left, right = Stats(), Stats()
    left.inc("x", 1)
    right.inc("x", 2)
    right.inc("y", 3)
    left.merge(right)
    assert left["x"] == 3
    assert left["y"] == 3


def test_merge_accepts_plain_mapping():
    stats = Stats()
    stats.merge({"z": 4.0})
    assert stats["z"] == 4.0


def test_as_dict_snapshot_is_independent():
    stats = Stats()
    stats.inc("a")
    snapshot = stats.as_dict()
    snapshot["a"] = 100
    assert stats["a"] == 1
