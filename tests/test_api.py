"""Tests for the package's public names."""

import chebymargin


def test_all_resolves_and_is_unique_and_sorted():
    names = chebymargin.__all__
    assert [name for name in names if not hasattr(chebymargin, name)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)
