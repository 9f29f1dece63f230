"""The package's public names: every name in __all__ resolves, once."""

import graded_leibniz


def test_every_export_resolves_and_is_listed_once():
    names = graded_leibniz.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(graded_leibniz, name)] == []
