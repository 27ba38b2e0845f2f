"""The package's public names: what ``from parsicompact import *`` gives."""

import parsicompact


def test_star_import_gives_exactly_all():
    space = {}
    exec("from parsicompact import *", space)
    space.pop("__builtins__")
    assert sorted(space) == sorted(parsicompact.__all__)


def test_all_names_resolve_once_in_sorted_order():
    names = parsicompact.__all__
    for name in names:
        assert getattr(parsicompact, name, None) is not None, name
    assert len(set(names)) == len(names)
    assert names == sorted(names)
