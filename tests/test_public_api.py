"""Every name ``doilyspace.__all__`` lists is importable from the package."""

import doilyspace


def test_all_names_resolve():
    missing = [name for name in doilyspace.__all__ if not hasattr(doilyspace, name)]
    assert missing == []
    assert len(set(doilyspace.__all__)) == len(doilyspace.__all__)


def test_star_import_binds_every_listed_name():
    namespace: dict = {}
    exec("from doilyspace import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(doilyspace.__all__)
