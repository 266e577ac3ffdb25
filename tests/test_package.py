"""Package surface tests."""

import callab


def test_all_names_resolve_once():
    assert len(callab.__all__) == len(set(callab.__all__))
    missing = [name for name in callab.__all__ if not hasattr(callab, name)]
    assert not missing, missing
