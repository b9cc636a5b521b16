"""The package's export list matches what the package defines, so a name
left in `__all__` after its definition is deleted fails here rather than in
a user's `from oced_forge import *`."""

import oced_forge


def test_export_list_resolves_without_duplicates():
    missing = [name for name in oced_forge.__all__ if not hasattr(oced_forge, name)]
    assert missing == []
    assert len(oced_forge.__all__) == len(set(oced_forge.__all__))
