"""The package's public names."""
from __future__ import annotations

import degradability


def test_all_names_resolve_sorted_and_unique() -> None:
    names = degradability.__all__
    missing = [name for name in names if not hasattr(degradability, name)]
    assert not missing, missing
    assert names == sorted(names)
    assert len(set(names)) == len(names)
