"""The package's public names."""

import stringykit


def test_all_names_resolve():
    missing = [n for n in stringykit.__all__ if not hasattr(stringykit, n)]
    assert missing == []
    assert len(set(stringykit.__all__)) == len(stringykit.__all__)
