import nestvr


def test_public_names_resolve_without_duplicates():
    assert len(nestvr.__all__) == len(set(nestvr.__all__))
    missing = [name for name in nestvr.__all__ if not hasattr(nestvr, name)]
    assert missing == []
