import floqbog


def test_public_names_unique_and_resolve():
    names = floqbog.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(floqbog, name)]
    assert missing == []
