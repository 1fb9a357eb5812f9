import ltne


def test_all_exports_resolve_once():
    missing = [name for name in ltne.__all__ if not hasattr(ltne, name)]
    assert missing == []
    assert len(set(ltne.__all__)) == len(ltne.__all__)
