import telematch


def test_public_names_resolve_and_are_sorted():
    assert telematch.__all__ == sorted(telematch.__all__)
    assert len(set(telematch.__all__)) == len(telematch.__all__)
    missing = [name for name in telematch.__all__ if not hasattr(telematch, name)]
    assert missing == []
    assert "DegenerateBasisError" in telematch.__all__
