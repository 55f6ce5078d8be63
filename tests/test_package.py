import dynatomic


def test_every_export_resolves():
    missing = [name for name in dynatomic.__all__ if not hasattr(dynatomic, name)]
    assert missing == []
    assert len(set(dynatomic.__all__)) == len(dynatomic.__all__)
