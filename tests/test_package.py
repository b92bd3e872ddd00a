import braidnf


def test_every_public_name_resolves():
    assert [name for name in braidnf.__all__ if not hasattr(braidnf, name)] == []
