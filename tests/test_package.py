import spincompile


def test_every_exported_name_resolves():
    missing = [name for name in spincompile.__all__
               if not hasattr(spincompile, name)]
    assert missing == []
    assert len(set(spincompile.__all__)) == len(spincompile.__all__)
