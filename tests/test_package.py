"""The package's public names."""

import almprec


def test_every_exported_name_resolves():
    missing = [name for name in almprec.__all__
               if not hasattr(almprec, name)]
    assert not missing, missing
    assert len(set(almprec.__all__)) == len(almprec.__all__)
