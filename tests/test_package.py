"""The package's public name list."""

import types

import eqtransfer as et


def test_public_names_are_library_objects():
    assert et.__all__
    for name in et.__all__:
        assert not isinstance(getattr(et, name), types.ModuleType), name
