from types import ModuleType

import posscore


def test_all_lists_exactly_the_public_names():
    public = {
        name for name, value in vars(posscore).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert len(set(posscore.__all__)) == len(posscore.__all__)
    assert set(posscore.__all__) == public
    for name in posscore.__all__:
        assert getattr(posscore, name) is not None, name
