"""The package's export list and its imports name the same entry points."""

import inspect

import frontlab


def test_every_listed_name_resolves():
    missing = [name for name in frontlab.__all__ if not hasattr(frontlab, name)]
    assert not missing


def test_every_public_function_and_class_is_listed():
    bound = {
        name for name, value in vars(frontlab).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
    }
    assert bound - set(frontlab.__all__) == set()
    assert len(frontlab.__all__) == len(set(frontlab.__all__))
