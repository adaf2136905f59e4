"""Tests of the package entry point: public names resolved on first access."""

import importlib

import pytest

import magnitude


@pytest.mark.parametrize("name", magnitude.__all__)
def test_public_name_is_the_object_its_module_defines(name):
    value = getattr(magnitude, name)
    home = importlib.import_module(f"magnitude.{magnitude._SOURCE[name]}")
    assert getattr(home, name) is value
    if callable(value):
        assert value.__module__ == home.__name__


def test_every_resolvable_name_is_public():
    assert sorted(magnitude._SOURCE) == sorted(magnitude.__all__)


def test_dir_lists_the_public_names():
    assert set(magnitude.__all__) <= set(dir(magnitude))


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from magnitude import *", namespace)
    assert all(namespace[name] is getattr(magnitude, name) for name in magnitude.__all__)


def test_submodules_are_attributes():
    for name in ("asymptotics", "errors", "finite", "line", "quadrature", "spheres"):
        assert getattr(magnitude, name) is importlib.import_module(f"magnitude.{name}")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        magnitude.no_such_name
