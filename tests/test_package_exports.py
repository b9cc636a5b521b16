"""The package's export list matches what the package defines, so a name
left in `__all__` after its definition is deleted fails here rather than in
a user's `from oced_forge import *`.  The names resolve on first access, and
a star import binds each to the object its module defines."""

import subprocess
import sys

import pytest

import oced_forge

from conftest import cli_env


def test_export_list_resolves_without_duplicates():
    missing = [name for name in oced_forge.__all__ if not hasattr(oced_forge, name)]
    assert missing == []
    assert len(oced_forge.__all__) == len(set(oced_forge.__all__))


def test_star_import_binds_each_name_to_its_definition():
    namespace = {}
    exec("from oced_forge import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(oced_forge.__all__)
    for name in oced_forge.__all__:
        value = namespace[name]
        assert value.__module__.startswith("oced_forge."), name
        assert getattr(sys.modules[value.__module__], name) is value, name
        assert getattr(oced_forge, name) is value, name


def test_dir_lists_every_export_before_first_access():
    listed = subprocess.run(
        [sys.executable, "-c", "import oced_forge, sys; print(*dir(oced_forge)); print(*sys.modules)"],
        env=cli_env(),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    assert set(oced_forge.__all__) <= set(listed[0].split())
    # importing the package loads none of its modules
    assert [name for name in listed[1].split() if name.startswith("oced_forge.")] == []


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        oced_forge.nope
