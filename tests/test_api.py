"""The public surface: each module's ``__all__`` names exactly the functions and
classes it defines without a leading underscore."""

import importlib
import inspect

import pytest

MODULES = ("base_geometry", "cli", "jets", "oracle", "sphere_bundle", "suites",
           "tangent_bundle", "weights")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exactly_the_public_functions_and_classes(name):
    module = importlib.import_module(f"tbgeom.{name}")

    def is_definition(value):
        return inspect.isfunction(value) or inspect.isclass(value)

    public = {k for k, v in vars(module).items() if not k.startswith("_")
              and is_definition(v) and v.__module__ == module.__name__}
    named = [k for k in module.__all__ if is_definition(getattr(module, k))]
    assert len(set(module.__all__)) == len(module.__all__)
    assert set(named) == public
