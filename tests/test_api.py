"""The public surface: each module's ``__all__`` names exactly the functions and
classes it defines without a leading underscore; a point of T(M) is made in one
module only; and only the oracle lays out, evaluates and differences stencils."""

import ast
import importlib
import inspect
from pathlib import Path

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


@pytest.mark.parametrize("name", MODULES)
def test_only_tangent_bundle_calls_the_tangent_point_class(name):
    # every other module makes its points through tangent_point, its private twin or
    # the rescaling map, so t and the radius check are decided in one place
    path = Path(importlib.import_module(f"tbgeom.{name}").__file__)
    calls = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and (
                 getattr(node.func, "id", None) == "TangentPoint"
                 or getattr(node.func, "attr", None) == "TangentPoint")]
    assert name == "tangent_bundle" or calls == [], f"{path.name} calls TangentPoint at {calls}"


@pytest.mark.parametrize("name", MODULES)
def test_only_the_oracle_lays_out_and_differences_stencils(name):
    # every other module differences through the oracle's public routines, so the stencil
    # layout, its evaluation and the quotient rule are decided in one place
    path = Path(importlib.import_module(f"tbgeom.{name}").__file__)
    private = {"_stencil", "_evaluate", "_quotients"}
    calls = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and (getattr(node.func, "id", None) in private
                                                or getattr(node.func, "attr", None) in private)]
    assert name == "oracle" or calls == [], f"{path.name} calls a stencil helper at {calls}"
