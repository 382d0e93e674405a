"""The benchmark's tracer rebinds wipcast functions and StoryIndex methods by name.

Renaming or deleting one of them would only fail ``bench/run.py --trace 1``;
these checks make it fail the test suite as well. ``bench/tracing.py`` is
compiled from its source and run in a fresh namespace, so no bytecode cache is
written under ``bench/``.
"""

from __future__ import annotations

import importlib

import pytest

from wipcast.memory import StoryIndex

from conftest import bench_module

tracing = bench_module("tracing")


@pytest.mark.parametrize("module, attribute", sorted(tracing.FUNCTIONS))
def test_traced_function_exists(module, attribute):
    assert callable(getattr(importlib.import_module(f"wipcast.{module}"), attribute, None))


@pytest.mark.parametrize("method", sorted(tracing.METHODS))
def test_traced_story_index_method_is_defined_on_the_class(method):
    # the tracer reads StoryIndex.__dict__, so an inherited method would not do
    assert callable(StoryIndex.__dict__.get(method))


@pytest.mark.parametrize("factory", ["build_embedder", "build_backend"])
def test_substituted_cli_factory_exists(factory):
    assert callable(getattr(importlib.import_module("wipcast.cli"), factory, None))
