import importlib

import pytest


@pytest.mark.parametrize("module", ["market", "linear", "bachelier", "expansion", "oracles", "config", "verify"])
def test_all_entries_resolve(module):
    # tooling (e.g. tracers) looks up every __all__ entry by name
    mod = importlib.import_module(f"crosshedge.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"crosshedge.{module}.__all__ names missing attributes: {missing}"
    assert len(set(mod.__all__)) == len(mod.__all__)
