"""Every name the benchmark traces must exist on the package.

``perfbench/tracing.py`` wraps the package's functions at the names listed
in its ``TARGETS`` and reports a missing one as an absent layer, which only
the benchmark's own tests notice.  This test loads that module read-only
(it installs nothing) and resolves each target, so a rename or deletion of
a traced name fails here too.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracing().TARGETS


@pytest.mark.parametrize(
    "module_name,path", [(target[0], target[1]) for target in TARGETS], ids=str
)
def test_traced_name_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(owner, part), f"{module_name}.{path} is missing"
        owner = getattr(owner, part)
    assert callable(owner)
