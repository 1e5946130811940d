"""The names perfbench/tracing.py rebinds exist where it looks for them.

The tracer reads some names only to wrap them (``_run_schedule`` and the
``spectral_norm`` imports nothing else calls), so a simplification that
drops one breaks only the benchmark.  The tables are read from the source
with ``ast.literal_eval``; perfbench itself is not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tables():
    tables = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("_IMPORTED", "_MODULES", "RULE_BUILDERS"):
                tables[name] = ast.literal_eval(node.value)
    return tables


TABLES = _tables()


def _module(key):
    return importlib.import_module(TABLES["_MODULES"][key])


def test_the_tables_are_found():
    assert set(TABLES) == {"_IMPORTED", "_MODULES", "RULE_BUILDERS"}


@pytest.mark.parametrize("name", sorted(TABLES["_IMPORTED"]))
def test_every_rebound_name_exists_in_every_listed_module(name):
    for key in TABLES["_IMPORTED"][name]:
        assert hasattr(_module(key), name), (key, name)


@pytest.mark.parametrize("name", TABLES["RULE_BUILDERS"])
def test_rule_builders_are_caches(name):
    builder = getattr(_module("quadrature"), name)
    assert hasattr(builder, "cache_info") and hasattr(builder, "cache_clear")


@pytest.mark.parametrize(
    "module, name",
    [
        ("kubomeans.quadrature", "ifs_nodes"),
        ("kubomeans.connections", "evaluate_report"),
        ("kubomeans.connections", "evaluate_canonical"),
        ("kubomeans.harness", "run_suite"),
        # perfbench/workloads.py reads it among the typed errors
        ("kubomeans.errors", "SpectralDomainError"),
    ],
)
def test_the_wrapped_entry_points_exist(module, name):
    assert hasattr(importlib.import_module(module), name)
