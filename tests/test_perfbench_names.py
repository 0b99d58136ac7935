"""The psverify names that the benchmark's workloads read must exist.

`perfbench/workloads.py` is parsed, not imported or run. Three kinds of use
are collected: `module.NAME` read off a psverify module it imports,
`from psverify.module import NAME`, and the (module, "NAME", span) triples
it hands `traced_attributes` to wrap by string. Methods and attributes read
off returned objects (`ModelSet.for_vowel`, `PipelineConfig.period_bounds`,
`HalfPeak.polarity`) are out of this test's reach;
`test_perfbench_composition.py` runs the workload helpers that read them.
"""

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def used_names(tree) -> set[tuple[str, str]]:
    """(module, name) for every psverify name the parsed file reads."""
    modules = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "psverify"
               for alias in node.names}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("psverify."):
            used.update((node.module.removeprefix("psverify."), alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            used.add((modules[node.value.id], node.attr))
        elif (isinstance(node, ast.Tuple) and len(node.elts) == 3 and isinstance(node.elts[0], ast.Name)
              and node.elts[0].id in modules and isinstance(node.elts[1], ast.Constant)
              and isinstance(node.elts[1].value, str)):
            used.add((modules[node.elts[0].id], node.elts[1].value))
    return used


def test_every_name_the_workloads_read_exists():
    used = used_names(ast.parse(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS)))
    missing = sorted(f"{module}.{name}" for module, name in used
                     if not hasattr(importlib.import_module(f"psverify.{module}"), name))
    assert not missing, f"perfbench/workloads.py reads names psverify no longer has: {missing}"
    # the parse found what it is meant to: an import, a module attribute and a wrap target
    assert {("evaluation", "UtteranceOutcome"), ("cli", "main"), ("evaluation", "build_model")} <= used
