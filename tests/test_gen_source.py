"""`workloads` owns each workload kind: its generator, help line and ``gen``
options come from `workload_kinds`.  This scans `cli.py` for a kind or
variant named as a string constant and for any name of a generator, so a
branch on the kind cannot creep back into the CLI."""

import ast
from pathlib import Path

from sdvkit import cli
from sdvkit.workloads import workload_kinds

SOURCE = Path(cli.__file__)
KINDS_AND_VARIANTS = {"fft", "axpy", "naive", "wide", *workload_kinds()}
GENERATORS = {generate.__name__ for generate, _, _ in workload_kinds().values()}


def _nodes():
    return list(ast.walk(ast.parse(SOURCE.read_text(), str(SOURCE))))


def test_cli_names_no_kind_or_variant():
    named = [(node.lineno, node.value) for node in _nodes()
             if isinstance(node, ast.Constant) and node.value in KINDS_AND_VARIANTS]
    assert not named, f"cli.py names {named}"


def test_cli_imports_no_generator():
    names = {node.name if isinstance(node, ast.alias)
             else node.attr if isinstance(node, ast.Attribute) else node.id
             for node in _nodes() if isinstance(node, (ast.alias, ast.Attribute, ast.Name))}
    assert GENERATORS == {"gen_fft", "gen_axpy"}
    assert not names & GENERATORS, f"cli.py names {names & GENERATORS}"
