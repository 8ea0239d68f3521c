"""Instruction text appears only at file boundaries: everything between the
readers and the writers passes decoded `Instruction` objects.  This scans
the package source for every reference to the text converters and names the
function that holds it."""

import ast
from pathlib import Path

import sdvkit

PACKAGE = Path(sdvkit.__file__).parent

# converter -> the functions allowed to use it, as module.[Class.]function
ALLOWED = {
    "parse_instruction": {"vstream.parse_vstream", "tracefile.read_trace",
                          "workloads._Emitter.instr"},
    "disassemble": {"vstream.write_vstream", "tracefile.write_trace",
                    "tracefile.read_trace", "tracefile.TraceRecord.mnemonic_text"},
}


def _references(tree: ast.Module, module: str) -> dict[str, set[str]]:
    """converter -> qualified names of the functions that reference it."""
    found: dict[str, set[str]] = {name: set() for name in ALLOWED}

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        name = node.id if isinstance(node, ast.Name) else \
            node.attr if isinstance(node, ast.Attribute) else None
        if name in found:
            found[name].add(".".join([module] + scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, [])
    return found


def test_instruction_text_only_at_file_boundaries():
    used = {name: set() for name in ALLOWED}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                renamed = [a.name for a in node.names if a.name in ALLOWED and a.asname]
                assert not renamed, f"{path.name} imports {renamed} under another name"
        for name, where in _references(tree, path.stem).items():
            used[name] |= where
    for name, allowed in ALLOWED.items():
        assert used[name] == allowed, name
