"""Instruction and stream text appear only at file boundaries: everything
between the readers and the writers passes decoded `Instruction` objects and
stream items.  This scans the package source for every reference to the text
converters and names the function that holds it."""

import ast
import re
from pathlib import Path

import sdvkit

PACKAGE = Path(sdvkit.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# converter -> the functions allowed to use it, as module.[Class.]function
ALLOWED = {
    "parse_instruction": {"vstream.parse_vstream", "tracefile.read_trace",
                          "workloads._Emitter.__init__"},
    "disassemble": {"vstream.write_vstream", "tracefile.write_trace",
                    "tracefile.read_trace", "tracefile.TraceRecord.mnemonic_text"},
    # `emulator.run` keeps its `str` branch only because `perfbench/cases.py`
    # passes it file text (ROADMAP item 6); package callers pass parsed items.
    "parse_vstream": {"cli._cmd_emulate", "cli._cmd_schedule", "emulator.run"},
    "write_vstream": {"cli._cmd_gen", "cli._cmd_schedule"},
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


def test_one_formatter_per_paraver_line_kind():
    """Event and state lines of a .prv file are each spelled in one string
    constant, through which every writer formats them."""
    constants = [node.value for path in sorted(PACKAGE.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    for prefix in ("2:1:1:1:1:", "1:1:1:1:1:"):
        assert len([c for c in constants if c.startswith(prefix)]) == 1, prefix


def _name(node: ast.AST):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _builds_stream_item(call: ast.Call) -> bool:
    """Whether `call` builds a `StreamItem`: by calling the class or its
    ``_make``, or by handing the class to the positional idiom,
    ``records.positional(StreamItem)`` or ``tuple.__new__(StreamItem, ...)``."""
    func = _name(call.func)
    if func == "StreamItem" or func == "_make" and _name(call.func.value) == "StreamItem":
        return True
    return func in ("positional", "__new__") and bool(call.args) \
        and _name(call.args[0]) == "StreamItem"


def test_stream_items_are_built_only_in_vstream():
    """Only `vstream` builds a `StreamItem`, by calling the class or through
    the positional idiom: every other producer appends through
    `StreamBuilder`, the one holder of the pc, phase, window and
    pending-scalar rules."""
    builders = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and _builds_stream_item(node):
                builders.add(path.stem)
    assert builders == {"vstream"}


# public names that neither the package nor perfbench uses, each with its reason
UNUSED_ALLOWED = {
    "decoding.decode_word": "acceptance criterion 9 decodes binary instruction words with it",
    "analysis.pc_profile": "acceptance criterion 10 reads the per-pc profile",
    "prv.parse_prv": "acceptance criterion 5 round-trips Paraver documents through it",
    "workloads.oracle_axpy": "the reference result axpy streams are checked against",
}


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of each public top-level function or class and
    each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _names_used(tree: ast.AST, skip: ast.AST = None, strings: bool = False) -> set[str]:
    """Every name and attribute `tree` references outside the subtree `skip`,
    and with `strings` every identifier in its string constants, as perfbench
    names the hooks it installs."""
    names: set[str] = set()

    def visit(node):
        if node is skip:
            return
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"\w+", node.value))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return names


def test_every_public_name_is_used_outside_tests():
    """A public function, class or method is used by another part of the
    package or by perfbench, not only by the tests.  Uses are matched by name,
    and neither a definition's own body nor ``__init__``'s re-export counts."""
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}
    bench = set().union(*(_names_used(ast.parse(path.read_text(), str(path)), strings=True)
                          for path in sorted(PERFBENCH.glob("*.py"))))
    unused = set()
    for module, tree in trees.items():
        others = set().union(*(_names_used(t) for m, t in trees.items() if m != module))
        for qualified, node in _public_definitions(tree):
            if node.name not in others | bench | _names_used(tree, skip=node):
                unused.add(f"{module}.{qualified}")
    assert unused == set(UNUSED_ALLOWED), sorted(unused)
