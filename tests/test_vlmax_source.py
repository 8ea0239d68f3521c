"""The default machine's VLMAX is a fact of `MachineConfig`, taken from it
where a stream is sized.  This scans the package source for an integer
constant equal to it, so a restated vector length cannot creep back in.
Addresses and pc offsets are written in hex throughout the package, so a
constant spelled in hex (the loop-body offset 0x100) is not a vector
length and is not counted."""

import ast
from pathlib import Path

import sdvkit
from sdvkit.config import MachineConfig

PACKAGE = Path(sdvkit.__file__).parent
VLMAX = MachineConfig().vlmax(64)


def _vlmax_literals(path: Path) -> list[int]:
    """The lines of the non-hex integer constants equal to VLMAX."""
    source = path.read_text()
    return [node.lineno for node in ast.walk(ast.parse(source, str(path)))
            if isinstance(node, ast.Constant) and type(node.value) is int
            and node.value == VLMAX
            and not ast.get_source_segment(source, node).lower().startswith("0x")]


def test_no_module_restates_vlmax():
    for path in sorted(PACKAGE.glob("*.py")):
        assert not _vlmax_literals(path), f"{path.name} lines {_vlmax_literals(path)}"
