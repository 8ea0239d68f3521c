"""`isa.SPEC` is the only per-mnemonic table.  This scans the package source
for string constants equal to a mnemonic and pins the modules that may name
one: the table itself, the emulator's per-mnemonic semantics, and the
decoder's branch for the configuration forms."""

import ast
from pathlib import Path

import sdvkit
from sdvkit.isa import SPEC, Category

PACKAGE = Path(sdvkit.__file__).parent

# module -> the mnemonics it may name
ALLOWED = {
    "isa": set(SPEC),
    "emulator": set(SPEC),
    "decoding": {m for m, (category, *_) in SPEC.items() if category is Category.CONFIG},
}


def test_mnemonics_are_named_only_where_allowed():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        named = {node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)
                 and node.value in SPEC}
        assert named <= ALLOWED.get(path.stem, set()), \
            f"{path.name} names {sorted(named - ALLOWED.get(path.stem, set()))}"
