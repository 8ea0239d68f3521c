"""`isa.SPEC` is the only per-mnemonic table and `isa.ROLES` the only
per-operand-role one.  These scan the package source for string constants
equal to a mnemonic or a role name and pin the modules that may name one:
for mnemonics, the table itself and the decoder's branch for the
configuration forms; for roles, only `isa`.  The emulator takes what an
instruction computes from SPEC's element-operation column, so its operation
table must cover exactly the operations SPEC names.  The vtype field
codes, and the reasons a reserved code is refused, are read only in `isa`."""

import ast
from pathlib import Path

import sdvkit
from sdvkit.emulator import _OPERATIONS
from sdvkit.isa import SPEC, Category

PACKAGE = Path(sdvkit.__file__).parent

# module -> the mnemonics it may name
ALLOWED = {
    "isa": set(SPEC),
    "decoding": {m for m, (category, *_) in SPEC.items() if category is Category.CONFIG},
}

# every operand role the table uses, taken from SPEC so this reads any tree
ROLE_NAMES = {role for _, roles, _, _ in SPEC.values() for role in roles}


def _named(path: Path, names: set) -> set:
    """The string constants in a source file that are in ``names``."""
    tree = ast.parse(path.read_text(), str(path))
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value in names}


def test_mnemonics_are_named_only_where_allowed():
    for path in sorted(PACKAGE.glob("*.py")):
        named = _named(path, set(SPEC))
        assert named <= ALLOWED.get(path.stem, set()), \
            f"{path.name} names {sorted(named - ALLOWED.get(path.stem, set()))}"


def test_operand_roles_are_named_only_in_isa():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "isa":
            assert not _named(path, ROLE_NAMES), \
                f"{path.name} names roles {sorted(_named(path, ROLE_NAMES))}"


def test_emulator_has_one_expression_per_spec_operation():
    operations = {operation for *_, operation in SPEC.values()} - {None}
    assert operations == set(_OPERATIONS)


def test_vtype_codes_are_read_only_in_isa():
    reasons = {"reserved element width", "fractional or reserved group multiplier"}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "isa":
            # every name read, attribute taken or name imported
            names = {getattr(node, field, None)
                     for node in ast.walk(ast.parse(path.read_text(), str(path)))
                     for field in ("id", "attr", "name")}
            assert not names & {"SEW_CODES", "LMUL_CODES"}, path.name
            assert not _named(path, reasons), path.name
