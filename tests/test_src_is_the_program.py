"""Every function and record field in src/toruslab is used by the program, not only by the tests.

The program is the package itself, the scripts in scripts/, the
benchmark in perfbench/ and the console entry point in pyproject.toml.
A non-dunder function or method of src/toruslab whose name appears in
none of them except at its own ``def`` is test-only code: it belongs in
tests/oracle_helpers.py, when a test checks the program against it, or
nowhere.  Names are read as tokens, so a name that occurs only in a
comment, a docstring or another string does not count as a use; in
pyproject.toml the entry points are strings, so there every identifier
outside a comment counts.

Every annotated field of a `Record` subclass of src/toruslab must be
read as an attribute, an AST ``Attribute`` load such as ``t.pi_plus``,
somewhere in the package, the scripts or the benchmark.  A field only
stored, or read only by the tests, costs every construction and
belongs in tests/oracle_helpers.py, computed from the record there.
"""

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "toruslab"
PROGRAM_DIRS = (ROOT / "src", ROOT / "scripts", ROOT / "perfbench")


def _code_names(path: Path):
    """NAME tokens of a Python file: comments and strings are separate tokens."""
    with io.open(path, encoding="utf-8") as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type == tokenize.NAME:
                yield tok.string


def _toml_names(path: Path):
    for line in path.read_text(encoding="utf-8").splitlines():
        yield from re.findall(r"[A-Za-z_]\w*", line.split("#", 1)[0])


def _program_name_counts() -> Counter:
    counts = Counter()
    for directory in PROGRAM_DIRS:
        for path in sorted(directory.rglob("*.py")):
            counts.update(_code_names(path))
    counts.update(_toml_names(ROOT / "pyproject.toml"))
    return counts


def _package_defs():
    """(module, qualified name, name) of every function and method, nested ones too."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        stack = [(node, "") for node in tree.body]
        while stack:
            node, prefix = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = prefix + node.name
                if not isinstance(node, ast.ClassDef):
                    yield path.stem, qualname, node.name
                stack.extend((child, qualname + ".") for child in node.body)
            else:
                stack.extend((child, prefix) for child in ast.iter_child_nodes(node))


def test_every_function_in_src_is_used_by_the_program():
    defs = list(_package_defs())
    def_counts = Counter(name for _, _, name in defs)
    uses = _program_name_counts()
    unused = sorted(f"{module}.{qualname}" for module, qualname, name in defs
                    if not (name.startswith("__") and name.endswith("__"))
                    and uses[name] <= def_counts[name])
    assert not unused, (
        "functions the program names only at their own def (test-only code "
        "belongs in tests/oracle_helpers.py): " + ", ".join(unused))


def _record_fields():
    """(class, field) of every annotated field of a direct Record subclass."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(base, ast.Name) and base.id == "Record" for base in node.bases):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        yield node.name, stmt.target.id


def _program_attribute_loads() -> set:
    loads = set()
    for directory in PROGRAM_DIRS:
        for path in sorted(directory.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    loads.add(node.attr)
    return loads


def test_every_record_field_is_read_by_the_program():
    fields = list(_record_fields())
    assert len({cls for cls, _ in fields}) >= 20
    loads = _program_attribute_loads()
    unread = sorted(f"{cls}.{name}" for cls, name in fields if name not in loads)
    assert not unread, (
        "record fields the program never reads as an attribute (a field only the "
        "tests read belongs in tests/oracle_helpers.py): " + ", ".join(unread))
