"""The modules of the package read one another's public names only.

A name with a leading underscore belongs to its module: ``tableaux._of``
and ``poly._of`` build objects unchecked, valid because their own module's
callers build them right.  The one shared private name is ``poly._of``,
which the closure walk and the cache decoder use to build the polynomials
they have already checked.
"""

import ast
from pathlib import Path

import kohnert

SRC = Path(kohnert.__file__).parent
MODULES = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
# (reader, owner, name) of every private name one module reads of another
ALLOWED = {("diagrams", "poly", "_of"), ("harness", "poly", "_of")}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _module(node: ast.ImportFrom) -> str | None:
    """The package module a ``from`` import reads names of, if any;
    ``kohnert`` itself for ``from . import x``."""
    if node.level == 1:
        return node.module or "kohnert"
    if node.level == 0 and node.module and node.module.split(".")[0] == "kohnert":
        return node.module.removeprefix("kohnert.")
    return None


def private_reads(path: Path) -> set[tuple[str, str, str]]:
    """(reader, owner, name) of each private name of another package module
    that the file at ``path`` imports by name, or reads as an attribute of
    a name imported as that module or named after it (a stand-in object
    bound to the name counts), at any depth of the file."""
    reader = path.stem
    tree = ast.parse(path.read_text(), str(path))
    # a local name -> the package module it is
    bound = {module: module for module in MODULES}
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (owner := _module(node)):
            for alias in node.names:
                if owner == "kohnert" and alias.name in MODULES:
                    bound[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    reads.add((reader, owner, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "kohnert" and len(parts) == 2 and alias.asname:
                    bound[alias.asname] = parts[1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            base = node.value
            if isinstance(base, ast.Name) and base.id in bound:
                reads.add((reader, bound[base.id], node.attr))
            elif (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "kohnert"
                and base.attr in MODULES
            ):
                reads.add((reader, base.attr, node.attr))
    return {read for read in reads if read[1] != reader}


def test_no_module_reads_another_modules_private_names():
    reads = set().union(*map(private_reads, sorted(SRC.glob("*.py"))))
    # equal, not a subset: the walk must find the reads it allows
    assert reads == ALLOWED


def test_every_way_of_reading_a_private_name_is_found(tmp_path):
    path = tmp_path / "reader.py"
    path.write_text(
        "from . import poly, tableaux as t\n"
        "from .perms import _reduced_words, composition\n"
        "from kohnert.harness import _cached\n"
        "import kohnert.bases as b\n"
        "def f():\n"
        "    from . import diagrams\n"
        "    return t._of, diagrams._walk, b._peel, kohnert.cli._cmd_split, poly.__name__\n"
        "perms = object()\n"
        "perms._check\n"
    )
    assert private_reads(path) == {
        ("reader", "perms", "_reduced_words"),
        ("reader", "harness", "_cached"),
        ("reader", "tableaux", "_of"),
        ("reader", "diagrams", "_walk"),
        ("reader", "bases", "_peel"),
        ("reader", "cli", "_cmd_split"),
        ("reader", "perms", "_check"),
    }
