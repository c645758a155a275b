"""Every public top-level function and class of coxauto is read in src/,
or is library API: listed in DOCUMENTED_API and named in the README module
list.  Every public method of a public class is read as an attribute in
src/, or is listed in READ_OUTSIDE_SRC with its reason.  Every private
function and method is read in src/, or is listed in CALLED_BY_LIBRARY with
its reason.  Test helpers belong in tests/conftest.py."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCUMENTED_API = (
    "weak_leq", "prefixes", "suffixes", "join", "project", "parabolic_image",
    "intersect_parabolic", "restriction_compatibility_check",
    "shadow_in_subsystem", "restrict_letters", "check_morphism", "isomorphic")
READ_OUTSIDE_SRC = {
    "CoxeterSystem.num_interned_roots": "perfbench/worker.py reads it",
}
CALLED_BY_LIBRARY = {
    "_Parser.error": "argparse calls it on a usage error",
}


def _definitions_and_reads():
    """Per top-level statement of the package: the public name it defines
    (or None), and the names, attributes and imported names it reads."""
    out = []
    for path in sorted((ROOT / "src" / "coxauto").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            public = (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                      and not stmt.name.startswith("_"))
            reads = {getattr(node, "id", None) or getattr(node, "attr", None)
                     or getattr(node, "name", None) for node in ast.walk(stmt)
                     if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}
            out.append((f"{path.stem}.{stmt.name}" if public else None, reads))
    return out


def test_every_public_definition_is_read_or_documented():
    statements = _definitions_and_reads()
    unread = [qualified for i, (qualified, _) in enumerate(statements)
              if qualified and qualified.split(".")[1] not in DOCUMENTED_API
              and not any(qualified.split(".")[1] in reads
                          for j, (_, reads) in enumerate(statements) if j != i)]
    assert unread == []


def test_documented_api_is_defined_and_named_in_the_module_list():
    defined = {qualified.split(".")[1]
               for qualified, _ in _definitions_and_reads() if qualified}
    readme = (ROOT / "README.md").read_text()
    start = readme.index("\nModules: ")
    module_list = readme[start:readme.index("\n\n", start)]
    for name in DOCUMENTED_API:
        assert name in defined and f"`{name}`" in module_list, name


def _attribute_reads(node: ast.AST) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute))


def test_every_public_method_is_read_or_listed():
    methods, reads = {}, Counter()
    for path in sorted((ROOT / "src" / "coxauto").glob("*.py")):
        tree = ast.parse(path.read_text())
        reads += _attribute_reads(tree)
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
                methods.update((f"{stmt.name}.{item.name}", item)
                               for item in stmt.body
                               if isinstance(item, ast.FunctionDef)
                               and not item.name.startswith("_"))
    assert set(READ_OUTSIDE_SRC) <= set(methods)
    # a read inside the method itself does not count
    unread = [qualified for qualified, item in methods.items()
              if qualified not in READ_OUTSIDE_SRC
              and reads[item.name] == _attribute_reads(item)[item.name]]
    assert unread == []


def _reads(node: ast.AST) -> Counter:
    return Counter(sub.attr if isinstance(sub, ast.Attribute) else sub.id
                   for sub in ast.walk(node)
                   if isinstance(sub, (ast.Attribute, ast.Name)))


def test_every_private_definition_is_read_or_listed():
    # private: a top-level function or a method whose name starts with one
    # underscore, or any method of such a class but the dunders, which
    # Python calls
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    definitions, reads = {}, Counter()
    for path in sorted((ROOT / "src" / "coxauto").glob("*.py")):
        tree = ast.parse(path.read_text())
        reads += _reads(tree)
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef) and private(stmt.name):
                definitions[f"{path.stem}.{stmt.name}"] = stmt
            elif isinstance(stmt, ast.ClassDef):
                definitions.update(
                    (f"{stmt.name}.{item.name}", item) for item in stmt.body
                    if isinstance(item, ast.FunctionDef)
                    and (private(item.name) or private(stmt.name)
                         and not item.name.startswith("__")))
    assert set(CALLED_BY_LIBRARY) <= set(definitions)
    # a read inside the definition itself does not count
    unread = [qualified for qualified, item in definitions.items()
              if qualified not in CALLED_BY_LIBRARY
              and reads[item.name] == _reads(item)[item.name]]
    assert unread == []
