"""Every name a module of the package imports is used: referenced in the
module, or re-exported through its __all__.  A stand-in for a linter's
unused-import rule, on the parsed source (ast), with no package import."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "afflat")


def unused_imports(source):
    """Names bound by the imports of a module source and never used."""
    tree = ast.parse(source)
    bound = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_unused_imports_finds_the_leftovers():
    src = ("import os.path\nfrom a import b, c as d\nfrom e import f, g\n"
           "__all__ = ['f']\n\ndef h():\n    return os.path, d\n")
    assert unused_imports(src) == [(2, "b"), (3, "g")]


def test_no_unused_imports_in_the_package():
    found = {}
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        with open(os.path.join(SRC, name)) as f:
            bad = unused_imports(f.read())
        if bad:
            found[name] = bad
    assert found == {}
