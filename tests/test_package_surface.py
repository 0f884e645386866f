"""The package exports only what the program uses.

Every public top-level function and class in src/tfm_synth is either
referenced from another module of the package than __init__ (a name, an
attribute or an import; a docstring does not count), or re-exported by
the package's __init__ and named in README.md, where a user finds it.  A
re-export alone is not a use.  Reference implementations that only tests
need live in tests/oracles.py, and nothing in the package imports them.
"""

import ast
import pathlib
import re

import tfm_synth

PACKAGE = pathlib.Path(tfm_synth.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in MODULES}


def _references(tree):
    """(owner, name) for every name, attribute and import in the module;
    owner is the top-level definition the reference sits in, or None."""
    refs = set()
    for node in tree.body:
        owner = (
            node.name
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            else None
        )
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                refs.add((owner, sub.id))
            elif isinstance(sub, ast.Attribute):
                refs.add((owner, sub.attr))
            elif isinstance(sub, ast.ImportFrom):
                refs.update((owner, alias.name) for alias in sub.names)
    return refs


def test_every_public_definition_has_a_caller_in_the_package():
    trees = _trees()
    refs = {module: _references(tree) for module, tree in trees.items()}
    exported = {name for _, name in refs.pop("__init__")}
    readme = README.read_text()
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or node.name.startswith("_"):
                continue
            if any(
                ref == node.name and (other != module or owner != node.name)
                for other in refs
                for owner, ref in refs[other]
            ):
                continue
            if node.name not in exported or not re.search(
                rf"\b{node.name}\b", readme
            ):
                unused.append(f"tfm_synth.{module}.{node.name}")
    assert not unused, (
        "neither used inside the package nor re-exported by "
        f"tfm_synth/__init__.py and named in README.md: {', '.join(unused)}"
    )


def test_the_package_imports_no_test_code():
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            for name in names:
                root = name.split(".")[0]
                assert root not in ("oracles", "tests", "conftest"), (
                    f"tfm_synth.{module} imports {name}"
                )
