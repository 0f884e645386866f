"""The package exports only what the program uses.

Every public top-level function and class in src/tfm_synth is either
referenced from another module of the package than __init__ (a name, an
attribute or an import; a docstring does not count), or re-exported by
the package's __init__ and named in README.md, where a user finds it.  A
re-export alone is not a use.  Reference implementations that only tests
need live in tests/oracles.py, and nothing in the package imports them.
Its exception classes are the two of tfm_synth.errors, one per CLI exit
code, and the search's private budget signal.
"""

import ast
import builtins
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


# the exit-code contract of tfm_synth.errors: one class per exit code, and
# the search's private budget signal, which never leaves inversion
EXCEPTION_CLASSES = {
    ("errors", "ConfigError"),
    ("errors", "NumericalError"),
    ("inversion", "_BudgetSpent"),
}


def _is_exception_base(base):
    name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
    return re.search(r"(Error|Exception|Warning)$", name) is not None


def test_the_package_defines_two_error_classes():
    """Every exception class in the package is ConfigError (exit 2),
    NumericalError (exit 3) or inversion._BudgetSpent: a class named like
    an error, or derived from an exception class, counts wherever it is
    defined."""
    found = set()
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and (
                node.name.endswith("Error")
                or any(_is_exception_base(base) for base in node.bases)
            ):
                found.add((module, node.name))
    assert found == EXCEPTION_CLASSES


def test_numerical_failures_raise_numerical_error():
    """No module raises a builtin arithmetic error (FloatingPointError,
    OverflowError, ZeroDivisionError): a numerical failure is a
    NumericalError, which the CLI maps to exit 3."""
    arithmetic = {
        name
        for name, obj in vars(builtins).items()
        if isinstance(obj, type) and issubclass(obj, ArithmeticError)
    }
    raised = []
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in arithmetic:
                raised.append(f"tfm_synth.{module}:{node.lineno} raises {exc.id}")
    assert not raised, "; ".join(raised)


def _called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_every_simulation_result_field_is_read_by_the_program():
    """Each field of SimulationResult is read by a function of the
    package, as an attribute of a name bound to a result there: a
    parameter annotated SimulationResult or a name assigned a simulate(...)
    call.  A field that only tests read is not kept on the result."""
    trees = _trees()
    [result_class] = [
        node for node in trees["simulate"].body
        if isinstance(node, ast.ClassDef) and node.name == "SimulationResult"
    ]
    fields = {
        node.target.id for node in result_class.body
        if isinstance(node, ast.AnnAssign)
    }
    read = set()
    for tree in trees.values():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            bound = {
                arg.arg for arg in func.args.args
                if isinstance(arg.annotation, ast.Name)
                and arg.annotation.id == "SimulationResult"
            }
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                    and _called_name(node.value) == "simulate"
                ):
                    bound.update(
                        t.id for t in node.targets if isinstance(t, ast.Name)
                    )
            read.update(
                node.attr for node in ast.walk(func)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in bound
            )
    assert len(fields) > 10
    assert fields <= read, (
        "SimulationResult fields no program path reads: "
        + ", ".join(sorted(fields - read))
    )
