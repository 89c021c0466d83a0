"""The exception types of errors.py."""

import ast
import pathlib

import blaschke_verify

PACKAGE = pathlib.Path(blaschke_verify.__file__).parent


def _raised_names(tree) -> set:
    """Names of the classes that `raise` statements of tree raise."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_every_error_type_is_raised():
    # a type that no module raises can only be told apart by tests; the
    # catch-all base is there to be caught
    defined = {
        node.name
        for node in ast.parse((PACKAGE / "errors.py").read_text()).body
        if isinstance(node, ast.ClassDef)
    }
    raised = set().union(
        *(_raised_names(ast.parse(path.read_text())) for path in PACKAGE.glob("*.py"))
    )
    assert defined - raised - {"BlaschkeVerifyError"} == set()
