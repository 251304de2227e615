"""No function under src/utmcont takes a parameter that its body never
reads: such a parameter is an option that does nothing.  A name with a
leading underscore marks a placeholder that a fixed call signature needs
(a command's (cfg, args)) and is exempt.

Below the public functions of ``utmcont.continuous``, no ``tol`` has a
default: each layer runs at the tolerance of the request, and a call that
dropped it would run at some other one without a word."""

import ast
from pathlib import Path

import utmcont

SRC = Path(utmcont.__file__).parent


def _unread_parameters(path):
    """(function, parameter) for each parameter of a def in the module at
    ``path`` that no name in the function's body reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                  a.vararg, a.kwarg) if p is not None]
        read = {name.id for statement in node.body
                for name in ast.walk(statement) if isinstance(name, ast.Name)}
        for param in params:
            if param not in read and not param.startswith("_"):
                yield f"{node.name}({param})"


def test_every_parameter_is_read():
    found = [f"{path.relative_to(SRC)}: {unread}"
             for path in sorted(SRC.rglob("*.py"))
             for unread in _unread_parameters(path)]
    assert not found, found


# the public functions take a tol of their own; HalfLineTransform is the
# tests' k-integral oracle
_TOL_DEFAULT_ALLOWED = {
    "continuous/__init__.py: evaluate_I0",
    "continuous/__init__.py: evaluate_boundary_integral",
    "continuous/__init__.py: taylor_coefficients",
    "continuous/__init__.py: evaluate_extended",
    "quad.py: __init__",
}


def _tol_defaults(path):
    """The name of each def in the module at ``path`` whose parameter
    ``tol`` has a default other than None (None is no tolerance at all)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        positional = [*a.posonlyargs, *a.args]
        pairs = [*zip(positional[len(positional) - len(a.defaults):],
                      a.defaults), *zip(a.kwonlyargs, a.kw_defaults)]
        if any(p.arg == "tol" and d is not None
               and not (isinstance(d, ast.Constant) and d.value is None)
               for p, d in pairs):
            yield node.name


def test_no_tol_has_a_default_below_the_public_functions():
    found = {f"{path.relative_to(SRC)}: {name}"
             for path in sorted(SRC.rglob("*.py"))
             for name in _tol_defaults(path)}
    unexpected = sorted(found - _TOL_DEFAULT_ALLOWED)
    assert not unexpected, unexpected
