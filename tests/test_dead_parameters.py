"""No function under src/utmcont takes a parameter that its body never
reads: such a parameter is an option that does nothing.  A name with a
leading underscore marks a placeholder that a fixed call signature needs
(a command's (cfg, args)) and is exempt."""

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
