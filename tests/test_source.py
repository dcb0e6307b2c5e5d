import ast
from pathlib import Path

import orbitpoisson

SRC = Path(orbitpoisson.__file__).parent


def test_no_assert_statements():
    # python -O strips assert; internal checks raise InternalInvariantError
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_one_internal_invariant_error():
    from orbitpoisson import brackets, roots

    assert orbitpoisson.InternalInvariantError is brackets.InternalInvariantError
    assert brackets.InternalInvariantError is roots.InternalInvariantError
