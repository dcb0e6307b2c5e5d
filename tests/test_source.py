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


def test_no_projection_of_a_full_bracket():
    # the projected kernel schouten(basis, u, v, levi) replaces this wrapper
    paths = sorted(SRC.glob("*.py")) + sorted((SRC.parents[1] / "demos").glob("*.py"))
    found = [p.name for p in paths if "project_to_m(schouten(" in p.read_text(encoding="utf-8")]
    assert found == []
