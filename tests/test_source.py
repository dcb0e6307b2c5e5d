import ast
from pathlib import Path

import orbitpoisson

SRC = Path(orbitpoisson.__file__).parent


def _raises_assertion_error(node) -> bool:
    return isinstance(node, ast.Raise) and node.exc is not None and any(
        isinstance(n, ast.Name) and n.id == "AssertionError" for n in ast.walk(node.exc)
    )


def _called_names(node) -> set:
    return {
        n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None)
        for n in ast.walk(node)
        if isinstance(n, ast.Call)
    }


def test_no_assert_statements():
    # python -O strips assert; internal checks raise InternalInvariantError,
    # never a bare AssertionError
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert) or _raises_assertion_error(node)
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


def test_levi_actions_read_the_bracket_table():
    # the Levi actions act on basis indices through the bracket table, which
    # holds the normalized structure constants once
    lines = (SRC / "invariants.py").read_text(encoding="utf-8").splitlines()
    found = [n for n, line in enumerate(lines, 1) if "structure_constant(" in line]
    assert found == []


def test_schouten_kernel_sums_numerators():
    # the kernel sums Gaussian-integer numerators and makes one scalar per
    # output term, so no per-term scalar coercion or accumulation comes back
    tree = ast.parse((SRC / "multivec.py").read_text(encoding="utf-8"))
    kernel = next(
        n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "schouten"
    )
    assert _called_names(kernel).isdisjoint({"as_scalar", "_accumulate"})


def test_bracket_readers_take_the_table_ints():
    # the Schouten kernel and the Levi rows read the bracket table's ints over
    # bracket_denominator, so neither goes through the Fraction view
    # bracket_index or turns a Fraction back into an int
    def function(module, name):
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        return next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)

    readers = [function("multivec.py", "schouten"), function("invariants.py", "_levi_rows")]
    banned = {"bracket_index", "numerator", "denominator"}
    found = [
        (fn.name, n.attr)
        for fn in readers
        for n in ast.walk(fn)
        if isinstance(n, ast.Attribute) and n.attr in banned
    ]
    assert found == []


def test_elimination_kernel_runs_on_numerators():
    # rows are Gaussian-integer numerators over one denominator, so only the
    # kernel's boundary makes values: _value, and kernel_basis for the 1 at
    # each free column
    tree = ast.parse((SRC / "linalg.py").read_text(encoding="utf-8"))
    called = {
        (fn.name, n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None))
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name not in {"_value", "kernel_basis"}
        for n in ast.walk(fn)
        if isinstance(n, ast.Call)
    }
    assert {fn for fn, _ in called} >= {"add", "_reduce", "_eliminate"}
    made = {"Fraction", "GaussianRational", "_gq", "as_scalar"}
    assert [(fn, name) for fn, name in sorted(called) if name in made] == []


def test_delta_columns_run_on_numerators():
    # the Levi rows, the owner read-off with its exact check, and the
    # d^2 check run on ints and (re, im) int pairs: none of them makes a value
    tree = ast.parse((SRC / "invariants.py").read_text(encoding="utf-8"))
    names = {"_levi_rows", "_owned_numerators", "_owner_columns", "delta_matrix",
             "_assert_square_zero"}
    functions = {n.name: n for n in ast.walk(tree)
                 if isinstance(n, ast.FunctionDef) and n.name in names}
    assert set(functions) == names
    made = {"Fraction", "GaussianRational", "_gq", "as_scalar"}
    found = sorted(
        (name, n.id)
        for name, fn in functions.items()
        for n in ast.walk(fn)
        if isinstance(n, ast.Name) and n.id in made
    )
    assert found == []


def test_invariants_never_apply_ad_action():
    # every invariant space is solved as the joint kernel of the Levi root
    # vectors, so nothing applies them again at run time
    tree = ast.parse((SRC / "invariants.py").read_text(encoding="utf-8"))
    names = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    names |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert "ad_action" not in names


def test_realize_has_no_check_argument():
    tree = ast.parse((SRC / "brackets.py").read_text(encoding="utf-8"))
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "realize")
    params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
    assert [a.arg for a in params] == ["b", "basis"]


def test_quasiroot_searches_run_on_keys():
    # the doubled-pair and repeated-triple stages of the witness search and
    # the admissible pairs and triples test sums on additive int keys, so none
    # of them builds a tuple sum
    def functions(module):
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        return {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}

    levi, brackets = functions("levi.py"), functions("brackets.py")
    witness = brackets["find_inconsistency_witness"]
    stages = [n for n in witness.body if isinstance(n, ast.For)][:2]
    searches = stages + [levi["admissible_pairs"], levi["admissible_triples"]]
    assert len(searches) == 4
    assert [node.lineno for node in searches if "add" in _called_names(node)] == []
