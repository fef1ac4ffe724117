import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_battery():
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pytest_ids(path: str, name: str) -> list[str]:
    """The ids pytest gives the top-level test function name in path:
    the bare name, or name[id] for each literal ``ids=`` of its
    parametrize decorator."""
    tree = ast.parse((ROOT / path).read_text())
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            for deco in node.decorator_list:
                for kw in getattr(deco, "keywords", ()):
                    if kw.arg == "ids":
                        return [f"{name}[{p}]" for p in ast.literal_eval(kw.value)]
            return [name]
    return []


def test_every_mutant_names_one_place_and_existing_tests():
    # Reads files only: no mutant is applied or run, and no test collected.
    battery = load_battery()
    names = [m.name for m in battery.MUTANTS]
    assert len(set(names)) == len(names)
    for m in battery.MUTANTS:
        assert (ROOT / m.path).read_text().count(m.old) == 1, m.name
        assert m.old != m.new and m.tests and m.reason, m.name
        for test_id in m.tests:
            path, _, function = test_id.partition("::")
            assert function in pytest_ids(
                path, function.partition("[")[0]), test_id


def test_a_missing_workdir_is_refused_before_any_copy(tmp_path, monkeypatch,
                                                      capsys):
    battery = load_battery()

    def forbidden(*args):
        raise AssertionError("a mutant was run")

    monkeypatch.setattr(battery, "run", forbidden)
    missing = tmp_path / "missing"
    with pytest.raises(SystemExit) as info:
        battery.main(["--workdir", str(missing)])
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        f": error: --workdir {missing} is not a directory")
    assert list(tmp_path.iterdir()) == []


def vacuous_asserts(source: str) -> list[int]:
    """Lines of the asserts in source whose test cannot fail: a true
    constant, an ``or`` with a true constant among its operands, or a
    comparison of an expression with itself."""

    def vacuous(test) -> bool:
        if isinstance(test, ast.Constant):
            return bool(test.value)
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
            return any(vacuous(v) for v in test.values)
        if isinstance(test, ast.Compare):
            sides = [test.left, *test.comparators]
            return any(ast.dump(a) == ast.dump(b)
                       for a, b in zip(sides, sides[1:]))
        return False

    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert) and vacuous(node.test)]


def test_no_test_asserts_something_that_cannot_fail():
    found = {path.name: lines for path in sorted((ROOT / "tests").glob("*.py"))
             if (lines := vacuous_asserts(path.read_text()))}
    assert found == {}


@pytest.mark.parametrize("source, lines", [
    ("assert True\nassert 1, 'msg'\nassert x\n", [1, 2]),
    ("assert x or True\nassert (x or (y or 'z'))\nassert x or y\n", [1, 2]),
    ("assert f(x) == f(x)\nassert a < b <= b\nassert x == y\n", [1, 2]),
    ("assert False\nassert x and True\nassert x == -x\n", []),
], ids=["true-constant", "or-true", "self-comparison", "none"])
def test_the_vacuous_assert_scan_flags_each_pattern(source, lines):
    assert vacuous_asserts(source) == lines
