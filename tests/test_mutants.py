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
