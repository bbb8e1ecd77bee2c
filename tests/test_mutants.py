"""The checked-in mutant list (tools/mutants.py) still names real lines and
real tests."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutants)


@pytest.mark.parametrize("name,file,line,replacement,tests", mutants.MUTANTS, ids=[m[0] for m in mutants.MUTANTS])
def test_every_mutated_line_occurs_once_in_its_file(name, file, line, replacement, tests):
    # only the list is checked here; the mutants run in tools/mutants.py
    lines = (ROOT / "src" / "extsquare" / file).read_text().split("\n")
    assert lines.count(line) == 1, name
    assert replacement != line and tests
    for test in tests:
        path, _, func = test.partition("::")
        assert (ROOT / path).is_file(), test
        assert not func or re.search(rf"^def {func}\(", (ROOT / path).read_text(), re.M), test
