"""Every command on mutated valid artifacts: no traceback, exit 0, 1 or 2.

Each example takes one valid artifact, changes one thing in it (drops,
retypes or wraps a field, truncates rows, gives a wrong n or dim, a bad
modulus, a bwd that is not the inverse, or a bad letter), and runs the
command in process.  Exit 1 must come from a failed property or from a
DecompositionError / CertificateError ("property failure: ..."); exit 2
must leave stdout empty.
"""

import contextlib
import io
import json
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from extsquare import generate, jsonio, plucker, rdu, rings
from extsquare.cli import main

N = 4  # the smallest engine rank keeps every run to milliseconds

ODD_VALUES = (None, True, 1.5, "x", "", [], {}, 0, -1, 2**70, "9" * 40)
FIELD_VALUES = {
    "n": (0, -1, 2, 3, 5, 7, 10**6),
    "dim": (0, -1, 5, 7, 10, 10**6),
    "modulus": (0, -97, 1, 2, 2**31 + 1, 2**70),
    "i": (0, -1, N + 1, 10**9),
    "j": (0, -1, N + 1, 10**9),
    "k": (0, -1, 1, N + 1, 10**9),
    "l": (0, -1, 3, N + 1, 10**9),
    "eps": (0, 2, -2, 10**9),
    "xi": ("9" * 60, "-5", str(2**64), "0"),
    "param": ("9" * 60, "-5", "0"),
}

# command name -> (base artifact, argv after the artifact path)
COMMANDS = {
    "decompose": ("pair", ["--target", "entry:1,3:1,2", "--k", "2", "--l", "3"]),
    "verify": ("decomposition", ["--g", "{pair}"]),
    "verify-g": ("pair", []),
    "member": ("pair", []),
    "member-matrix": ("matrix", []),
    "level": ("pair", []),
    "level-matrix": ("matrix", []),
    "stabilize": ("vector", []),
    "stabilize-col": ("vector", ["--col", "2"]),
    "stabilize-row": ("vector", ["--row", "3"]),
}


@lru_cache(maxsize=None)
def _bases():
    """One valid artifact of each kind, as JSON text."""
    ring = rings.ModularRing(97)
    g = generate.compound_of_random(N, ring, 12, generate.rng_for(3, "fuzz"))
    d = rdu.ReverseDecomposer(g, N).entry((1, 3), (1, 2), 2, 3)
    # the three-letter stabilizer needs n >= 5
    g5 = generate.compound_of_random(5, ring, 12, generate.rng_for(3, "fuzz"))
    column = plucker.PairVector.column_of(g5.fwd, 5, (1, 3))
    return {
        "pair": jsonio.dumps(jsonio.pair_to_json(g, n=N)),
        "matrix": jsonio.dumps(jsonio.matrix_to_json(g.fwd, n=N)),
        "decomposition": jsonio.dumps(jsonio.decomposition_to_json(d, ring)),
        "vector": jsonio.dumps(jsonio.vector_to_json(column)),
    }


def _paths(obj, path=()):
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _paths(value, path + (key,))
    elif isinstance(obj, list):
        for k, value in enumerate(obj):
            yield from _paths(value, path + (k,))


def _get(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _mutate(obj, data):
    """One mutation of obj, drawn from `data`; returns the new object."""
    paths = list(_paths(obj))
    op = data.draw(st.sampled_from(("drop", "retype", "wrap", "truncate", "field", "bwd")))
    if op == "field":
        paths = [p for p in paths if p and p[-1] in FIELD_VALUES] or paths
    elif op == "truncate":
        paths = [p for p in paths if isinstance(_get(obj, p), list) and _get(obj, p)] or paths
    elif op == "bwd":
        paths = [p for p in paths if len(p) == 3 and p[0] == "bwd"] or paths
    elif op == "drop":
        paths = paths[1:]
    path = data.draw(st.sampled_from(paths))
    old = _get(obj, path)
    if op == "drop":
        value = _DROP
    elif op == "retype":
        value = data.draw(st.sampled_from(ODD_VALUES))
    elif op == "wrap":
        value = data.draw(st.sampled_from(([old], {"value": old})))
    elif op == "truncate" and isinstance(old, list):
        value = old[:-1] if data.draw(st.booleans()) else [row[:-1] if isinstance(row, list) else row for row in old]
    elif op == "field" and path and path[-1] in FIELD_VALUES:
        value = data.draw(st.sampled_from(FIELD_VALUES[path[-1]]))
    elif op == "bwd" and isinstance(old, str) and old.isdigit():
        value = str((int(old) + 1) % 97)
    else:
        value = data.draw(st.sampled_from(ODD_VALUES))
    if not path:
        return None if value is _DROP else value
    parent = _get(obj, path[:-1])
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return obj


_DROP = object()


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _failed_property(command, out, err):
    """Exit 1 is legitimate: a checked property failed, or the engine
    raised a DecompositionError or CertificateError."""
    if err.startswith("property failure: "):
        return True
    if command.startswith("verify"):
        return out == "verification failed\n"
    if command.startswith("member"):
        return out.startswith("not a member")
    if command.startswith("stabilize"):
        return json.loads(out)["fixed"] is False
    return False


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "pair.json").write_text(_bases()["pair"])
    (path / "decomposition.json").write_text(_bases()["decomposition"])
    return path


def test_unmutated_artifacts_pass(workdir):
    for command, (base, extra) in COMMANDS.items():
        (workdir / "in.json").write_text(_bases()[base])
        code, out, err = _run(_argv(command, workdir, extra))
        assert (code, err) == (0, ""), command


def _argv(command, workdir, extra):
    name = command.split("-")[0]
    if command == "verify-g":
        return [name, "--in", str(workdir / "decomposition.json"), "--g", str(workdir / "in.json")]
    extra = [str(workdir / "pair.json") if a == "{pair}" else a for a in extra]
    return [name, "--in", str(workdir / "in.json"), *extra]


@settings(
    max_examples=500,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(command=st.sampled_from(sorted(COMMANDS)), data=st.data())
def test_mutated_artifacts_exit_cleanly(workdir, command, data):
    base, extra = COMMANDS[command]
    obj = _mutate(json.loads(_bases()[base]), data)
    (workdir / "in.json").write_text(json.dumps(obj))
    code, out, err = _run(_argv(command, workdir, extra))
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("error: ")
    if code == 1:
        assert _failed_property(command, out, err), (out, err)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    ring=st.sampled_from(("zmod:0", "zmod:-97", "zmod:1", "zmod:2", "zmod:x", "zmod:", "int",
                          "poly:x", "zmod:" + str(2**70), "zmod:2147483647")),
    n=st.sampled_from((-1, 0, 3, 4)),
    length=st.sampled_from((-1, 0, 3)),
    trials=st.sampled_from((-1, 0, 1, 2)),
)
def test_gen_arguments_exit_cleanly(ring, n, length, trials):
    argv = ["gen", "--ring", ring, "--n", str(n), "--len", str(length), "--trials", str(trials)]
    code, out, err = _run(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("error: ")
    if code == 1:
        assert err == "generated matrix failed the membership criterion\n"
