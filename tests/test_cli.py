"""Command line round trips, determinism, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from extsquare import cli, exterior, generate, indexing, jsonio, matrices, plucker, rdu, rings
from extsquare.cli import main


def _gen(tmp_path, name="g.json", n=4, seed=11):
    path = tmp_path / name
    assert main(["gen", "--ring", "zmod:97", "--n", str(n), "--seed", str(seed),
                 "--len", "20", "--out", str(path)]) == 0
    return path


def test_gen_is_deterministic(tmp_path):
    p1 = _gen(tmp_path, "a.json")
    p2 = _gen(tmp_path, "b.json")
    assert p1.read_bytes() == p2.read_bytes()
    p3 = tmp_path / "c.json"
    assert main(["gen", "--ring", "zmod:97", "--n", "4", "--seed", "12",
                 "--len", "20", "--out", str(p3)]) == 0
    assert p1.read_bytes() != p3.read_bytes()


def test_gen_zero_length_is_identity(tmp_path):
    path = tmp_path / "e.json"
    assert main(["gen", "--ring", "zmod:97", "--n", "4", "--seed", "0",
                 "--len", "0", "--out", str(path)]) == 0
    pair = jsonio.pair_from_json(json.loads(path.read_text()))
    assert pair.fwd.is_identity()


def test_gen_output_is_member(tmp_path):
    path = _gen(tmp_path)
    obj = json.loads(path.read_text())
    pair = jsonio.pair_from_json(obj)
    assert plucker.is_member(pair.fwd, obj["n"])


def test_member_exit_codes(tmp_path, capsys):
    path = _gen(tmp_path)
    assert main(["member", "--in", str(path)]) == 0
    out = capsys.readouterr().out
    assert "member" in out and "caveat" in out  # n = 4 note
    bad = {
        "dim": 6,
        "n": 4,
        "ring": {"type": "zmod", "modulus": 97},
        "rows": [["1" if r == c else "0" for c in range(6)] for r in range(6)],
    }
    bad["rows"][5][5] = "2"
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    assert main(["member", "--in", str(bad_path)]) == 1


def test_decompose_verify_round_trip(tmp_path):
    g_path = _gen(tmp_path, n=4)
    d_path = tmp_path / "d.json"
    assert main(["decompose", "--in", str(g_path), "--target", "entry:1,3:1,2",
                 "--k", "2", "--l", "3", "--out", str(d_path)]) == 0
    obj = json.loads(d_path.read_text())
    assert obj["case"] == "h1-entry"
    assert len(obj["word"]["terms"]) == 8
    assert all(c["ok"] for c in obj["certificates"])
    assert main(["verify", "--in", str(d_path), "--g", str(g_path)]) == 0

    # tamper with one conjugate exponent: verification must fail
    obj["word"]["terms"][0]["eps"] = -obj["word"]["terms"][0]["eps"]
    t_path = tmp_path / "t.json"
    t_path.write_text(json.dumps(obj))
    assert main(["verify", "--in", str(t_path), "--g", str(g_path)]) == 1


def test_decompose_diagdiff(tmp_path):
    g_path = _gen(tmp_path, n=4)
    d_path = tmp_path / "d.json"
    assert main(["decompose", "--in", str(g_path), "--target", "diagdiff:1,2:3,4",
                 "--k", "3", "--l", "2", "--out", str(d_path)]) == 0
    obj = json.loads(d_path.read_text())
    assert obj["case"] == "h0-diag"
    assert len(obj["word"]["terms"]) == 48
    assert main(["verify", "--in", str(d_path), "--g", str(g_path)]) == 0


def test_level_command(tmp_path):
    g_path = _gen(tmp_path, n=4)
    l_path = tmp_path / "l.json"
    assert main(["level", "--in", str(g_path), "--out", str(l_path)]) == 0
    obj = json.loads(l_path.read_text())
    assert len(obj["generators"]) == 35
    kinds = {g["kind"] for g in obj["generators"]}
    assert kinds == {"entry", "diagdiff"}


def test_member_and_level_accept_a_plain_matrix_without_dim(tmp_path, capsys):
    # n comes from the matrix's own dimension, as for member
    obj = {
        "ring": {"type": "zmod", "modulus": 97},
        "rows": [["1" if r == c else "0" for c in range(6)] for r in range(6)],
    }
    path = tmp_path / "plain.json"
    path.write_text(json.dumps(obj))
    l_path = tmp_path / "l.json"
    assert main(["member", "--in", str(path)]) == 0
    assert main(["level", "--in", str(path), "--out", str(l_path)]) == 0
    assert json.loads(l_path.read_text())["n"] == 4
    assert "Traceback" not in capsys.readouterr().err


def test_decompose_member_and_level_accept_a_pair_without_dim_or_n(tmp_path, capsys):
    # n comes from the pair's own dimension for every command that reads it
    obj = json.loads(_gen(tmp_path, n=4).read_text())
    del obj["dim"], obj["n"]
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(obj))
    d_path = tmp_path / "d.json"
    assert main(["decompose", "--in", str(path), "--target", "entry:1,3:1,2",
                 "--k", "2", "--l", "3", "--out", str(d_path)]) == 0
    assert json.loads(d_path.read_text())["n"] == 4
    assert main(["verify", "--in", str(d_path), "--g", str(path)]) == 0
    assert main(["member", "--in", str(path)]) == 0
    assert main(["level", "--in", str(path), "--out", str(tmp_path / "l.json")]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_stabilize_column_and_row(tmp_path):
    ring = rings.ModularRing(97)
    rng = generate.rng_for(5, "stab")
    n = 5
    entries = [ring.random(rng) for _ in range(indexing.dim(n))]
    v_path = tmp_path / "w.json"
    v_path.write_text(
        json.dumps(
            {
                "n": n,
                "ring": {"type": "zmod", "modulus": 97},
                "entries": [str(x) for x in entries],
            }
        )
    )
    w_path = tmp_path / "word.json"
    assert main(["stabilize", "--in", str(v_path), "--col", "2",
                 "--out", str(w_path)]) == 0
    obj = json.loads(w_path.read_text())
    assert obj["fixed"] is True
    assert len(obj["word"]["letters"]) == n - 1
    assert main(["stabilize", "--in", str(v_path), "--row", "3",
                 "--out", str(w_path)]) == 0
    assert json.loads(w_path.read_text())["fixed"] is True


def test_stabilize_three_letter_variant(tmp_path):
    g_path = _gen(tmp_path, n=5, seed=7)
    pair = jsonio.pair_from_json(json.loads(g_path.read_text()))
    col = plucker.PairVector.column_of(pair.fwd, 5, (1, 3))
    v_path = tmp_path / "w.json"
    v_path.write_text(jsonio.dumps(jsonio.vector_to_json(col)))
    w_path = tmp_path / "word.json"
    assert main(["stabilize", "--in", str(v_path), "--out", str(w_path)]) == 0
    obj = json.loads(w_path.read_text())
    assert obj["fixed"] is True and len(obj["word"]["letters"]) == 3


def test_gen_corpus_trials(tmp_path):
    path = tmp_path / "corpus.json"
    assert main(["gen", "--ring", "zmod:97", "--n", "4", "--seed", "3",
                 "--len", "10", "--trials", "4", "--out", str(path)]) == 0
    obj = json.loads(path.read_text())
    assert len(obj["trials"]) == 4
    pairs = [jsonio.pair_from_json(t) for t in obj["trials"]]
    assert len({p.fwd for p in pairs}) > 1  # distinct trials
    again = tmp_path / "corpus2.json"
    main(["gen", "--ring", "zmod:97", "--n", "4", "--seed", "3",
          "--len", "10", "--trials", "4", "--out", str(again)])
    assert path.read_bytes() == again.read_bytes()


def test_identities_small(capsys):
    assert main(["identities", "--max-n", "3"]) == 0
    out = capsys.readouterr().out
    assert "SKIP plucker-stabilizer" in out
    assert "PASS transvection-expansion" in out


def test_identities_fail_exit_code(capsys, monkeypatch, clear_sign_dependent_caches):
    # a tampered orientation sign must make the expansion suite fail closed
    from extsquare import indexing

    clear_sign_dependent_caches()
    orig = indexing.canon

    def mutant(i, j, n=None):
        pair, s = orig(i, j, n)
        if (i, j) == (2, 1):
            s = -s
        return pair, s

    with monkeypatch.context() as mp:
        mp.setattr(indexing, "canon", mutant)
        code = main(["identities", "--max-n", "3"])
    clear_sign_dependent_caches()
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_usage_errors(tmp_path):
    assert main(["gen", "--ring", "zmod:97", "--n", "4", "--seed", "1",
                 "--len", "5", "--out", str(tmp_path / "g.json")]) == 0
    assert main(["gen", "--ring", "nonsense", "--n", "4"]) == 2
    assert main(["decompose", "--in", str(tmp_path / "missing.json"),
                 "--target", "entry:1,2:1,3", "--k", "2", "--l", "3"]) == 2
    assert main(["decompose", "--in", str(tmp_path / "g.json"),
                 "--target", "banana:1,2:1,3", "--k", "2", "--l", "3"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_member_rejects_top_level_list(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1,2]")
    assert main(["member", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert "expected a JSON object" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["member", "level"])
def test_member_and_level_reject_a_bare_number(tmp_path, capsys, command):
    path = tmp_path / "five.json"
    path.write_text("5")
    assert main([command, "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert "expected a JSON object, got int" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["member", "level"])
def test_member_and_level_name_a_missing_fwd(tmp_path, capsys, command):
    obj = json.loads(_gen(tmp_path).read_text())
    del obj["fwd"]
    path = tmp_path / "no_fwd.json"
    path.write_text(json.dumps(obj))
    assert main([command, "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert "fwd: missing" in err and "Traceback" not in err


def test_level_rejects_an_n_that_disagrees_with_the_dimension(tmp_path, capsys):
    obj = json.loads(_gen(tmp_path, n=5).read_text())
    obj["n"] = 4  # a 10 x 10 pair read as n = 4 would yield 35 wrong generators
    path = tmp_path / "wrong_n.json"
    path.write_text(json.dumps(obj))
    assert main(["level", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "dimension mismatch" in captured.err


def test_decompose_rejects_an_n_that_disagrees_with_the_dimension(tmp_path, capsys):
    obj = json.loads(_gen(tmp_path, n=4).read_text())
    obj["n"] = 5  # a 6 x 6 pair has n = 4
    path = tmp_path / "wrong_n.json"
    path.write_text(json.dumps(obj))
    assert main(["decompose", "--in", str(path), "--target", "entry:1,3:1,2",
                 "--k", "2", "--l", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: dimension mismatch\n"


@pytest.mark.parametrize(
    "command,field,row,message",
    [("member", "fwd", 3, "fwd[3]: expected 6 entries, got 5"),
     ("decompose", "bwd", 0, "bwd[0]: expected 6 entries, got 5"),
     ("member", "rows", 5, "rows[5]: expected 6 entries, got 5"),
     ("level", "rows", None, "rows: expected 6 rows, got 5")],
    ids=["fwd-entry", "bwd-entry", "rows-entry", "rows-row"],
)
def test_a_truncated_row_names_its_field(tmp_path, capsys, command, field, row, message):
    obj = json.loads(_gen(tmp_path, n=4).read_text())
    if field == "rows":  # a plain matrix artifact
        obj = {"n": 4, "ring": obj["ring"], "rows": obj["fwd"]}
    if row is None:
        obj[field].pop()
    else:
        obj[field][row].pop()
    path = tmp_path / "short.json"
    path.write_text(json.dumps(obj))
    argv = [command, "--in", str(path)]
    if command == "decompose":
        argv += ["--target", "entry:1,3:1,2", "--k", "2", "--l", "3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_verify_rejects_an_n_that_disagrees_with_the_word(tmp_path, capsys):
    g_path = _gen(tmp_path, n=5)
    d_path = tmp_path / "d.json"
    assert main(["decompose", "--in", str(g_path), "--target", "entry:1,3:1,2",
                 "--k", "2", "--l", "3", "--out", str(d_path)]) == 0
    obj = json.loads(d_path.read_text())
    obj["n"] = 4
    d_path.write_text(json.dumps(obj))
    assert main(["verify", "--in", str(d_path), "--g", str(g_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "rank mismatch" in captured.err


@pytest.mark.parametrize(
    "command,message",
    [("decompose", "0 is not a binomial coefficient C(n, 2)"),
     ("member", "0 is not a binomial coefficient C(n, 2)"),
     ("level", "0 is not a binomial coefficient C(n, 2)"),
     ("verify", "dimension mismatch")],
    ids=["decompose", "member", "level", "verify"],
)
def test_an_empty_pair_is_refused_as_an_empty_matrix(tmp_path, capsys, command, message):
    # "fwd": [] and "bwd": [] read as 0 x 0 matrices, refused as a plain
    # matrix with "rows": [] is, and not with numpy's error text
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"ring": {"type": "zmod", "modulus": 97}, "fwd": [], "bwd": []}))
    if command == "verify":
        _decomposition(tmp_path)
        argv = ["verify", "--in", str(tmp_path / "d.json"), "--g", str(path)]
    else:
        argv = [command, "--in", str(path)]
    if command == "decompose":
        argv += ["--target", "entry:1,3:1,2", "--k", "2", "--l", "3"]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "dim,message",
    [(99, "dim: expected 6, the row count, got 99"),
     (True, "dim: expected an integer, got true"),
     (6.0, "dim: expected an integer, got 6.0")],
    ids=["dim-99", "dim-true", "dim-float"],
)
@pytest.mark.parametrize(
    "command", ["decompose", "member", "level", "verify-g", "member-matrix", "level-matrix"]
)
def test_a_dim_that_is_not_the_row_count_is_refused(tmp_path, capsys, command, dim, message):
    # every reader of a 6 x 6 pair or plain matrix reads "dim" when it is
    # there, as an integer equal to the row count
    g_path, _ = _decomposition(tmp_path)
    obj = json.loads(g_path.read_text())
    if command.endswith("-matrix"):
        obj = {"dim": obj["dim"], "n": 4, "ring": obj["ring"], "rows": obj["fwd"]}
    obj["dim"] = dim
    bad = tmp_path / "dim.json"
    bad.write_text(json.dumps(obj))
    if command == "verify-g":
        argv = ["verify", "--in", str(tmp_path / "d.json"), "--g", str(bad)]
    else:
        argv = [command.split("-")[0], "--in", str(bad)]
    if command == "decompose":
        argv += ["--target", "entry:1,3:1,2", "--k", "2", "--l", "3", "--out", str(tmp_path / "o.json")]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_verify_rejects_a_g_whose_n_disagrees_with_its_dimension(tmp_path, capsys):
    # --g is read as decompose reads --in: a 6 x 6 pair with "n": 3 is refused
    g_path, _ = _decomposition(tmp_path)
    obj = json.loads(g_path.read_text())
    obj["n"] = 3
    bad = tmp_path / "g3.json"
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["verify", "--in", str(tmp_path / "d.json"), "--g", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: dimension mismatch\n"


def test_member_rejects_non_list_rows(tmp_path, capsys):
    path = tmp_path / "rows.json"
    path.write_text(
        json.dumps({"ring": {"type": "zmod", "modulus": 97}, "n": 5, "rows": 5})
    )
    assert main(["member", "--in", str(path)]) == 2
    assert "rows: expected a list of rows" in capsys.readouterr().err


def test_artifact_json_round_trips(tmp_path):
    g_path = _gen(tmp_path, n=4)
    obj = json.loads(g_path.read_text())
    pair = jsonio.pair_from_json(obj)
    again = jsonio.pair_to_json(pair, n=obj["n"])
    assert jsonio.dumps(again) == jsonio.dumps(obj)

    d_path = tmp_path / "d.json"
    main(["decompose", "--in", str(g_path), "--target", "entry:1,2:3,4",
          "--k", "2", "--l", "3", "--out", str(d_path)])
    d_obj = json.loads(d_path.read_text())
    word, k, l, param, n, ring = jsonio.decomposition_parts_from_json(d_obj)
    assert jsonio.dumps(jsonio.conj_word_to_json(word, ring)) == jsonio.dumps(
        d_obj["word"]
    )


@pytest.mark.parametrize("command", ["member", "decompose"])
@pytest.mark.parametrize("n", [[5], None])
def test_non_integer_n_exits_2(tmp_path, capsys, command, n):
    obj = json.loads(_gen(tmp_path, n=5).read_text())
    obj["n"] = n
    path = tmp_path / "bad_n.json"
    path.write_text(json.dumps(obj))
    argv = [command, "--in", str(path)]
    if command == "decompose":
        argv += ["--target", "entry:1,3:1,2", "--k", "2", "--l", "3"]
    assert main(argv) == 2
    assert f"n: expected an integer, got {json.dumps(n)}" in capsys.readouterr().err


def test_decompose_target_out_of_range_names_the_pair(tmp_path, capsys):
    g_path = _gen(tmp_path, n=5)
    assert main(["decompose", "--in", str(g_path), "--target", "entry:1,9:1,2",
                 "--k", "2", "--l", "3"]) == 2
    assert "bad index: (1, 9)" in capsys.readouterr().err


def test_rng_for_is_the_sha256_stream():
    # seeded artifacts depend on this derivation staying fixed
    import hashlib
    import random

    digest = hashlib.sha256(repr((7, ("gen", 5, 30, 0))).encode()).digest()
    want = random.Random(int.from_bytes(digest[:8], "big"))
    got = generate.rng_for(7, "gen", 5, 30, 0)
    assert [got.random() for _ in range(3)] == [want.random() for _ in range(3)]


def _decomposition(tmp_path):
    g_path = _gen(tmp_path, n=4)
    d_path = tmp_path / "d.json"
    assert main(["decompose", "--in", str(g_path), "--target", "entry:1,3:1,2",
                 "--k", "2", "--l", "3", "--out", str(d_path)]) == 0
    return g_path, json.loads(d_path.read_text())


def _set(obj, path, value):
    *head, last = path
    for key in head:
        obj = obj[key]
    obj[last] = value


@pytest.mark.parametrize(
    "path,value,message",
    [
        (("fwd", 0, 0), [1], "fwd[0][0]: expected an element of ModularRing(97), got [1]"),
        (("bwd", 2, 1), 2.5, "bwd[2][1]: expected an element of ModularRing(97), got 2.5"),
        (("ring",), 5, "ring: expected a JSON object, got int"),
        (("ring", "modulus"), [97], "ring.modulus: expected an integer, got [97]"),
        (("ring",), {"type": "poly_int", "vars": 5}, "ring.vars: expected a list, got 5"),
        (("ring",), {"type": "poly_int", "vars": [[1]]}, "ring.vars: expected a list of names"),
    ],
    ids=["list-element", "float-element", "ring-not-object", "list-modulus",
         "vars-not-list", "vars-not-names"],
)
def test_member_names_a_malformed_element(tmp_path, capsys, path, value, message):
    obj = json.loads(_gen(tmp_path).read_text())
    _set(obj, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["member", "--in", str(bad)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "path,value,message",
    [
        (("param",), [3], "param: expected an element of ModularRing(97), got [3]"),
        (("word", "terms", 1, "h", "letters", 0, "i"), [1],
         "word.terms[1].h.letters[0].i: expected an integer, got [1]"),
        (("word", "terms", 0, "h", "letters", 0, "xi"), None,
         "word.terms[0].h.letters[0].xi: expected an element of ModularRing(97), got null"),
        (("word", "terms", 3, "eps"), "1", 'word.terms[3].eps: expected an integer, got "1"'),
        (("word", "terms", 2), 7, "word.terms[2]: expected a JSON object, got int"),
        (("word", "terms"), 5, "word.terms: expected a list, got 5"),
        (("word", "terms", 0, "h", "letters"), {}, "word.terms[0].h.letters: expected a list, got {}"),
        (("word",), [], "word: expected a JSON object, got list"),
    ],
    ids=["list-param", "list-letter-index", "null-letter-xi", "string-eps",
         "term-not-object", "terms-not-list", "letters-not-list", "word-not-object"],
)
def test_verify_names_a_malformed_word(tmp_path, capsys, path, value, message):
    g_path, obj = _decomposition(tmp_path)
    _set(obj, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["verify", "--in", str(bad), "--g", str(g_path)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def _delete(obj, path):
    *head, last = path
    for key in head:
        obj = obj[key]
    del obj[last]


@pytest.mark.parametrize(
    "path,message",
    [
        (("word", "terms", 2, "h", "letters"), "word.terms[2].h.letters: missing"),
        (("word", "terms"), "word.terms: missing"),
        (("word", "terms", 1, "h", "letters", 0, "i"), "word.terms[1].h.letters[0].i: missing"),
        (("word", "terms", 0, "h", "letters", 0, "xi"), "word.terms[0].h.letters[0].xi: missing"),
        (("word", "terms", 4, "h"), "word.terms[4].h: missing"),
        (("param",), "param: missing"),
    ],
    ids=["letters", "terms", "letter-index", "letter-xi", "conjugator", "param"],
)
def test_verify_names_a_missing_field(tmp_path, capsys, path, message):
    g_path, obj = _decomposition(tmp_path)
    _delete(obj, path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["verify", "--in", str(bad), "--g", str(g_path)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "path,value,message",
    [
        (("word", "terms", 1, "h", "letters", 0), {"i": 3, "j": 3, "xi": "1"},
         "word.terms[1].h.letters[0]: bad index (i = j = 3 at n = 5)"),
        (("word", "terms", 1, "h", "letters", 0), {"i": 6, "j": 1, "xi": "1"},
         "word.terms[1].h.letters[0]: bad index (i = 6, j = 1 at n = 5)"),
        (("word", "terms", 1, "eps"), 2, "word.terms[1].eps: expected +1 or -1, got 2"),
        (("k",), 3, "k: bad index (k = l = 3 at n = 5)"),
        (("l",), 0, "l: bad index (k = 2, l = 0 at n = 5)"),
        (("k",), 6, "k: bad index (k = 6, l = 3 at n = 5)"),
        (("word", "terms", 1, "h", "n"), 4, "word.terms[1].h.n: expected 5, the word's n, got 4"),
        (("word", "n"), 6, "word.terms[0].h.n: expected 6, the word's n, got 5"),
    ],
    ids=["letter-i-equals-j", "letter-i-out-of-range", "eps-2", "k-equals-l", "l-out-of-range",
         "k-out-of-range", "conjugator-n", "word-n"],
)
def test_verify_names_a_bad_index_exponent_or_rank(tmp_path, capsys, path, value, message):
    g_path = _gen(tmp_path, n=5)
    d_path = tmp_path / "d.json"
    assert main(["decompose", "--in", str(g_path), "--target", "entry:1,2:3,4",
                 "--k", "2", "--l", "3", "--out", str(d_path)]) == 0
    obj = json.loads(d_path.read_text())
    _set(obj, path, value)
    d_path.write_text(json.dumps(obj))
    assert main(["verify", "--in", str(d_path), "--g", str(g_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: {message}\n" == captured.err


def test_missing_matrix_fields_are_named(tmp_path, capsys):
    g_path, obj = _decomposition(tmp_path)
    d_path = tmp_path / "d.json"
    d_path.write_text(json.dumps(obj))
    g = json.loads(g_path.read_text())
    no_rows = {"n": g["n"], "dim": g["dim"], "ring": g["ring"]}
    del g["fwd"]
    bad_g = tmp_path / "bad_g.json"
    bad_g.write_text(json.dumps(g))
    assert main(["verify", "--in", str(d_path), "--g", str(bad_g)]) == 2
    err = capsys.readouterr().err
    assert "fwd: missing" in err and "Traceback" not in err
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps(no_rows))
    assert main(["member", "--in", str(matrix)]) == 2
    err = capsys.readouterr().err
    assert "rows: missing" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "entries,message",
    [(5, "entries: expected a list, got 5"),
     (["1", [2]], "entries[1]: expected an element of ModularRing(97), got [2]")],
    ids=["entries-not-list", "list-entry"],
)
def test_stabilize_names_a_malformed_vector(tmp_path, capsys, entries, message):
    v_path = tmp_path / "w.json"
    v_path.write_text(json.dumps(
        {"n": 4, "ring": {"type": "zmod", "modulus": 97}, "entries": entries}
    ))
    assert main(["stabilize", "--in", str(v_path), "--col", "2"]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


# sha256 prefixes of the n=5, seed-1 artifacts; a refactor must not move a byte
_PINNED = {
    "zmod:97": {
        "gen": "e825f7499dc8fbce",
        "entry:1,3:1,2 2,3": "be3f2f445763da58",
        "entry:1,3:1,2 5,1": "57b48ca72b07f680",
        "entry:1,2:3,4 2,3": "5610484f1249c467",
        "entry:1,2:3,4 5,1": "034259e94fdd2209",
        "diagdiff:1,2:1,3 2,3": "703d4c36b0359e57",
        "diagdiff:1,2:1,3 5,1": "0eb3ca3dbc0a6334",
        "diagdiff:1,2:3,4 2,3": "6ebf6cb62e94e8f0",
        "diagdiff:1,2:3,4 5,1": "bc67cbce295ec85f",
    },
    "zmod:2147483647": {
        "gen": "a05cf324b4224b8a",
        "entry:1,3:1,2 2,3": "64b48a1d3848595d",
        "entry:1,3:1,2 5,1": "ead148a047ac7165",
        "entry:1,2:3,4 2,3": "9f926ba983317051",
        "entry:1,2:3,4 5,1": "b841175588b36218",
        "diagdiff:1,2:1,3 2,3": "9b908fbf5c31ddfe",
        "diagdiff:1,2:1,3 5,1": "dc082f9f5ae62484",
        "diagdiff:1,2:3,4 2,3": "9790fb584ecf03e1",
        "diagdiff:1,2:3,4 5,1": "01d29456f0cde8fa",
    },
}


@pytest.mark.parametrize("ring", sorted(_PINNED))
def test_gen_and_decompose_artifact_bytes_are_pinned(tmp_path, ring):
    import hashlib

    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()[:16]

    g_path = tmp_path / "g.json"
    assert main(["gen", "--ring", ring, "--n", "5", "--seed", "1", "--out", str(g_path)]) == 0
    got = {"gen": digest(g_path)}
    d_path = tmp_path / "d.json"
    for target in ("entry:1,3:1,2", "entry:1,2:3,4", "diagdiff:1,2:1,3", "diagdiff:1,2:3,4"):
        for k, l in ((2, 3), (5, 1)):
            assert main(["decompose", "--in", str(g_path), "--target", target,
                         "--k", str(k), "--l", str(l), "--out", str(d_path)]) == 0
            got[f"{target} {k},{l}"] = digest(d_path)
    assert got == _PINNED[ring]


@pytest.mark.parametrize(
    "argv,named",
    [
        (["gen", "--n", "0"], "--n"),
        (["gen", "--n", "-2"], "--n"),
        (["gen", "--n", "2"], "--n"),
        (["gen", "--n", "5", "--len", "-1"], "--len"),
        (["decompose", "--in", "{g}", "--target", "entry:1,3:1,2", "--k", "0", "--l", "3"], "--k"),
        (["decompose", "--in", "{g}", "--target", "entry:1,3:1,2", "--k", "2", "--l", "2"], "--k"),
        (["decompose", "--in", "{g}", "--target", "entry:1,3:1,3", "--k", "2", "--l", "3"],
         "--target"),
        (["decompose", "--in", "{g}", "--target", "diagdiff:1,3:1,3", "--k", "2", "--l", "3"],
         "--target"),
        (["decompose", "--in", "{g}", "--target", "entry:1,3", "--k", "2", "--l", "3"],
         "--target"),
        (["verify", "--in", "{d}", "--g", "{g101}"], "ring mismatch"),
        (["verify", "--in", "{d}", "--g", "{gint}"], "ring mismatch"),
        (["gen", "--ring", "zmod:abc"],
         "--ring: expected int, zmod:<m> or poly:<v,...>, got 'zmod:abc'"),
        (["stabilize", "--in", "{v}", "--col", "0"], "--col: bad index (0 at n = 5)"),
        (["stabilize", "--in", "{v}", "--row", "9"], "--row: bad index (9 at n = 5)"),
        (["decompose", "--in", "{g3}", "--target", "entry:1,3:1,2", "--k", "2", "--l", "3"],
         "decompose needs n >= 4, got n = 3"),
        (["identities", "--max-n", "7"], "--max-n: must be between 3 and 6, got 7"),
        (["stabilize", "--in", "{v2}", "--col", "1"], "needs n >= 3, got n = 2"),
        (["stabilize", "--in", "{v2}", "--row", "2"], "needs n >= 3, got n = 2"),
        (["stabilize", "--in", "{v4}"], "the three-letter form needs n >= 5, got n = 4"),
    ],
    ids=["gen-n-0", "gen-n-negative", "gen-n-2", "gen-len-negative", "k-0", "k-equals-l",
         "entry-I-equals-J", "diagdiff-I-equals-J", "target-one-pair", "verify-zmod-101",
         "verify-int", "ring-zmod-abc", "stabilize-col-0", "stabilize-row-9",
         "decompose-n-3", "identities-max-n-7", "stabilize-col-n-2", "stabilize-row-n-2",
         "stabilize-three-letter-n-4"],
)
def test_flag_usage_errors_exit_2_and_name_the_flag(tmp_path, capsys, argv, named):
    paths = {key: str(tmp_path / f"{key}.json")
             for key in ("g", "g101", "gint", "g3", "d", "v", "v2", "v4")}
    for key, ring, n in (("g", "zmod:97", 5), ("g101", "zmod:101", 5), ("gint", "int", 5),
                         ("g3", "zmod:97", 3)):
        assert main(["gen", "--ring", ring, "--n", str(n), "--seed", "1", "--len", "20",
                     "--out", paths[key]]) == 0
    assert main(["decompose", "--in", paths["g"], "--target", "entry:1,3:1,2",
                 "--k", "2", "--l", "3", "--out", paths["d"]]) == 0
    ring = rings.ModularRing(97)
    for key, n in (("v", 5), ("v2", 2), ("v4", 4)):
        entries = [ring.random(generate.rng_for(1, "flags", i)) for i in range(indexing.dim(n))]
        with open(paths[key], "w", encoding="utf-8") as fh:
            fh.write(jsonio.dumps(jsonio.vector_to_json(plucker.PairVector(n, ring, entries))))
    capsys.readouterr()
    assert main([a.format(**paths) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err and "Traceback" not in captured.err


def test_failed_verify_names_the_first_difference(tmp_path, capsys):
    g_path = _gen(tmp_path, n=5)
    d_path = tmp_path / "d.json"
    assert main(["decompose", "--in", str(g_path), "--target", "entry:1,2:3,4",
                 "--k", "4", "--l", "1", "--out", str(d_path)]) == 0
    obj = json.loads(d_path.read_text())
    obj["word"]["terms"][5]["eps"] = -obj["word"]["terms"][5]["eps"]
    t_path = tmp_path / "t.json"
    t_path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["verify", "--in", str(t_path), "--g", str(g_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "verification failed\n"

    # the first differing entry, found here by the letter-by-letter product
    word, k, l, param, n, ring = jsonio.decomposition_parts_from_json(obj)
    g = jsonio.pair_from_json(json.loads(g_path.read_text()))
    got = rdu._naive_product(word, g)
    want = exterior.cauchy_binet(matrices.transvection(ring, n, k, l, param), n)
    r, c = next((r, c) for r in range(g.dim) for c in range(g.dim)
                if got.at(r, c) != want.at(r, c))
    (a, b), (p, q) = indexing.unrank(r, n), indexing.unrank(c, n)
    assert captured.err == (f"first difference at ({{{a},{b}}}, {{{p},{q}}}): "
                            f"product {got.at(r, c)}, expected {want.at(r, c)}\n")


def test_gen_at_rank_one_exits_2_instead_of_looping():
    # a child process, so that a regression fails on the timeout instead of
    # hanging the suite
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "extsquare.cli", "gen", "--n", "1"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 2 and done.stdout == ""
    assert "--n" in done.stderr and "Traceback" not in done.stderr
    ring, rng = rings.ModularRing(97), generate.rng_for(0, "letters")
    with pytest.raises(ValueError):
        generate.random_transv_word(1, ring, 3, rng)
    with pytest.raises(ValueError):
        generate.random_ext_word(5, ring, -1, rng)


def _fresh_interpreter(code, *args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=60, env=env)


def test_each_command_loads_only_what_it_runs(tmp_path):
    # member reads a matrix and checks it: in a fresh interpreter it must
    # leave the engine and the identity suites unloaded; decompose loads the
    # engine, and a matrix outside the group is still a property failure
    g_path = _gen(tmp_path)
    bad = {"dim": 6, "n": 4, "ring": {"type": "zmod", "modulus": 97},
           "fwd": [[str(int(r == c) + (r == c == 0)) for c in range(6)] for r in range(6)],
           "bwd": [[str(49 if r == c == 0 else int(r == c)) for c in range(6)] for r in range(6)]}
    bad_path = tmp_path / "outside.json"
    bad_path.write_text(json.dumps(bad))
    code = ("import json, sys\n"
            "from extsquare import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('extsquare'))]))\n")
    done = _fresh_interpreter(code, "member", "--in", str(g_path))
    code_, loaded = json.loads(done.stdout.splitlines()[-1])
    assert code_ == 0 and done.stdout.startswith("member")
    assert "extsquare.plucker" in loaded
    assert "extsquare.rdu" not in loaded and "extsquare.certify" not in loaded, loaded
    done = _fresh_interpreter(code, "decompose", "--in", str(bad_path), "--target", "entry:1,3:1,2",
                              "--k", "2", "--l", "3")
    code_, loaded = json.loads(done.stdout.splitlines()[-1])
    assert code_ == 1 and "extsquare.rdu" in loaded
    assert done.stderr.startswith("property failure: ") and "Traceback" not in done.stderr
