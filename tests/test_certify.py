"""The symbolic certification suites all pass at desk scale."""

import pytest

from extsquare import certify, stabilizer
from extsquare.words import ExtWord


def test_expansion_suite():
    assert certify.expansion_suite(5).status == "pass"


def test_worked_example_suite():
    assert certify.worked_expansion_example().status == "pass"


def test_chevalley_suite():
    assert certify.chevalley_suite(5).status == "pass"


def test_column_stabilizer_suite():
    assert certify.column_stabilizer_suite((3, 4, 5)).status == "pass"


def test_row_stabilizer_suite():
    assert certify.row_stabilizer_suite((3, 4)).status == "pass"


def test_increment_suite():
    assert certify.increment_cancellation_suite(5).status == "pass"


def test_plucker_stabilizer_suite():
    assert certify.plucker_stabilizer_suite(5).status == "pass"


def test_plucker_vanishing_suite():
    assert certify.plucker_vanishing_suite(5).status == "pass"


def test_criterion_suite():
    assert certify.criterion_suite(4).status == "pass"


def test_monomial_suite():
    assert certify.monomial_suite((4, 5)).status == "pass"


def test_parabolic_pattern_suite():
    assert certify.parabolic_pattern_suite().status == "pass"


def test_run_all_small():
    results = certify.run_all(4)
    assert all(r.status in ("pass", "skip") for r in results)
    skipped = {r.name for r in results if r.status == "skip"}
    assert "plucker-stabilizer" in skipped  # needs n >= 5


def test_run_all_rejects_out_of_range():
    with pytest.raises(ValueError):
        certify.run_all(2)
    with pytest.raises(ValueError):
        certify.run_all(7)


def test_plucker_stabilizer_suite_certifies_the_word_that_ships(monkeypatch):
    # a sign flipped in the word stabilizer builds must fail the suite, so
    # the suite cannot pass on a copy of its own
    assert certify.plucker_stabilizer_suite(5).status == "pass"

    def flipped(n, letters):
        first, (i, j, xi), last = letters
        return ExtWord(n, (first, (i, j, tuple((e, -c) for e, c in xi)), last))

    monkeypatch.setattr(stabilizer, "ExtWord", flipped)
    assert certify.plucker_stabilizer_suite(5).status == "fail"
