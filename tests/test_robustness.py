"""Inputs at the edge of the domain: deep expressions and foreign letters.

A regex tree deeper than Python's recursion limit must still be built and
answered, and a regex letter outside the declared alphabet must be
rejected instead of being read as the empty language.
"""

import json

import pytest

from profinite_kit.cli import main
from profinite_kit.closure import pro_g_closure
from profinite_kit.errors import KitError
from profinite_kit.languages import (
    Concat,
    Letter,
    Star,
    regex_letters,
    syntactic_semigroup,
    to_minimal_dfa,
)

LONG_WORD = "a" * 1100  # a left-nested chain of 1,099 concatenations


class TestDeepRegexes:
    def test_closure_of_a_long_word(self, capsys):
        assert main(["closure", "--lang", LONG_WORD, "--word", LONG_WORD]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["data"]["members"] == {LONG_WORD: True}

    def test_entropy_of_a_long_word_is_a_domain_error(self, capsys):
        # one finite word presents no subshift: NotASubshiftError, exit 1
        assert main(["entropy", "--lang", LONG_WORD]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "error"
        assert "no biinfinite paths" in payload["data"]["error"]

    def test_deep_star_chain(self):
        r = Letter("a")
        for _ in range(5000):
            r = Star(r)
        assert regex_letters(r) == frozenset("a")
        dfa = to_minimal_dfa(r)
        assert dfa.n_states == 1
        assert dfa.accepts("") and dfa.accepts("aaa")


class TestForeignRegexLetters:
    def test_minimal_dfa(self):
        with pytest.raises(KitError, match="outside alphabet"):
            to_minimal_dfa(Letter("c"), "ab")

    def test_syntactic_semigroup(self):
        with pytest.raises(KitError, match="outside alphabet"):
            syntactic_semigroup(Concat(Letter("a"), Letter("c")), "ab")

    def test_pro_g_closure(self):
        with pytest.raises(KitError, match="outside alphabet"):
            pro_g_closure(Letter("c"), "ab")
