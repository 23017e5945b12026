"""Tests for the rank(e) derived operator ([CH] toolkit)."""

import pytest

from repro.qlhs import (
    Assign,
    QLhsInterpreter,
    decode_number,
    parse_term,
    seq,
)
from repro.qlhs.derived import rank_of
from repro.symmetric import infinite_clique


@pytest.fixture(scope="module")
def it():
    return QLhsInterpreter(infinite_clique(), budget=10 ** 7)


def measured_rank(it, source_text: str) -> int:
    prog = seq(Assign("S", parse_term(source_text)),
               rank_of("S", "N", "t"))
    return decode_number(it.execute(prog)["N"])


class TestRankOf:
    @pytest.mark.parametrize("source,expected", [
        ("down(down(E))", 0),
        ("down(E)", 1),
        ("E", 2),
        ("R1", 2),
        ("up(E)", 3),
        ("up(up(E))", 4),
    ])
    def test_nonempty_values(self, it, source, expected):
        assert measured_rank(it, source) == expected

    def test_empty_value_ranks_zero(self, it):
        """Documented: rank of an empty value is 0 — there is nothing to
        project, so the loop never runs (the [CH] operator is only
        applied to non-empty relations in the completeness proof)."""
        assert measured_rank(it, "R1 & !R1") == 0

    def test_source_preserved(self, it):
        prog = seq(Assign("S", parse_term("up(E)")),
                   rank_of("S", "N", "t"))
        store = it.execute(prog)
        assert store["S"] == it.eval_term(parse_term("up(E)"), {})

    def test_output_is_valid_number(self, it):
        """The result interoperates with the counter toolkit."""
        from repro.qlhs import inc_term
        from repro.qlhs.ast import VarT
        prog = seq(Assign("S", parse_term("E")),
                   rank_of("S", "N", "t"),
                   Assign("N", inc_term(VarT("N"))))
        assert decode_number(it.execute(prog)["N"]) == 3
