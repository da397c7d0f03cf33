from itertools import product

import pytest

from semilab.presentations import (EMPTY, GROUP_COMPLETION, PLAIN, Letter,
                                   ParseError, Presentation,
                                   PresentationError, Relation, bar_copy,
                                   build_gm, format_presentation,
                                   free_product, parse_presentation_text,
                                   presentation_to_json, reverse)


def pres(text):
    return parse_presentation_text(text)


ABC = pres("letters: a b c")


def test_reverse_example():
    w = ABC.word("a b a c b")
    assert ABC.word_str(reverse(w)) == "b c a b a"


def test_reverse_involution_exhaustive():
    letters = pres("letters: a b").alphabet
    for n in range(6):
        for w in product(letters, repeat=n):
            assert reverse(reverse(w)) == w


def test_reverse_antihomomorphism_exhaustive():
    letters = ABC.alphabet
    words = [w for n in range(4) for w in product(letters, repeat=n)]
    for u in words:
        for v in words:
            if len(u) + len(v) <= 6:
                assert reverse(u + v) == reverse(v) + reverse(u)


def test_letter_ranks_interleave():
    p = pres("letters: a a' b b'")
    assert [p.letter_str(l) for l in p.alphabet] == ["a", "a'", "b", "b'"]
    ranks = [l.rank for l in p.alphabet]
    assert ranks == sorted(ranks)
    assert p.letter("a").rank < p.letter("a'").rank < p.letter("b").rank


def test_word_str_empty_is_identity_token():
    assert ABC.word_str(EMPTY) == "1"
    assert ABC.word("1") == EMPTY


def test_bar_copy_mirrors_and_reverses():
    p = pres("letters: a b\nrel: a b = b a\nrel: a a = 1")
    q = bar_copy(p)
    assert [q.letter_str(l) for l in q.alphabet] == ["a'", "b'"]
    # each relation of q is the barred, reversed image of one of p's
    def barred_rev(w):
        return tuple(l.bar() for l in reversed(w))
    images = {(barred_rev(r.lhs), barred_rev(r.rhs)) for r in p.relations}
    assert {(r.lhs, r.rhs) for r in q.relations} == images


def test_bar_copy_rejects_barred_input():
    p = pres("letters: a a'\nrel: a a' = 1\nrel: a' a = 1")
    with pytest.raises(PresentationError):
        bar_copy(p)


def test_free_product_merges():
    p = pres("letters: a b\nrel: a b = b a")
    q = bar_copy(p)
    fp = free_product(p, q)
    assert [fp.letter_str(l) for l in fp.alphabet] == ["a", "a'", "b", "b'"]
    assert len(fp.relations) == 2
    # words from either factor keep their meaning
    assert fp.word("a b") == p.word("a b")


def test_free_product_name_collision():
    p = pres("letters: a b")
    with pytest.raises(PresentationError):
        free_product(p, pres("letters: b c"))


def test_build_gm_shape():
    p = pres("letters: x y a b c d u v\nrel: x a = y b\nrel: x c = y d\n"
             "rel: u a = v b")
    gm = build_gm(p)
    assert gm.kind == GROUP_COMPLETION
    assert len(gm.alphabet) == 16
    # relations: originals, their mirrored copies, and both inverse laws
    assert len(gm.relations) == 2 * 3 + 2 * 8
    inv = {(r.lhs, r.rhs) for r in gm.relations if r.rhs == EMPTY}
    a = gm.letter("a")
    ab = gm.letter("a'")
    assert ((a, ab), EMPTY) in inv and ((ab, a), EMPTY) in inv


def test_build_gm_small_example():
    gm = build_gm(pres("letters: a\nrel: a a = a"))
    got = {(gm.word_str(r.lhs), gm.word_str(r.rhs)) for r in gm.relations}
    assert got == {("a a", "a"), ("a' a'", "a'"),
                   ("a a'", "1"), ("a' a", "1")}


def test_parse_format_round_trip():
    texts = [
        "letters: a b\nrel: a b = b a\n",
        "letters: x y a b c d u v\nrel: x a = y b\nrel: x c = y d\n"
        "rel: u a = v b\n",
        "letters: a a'\nkind: group-completion\nrel: a a' = 1\n"
        "rel: a' a = 1\n",
    ]
    for text in texts:
        p = pres(text)
        assert format_presentation(p) == text
        assert pres(format_presentation(p)) == p


def test_parse_comments_and_blanks():
    p = pres("# heading\n\nletters: a b  # trailing\n\nrel: a b = b a # eq\n")
    assert len(p.alphabet) == 2 and len(p.relations) == 1


@pytest.mark.parametrize("text,lineno,fragment", [
    ("rel: a b = b a", 1, "letters"),
    ("letters: a\nletters: b", 2, "duplicate letters"),
    ("letters: a\nkind: nonsense", 2, "unknown kind"),
    ("letters: a\nrel: a = a = a", 2, "exactly one"),
    ("letters: a\nrel: a =", 2, "empty relation side"),
    ("letters: a\nrel: a b = a", 2, "unknown letter"),
    ("letters: a 1", 1, "invalid letter"),
    ("letters: a a", 1, "duplicate letter"),
    ("letters: a\nfrobnicate", 2, "unrecognized"),
    ("", 1, "missing letters"),
    ("letters:", 1, "empty letters line"),
    ("letters: a\nrel: a' = a", 2, "unknown letter \"a'\""),
    ("# Z\nletters: a a'\nkind: group-completion\nrel: a a' = 1", 3,
     "missing the inverse relation for 'a'"),
])
def test_parse_errors_carry_line_numbers(text, lineno, fragment):
    with pytest.raises(ParseError) as exc:
        pres(text)
    assert exc.value.lineno == lineno
    assert fragment in str(exc.value)


def test_identity_token_parses_to_empty_word():
    p = pres("letters: a\nrel: a a = 1")
    assert p.relations[0].rhs == EMPTY


def test_presentation_json():
    p = pres("letters: a b\nrel: a b = b a")
    j = presentation_to_json(p)
    assert j == {"letters": ["a", "b"], "kind": PLAIN,
                 "relations": [["a b", "b a"]]}


def test_relation_letters_must_exist():
    with pytest.raises(PresentationError):
        Presentation(("a",), (Letter(0, False),),
                     (Relation((Letter(1, False),), EMPTY),), PLAIN)
