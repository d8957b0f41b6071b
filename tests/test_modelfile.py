"""Model-file parsing, diagnostics, and canonical round-trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cokahler.errors import ModelParseError
from cokahler.modelfile import (CORPUS_MODELS, _SECTIONS, _order_bound,
                                corpus_path, load_corpus, loads, resolve,
                                serialize)
from cokahler.report import _has_contact
from test_report_bytes import PINNED, pinned_text

GOOD = """\
# a comment
name: heisenberg
dimension: 3

[brackets]
1 2 3 1

[metric]
identity

[xi]
X1

[eta]
e1

[J]
0 0 0
0 0 -1   # trailing comment
0 1 0
"""


def test_parse_good_file():
    mf = loads(GOOD)
    assert mf.name == "heisenberg" and mf.dimension == 3
    assert mf.brackets == [(1, 2, 3, Fraction(1))]
    assert mf.metric is None
    assert mf.xi == [1, 0, 0] and mf.eta == [1, 0, 0]
    assert mf.J[1][2] == Fraction(-1)
    assert _has_contact(mf.to_lie_model())


def test_vector_shorthand_and_explicit_agree():
    short = loads("dimension: 3\n[xi]\nX2\n")
    explicit = loads("dimension: 3\n[xi]\n0 1 0\n")
    assert short.xi == explicit.xi


@pytest.mark.parametrize("text,fragment", [
    ("dimension: 3\n[brackets]\n2 1 3 1\n", "i < j"),
    ("dimension: 3\n[brackets]\n1 2 5 1\n", "out of range"),
    ("dimension: 3\n[brackets]\n1 2 3\n", "i j k c"),
    ("dimension: 3\n[xi]\n1 0\n", "3 components"),
    # str.isdigit holds for '²', where int() fails, and for the
    # Arabic-Indic '١', which int() reads as 1
    ("dimension: 3\n[xi]\nX²\n",
     "index 'X²' needs ASCII digits (line 3, field 'xi')"),
    ("dimension: 3\n\n[eta]\ne١\n",
     "index 'e١' needs ASCII digits (line 4, field 'eta')"),
    # int() and Fraction() read any Unicode decimal digit: '٣' as 3, the
    # fullwidth '２' as 2
    ("dimension: ٣\n", "integer '٣' needs ASCII digits (line 1, field "
     "'dimension')"),
    ("dimension: 3\n[brackets]\n١ 2 3 ٢\n",
     "integer '١' needs ASCII digits (line 3, field 'brackets')"),
    ("dimension: 3\n[brackets]\n1 2 3 ２\n",
     "rational '２' needs ASCII digits (line 3, field 'brackets')"),
    ("dimension: 3\n[J]\n1 0 0\n", "3 rows"),
    ("dimension: 3\n[brackets]\n1 2 3 x\n", "bad rational"),
    ("dimension: 3\n[weird]\n", "unknown section"),
    ("name: x\n", "missing 'dimension:'"),
    ("dim 3\n", "key: value"),
    ("dimension: 3\nfoo: bar\n", "unknown header"),
    ("dimension: 3\n[automorphism]\n1 0 0\n", "order"),
    ("dimension: 2\n[automorphism]\norder 3\n0 -1\n1 0\n",
     "automorphism matrix does not have order 3 (line 3, field "
     "'automorphism')"),
    ("dimension: 2\n[automorphism]\norder 4\n0 -0/11\n1 0\n",
     "automorphism matrix is singular (line 4, field 'automorphism')"),
    # a shear has infinite order: refused after at most gcd(m, 12) products
    ("dimension: 2\n[automorphism]\norder 1000000000000\n1 1\n0 1\n",
     "does not have order 1000000000000"),
    # a dense [xi] of a million entries took 0.8 s and 130 MB before any
    # check; a 12-digit dimension filled memory
    ("dimension: 1000000\n[xi]\nX1\n",
     "dimension must be 1..64 (line 1, field 'dimension')"),
    ("name: big\ndimension: 999999999999\n",
     "dimension must be 1..64 (line 2, field 'dimension')"),
    ("dimension: 0\n", "dimension must be 1..64 (line 1, field 'dimension')"),
    # Fraction computes 10**99999999 for '1e99999999', for over a minute
    ("dimension: 3\n[brackets]\n1 2 3 1e400\n",
     "rational '1e400' has an exponent; write it out (line 3, field "
     "'brackets')"),
    ("dimension: 3\n[eta]\n0 2E1 0\n", "rational '2E1' has an exponent"),
    ("dimension: 3\n[omega]\n1 2 1\n", "unknown section"),
    ("name: a\nname: b\ndimension: 3\ndimension: 5\n",
     "repeated header key 'name', first on line 1 (line 2)"),
    ("dimension: 3\n\ndimension: 5\n",
     "repeated header key 'dimension', first on line 1 (line 3)"),
    ("dimension: 3\n[brackets]\n1 2 3 1\n1 3 2 1\n1 2 3 1\n",
     "repeated bracket triple 1 2 3, first on line 3 (line 5,"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ModelParseError) as err:
        loads(text)
    assert fragment in str(err.value)


def test_an_index_past_the_digit_limit_is_a_parse_error():
    # int() reads at most 4300 digits; past that it raised a bare ValueError
    with pytest.raises(ModelParseError, match="bad integer .* field 'xi'"):
        loads("dimension: 3\n[xi]\nX" + "1" * 4301 + "\n")


def test_parse_error_reports_line_numbers():
    with pytest.raises(ModelParseError) as err:
        loads("dimension: 3\n\n[brackets]\n1 2 3 bad\n")
    assert err.value.line == 4
    assert "line 4" in str(err.value)


def test_round_trip_is_canonical():
    mf = loads(GOOD)
    text1 = serialize(mf)
    mf2 = loads(text1)
    text2 = serialize(mf2)
    assert text1 == text2
    assert mf2.brackets == mf.brackets and mf2.J == mf.J
    assert mf2.xi == mf.xi and mf2.eta == mf.eta


def test_round_trip_all_corpus_models():
    for name in CORPUS_MODELS:
        mf = load_corpus(name)
        again = loads(serialize(mf), name_hint=mf.name)
        assert serialize(again) == serialize(mf)


def test_corpus_models_build(contact_models):
    names = {m.name for m in contact_models}
    assert names == {"torus3", "torus5", "heisenberg"}
    rot = load_corpus("t2-rot4-mapping-torus")
    assert rot.automorphism is not None
    matrix, order = rot.automorphism
    assert order == 4 and matrix[0][1] == Fraction(-1)
    assert not _has_contact(rot.to_lie_model())


def test_resolve_prefers_files(tmp_path):
    target = tmp_path / "custom.model"
    target.write_text("name: custom\ndimension: 2\n")
    assert resolve(str(target)).name == "custom"
    assert resolve("torus3").name == "torus3"
    with pytest.raises(ModelParseError):
        resolve("no-such-model")


def test_metric_section_explicit():
    mf = loads("dimension: 2\n[metric]\n2 0\n0 1\n")
    assert mf.metric == [[2, 0], [0, 1]]
    model = mf.to_lie_model()
    assert model.metric[0][0] == Fraction(2)


def test_rational_entries():
    mf = loads("dimension: 2\n[brackets]\n1 2 1 -3/7\n")
    assert mf.brackets[0][3] == Fraction(-3, 7)


@pytest.mark.parametrize("order, ok", [
    (4, True), (8, True), (4 * 10**12, True), (10**12 + 1, False)])
def test_automorphism_order_is_read_exactly(order, ok):
    # the quarter turn has order 4: M^m = I exactly when 4 divides m
    text = f"dimension: 2\n[automorphism]\norder {order}\n0 -1\n1 0\n"
    if ok:
        assert loads(text).automorphism[1] == order
    else:
        with pytest.raises(ModelParseError, match="does not have order"):
            loads(text)


def test_order_bound_is_a_multiple_of_every_finite_order():
    # orders of finite-order rational matrices of size n (cyclotomic
    # companion blocks): 6 in size 2, 12 in size 4, 30 and 7 in size 6
    for n, orders in ((1, (2,)), (2, (3, 4, 6)), (4, (5, 8, 10, 12)),
                      (6, (7, 9, 14, 18, 30))):
        assert all(_order_bound(n) % d == 0 for d in orders)


# the texts the fuzz starts from, and the pieces it inserts: every token
# class the grammar reads, Unicode digits int() and Fraction() would accept,
# and the tab and CR that split() and splitlines() read as breaks
SEED_TEXTS = tuple(
    [corpus_path(name).read_text() for name in CORPUS_MODELS]
    + [pinned_text(name) for name in sorted(PINNED)
       if pinned_text(name) is not None])
PIECES = (*"0123456789", "-", "+", "/", "[", "]", ":", " ", "\n", "\t", "\r",
          *(f"[{name}]" for name in _SECTIONS), "identity", "order", "X",
          "e", "٣", "２", "²")


@st.composite
def mutated_text(draw):
    """A seed text after one to four insertions, deletions or replacements
    of a few characters."""
    text = draw(st.sampled_from(SEED_TEXTS))
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        at = draw(st.integers(0, len(text)))
        piece = "" if edit == "delete" else draw(st.sampled_from(PIECES))
        cut = 0 if edit == "insert" else draw(st.integers(1, 3))
        text = text[:at] + piece + text[at + cut:]
    return text


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(mutated_text())
def test_a_mutated_text_loads_and_round_trips_or_is_a_parse_error(text):
    try:
        mf = loads(text)
    except ModelParseError:
        return
    assert loads(serialize(mf)) == mf
