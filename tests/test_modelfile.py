"""Model-file parsing, diagnostics, and canonical round-trips."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cokahler.errors import ModelParseError
from cokahler.modelfile import (CORPUS_MODELS, _SECTIONS, _number,
                                _order_bound, corpus_path, load_corpus, loads,
                                resolve, serialize)
from cokahler.report import _has_contact
from test_report_bytes import PINNED, model_texts, pinned_text

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


def fraction_number(token: str, line: int, fieldname: str):
    """The rational reader that ``_number`` replaced: the same ASCII and
    exponent refusals, then ``Fraction`` on every token."""
    if not token.isascii():
        raise ModelParseError(f"rational {token!r} needs ASCII digits", line,
                              fieldname)
    if "e" in token.lower():
        raise ModelParseError(f"rational {token!r} has an exponent; write it "
                              "out", line, fieldname)
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ModelParseError(f"bad rational {token!r}", line,
                              fieldname) from None


def parsed(read, token: str):
    """(value, None) when ``read`` takes the token, (None, error text) when
    it refuses it."""
    try:
        return read(token, 7, "metric"), None
    except ModelParseError as err:
        return None, str(err)


# tokens over the characters a rational is written with, exponent marks, a
# few letters and a non-ASCII digit, and well-formed rationals with signs,
# underscores, slashes, points and leading zeros
NUMBER_CHARS = "0123456789+-_./eExa٣"
DIGITS = st.text("0123456789", min_size=1, max_size=4)


@st.composite
def rational_token(draw):
    token = draw(st.sampled_from(("", "-", "+"))) + draw(DIGITS)
    if draw(st.booleans()):
        token += "_" + draw(DIGITS)
    tail = draw(st.sampled_from(("", "/", ".")))
    return token + tail + (draw(DIGITS) if tail else "")


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(st.one_of(st.text(NUMBER_CHARS, max_size=8), rational_token()))
def test_a_rational_reads_as_fraction_reads_it_and_is_an_int_where_integral(
        token):
    value, error = parsed(_number, token)
    expected, expected_error = parsed(fraction_number, token)
    assert error == expected_error
    if expected_error is None:
        assert value == expected
        assert (type(value) is int) == (expected.denominator == 1)
        assert type(value) in (int, Fraction)


def fractions_in(value) -> list:
    """Every ``Fraction`` in nested lists, tuples and dict values."""
    if isinstance(value, Fraction):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [f for v in value for f in fractions_in(v)]
    return []


@pytest.mark.parametrize("name", [*CORPUS_MODELS, "rot7-1-3-4", "torus7"])
def test_an_integral_model_meets_no_fraction_up_to_the_connection(name):
    mf = load_corpus(name) if name in CORPUS_MODELS else loads(
        model_texts()[name])
    assert fractions_in(list(vars(mf).values())) == []
    m = mf.to_lie_model()
    assert fractions_in([m.brackets, m.metric, m.xi, m.eta, m.J]) == []
    gamma = [c for row in m.levi_civita() for vec in row
             for c in vec.values()]
    assert fractions_in([c for c in gamma if c == int(c)]) == []
    if name == "heisenberg":     # Gamma_12^3 = 1/2 and its kin
        assert sorted(set(gamma)) == [Fraction(-1, 2), Fraction(1, 2)]
        assert all(type(c) is Fraction for c in gamma)


def test_a_rational_stays_a_fraction_and_an_integral_one_becomes_an_int():
    mf = loads("dimension: 3\n[brackets]\n1 2 3 1/2\n1 3 2 4/2\n"
               "[eta]\n2.0 -0 6/3\n")
    assert [type(c) for *_, c in mf.brackets] == [Fraction, int]
    assert mf.eta == [2, 0, 2] and {type(c) for c in mf.eta} == {int}
    assert type(mf.to_lie_model().brackets[0, 1][2]) is Fraction


# SHA-256 of serialize(load(...)) for every corpus and pinned model, taken
# when every number was read as a Fraction: ints in the fields print alike
CANONICAL = {
    "h3xR2":
        "c53ef85ba7dee794753dbc7ffc56807570abeb839310e224a6839433fe0349db",
    "heisenberg":
        "b75767ff31e1c24db502a207c2b4a13c5a1d50a1a8b902a13b38f326cdb0c312",
    "heisenberg-g":
        "7445eebe7cf4e67acdde36d1f6152ecc6fc2daadd41d3624c32a5e2990b9868a",
    "heisenberg-q":
        "d9a08c4fc226b47067666c25e39495ceb4a4418d25b63ce08ae15b40dbff1d8a",
    "kx5": "8558cd431670c5d85d456a9596ba02ae193da0416444fc6437ceb06ac42c5136",
    "kx5-eta":
        "0f543ce923b823815f261f8308d5c6e5ebd6c1e8d0a856d54bae4e8476831a21",
    "kx5-p":
        "b691afe02d0be504574d9a505fa40a051ab18dee53fe6b56c87a2385a408040e",
    "kx5-q":
        "b657fd3077274b5f1767e8c78750db3e536c79e18176607d1e31347f10070c47",
    "kx7": "da4d816e813b4c849a81c03e3b7178029f56e5d32184dc74e349c13cc3752e52",
    "nil5": "22575f8b592169601b73a05e9082a3f95c7946b66feea68d9c1b06d80b63f5b5",
    "rot5-1-1-g":
        "03e29b62bd5c2862116c0afaaa85e3627c409c2ecde02a51a4a2585ab340ee25",
    "rot5-1-2":
        "1b0f7d9d7bd5d9890615bebf6ad71c306b39764ca7285cb512efaa8d2ec8db1b",
    "rot7-1-1-1":
        "43dcac5ff7c223619adfd11a228e4b0ceb5ebf3e8c93d7c069ded32251bdf766",
    "rot7-1-1-3":
        "1e641c172a4e4b9a542731efdfe098997f0aabeab3537ca6b116fb5b5c1948a0",
    "rot7-1-2-3-conj":
        "caad3c7652f6eec95b4c9552dab7d55da0d3d408637198d0a90c1eaac89b8ab9",
    "rot7-1-2-3-xi4":
        "05f2f3084fc80dc718708a6c9dcafb74e24bf4e20e34ba0c2da46bd7d09641c3",
    "rot9-1-1-1-1":
        "4a879e8702707140f3c813cdd5142159e185e601709d4c8091fcf33a22f81a28",
    "rot9-1-2-3-4":
        "fd7b081ed1971a394ea5ee54a99b3a5adc6fdf30879db4948569b2faefdeb000",
    "rxaff3":
        "3380fde0a7ac2b9aeee3cf04f8362147b1397db7e5378a5862db6cf3a1010c64",
    "rxaff5":
        "506bbe3a374289be6553feb4ec7a20dc6daecac53959b5836ea2da0c91ea5dea",
    "rxch2":
        "7fb263cd0d4c96716c09485712b1bc3e58e8cb33a7421d8b6986a831f5f8fa00",
    "rxkt5":
        "059f6059088e8ebe79afc30b8ee0a1829a5d313e5b8e4ac7da24dbee8d488421",
    "t2-negid-mapping-torus":
        "1fb638502fec8f54924a518e61cd6a974d6d8145fe0560374e7da9fd2cfd35f1",
    "t2-rot4-mapping-torus":
        "9656aa07549ac51b2d7321750dea23696fe78d7872c98cce84702205ca3b01a4",
    "torus3":
        "de6ebf3aeb463e13f9ac513f4956908b08cd6dc0fe70e71cdf83fb0f37d04a27",
    "torus5":
        "6c7829282121e7113ac564c6fa5ab35ea5bb13dcfbed6e6e35252d3ff8f5dff5",
    "torus5-eta":
        "ffda3e843148021823f5b30bfddee5382c4fd7ce6ae853a433bb1623dd7a00bd",
    "torus7":
        "81c387e9455954e314397e580fbd53999d0e962d374770b146bd9894d8a18db2",
    "torus9":
        "374aebab389ffe8af2a23e918703e7a814ab0f46e795c4d8929e5dfc2f01401b",
}


def test_the_canonical_bytes_cover_every_corpus_and_pinned_model():
    assert set(CANONICAL) == {*CORPUS_MODELS, *PINNED}


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_canonical_bytes_match_the_pinned_hash(name):
    text = pinned_text(name) if name in PINNED else None
    mf = load_corpus(name) if text is None else loads(text)
    data = serialize(mf).encode()
    assert hashlib.sha256(data).hexdigest() == CANONICAL[name]
