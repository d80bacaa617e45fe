from fractions import Fraction

from hypothesis import given, strategies as st

from moyalbench.gauss import format_gauss


def reference_format(re, im, den):
    """The text form built from Fraction(re, den) and Fraction(im, den)."""
    r, m = Fraction(re, den), Fraction(im, den)
    if not m:
        return str(r)
    imag = {1: "i", -1: "-i"}.get(m, f"{m}i")
    if not r:
        return imag
    return f"{r}{'' if m < 0 else '+'}{imag}"


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 60))
def test_format_matches_reference(re, im, den):
    assert format_gauss(re, im, den) == reference_format(re, im, den)


FORMS = [
    ((0, 0, 7), "0"),
    ((4, 0, 6), "2/3"),
    ((0, 1, 1), "i"),
    ((0, -3, 3), "-i"),
    ((0, 2, 3), "2/3i"),
    ((3, -2, 6), "1/2-1/3i"),
    ((-2, 1, 1), "-2+i"),
    ((5, -5, 4), "5/4-5/4i"),
]


def test_string_forms():
    for triple, text in FORMS:
        assert format_gauss(*triple) == text
