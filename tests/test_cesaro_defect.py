"""The Cesaro defect: phi_n(w) - phi(w) = A(w)/(2n+1) once 2n+1 exceeds the
word's span D, and the bound |phi_n - phi| <= 4s/(2n+1) certified for
every n >= 0 from one defect per word plus the finitely many n below D/2.
"""

from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from nctorus import (
    BlockProductState,
    CesaroState,
    InputError,
    MixtureState,
    MomentSequence,
    ProductState,
    TRACE,
    TorusAlgebra,
    brute_cesaro_word,
    canonicalize,
    evaluate_word,
)
from nctorus.states import FLOAT_TOLERANCE, cesaro_defect

F = Fraction


def mixture_base():
    # the mixture of acceptance criterion 8: half squared-kernel moments, half uniform
    return MixtureState((
        (F(1, 2), ProductState(MomentSequence({0: 1, 2: F(2, 3), 4: F(1, 6)}))),
        (F(1, 2), ProductState(MomentSequence.lebesgue())),
    ))


BASES = {
    "trace": TRACE,
    "c2": ProductState(MomentSequence({0: 1, 2: F(1, 2)})),
    "mixture": mixture_base(),
    "cesaro1": CesaroState(1, mixture_base()),
}


def criterion_7_words():
    """The normal-form words of acceptance criterion 7: at most 3 factors
    on indices -3..3 with exponents in -2..2."""
    exps = [e for e in range(-2, 3) if e]
    words = [()]
    for k in (1, 2, 3):
        for idxs in combinations(range(-3, 4), k):
            for es in product(exps, repeat=k):
                words.append(tuple(zip(idxs, es)))
    return words


@st.composite
def normal_words(draw):
    indices = sorted(draw(st.sets(st.integers(-4, 4), max_size=4)))
    exps = st.integers(-4, 4).filter(bool)
    return tuple((i, draw(exps)) for i in indices)


@settings(max_examples=150, deadline=None)
@given(beta=st.sampled_from(["1/2", "1/4"]), name=st.sampled_from(sorted(BASES)),
       word=normal_words(), mode=st.sampled_from(["exact", "float"]), data=st.data())
def test_defect_is_the_cesaro_gap_past_half_the_span(beta, name, word, mode, data):
    num, den = map(int, beta.split("/"))
    algebra = TorusAlgebra(canonicalize(num, den))
    base = BASES[name]
    span, defect = cesaro_defect(base, word, algebra, mode=mode)
    assert span == (word[-1][0] - word[0][0] if word else 0)
    n = data.draw(st.integers(0, span + 2), label="n")  # both sides of span/2
    phi = evaluate_word(base, word, algebra, mode=mode)
    phi_n = evaluate_word(CesaroState(n, base), word, algebra, mode=mode)
    brute = brute_cesaro_word(CesaroState(n, base), word, algebra, mode=mode)
    if mode == "exact":
        assert phi_n == brute
        if 2 * n + 1 > span:
            assert phi_n - phi == defect * F(1, 2 * n + 1)
    else:
        assert abs(phi_n - brute) <= FLOAT_TOLERANCE
        if 2 * n + 1 > span:
            assert abs(phi_n - phi - defect / (2 * n + 1)) <= FLOAT_TOLERANCE


def test_defect_pins():
    algebra = TorusAlgebra(canonicalize(1, 2))
    # u0^2 u1^2 over the mixture: split 1/9, joined 2/9, one gap of width 1
    assert cesaro_defect(mixture_base(), ((0, 2), (1, 2)), algebra) == (1, -F(1, 9))
    assert cesaro_defect(mixture_base(), ((0, 2), (3, 2)), algebra) == (3, -F(3, 9))
    # a product clusters on every cut; a block of odd degree reads zero
    assert cesaro_defect(BASES["c2"], ((-1, 2), (0, -2), (2, 4)), algebra) == (3, 0)
    assert cesaro_defect(mixture_base(), ((0, 1), (1, 1)), algebra) == (1, 0)
    assert cesaro_defect(TRACE, ((0, 2),), algebra) == (0, 0)
    # inadmissible float moments: the split blocks of degree 1 read zero, as
    # block_product reads them, while the whole word of degree 2 reads c_1^2
    odd = ProductState(MomentSequence({0: 1, 1: 0.5}, mode="float"))
    word = ((0, 1), (1, 1))
    assert cesaro_defect(odd, word, algebra, mode="float") == (1, -0.25)
    gap = (evaluate_word(CesaroState(1, odd), word, algebra, mode="float")
           - evaluate_word(odd, word, algebra, mode="float"))
    assert abs(gap + 0.25 / 3) <= FLOAT_TOLERANCE
    assert cesaro_defect(TRACE, (), algebra, mode="float") == (0, 0j)
    with pytest.raises(InputError, match="shift invariant"):
        cesaro_defect(BlockProductState(1, TRACE), ((0, 2),), algebra)


@pytest.mark.parametrize("name", sorted(BASES))
def test_cesaro_bound_certified_for_every_n(name):
    """|phi_n(w) - phi(w)| <= 4s/(2n+1) for all n >= 0 on criterion 7's
    words, s the largest |index|.  For 2n+1 > D the gap is A/(2n+1), and
    |A| <= 2D <= 4s covers all those n at once; each n with 2n+1 <= D is
    evaluated directly: at most 3 per word, where criterion 7 evaluates
    n = 1..20 (and proves nothing beyond)."""
    algebra = TorusAlgebra(canonicalize(1, 2))
    base = BASES[name]
    words = criterion_7_words()
    assert len(words) == 2605
    direct = 0
    for w in words:
        s = max((abs(i) for i, _ in w), default=0)
        span, defect = cesaro_defect(base, w, algebra)
        a = defect.to_rational()
        assert a is not None and abs(a) <= 2 * span <= 4 * s, (w, a)
        phi = evaluate_word(base, w, algebra)
        for n in range(0, (span + 1) // 2):  # the n with 2n+1 <= D
            gap = (evaluate_word(CesaroState(n, base), w, algebra) - phi).to_rational()
            direct += 1
            assert gap is not None and abs(gap) <= F(4 * s, 2 * n + 1), (w, n, gap)
    assert direct < 3 * len(words)
