"""Value semantics of the package's record classes.

Each record compares equal to a record of the same class with equal fields
and to nothing else, hashes as the tuple of its fields when it is
immutable, prints as Class(field=value, ...), refuses assignment to its fields when
it is immutable, and survives copy and pickle.  The constructor the records share
refuses arguments that do not bind to the fields.
"""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from nctorus import (
    IDENTITY,
    IRRATIONAL,
    TRACE,
    BlockProductState,
    CesaroState,
    CheckReport,
    Composite,
    Counterexample,
    DeformationParameter,
    IsotropySubgroup,
    MixtureState,
    MomentSequence,
    PartialShift,
    ProductState,
    PsdVerdict,
    QQi,
    Shift,
    TableMap,
    Trace,
    isotropy,
    parse_beta,
)
from nctorus.expr import _Token


def moments():
    return MomentSequence({0: 1, 2: Fraction(1, 2), -2: Fraction(1, 2)})


def half_trace_mixture():
    return MixtureState(((Fraction(1, 2), TRACE), (Fraction(1, 2), BlockProductState(0, TRACE))))


# (id, make, fields, other, repr): make() builds a fresh record, fields is
# the tuple of its field values, other() a record of the same class that
# differs in one field
IMMUTABLE = [
    ("beta", lambda: parse_beta("1/12"), (1, 12, ((2, 2), (3, 1))),
     lambda: parse_beta("5/12"),
     "DeformationParameter(numerator=1, denominator=12, denominator_factors=((2, 2), (3, 1)))"),
    ("irrational", lambda: DeformationParameter(), (None, None, None),
     lambda: parse_beta("0"),
     "DeformationParameter(numerator=None, denominator=None, denominator_factors=None)"),
    ("isotropy", lambda: isotropy(parse_beta("1/12")), (6,),
     lambda: IsotropySubgroup(None), "IsotropySubgroup(generator=6)"),
    ("token", lambda: _Token("nat", "12", 1, 3), ("nat", "12", 1, 3),
     lambda: _Token("nat", "12", 1, 4), "_Token(kind='nat', value='12', line=1, column=3)"),
    ("trace", lambda: Trace(), (), None, "Trace()"),
    ("block", lambda: BlockProductState(1, TRACE), (1, TRACE),
     lambda: BlockProductState(2, TRACE), "BlockProductState(half_width=1, base=Trace())"),
    ("cesaro", lambda: CesaroState(2, TRACE), (2, TRACE),
     lambda: CesaroState(2, CesaroState(0, TRACE)),
     "CesaroState(half_width=2, base=Trace())"),
    ("mixture", half_trace_mixture,
     (((Fraction(1, 2), TRACE), (Fraction(1, 2), BlockProductState(0, TRACE))),),
     lambda: MixtureState(((1, TRACE),)),
     "MixtureState(parts=((Fraction(1, 2), Trace()), "
     "(Fraction(1, 2), BlockProductState(half_width=0, base=Trace()))))"),
    ("shift", lambda: Shift(-1), (-1,), lambda: Shift(), "Shift(amount=-1)"),
    ("partial", lambda: PartialShift(2), (2,), lambda: PartialShift(), "PartialShift(pivot=2)"),
    ("composite", lambda: Composite((Shift(1), PartialShift(0))), ((Shift(1), PartialShift(0)),),
     lambda: IDENTITY, "Composite(parts=(Shift(amount=1), PartialShift(pivot=0)))"),
    ("table", lambda: TableMap(0, (1, 2)), (0, (1, 2)), lambda: TableMap(0, (1, 3)),
     "TableMap(lo=0, values=(1, 2))"),
    ("counterexample", lambda: Counterexample("u[1]", "tau", "1", "0"), ("u[1]", "tau", "1", "0"),
     lambda: Counterexample("u[1]", "tau", "1", "1"),
     "Counterexample(word='u[1]', action='tau', before='1', after='0')"),
    ("report", lambda: CheckReport("p", "trace", True, 3, 4, None, "b"),
     ("p", "trace", True, 3, 4, None, "b"),
     lambda: CheckReport("p", "trace", True, 3, 5, None, "b"),
     "CheckReport(property_name='p', state='trace', passed=True, exhaustive_cases=3, "
     "random_trials=4, counterexample=None, budget='b')"),
    ("qqi", lambda: QQi(Fraction(1, 2)), (Fraction(1, 2), Fraction(0)),
     lambda: QQi(Fraction(1, 2), 1), "QQi(re=Fraction(1, 2), im=Fraction(0, 1))"),
]


@pytest.mark.parametrize("make,fields,other,text", [c[1:] for c in IMMUTABLE],
                         ids=[c[0] for c in IMMUTABLE])
def test_immutable_records(make, fields, other, text):
    x, y = make(), make()
    assert x == y and not x != y
    assert hash(x) == hash(y) == hash(fields)
    assert repr(x) == text
    assert x != fields and x != object()
    if other is not None:
        assert x != other()
    for name in re.findall(r"(\w+)=", text):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == make()
    assert copy.copy(x) == x == pickle.loads(pickle.dumps(x))


def test_product_state_is_unhashable_through_its_moments():
    x = ProductState(moments())
    assert repr(x) == "ProductState(moments=MomentSequence({-2: 1/2, 0: 1, 2: 1/2}, mode='exact'))"
    assert x == ProductState(moments())
    assert x != ProductState(MomentSequence({0: 1}))
    with pytest.raises(TypeError, match="unhashable type: 'MomentSequence'"):
        hash(x)
    with pytest.raises(AttributeError):
        x.moments = moments()


def test_psd_verdict_is_mutable_and_unhashable():
    v = PsdVerdict(False, (1, 2), Fraction(-1, 2))
    assert repr(v) == ("PsdVerdict(is_psd=False, witness=(1, 2), "
                       "form_value=Fraction(-1, 2), min_eigenvalue=None)")
    assert repr(PsdVerdict(True)) == (
        "PsdVerdict(is_psd=True, witness=None, form_value=None, min_eigenvalue=None)")
    assert v == PsdVerdict(False, witness=(1, 2), form_value=Fraction(-1, 2))
    assert v != PsdVerdict(False, (1, 2), Fraction(-1, 3))
    with pytest.raises(TypeError, match="unhashable type: 'PsdVerdict'"):
        hash(v)
    v.min_eigenvalue = -0.5
    assert v.min_eigenvalue == -0.5 and v != PsdVerdict(False, (1, 2), Fraction(-1, 2))
    assert copy.copy(v) == v == pickle.loads(pickle.dumps(v))


def test_records_of_different_classes_with_equal_fields_differ():
    assert BlockProductState(1, TRACE) != CesaroState(1, TRACE)
    assert CesaroState(1, TRACE) != BlockProductState(1, TRACE)
    assert Shift(0) != PartialShift(0)
    assert len({BlockProductState(1, TRACE), CesaroState(1, TRACE)}) == 2


def test_defaults_and_keywords():
    assert DeformationParameter() == IRRATIONAL
    assert Shift() == Shift(amount=1) and PartialShift() == PartialShift(pivot=0)
    assert IDENTITY == Composite(parts=())
    assert TableMap(lo=-1, values=(0,)) == TableMap(-1, (0,))
    assert BlockProductState(half_width=1, base=TRACE) == BlockProductState(1, TRACE)
    assert CheckReport(property_name="p", state="s", passed=False, exhaustive_cases=0,
                       random_trials=1, counterexample=Counterexample("1", "id", "1", "0"),
                       budget="b").counterexample.after == "0"
    assert PsdVerdict(True).witness is None


def test_mixture_weights_become_a_tuple_of_fractions():
    x = MixtureState([(1, TRACE)])
    assert x.parts == ((Fraction(1), TRACE),) and type(x.parts) is tuple
    assert type(x.parts[0][0]) is Fraction
    assert x == MixtureState(((Fraction(1), TRACE),))


# (id, make, message): make() binds its arguments to the record's fields wrongly
BAD_BINDINGS = [
    ("shift-too-many", lambda: Shift(1, 2), "Shift has 1 fields, got 2 arguments"),
    ("shift-unknown", lambda: Shift(step=1), "Shift got an unknown or repeated field 'step'"),
    ("shift-twice", lambda: Shift(1, amount=2), "Shift got an unknown or repeated field 'amount'"),
    ("counterexample-too-many", lambda: Counterexample("u[1]", "tau", "1", "0", "x"),
     "Counterexample has 4 fields, got 5 arguments"),
    ("counterexample-unknown", lambda: Counterexample("u[1]", "tau", "1", "0", state="x"),
     "Counterexample got an unknown or repeated field 'state'"),
    ("counterexample-twice", lambda: Counterexample("u[1]", "tau", before="1", word="0"),
     "Counterexample got an unknown or repeated field 'word'"),
    ("counterexample-missing", lambda: Counterexample("u[1]", "tau", after="0"),
     "Counterexample is missing field 'before'"),
    ("beta-too-many", lambda: DeformationParameter(1, 2, ((2, 1),), 0),
     "DeformationParameter has 3 fields, got 4 arguments"),
    ("beta-unknown", lambda: DeformationParameter(1, den=2),
     "DeformationParameter got an unknown or repeated field 'den'"),
    ("beta-twice", lambda: DeformationParameter(1, numerator=1),
     "DeformationParameter got an unknown or repeated field 'numerator'"),
    ("report-missing", lambda: CheckReport("p", "trace", True, 3, 4, None),
     "CheckReport is missing field 'budget'"),
    ("verdict-missing", lambda: PsdVerdict(witness=(1,)), "PsdVerdict is missing field 'is_psd'"),
]


@pytest.mark.parametrize("make,message", [c[1:] for c in BAD_BINDINGS],
                         ids=[c[0] for c in BAD_BINDINGS])
def test_bad_bindings_raise_type_error(make, message):
    with pytest.raises(TypeError, match=re.escape(message)):
        make()
