"""State evaluation tests: trace, products, block products, Cesaro, mixtures."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nctorus import (
    BlockProductState,
    CesaroState,
    InadmissibleMomentsError,
    InputError,
    IRRATIONAL,
    MixtureState,
    MomentSequence,
    ProductState,
    QQi,
    TRACE,
    TorusAlgebra,
    canonicalize,
    clustering_gap,
    evaluate,
    evaluate_word,
    state_from_json,
    translate,
    validate_state,
)
from nctorus import states
from nctorus.states import _BlockFamily, cesaro_runs

F = Fraction

BETA_HALF = canonicalize(1, 2)


def fejer_moments():
    # squared-kernel density (2/3)(1 + cos 2t)^2: PSD at every order
    return MomentSequence({0: 1, 2: F(2, 3), 4: F(1, 6)})


def soft_moments():
    return MomentSequence({0: 1, 2: F(1, 2)})


def mixture_base():
    return MixtureState((
        (F(1, 2), ProductState(fejer_moments())),
        (F(1, 2), ProductState(MomentSequence.lebesgue())),
    ))


class TestMomentSequence:
    def test_zeroth_moment_mandatory(self):
        assert MomentSequence({}).moment(0) == QQi.of(1)
        with pytest.raises(InputError):
            MomentSequence({0: F(1, 2)})

    def test_hermitian_fill_and_check(self):
        m = MomentSequence({0: 1, 2: QQi(F(1, 4), F(1, 4))})
        assert m.moment(-2) == QQi(F(1, 4), F(-1, 4))
        with pytest.raises(InputError):
            MomentSequence({2: QQi(F(1, 4), F(0)), -2: QQi(F(1, 8), F(0))})

    def test_contractivity(self):
        with pytest.raises(InputError):
            MomentSequence({1: 2})
        with pytest.raises(InputError):
            MomentSequence({1: 1.5}, mode="float")

    def test_admissibility(self):
        iso2 = TorusAlgebra(BETA_HALF).isotropy
        assert soft_moments().is_admissible(iso2)
        assert not MomentSequence({1: F(1, 2)}).is_admissible(iso2)
        iso_irr = TorusAlgebra(IRRATIONAL).isotropy
        assert MomentSequence.lebesgue().is_admissible(iso_irr)
        assert not soft_moments().is_admissible(iso_irr)

    def test_float_moments_compare_within_float_tolerance(self):
        # the zeroth-moment and conjugacy gaps of float moments use the
        # tolerance of every other float comparison, FLOAT_TOLERANCE = 1e-9
        m = MomentSequence({0: 1 + 5e-10, 2: 0.5, -2: 0.5 + 5e-10j}, mode="float")
        assert m.moment(-2) == 0.5 + 5e-10j
        with pytest.raises(InputError, match="not conjugate"):
            MomentSequence({2: 0.5, -2: 0.5 + 1e-8j}, mode="float")
        with pytest.raises(InputError, match="zeroth moment"):
            MomentSequence({0: 1 + 1e-8}, mode="float")

    def test_equality_is_between_sequences(self):
        assert MomentSequence({2: F(1, 2)}) == MomentSequence({-2: F(1, 2)})
        assert (MomentSequence.lebesgue() == 1) is False

    @pytest.mark.parametrize("value", [complex(float("nan"), 0), complex(0, float("nan")),
                                       complex(float("inf"), float("nan"))])
    def test_nan_float_moment_rejected(self, value):
        # NaN passes every modulus bound, so it is refused by name
        with pytest.raises(InputError, match="moment at 2 is not a number"):
            MomentSequence({0: 1, 2: value}, mode="float")
        with pytest.raises(InputError, match="moment at -3 is not a number"):
            MomentSequence({-3: value}, mode="float")


class TestValidation:
    def test_inadmissible_rejected_exact(self):
        state = ProductState(MomentSequence({1: F(1, 2)}))
        with pytest.raises(InadmissibleMomentsError):
            validate_state(state, BETA_HALF)

    def test_inadmissible_warns_float(self):
        state = ProductState(MomentSequence({1: 0.5}, mode="float"))
        with pytest.warns(UserWarning):
            validate_state(state, BETA_HALF, mode="float")

    def test_irrational_only_lebesgue(self):
        good = ProductState(MomentSequence.lebesgue())
        validate_state(good, IRRATIONAL)
        bad = ProductState(soft_moments())
        with pytest.raises(InadmissibleMomentsError):
            validate_state(bad, IRRATIONAL)

    def test_block_base_restriction(self):
        with pytest.raises(InputError):
            BlockProductState(1, BlockProductState(1, TRACE))
        BlockProductState(1, CesaroState(1, TRACE))
        BlockProductState(1, mixture_base())
        assert not BlockProductState(1, TRACE).is_shift_invariant()

    def test_mixture_weights(self):
        with pytest.raises(InputError):
            MixtureState(((F(1, 2), TRACE), (F(1, 3), TRACE)))
        with pytest.raises(InputError):
            MixtureState(((F(3, 2), TRACE), (F(-1, 2), TRACE)))


class TestTrace:
    def test_examples(self):
        a = TorusAlgebra(BETA_HALF)
        assert evaluate(TRACE, a.one()) == 1
        assert evaluate(TRACE, a.word([(1, 1), (2, -1)])).is_zero()
        assert evaluate(TRACE, a.word([(1, 1), (1, -1)])) == 1

    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 2)), max_size=4),
           st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 2)), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_tracial(self, f1, f2):
        a = TorusAlgebra(canonicalize(1, 4))
        x, y = a.word(f1), a.word(f2)
        assert evaluate(TRACE, x * y) == evaluate(TRACE, y * x)


class TestProduct:
    def test_moment_product(self):
        a = TorusAlgebra(BETA_HALF)
        state = ProductState(soft_moments())
        assert evaluate(state, a.word([(0, 2), (5, -2)])) == F(1, 4)

    def test_odd_exponent_vanishes(self):
        a = TorusAlgebra(BETA_HALF)
        state = ProductState(soft_moments())
        assert evaluate(state, a.u(3)).is_zero()

    def test_lebesgue_is_trace(self):
        a = TorusAlgebra(BETA_HALF)
        state = ProductState(MomentSequence.lebesgue())
        rng = random.Random(7)
        for _ in range(100):
            factors = [
                (rng.randint(-4, 4), rng.randint(-3, 3)) for _ in range(rng.randint(0, 4))
            ]
            x = a.word(factors)
            assert evaluate(state, x) == evaluate(TRACE, x)

    def test_complex_moments(self):
        a = TorusAlgebra(BETA_HALF)
        m = MomentSequence({0: 1, 2: QQi(F(0), F(12, 25))})
        state = ProductState(m)
        v = evaluate(state, a.word([(0, 2), (1, -2)]))
        assert v == QQi(F(0), F(12, 25)) * QQi(F(0), F(-12, 25))


class TestBlockProduct:
    def test_single_block_is_base(self):
        a = TorusAlgebra(BETA_HALF)
        base = ProductState(soft_moments())
        state = BlockProductState(2, base)
        x = a.word([(-1, 2), (1, -2)])
        assert evaluate(state, x) == evaluate(base, x)

    def test_cross_block_translation(self):
        a = TorusAlgebra(canonicalize(1, 1))
        # beta integer: isotropy generator 1, everything admissible
        m = MomentSequence({0: 1, 1: F(1, 2)})
        base = ProductState(m)
        n = 1
        state = BlockProductState(n, base)
        x = a.word([(-n - 1, 1), (0, 1)])
        v = evaluate(state, x)
        assert v == evaluate(base, a.u(-n - 1)) * evaluate(base, a.u(0))
        assert v == F(1, 4)

    def test_bad_block_degree_vanishes(self):
        a = TorusAlgebra(BETA_HALF)
        state = BlockProductState(1, TRACE)
        assert evaluate(state, a.u(0)).is_zero()

    def test_block_of_product_is_product(self):
        a = TorusAlgebra(BETA_HALF)
        base = ProductState(soft_moments())
        state = BlockProductState(1, base)
        rng = random.Random(3)
        for _ in range(60):
            factors = [
                (rng.randint(-5, 5), rng.randint(-2, 2)) for _ in range(rng.randint(0, 4))
            ]
            x = a.word(factors)
            assert evaluate(state, x) == evaluate(base, x)

    def test_mixture_base_witness(self):
        # frozen witness: the block product of a non-product base is not
        # shift invariant; base(u^2) = 1/3 but base(u^2 u'^2) = 2/9
        a = TorusAlgebra(BETA_HALF)
        state = BlockProductState(1, mixture_base())
        x = a.word([(1, 2), (2, 2)])
        assert evaluate(state, x) == F(1, 9)
        assert evaluate(state, translate(x, 1)) == F(2, 9)

    def test_periodic_invariance(self):
        a = TorusAlgebra(BETA_HALF)
        state = BlockProductState(1, mixture_base())
        rng = random.Random(11)
        for _ in range(60):
            factors = [
                (rng.randint(-4, 4), rng.randint(-2, 2)) for _ in range(rng.randint(0, 3))
            ]
            x = a.word(factors)
            assert evaluate(state, translate(x, 3)) == evaluate(state, x)


class TestCesaro:
    def test_unital(self):
        a = TorusAlgebra(BETA_HALF)
        assert evaluate(CesaroState(4, mixture_base()), a.one()) == 1

    def test_width_zero(self):
        a = TorusAlgebra(BETA_HALF)
        base = mixture_base()
        x = a.word([(0, 2), (1, 2)])
        assert evaluate(CesaroState(0, base), x) == evaluate(
            BlockProductState(0, base), x
        )

    def test_shift_invariance(self):
        a = TorusAlgebra(BETA_HALF)
        state = CesaroState(2, mixture_base())
        rng = random.Random(5)
        for _ in range(40):
            factors = [
                (rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(rng.randint(0, 3))
            ]
            x = a.word(factors)
            assert evaluate(state, translate(x, 1)) == evaluate(state, x)

    def test_runs_partition_the_shifts(self):
        rng = random.Random(9)
        for _ in range(200):
            n = rng.randint(0, 12)
            word = tuple(
                (i, 1) for i in sorted(rng.sample(range(-20, 21), rng.randint(0, 4)))
            )
            runs = cesaro_runs(word, n)
            assert sum(count for _, count in runs) == 2 * n + 1
            assert all(-n <= k <= n and count > 0 for k, count in runs)
            assert len(runs) <= len(word) + 1

    def test_block_evaluations_independent_of_n(self, monkeypatch):
        # one block product per run of equal splits, not one per shift; the
        # count stops the evaluation as soon as it passes the bound
        word = ((-3, 2), (0, 2), (4, -2))
        calls = []
        inner = _BlockFamily.block_product

        def counting(self, shifted, values):
            calls.append(shifted)
            if len(calls) > len(word) + 1:
                raise AssertionError(f"{len(calls)} block products for {len(word)} factors")
            return inner(self, shifted, values)

        monkeypatch.setattr(_BlockFamily, "block_product", counting)
        evaluate_word(CesaroState(10**6, mixture_base()), word, TorusAlgebra(BETA_HALF))
        assert calls

    def test_large_half_width_exact(self):
        # one split joins u0 and u1 (value 2/9), the shift putting u1 at the
        # start of the next block separates them (1/9)
        a = TorusAlgebra(BETA_HALF)
        x = a.word([(0, 2), (1, 2)])
        n = 10**9
        span = 2 * n + 1
        value = evaluate(CesaroState(n, mixture_base()), x)
        assert value == F(2 * span - 1, 9 * span)

    def test_convergence_bound_mixture_base(self):
        a = TorusAlgebra(BETA_HALF)
        base = mixture_base()
        for s, factors in [(1, [(-1, 2), (1, 2)]), (2, [(-2, 2), (0, 2), (2, 2)])]:
            phi = evaluate(base, a.word(factors))
            for n in range(1, 9):
                phi_n = evaluate(CesaroState(n, base), a.word(factors))
                gap = (phi_n - phi).to_rational()
                assert gap is not None
                assert abs(gap) <= F(4 * s, 2 * n + 1)


class TestMixtureAndClustering:
    def test_single_part(self):
        a = TorusAlgebra(BETA_HALF)
        state = MixtureState(((F(1), ProductState(soft_moments())),))
        x = a.word([(0, 2)])
        assert evaluate(state, x) == F(1, 2)

    def test_trace_mixture_is_trace(self):
        a = TorusAlgebra(BETA_HALF)
        state = MixtureState(((F(1, 2), TRACE), (F(1, 2), TRACE)))
        for factors in ([], [(0, 1)], [(0, 2), (1, -2)]):
            x = a.word(factors)
            assert evaluate(state, x) == evaluate(TRACE, x)

    def test_product_clusters_exactly(self):
        a = TorusAlgebra(BETA_HALF)
        state = ProductState(soft_moments())
        x = a.word([(0, 2), (1, -2)])
        y = a.word([(0, 2)])
        for k in (3, 10, -7):
            assert clustering_gap(state, x, y, k).is_zero()

    def test_trace_gap_zero(self):
        a = TorusAlgebra(BETA_HALF)
        assert clustering_gap(TRACE, a.u(0), a.u(0), 4).is_zero()

    def test_mixture_gap_witness(self):
        a = TorusAlgebra(BETA_HALF)
        x = a.word([(0, 2)])
        assert clustering_gap(mixture_base(), x, x, 5) == F(1, 9)

    def test_gap_validates_once(self, monkeypatch):
        calls = []
        validate = states.validate_state

        def counted(*args, **options):
            calls.append(args)
            return validate(*args, **options)

        monkeypatch.setattr(states, "validate_state", counted)
        a = TorusAlgebra(BETA_HALF)
        x = a.word([(0, 2)]) + a.word([(1, -2)])
        assert clustering_gap(mixture_base(), x, x, 5) == F(4, 9)
        assert len(calls) == 1


class TestStateAxiomsSampled:
    STATES = None

    def states(self):
        soft = ProductState(soft_moments())
        return [
            TRACE,
            soft,
            BlockProductState(1, mixture_base()),
            CesaroState(1, mixture_base()),
            mixture_base(),
        ]

    def random_element(self, a, rng):
        x = a.zero()
        for _ in range(rng.randint(1, 3)):
            factors = [
                (rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(rng.randint(0, 3))
            ]
            coeff = QQi(F(rng.randint(-2, 2), rng.randint(1, 3)),
                        F(rng.randint(-2, 2), rng.randint(1, 3)))
            x = x + a.word(factors, coeff)
        return x

    def test_unitality(self):
        a = TorusAlgebra(BETA_HALF)
        for state in self.states():
            assert evaluate(state, a.one()) == 1, state.describe()

    def test_hermitian(self):
        a = TorusAlgebra(BETA_HALF)
        rng = random.Random(17)
        for state in self.states():
            for _ in range(25):
                x = self.random_element(a, rng)
                assert evaluate(state, x.adjoint()) == evaluate(state, x).conjugate()

    def test_positivity(self):
        a = TorusAlgebra(BETA_HALF)
        rng = random.Random(19)
        for state in self.states():
            for _ in range(25):
                x = self.random_element(a, rng)
                value = evaluate(state, x.adjoint() * x).to_qqi()
                assert value is not None, state.describe()
                assert value.im == 0
                assert value.re >= 0


class TestJson:
    def round_trip(self, state):
        return state_from_json(json.loads(json.dumps(state.to_json())))

    def test_round_trips(self):
        for state in (
            TRACE,
            ProductState(soft_moments()),
            BlockProductState(2, mixture_base()),
            CesaroState(1, ProductState(fejer_moments())),
            mixture_base(),
        ):
            assert self.round_trip(state) == state

    def test_rational_strings(self):
        obj = {"kind": "product", "moments": [[2, "1/2", "0"], [-2, "1/2", "0"]]}
        state = state_from_json(obj)
        assert state == ProductState(soft_moments())

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            state_from_json({"kind": "nope"})
        with pytest.raises(InputError):
            state_from_json({})
        with pytest.raises(InputError):
            state_from_json({"kind": "product", "moments": [[1, 2]]})
        with pytest.raises(InputError):
            state_from_json(
                {"kind": "mixture", "parts": [["1/2", {"kind": "trace"}]]}
            )

    @pytest.mark.parametrize("kind", ["block", "cesaro"])
    @pytest.mark.parametrize("n", ["x", "2", 2.0, True, None, [1]])
    def test_half_width_must_be_json_integer(self, kind, n):
        with pytest.raises(InputError, match="integer 'n'"):
            state_from_json({"kind": kind, "n": n, "base": {"kind": "trace"}})

    @pytest.mark.parametrize("kind", ["block", "cesaro"])
    def test_half_width_required(self, kind):
        with pytest.raises(InputError, match="integer 'n'"):
            state_from_json({"kind": kind, "base": {"kind": "trace"}})

    def test_float_mode_parsing(self):
        obj = {"kind": "product", "moments": [[1, 0.5, 0.25], [-1, 0.5, -0.25]]}
        state = state_from_json(obj, mode="float")
        assert not state.moments.exact
        assert state.moments.moment(1) == 0.5 + 0.25j

    def test_float_moments_do_not_serialize(self):
        state = state_from_json({"kind": "product", "moments": [[2, 0.5, 0]]}, mode="float")
        with pytest.raises(InputError, match="only exact moments serialize"):
            state.to_json()


class TestFloatPath:
    def test_float_moments_refuse_exact_evaluation(self):
        state = ProductState(MomentSequence({2: 0.5, -2: 0.5}, mode="float"))
        with pytest.raises(InputError, match="float moments need float mode"):
            evaluate(state, TorusAlgebra(BETA_HALF).u(0, 2))

    def test_matches_exact(self):
        a = TorusAlgebra(BETA_HALF)
        state = ProductState(soft_moments())
        rng = random.Random(23)
        for _ in range(40):
            factors = [
                (rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(rng.randint(0, 3))
            ]
            x = a.word(factors, QQi(F(1, 3), F(1, 7)))
            exact = evaluate(state, x).to_complex()
            numeric = evaluate(state, x, mode="float")
            assert abs(exact - numeric) < 1e-9

    @pytest.mark.parametrize("beta, state", [
        (BETA_HALF, BlockProductState(1, mixture_base())),
        (BETA_HALF, CesaroState(2, ProductState(soft_moments()))),
        (BETA_HALF, mixture_base()),
        (BETA_HALF, CesaroState(1, mixture_base())),
        (canonicalize(3, 8), CesaroState(1, ProductState(MomentSequence({0: 1, 4: F(1, 3)})))),
        (IRRATIONAL, MixtureState((
            (F(1, 3), TRACE),
            (F(2, 3), CesaroState(1, ProductState(MomentSequence.lebesgue()))),
        ))),
        (IRRATIONAL, BlockProductState(2, TRACE)),
    ])
    def test_matches_exact_across_kinds(self, beta, state):
        # a word times a reordering of its inverse is a twisted scalar,
        # symbolic e(m*beta) at irrational beta, where neither mode gives it
        # a machine value
        a = TorusAlgebra(beta)
        rng = random.Random(31)
        refused = 0
        for _ in range(40):
            factors = [
                (rng.randint(-2, 2), rng.choice((-4, -2, -1, 1, 2, 4)))
                for _ in range(rng.randint(0, 4))
            ]
            inverse = [(i, -e) for i, e in factors]
            rng.shuffle(inverse)
            x = a.word(factors, QQi(F(1, 3), F(1, 7))) * (
                a.word(inverse) + a.word(inverse[:2])
            )
            try:
                exact = evaluate(state, x).to_complex()
            except InputError:
                refused += 1
                with pytest.raises(InputError, match="symbolic twist power"):
                    evaluate(state, x, mode="float")
                continue
            assert abs(exact - evaluate(state, x, mode="float")) < 1e-9
        assert (0 < refused < 40) if beta is IRRATIONAL else refused == 0

    def test_symbolic_twist_has_no_float_value(self):
        a = TorusAlgebra(IRRATIONAL)
        x = a.one() + a.word([(1, 1), (0, 1), (1, -1), (0, -1)])
        with pytest.raises(InputError, match="symbolic twist power needs a numeric beta value"):
            evaluate(TRACE, x, mode="float")

    def test_inadmissible_scaling(self):
        # a moment off the isotropy subgroup makes the functional see the
        # gauge rotation: negative test in float mode
        a = TorusAlgebra(BETA_HALF)
        state = ProductState(MomentSequence({0: 1, 1: 1.0}, mode="float"))
        with pytest.warns(UserWarning):
            before = evaluate(state, a.u(0), mode="float")
        assert abs(before - 1) < 1e-12


class TestStateFileHardening:
    @pytest.mark.parametrize("l", ["x", "2", 1.5, True, None])
    def test_moment_index_must_be_json_integer(self, l):
        with pytest.raises(InputError, match="integer l"):
            state_from_json({"kind": "product", "moments": [[l, "1/2", 0]]})

    @pytest.mark.parametrize("kind, key", [("product", "moments"), ("mixture", "parts")])
    @pytest.mark.parametrize("rows", [5, "x", {"a": 1}])
    def test_rows_must_be_a_list(self, kind, key, rows):
        with pytest.raises(InputError, match=f"list '{key}'"):
            state_from_json({"kind": kind, key: rows})

    @staticmethod
    def nested(depth, kind):
        obj = {"kind": "trace"}
        for _ in range(depth - 1):
            if kind == "cesaro":
                obj = {"kind": "cesaro", "n": 1, "base": obj}
            else:
                obj = {"kind": "mixture", "parts": [["1/2", obj], ["1/2", {"kind": "trace"}]]}
        return obj

    @pytest.mark.parametrize("kind", ["cesaro", "mixture"])
    def test_depth_cap(self, kind):
        from nctorus.states import MAX_STATE_DEPTH

        obj = self.nested(MAX_STATE_DEPTH, kind)
        assert state_from_json(obj).to_json() == obj
        with pytest.raises(InputError, match="nest at most"):
            state_from_json(self.nested(MAX_STATE_DEPTH + 1, kind))

    def test_deep_object_rejected_without_recursion(self):
        with pytest.raises(InputError, match="nest at most"):
            state_from_json(self.nested(5000, "cesaro"))

    @pytest.mark.parametrize("data", [
        b'{"kind": "block", "n": 1, "base": ' * 3000 + b'{"kind": "trace"}' + b"}" * 3000,
        b'\xff\xfe{"kind": "trace"}',
    ], ids=["3000-deep", "not-utf8"])
    def test_undecodable_file_rejected(self, tmp_path, data):
        from nctorus import load_state

        path = tmp_path / "state.json"
        path.write_bytes(data)
        with pytest.raises(InputError, match="bad state file"):
            load_state(str(path))

    @pytest.mark.parametrize("text", ["abc", "1/0"])
    def test_float_mode_bad_rational_string(self, text):
        with pytest.raises(InputError, match="bad rational"):
            state_from_json({"kind": "product", "moments": [[2, text, 0]]}, mode="float")
