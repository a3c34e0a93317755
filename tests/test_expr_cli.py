"""Expression grammar and command line tests."""

import json
import random
from fractions import Fraction

import pytest

from nctorus import (
    IRRATIONAL,
    PhaseCoefficient,
    QQi,
    TorusAlgebra,
    canonicalize,
    format_element,
    parse,
)
from nctorus.cli import main
from nctorus.expr import ParseError, format_complex

F = Fraction
BETA = canonicalize(1, 4)


class TestParser:
    def test_commutation_applied_at_parse(self):
        a = TorusAlgebra(BETA)
        x = parse("u[2]*u[1]", a)
        assert x == a.u(2) * a.u(1)
        assert x.coefficient(((1, 1), (2, 1))) == a.twist_phase(-1)

    def test_scalar_literal(self):
        a = TorusAlgebra(BETA)
        x = parse("1/2 * e(1/3) * u[0]^2", a)
        assert x == a.word([(0, 2)], PhaseCoefficient.unit_angle(F(1, 3), F(1, 2)))

    def test_adjoint(self):
        a = TorusAlgebra(BETA)
        assert parse("adj(u[3])", a) == a.u(3, -1)

    def test_sums_and_signs(self):
        a = TorusAlgebra(BETA)
        x = parse("-u[0] + 2*u[1] - 1/3", a)
        assert x == -a.u(0) + 2 * a.u(1) - a.scalar(F(1, 3))

    def test_parentheses(self):
        a = TorusAlgebra(BETA)
        x = parse("(u[0] + u[1]) * (u[0]^-1)", a)
        assert x == (a.u(0) + a.u(1)) * a.u(0, -1)

    def test_whitespace_insensitive(self):
        a = TorusAlgebra(BETA)
        assert parse(" u[ 2 ] * u[1]  ", a) == parse("u[2]*u[1]", a)

    def test_symbolic_phase(self):
        a = TorusAlgebra(IRRATIONAL)
        x = parse("E(2)*u[0]", a)
        assert x == a.word([(0, 1)], PhaseCoefficient.symbolic_unit(2))

    def test_symbolic_phase_folds_for_rational(self):
        a = TorusAlgebra(BETA)
        assert parse("E(2)", a) == a.scalar(PhaseCoefficient.unit_angle(F(1, 2)))

    def test_zero(self):
        a = TorusAlgebra(BETA)
        assert parse("0", a).is_zero()

    def test_errors_have_positions(self):
        a = TorusAlgebra(BETA)
        with pytest.raises(ParseError, match="line 1"):
            parse("u[2", a)
        with pytest.raises(ParseError, match="exponent is only allowed"):
            parse("e(1/2)^2", a)
        with pytest.raises(ParseError, match="zero denominator"):
            parse("1/0", a)
        with pytest.raises(ParseError):
            parse("u[2]*", a)
        with pytest.raises(ParseError):
            parse("2 2", a)
        with pytest.raises(ParseError, match="unexpected character"):
            parse("u[\u00b2]", a)  # superscript two
        with pytest.raises(ParseError, match="unexpected character"):
            parse("u[\u0661]", a)  # Arabic-Indic digit one
        with pytest.raises(ParseError):
            parse("w[2]", a)


def random_element(algebra, rng):
    x = algebra.zero()
    for _ in range(rng.randint(0, 3)):
        factors = [
            (rng.randint(-6, 6), rng.randint(-4, 4)) for _ in range(rng.randint(0, 4))
        ]
        coeff = QQi(
            F(rng.randint(-12, 12), rng.randint(1, 9)),
            F(rng.randint(-12, 12), rng.randint(1, 9)),
        )
        x = x + algebra.word(factors, coeff)
    return x


class TestRoundTrip:
    @pytest.mark.parametrize("beta", [canonicalize(1, 4), canonicalize(3, 8)])
    def test_random_round_trip(self, beta):
        algebra = TorusAlgebra(beta)
        rng = random.Random(404)
        for _ in range(300):
            x = random_element(algebra, rng)
            assert parse(format_element(x), algebra) == x

    def test_symbolic_round_trip(self):
        algebra = TorusAlgebra(IRRATIONAL)
        rng = random.Random(405)
        for _ in range(300):
            x = random_element(algebra, rng)
            assert parse(format_element(x), algebra) == x

    def test_zero_prints_as_zero(self):
        algebra = TorusAlgebra(BETA)
        assert format_element(algebra.zero()) == "0"
        assert format_element(algebra.one()) == "1"


class TestFormatComplex:
    def test_real(self):
        assert format_complex(0.25 + 0j) == "0.25"

    def test_complex(self):
        assert format_complex(1.5 - 2.25j) == "1.5-2.25i"

    def test_significant_digits(self):
        assert format_complex(complex(1 / 3, 0)) == "0.333333333333"


@pytest.fixture()
def state_files(tmp_path):
    paths = {}
    specs = {
        "trace": {"kind": "trace"},
        "prod": {"kind": "product", "moments": [[2, "1/2", "0"], [-2, "1/2", "0"]]},
        "blockmix": {
            "kind": "block",
            "n": 1,
            "base": {
                "kind": "mixture",
                "parts": [
                    ["1/2", {"kind": "product",
                             "moments": [[2, "2/3", 0], [4, "1/6", 0]]}],
                    ["1/2", {"kind": "product", "moments": []}],
                ],
            },
        },
        "inadmissible": {"kind": "product", "moments": [[1, 1, 0], [-1, 1, 0]]},
        "mixture": {
            "kind": "mixture",
            "parts": [
                ["1/2", {"kind": "product", "moments": [[2, "2/3", 0], [4, "1/6", 0]]}],
                ["1/2", {"kind": "product", "moments": []}],
            ],
        },
        "n_not_int": {"kind": "block", "n": "x", "base": {"kind": "trace"}},
        "n_missing": {"kind": "block", "base": {"kind": "trace"}},
    }
    for name, obj in specs.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
    return paths


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCli:
    def test_n0(self, capsys):
        code, out, _ = run_cli(capsys, ["n0", "--alpha", "1/4"])
        assert code == 0
        assert out == "n0 = 2\n"

    def test_n0_irrational(self, capsys):
        code, out, _ = run_cli(capsys, ["n0", "--alpha", "irrational"])
        assert code == 0
        assert out == "Delta_alpha = {0}\n"

    def test_normal_form(self, capsys):
        code, out, _ = run_cli(capsys, ["normal-form", "--alpha", "1/4", "u[2]*u[1]"])
        assert code == 0
        assert "input: u[2]*u[1]" in out
        assert "normal form: -1*e(1/4)*u[1]*u[2]" in out

    def test_eval_trace(self, capsys, state_files):
        code, out, _ = run_cli(
            capsys,
            ["eval", "--alpha", "1/4", "--state", state_files["trace"], "u[1]*u[1]^-1"],
        )
        assert code == 0
        assert "exact: 1" in out
        assert "float: 1" in out

    def test_eval_product(self, capsys, state_files):
        code, out, _ = run_cli(
            capsys,
            ["eval", "--alpha", "1/2", "--state", state_files["prod"], "u[0]^2*u[5]^-2"],
        )
        assert code == 0
        assert "exact: 1/4" in out

    def test_check_pass_and_fail_exit_codes(self, capsys, state_files):
        code, out, _ = run_cli(
            capsys,
            [
                "check", "spreadable", "--alpha", "1/2",
                "--state", state_files["prod"],
                "--trials", "20", "--max-factors", "2",
                "--max-index", "1", "--max-exponent", "1",
            ],
        )
        assert code == 0
        assert "result: PASS" in out
        code, out, _ = run_cli(
            capsys,
            [
                "check", "stationary", "--alpha", "1/2",
                "--state", state_files["blockmix"], "--trials", "10",
            ],
        )
        assert code == 1
        assert "result: FAIL" in out
        assert "witness word:" in out

    def test_check_gauge(self, capsys, state_files):
        code, out, _ = run_cli(
            capsys,
            [
                "check", "gauge", "--alpha", "1/2",
                "--state", state_files["trace"], "--trials", "10",
                "--max-factors", "2", "--max-index", "1", "--max-exponent", "1",
            ],
        )
        assert code == 0

    def test_usage_error_exit_code(self, capsys, state_files):
        code, _, err = run_cli(
            capsys, ["eval", "--alpha", "1/0", "--state", state_files["trace"], "1"]
        )
        assert code == 2
        assert "error:" in err

    def test_missing_state_file(self, capsys):
        code, _, err = run_cli(
            capsys, ["eval", "--alpha", "1/2", "--state", "/nonexistent.json", "1"]
        )
        assert code == 2

    def test_bad_expression(self, capsys, state_files):
        code, _, err = run_cli(
            capsys,
            ["eval", "--alpha", "1/2", "--state", state_files["trace"], "u[2"],
        )
        assert code == 2
        assert "line 1" in err

    def test_argparse_error_is_2(self, capsys):
        code, _, _ = run_cli(capsys, ["frobnicate"])
        assert code == 2

    def test_cesaro_output(self, capsys, state_files):
        code, out, _ = run_cli(
            capsys,
            [
                "cesaro", "--alpha", "1/2", "--state", state_files["prod"],
                "--n", "10", "u[0]^2",
            ],
        )
        assert code == 0
        assert "phi_10: 1/2" in out
        assert "gap: 0" in out
        assert "bound 4s/(2n+1): 0" in out

    def test_cesaro_large_half_width(self, capsys, state_files):
        n = 10**9
        code, out, _ = run_cli(
            capsys,
            [
                "cesaro", "--alpha", "1/2", "--state", state_files["mixture"],
                "--n", str(n), "u[0]^2*u[1]^2",
            ],
        )
        assert code == 0
        span = 2 * n + 1
        assert f"phi_{n}: {F(2 * span - 1, 9 * span)}\n" in out
        assert "phi: 2/9\n" in out

    @pytest.mark.parametrize("text", ["u[\u00b2]", "u[\u0661]"])
    def test_non_ascii_digit_exit_code(self, capsys, text):
        code, out, err = run_cli(capsys, ["normal-form", "--alpha", "1/4", text])
        assert code == 2
        assert out == ""
        assert "unexpected character" in err

    def test_state_n_not_int_exit_code(self, capsys, state_files):
        code, out, err = run_cli(
            capsys, ["eval", "--alpha", "1/2", "--state", state_files["n_not_int"], "u[0]"]
        )
        assert code == 2
        assert out == ""
        assert "integer 'n'" in err

    def test_state_n_missing_exit_code(self, capsys, state_files):
        code, out, err = run_cli(
            capsys, ["eval", "--alpha", "1/2", "--state", state_files["n_missing"], "u[0]"]
        )
        assert code == 2
        assert out == ""
        assert "integer 'n'" in err

    def test_check_negative_trials_exit_code(self, capsys, state_files):
        code, out, err = run_cli(
            capsys,
            [
                "check", "spreadable", "--alpha", "1/2", "--state", state_files["trace"],
                "--no-exhaustive", "--trials", "-5",
            ],
        )
        assert code == 2
        assert out == ""
        assert "trials must be >= 0" in err

    def test_cluster_output(self, capsys, state_files):
        code, out, _ = run_cli(
            capsys,
            [
                "cluster", "--alpha", "1/2", "--state", state_files["prod"],
                "--K", "5", "u[0]^2", "u[0]^2",
            ],
        )
        assert code == 0
        assert "gap: 0" in out

    def test_oracle_n0(self, capsys):
        code, out, _ = run_cli(capsys, ["oracle", "n0", "12"])
        assert code == 0
        assert out == "n0 = 6\n"

    def test_oracle_trace(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "oracle", "trace", "--alpha", "1/5", "--gens", "2",
                "u[1]*u[2]*u[1]^-1*u[2]^-1",
            ],
        )
        assert code == 0
        assert "difference: 0" in out

    def test_oracle_trace_window_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["oracle", "trace", "--alpha", "1/3", "--gens", "2", "u[1]^3"],
        )
        assert code == 2
        assert "wraps mod D" in err

    def test_oracle_psd_toeplitz(self, capsys, state_files):
        code, out, _ = run_cli(
            capsys,
            ["oracle", "psd", "--alpha", "1/2", "--state", state_files["prod"],
             "--order", "4"],
        )
        assert code == 0
        assert "positive semidefinite" in out

    def test_oracle_psd_gram_witness(self, capsys, state_files):
        with pytest.warns(UserWarning):
            code, out, _ = run_cli(
                capsys,
                [
                    "oracle", "psd", "--alpha", "1/2", "--mode", "float",
                    "--state", state_files["inadmissible"],
                    "--words", "1", "u[0]", "u[0]*u[1]",
                ],
            )
        assert code == 1
        assert "not positive semidefinite" in out
        assert "witness:" in out

    def test_deterministic_output(self, capsys, state_files):
        argv = [
            "check", "spreadable", "--alpha", "1/2",
            "--state", state_files["prod"], "--seed", "3",
            "--trials", "30", "--max-factors", "2",
            "--max-index", "1", "--max-exponent", "1",
        ]
        code1, out1, _ = run_cli(capsys, argv)
        code2, out2, _ = run_cli(capsys, argv)
        assert (code1, out1) == (code2, out2)

    def test_deep_state_file_exit_code(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"kind": "block", "n": 1, "base": ' * 3000
                        + '{"kind": "trace"}' + "}" * 3000)
        code, out, err = run_cli(
            capsys, ["eval", "--alpha", "1/2", "--state", str(path), "u[0]"]
        )
        assert code == 2
        assert out == ""
        assert "bad state file" in err

    def test_moment_index_not_int_exit_code(self, capsys, tmp_path):
        path = tmp_path / "l_not_int.json"
        path.write_text(json.dumps({"kind": "product", "moments": [["x", "1/2", 0]]}))
        code, out, err = run_cli(
            capsys, ["eval", "--alpha", "1/2", "--state", str(path), "u[0]"]
        )
        assert code == 2
        assert out == ""
        assert "integer l" in err
