"""Expression grammar and command line tests."""

import json
import os
import random
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from nctorus import (
    IRRATIONAL,
    InputError,
    PhaseCoefficient,
    QQi,
    TorusAlgebra,
    canonicalize,
    format_element,
    parse,
)
import nctorus
from nctorus.cli import main
from nctorus.expr import MAX_NESTING, ParseError, format_complex

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
        "null_moment": {"kind": "product", "moments": [[2, None, 0]]},
        "empty_mixture": {"kind": "mixture", "parts": []},
        "mixture": {
            "kind": "mixture",
            "parts": [
                ["1/2", {"kind": "product", "moments": [[2, "2/3", 0], [4, "1/6", 0]]}],
                ["1/2", {"kind": "product", "moments": []}],
            ],
        },
        "n_not_int": {"kind": "block", "n": "x", "base": {"kind": "trace"}},
        "n_missing": {"kind": "block", "base": {"kind": "trace"}},
        "n_negative": {"kind": "block", "n": -1, "base": {"kind": "trace"}},
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


INADMISSIBLE_AT_HALF = ("moments supported outside the isotropy subgroup 2Z are "
                        "inadmissible; the product functional is not a state")


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
        code, out, err = run_cli(
            capsys,
            [
                "oracle", "psd", "--alpha", "1/2", "--mode", "float",
                "--state", state_files["inadmissible"],
                "--words", "1", "u[0]", "u[0]*u[1]",
            ],
        )
        assert err == f"warning: {INADMISSIBLE_AT_HALF}\n"
        assert code == 1
        assert "not positive semidefinite" in out
        assert "witness:" in out

    def test_repeated_warning_prints_once(self, capsys, tmp_path):
        # both parts warn with the same message; stderr carries it once
        part = {"kind": "product", "moments": [[1, 1, 0]]}
        path = tmp_path / "twice.json"
        path.write_text(json.dumps({"kind": "mixture",
                                    "parts": [["1/2", part], ["1/2", part]]}))
        code, out, err = run_cli(capsys, ["eval", "--alpha", "1/2", "--mode", "float",
                                          "--state", str(path), "u[0]*u[1]"])
        assert (code, out) == (0, "float: 1\n")
        assert err == f"warning: {INADMISSIBLE_AT_HALF}\n"

    def test_main_restores_warning_filters(self, capsys, state_files):
        before = list(warnings.filters)
        code, _, err = run_cli(capsys, ["eval", "--alpha", "1/2", "--mode", "float",
                                        "--state", state_files["inadmissible"], "u[0]*u[1]"])
        assert code == 0 and err.startswith("warning: ")
        assert warnings.filters == before

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


class TestLimits:
    def test_angle_denominator_limit(self):
        a = TorusAlgebra(BETA)
        big = a.scalar(PhaseCoefficient.unit_angle(F(1, 1000003)))
        assert parse("e(1/1000003)", a) == big
        assert parse("e(2/2000006)", a) == big
        with pytest.raises(ParseError, match="angle denominator above the limit"):
            parse("e(1/1000000000000000003)", a)

    def test_huge_alpha_denominator_exit_code(self, capsys):
        code, out, err = run_cli(capsys, ["n0", "--alpha", "1/1000000000000000003"])
        assert code == 2
        assert out == ""
        assert "above the limit" in err

    @pytest.mark.parametrize("denominator", [100003, 1000003])
    def test_large_prime_alpha(self, capsys, denominator):
        code, out, _ = run_cli(capsys, ["n0", "--alpha", f"1/{denominator}"])
        assert (code, out) == (0, f"n0 = {denominator}\n")

    @pytest.mark.parametrize("value", [10**340, "1" + "0" * 340 + "/1"],
                             ids=["integer", "fraction"])
    def test_float_overflow_exit_code(self, capsys, tmp_path, value):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"kind": "product", "moments": [[2, value, 0]]}))
        code, out, err = run_cli(capsys, ["eval", "--alpha", "1/2", "--mode", "float",
                                          "--state", str(path), "u[0]^2"])
        assert code == 2
        assert out == ""
        assert "too large for a float" in err

    def test_max_exponent_zero_check(self, capsys, state_files):
        code, out, _ = run_cli(capsys, ["check", "spreadable", "--alpha", "1/2",
                                        "--state", state_files["trace"],
                                        "--max-exponent", "0", "--trials", "5"])
        assert code == 0
        assert "exhaustive cases: 57" in out
        assert "result: PASS" in out

    def test_oversized_exhaustive_budget_exit_code(self, capsys, state_files):
        code, out, err = run_cli(capsys, ["check", "stationary", "--alpha", "1/2",
                                          "--state", state_files["trace"],
                                          "--max-factors", "9", "--trials", "0"])
        assert code == 2
        assert out == ""
        assert "exhaustive pass" in err

    def test_oracle_n0_denominator_limit(self, capsys):
        code, out, err = run_cli(capsys, ["oracle", "n0", "1000000000000000003"])
        assert code == 2
        assert out == ""
        assert "above the limit" in err
        code, out, _ = run_cli(capsys, ["oracle", "n0", str(2**20)])
        assert (code, out) == (0, "n0 = 1024\n")

    def test_trials_limit_exit_code(self, capsys, state_files):
        code, out, err = run_cli(capsys, ["check", "stationary", "--alpha", "1/2",
                                          "--state", state_files["trace"],
                                          "--trials", "10000001"])
        assert code == 2
        assert out == ""
        assert "trials must be <=" in err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="the interpreter converts integers of any length")
    @pytest.mark.parametrize("text", ["u[0]^{}", "u[{}]", "e({}/7)", "{}"],
                             ids=["exponent", "index", "angle", "scalar"])
    def test_oversized_literal_exit_code(self, capsys, text):
        code, out, err = run_cli(capsys, ["normal-form", "--alpha", "1/2",
                                          text.format("9" * 5000)])
        assert code == 2
        assert out == ""
        assert "integer literal of 5000 digits is above the limit" in err

    def test_random_pass_window_limit_exit_code(self, capsys, state_files):
        code, out, err = run_cli(capsys, ["check", "spreadable", "--alpha", "1/2",
                                          "--state", state_files["trace"],
                                          "--no-exhaustive", "--trials", "20",
                                          "--max-index", "5000001"])
        assert code == 2
        assert out == ""
        assert "the random pass would draw tables" in err

    def test_random_pass_window_below_limit_answers(self, capsys, state_files):
        code, out, err = run_cli(capsys, ["check", "spreadable", "--alpha", "1/2",
                                          "--state", state_files["trace"],
                                          "--no-exhaustive", "--trials", "1",
                                          "--max-index", "1000000"])
        assert (code, err) == (0, "")
        assert "result: PASS" in out

    @pytest.mark.parametrize("check, options", [
        ("stationary", ["--no-exhaustive", "--trials", "5"]),
        ("spreadable", ["--max-factors", "0"]),
        ("gauge", ["--max-exponent", "0"]),
    ])
    def test_huge_max_index_answers(self, capsys, state_files, check, options):
        # maps touch only the indices a word uses; no list of singles is built
        # when the budget admits the empty word alone
        code, out, err = run_cli(capsys, ["check", check, "--alpha", "1/2",
                                          "--state", state_files["trace"],
                                          "--max-index", str(10**9)] + options)
        assert (code, err) == (0, "")
        assert "result: PASS" in out


def test_cli_import_leaves_numpy_unloaded(state_files):
    # numpy loads with the first matrix-model or float positivity check
    child = (
        "import sys\n"
        "import nctorus.cli\n"
        "assert 'numpy' not in sys.modules\n"
        "code = nctorus.cli.main(['oracle', 'psd', '--alpha', '1/2', '--state', sys.argv[1],\n"
        "                         '--order', '4'])\n"
        "assert code == 0 and 'numpy' not in sys.modules\n"
        "code = nctorus.cli.main(['oracle', 'psd', '--alpha', '1/2', '--mode', 'float',\n"
        "                         '--state', sys.argv[1], '--words', '1', 'u[0]', 'u[0]*u[1]'])\n"
        "assert code == 0 and 'numpy' in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(nctorus.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", child, state_files["prod"]],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == ("moment matrix (order 4): positive semidefinite\n"
                           "gram matrix (3 words): positive semidefinite\n")


# the nctorus.* modules loaded after import nctorus, import nctorus.cli and
# then each command in turn: every command adds only the modules it uses
COMMAND_MODULES = [
    ("import nctorus", []),
    ("import nctorus.cli", ["cli", "deformation"]),
    ("n0", ["cli", "deformation"]),
    ("normal-form", ["algebra", "cli", "deformation", "expr", "scalars"]),
    ("eval", ["algebra", "cli", "deformation", "expr", "scalars", "states"]),
    ("check", ["algebra", "cli", "deformation", "expr", "scalars", "states", "symmetry"]),
    ("oracle", ["algebra", "cli", "deformation", "expr", "oracle", "scalars", "states",
                "symmetry"]),
]


def test_each_command_loads_only_its_modules(state_files):
    child = (
        "import contextlib, io, json, sys\n"
        "def loaded():\n"
        "    return sorted(n[8:] for n in sys.modules if n.startswith('nctorus.'))\n"
        "import nctorus\n"
        "steps = [('import nctorus', loaded())]\n"
        "import nctorus.cli\n"
        "steps.append(('import nctorus.cli', loaded()))\n"
        "trace, prod = sys.argv[1:]\n"
        "for argv in (['n0', '--alpha', '1/2'],\n"
        "             ['normal-form', '--alpha', '1/2', 'u[1]*u[0]'],\n"
        "             ['eval', '--alpha', '1/2', '--state', trace, 'u[0]*u[0]^-1'],\n"
        "             ['check', 'spreadable', '--alpha', '1/2', '--state', trace,\n"
        "              '--trials', '5', '--no-exhaustive'],\n"
        "             ['oracle', 'psd', '--alpha', '1/2', '--state', prod, '--order', '2']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert nctorus.cli.main(argv) == 0, argv\n"
        "    steps.append((argv[0], loaded()))\n"
        "print(json.dumps(steps))\n"
    )
    src = os.path.dirname(os.path.dirname(nctorus.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", child, state_files["trace"],
                           state_files["prod"]],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert [tuple(step) for step in json.loads(done.stdout)] == COMMAND_MODULES


@pytest.mark.parametrize("flags", [[], ["-W", "error"]], ids=["default", "W-error"])
def test_float_warning_is_one_stderr_line(state_files, flags):
    # neither a source line nor the caller's warning filters reach the output
    src = os.path.dirname(os.path.dirname(nctorus.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, *flags, "-m", "nctorus.cli", "eval", "--alpha",
                           "1/2", "--mode", "float", "--state", state_files["inadmissible"],
                           "u[0]*u[1]"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (0, "float: 1\n")
    assert done.stderr == f"warning: {INADMISSIBLE_AT_HALF}\n"


def test_refused_oracle_trace_loads_no_numpy():
    # each word is refused before the matrix model is built, so numpy never loads
    child = (
        "import contextlib, io, json, sys\n"
        "import nctorus.cli\n"
        "runs = []\n"
        "for word in ('u[100000]', 'u[0]', 'u[1]^300'):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):\n"
        "        code = nctorus.cli.main(['oracle', 'trace', '--alpha', '1/256',\n"
        "                                 '--gens', '1000000', word])\n"
        "    runs.append([code, out.getvalue(), 'numpy' in sys.modules])\n"
        "print(json.dumps(runs))\n"
    )
    src = os.path.dirname(os.path.dirname(nctorus.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", child],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[2, "", False]] * 3


# short text over the expression alphabet: generators, punctuation, the
# phase name e, a stray letter, digits and spaces
EXPRESSION_TEXT = st.text(alphabet="u[]^()*+-/ei0123456789 ", max_size=16)
# nesting far past the recursion limit of a recursive descent
DEEP_PARENS = "(" * 1000 + "u[0]" + ")" * 1000
DEEP_ADJ = "adj(" * 1000 + "u[0]" + ")" * 1000


@settings(max_examples=300, deadline=None)
@given(EXPRESSION_TEXT)
@example(DEEP_PARENS)
@example(DEEP_ADJ)
def test_parse_returns_or_raises_input_error(text):
    try:
        parse(text, TorusAlgebra(canonicalize(1, 2)))
    except InputError:  # ParseError included
        pass


@settings(max_examples=300, deadline=None)
@given(EXPRESSION_TEXT)
@example(DEEP_PARENS)
@example(DEEP_ADJ)
def test_normal_form_cli_exit_code_contract(text):
    assert main(["normal-form", "--alpha", "1/2", text]) in (0, 2)


def test_nesting_limit():
    algebra = TorusAlgebra(canonicalize(1, 2))
    u0 = parse("u[0]", algebra)
    for opener in ("(", "adj("):
        assert parse(opener * MAX_NESTING + "u[0]" + ")" * MAX_NESTING, algebra) == u0
        with pytest.raises(ParseError, match=f"nesting deeper than {MAX_NESTING} levels"):
            parse(opener * (MAX_NESTING + 1) + "u[0]" + ")" * (MAX_NESTING + 1), algebra)


NINES = "9" * 3000  # products of two such literals have 6000 digits


@pytest.mark.parametrize("argv", [
    ["normal-form", "--alpha", "irrational", f"u[1]^{NINES}*u[0]^{NINES}"],  # E(m)
    ["normal-form", "--alpha", "1/2", f"{NINES}*{NINES}*u[0]"],  # a weight
    ["eval", "--alpha", "irrational", "--state", "trace",
     f"u[1]^{NINES}*u[0]^{NINES}*u[1]^-{NINES}*u[0]^-{NINES}"],  # E(m) in a value
])
def test_oversized_printed_integer_exits_2_before_any_output(capsys, state_files, argv):
    argv = [state_files[a] if a in state_files else a for a in argv]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert "printed integer above the limit" in err


def test_cyclotomic_level_limit_exits_2_before_any_output(capsys):
    # the sum lies in no smaller field than that of the product of the two
    # primes, about 1.1e12, whose power basis would have as many entries
    code, out, err = run_cli(capsys, ["normal-form", "--alpha", "1/2",
                                      "e(1048572/1048573) + e(1/1048571)"])
    assert (code, out) == (2, "")
    assert "exceeds the limit" in err


@pytest.mark.parametrize("argv", [
    ["eval", "--alpha", "1/2", "--state", "@trace", "9" * 400],  # float of the value
    ["oracle", "trace", "--alpha", "1/2", f"{NINES}*{NINES}"],  # matrix-model sum
    ["cesaro", "--alpha", "1/2", "--state", "@trace", "--n", "1",
     f"u[{'9' * 400}]"],  # float of the bound
])
def test_float_overflow_exits_2_before_any_output(capsys, state_files, argv):
    argv = [state_files[a[1:]] if a.startswith("@") else a for a in argv]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert "too large for a float" in err


def test_oracle_trace_ignores_slots_above_the_word(capsys):
    word = "u[1]*u[2]^2*u[1]^-1*u[2]^-1 + 1/3*u[2]"
    few = run_cli(capsys, ["oracle", "trace", "--alpha", "1/5", "--gens", "2", word])
    many = run_cli(capsys, ["oracle", "trace", "--alpha", "1/5", "--gens", "1000000", word])
    assert many == few
    assert few[0] == 0


def test_oracle_trace_walk_is_bounded(capsys):
    # u[100000] at D = 256 would form 10**5 products of 256 x 256 matrices
    from nctorus.oracle import MAX_MATRIX_WORK

    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["oracle", "trace", "--alpha", "1/256",
                                      "--gens", "1000000", "u[100000]"])
    assert (code, out) == (2, "")
    assert f"exceeds {MAX_MATRIX_WORK} multiply-adds" in err
    assert time.perf_counter() - start < 1


def test_product_term_pairs_are_bounded(capsys):
    # 24 binomials on distinct generators would expand to 2**24 words
    from nctorus.algebra import MAX_PRODUCT_PAIRS

    product = "*".join(f"(u[{2 * i}]+u[{2 * i + 1}])" for i in range(24))
    code, out, err = run_cli(capsys, ["normal-form", "--alpha", "1/2", product])
    assert (code, out) == (2, "")
    assert f"exceeds {MAX_PRODUCT_PAIRS} term pairs" in err


def test_oracle_trace_denominator_is_bounded(capsys):
    from nctorus.oracle import MAX_MATRIX_MODULUS

    argv = ["oracle", "trace", "--gens", "2", "--alpha"]
    code, out, _ = run_cli(capsys, argv + [f"1/{MAX_MATRIX_MODULUS}", "u[1]*u[2]"])
    assert (code, out.splitlines()[0]) == (0, "matrix trace: 0")
    for den in (MAX_MATRIX_MODULUS + 1, 1000003):
        code, out, err = run_cli(capsys, argv + [f"1/{den}", "u[1]"])
        assert (code, out) == (2, "")
        assert f"the matrix model needs a denominator <= {MAX_MATRIX_MODULUS}" in err


def test_oracle_psd_order_is_bounded(capsys, state_files):
    from nctorus.oracle import MAX_MOMENT_ORDER

    argv = ["oracle", "psd", "--alpha", "1/2", "--state", state_files["prod"], "--order"]
    code, out, _ = run_cli(capsys, argv + [str(MAX_MOMENT_ORDER)])
    assert code == 0
    assert out == f"moment matrix (order {MAX_MOMENT_ORDER}): positive semidefinite\n"
    code, out, err = run_cli(capsys, argv + [str(MAX_MOMENT_ORDER + 1)])
    assert (code, out) == (2, "")
    assert f"order must lie in 1..{MAX_MOMENT_ORDER}" in err


def test_coefficient_term_pairs_are_bounded(capsys):
    # each binomial doubles the terms of one coefficient: the 15th would
    # multiply 2**14 terms by 2
    from nctorus.algebra import MAX_PRODUCT_PAIRS

    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
    product = "*".join(f"(1+e(1/{p}))" for p in primes)
    code, out, err = run_cli(capsys, ["normal-form", "--alpha", "1/2", product])
    assert (code, out) == (2, "")
    assert f"a product of 16384 by 2 coefficient terms exceeds {MAX_PRODUCT_PAIRS}" in err


def test_oracle_psd_gram_family_is_bounded(capsys, state_files, monkeypatch):
    from nctorus import oracle
    from nctorus.oracle import MAX_MOMENT_ORDER

    argv = ["oracle", "psd", "--alpha", "1/2", "--state", state_files["trace"], "--words"]
    largest = MAX_MOMENT_ORDER + 1
    code, out, _ = run_cli(capsys, argv + ["u[0]"] * largest)
    assert (code, out) == (0, f"gram matrix ({largest} words): positive semidefinite\n")

    def refuse(*args, **kwargs):
        raise AssertionError("the Gram entries started")

    monkeypatch.setattr(oracle, "evaluator", refuse)
    code, out, err = run_cli(capsys, argv + ["u[0]"] * (largest + 1))
    assert (code, out) == (2, "")
    assert f"a Gram family of {largest + 1} elements exceeds the limit {largest}" in err


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("row", [[2, True, 0], [2, 0, False]], ids=["re", "im"])
def test_boolean_moment_exits_2_in_both_modes(capsys, tmp_path, mode, row):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"kind": "product", "moments": [row]}))
    code, out, err = run_cli(capsys, ["eval", "--alpha", "1/2", "--mode", mode,
                                      "--state", str(path), "u[0]^2"])
    assert (code, out) == (2, "")
    assert "booleans are not rationals" in err


@pytest.mark.parametrize("argv,message", [
    (["cesaro", "--alpha", "1/2", "--mode", "float", "--state", "@trace", "--n", "1", "u[0]"],
     "the cesaro command runs in exact mode"),
    (["cesaro", "--alpha", "1/2", "--state", "@n_negative", "--n", "1", "u[0]"],
     "half width must be >= 0"),
    (["cesaro", "--alpha", "1/2", "--state", "@trace", "--n", "-1", "u[0]"],
     "half width must be >= 0"),
    # phi(adj(e(1/3)*u[0]^2)) = e(-1/3) * c_-2 is not a Gaussian rational
    (["oracle", "psd", "--alpha", "1/2", "--state", "@prod", "--words", "e(1/3)*u[0]^2", "1"],
     "Gram entries leave the Gaussian rationals"),
    (["oracle", "trace", "--alpha", "1/5", "--gens", "0", "u[1]"],
     "need at least one generator"),
    (["eval", "--alpha", "1/2", "--mode", "float", "--state", "@null_moment", "u[0]^2"],
     "bad numeric value None"),
    (["oracle", "psd", "--alpha", "1/2", "--state", "@trace"],
     "the moment matrix check needs a product state"),
    (["eval", "--alpha", "1/2", "--state", "@empty_mixture", "1"],
     "a mixture needs at least one part"),
])
def test_refusal_exits_2_before_any_output(capsys, state_files, argv, message):
    argv = [state_files[a[1:]] if a.startswith("@") else a for a in argv]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert message in err


def test_irrational_value_prints_symbolic_float(capsys, state_files):
    code, out, _ = run_cli(capsys, ["eval", "--alpha", "irrational", "--state",
                                    state_files["trace"], "E(2)"])
    assert (code, out) == (0, "exact: E(2)\nfloat: symbolic (irrational beta)\n")


def test_irrational_cesaro_gap_is_zero(capsys, tmp_path):
    # at irrational beta every exact state equals the trace, so phi_n - phi
    # cancels term by term, symbolic twist included
    path = tmp_path / "lebesgue.json"
    path.write_text(json.dumps({"kind": "product", "moments": []}))
    code, out, err = run_cli(capsys, ["cesaro", "--alpha", "irrational", "--state", str(path),
                                      "--n", "2", "u[0]*u[1]*u[0]^-1*u[1]^-1+u[0]"])
    assert (code, err) == (0, "")
    assert out == "phi_2: E(1)\nphi: E(1)\ngap: 0\nbound 4s/(2n+1): 0 = 0\n"


def test_oracle_psd_moment_witness_exits_1(capsys, tmp_path):
    # {2: 1, 4: -1} at beta = 1/2: the density 1 + 2cos 2t - 2cos 4t is -3 at t = pi/2
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"kind": "product", "moments": [[2, "1", 0], [4, "-1", 0]]}))
    code, out, err = run_cli(capsys, ["oracle", "psd", "--alpha", "1/2", "--order", "6",
                                      "--state", str(path)])
    assert (code, err) == (1, "")
    assert out == ("moment matrix (order 6): not positive semidefinite; form value -8\n"
                   "witness: [-3, 0, 1, 0, -2, 0, 0]\n")


JSON_VALUES = st.one_of(
    st.integers(-2, 2), st.just(10**400), st.floats(), st.booleans(), st.none(),
    st.sampled_from(["1/4", "-1/3", "x", "1/0", "9" * 400]),
)
MOMENT_ROWS = st.lists(st.tuples(st.sampled_from([2, 4]), st.sampled_from(["1/4", 0]),
                                 st.sampled_from(["-1/5", 0])).map(list), max_size=3)
JUNK_ROWS = st.lists(st.lists(JSON_VALUES, max_size=4), max_size=3)
JUNK_STATES = st.sampled_from([{"kind": "nope"}, {}, [], 5, "trace", {"kind": "mixture"}])


@st.composite
def state_descriptions(draw, depth=None, clean=None):
    """A state description nesting depth levels deep (at most 20) from every
    kind.  A clean one has well-formed rows and values and a block product
    only at the top; the others also draw rows of any width, values of any
    JSON type and junk states."""
    top = depth is None
    if top:
        depth, clean = draw(st.integers(0, 20)), draw(st.booleans())
    if depth == 0:
        product = st.fixed_dictionaries(
            {"kind": st.just("product"), "moments": MOMENT_ROWS if clean else JUNK_ROWS})
        return draw(st.one_of(st.just({"kind": "trace"}), product,
                              *([] if clean else [JUNK_STATES])))
    kind = draw(st.sampled_from(["cesaro", "mixture"] + ["block"] * (top or not clean)))
    if kind != "mixture":
        n = draw(st.one_of(st.integers(0, 3), st.just(10**400),
                           *([] if clean else [JSON_VALUES])))
        return {"kind": kind, "n": n, "base": draw(state_descriptions(depth - 1, clean))}
    count = draw(st.integers(1, 3))
    weights = st.just(f"1/{count}") if clean else JSON_VALUES
    return {"kind": "mixture", "parts": [
        [draw(weights), draw(state_descriptions(depth - 1 if k == 0 else 0, clean))]
        for k in range(count)
    ]}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(obj=state_descriptions(), mode=st.sampled_from(["exact", "float"]),
       expr=st.sampled_from(["u[0]^2", "u[0] + 1/2"]))
def test_state_file_eval_exit_code_contract(capsys, tmp_path, obj, mode, expr):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(obj))
    code = main(["eval", "--alpha", "1/2", "--state", str(path), "--mode", mode, expr])
    capsys.readouterr()
    assert code in (0, 1, 2)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(obj=state_descriptions(), mode=st.sampled_from(["exact", "float"]),
       expr=st.sampled_from(["u[0]^2", "u[0] + 1/2"]))
@example(obj={"kind": "product", "moments": [[0, 1, 0], [2, float("nan"), 0]]},
         mode="float", expr="u[0]^2")
def test_state_file_eval_prints_a_number_or_refuses(capsys, tmp_path, obj, mode, expr):
    # eval has no verdict to fail: it prints a finite value and exits 0, or
    # refuses the input with exit 2 and prints nothing on stdout
    path = tmp_path / "state.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run_cli(capsys, ["eval", "--alpha", "1/2", "--state", str(path),
                                    "--mode", mode, expr])
    assert code in (0, 2)
    if code == 0:
        assert "nan" not in out and "inf" not in out
    else:
        assert out == ""


@pytest.mark.parametrize("nan_row", [[2, "NaN", 0], [2, 0, "NaN"]], ids=["re", "im"])
@pytest.mark.parametrize("command", [
    ["eval", "--alpha", "1/2", "--mode", "float", "u[0]^2"],
    ["check", "spreadable", "--alpha", "1/2", "--mode", "float", "--trials", "5"],
    ["check", "gauge", "--alpha", "1/2", "--mode", "float", "--trials", "5"],
    ["oracle", "psd", "--alpha", "1/2", "--mode", "float"],
], ids=["eval", "check-spreadable", "check-gauge", "oracle-psd"])
def test_nan_moment_state_file_is_bad_input(capsys, tmp_path, nan_row, command):
    # json reads NaN; the state file is refused before any value is printed
    path = tmp_path / "state.json"
    row = ", ".join(map(str, nan_row))
    path.write_text(f'{{"kind": "product", "moments": [[0, 1, 0], [{row}]]}}')
    code, out, err = run_cli(capsys, command + ["--state", str(path)])
    assert (code, out) == (2, "")
    assert "moment at 2 is not a number" in err


@st.composite
def printable_elements(draw, algebra):
    """At most 4 terms of at most 3 factors; each coefficient a rational
    times e(p/q), times E(m) when beta is irrational.  One q <= 60 serves
    the whole element, so coefficients that merge on one word stay at the
    level lcm(q, denominator of beta) or below, where reduction is quick."""
    x = algebra.zero()
    q = draw(st.integers(1, 60))
    for _ in range(draw(st.integers(1, 4))):
        coeff = PhaseCoefficient.unit_angle(F(draw(st.integers(0, q - 1)), q),
                                            draw(st.fractions(-4, 4, max_denominator=6)))
        if not algebra.beta.is_rational:
            coeff = coeff * algebra.twist_phase(draw(st.integers(-5, 5)))
        factors = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 2)), max_size=3))
        x = x + algebra.word(factors, coeff)
    return x


@pytest.mark.parametrize("beta", [canonicalize(1, 2), canonicalize(1, 4), canonicalize(3, 8),
                                  canonicalize(1, 6), IRRATIONAL], ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_print_parse_round_trip(beta, data):
    algebra = TorusAlgebra(beta)
    x = data.draw(printable_elements(algebra))
    text = format_element(x)
    y = parse(text, algebra)
    assert y == x
    assert format_element(y) == text


@pytest.mark.parametrize("argv", [
    ["eval", "--alpha", "irrational", "--mode", "float", "--state", "@trace",
     "u[1]*u[0]*u[1]^-1*u[0]^-1"],
    ["check", "stationary", "--alpha", "irrational", "--mode", "float", "--state", "@prod",
     "--trials", "5"],
    ["oracle", "psd", "--alpha", "irrational", "--mode", "float", "--state", "@trace",
     "--words", "u[0]*u[1]", "u[1]*u[0]"],
])
def test_float_mode_symbolic_twist_exits_2_before_any_output(capsys, state_files, argv):
    # the CLI supplies no numeric beta, so a twist at irrational beta has no float value
    argv = [state_files[a[1:]] if a.startswith("@") else a for a in argv]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert "symbolic twist power needs a numeric beta value" in err


SMALL_CHECK = ["--trials", "3", "--max-factors", "2", "--max-index", "1", "--max-exponent", "2"]
STATE_FILE_COMMANDS = [
    (["eval"], ["{expr}"]),
    (["check", "spreadable"], SMALL_CHECK),
    (["check", "stationary"], SMALL_CHECK),
    (["check", "gauge"], SMALL_CHECK),
    (["cesaro"], ["--n", "2", "{expr}"]),
    (["cluster"], ["--K", "3", "{expr}", "u[0]"]),
    (["oracle", "psd"], ["--order", "3"]),
    (["oracle", "psd"], ["--words", "{expr}", "u[0]"]),
]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(obj=state_descriptions(), command=st.sampled_from(STATE_FILE_COMMANDS),
       alpha=st.sampled_from(["irrational", "1/2"]), mode=st.sampled_from(["float", "exact"]),
       expr=st.sampled_from(["u[1]*u[0]*u[1]^-1*u[0]^-1", "u[0]^2", "u[0] + 1/2"]))
def test_state_file_commands_exit_code_contract(capsys, tmp_path, obj, command, alpha, mode,
                                                expr):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(obj))
    head, tail = command
    argv = head + ["--alpha", alpha, "--state", str(path), "--mode", mode]
    code = main(argv + [expr if a == "{expr}" else a for a in tail])
    capsys.readouterr()
    assert code in (0, 1, 2)


def test_random_pass_steps_limit_exit_code(capsys, monkeypatch, state_files):
    def refuse(*args):
        raise AssertionError("the random pass started")

    monkeypatch.setattr(nctorus.symmetry, "random_factor_word", refuse)
    code, out, err = run_cli(capsys, ["check", "stationary", "--alpha", "1/2",
                                      "--state", state_files["trace"],
                                      "--max-factors", "100000000", "--trials", "50",
                                      "--no-exhaustive"])
    assert (code, out) == (2, "")
    assert "the random pass would take" in err


def test_parse_error_position_after_newline():
    with pytest.raises(ParseError, match=r"unexpected character '#' \(line 2, column 3\)") as info:
        parse("u[0] +\n  #", TorusAlgebra(BETA))
    assert (info.value.line, info.value.column) == (2, 3)
