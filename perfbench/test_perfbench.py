"""Tests of the benchmark itself.  Run: python3 -m pytest perfbench -q"""

import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from nctorus import states  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    W = workloads.WORKLOADS[name]
    assert W.make_round(7, 0) == W.make_round(7, 0)
    assert W.make_round(7, 1) == W.make_round(7, 1)
    assert W.make_round(7, 0) != W.make_round(8, 0)


def small_cesaro_round(seed, rnd):
    ops = workloads.cesaro_round(seed, rnd)
    return [op for op in ops if op["n"] <= 60][:6]


def traced_calls(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads.Cesaro, "make_round", staticmethod(small_cesaro_round))
    monkeypatch.setattr(workloads.Cli, "workdir", str(tmp_path))
    workloads.Cli.write_state_files(str(tmp_path))
    tally = run.Tally()
    tracer = layers.LayerTracer()
    run.run_round(workloads.Cesaro, 3, 0, tally, in_process=True, tracer=tracer)
    run.run_round(workloads.Cli, 3, 0, tally, in_process=True, tracer=tracer)
    assert not tally.failures
    return {k: v[0] for k, v in layers.layer_metrics(tracer).items()
            if k.endswith(".calls")}


def test_traced_calls_repeat_exactly(monkeypatch, tmp_path):
    first = traced_calls(monkeypatch, tmp_path)
    second = traced_calls(monkeypatch, tmp_path)
    assert first == second
    assert first["states.evaluate_word.cesaro.calls"] > 0
    assert first["cli.main.calls"] == 16
    assert first["oracle.toeplitz_psd.calls"] == 1


def test_gates_run_outside_the_tracer(monkeypatch):
    # evaluate() never calls to_qqi; the cesaro gate calls it once per op
    monkeypatch.setattr(workloads.Cesaro, "make_round", staticmethod(small_cesaro_round))
    tally, tracer = run.Tally(), layers.LayerTracer()
    run.run_round(workloads.Cesaro, 3, 0, tally, tracer=tracer)
    assert len(tally.ops) == 6 and not tally.failures
    assert tracer.spans["scalars.PhaseCoefficient.to_qqi"].calls == 0
    assert tracer.spans["states.evaluate_word.cesaro"].calls == 6


def test_tracer_restores_the_package():
    before = states.evaluate_word
    with layers.LayerTracer():
        assert states.evaluate_word is not before
    assert states.evaluate_word is before


def test_planted_wrong_value_fails(monkeypatch):
    monkeypatch.setattr(workloads.Cesaro, "make_round", staticmethod(small_cesaro_round))
    real = states.evaluate
    monkeypatch.setattr(states, "evaluate", lambda s, x: real(s, x) + Fraction(1, 7))
    tally = run.Tally()
    run.run_round(workloads.Cesaro, 1, 0, tally)
    assert len(tally.failures) == len(tally.ops) == 6


def test_flipped_exit_code_fails(monkeypatch, tmp_path):
    def flipped(seed, rnd):
        cmds = workloads.cli_round(seed, rnd)
        valid = [c for c in cmds if not c["malformed"]][:3]
        valid[0] = dict(valid[0], code=1 - valid[0]["code"])
        return valid

    monkeypatch.setattr(workloads.Cli, "make_round", staticmethod(flipped))
    monkeypatch.setattr(workloads.Cli, "root", os.path.dirname(HERE))
    monkeypatch.setattr(workloads.Cli, "workdir", str(tmp_path))
    workloads.Cli.write_state_files(str(tmp_path))
    tally = run.Tally()
    run.run_round(workloads.Cli, 1, 0, tally)
    assert len(tally.failures) == 1 and not tally.known
    named = run.named_metrics("cli", tally, 0.1, 30.0)
    assert named["failed_share"][0] == pytest.approx(1 / 3)


def test_known_defect_is_pinned_not_hidden():
    cmd = next(c for c in workloads.cli_round(1, 0) if "u[²]" in c["argv"])
    assert isinstance(workloads.Cli.check(cmd, (1, "", "ValueError"), 0), workloads.Known)
    assert not isinstance(workloads.Cli.check(cmd, (1, "", "TypeError"), 0), workloads.Known)
    assert workloads.Cli.check(cmd, (2, "", None), 0) is None


def test_percentile_needs_ten_samples_beyond_p90():
    assert run.percentile(list(range(99)), 0.9) is None
    assert run.percentile(list(range(100)), 0.9) == 89
    assert run.percentile([3.0, 1.0, 2.0], 0.5) == 2.0


def test_symmetry_budget_formula_matches_criterion_4():
    call = {"property": "spreadable", "beta": "1/2"}
    assert workloads.symmetry_expected_cases(call) == 8421 * 57
    assert workloads.n0_of(8) == 4 and workloads.n0_of(72) == 12
