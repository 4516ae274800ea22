"""Tests of the benchmark itself: oracles, seed schedule, span arithmetic.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

cli = pytest.importorskip("qcomplement.cli")


def _run_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _cli_basis(amps):
    from qcomplement.core import PureState
    from qcomplement.measures import preferred_basis
    return preferred_basis(PureState(amps, 3)).vectors()


# ---------------------------------------------------------------------------
# verify oracle
# ---------------------------------------------------------------------------

def _verify_op(tmp_path, coeffs=None):
    extra = ("--phase-points", "16") + (("--basis-coeffs", coeffs) if coeffs else ())
    argv = ("verify", "--random", "--count", "3", "--seed", "11") + extra
    op = Op("random", argv, tuple(("random", 11 + k) for k in range(3)), 16, coeffs)
    out = tmp_path / "records.csv"
    rc = _run_cli(list(argv) + ["--output", str(out)])
    return op, rc, out.read_text()


def _perturb_v2(text: str, delta: float, line: int = 2) -> str:
    lines = text.splitlines(keepends=True)
    fields = lines[line].rstrip("\n").split(",")
    fields[5] = repr(float(fields[5]) + delta)
    lines[line] = ",".join(fields) + "\n"
    return "".join(lines)


@pytest.mark.parametrize("coeffs", [None, "0.6,0.8,0,0", "0.5,0.5,0.5,0.5"])
def test_verify_oracle_accepts_cli_output(tmp_path, coeffs):
    op, rc, text = _verify_op(tmp_path, coeffs)
    check = oracles.check_verify(op, rc, text)
    assert (check.ops, check.failed) == (3, 0), check.reasons
    assert check.max_err < 1e-12


@pytest.mark.parametrize("coeffs", [None, "0.5,0.5,0.5,0.5"])
def test_verify_oracle_rejects_v2_perturbed_by_1e_8(tmp_path, coeffs):
    op, rc, text = _verify_op(tmp_path, coeffs)
    check = oracles.check_verify(op, rc, _perturb_v2(text, 1e-8))
    assert check.failed == 1
    assert "V2 - V_ref" in check.reasons[0]


def test_verify_oracle_counts_missing_records_and_exit_codes(tmp_path):
    op, rc, text = _verify_op(tmp_path)
    lines = text.splitlines(keepends=True)
    assert oracles.check_verify(op, rc, "".join(lines[:-1])).failed == 1
    assert oracles.check_verify(op, 1, text).failed == 3


def test_family_states_match_cli_descriptors():
    op = next(o for o in itertools.islice(
        itertools.chain.from_iterable(workloads.cycles("verify-equality", 0)), 6)
        if o.kind == "family:intermediate")
    amps = oracles.state_amplitudes(op.states[-1])
    from qcomplement.states import intermediate_state
    want = intermediate_state(np.pi, 0.7, 1.1).amplitudes
    assert np.allclose(amps, want, atol=1e-15)
    assert oracles.state_descriptor(op.states[-1]) == f"intermediate:alpha1={np.pi:.17g}"


# ---------------------------------------------------------------------------
# interfere oracle
# ---------------------------------------------------------------------------

def _interfere_op(tmp_path, epsilon=None):
    argv = ("interfere", "--random", "--seed", "5", "--mode", "independent",
            "--phase-points", "16")
    if epsilon is not None:
        argv += ("--epsilon", repr(epsilon))
    op = Op("density" if epsilon else "pure", argv, (("random", 5),), 16,
            epsilon=epsilon)
    out = tmp_path / "ig.csv"
    rc = _run_cli(list(argv) + ["--output", str(out)])
    return op, rc, out


@pytest.mark.parametrize("epsilon", [None, 0.1])
def test_interfere_oracle_accepts_every_row(tmp_path, epsilon):
    op, rc, out = _interfere_op(tmp_path, epsilon)
    basis = _cli_basis(oracles.state_amplitudes(op.states[0]))
    check = oracles.check_interfere(op, rc, out, basis, samples=256)
    assert (check.ops, check.failed) == (1, 0), check.reasons
    assert check.max_err < 1e-14


@pytest.mark.parametrize("epsilon", [None, 0.1])
def test_interfere_oracle_rejects_corrupted_row(tmp_path, epsilon):
    op, rc, out = _interfere_op(tmp_path, epsilon)
    lines = out.read_text().splitlines(keepends=True)
    fields = lines[100].split(",")
    fields[4] = repr(float(fields[4]) + 1e-10)
    lines[100] = ",".join(fields)
    out.write_text("".join(lines))
    basis = _cli_basis(oracles.state_amplitudes(op.states[0]))
    check = oracles.check_interfere(op, rc, out, basis, samples=256)
    assert check.failed == 1
    assert "row 98" in check.reasons[0]


def test_interfere_oracle_rejects_missing_row_and_wrong_basis(tmp_path):
    op, rc, out = _interfere_op(tmp_path)
    amps = oracles.state_amplitudes(op.states[0])
    basis = _cli_basis(amps)
    assert oracles.check_interfere(op, rc, out, np.roll(basis, 1, axis=1)).failed == 1
    lines = out.read_text().splitlines(keepends=True)
    out.write_text("".join(lines[:-1]))
    check = oracles.check_interfere(op, rc, out, basis)
    assert check.failed == 1 and "rows" in check.reasons[0]


# ---------------------------------------------------------------------------
# seed schedule
# ---------------------------------------------------------------------------

def _ops(workload, seed, n=30):
    return list(itertools.islice(
        itertools.chain.from_iterable(workloads.cycles(workload, seed)), n))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_schedule_is_a_function_of_the_seed(workload):
    assert _ops(workload, 3) == _ops(workload, 3)
    assert _ops(workload, 3) != _ops(workload, 4)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_schedule_never_reuses_a_state_seed(workload):
    seeds = [s[1] for op in _ops(workload, 7, 200) for s in op.states
             if s[0] == "random"]
    assert len(seeds) == len(set(seeds)) > 0


def test_cycles_keep_a_fixed_mix_of_kinds():
    for workload in workloads.WORKLOADS:
        kinds = [[op.kind.split(":")[0] for op in cycle]
                 for cycle in itertools.islice(workloads.cycles(workload, 1), 4)]
        assert all(k == kinds[0] for k in kinds)
    families = {cycle[1].kind for cycle in
                itertools.islice(workloads.cycles("verify-equality", 1), 3)}
    assert families == {"family:ghz", "family:w", "family:intermediate"}


# ---------------------------------------------------------------------------
# machine-speed scaling
# ---------------------------------------------------------------------------

def test_reference_kernel_runs():
    assert 0 < calibrate.reference() < 60 * calibrate.NOMINAL_S


def test_slowdown_weights_each_command_by_its_time():
    nominal = calibrate.NOMINAL_S
    assert calibrate.slowdown([3.0, 1.0], [nominal] * 3) == pytest.approx(1.0)
    # Kernel samples 1, 1, 3 (x nominal): the commands ran at 1 and 2.
    samples = [nominal, nominal, 3 * nominal]
    assert calibrate.slowdown([3.0, 1.0], samples) == pytest.approx(1.25)
    assert calibrate.slowdown([1.0, 3.0], samples) == pytest.approx(1.75)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def _tree():
    # cli.main [0, 10]
    #   harness.verify_equality [1, 9]
    #     measures.preferred_basis [1.5, 2.5]
    #       core.partial_trace [1.6, 2.0]
    #     interferometer.sweep_interferogram [3, 5]  (grid 4 points, 64 bytes)
    #     interferometer.visibility_two_party [5, 8]
    #       interferometer.corrected_port_visibility [5.5, 7.5]
    #         interferometer.general_basis_rotation [6, 6.5]
    #   states.random_pure_state [9.2, 9.7]
    return [
        ["cli.main", 0.0, 10.0, -1, 0, None],
        ["harness.verify_equality", 1.0, 9.0, 0, 0, None],
        ["measures.preferred_basis", 1.5, 2.5, 1, 0, None],
        ["core.partial_trace", 1.6, 2.0, 2, 0, None],
        ["interferometer.sweep_interferogram", 3.0, 5.0, 1, 0,
         {"grid_points": 4, "array_bytes": 64}],
        ["interferometer.visibility_two_party", 5.0, 8.0, 1, 0, None],
        ["interferometer.corrected_port_visibility", 5.5, 7.5, 5, 0, None],
        ["interferometer.general_basis_rotation", 6.0, 6.5, 6, 0, None],
        ["states.random_pure_state", 9.2, 9.7, 0, 0, None],
    ]


def test_self_time_on_synthetic_tree():
    assert spans.self_times(_tree()) == pytest.approx(
        [1.5, 2.0, 0.6, 0.4, 2.0, 1.0, 1.5, 0.5, 0.5])
    own = spans.layer_self(_tree())
    assert own == pytest.approx({"cli": 1.5, "harness": 2.0, "measures": 0.6,
                                 "core": 0.4, "interferometer": 5.0,
                                 "states": 0.5})
    assert sum(own.values()) == pytest.approx(10.0)


def test_group_time_counts_nesting_once_and_excludes_other_calls():
    tree = _tree()
    vis = spans.VISIBILITY.__contains__
    assert spans.group_time(tree, vis) == pytest.approx(3.0)
    assert spans.group_time(tree, vis, exclusive=True) == pytest.approx(2.5)
    assert spans.group_time(tree, spans.BASIS.__contains__) == pytest.approx(1.0)


def test_layer_figures_on_synthetic_tree():
    fig = spans.layer_figures(_tree(), states=2, ops=1)
    assert fig["interferometer.sweep_ms_per_state"] == pytest.approx(1000.0)
    assert fig["interferometer.visibility_ms_per_state"] == pytest.approx(1250.0)
    assert fig["interferometer.grid_points_per_state"] == pytest.approx(2.0)
    assert fig["core.partial_trace_calls_per_state"] == pytest.approx(0.5)
    assert fig["cli.self_s_per_op"] == pytest.approx(1.5)
    assert fig["frontend.self_ms_per_state"] == pytest.approx(1750.0)
    assert fig["interferometer.density_sweep_s_per_op"] == 0.0


def test_tracer_records_nested_spans_only_inside_an_op():
    clock = itertools.count().__next__
    tracer = spans.Tracer(clock=lambda: float(clock()))
    inner = tracer.wrap("core.inner", lambda x: x + 1)
    outer = tracer.wrap("cli.outer", lambda x: inner(x) * 2)
    assert outer(1) == 4 and tracer.spans == []
    tracer.op = 7
    assert outer(1) == 4
    assert tracer.spans == [["cli.outer", 0.0, 3.0, -1, 7, None],
                            ["core.inner", 1.0, 2.0, 0, 7, None]]


def test_tracer_install_wraps_the_attributes_callers_look_up():
    import qcomplement.cli as qcli
    import qcomplement.harness as harness
    original = harness.sweep_interferogram
    tracer = spans.Tracer()
    try:
        assert tracer.install() > 0
        assert harness.sweep_interferogram.__wrapped__ is original
        assert qcli.verify_equality.__wrapped__.__module__ == "qcomplement.harness"
        tracer.op = 0
        assert _run_cli(["verify", "--random", "--count", "1",
                         "--phase-points", "16"]) == 0
    finally:
        tracer.uninstall()
    assert harness.sweep_interferogram is original
    names = {s[spans.NAME] for s in tracer.spans}
    assert {"cli.main", "harness.verify_equality", "measures.preferred_basis",
            "interferometer.sweep_interferogram", "core.partial_trace"} <= names
