"""Command-line interface: commands, formats, config handling, exit codes."""

import json

import numpy as np
import pytest

from qcomplement.cli import main, read_state_file


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPrepare:
    def test_ghz_half_pi(self, capsys):
        code, out, _ = run(capsys, "prepare", "--class", "ghz",
                           "--alpha1", "1.5707963267948966")
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        values = [complex(*map(float, r.split())) for r in rows]
        assert abs(values[0] - np.sqrt(0.5)) < 1e-12
        assert abs(values[7] - np.sqrt(0.5)) < 1e-12
        assert all(abs(v) < 1e-15 for v in values[1:7])

    def test_ghz_zero_is_ground_state(self, capsys):
        code, out, _ = run(capsys, "prepare", "--class", "ghz", "--alpha1", "0")
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert float(rows[0].split()[0]) == 1.0
        assert all(float(x) == 0.0 for r in rows[1:] for x in r.split())

    def test_random_is_normalized(self, capsys):
        code, out, _ = run(capsys, "prepare", "--random", "--seed", "7")
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        amps = np.array([complex(*map(float, r.split())) for r in rows])
        assert code == 0 and len(amps) == 8
        assert abs(np.linalg.norm(amps) - 1.0) < 1e-12

    def test_degrees_flag(self, capsys):
        _, rad_out, _ = run(capsys, "prepare", "--class", "ghz",
                            "--alpha1", str(np.pi / 2))
        _, deg_out, _ = run(capsys, "prepare", "--class", "ghz",
                            "--alpha1", "90", "--degrees")
        assert rad_out == deg_out

    def test_output_file_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "state.txt"
        code, _, _ = run(capsys, "prepare", "--class", "w", "--alpha1", "1.1",
                         "--alpha2-0", "0.7", "--output", str(path))
        assert code == 0
        psi = read_state_file(str(path))
        assert abs(psi.amplitudes[0b100] - np.sin(0.55)) < 1e-12

    def test_missing_spec_is_usage_error(self, capsys):
        code, _, err = run(capsys, "prepare")
        assert code == 2
        assert "error" in err


class TestInterfere:
    def test_row_count_matches_grid(self, capsys):
        code, out, _ = run(capsys, "interfere", "--class", "ghz",
                           "--alpha1", "1.2", "--phase-points", "24",
                           "--mode", "locked")
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert code == 0
        assert len(rows) == 24 + 1  # column-header line + one row per point
        assert len(rows[1].split(",")) == 15

    def test_independent_mode_has_two_phase_columns(self, capsys):
        code, out, _ = run(capsys, "interfere", "--random", "--seed", "3",
                           "--phase-points", "16", "--mode", "independent")
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert rows[0].startswith("phi1,phi2,")
        assert len(rows) == 16 * 16 + 1

    def test_product_state_corrected_constant(self, capsys):
        code, out, _ = run(capsys, "interfere", "--class", "ghz",
                           "--alpha1", "0", "--phase-points", "16")
        rows = [l.split(",") for l in out.splitlines()
                if l and not l.startswith(("#", "phi"))]
        for row in rows:
            for value in row[-4:]:
                assert abs(float(value) - 0.25) < 1e-10

    def test_ghz_full_amplitude_oscillation(self, capsys):
        code, out, _ = run(capsys, "interfere", "--class", "ghz",
                           "--alpha1", str(np.pi / 2), "--phase-points", "360",
                           "--mode", "locked")
        rows = [l.split(",") for l in out.splitlines()
                if l and not l.startswith(("#", "phi"))]
        corr00 = np.array([float(r[-4]) for r in rows])
        assert corr00.max() > 0.499 and corr00.min() < 1e-3

    def test_state_file_input(self, tmp_path, capsys):
        path = tmp_path / "s.txt"
        run(capsys, "prepare", "--class", "intermediate", "--alpha1", "0.9",
            "--alpha2-0", "1.1", "--alpha3-00", "0.6", "--output", str(path))
        code, out, _ = run(capsys, "interfere", "--state", str(path),
                           "--phase-points", "16")
        assert code == 0

    def test_pseudopure_epsilon_one_matches_pure(self, capsys):
        args = ["interfere", "--class", "ghz", "--alpha1", "0.8",
                "--phase-points", "16"]
        _, pure, _ = run(capsys, *args)
        _, mixed, _ = run(capsys, *args, "--epsilon", "1")
        pv = [list(map(float, l.split(","))) for l in pure.splitlines()[2:]]
        mv = [list(map(float, l.split(","))) for l in mixed.splitlines()[2:]]
        assert np.max(np.abs(np.array(pv) - np.array(mv))) < 1e-10

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "interfere", "--class", "ghz",
                           "--alpha1", "1.0", "--phase-points", "16",
                           "--format", "json")
        payload = json.loads(out)
        assert len(payload["rows"]) == 16
        assert payload["columns"][0] == "phi"

    def test_bad_state_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\n")
        code, _, err = run(capsys, "interfere", "--state", str(path))
        assert code == 2


class TestVerify:
    def test_family_sweep_passes(self, tmp_path, capsys):
        out_csv = tmp_path / "records.csv"
        code, out, _ = run(capsys, "verify", "--family", "ghz",
                           "--points", "9", "--phase-points", "36",
                           "--output", str(out_csv))
        assert code == 0
        summary = json.loads(out)
        assert summary["pass"] and summary["n_states"] == 9
        assert summary["max_residual"] < 1e-6
        assert out_csv.read_text().startswith("# qcomplement records v1")

    def test_random_states_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--random", "--count", "3",
                           "--seed", "11", "--phase-points", "36")
        assert code == 0
        summary = json.loads(out[out.index("{"):])
        assert summary["pass"]

    def test_extended_basis_inequality_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "ghz",
                           "--basis-coeffs", "0,0,1,0", "--points", "5",
                           "--phase-points", "36")
        assert code == 0

    def test_impossible_tolerance_fails_with_exit_1(self, capsys):
        code, out, _ = run(capsys, "verify", "--random", "--count", "1",
                           "--tolerance", "0", "--phase-points", "36")
        assert code == 1

    def test_missing_target_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--phase-points", "36")
        assert code == 2

    def test_byte_identical_reruns(self, tmp_path, capsys):
        paths = [tmp_path / f"run{i}.csv" for i in range(2)]
        for p in paths:
            run(capsys, "verify", "--family", "w", "--alpha2-0", "1.2",
                "--points", "5", "--phase-points", "36", "--output", str(p))
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestFigure9:
    def test_endpoints_on_axes(self, capsys):
        code, out, _ = run(capsys, "figure9", "--family", "ghz",
                           "--points", "5", "--phase-points", "36")
        rows = [tuple(map(float, l.split(",")))
                for l in out.splitlines() if l and not l.startswith(("#", "V"))]
        assert code == 0
        v2, s = rows[0]
        assert abs(v2) < 1e-9 and abs(s - 1.0) < 1e-9
        v2, s = rows[2]  # alpha1 = pi/2
        assert abs(v2 - 1.0) < 1e-6 and abs(s) < 1e-9

    def test_pairs_on_unit_circle(self, capsys):
        code, out, _ = run(capsys, "figure9", "--family", "w",
                           "--alpha2-0", "1.5707963267948966",
                           "--points", "5", "--phase-points", "36")
        rows = [tuple(map(float, l.split(",")))
                for l in out.splitlines() if l and not l.startswith(("#", "V"))]
        for v2, s in rows:
            assert abs(v2 * v2 + s * s - 1.0) < 1e-6


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("phase-points = 16\nmode = locked\n# comment\n")
        code, out, _ = run(capsys, "interfere", "--class", "ghz",
                           "--alpha1", "1.0", "--config", str(cfg))
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert len(rows) == 16 + 1

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("phase-points = 16\n")
        code, out, _ = run(capsys, "interfere", "--class", "ghz",
                           "--alpha1", "1.0", "--config", str(cfg),
                           "--phase-points", "24", "--mode", "locked")
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert len(rows) == 24 + 1

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("warp-speed = 9\n")
        code, _, err = run(capsys, "interfere", "--class", "ghz",
                           "--alpha1", "1.0", "--config", str(cfg))
        assert code == 2

    def test_malformed_line_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        code, _, _ = run(capsys, "interfere", "--class", "ghz",
                         "--alpha1", "1.0", "--config", str(cfg))
        assert code == 2
