import json

import numpy as np
import pytest

from qmeaslab.cascade import CascadeModel, run_cascade, unmeasured_it_exists
from qmeaslab.cli import main
from qmeaslab.hilbert import mixture_of
from qmeaslab.scenarios import (ConfigError, SCENARIOS, build_config, emit,
                                parse_config, run)


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config("scenario: ch-basic")
        assert cfg.scenario == "ch-basic"
        assert cfg.params["n_atoms"] == 4
        assert cfg.params["a1"] == [pytest.approx(np.sqrt(0.5)), 0.0]
        assert cfg.params["a2"] == [pytest.approx(np.sqrt(0.5)), 0.0]
        assert cfg.tolerance == 1e-12
        assert cfg.fmt == "json"

    def test_sweep_block(self):
        cfg = parse_config(
            "scenario: ch-basic\n"
            "sweep: {parameter: a2_phase_deg, start: 0, stop: 180, steps: 19}\n")
        assert cfg.sweep.steps == 19
        assert len(cfg.sweep.values()) == 19
        report = run(cfg)
        assert len(report.sweep["rows"]) == 19

    def test_precondition_error_names_constraint(self):
        with pytest.raises(ConfigError, match="n_atoms >= 1"):
            parse_config("scenario: ch-basic\nn_atoms: 0\n")

    def test_unknown_key_reported_with_path(self):
        with pytest.raises(ConfigError, match="n_atmos"):
            parse_config("scenario: ch-basic\nn_atmos: 3\n")

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            parse_config("scenario: nope")

    def test_missing_scenario(self):
        with pytest.raises(ConfigError, match="scenario"):
            parse_config("n_atoms: 3")

    def test_amplitude_pair_shape(self):
        with pytest.raises(ConfigError, match="magnitude, phase"):
            parse_config("scenario: ch-basic\na1: 0.7\n")

    def test_normalization_enforced(self):
        with pytest.raises(ConfigError, match=r"\|a1\|\^2"):
            parse_config("scenario: ch-basic\na1: [1.0, 0]\na2: [1.0, 0]\n")

    def test_magnitude_sweep_rejected(self):
        with pytest.raises(ConfigError, match="not sweepable"):
            parse_config(
                "scenario: ch-basic\n"
                "sweep: {parameter: n_atoms, start: 1, stop: 4, steps: 4}\n")

    @pytest.mark.parametrize("text, match", [
        ("scenario: ch-cascade\nphase_scan_points: -1\n", "phase_scan_points"),
        ("scenario: ch-cascade\nphase_scan_points: 2.5\n", "phase_scan_points"),
        ("scenario: ch-cascade\nphase_scan_points: true\n", "phase_scan_points"),
        ("scenario: ch-cascade\nchains: [5, 5, 5]\n", "dimension cap"),
        ("scenario: ch-basic\nobservable_preset: bogus\n", "observable_preset"),
        ("scenario: ch-basic\nn_atoms: 6\n", r"n_atoms \+ 1 <= 6"),
        ("scenario: ch-basic\nn_atoms: 14\nobservable_preset: pointer_only\n",
         "dimension cap"),
        ("scenario: rd-basic\nobservable_preset: bogus\n", "observable_preset"),
    ])
    def test_config_time_preconditions(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(text)

    @pytest.mark.parametrize("text, match", [
        ("scenario: ch-basic\nn_atoms: true\n", "n_atoms"),
        ("scenario: ch-heisenberg\nn_atoms: 3.0\n", "n_atoms"),
        ("scenario: ch-basic\ntheta_deg: abc\n", "theta_deg"),
        ("scenario: ch-basic\ntheta_deg: .nan\n", "theta_deg"),
        ("scenario: ch-basic\nfuzz_cases: '3'\n", "fuzz_cases"),
        ("scenario: ch-basic\nfuzz_cases: -1\n", "fuzz_cases"),
        ("scenario: ch-heisenberg\nj_coupling: true\n", "j_coupling"),
        ("scenario: ch-cascade\nchains: [1, true]\n", r"chains\[1\]"),
        ("scenario: ch-cascade\nchains: [1, 0]\n", r"chains\[1\]"),
        ("scenario: ch-cascade\nchains: 3\n", "chains"),
        ("scenario: rd-basic\nmodes: true\n", "modes"),
        ("scenario: rd-basic\nmodes: x\n", "modes"),
        ("scenario: rd-basic\ncutoff: 2.5\n", "cutoff"),
        ("scenario: rd-basic\nsystem_factor_cases: 2.5\n", "system_factor_cases"),
        ("scenario: growth\nn_emit: true\n", "n_emit"),
        ("scenario: growth\nn_emit: 1\n", "n_emit"),
        ("scenario: growth\ndepth: true\n", "depth"),
    ])
    def test_numeric_field_types(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(text)

    def test_single_b_branch_rejected_at_config_time(self):
        # a1 = a2: the state after stage 1 is a B eigenstate, so recording B
        # leaves one branch and no joint IT operator
        with pytest.raises(ConfigError, match="two B eigenbranches"):
            parse_config("scenario: ch-cascade\nchains: [1, 1]\n"
                         "a1: [0.7071067811865476, 0]\n"
                         "a2: [0.7071067811865476, 0]\n")

    def test_single_branch_at_a_later_stage_rejected(self):
        # |a1| = |a2| at 90 degrees: two equal B branches whose joint IT
        # operator has the stage-2 state as an eigenvector
        text = ("scenario: ch-cascade\nchains: [1, 1, 1]\n"
                "a1: [0.7071067811865476, 0]\na2: [0.7071067811865476, 90]\n")
        with pytest.raises(ConfigError, match="stage 3"):
            run(parse_config(text))

    def test_bad_yaml(self):
        with pytest.raises(ConfigError, match="YAML"):
            parse_config("scenario: [unclosed")


class TestRunReports:
    def test_ch_basic_report_contents(self):
        report = run(parse_config("scenario: ch-basic"))
        for key in ("mu_z", "b_pure", "b_mixed", "strict_delta",
                    "eq5_constant_re", "b_half_cross_ratio"):
            assert key in report.expectations
        assert report.expectations["b_mixed"] == 0.0
        assert abs(report.expectations["eq5_constant_re"] - (-2.0)) < 1e-12
        names = [i.name for i in report.invariants]
        assert len(names) == len(set(names))
        assert not report.failed_required()
        sets = [v["set"] for v in report.verdicts]
        assert any("sector-preserving" in s for s in sets)
        assert "with_B" in sets

    def test_rd_basic_report_contents(self):
        report = run(parse_config("scenario: rd-basic"))
        assert report.expectations["c2_max_residual"] == 0.0
        verdicts = {v["set"]: v for v in report.verdicts}
        assert not verdicts["glauber"]["distinguishable"]
        assert verdicts["glauber+vacuum_connector"]["distinguishable"]
        assert not report.failed_required()

    def test_ch_cascade_report_contents(self):
        report = run(parse_config("scenario: ch-cascade"))
        assert abs(report.expectations["mu_after"]) <= 1e-12
        assert abs(report.expectations["b_prime_after"]
                   - report.expectations["b_before"]) <= 1e-12
        assert report.extras["terminal_support"] == ["S0", "C1A1", "C2A1"]
        assert 0.0 in report.extras["excluded_phases_deg"]
        assert not report.failed_required()

    def test_ch_cascade_phase_scan_m5(self):
        # each scan point's deviation matches the public witness and the
        # dense oracle built from the witness matrix and the branch mixture
        report = run(parse_config(
            "scenario: ch-cascade\nchains: [2, 2, 1, 1, 1]\nphase_scan_points: 3\n"))
        scan = report.extras["phase_scan"]
        assert [row["a2_phase_deg"] for row in scan] == [0.0, 90.0, 180.0]
        for row in scan:
            phase = np.exp(1j * np.radians(row["a2_phase_deg"]))
            model = CascadeModel((2, 2, 1, 1, 1), np.sqrt(0.7), np.sqrt(0.3) * phase)
            witness = unmeasured_it_exists(model)
            assert abs(row["terminal_deviation"] - witness.deviation) <= 1e-12
            final = run_cascade(model).final
            t = witness.witness.to_matrix(dense_cap=model.layout.dim)
            pure = final.state.amplitudes
            rho = mixture_of(final.branches).matrix
            dense_dev = abs(np.vdot(pure, t @ pure).real - np.trace(rho @ t).real)
            assert abs(row["terminal_deviation"] - dense_dev) <= 1e-12

    def test_ch_cascade_scan_through_single_branch_point(self):
        # at the scan's 0 degree point a1 = a2, so the B split leaves one
        # branch: no interference term, deviation 0, an excluded phase
        report = run(parse_config(
            "scenario: ch-cascade\na1: [0.7071067811865476, 0]\n"
            "a2: [0.7071067811865476, 60]\n"))
        assert not report.failed_required()
        scan = report.extras["phase_scan"]
        assert scan[0] == {"a2_phase_deg": 0.0, "terminal_deviation": 0.0}
        assert scan[-1]["terminal_deviation"] <= 1e-12
        assert report.extras["excluded_phases_deg"][0] == 0.0
        assert all(row["terminal_deviation"] > 1e-12 for row in scan[1:-1])

    def test_growth_report(self):
        report = run(parse_config("scenario: growth\nn_emit: 3\ndepth: 4\n"))
        assert report.extras["counts_by_generation"][-1] == 81
        assert not report.failed_required()

    def test_heisenberg_report(self):
        report = run(parse_config("scenario: ch-heisenberg\nn_atoms: 5\n"))
        assert abs(report.expectations["lambda_ground"] - 4.0) <= 1e-12
        assert not report.failed_required()


class TestEmission:
    def test_json_deterministic_modulo_walltime(self):
        cfg = parse_config("scenario: rd-basic\nseed: 11\n")
        d1 = json.loads(emit(run(cfg), "json"))
        d2 = json.loads(emit(run(cfg), "json"))
        d1.pop("wall_time_s")
        d2.pop("wall_time_s")
        b1 = json.dumps(d1, indent=2, sort_keys=True).encode()
        b2 = json.dumps(d2, indent=2, sort_keys=True).encode()
        assert b1 == b2

    def test_csv_sweep_stable_columns(self):
        cfg = parse_config(
            "scenario: ch-basic\nformat: csv\n"
            "sweep: {parameter: a2_phase_deg, start: 0, stop: 180, steps: 5}\n")
        rows1 = emit(run(cfg), "csv").decode().splitlines()
        rows2 = emit(run(cfg), "csv").decode().splitlines()
        assert rows1 == rows2
        header = rows1[0].split(",")
        assert header[0] == "a2_phase_deg"
        assert "b_pure" in header
        assert len(rows1) == 6  # header + 5 points

    def test_csv_single_run(self):
        cfg = parse_config("scenario: growth\nformat: csv\n")
        lines = emit(run(cfg), "csv").decode().splitlines()
        assert lines[0] == "name,value"

    def test_schema_version_present(self):
        data = json.loads(emit(run(parse_config("scenario: growth")), "json"))
        assert data["schema_version"] == "1"


class TestCli:
    def test_list_scenarios(self, capsys):
        assert main(["--list-scenarios"]) == 0
        out = capsys.readouterr().out.split()
        assert out == list(SCENARIOS)

    def test_run_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["--scenario", "growth", "--output", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["scenario"] == "growth"

    def test_config_file_and_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("scenario: ch-basic\nn_atoms: 2\n")
        code = main(["--config", str(cfg), "--set", "fuzz_cases=5",
                     "--output", str(tmp_path / "r.json")])
        assert code == 0
        data = json.loads((tmp_path / "r.json").read_text())
        assert data["parameters"]["n_atoms"] == 2
        assert data["parameters"]["fuzz_cases"] == 5

    def test_sweep_flag(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["--scenario", "ch-basic", "--format", "csv",
                     "--sweep", "a2_phase_deg=0:90:4", "--output", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 5

    def test_config_error_exit_code(self, capsys):
        assert main(["--scenario", "ch-basic", "--set", "n_atoms=0"]) == 2
        assert "n_atoms" in capsys.readouterr().err

    def test_seed_and_tolerance_flags(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["--scenario", "growth", "--seed", "3",
                     "--tolerance", "1e-10", "--output", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["seed"] == 3
        assert data["tolerance"] == 1e-10


def test_build_config_rejects_non_mapping():
    with pytest.raises(ConfigError, match="mapping"):
        build_config(["scenario"])
