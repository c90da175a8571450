import dataclasses
import json
import math
import re
import sys

import numpy as np
import pytest

from qmeaslab import cascade
from qmeaslab.cascade import CascadeModel, run_cascade, unmeasured_it_exists
from qmeaslab.cli import main
from qmeaslab.hilbert import mixture_of
from qmeaslab.scenarios import (ConfigError, SCENARIOS, RunReport, build_config,
                                emit, parse_config, run)

SQ = float(np.sqrt(0.5))


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
        ("scenario: rd-basic\nphotons: [{pattern: [5], c: [1, 0]}]\n",
         r"photons\[0\]\.pattern\[0\]: requires an occupation below cutoff = 3"),
        ("scenario: rd-basic\nbackground: [7]\n", r"background\[0\].*cutoff = 3"),
        ("scenario: rd-basic\nphotons: [{pattern: [0], c: [1, 0]}]\n", "vacuum"),
        ("scenario: rd-basic\nphotons: [{pattern: [1], c: [0.6, 0]}]\n",
         r"sum \|c_j\|\^2 = 1"),
        ("scenario: rd-basic\nphotons: [{pattern: [1], c: [0.7071067811865476, 0]},"
         " {pattern: [1], c: [0.7071067811865476, 90]}]\n", r"photons\[1\].*duplicate"),
        ("scenario: rd-basic\nphotons: [{pattern: [1, 0], c: [1, 0]}]\n",
         "one occupation per mode"),
        ("scenario: rd-basic\ncutoff: 128\n", "dimension cap"),
        ("scenario: rd-basic\nmodes: 12\ncutoff: 2\n"
         "photons: [{pattern: [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], c: [1, 0]}]\n",
         "dimension cap"),
        ("scenario: rd-basic\nmodes: 3\ncutoff: 3\nbackground: [1, 2]\n"
         "photons: [{pattern: [1, 0, 0], c: [1, 0]}]\n", "Glauber family"),
        ("scenario: ch-cascade\na1: [0.7071067811865476, 0]\n"
         "a2: [0.7071067811865476, 60]\n"
         "sweep: {parameter: a2_phase_deg, start: 0, stop: 180, steps: 7}\n",
         "a2_phase_deg = 0.0: a1/a2: the cascade needs two B eigenbranches"),
        ("scenario: growth\noutput: 5\n", "output: expected a path string or null"),
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
        ("scenario: rd-basic\nbackground: [1.5]\n", r"background\[0\]"),
        ("scenario: rd-basic\nbackground: [true]\n", r"background\[0\]"),
        ("scenario: rd-basic\nphotons: [{pattern: [1.5], c: [1, 0]}]\n",
         r"photons\[0\]\.pattern\[0\]"),
        ("scenario: rd-basic\nphotons: [{pattern: [true], c: [1, 0]}]\n",
         r"photons\[0\]\.pattern\[0\]"),
        ("scenario: growth\ntolerance: abc\n", "tolerance"),
        ("scenario: growth\ntolerance: -1\n", "tolerance > 0"),
        ("scenario: growth\nseed: true\n", "seed"),
        ("scenario: growth\nbound: true\n", "bound"),
        ("scenario: growth\nbound: 100\n", r"n_emit\^depth"),
        ("scenario: ch-basic\nsweep: {parameter: theta_deg, start: abc, stop: 1, steps: 2}\n",
         r"sweep\.start"),
        ("scenario: ch-basic\nsweep: {parameter: theta_deg, start: .nan, stop: 1, steps: 2}\n",
         r"sweep\.start"),
        ("scenario: ch-heisenberg\n"
         "sweep: {parameter: j_coupling, start: 0, stop: .inf, steps: 2}\n", r"sweep\.stop"),
        ("scenario: ch-basic\nsweep: {parameter: theta_deg, start: 0, stop: 1, steps: true}\n",
         r"sweep\.steps"),
        ("scenario: ch-basic\nsweep: {parameter: theta_deg, start: 0, stop: 1, steps: 2.7}\n",
         r"sweep\.steps"),
    ])
    def test_numeric_field_types(self, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(text)

    def test_exponent_tolerance_string(self):
        # YAML 1.1 reads 1e-10 (no dot) as a string
        assert parse_config("scenario: growth\ntolerance: 1e-10\n").tolerance == 1e-10

    def test_exponent_sweep_string(self):
        cfg = parse_config(
            "scenario: ch-basic\nsweep: {parameter: theta_deg, start: 1e1, stop: 90, steps: 2}\n")
        assert cfg.sweep.start == 10.0

    @pytest.mark.parametrize("modes, cutoff", [(1, 2), (2, 2), (1, 3)])
    def test_glauber_family_size_formula(self, modes, cutoff):
        # the config-time bound counts the family the run actually stacks
        from qmeaslab.radiation import RadiationModel, glauber_generators
        from qmeaslab.scenarios import _glauber_family_entries
        from qmeaslab.sectors import _closed_family

        model = RadiationModel(modes=modes, cutoff=cutoff,
                               photon_amplitudes=(((1,) + (0,) * (modes - 1), 1.0),))
        glauber = glauber_generators(model)
        family = _closed_family(glauber, model.layout)
        assert family.field.shape == (len(glauber) + family.i.size, cutoff ** modes)
        assert _glauber_family_entries(modes, cutoff) == family.field.size

    def test_widest_admitted_glauber_family(self):
        # the background check's family on 4 modes at cutoff 3 has
        # 25,424 members x 81 field entries, inside the bound
        parse_config("scenario: rd-basic\nmodes: 3\ncutoff: 3\n"
                     "photons: [{pattern: [1, 0, 0], c: [1, 0]}]\n")

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
            k = np.outer(witness.witness.chi1.amplitudes, witness.witness.chi2.amplitudes.conj())
            t = k + k.conj().T
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

    @pytest.mark.parametrize("chains, mag", [
        ((1, 1), None), ((3, 2), None), ((2, 2, 1, 1, 1), None),
        # |a1| = |a2|: rows left with one branch by stage 2 (0 and 180
        # degrees) and by stage 3 (90 degrees) share blocks with the others
        ((1, 1, 1, 1), SQ)], ids=["1-1", "3-2", "2-2-1-1-1", "1-1-1-1-equal"])
    def test_ch_cascade_scan_matches_per_point_runs(self, chains, mag):
        text = f"scenario: ch-cascade\nchains: {list(chains)}\nphase_scan_points: 181\n"
        mag1, mag2 = np.sqrt(0.7), np.sqrt(0.3)
        if mag is not None:
            text += f"a1: [{mag!r}, 0]\na2: [{mag!r}, 60]\n"
            mag1 = mag2 = mag
        report = run(parse_config(text))
        scan = report.extras["phase_scan"]
        degs = [row["a2_phase_deg"] for row in scan]
        assert degs == [float(d) for d in np.linspace(0.0, 180.0, 181)]
        per_point = [run_cascade(CascadeModel(
            chains, mag1, mag2 * np.exp(1j * np.radians(d)))).terminal_deviation()
            for d in degs]
        for row, dev in zip(scan, per_point):
            assert abs(row["terminal_deviation"] - dev) <= 1e-14
        assert report.extras["excluded_phases_deg"] == [
            d for d, dev in zip(degs, per_point) if dev <= report.tolerance]
        assert not report.failed_required()

    @pytest.mark.parametrize("points, degs", [(0, []), (1, [0.0])])
    def test_ch_cascade_scan_edge_sizes(self, points, degs):
        # the one point of a one-point scan is 0 degrees: real amplitudes,
        # an excluded phase
        report = run(parse_config(f"scenario: ch-cascade\nphase_scan_points: {points}\n"))
        scan = report.extras["phase_scan"]
        assert [row["a2_phase_deg"] for row in scan] == degs
        assert report.extras["excluded_phases_deg"] == degs
        for row in scan:
            model = CascadeModel((1, 1), np.sqrt(0.7), np.sqrt(0.3))
            assert row["terminal_deviation"] == run_cascade(model).terminal_deviation()
        assert not report.failed_required()

    @pytest.mark.parametrize("chains", [(2, 2, 1), (2, 2, 1, 1, 1)], ids=["m3", "m5"])
    def test_ch_cascade_scan_masks_single_branch_rows(self, chains):
        # |a1| = |a2|: at 0 and 180 degrees a1 = +-a2, so stage 2 leaves one
        # branch (with five chains, 90 degrees is left with one at stage 4);
        # those rows are masked through the later stages in one block with
        # the others and read exactly 0.0
        report = run(parse_config(
            f"scenario: ch-cascade\nchains: {list(chains)}\n"
            f"a1: [{SQ!r}, 0]\na2: [{SQ!r}, 60]\nphase_scan_points: 5\n"))
        assert not report.failed_required()
        scan = {row["a2_phase_deg"]: row["terminal_deviation"]
                for row in report.extras["phase_scan"]}
        assert list(scan) == [0.0, 45.0, 90.0, 135.0, 180.0]
        for deg, dev in scan.items():
            a2 = SQ * np.exp(1j * np.radians(deg))
            per_point = run_cascade(CascadeModel(chains, SQ, a2))
            if deg in (0.0, 180.0):
                assert len(per_point.stages) == 2
            if len(per_point.final.branches.branches) == 1:
                assert dev == 0.0
            assert abs(dev - per_point.terminal_deviation()) <= 1e-14
        # three chains see every point off 0 and 180; with five, equal
        # magnitudes leave the terminal witness blind at every phase
        seen = [deg for deg, dev in scan.items() if dev > report.tolerance]
        assert seen == ([45.0, 90.0, 135.0] if len(chains) == 3 else [])
        assert report.extras["excluded_phases_deg"] == [d for d in scan if d not in seen]

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

    def test_report_dict_lists_every_field(self):
        report = run(parse_config("scenario: ch-heisenberg\n"))
        fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}

        @dataclasses.dataclass(frozen=True)
        class Extended(RunReport):
            note: str = ""

        data = Extended(**fields, note="kept").as_dict()
        assert set(data) == set(fields) | {"note"} and data["note"] == "kept"
        assert data["invariants"] == [
            {"name": r.name, "residual": r.residual, "threshold": r.threshold,
             "passed": r.passed, "required": r.required} for r in report.invariants]
        assert data["verdicts"] == list(report.verdicts)

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

    def test_sweep_columns_cover_every_point(self):
        # only the 90 degree point reports b_mixed: it still gets a column,
        # and the points without it get empty CSV cells
        cfg = parse_config(
            "scenario: ch-basic\nn_atoms: 2\nformat: csv\n"
            "sweep: {parameter: theta_deg, start: 0, stop: 90, steps: 3}\n")
        report = run(cfg)
        lines = emit(report, "csv").decode().splitlines()
        header = lines[0].split(",")
        assert header == report.sweep["columns"]
        assert "b_mixed" in header
        cells = [line.split(",")[header.index("b_mixed")] for line in lines[1:]]
        assert cells == ["", "", repr(report.sweep["rows"][2]["b_mixed"])]

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

    @pytest.mark.parametrize("args, match", [
        (["--config", "{tmp}/missing.yaml"], "cannot read config file"),
        (["--config", "{tmp}"], "cannot read config file"),
        (["--config", "{tmp}/bad.yaml"], "bad.yaml' is not valid YAML"),
        (["--scenario", "growth", "--set", "depth=["], "--set 'depth=\\[' is not valid YAML"),
    ])
    def test_unreadable_config_exit_code(self, tmp_path, capsys, args, match):
        (tmp_path / "bad.yaml").write_text("scenario: growth\ndepth: [\n")
        code = main([a.format(tmp=tmp_path) for a in args])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and re.search(match, err)

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


@pytest.mark.parametrize("text", [
    *(f"scenario: ch-basic\nn_atoms: {n}\nobservable_preset: {preset}\nfuzz_cases: 1\n"
      for n in range(1, 6)
      for preset in ("all_strings", "sector_preserving", "pointer_only", "with_B")),
    "scenario: ch-basic\nn_atoms: 11\nobservable_preset: with_B\nfuzz_cases: 1\n",
    "scenario: ch-cascade",
    "scenario: rd-basic",
    "scenario: rd-basic\nobservable_preset: with_vacuum_connector\n",
])
def test_scenarios_take_no_dense_pauli_norm(monkeypatch, text):
    # every scenario family is {I,Z} sums, one-term strings, factored
    # observables and dense arrays: no Pauli norm needs a dense realization
    import qmeaslab.pauli as pauli_module

    def refuse(*args, **kwargs):
        raise AssertionError("a scenario run took a dense Pauli-sum norm")

    monkeypatch.setattr(pauli_module, "sum_matrix", refuse)
    assert not run(parse_config(text)).failed_required()


def test_ch_cascade_report_runs_one_cascade(monkeypatch):
    # the phase scan is one batched run, not a cascade run per point
    calls = []
    original = cascade.run_cascade

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cascade, "run_cascade", counting)
    report = run(parse_config(
        "scenario: ch-cascade\nchains: [2, 2, 1, 1, 1]\nphase_scan_points: 181\n"))
    assert len(report.extras["phase_scan"]) == 181
    assert not report.failed_required()
    assert len(calls) == 1


_TWO_MODES = ("scenario: rd-basic\nmodes: 2\ncutoff: 3\nphotons:\n"
              "- {pattern: [1, 0], c: [0.7071067811865476, 0]}\n"
              "- {pattern: [0, 1], c: [0.7071067811865476, 0]}\n")


@pytest.mark.parametrize("text", [
    # below the floor float rounding alone fails a self-check inside run
    "scenario: ch-basic\ntolerance: 1.0e-16\n",
    "scenario: ch-cascade\ntolerance: 1.0e-16\n",
    "scenario: rd-basic\ntolerance: 1.0e-16\n",
    "scenario: ch-cascade\nchains: [2, 2, 1, 1, 1]\ntolerance: 1.0e-15\n",
    "scenario: ch-cascade\nchains: [3, 3, 3, 4]\ntolerance: 1.0e-15\n",
    # at or above max(|a1|, |a2|) every branch is dropped
    "scenario: ch-basic\ntolerance: 0.71\n",
    "scenario: rd-basic\ntolerance: 0.9\n",
])
def test_tolerance_that_would_crash_run_is_refused(text):
    with pytest.raises(ConfigError, match="tolerance"):
        parse_config(text)


@pytest.mark.parametrize("a1, a2", [
    ("[0.0, 0]", "[1.0, 0]"), ("[1.0, 0]", "[0.0, 0]"), ("[1.0, 0]", "[1.0e-13, 30]"),
])
def test_one_branch_radiation_state_is_refused(a1, a2):
    # one branch leaves no superposition for the vacuum connector to discriminate
    with pytest.raises(ConfigError, match=r"a1/a2: rd-basic needs two branches"):
        parse_config(f"scenario: rd-basic\na1: {a1}\na2: {a2}\n")


@pytest.mark.parametrize("text", [
    *(f"scenario: {s}\n" for s in SCENARIOS),
    "scenario: ch-cascade\nchains: [2, 2, 1, 1, 1]\n",
    "scenario: ch-cascade\nchains: [3, 3, 3, 4]\nphase_scan_points: 5\n",
    _TWO_MODES,
])
def test_floor_tolerance_runs(text):
    report = run(parse_config(text + "tolerance: 1.0e-14\n"))
    assert not report.failed_required()


def _heisenberg(n, j, tol):
    # YAML 1.1 reads a float only with a dot in its mantissa
    j = repr(float(j)) if "." in repr(float(j)) else repr(float(j)).replace("e", ".0e")
    return f"scenario: ch-heisenberg\nn_atoms: {n}\nj_coupling: {j}\ntolerance: {tol!r}\n"


@pytest.mark.parametrize("text", [
    _heisenberg(n=8, j=1.0e-300, tol=1e-12),
    _heisenberg(n=8, j=-1.0e-300, tol=1e-12),
    _heisenberg(n=3, j=5.0e-13, tol=1e-12),  # 2|J| == tolerance
    "scenario: ch-heisenberg\nsweep: {parameter: j_coupling, start: 0, stop: 4.0e-13, "
    "steps: 2}\n",
])
def test_vanishing_coupling_is_refused(text):
    # the single flip's residual is exactly 2|J|; at or below the tolerance
    # the required single_flip_not_eigenstate fails
    with pytest.raises(ConfigError, match=r"j_coupling: requires 2\|J\| > tolerance"):
        parse_config(text)


@pytest.mark.parametrize("j", [math.nextafter(5.0e-13, 1.0), -math.nextafter(5.0e-13, 1.0),
                               0.0])
def test_coupling_just_above_the_tolerance_runs(j):
    report = run(parse_config(_heisenberg(n=8, j=j, tol=1e-12)))
    assert not report.failed_required()


def _eigenvalue_floor(n, j):
    """(N - 2)/2 ulp(|J| (N - 1)(1 + N eps)), as docs/config-grammar.md states it."""
    return (n - 2) / 2 * math.ulp(abs(j) * (n - 1) * (1.0 + n * np.finfo(float).eps))


def test_tolerance_below_the_eigenvalue_resolution_is_refused():
    # the ground eigenvalue 7 J is 1727.0 +- one ulp (2.3e-13) at J = 246.7
    with pytest.raises(ConfigError, match="tolerance: ch-heisenberg"):
        parse_config(_heisenberg(n=8, j=246.7, tol=1.0e-14))


@pytest.mark.parametrize("j", [1.0e-3, 0.37, 3.3, 246.7, -777.7, 1.0e4])
def test_heisenberg_runs_at_the_eigenvalue_floor(j):
    for n in range(2, 15):
        tol = max(1.0e-14, _eigenvalue_floor(n, j))
        report = run(parse_config(_heisenberg(n=n, j=j, tol=tol)))
        assert not report.failed_required(), (n, j)
        if tol > 1.0e-14:
            with pytest.raises(ConfigError, match="tolerance: ch-heisenberg"):
                parse_config(_heisenberg(n=n, j=j, tol=math.nextafter(tol, 0.0)))


# 2|J| at sqrt(float max): the largest coupling whose residual norm is finite
_J_OVERFLOW_BOUND = math.sqrt(sys.float_info.max) / 2


@pytest.mark.parametrize("text", [
    _heisenberg(n=8, j=1.0e200, tol=1.0e190),
    _heisenberg(n=8, j=7.0e153, tol=1.0e140),
    _heisenberg(n=8, j=-math.nextafter(_J_OVERFLOW_BOUND, math.inf), tol=1.0e140),
    "scenario: ch-heisenberg\nj_coupling: 1.0e+153\ntolerance: 1.0e+140\n"
    "sweep: {parameter: j_coupling, start: 1.0e+153, stop: 1.0e+154, steps: 2}\n",
])
def test_coupling_whose_residual_overflows_is_refused(text):
    with pytest.raises(ConfigError, match=r"j_coupling: requires 2\|J\| <= sqrt\(float max\)"):
        parse_config(text)


def test_overflowing_coupling_exits_as_a_config_error(capsys):
    assert main(["--scenario", "ch-heisenberg", "--set", "j_coupling=1.0e+200",
                 "--set", "tolerance=1.0e+190"]) == 2
    assert "j_coupling" in capsys.readouterr().err


@pytest.mark.parametrize("n", [2, 8, 14])
@pytest.mark.parametrize("j", [_J_OVERFLOW_BOUND, -_J_OVERFLOW_BOUND])
def test_coupling_at_the_overflow_bound_runs(n, j):
    tol = 1.0e140
    assert tol > _eigenvalue_floor(n, j)
    report = run(parse_config(_heisenberg(n=n, j=j, tol=tol)))
    assert not report.failed_required()
    assert report.expectations["single_flip_residual"] == 2 * abs(j)
    assert all(math.isfinite(v) for v in json.loads(emit(report))["expectations"].values())


def _growth(depth):
    return f"scenario: growth\nn_emit: 10\ndepth: {depth}\nbound: {10 ** 401}\n"


def test_growth_count_past_float_range_is_refused():
    with pytest.raises(ConfigError, match="depth/bound: .* float max"):
        parse_config(_growth(400))
    with pytest.raises(ConfigError, match="depth/bound"):
        parse_config(_growth(309))


@pytest.mark.parametrize("depth", [300, 308])
def test_growth_count_within_float_range_runs(depth):
    report = run(parse_config(_growth(depth)))
    assert not report.failed_required()
    assert report.expectations["final_count"] == float(10 ** depth)
    assert json.loads(emit(report))["extras"]["counts_by_generation"][-1] == 10 ** depth


def test_readme_minimal_config_runs():
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("A minimal config:", 1)[1]
    text = re.search(r"```yaml\n(.*?)```", block, re.S).group(1)
    cfg = parse_config(text)
    report = run(cfg)
    assert not report.failed_required()
    assert emit(report, cfg.fmt).startswith(b"a2_phase_deg,")


def test_no_spectral_norm_of_a_zero_member(monkeypatch):
    # most products of the vacuum connector vanish exactly on two modes;
    # op_sup_norm takes no SVD of them
    from qmeaslab import radiation, sectors

    model = radiation.RadiationModel(modes=2, photon_amplitudes=(
        ((1, 0), SQ), ((0, 1), SQ)))
    family = sectors._closed_family(radiation.with_vacuum_connector(model), model.layout)
    assert sum(not np.any(op) for op in family.other.values()) > 0
    norm, nonzero = np.linalg.norm, []

    def spy(x, ord=None, *args, **kwargs):
        if ord == 2:
            nonzero.append(bool(np.any(x)))
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", spy)
    assert not run(parse_config(_TWO_MODES)).failed_required()
    assert nonzero and all(nonzero)
