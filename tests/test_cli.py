import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from _builders import (
    blaschke_system,
    counterexample_observable_system,
    half_shift_system,
    inverse_blaschke_system,
    roots_of_unity_system,
    row_schur_left_system,
    spy,
)
from pontsys import cli
from pontsys.cli import load_system, main, save_system, system_to_json
from pontsys.colligation import krylov_report, markov
from pontsys.indefinite import DEFAULT_TOL
from pontsys.products import cascade


def run_cli(tmp_path, *argv):
    code = main(["--out", str(tmp_path), *argv])
    report_path = tmp_path / f"{argv[0]}.report.json"
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    return code, report


def write_system(tmp_path, system, name="system.json"):
    path = tmp_path / name
    save_system(system, path)
    return str(path)


class TestSystemFile:
    def test_round_trip_is_exact(self, tmp_path):
        # the file format stores the canonical state order, so compare
        # against the canonical rewrite of the mixed-sign cascade
        from pontsys.colligation import to_canonical
        sys1 = to_canonical(counterexample_observable_system())
        path = tmp_path / "ce.json"
        save_system(sys1, path, name="ce")
        back, meta = load_system(path)
        assert meta["name"] == "ce"
        assert np.array_equal(back.A, sys1.A)
        assert np.array_equal(back.B, sys1.B)
        assert np.array_equal(back.C, sys1.C)
        assert np.array_equal(back.D, sys1.D)
        assert (back.state.pos, back.state.neg) == (sys1.state.pos,
                                                    sys1.state.neg)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        mats = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        from pontsys.colligation import Colligation
        from pontsys.indefinite import SignatureSpace
        sys1 = Colligation(SignatureSpace(1, 1), 2, 2, mats,
                           rng.standard_normal((2, 2)),
                           rng.standard_normal((2, 2)),
                           rng.standard_normal((2, 2)))
        p1 = tmp_path / "a.json"
        save_system(sys1, p1)
        back, _ = load_system(p1)
        p2 = tmp_path / "b.json"
        save_system(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        code, _ = run_cli(tmp_path, "classify", str(path))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "line" in err["reason"]

    def test_missing_field_names_the_field(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        doc = system_to_json(blaschke_system(0.5))
        del doc["C"]
        path.write_text(json.dumps(doc))
        code, _ = run_cli(tmp_path, "classify", str(path))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "C" in err["reason"]

    def test_bad_entry_names_the_position(self, tmp_path, capsys):
        path = tmp_path / "entry.json"
        doc = system_to_json(blaschke_system(0.5))
        doc["A"][0][0] = [1.0]
        path.write_text(json.dumps(doc))
        code, _ = run_cli(tmp_path, "classify", str(path))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "A[0][0]" in err["reason"]

    def test_missing_file_exits_two(self, tmp_path):
        code, _ = run_cli(tmp_path, "classify", str(tmp_path / "nope.json"))
        assert code == 2


class TestClassify:
    def test_blaschke_is_conservative_minimal(self, tmp_path):
        path = write_system(tmp_path, blaschke_system(0.5))
        code, report = run_cli(tmp_path, "classify", path)
        assert code == 0
        assert report["verdicts"]["kind"] == "conservative"
        assert report["verdicts"]["minimal"]
        assert report["verdicts"]["index_preserving"]
        assert report["certificates"]["kappa"] == 0
        assert report["tolerances"]["seed"] == 0

    def test_zero_feedthrough_is_passive_only(self, tmp_path):
        path = write_system(tmp_path, half_shift_system())
        code, report = run_cli(tmp_path, "classify", path)
        assert code == 0
        assert report["verdicts"]["kind"] == "passive"
        assert report["verdicts"]["passive"]

    def test_seed_flag_lands_in_report(self, tmp_path):
        path = write_system(tmp_path, blaschke_system(0.5))
        code, report = run_cli(tmp_path, "classify", path, "--seed", "7")
        assert code == 0
        assert report["tolerances"]["seed"] == 7
        assert report["parameters"]["seed"] == 7

    def test_input_hash_present(self, tmp_path):
        path = write_system(tmp_path, blaschke_system(0.5))
        code, report = run_cli(tmp_path, "classify", path)
        assert code == 0
        assert len(report["inputs"]["system"]["sha256"]) == 64

    def test_one_krylov_report(self, tmp_path, monkeypatch):
        path = write_system(tmp_path, counterexample_observable_system())
        calls = spy(monkeypatch, krylov_report)
        code, report = run_cli(tmp_path, "classify", path)
        assert code == 0
        assert report["verdicts"]["observable"]
        assert len(calls) == 1


class TestFactorKL:
    def test_right_mode_emits_factors(self, tmp_path):
        sys1 = cascade(inverse_blaschke_system(0.5), blaschke_system(0.3))
        path = write_system(tmp_path, sys1)
        code, report = run_cli(tmp_path, "factor-kl", path, "--mode", "right")
        assert code == 0
        assert report["verdicts"]["kappa"] == 1
        assert report["residuals"]["cascade_reconstruction"] <= 1e-8
        schur, _ = load_system(tmp_path / "factor_schur.json")
        invb, _ = load_system(tmp_path / "factor_inverse_blaschke.json")
        assert schur.state.neg == 0
        assert (invb.state.pos, invb.state.neg) == (0, 1)

    def test_left_mode_on_strict_contraction_exits_two(self, tmp_path):
        path = write_system(tmp_path, half_shift_system())
        code, _ = run_cli(tmp_path, "factor-kl", path, "--mode", "left")
        assert code == 2


class TestProduct:
    def test_counterexample_obstruction(self, tmp_path):
        first = write_system(tmp_path, row_schur_left_system(), "row.json")
        second = write_system(tmp_path, inverse_blaschke_system(0.5),
                              "invb.json")
        code, report = run_cli(tmp_path, "product", first, second,
                               "--check", "obs")
        assert code == 0
        assert report["verdicts"]["observability_obstruction_dimension"] >= 1
        assert not report["verdicts"]["product_observable"]
        assert report["residuals"]["observability_oracle_agreement"] <= 1e-8
        assert (tmp_path / "product_cascade.json").exists()

    def test_clean_pair_is_simple(self, tmp_path):
        first = write_system(tmp_path, blaschke_system(1.0 / 3.0), "a.json")
        second = write_system(tmp_path, blaschke_system(0.5), "b.json")
        code, report = run_cli(tmp_path, "product", first, second,
                               "--check", "simple")
        assert code == 0
        assert report["verdicts"]["product_observable"]
        assert report["verdicts"]["product_controllable"]
        assert report["verdicts"]["simplicity_obstruction_dimension"] == 0
        assert report["verdicts"]["product_simple"]

    def test_dimension_mismatch_exits_two(self, tmp_path):
        first = write_system(tmp_path, counterexample_observable_system(),
                             "wide.json")
        second = write_system(tmp_path, counterexample_observable_system(),
                              "wide2.json")
        code, _ = run_cli(tmp_path, "product", first, second)
        assert code == 2


class TestNegsq:
    def test_degree_two_inverse_blaschke(self, tmp_path):
        sys1 = cascade(inverse_blaschke_system(0.5),
                       inverse_blaschke_system(-0.4))
        path = write_system(tmp_path, sys1)
        code, report = run_cli(tmp_path, "negsq", path)
        assert code == 0
        assert report["verdicts"]["estimate"] == 2
        assert report["verdicts"]["pole_count_agrees"]
        assert report["certificates"]["disc_pole_count"] == 2
        assert report["certificates"]["sample_inertia"]["minus"] == 2

    def test_schur_function_estimate_zero(self, tmp_path):
        path = write_system(tmp_path, blaschke_system(0.5))
        code, report = run_cli(tmp_path, "negsq", path)
        assert code == 0
        assert report["verdicts"]["estimate"] == 0
        assert report["verdicts"]["stable"]


class TestJuliaEmbed:
    def test_passive_file_embeds_conservative(self, tmp_path):
        path = write_system(tmp_path, half_shift_system())
        code, report = run_cli(tmp_path, "julia-embed", path)
        assert code == 0
        assert report["verdicts"]["conservative"]
        assert report["verdicts"]["corner_matches"]
        assert report["residuals"]["corner_transfer"] <= 1e-9
        emb, meta = load_system(tmp_path / "julia_embedding.json")
        assert emb.input_dim > 1 and emb.output_dim > 1

    def test_non_passive_exits_two(self, tmp_path):
        from pontsys.colligation import Colligation
        from pontsys.indefinite import SignatureSpace
        loud = Colligation(SignatureSpace(1, 0), 1, 1, [[0.0]], [[1.0]],
                           [[1.0]], [[2.0]])
        path = write_system(tmp_path, loud)
        code, _ = run_cli(tmp_path, "julia-embed", path)
        assert code == 2


class TestDefect:
    def test_half_shift_csv_and_phi(self, tmp_path):
        path = write_system(tmp_path, half_shift_system())
        code, report = run_cli(tmp_path, "defect", path)
        assert code == 0
        assert not report["verdicts"]["phi_is_zero"]
        assert report["verdicts"]["contractive"]
        phi_num = report["certificates"]["phi"]["numerator"]
        assert abs(phi_num[0][0] - math.sqrt(3.0) / 2.0) < 1e-9
        lines = (tmp_path / "boundary.csv").read_text().strip().splitlines()
        assert lines[0] == "theta,sigma_max,defect_right_norm,defect_left_norm"
        assert len(lines) == 1 + 256
        first = lines[1].split(",")
        assert abs(float(first[1]) - 0.5) < 1e-9
        assert abs(float(first[2]) - 0.75) < 1e-9

    def test_samples_flag_controls_row_count(self, tmp_path):
        path = write_system(tmp_path, blaschke_system(0.5))
        code, report = run_cli(tmp_path, "defect", path, "--samples", "32")
        assert code == 0
        assert report["verdicts"]["bi_inner"]
        lines = (tmp_path / "boundary.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 32

    def test_no_outputs_is_not_inner(self, tmp_path):
        from pontsys.colligation import Colligation
        from pontsys.indefinite import SignatureSpace

        silent = Colligation(SignatureSpace(1, 0), 1, 0, [[0.5]], [[1.0]],
                             np.zeros((0, 1)), np.zeros((0, 1)))
        path = write_system(tmp_path, silent)
        code, report = run_cli(tmp_path, "defect", path)
        assert code == 0
        verdicts = report["verdicts"]
        assert not verdicts["phi_is_zero"] and not verdicts["inner"]
        assert verdicts["psi_is_zero"] and verdicts["co_inner"]
        assert not verdicts["bi_inner"]

    def test_all_samples_pole_proximal_is_refused(self, tmp_path, capsys):
        path = write_system(tmp_path, roots_of_unity_system())
        code, report = run_cli(tmp_path, "defect", path)
        assert code == 2 and report is None
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "PoleProximityError"


class TestStability:
    def test_blaschke_label(self, tmp_path):
        path = write_system(tmp_path, blaschke_system(0.5))
        code, report = run_cli(tmp_path, "stability", path)
        assert code == 0
        assert report["verdicts"]["label"] == "C00"
        assert report["verdicts"]["bistable"]

    def test_inverse_blaschke_keeps_kappa(self, tmp_path):
        path = write_system(tmp_path, inverse_blaschke_system(0.5))
        code, report = run_cli(tmp_path, "stability", path)
        assert code == 0
        assert report["verdicts"]["label"] == "C00"
        assert report["verdicts"]["kappa"] == 1


class TestRealize:
    def test_blaschke_taylor_window(self, tmp_path):
        sys1 = blaschke_system(0.5)
        coeffs = [markov(sys1, k) for k in range(8)]
        doc = {"coefficients": [
            [[[c[0, 0].real, c[0, 0].imag]]] for c in coeffs]}
        path = tmp_path / "taylor.json"
        path.write_text(json.dumps(doc))
        code, report = run_cli(tmp_path, "realize", str(path))
        assert code == 0
        assert report["verdicts"]["order"] == 1
        assert report["residuals"]["markov_window"] <= 1e-7
        realized, meta = load_system(tmp_path / "realized_system.json")
        for k in range(8):
            assert np.linalg.norm(markov(realized, k) - coeffs[k], 2) < 1e-7

    def test_empty_coefficients_exits_two(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"coefficients": []}))
        code, _ = run_cli(tmp_path, "realize", str(path))
        assert code == 2

    def test_malformed_taylor_json_names_the_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"coefficients": [\n  [[1, 0]],\n}')
        code, _ = run_cli(tmp_path, "realize", str(path))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InputError"
        assert err["reason"].startswith(f"{path}: line 3 column 1:")


class TestSimilar:
    def test_unitary_pair_found(self, tmp_path):
        sys1 = blaschke_system(0.5)
        from pontsys.colligation import state_change
        phase = np.array([[np.exp(0.7j)]])
        sys2 = state_change(sys1, phase, sys1.state)
        p1 = write_system(tmp_path, sys1, "s1.json")
        p2 = write_system(tmp_path, sys2, "s2.json")
        code, report = run_cli(tmp_path, "similar", p1, p2,
                               "--kind", "unitary")
        assert code == 0
        assert report["verdicts"]["related"]
        doc = json.loads((tmp_path / "similarity_map.json").read_text())
        assert doc["kind"] == "unitary"

    def test_unrelated_pair_reports_false(self, tmp_path):
        p1 = write_system(tmp_path, blaschke_system(0.5), "s1.json")
        p2 = write_system(tmp_path, blaschke_system(0.3), "s2.json")
        code, report = run_cli(tmp_path, "similar", p1, p2,
                               "--kind", "unitary")
        assert code == 0
        assert not report["verdicts"]["related"]

    def test_weak_similarity_residuals(self, tmp_path):
        sys1 = cascade(blaschke_system(0.3), blaschke_system(-0.2))
        from pontsys.colligation import state_change
        Z = np.array([[1.0, 0.4], [0.0, 1.1]])
        sys2 = state_change(sys1, Z, sys1.state)
        p1 = write_system(tmp_path, sys1, "s1.json")
        p2 = write_system(tmp_path, sys2, "s2.json")
        code, report = run_cli(tmp_path, "similar", p1, p2, "--kind", "weak")
        assert code == 0
        assert report["verdicts"]["related"]
        for key in ("A", "B", "C", "D"):
            assert report["residuals"][key] <= 1e-8


class TestExampleCounter:
    def test_reproduces_with_shift_inner(self, tmp_path):
        code, report = run_cli(tmp_path, "example-counter",
                               "--alpha", "0.5", "--a", "z")
        assert code == 0
        assert report["verdicts"]["obs_obstruction_dimension"] >= 1
        assert report["verdicts"]["ctrl_obstruction_dimension"] >= 1
        assert report["verdicts"]["negative_squares"] == 1
        assert report["verdicts"]["reproduced"]
        assert report["residuals"]["obs_oracle_agreement"] <= 1e-8
        assert report["residuals"]["ctrl_oracle_agreement"] <= 1e-8
        model, _ = load_system(tmp_path / "example_schur_row.json")
        assert model.state.neg == 0
        invb, _ = load_system(tmp_path / "example_inverse_blaschke.json")
        assert (invb.state.pos, invb.state.neg) == (0, 1)
        cas, _ = load_system(tmp_path / "example_cascade.json")
        assert cas.state_dim == model.state_dim + 1

    def test_blaschke_inner_spec(self, tmp_path):
        code, report = run_cli(tmp_path, "example-counter",
                               "--alpha", "0.5", "--a", "0.33333333")
        assert code == 0
        assert report["verdicts"]["obs_obstruction_dimension"] >= 1

    def test_bad_inner_spec_exits_two(self, tmp_path):
        code, _ = run_cli(tmp_path, "example-counter", "--a", "1.5")
        assert code == 2

    def test_alpha_on_circle_exits_two(self, tmp_path):
        code, _ = run_cli(tmp_path, "example-counter", "--alpha", "1.0")
        assert code == 2


class TestDeterminism:
    def test_reports_identical_across_runs(self, tmp_path):
        path = write_system(tmp_path, counterexample_observable_system())
        d1 = tmp_path / "r1"
        d2 = tmp_path / "r2"
        code1 = main(["--out", str(d1), "--seed", "3", "negsq", path])
        code2 = main(["--out", str(d2), "--seed", "3", "negsq", path])
        assert code1 == 0 and code2 == 0
        r1 = (d1 / "negsq.report.json").read_text()
        r2 = (d2 / "negsq.report.json").read_text()
        assert r1 == r2


class TestParserReuse:
    """main() builds its parser once per process; every call parses into
    a namespace of its own."""

    def test_parser_built_at_most_once(self, tmp_path, monkeypatch):
        path = write_system(tmp_path, blaschke_system(0.5))
        builds = spy(monkeypatch, cli.build_parser)
        for k in range(3):
            assert main(["--out", str(tmp_path / str(k)), "classify",
                         path]) == 0
        assert len(builds) <= 1

    def test_flags_do_not_leak_into_the_next_call(self, tmp_path):
        sys1 = cascade(inverse_blaschke_system(0.5), blaschke_system(0.3))
        path = write_system(tmp_path, sys1)
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["--out", str(first), "--seed", "3", "--samples", "40",
                     "--tol", "1e-7", "factor-kl", path, "--mode",
                     "left"]) == 0
        assert main(["--out", str(second), "factor-kl", path]) == 0
        used = json.loads((first / "factor-kl.report.json").read_text())
        assert used["parameters"] == {"tol": 1e-7, "samples": 40, "seed": 3,
                                      "mode": "left"}
        report = json.loads((second / "factor-kl.report.json").read_text())
        assert report["parameters"] == {"tol": None, "samples": None,
                                        "seed": None, "mode": "right"}
        assert report["tolerances"] == json.loads(json.dumps(
            dataclasses.asdict(DEFAULT_TOL)))

    @pytest.mark.parametrize("argv,code", [(["--help"], 0),
                                           (["--no-such-flag"], 2)])
    def test_call_after_exit_matches_a_fresh_process(self, tmp_path, argv,
                                                     code, capsys):
        path = write_system(tmp_path, counterexample_observable_system())
        with pytest.raises(SystemExit) as info:
            main(argv + ["negsq", path])
        assert info.value.code == code
        capsys.readouterr()
        here, fresh = tmp_path / "here", tmp_path / "fresh"
        assert main(["--out", str(here), "--seed", "5", "negsq", path]) == 0
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "pontsys.cli", "--out", str(fresh),
             "--seed", "5", "negsq", path],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            timeout=120)
        assert done.returncode == 0, done.stderr
        assert ((here / "negsq.report.json").read_bytes()
                == (fresh / "negsq.report.json").read_bytes())
