import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from _builders import (
    blaschke_system,
    counterexample_observable_system,
    half_shift_system,
    inverse_blaschke_system,
    roots_of_unity_system,
    row_schur_left_system,
    spy,
    spy_attr,
)
from pontsys import cli, colligation, indefinite
from pontsys.cli import load_system, main, save_system, system_to_json
from pontsys.colligation import Colligation, krylov_report, markov, to_canonical
from pontsys.indefinite import DEFAULT_TOL, SignatureSpace
from pontsys.products import cascade
from pontsys.sampling import (
    boundary_points,
    random_conservative_colligation,
    random_passive_colligation,
)
from pontsys.schur import TransferFunction, as_transfer, boundary_behavior


def run_cli(tmp_path, *argv):
    code = main(["--out", str(tmp_path), *argv])
    report_path = tmp_path / f"{argv[0]}.report.json"
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    return code, report


def write_system(tmp_path, system, name="system.json"):
    path = tmp_path / name
    save_system(system, path)
    return str(path)


# ---------------------------------------------------------------------------
# the json module's encoding, which every JSON file the CLI writes matches
# byte for byte


def _jsonable(value):
    """The reference conversion of report values for json.dumps."""
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return None if math.isnan(value) else value
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.complexfloating):
        return [float(value.real), float(value.imag)]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, Path):
        return str(value)
    return value


def _pairs(M):
    """A matrix as rows of [re, im] float pairs."""
    return [[[float(v.real), float(v.imag)] for v in row]
            for row in np.asarray(M, dtype=complex)]


def _reference_text(doc):
    """The reference text of a SystemFile, a state map or a report: blocks
    and maps as [re, im] float pairs, maps and reports through _jsonable,
    then json.dumps(..., indent=2), with allow_nan=False for reports."""
    if "state" in doc:
        return json.dumps({k: _pairs(v) if k in ("A", "B", "C", "D") else v
                           for k, v in doc.items()}, indent=2)
    if "Z" in doc:
        return json.dumps(_jsonable({"kind": doc["kind"],
                                     "Z": _pairs(doc["Z"])}), indent=2)
    return json.dumps(_jsonable(doc), indent=2, allow_nan=False)


def _assert_same(got, want):
    """got == want for two texts, or error outcomes; a failure shows where
    they part instead of diffing long texts."""
    if got != want:
        at = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        part = slice(max(at - 60, 0), at + 60)
        pytest.fail(f"differ at {at}: {got[part]!r} != {want[part]!r}")


def _outcome(encode, doc):
    """The text, or the type and message of the error raised instead."""
    try:
        return encode(doc)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.fixture(autouse=True)
def stdlib_bytes(monkeypatch):
    """Check every document the CLI encodes in a test of this module, each
    report, SystemFile and state map, against _reference_text; yields the
    documents checked."""
    real = cli._json_text
    checked = []

    def text(value, pad="\n"):
        if pad == "\n":
            _assert_same(_outcome(real, value),
                         _outcome(_reference_text, value))
            checked.append(value)
        return real(value, pad)

    monkeypatch.setattr(cli, "_json_text", text)
    yield checked


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

    @pytest.mark.parametrize("edit, reason", [
        (lambda doc: doc.update(A=[[[1.0]]]),
         "field A[0][0]: expected a two-number [re, im] pair"),
        (lambda doc: doc["A"][0].__setitem__(0, [1.0, "0"]),
         "field A[0][0]: expected a two-number [re, im] pair"),
        (lambda doc: doc.update(B=[[[0.5, 0.0], [0.5, 0.0]]]),
         "field B[0]: expected 1 entries"),
        (lambda doc: doc.update(C=[]), "field C: expected 1 rows"),
        (lambda doc: doc.pop("D"), "missing field D"),
        (lambda doc: doc["A"][0].__setitem__(0, [int("9" * 401), 0]),
         "field A[0][0]: number too large for a float"),
        (lambda doc: doc["D"][0].__setitem__(0, [0.0, -int("7" * 401)]),
         "field D[0][0]: number too large for a float"),
        (lambda doc: doc["A"][0].__setitem__(0, [True, 0.1]),
         "field A[0][0]: expected a two-number [re, im] pair"),
        (lambda doc: doc["B"][0].__setitem__(0, [0.5, False]),
         "field B[0][0]: expected a two-number [re, im] pair"),
    ], ids=["short-pair", "string-part", "short-row", "no-rows", "missing",
            "huge-real", "huge-imag", "bool-real", "bool-imag"])
    def test_decode_errors_name_the_entry(self, tmp_path, capsys, edit,
                                          reason):
        path = tmp_path / "entry.json"
        doc = system_to_json(blaschke_system(0.5))
        edit(doc)
        path.write_text(json.dumps(doc))
        code, _ = run_cli(tmp_path, "classify", str(path))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "InputError", "reason": f"{path}: {reason}"}

    def test_malformed_json_message(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        # a lone CR and a CRLF each end a line, as in text-mode reading
        path.write_bytes(b'{"state":\r {"pos": 1,\r\n "neg": 0,}')
        code, _ = run_cli(tmp_path, "classify", str(path))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "InputError", "reason": f"{path}: line 3 column "
                       "11: Expecting property name enclosed in double quotes"}

    def test_entries_decode_bit_exactly(self, tmp_path):
        # the one-pass decoder gives the bits of complex(re, im)
        entries = [[-0.0, 2 ** 63 + 1], [10 ** 20 + 1, -0.0], [5e-324, -1.5]]
        doc = system_to_json(blaschke_system(0.5))
        for k, entry in enumerate(entries):
            doc["A"][0][0] = entry
            path = tmp_path / f"{k}.json"
            path.write_text(json.dumps(doc))
            value = load_system(path)[0].A[0, 0]
            want = complex(*entry)
            assert (value.real.hex(), value.imag.hex()) == (
                want.real.hex(), want.imag.hex())

    def test_each_input_read_once(self, tmp_path, monkeypatch):
        path = write_system(tmp_path, blaschke_system(0.5))
        reads = []
        for name in ("read_bytes", "read_text"):
            real = getattr(Path, name)
            monkeypatch.setattr(Path, name, lambda self, *a, real=real, **k: (
                reads.append(str(self)), real(self, *a, **k))[1])
        code, report = run_cli(tmp_path, "classify", path)
        assert code == 0
        assert reads.count(path) == 1
        assert report["inputs"]["system"] == {
            "path": path,
            "sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()}


def _taylor_doc(system, count=8):
    return {"coefficients": [
        [[[v.real, v.imag] for v in row] for row in markov(system, k)]
        for k in range(count)]}


_BAD_OVERRIDES = [
    ("rank_tol", "x", "a number"),
    ("psd_tol", True, "a number"),
    ("metric_tol", None, "a number"),
    ("seed", 1.5, "an integer"),
    ("disc_samples", False, "an integer"),
    ("boundary_samples", "64", "an integer"),
]


class TestToleranceOverrides:
    @pytest.mark.parametrize("key, value, want", _BAD_OVERRIDES,
                             ids=[f"{k}-{v!r}" for k, v, _ in _BAD_OVERRIDES])
    @pytest.mark.parametrize("command", ["classify", "realize"])
    def test_mistyped_override_names_the_field(self, tmp_path, capsys,
                                               command, key, value, want):
        system = blaschke_system(0.5)
        if command == "realize":
            doc = _taylor_doc(system)
        else:
            doc = system_to_json(system)
        doc["metadata"] = {"tolerances": {key: value}}
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        code, _ = run_cli(tmp_path, command, str(path))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "InputError",
                       "reason": f"tolerance override {key!r}: expected {want}"}

    @pytest.mark.parametrize("command", ["classify", "realize"])
    def test_typed_override_lands_in_report(self, tmp_path, command):
        system = blaschke_system(0.5)
        doc = _taylor_doc(system) if command == "realize" else system_to_json(system)
        doc["metadata"] = {"tolerances": {"seed": 5, "metric_tol": 1e-7,
                                          "rank_tol": 1e-11}}
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        code, report = run_cli(tmp_path, command, str(path))
        assert code == 0
        assert (report["tolerances"]["seed"], report["tolerances"]["metric_tol"],
                report["tolerances"]["rank_tol"]) == (5, 1e-7, 1e-11)


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

    def test_kind_decided_once(self, tmp_path, monkeypatch):
        # the kappa estimate's pole-count bound reads the kind classify
        # certified instead of deciding it again
        rng = np.random.default_rng(4)
        path = write_system(tmp_path, random_conservative_colligation(
            rng, SignatureSpace(7, 3), 2))
        calls = spy(monkeypatch, indefinite._defect_class)
        code, report = run_cli(tmp_path, "classify", path)
        assert code == 0
        assert report["verdicts"]["kind"] == "conservative"
        assert report["certificates"]["kappa_estimate"] == 3
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

    def test_cascade_kind_takes_no_krylov_report(self, tmp_path, monkeypatch):
        # the report reads only the cascade's kind, and the obstruction
        # oracle needs no Krylov report either
        first = write_system(tmp_path, blaschke_system(1.0 / 3.0), "a.json")
        second = write_system(tmp_path, blaschke_system(0.5), "b.json")
        calls = spy(monkeypatch, krylov_report)
        code, report = run_cli(tmp_path, "product", first, second,
                               "--check", "obs")
        assert code == 0
        assert report["verdicts"]["kind"] == "conservative"
        assert report["verdicts"]["passive"]
        assert calls == []

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


class TestOneSchurForm:
    @pytest.mark.parametrize("argv", [["negsq"], ["factor-kl"],
                                      ["factor-kl", "--mode", "left"]])
    def test_no_operator_is_decomposed_twice(self, tmp_path, monkeypatch, argv):
        rng = np.random.default_rng(15)
        path = write_system(
            tmp_path, random_conservative_colligation(rng, SignatureSpace(7, 3), 2))
        schur_calls = spy_attr(monkeypatch, scipy.linalg, "schur")
        eigvals = spy_attr(monkeypatch, np.linalg, "eigvals")
        code, _ = run_cli(tmp_path, argv[0], path, *argv[1:])
        assert code == 0
        operators = [args[0] for args in schur_calls]
        assert len(operators) >= 1 and eigvals == []
        assert not any(np.shape(operators[i]) == np.shape(operators[j])
                       and np.array_equal(operators[i], operators[j])
                       for i in range(len(operators)) for j in range(i))


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

    def test_kind_decided_once_per_operator(self, tmp_path, monkeypatch):
        # one decision for the input's system operator and one for the
        # embedding's; the report reads the kind the embedding certified
        path = write_system(tmp_path, half_shift_system())
        calls = spy(monkeypatch, indefinite._defect_class)
        code, report = run_cli(tmp_path, "julia-embed", path)
        assert code == 0
        assert report["verdicts"]["kind"] == "conservative"
        assert len(calls) == 2

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

    def test_csv_is_what_csv_writer_writes(self, tmp_path):
        system = random_passive_colligation(np.random.default_rng(6),
                                            SignatureSpace(3, 1), 2, 2,
                                            strict=0.3)
        path = write_system(tmp_path, system)
        assert run_cli(tmp_path, "defect", path)[0] == 0
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["theta", "sigma_max", "defect_right_norm",
                         "defect_left_norm"])
        writer.writerows(boundary_behavior(system).rows())
        assert (tmp_path / "boundary.csv").read_bytes() == (
            want.getvalue().encode())

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


def _scalar_and_two_channel_inputs():
    """A strictly passive scalar system and a conservative two-channel one
    with a three-dimensional negative state part."""
    rng = np.random.default_rng(9)
    return {
        "passive": random_passive_colligation(rng, SignatureSpace(4, 0), 1, 1,
                                              strict=0.35),
        "conservative": random_conservative_colligation(
            rng, SignatureSpace(7, 3), 2),
    }


class TestDefectSurvey:
    @pytest.mark.parametrize("kind", ["passive", "conservative"])
    def test_each_root_of_unity_evaluated_once(self, tmp_path, monkeypatch,
                                               kind):
        # defect's 128-point survey is the even half of the boundary
        # survey's 256 points, so it is served from that survey
        path = write_system(tmp_path, _scalar_and_two_channel_inputs()[kind])
        calls = spy(monkeypatch, colligation.transfer_values)
        code, _ = run_cli(tmp_path, "defect", path)
        assert code == 0
        points = np.concatenate([np.ravel(args[1]) for args in calls])
        hits = np.abs(points[None, :] - boundary_points(256)[:, None]) < 1e-12
        assert hits.sum(axis=1).tolist() == [1] * 256

    @pytest.mark.parametrize("kind", ["passive", "conservative"])
    @pytest.mark.parametrize("samples", ["100", "512"])
    def test_report_matches_separate_surveys(self, tmp_path, monkeypatch,
                                             kind, samples):
        # 100 is no multiple of 128, so defect surveys afresh; 512 serves
        # it with stride 4.  Both must equal defect and boundary_behavior
        # on two fresh functions
        path = write_system(tmp_path, _scalar_and_two_channel_inputs()[kind])
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        assert main(["--out", str(shared), "--samples", samples, "defect",
                     path]) == 0
        for name in ("defect", "boundary_behavior"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda S, tol, real=real: real(
                TransferFunction(as_transfer(S).backing), tol))
        assert main(["--out", str(fresh), "--samples", samples, "defect",
                     path]) == 0
        for name in ("defect.report.json", "boundary.csv"):
            assert (shared / name).read_bytes() == (fresh / name).read_bytes()
        rows = (shared / "boundary.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + int(samples)


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

    def test_oversized_taylor_entry_names_the_entry(self, tmp_path, capsys):
        path = tmp_path / "taylor.json"
        path.write_text(json.dumps({"coefficients": [
            [[[0.5, 0]]], [[[int("3" * 401), 0]]], [[[0.25, 0]]]]}))
        code, _ = run_cli(tmp_path, "realize", str(path))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "InputError", "reason": f"{path}: field "
                       "coefficients[1][0][0]: number too large for a float"}

    @pytest.mark.parametrize("metadata", [[1], "tolerances", 3])
    def test_non_object_metadata_is_refused(self, tmp_path, capsys, metadata):
        doc = _taylor_doc(blaschke_system(0.5))
        doc["metadata"] = metadata
        path = tmp_path / "taylor.json"
        path.write_text(json.dumps(doc))
        code, _ = run_cli(tmp_path, "realize", str(path))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "InputError",
                       "reason": f"{path}: field metadata: expected an object"}

    def test_boolean_taylor_entry_names_the_entry(self, tmp_path, capsys):
        doc = _taylor_doc(blaschke_system(0.5))
        doc["coefficients"][2][0][0] = [True, 0.1]
        path = tmp_path / "taylor.json"
        path.write_text(json.dumps(doc))
        code, _ = run_cli(tmp_path, "realize", str(path))
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "InputError", "reason": f"{path}: field "
                       "coefficients[2][0][0]: expected a two-number [re, im] pair"}

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

    def test_module_runs_without_a_runpy_warning(self):
        # importing the package must not import pontsys.cli ahead of runpy
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "pontsys.cli", "--help"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            timeout=120)
        assert done.returncode == 0, done.stderr


_SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.0,
                   2.5e-17, 123456789.0, 1e16, -3.0]
_TEXTS = ["plain", 'say "hi"', "two\nlines", "tab\tand\\slash",
          "näive Σ ∞ 😀", "\x00\x1f\x7f", ""]


def _random_block(rng, rows, cols):
    M = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    mask = rng.random((rows, cols)) < 0.3
    count = int(mask.sum())
    M[mask] = (rng.choice(_SPECIAL_FLOATS, count)
               + 1j * rng.choice(_SPECIAL_FLOATS, count))
    return M


def _random_system(rng):
    n = int(rng.integers(0, 12))
    m, p = (int(k) for k in rng.integers(0, 4, 2))
    state = SignatureSpace.from_signs(rng.choice([-1.0, 1.0], n))
    return Colligation(state, m, p, _random_block(rng, n, n),
                       _random_block(rng, n, m), _random_block(rng, p, n),
                       _random_block(rng, p, m))


def _random_value(rng, depth=0):
    """A report value: numpy and Python scalars, complex numbers, NaN,
    strings, Path, arrays and nested containers, empty ones included."""
    x = float(rng.standard_normal()) * 10.0 ** int(rng.integers(-20, 20))
    leaves = [
        x, -0.0, 5e-324, 1e308, float("nan"), np.float64(x), np.float32(x),
        np.float64("nan"), int(rng.integers(-10 ** 6, 10 ** 6)),
        np.int64(rng.integers(-10 ** 6, 10 ** 6)), np.int32(7), True, False,
        np.bool_(True), None, complex(x, -0.0), np.complex128(complex(0.5, x)),
        _TEXTS[int(rng.integers(len(_TEXTS)))], Path("out") / "a b.json",
        rng.standard_normal(int(rng.integers(0, 4))),
        np.array([1.0, float("nan")]), np.arange(3), np.array([True, False]),
        _random_block(rng, int(rng.integers(0, 3)), int(rng.integers(0, 3))),
        np.array([[1e308 + 1e308j, -1e308 + 0j]]),
        rng.standard_normal(2) + 1j * rng.standard_normal(2), [], {}, (),
    ]
    pick = int(rng.integers(len(leaves) + (3 if depth < 4 else 0)))
    if pick < len(leaves):
        return leaves[pick]
    width = int(rng.integers(0, 5))
    if pick == len(leaves):
        return [_random_value(rng, depth + 1) for _ in range(width)]
    if pick == len(leaves) + 1:
        return tuple(_random_value(rng, depth + 1) for _ in range(width))
    # string and integer keys that no two can share after str()
    return {(f"k{k}" if k % 2 else 100 + k): _random_value(rng, depth + 1)
            for k in range(width)}


class TestJsonText:
    """The CLI's one writer gives exactly the json module's bytes."""

    def test_every_kind_of_document_is_checked(self, tmp_path,
                                               stdlib_bytes):
        sys1 = cascade(blaschke_system(0.3), blaschke_system(-0.2))
        Z = np.array([[1.0, 0.4], [0.0, 1.1]])
        p1 = write_system(tmp_path, sys1, "s1.json")
        p2 = write_system(tmp_path, colligation.state_change(sys1, Z, sys1.state),
                          "s2.json")
        assert run_cli(tmp_path, "similar", p1, p2, "--kind", "weak")[0] == 0
        assert run_cli(tmp_path, "defect",
                       write_system(tmp_path, half_shift_system()))[0] == 0
        kinds = [("state" in d) + 2 * ("Z" in d) + 4 * ("command" in d)
                 for d in stdlib_bytes]
        assert sorted(set(kinds)) == [1, 2, 4]
        # the files hold the checked text and a newline
        for name, key in (("similarity_map.json", "Z"),
                          ("defect.report.json", "command")):
            doc = [d for d in stdlib_bytes if key in d][-1]
            _assert_same((tmp_path / name).read_bytes(),
                         (_reference_text(doc) + "\n").encode())
        report = json.loads((tmp_path / "defect.report.json").read_text())
        assert len(report["certificates"]["phi"]["numerator"][0]) == 2

    @pytest.mark.parametrize("seed", range(6))
    def test_random_system_files(self, tmp_path, seed):
        rng = np.random.default_rng([seed, 22])
        for k in range(40):
            system = _random_system(rng)
            name, notes = (_TEXTS[int(j)] if j < len(_TEXTS) else None
                           for j in rng.integers(0, len(_TEXTS) + 1, 2))
            path = save_system(system, tmp_path / f"{k}.json", name, notes)
            canonical = to_canonical(system)
            doc = {"state": {"pos": system.state.pos, "neg": system.state.neg},
                   "input_dim": system.input_dim,
                   "output_dim": system.output_dim}
            doc.update((key, _pairs(getattr(canonical, key)))
                       for key in ("A", "B", "C", "D"))
            meta = {key: value for key, value in
                    (("name", name), ("notes", notes)) if value is not None}
            if meta:
                doc["metadata"] = meta
            _assert_same(path.read_bytes(),
                         (json.dumps(doc, indent=2) + "\n").encode())
            assert system_to_json(system, name, notes) == doc

    @pytest.mark.parametrize("seed", range(6))
    def test_random_report_documents(self, seed):
        rng = np.random.default_rng([seed, 23])
        for _ in range(60):
            doc = {f"k{k}": _random_value(rng) for k in range(4)}
            _assert_same(cli._json_text(doc), json.dumps(
                _jsonable(doc), indent=2, allow_nan=False))

    @pytest.mark.parametrize("value", [
        math.inf, -math.inf, np.float64(-math.inf), complex(math.nan, 0.0),
        complex(1.0, math.inf), np.complex128(complex(0.0, math.nan)),
        np.array([[complex(math.inf, 0.0)]]), np.array([1.0, math.inf]),
        [{"deep": (math.inf,)}]])
    def test_non_finite_values_raise_as_the_json_module(self, value):
        doc = {"residual": value}
        with pytest.raises(ValueError) as want:
            json.dumps(_jsonable(doc), indent=2, allow_nan=False)
        with pytest.raises(ValueError) as got:
            cli._json_text(doc)
        assert str(got.value) == str(want.value)


class TestReportEncodingEdges:
    """A NaN residual is written as null; an infinite one, or a complex
    value with a NaN part, refuses the report with exit code 2."""

    @pytest.fixture
    def factor_kl(self, tmp_path, monkeypatch):
        path = write_system(tmp_path, cascade(inverse_blaschke_system(0.5),
                                              blaschke_system(0.3)))

        def run(residual):
            real = cli.kl_factorize_system
            monkeypatch.setattr(cli, "kl_factorize_system", lambda *a: (
                dataclasses.replace(real(*a), reconstruction_residual=residual)))
            return run_cli(tmp_path / "out", "factor-kl", path)
        return run

    def test_nan_residual_is_null(self, tmp_path, factor_kl):
        code, report = factor_kl(np.float64(math.nan))
        assert code == 0
        assert report["residuals"] == {"cascade_reconstruction": None}
        assert '"cascade_reconstruction": null' in (
            tmp_path / "out" / "factor-kl.report.json").read_text()

    @pytest.mark.parametrize("residual, shown", [
        (math.inf, "inf"), (-math.inf, "-inf"), (np.float64(math.inf), "inf"),
        (complex(math.nan, 0.0), "nan"), (complex(0.5, -math.inf), "-inf")])
    def test_non_finite_residual_exits_two(self, tmp_path, capsys, factor_kl,
                                           residual, shown):
        code, report = factor_kl(residual)
        assert (code, report) == (2, None)
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ('{"error": "ValueError", "reason": "Out of range float '
                       f'values are not JSON compliant: {shown}"}}\n')
