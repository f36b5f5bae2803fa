"""Command-line interface: exit codes, outputs, manifests, determinism."""

import csv
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from recency import cli, simulation
from recency.cli import main
from recency.simulation import default_config, generate


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    """A comfortably identified dataset in the documented CSV schema."""
    path = tmp_path_factory.mktemp("data") / "survey.csv"
    arrs = generate(default_config("1", n_total=2400, seed=42)).train_arrays
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "weight", "s", "z", "odn", "age"])
        rng = np.random.default_rng(1)
        for i in range(arrs.n):
            writer.writerow([f"p{i}", 1.0, repr(float(arrs.s[i])), int(arrs.z[i]),
                             repr(float(arrs.x[i, 0])),
                             repr(float(rng.uniform(18, 65)))])
    return path


class TestFitCommand:
    def test_table_structure_run(self, data_csv, tmp_path):
        out = tmp_path / "fit"
        code = main(["fit", "--data", str(data_csv), "--covariates", "odn",
                     "--out", str(out), "--seed", "1"])
        assert code == 0
        doc = json.loads((out / "fit.json").read_text())
        assert list(doc["se"]) == ["beta0", "beta_odn", "eta01", "eta11"]
        assert doc["converged"] is True
        assert doc["eta"]["eta00"] == 7.0 and doc["eta"]["eta10"] == -7.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert str(data_csv) in manifest["input_hashes"]
        with open(out / "predictions.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1200
        assert set(rows[0]) == {"id", "s", "z", "label", "type1", "type2"}

    def test_p0_one_free_params(self, data_csv, tmp_path):
        out = tmp_path / "fit_p0"
        code = main(["fit", "--data", str(data_csv), "--covariates", "odn",
                     "--p0-one", "--fix-eta10", "-7", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "fit.json").read_text())
        assert list(doc["se"]) == ["beta0", "beta_odn", "eta11"]
        assert "eta00" not in doc["eta"] and "eta01" not in doc["eta"]

    @pytest.mark.parametrize("flag", ["--fix-eta00", "--fix-eta10"])
    def test_non_finite_pin_exit_1_names_field(self, data_csv, tmp_path, capsys, flag):
        # a nan pin fitted to a nan likelihood and a non-converged result
        out = tmp_path / "nan_pin"
        assert main(["fit", "--data", str(data_csv), "--covariates", "odn", flag, "nan",
                     "--out", str(out)]) == 1
        field = flag[2:].replace("-", "_")
        assert f"error: '{field}' is nan, not a finite number or None" in capsys.readouterr().err
        assert not out.exists()

    def test_free_pin_is_estimated(self, data_csv, tmp_path):
        out = tmp_path / "free"
        assert main(["fit", "--data", str(data_csv), "--covariates", "odn",
                     "--fix-eta00", "free", "--out", str(out)]) in (0, 2)
        doc = json.loads((out / "fit.json").read_text())
        assert doc["spec"]["fix_eta00"] is None and "eta00" in doc["se"]

    @pytest.mark.parametrize("flags, message", [
        (["--covariates", "odn", "--fix-eta00", "seven"],
         "--fix-eta00 expects a number or 'free', got 'seven'"),
        (["--covariates", " , "], "empty covariate list"),
    ], ids=["pin", "covariates"])
    def test_bad_model_flag_usage_error(self, data_csv, tmp_path, capsys, flags, message):
        out = tmp_path / "bad"
        assert main(["fit", "--data", str(data_csv), *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()

    def test_empty_column_flag_drops_the_column(self, data_csv, tmp_path):
        # --col-id "" reads no id column, not a column whose header cell is
        # blank (a spreadsheet's row labels): each row gets its data-row number
        labeled = tmp_path / "labeled.csv"
        with open(data_csv, newline="") as src, open(labeled, "w", newline="") as dst:
            writer = csv.writer(dst)
            for i, row in enumerate(csv.reader(src)):
                writer.writerow(["" if i == 0 else f"r{i}", *row])
        out = tmp_path / "no_ids"
        assert main(["fit", "--data", str(labeled), "--covariates", "odn", "--col-id", "",
                     "--out", str(out)]) == 0
        with open(out / "predictions.csv") as fh:
            ids = [row["id"] for row in csv.DictReader(fh)]
        assert ids[:3] == ["1", "2", "3"] and len(ids) == 1200

    def test_conflicting_flags_usage_error(self, data_csv, tmp_path):
        code = main(["fit", "--data", str(data_csv), "--covariates", "odn",
                     "--p0-one", "--fix-eta00", "7", "--out", str(tmp_path / "x")])
        assert code == 1

    def test_missing_file_exit_1(self, tmp_path):
        code = main(["fit", "--data", str(tmp_path / "nope.csv"),
                     "--covariates", "odn", "--out", str(tmp_path / "x")])
        assert code == 1

    def test_nonconvergence_exit_2(self, tmp_path):
        # duplicated covariate column leaves the model unidentified
        path = tmp_path / "dup.csv"
        arrs = generate(default_config("1", n_total=800, seed=7)).train_arrays
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "weight", "s", "z", "odn", "cd4"])
            for i in range(arrs.n):
                v = repr(float(arrs.x[i, 0]))
                writer.writerow([f"p{i}", 1.0, repr(float(arrs.s[i])), int(arrs.z[i]), v, v])
        code = main(["fit", "--data", str(path), "--covariates", "odn,cd4",
                     "--out", str(tmp_path / "out2")])
        assert code == 2

    @pytest.mark.parametrize("column, token", [("odn", "nan"), ("weight", "inf")])
    def test_nonfinite_cell_exit_1_names_row(self, data_csv, tmp_path, capsys, column, token):
        with open(data_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[5][rows[0].index(column)] = token
        path = tmp_path / "bad.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        out = tmp_path / "out_bad"
        code = main(["fit", "--data", str(path), "--covariates", "odn", "--out", str(out)])
        assert code == 1
        assert f"row 6: column '{column}' must be finite" in capsys.readouterr().err
        assert not (out / "fit.json").exists()

    def test_repeated_covariate_usage_error(self, data_csv, tmp_path, capsys, monkeypatch):
        loads = []
        monkeypatch.setattr(cli, "load", lambda *a, **k: loads.append(a))
        out = tmp_path / "dup"
        code = main(["fit", "--data", str(data_csv), "--covariates", "odn,age,odn",
                     "--out", str(out)])
        assert code == 1
        assert "listed more than once: odn" in capsys.readouterr().err
        assert loads == [] and not out.exists()

    @pytest.mark.parametrize("command", ["fit", "select"])
    def test_absent_covariate_column_exit_1(self, data_csv, tmp_path, capsys, command):
        # data_csv has no cd4 column: named before any row is dropped for it
        out = tmp_path / "absent"
        code = main([command, "--data", str(data_csv), "--covariates", "odn,cd4",
                     "--out", str(out)])
        assert code == 1
        assert "error: data is missing covariate column(s): cd4" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_beyond_float_range_exit_1(self, tmp_path, capsys):
        huge = "1" + "0" * 400
        path = tmp_path / "huge.csv"
        path.write_text(f"id,weight,s,z,odn,test_year\na,1.0,0.5,0,1.2,2015\n"
                        f"b,1.0,2.5,1,0.3,{huge}\n")
        out = tmp_path / "huge"
        code = main(["fit", "--data", str(path), "--covariates", "odn", "--out", str(out)])
        assert code == 1
        assert (f"error: row 3: column 'test_year' must be finite, got '{huge}'"
                in capsys.readouterr().err)
        assert not out.exists()


class TestNoPerRowObjects:
    def test_fit_and_predict_build_no_subject(self, tmp_path, monkeypatch):
        # a survey extract with dates, NA test months and both covariates
        arrs = generate(default_config("1", n_total=1000, seed=3)).train_arrays
        rng = np.random.default_rng(4)
        gap = np.maximum(1, np.rint(arrs.s * 12)).astype(int)
        interview = 2016 * 12 + rng.integers(0, 12, size=arrs.n)
        test = interview - gap
        path = tmp_path / "survey.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "weight", "test_year", "test_month", "interview_year",
                             "interview_month", "z", "odn", "vl"])
            for i in range(arrs.n):
                writer.writerow([f"p{i}", repr(float(rng.uniform(0.5, 2.0))), test[i] // 12,
                                 "NA" if i % 10 == 0 else test[i] % 12 + 1, interview[i] // 12,
                                 interview[i] % 12 + 1, arrs.z[i], repr(float(arrs.x[i, 0])),
                                 int(rng.integers(0, 100000))])
        # the package's one per-row record is simulation's; the CLI must not build it
        calls = []
        original = simulation._rows

        def counting(arrs):
            calls.append(1)
            return original(arrs)

        monkeypatch.setattr(simulation, "_rows", counting)
        assert main(["fit", "--data", str(path), "--covariates", "odn,logvl",
                     "--out", str(tmp_path / "fit")]) in (0, 2)
        assert main(["predict", "--fit", str(tmp_path / "fit" / "fit.json"), "--data", str(path),
                     "--out", str(tmp_path / "pred"), "--p-hiv", "0.1", "--p-art", "0.7"]) == 0
        assert len(calls) == 0


class TestSelectCommand:
    def test_variants_and_stepwise_outputs(self, data_csv, tmp_path):
        out = tmp_path / "sel"
        code = main(["select", "--data", str(data_csv), "--covariates", "odn,age",
                     "--out", str(out), "--seed", "2"])
        assert code == 0
        variants = json.loads((out / "variants.json").read_text())
        assert len(variants) == 4
        assert {v["variant"] for v in variants} == {
            "full", "fix_eta00", "fix_eta00_eta10", "p0_one_fix_eta10"}
        stepwise = json.loads((out / "stepwise.json").read_text())
        # age is pure noise here; odn carries the signal
        assert stepwise["selected"] == ["odn"]
        assert stepwise["trace"][0]["kept"] == ["odn", "age"]

    def test_repeated_candidate_usage_error(self, data_csv, tmp_path, capsys, monkeypatch):
        loads = []
        monkeypatch.setattr(cli, "load", lambda *a, **k: loads.append(a))
        out = tmp_path / "sel_dup"
        code = main(["select", "--data", str(data_csv), "--covariates", "age,odn,age",
                     "--out", str(out)])
        assert code == 1
        assert "listed more than once: age" in capsys.readouterr().err
        assert loads == [] and not out.exists()


class TestSimulateCommand:
    def test_small_run_outputs(self, tmp_path):
        out = tmp_path / "sim"
        code = main(["simulate", "--scenario", "1", "--reps", "3", "--n", "600",
                     "--seed", "11", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["scenario"] == "S1" and summary["n_reps"] == 3
        with open(out / "replicates.csv") as fh:
            header = next(csv.reader(fh))
        assert header == ["rep", "param", "estimate", "se", "covered",
                          "auc1", "auc2", "e_y", "converged"]

    def test_same_seed_identical_outputs(self, tmp_path):
        args = ["simulate", "--scenario", "1", "--reps", "2", "--n", "400", "--seed", "5"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
        assert (a / "replicates.csv").read_bytes() == (b / "replicates.csv").read_bytes()

    def test_noise_is_honoured_outside_scenario_five(self, tmp_path):
        # scenario 1 wrote byte-identical replicates with and without --noise
        args = ["simulate", "--scenario", "1", "--reps", "2", "--n", "400", "--seed", "5"]
        clean, noisy = tmp_path / "clean", tmp_path / "noisy"
        assert main(args + ["--out", str(clean)]) == 0
        assert main(args + ["--noise", "0.2,0.05", "--out", str(noisy)]) == 0
        assert (clean / "replicates.csv").read_bytes() != (noisy / "replicates.csv").read_bytes()

    def test_unknown_scenario_usage_error(self, tmp_path):
        code = main(["simulate", "--scenario", "9", "--reps", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 1

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_nonpositive_reps_is_usage_error_and_writes_nothing(self, tmp_path, capsys, reps):
        out = tmp_path / "none"
        code = main(["simulate", "--scenario", "1", "--reps", reps, "--n", "400",
                     "--out", str(out)])
        assert code == 1
        assert "usage error: --reps must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--beta", "1,2,3"], "beta_true must have 2 entries for S1"),
        (["--n", "0"], "n_total must be positive, got 0"),
        (["--eta", "1,2,3"], "eta_true must have 4 entries"),
        (["--noise", "0.1"], "noise must have 2 entries"),
    ], ids=["beta-length", "zero-n", "eta-length", "noise-length"])
    def test_bad_config_exit_1_names_field(self, tmp_path, capsys, flags, message):
        args = ["simulate", "--scenario", "1", "--reps", "1", "--n", "200"]
        code = main(args + flags + ["--out", str(tmp_path / "bad")])
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_single_replicate_degenerate_sd(self, tmp_path):
        out = tmp_path / "one"
        code = main(["simulate", "--scenario", "1", "--reps", "1", "--n", "400",
                     "--seed", "8", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert all(ps["sd"] == 0.0 for ps in summary["params"].values())

    def test_extended_scenario_six(self, tmp_path):
        out = tmp_path / "s6"
        code = main(["simulate", "--scenario", "6", "--reps", "2", "--n", "1000",
                     "--seed", "2", "--extended", "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert {"psi0", "psi1"} <= set(summary["params"])

    @pytest.mark.parametrize("flag, value, message", [
        ("--beta", "-0.5,0.2", None),
        ("--eta", "-0.5,-0.62,-7,-5.71", None),
        ("--s-gamma", "-0.6,0.19", "gamma parameters must be positive"),
        ("--noise", "-0.1,0.02", "s jitter half-width must be >= 0, got -0.1"),
    ], ids=["beta", "eta", "s-gamma", "noise"])
    def test_list_value_may_start_with_minus(self, tmp_path, capsys, flag, value, message):
        # argparse took "-0.5,0.2" for an option: "expected one argument"
        args = ["simulate", "--scenario", "1", "--reps", "1", "--n", "200", "--seed", "4"]
        spaced, joined = tmp_path / "spaced", tmp_path / "joined"
        code = main(args + [flag, value, "--out", str(spaced)])
        err = capsys.readouterr().err
        assert main(args + [f"{flag}={value}", "--out", str(joined)]) == code
        assert capsys.readouterr().err == err
        if message is None:
            assert code == 0 and err == ""
            assert ((spaced / "replicates.csv").read_bytes()
                    == (joined / "replicates.csv").read_bytes())
        else:
            assert code == 1 and err == f"error: {message}\n"

    def test_only_list_flags_join_a_negative_value(self, capsys):
        argv = ["simulate", "--seed", "-3", "--beta", "-.5,1", "--out", "-1,2", "--noise", "0,0"]
        assert cli._join_negative_lists(argv) == [
            "simulate", "--seed", "-3", "--beta=-.5,1", "--out", "-1,2", "--noise", "0,0"]
        assert main(["simulate", "--scenario", "1", "--reps", "1", "--beta", "--eta",
                     "1,2,3,4", "--out", "x"]) == 1
        assert "argument --beta: expected one argument" in capsys.readouterr().err

    def test_scenario_seven_override(self, tmp_path):
        out = tmp_path / "s7"
        code = main(["simulate", "--scenario", "7", "--reps", "2", "--n", "400",
                     "--seed", "3", "--odn-z-coeff", "0.4", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["odn_z_coeff"] == 0.4

    @pytest.mark.parametrize("threads", [None, "1"])
    def test_manifest_records_what_bit_identity_rests_on(self, tmp_path, monkeypatch, threads):
        # outputs are promised bit-identical per numpy release and thread count
        if threads is None:
            monkeypatch.delenv("RECENCY_THREADS", raising=False)
        else:
            monkeypatch.setenv("RECENCY_THREADS", threads)
        out = tmp_path / "s1"
        assert main(["simulate", "--scenario", "1", "--reps", "1", "--n", "300",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["numpy_version"] == np.__version__
        assert manifest["python_version"] == platform.python_version()
        assert manifest["recency_threads"] == threads


class TestPredictCommand:
    @pytest.fixture()
    def fit_dir(self, data_csv, tmp_path):
        out = tmp_path / "fit"
        assert main(["fit", "--data", str(data_csv), "--covariates", "odn",
                     "--out", str(out)]) == 0
        return out

    def test_labeled_rows_exact(self, data_csv, fit_dir, tmp_path):
        out = tmp_path / "pred"
        code = main(["predict", "--fit", str(fit_dir / "fit.json"),
                     "--data", str(data_csv), "--out", str(out)])
        assert code == 0
        with open(out / "predictions.csv") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            if row["label"] == "recent":
                assert float(row["type2"]) == 1.0
            elif row["label"] == "longterm":
                assert float(row["type2"]) == 0.0

    @pytest.mark.parametrize("edit, key", [
        (lambda doc: doc.pop("spec"), "spec"),
        (lambda doc: doc.pop("beta"), "beta"),
        (lambda doc: doc.pop("eta"), "eta"),
        (lambda doc: doc.update(eta=[7.0, -0.6]), "eta"),
        (lambda doc: doc["spec"].pop("fix_eta00"), "fix_eta00"),
        (lambda doc: doc["spec"].update(fix_eta20=1.0), "fix_eta20"),
        pytest.param(lambda doc: doc["eta"].pop("eta01"), "eta01", id="eta-name-missing"),
        pytest.param(lambda doc: doc["eta"].update(eta20=1.0), "eta20", id="eta-name-unknown"),
        pytest.param(lambda doc: doc["eta"].update(eta00=6.5), "eta00", id="fixed-eta-moved"),
        pytest.param(lambda doc: doc["beta"].pop(), "beta", id="beta-short"),
        pytest.param(lambda doc: doc["beta"].append(0.5), "beta", id="beta-long"),
        pytest.param(lambda doc: doc.update(beta=[None, *doc["beta"][1:]]), "beta0",
                     id="beta-not-a-number"),
        pytest.param(lambda doc: doc.update(psi=[0.1, -0.1]), "psi", id="psi-not-extended"),
        pytest.param(lambda doc: doc["spec"].update(extended=True), "psi",
                     id="extended-no-psi"),
        pytest.param(lambda doc: doc.update(eta_x=0.3), "eta_x", id="eta_x-no-z-model"),
        pytest.param(lambda doc: doc["spec"].update(z_model_covariate="odn"), "eta_x",
                     id="z-model-no-eta_x"),
        pytest.param(lambda doc: doc["spec"].update(extended="yes"), "extended",
                     id="spec-flag-not-boolean"),
        pytest.param(lambda doc: doc["spec"].update(covariate_names="odn"), "covariate_names",
                     id="spec-covariates-a-string"),
        pytest.param(lambda doc: doc["spec"].update(fix_eta00="7"), "fix_eta00",
                     id="spec-fix-not-a-number"),
        pytest.param(lambda doc: doc["spec"].update(z_model_covariate=1), "z_model_covariate",
                     id="spec-z-model-not-a-string"),
        pytest.param(lambda doc: doc.update(covariates=["age"]), "covariates",
                     id="covariates-copy-differs"),
        # a truncated file: the edit returns the text to write
        pytest.param(lambda doc: json.dumps(doc)[:-1], None, id="not-json"),
    ])
    def test_malformed_fit_file_exit_1_names_key(self, data_csv, fit_dir, tmp_path, capsys,
                                                 edit, key):
        doc = json.loads((fit_dir / "fit.json").read_text())
        text = edit(doc)
        bad = tmp_path / "bad_fit.json"
        bad.write_text(text if isinstance(text, str) else json.dumps(doc))
        out = tmp_path / "pred_bad"
        assert main(["predict", "--fit", str(bad), "--data", str(data_csv),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and ("line 1 column" if key is None else repr(key)) in err
        assert not out.exists()

    def test_undefined_incidence_exit_1_writes_nothing(self, data_csv, fit_dir, tmp_path,
                                                       capsys):
        # p_hiv = 1 with p_art = 1 leaves no one at risk: 0 / 0
        out = tmp_path / "pred_undefined"
        assert main(["predict", "--fit", str(fit_dir / "fit.json"), "--data", str(data_csv),
                     "--out", str(out), "--p-hiv", "1", "--p-art", "1"]) == 1
        captured = capsys.readouterr()
        assert "error: incidence undefined: p_hiv = 1 with p_art = 1" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_ids_of_kept_rows(self, data_csv, fit_dir, tmp_path):
        def ids(path):
            with open(path, newline="") as fh:
                return [row["id"] for row in csv.DictReader(fh)]

        with open(data_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[3][3] = "NA"   # row p2 loses its test result and is dropped
        gap = tmp_path / "gap.csv"
        with open(gap, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        out = tmp_path / "pred_ids"
        assert main(["predict", "--fit", str(fit_dir / "fit.json"),
                     "--data", str(gap), "--out", str(out)]) == 0
        assert ids(out / "predictions.csv") == [r[0] for r in rows[1:] if r[0] != "p2"]
        assert ids(fit_dir / "predictions.csv") == [r[0] for r in rows[1:]]

    def test_incidence_printed_when_requested(self, data_csv, fit_dir, tmp_path, capsys):
        code = main(["predict", "--fit", str(fit_dir / "fit.json"),
                     "--data", str(data_csv), "--out", str(tmp_path / "p2"),
                     "--p-hiv", "0", "--p-art", "0.5"])
        assert code == 0
        assert "incidence: 0.000000" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--p-hiv", "--p-art"])
    def test_unpaired_prevalence_flag_writes_nothing(self, data_csv, fit_dir, tmp_path,
                                                     capsys, flag):
        out = tmp_path / "p_unpaired"
        code = main(["predict", "--fit", str(fit_dir / "fit.json"),
                     "--data", str(data_csv), "--out", str(out), flag, "0.1"])
        assert code == 1
        assert "--p-hiv and --p-art must be given together" in capsys.readouterr().err
        assert not (out / "predictions.csv").exists()

    @pytest.mark.parametrize("p_hiv,p_art,flag", [("1.5", "0.5", "--p-hiv"),
                                                   ("0.1", "-0.2", "--p-art"),
                                                   ("nan", "0.5", "--p-hiv")])
    def test_prevalence_out_of_range_writes_nothing(self, data_csv, fit_dir, tmp_path,
                                                    capsys, p_hiv, p_art, flag):
        out = tmp_path / "p_range"
        code = main(["predict", "--fit", str(fit_dir / "fit.json"),
                     "--data", str(data_csv), "--out", str(out),
                     "--p-hiv", p_hiv, "--p-art", p_art])
        assert code == 1
        assert f"{flag} must be in [0, 1]" in capsys.readouterr().err
        assert not (out / "predictions.csv").exists()

    def test_no_incidence_without_flags(self, data_csv, fit_dir, tmp_path, capsys):
        code = main(["predict", "--fit", str(fit_dir / "fit.json"),
                     "--data", str(data_csv), "--out", str(tmp_path / "p3")])
        assert code == 0
        assert "incidence" not in capsys.readouterr().out

    @staticmethod
    def predict_rows(fit_dir, tmp_path, name, odn_values):
        path = tmp_path / f"{name}.csv"
        lines = ["id,weight,s,z,odn"] + [f"{name}{i},1.0,2.5,0,{v}"
                                          for i, v in enumerate(odn_values)]
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / name
        assert main(["predict", "--fit", str(fit_dir / "fit.json"),
                     "--data", str(path), "--out", str(out)]) == 0
        with open(out / "predictions.csv", newline="") as fh:
            return [(row["type1"], row["type2"]) for row in csv.DictReader(fh)]

    def test_frozen_moments_separate_shifted_batches(self, fit_dir, tmp_path):
        # new rows go on the fitted sample's scale, not their own
        low = self.predict_rows(fit_dir, tmp_path, "low", (2, 4))
        high = self.predict_rows(fit_dir, tmp_path, "high", (102, 104))
        assert low[0] != low[1]
        assert low != high

    def test_one_row_batch(self, fit_dir, tmp_path):
        assert len(self.predict_rows(fit_dir, tmp_path, "one", (2,))) == 1

    def test_fit_without_moments_names_covariate(self, data_csv, fit_dir, tmp_path, capsys):
        doc = json.loads((fit_dir / "fit.json").read_text())
        del doc["preprocessing"]
        (fit_dir / "fit.json").write_text(json.dumps(doc))
        assert main(["predict", "--fit", str(fit_dir / "fit.json"), "--data", str(data_csv),
                     "--out", str(tmp_path / "p")]) == 1
        assert "odn" in capsys.readouterr().err

    def test_extended_fit_round_trips_through_predict(self, tmp_path):
        # the stored psi scores the fitted sample as the fit itself did
        arrs = generate(default_config("6", n_total=2000, seed=3)).train_arrays
        path = tmp_path / "s6.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "weight", "s", "z", "odn"])
            for i in range(arrs.n):
                writer.writerow([f"p{i}", 1.0, repr(float(arrs.s[i])), int(arrs.z[i]),
                                 repr(float(arrs.x[i, 0]))])
        fit_out, pred_out = tmp_path / "fit", tmp_path / "pred"
        assert main(["fit", "--data", str(path), "--covariates", "odn", "--extended",
                     "--out", str(fit_out)]) == 0
        assert "psi0" in json.loads((fit_out / "fit.json").read_text())["se"]
        assert main(["predict", "--fit", str(fit_out / "fit.json"), "--data", str(path),
                     "--out", str(pred_out)]) == 0
        assert ((pred_out / "predictions.csv").read_bytes()
                == (fit_out / "predictions.csv").read_bytes())

    def test_covariate_mismatch_lists_missing(self, fit_dir, tmp_path, capsys):
        path = tmp_path / "thin.csv"
        path.write_text("id,weight,s,z,age\na,1.0,0.5,0,30\nb,1.0,2.5,1,40\n")
        code = main(["predict", "--fit", str(fit_dir / "fit.json"),
                     "--data", str(path), "--out", str(tmp_path / "p4")])
        assert code == 1
        assert "error: data is missing covariate column(s): odn" in capsys.readouterr().err
        assert not (tmp_path / "p4").exists()


class TestEntryPoint:
    def test_exits_with_mains_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["recency", "fit", "--data", str(tmp_path / "nope.csv"),
                                          "--covariates", "odn", "--out", str(tmp_path / "x")])
        with pytest.raises(SystemExit) as exc:
            cli.entry_point()
        assert exc.value.code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_console_script_help(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import recency
        # the child imports the same source tree as this test process
        src = str(Path(recency.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-m", "recency.cli", "--version"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0

    @staticmethod
    def _child_main(*argvs) -> list:
        """``[exit codes, scipy modules loaded]`` of ``cli.main`` on each
        argv in turn, in one fresh interpreter on this source tree."""
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        code = ("import json, sys; from recency import cli; "
                "rcs = [cli.main(argv) for argv in json.loads(sys.argv[1])]; "
                "print(json.dumps([rcs, sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy')]))")
        argvs = json.dumps([list(map(str, argv)) for argv in argvs])
        proc = subprocess.run([sys.executable, "-c", code, argvs],
                              capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": path})
        return json.loads(proc.stdout.splitlines()[-1])

    def test_predict_loads_no_optimizer(self, data_csv, tmp_path):
        fit_dir = tmp_path / "fit"
        assert main(["fit", "--data", str(data_csv), "--covariates", "odn",
                     "--out", str(fit_dir)]) == 0
        assert self._child_main(["predict", "--fit", fit_dir / "fit.json", "--data", data_csv,
                                 "--out", tmp_path / "pred", "--p-hiv", "0.1",
                                 "--p-art", "0.5"]) == [[0], []]

    def test_fit_loads_the_optimizer(self, data_csv, tmp_path):
        # the fits' optimizer and root-finder are the package's own: a fit
        # loads no scipy module
        assert self._child_main(["fit", "--data", data_csv, "--covariates", "odn",
                                 "--out", tmp_path / "fit"]) == [[0], []]

    def test_extended_fit_and_s2_draw_load_no_scipy(self, tmp_path):
        # the multiplier root-find and the S2 intercept solve use brentq
        assert self._child_main(
            ["simulate", "--scenario", "6", "--extended", "--reps", "1", "--n", "1000",
             "--out", tmp_path / "s6"],
            ["simulate", "--scenario", "2", "--reps", "1", "--n", "600",
             "--out", tmp_path / "s2"]) == [[0, 0], []]
