"""Command-line interface: exit codes, outputs, manifests, determinism."""

import csv
import json

import numpy as np
import pytest

from recency.cli import main
from recency.simulation import default_config, generate


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    """A comfortably identified dataset in the documented CSV schema."""
    path = tmp_path_factory.mktemp("data") / "survey.csv"
    gen = generate(default_config("1", n_total=2400, seed=42))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "weight", "s", "z", "odn", "age"])
        rng = np.random.default_rng(1)
        for i, sub in enumerate(gen.train):
            writer.writerow([f"p{i}", 1.0, repr(sub.s), sub.z,
                             repr(float(sub.covariates[0])),
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
        gen = generate(default_config("1", n_total=800, seed=7))
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "weight", "s", "z", "odn", "cd4"])
            for i, sub in enumerate(gen.train):
                v = repr(float(sub.covariates[0]))
                writer.writerow([f"p{i}", 1.0, repr(sub.s), sub.z, v, v])
        code = main(["fit", "--data", str(path), "--covariates", "odn,cd4",
                     "--out", str(tmp_path / "out2")])
        assert code == 2


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

    def test_unknown_scenario_usage_error(self, tmp_path):
        code = main(["simulate", "--scenario", "9", "--reps", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 1

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

    def test_scenario_seven_override(self, tmp_path):
        out = tmp_path / "s7"
        code = main(["simulate", "--scenario", "7", "--reps", "2", "--n", "400",
                     "--seed", "3", "--odn-z-coeff", "0.4", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["odn_z_coeff"] == 0.4


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

    def test_covariate_mismatch_lists_missing(self, fit_dir, tmp_path):
        path = tmp_path / "thin.csv"
        path.write_text("id,weight,s,z,age\na,1.0,0.5,0,30\nb,1.0,2.5,1,40\n")
        code = main(["predict", "--fit", str(fit_dir / "fit.json"),
                     "--data", str(path), "--out", str(tmp_path / "p4")])
        assert code == 1


class TestEntryPoint:
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
