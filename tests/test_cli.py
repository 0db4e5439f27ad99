import json
import math
import os

import numpy as np
import pytest

from randcorr.cli import main, parse_scalar
from randcorr.errors import NumericalError
from randcorr.experiments import (ExperimentConfig, TrialRecord, default_config,
                                  summarize_records, verdicts)
from randcorr.linalg import read_matrix_csv, write_matrix_csv
from randcorr.norms import (BellFunctional, FactorizationPair, bell_functional_from_svd,
                            classical_lower_bound, classical_upper_bound, gap_from_bell,
                            quantum_classical_gap)
from randcorr.sampling import SeedSpec, gaussian


@pytest.fixture()
def id4(tmp_path):
    path = tmp_path / "id4.csv"
    write_matrix_csv(path, np.eye(4))
    return str(path)


def test_parse_scalar():
    assert parse_scalar("sqrt(16/15)") == pytest.approx(math.sqrt(16 / 15))
    assert parse_scalar("8/(3pi)") == pytest.approx(8 / (3 * math.pi))
    assert parse_scalar("2sqrt(2)") == pytest.approx(2 * math.sqrt(2))
    assert parse_scalar("ln(2) + 1") == pytest.approx(math.log(2) + 1)
    assert parse_scalar("-3/2") == -1.5
    assert parse_scalar("1e-3") == 1e-3
    with pytest.raises(Exception):
        parse_scalar("sqrt(")
    with pytest.raises(Exception):
        parse_scalar("2 $ 3")


def test_norm_subcommand_prints_value(id4, capsys):
    assert main(["norm", "--matrix", id4, "--which", "infty-to-one"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_norm_report_written_and_verifies(id4, tmp_path, capsys):
    out = str(tmp_path / "norm.json")
    assert main(["norm", "--matrix", id4, "--which", "infty-to-one",
                 "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert doc["schema_version"] == "1"
    assert doc["results"]["value"] == 4.0
    # sign-pair certificate re-evaluates to n for the identity
    assert main(["verify-certificate", out]) == 0
    assert "verified" in capsys.readouterr().out


def test_gap_report_round_trip_and_verify(tmp_path, capsys):
    mat = gaussian(6, 6, SeedSpec(3, 0)) / math.sqrt(6)
    mpath = tmp_path / "g.csv"
    write_matrix_csv(mpath, mat)
    out = str(tmp_path / "gap.json")
    assert main(["gap", "--matrix", str(mpath), "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert json.loads(json.dumps(doc)) == doc
    assert main(["verify-certificate", out]) == 0


def test_gap_report_matches_quantum_classical_gap(tmp_path, capsys):
    mat = gaussian(12, 12, SeedSpec(3, 1)) / math.sqrt(12)
    mpath = tmp_path / "g.csv"
    write_matrix_csv(mpath, mat)
    out = str(tmp_path / "gap.json")
    assert main(["gap", "--matrix", str(mpath), "--seed", "4", "--out", out]) == 0
    doc = json.loads(open(out).read())
    want = quantum_classical_gap(np.asarray(doc["matrix"]), seed=SeedSpec(4, 0))
    assert doc["results"]["gap"] == want


def test_gap_takes_one_svd_of_the_matrix(tmp_path, monkeypatch):
    # the Bell functional and the gamma2 bracket share one SVD of t; the
    # bracket's later SVDs are of rescaled copies
    import randcorr.cli as cli_mod
    import randcorr.norms as norms_mod
    mat = gaussian(8, 8, SeedSpec(3, 2)) / math.sqrt(8)
    mpath = tmp_path / "g.csv"
    write_matrix_csv(mpath, mat)
    seen = []

    def counting(real):
        def svd(m):
            seen.append(np.array_equal(m, mat))
            return real(m)
        return svd

    # raising=False: the count holds even where cli reaches svd only through norms
    monkeypatch.setattr(cli_mod, "svd", counting(norms_mod.svd), raising=False)
    monkeypatch.setattr(norms_mod, "svd", counting(norms_mod.svd))
    assert main(["gap", "--matrix", str(mpath)]) == 0
    assert seen.count(True) == 1


def test_classical_unconverged_certifies_a_looser_upper_bound(tmp_path, capsys):
    # column generation cut off at 5 atoms still uses elastic slack: the
    # weight sum (1.54) alone bounds nothing, but adding the reconstruction
    # error's l1 mass certifies 2.39 above the lower bound (1.02)
    mat = gaussian(10, 10, SeedSpec(7, 0)) / math.sqrt(10)
    mpath = tmp_path / "g10.csv"
    write_matrix_csv(mpath, mat)
    out = str(tmp_path / "classical.json")
    assert main(["classical", "--matrix", str(mpath), "--max-atoms", "5",
                 "--out", out]) == 0
    assert "stopped unconverged" in capsys.readouterr().out
    doc = json.loads(open(out).read())
    results = doc["results"]
    dec = classical_upper_bound(np.asarray(doc["matrix"]), max_atoms=5).upper_certificate
    assert not results["converged"] and results["residual"] > 1e-6
    assert results["upper"] == dec.upper_bound(doc["matrix"]) > dec.weight_sum()
    assert results["lower"] < results["upper"]
    assert [c["claims"] for c in doc["certificates"]] == ["classical_lower",
                                                          "classical_upper"]
    assert main(["verify-certificate", out]) == 0

    def weight_sum_only(d):
        d["certificates"][1]["value"] = d["results"]["upper"] = dec.weight_sum()

    for edit in (lambda d: d["results"].update(upper=0.9 * d["results"]["upper"]),
                 lambda d: d["certificates"][1].update(value=0.9 * d["results"]["upper"]),
                 weight_sum_only,
                 lambda d: d["results"].update(residual=d["results"]["residual"] / 2),
                 lambda d: d["certificates"][1]["certificate"].update(residual=0.5)):
        edited = json.loads(json.dumps(doc))
        edit(edited)
        with open(out, "w") as fh:
            json.dump(edited, fh)
        capsys.readouterr()
        assert main(["verify-certificate", out]) == 1
        assert "FAIL " in capsys.readouterr().out


@pytest.mark.parametrize("n, max_atoms", [(2, 400), (6, 400), (10, 5)])
def test_classical_flags_are_python_bools_and_the_report_serialises(tmp_path, n, max_atoms):
    # numpy bools in the results would make json.dumps of the report fail
    mat = (np.array([[1.0, 1.0], [1.0, -1.0]]) if n == 2
           else gaussian(n, n, SeedSpec(7, 0)) / math.sqrt(n))
    bracket = classical_upper_bound(mat, max_atoms=max_atoms)
    mpath = tmp_path / "m.csv"
    write_matrix_csv(mpath, mat)
    out = str(tmp_path / "classical.json")
    assert main(["classical", "--matrix", str(mpath), "--max-atoms", str(max_atoms),
                 "--out", out]) == 0
    results = json.loads(open(out).read())["results"]
    # both flags restate the bracket's closure to --tol (default 1e-9)
    closed = bracket.upper - bracket.lower <= 1e-9
    assert results["converged"] is closed and results["certified"] is closed
    assert results["converged"] is (max_atoms == 400)
    assert main(["verify-certificate", out]) == 0


@pytest.mark.parametrize("edit", ["entry", "eps_one_norm"])
def test_verify_rejects_an_edited_dual_functional(tmp_path, capsys, edit):
    # a converged n = 6 report's lower end is a priced dual Y, above the
    # UV^t bound; Y is re-enumerated, so its norm must be eps_one_norm and
    # <t, Y> over it the claimed lower bound
    mat = gaussian(6, 6, SeedSpec(13, 0)) / math.sqrt(6)
    mpath = tmp_path / "g6.csv"
    write_matrix_csv(mpath, mat)
    out = str(tmp_path / "classical.json")
    assert main(["classical", "--matrix", str(mpath), "--out", out]) == 0
    assert main(["verify-certificate", out]) == 0
    doc = json.loads(open(out).read())
    mat = np.asarray(doc["matrix"])
    assert doc["results"]["lower"] > classical_lower_bound(mat, bell_functional_from_svd(mat))
    lower = doc["certificates"][0]
    assert lower["claims"] == "classical_lower" and lower["certificate"]["exact"]
    if edit == "entry":
        y = lower["certificate"]["a"]
        i, j = np.unravel_index(np.argmax(np.abs(y)), (6, 6))
        y[i][j] *= 1.5
    else:
        lower["certificate"]["eps_one_norm"] *= 1.5
    with open(out, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert main(["verify-certificate", out]) == 1
    assert "FAIL certificate 0 (classical_lower)" in capsys.readouterr().out


def test_parser_built_once_keeps_no_state_between_calls(tmp_path):
    # main reuses one parser per process: an option given to one call must
    # not become a default of the next
    mat = gaussian(6, 6, SeedSpec(7, 1)) / math.sqrt(6)
    mpath = tmp_path / "g6.csv"
    write_matrix_csv(mpath, mat)
    configs = []
    for i, extra in enumerate((["--max-atoms", "5"], [])):
        out = str(tmp_path / f"classical{i}.json")
        assert main(["classical", "--matrix", str(mpath), *extra, "--out", out]) == 0
        configs.append(json.loads(open(out).read())["config"])
    assert configs[0]["max_atoms"] == 5
    assert configs[1]["max_atoms"] == 400


def test_classical_refuses_above_exact_cap_after_reading_the_csv(tmp_path, monkeypatch,
                                                                  capsys):
    # no SVD, enumeration, ascent or LP runs before the size is refused
    import randcorr.norms as norms_mod
    calls = []
    for name in ("svd", "_top_atoms", "infty_to_one_heuristic", "linprog"):
        monkeypatch.setattr(norms_mod, name,
                            lambda *a, _name=name, **k: calls.append(_name)
                            or pytest.fail(f"{_name} ran"))
    mpath = tmp_path / "g25.csv"
    write_matrix_csv(mpath, gaussian(25, 25, SeedSpec(7, 0)))
    out = tmp_path / "classical.json"
    assert main(["classical", "--matrix", str(mpath), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err
    line = json.loads(err)
    assert line["error"] == "validation" and "EXACT_CAP" in line["message"]
    assert calls == [] and not out.exists()


def test_classical_takes_no_seed(tmp_path, capsys):
    mpath = tmp_path / "chsh.csv"
    write_matrix_csv(mpath, np.array([[1.0, 1.0], [1.0, -1.0]]))
    with pytest.raises(SystemExit) as exc:
        main(["classical", "--matrix", str(mpath), "--seed", "3"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_classical_config_has_no_seed_and_stored_seeds_still_verify(tmp_path,
                                                                    monkeypatch):
    # reports written while classical took --seed carry it in their config
    monkeypatch.setenv("RANDCORR_OUT", str(tmp_path / "reports"))
    mpath = tmp_path / "g6.csv"
    write_matrix_csv(mpath, gaussian(6, 6, SeedSpec(7, 1)) / math.sqrt(6))
    assert main(["classical", "--matrix", str(mpath)]) == 0
    out = tmp_path / "reports" / "classical-seed0.json"
    doc = json.loads(out.read_text())
    assert "seed" not in doc["config"]
    doc["config"]["seed"] = 0
    out.write_text(json.dumps(doc))
    assert main(["verify-certificate", str(out)]) == 0


def test_verify_detects_tampered_decomposition(tmp_path, capsys):
    mat = np.array([[1.0, 1.0], [1.0, -1.0]])
    mpath = tmp_path / "chsh.csv"
    write_matrix_csv(mpath, mat)
    out = str(tmp_path / "classical.json")
    assert main(["classical", "--matrix", str(mpath), "--out", out]) == 0
    doc = json.loads(open(out).read())
    for cert in doc["certificates"]:
        if cert["certificate"]["type"] == "convex_decomposition":
            cert["certificate"]["weights"][0] *= 1.5
    with open(out, "w") as fh:
        json.dump(doc, fh)
    assert main(["verify-certificate", out]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_rejects_scaled_bell_functional_above_cap(tmp_path, capsys):
    # above EXACT_CAP the functional's norm is certified by n ||a||_op; a
    # doubled a has norm up to 2n, so the stored claim n must not verify
    mat = gaussian(26, 26, SeedSpec(3, 2)) / math.sqrt(26)
    mpath = tmp_path / "g26.csv"
    write_matrix_csv(mpath, mat)
    out = str(tmp_path / "gap.json")
    assert main(["gap", "--matrix", str(mpath), "--restarts", "2", "--out", out]) == 0
    assert main(["verify-certificate", out]) == 0
    doc = json.loads(open(out).read())
    [cert] = [c for c in doc["certificates"] if c["claims"] == "bell_functional"]
    assert cert["value"] == 26.0 and not cert["certificate"]["exact"]
    cert["certificate"]["a"] = (2.0 * np.asarray(cert["certificate"]["a"])).tolist()
    with open(out, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert main(["verify-certificate", out]) == 1
    assert "bell_functional" in capsys.readouterr().out


def test_threshold_subcommand(capsys):
    assert main(["threshold", "--gap", "sqrt(16/15)"]) == 0
    out = capsys.readouterr().out
    value = float(out.strip().split("=")[1])
    assert value == pytest.approx(0.1269, abs=0.001)


def test_threshold_above_one_verifies(tmp_path):
    # the crossing for 2 sqrt(16/15) lies above alpha = 1, where the bracket
    # search starts: its upper end is doubled until the objective is <= 0
    out = str(tmp_path / "threshold.json")
    assert main(["threshold", "--gap", "2sqrt(16/15)", "--out", out]) == 0
    assert json.loads(open(out).read())["results"]["alpha0"] > 1.0
    assert main(["verify-certificate", out]) == 0


def test_spectral_subcommand_with_csv(tmp_path, capsys):
    csv = str(tmp_path / "law.csv")
    out = str(tmp_path / "law.json")
    assert main(["spectral", "--alpha", "1", "--grid-points", "500",
                 "--csv", csv, "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert doc["results"]["support_upper"] == pytest.approx(6.75, abs=0.05)
    assert os.path.exists(csv)


def test_spectral_csv_creates_its_directory(tmp_path):
    csv = tmp_path / "new" / "dir" / "law.csv"
    assert main(["spectral", "--alpha", "1", "--grid-points", "500", "--csv", str(csv)]) == 0
    assert csv.read_text().count("\n") > 500


def test_sample_out_creates_its_directory(tmp_path):
    out = tmp_path / "new" / "dir" / "g.csv"
    assert main(["sample", "--kind", "gaussian", "--n", "3", "--out", str(out)]) == 0
    assert read_matrix_csv(out).shape == (3, 3)


def test_sample_subcommand_round_trip(tmp_path):
    out = str(tmp_path / "h.csv")
    assert main(["sample", "--kind", "haar_orthogonal", "--n", "5",
                 "--seed", "9", "--out", out]) == 0
    from randcorr.linalg import read_matrix_csv
    from randcorr.sampling import haar_orthogonal
    assert np.array_equal(read_matrix_csv(out), haar_orthogonal(5, SeedSpec(9, 0)))


def test_experiment_reports_byte_identical(tmp_path):
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    args = ["experiment", "--scenario", "tau_approximation", "--trials", "3",
            "--seed", "7"]
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_experiment_verdict_failure_exit_code(tmp_path):
    cfg = {"scenario": "qc_gap", "sizes": [8], "trials": 2, "master_seed": 1,
           "thresholds": {"freq_min": 1.1}, "params": {}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["experiment", "--config", str(cfg_path)]) == 3


def test_experiment_report_verifies(tmp_path):
    out = str(tmp_path / "exp.json")
    assert main(["experiment", "--scenario", "tau_approximation", "--trials",
                 "3", "--seed", "11", "--out", out]) == 0
    assert main(["verify-certificate", out]) == 0
    # tamper with one trial value: summaries no longer match
    doc = json.loads(open(out).read())
    doc["trials"][0]["values"]["tau_gap_bound"] += 0.1
    with open(out, "w") as fh:
        json.dump(doc, fh)
    assert main(["verify-certificate", out]) == 1


@pytest.mark.parametrize("edit", ["emptied", "truncated", "renamed", "value", "threshold",
                                  "detail"])
def test_verify_rejects_edited_verdicts(tmp_path, capsys, edit):
    out = str(tmp_path / "exp.json")
    assert main(["experiment", "--scenario", "tau_approximation", "--trials",
                 "3", "--seed", "11", "--out", out]) == 0
    doc = json.loads(open(out).read())
    verdicts = doc["verdicts"]
    assert len(verdicts) == 2
    if edit == "emptied":
        doc["verdicts"] = []
    elif edit == "truncated":
        doc["verdicts"] = verdicts[:1]
    elif edit == "renamed":
        verdicts[1]["name"] = "bound_cap_m9999"
    elif edit == "value":
        verdicts[1]["value"] *= 1.0 + 1e-9  # verdict still passes
    elif edit == "detail":
        verdicts[1]["detail"] += " (edited)"
    else:
        verdicts[1]["threshold"] = 0.25
    with open(out, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert main(["verify-certificate", out]) == 1
    assert "FAIL verdict" in capsys.readouterr().out


@pytest.mark.parametrize("edit", [
    "summary_count", "summary_stat", "summary_size", "scenario", "extra_key",
    "no_trials", "no_summaries", "trial_not_object", "config_not_object"])
def test_verify_rejects_edited_or_malformed_experiment(tmp_path, capsys, edit):
    # the report is compared whole against its rebuild, so every field counts,
    # and a malformed report is a FAIL line, not a traceback
    out = str(tmp_path / "exp.json")
    assert main(["experiment", "--scenario", "tau_approximation", "--trials",
                 "3", "--seed", "11", "--out", out]) == 0
    doc = json.loads(open(out).read())
    if edit == "summary_count":
        doc["summaries"][0]["count"] += 1
    elif edit == "summary_stat":
        doc["summaries"][0]["stat"] = "tau_gap"
    elif edit == "summary_size":
        doc["summaries"][0]["size"] = {"m": 1}
    elif edit == "scenario":
        doc["scenario"] = "qc_gap"
    elif edit == "extra_key":
        doc["note"] = "all verdicts passed"
    elif edit == "no_trials":
        del doc["trials"]
    elif edit == "no_summaries":
        del doc["summaries"]
    elif edit == "trial_not_object":
        doc["trials"][0] = 5
    else:
        doc["config"] = [doc["config"]]
    with open(out, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert main(["verify-certificate", out]) == 1
    assert capsys.readouterr().out.startswith("FAIL ")


def test_timed_experiment_report_verifies(tmp_path):
    out = str(tmp_path / "exp.json")
    assert main(["experiment", "--scenario", "tau_approximation", "--trials",
                 "3", "--seed", "11", "--timings", "--out", out]) == 0
    assert "wall_clock_s" in json.loads(open(out).read())
    assert main(["verify-certificate", out]) == 0


@pytest.mark.parametrize("edit", ["stream_seed", "trial_index", "dropped", "swapped"])
def test_verify_rejects_edited_layout(tmp_path, capsys, edit):
    out = str(tmp_path / "exp.json")
    assert main(["experiment", "--scenario", "tau_approximation", "--trials",
                 "3", "--seed", "11", "--out", out]) == 0
    doc = json.loads(open(out).read())
    trials = doc["trials"]
    if edit == "stream_seed":
        trials[1]["stream_seed"] += 1
    elif edit == "trial_index":
        trials[1]["trial_index"] = 7
    else:
        if edit == "dropped":
            trials.pop()
        else:
            trials[0]["size"], trials[3]["size"] = trials[3]["size"], trials[0]["size"]
        # summaries and verdicts made to match, so only the layout is wrong
        cfg = ExperimentConfig.from_dict(doc["config"])
        records = [TrialRecord.from_dict(t) for t in trials]
        doc["summaries"] = summarize_records(records)
        doc["verdicts"] = [v.to_dict() for v in
                           verdicts(cfg, records, doc["summaries"])]
    with open(out, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert main(["verify-certificate", out]) == 1
    assert "FAIL trial" in capsys.readouterr().out


@pytest.mark.parametrize("kind, edit", [
    ("gap", "gap"), ("gap", "gamma2_upper"), ("classical", "lower"),
    ("classical", "upper"), ("gamma2", "lower"), ("norm", "value"),
    ("gap", "bell_norm_exact"), ("classical", "upper_certificate_dropped"),
    ("classical", "converged"), ("classical", "certified"),
    ("classical", "flags_false_here_and_in_the_payload")])
def test_verify_rejects_edited_results(tmp_path, capsys, kind, edit):
    mpath = tmp_path / "g.csv"
    write_matrix_csv(mpath, gaussian(6, 6, SeedSpec(13, 0)) / math.sqrt(6))
    out = str(tmp_path / f"{kind}.json")
    assert main([kind, "--matrix", str(mpath), "--out", out]) == 0
    assert main(["verify-certificate", out]) == 0
    doc = json.loads(open(out).read())
    if edit in ("bell_norm_exact", "converged", "certified"):
        doc["results"][edit] = not doc["results"][edit]
    elif edit == "upper_certificate_dropped":
        doc["certificates"] = [c for c in doc["certificates"]
                               if c["claims"] != "classical_upper"]
    elif edit == "flags_false_here_and_in_the_payload":
        # both flags are rebuilt from the bracket, and the decomposition
        # payload carries neither
        assert doc["results"]["converged"] and doc["results"]["certified"]
        doc["results"].update(converged=False, certified=False)
        doc["certificates"][1]["certificate"].update(converged=False, certified=False)
    else:
        doc["results"][edit] *= 1.5
    with open(out, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert main(["verify-certificate", out]) == 1
    assert "FAIL results" in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    "gap", "classical", "classical --max-atoms 1", "gamma2", "gamma2 --oracle", "norm",
    "norm --which trace", "threshold --gap sqrt(16/15)", "spectral --alpha 0.5",
    "spectral --alpha 0.5 --ks-n 60 --ks-m 30 --seed 3"])
@pytest.mark.parametrize("key, value", [("certified_gap", 1.5), ("note", "anything")])
def test_verify_rejects_an_added_results_entry(tmp_path, capsys, command, key, value):
    # results are rebuilt by the function the command writes them with, so
    # an entry the command did not write fails, whatever its name and value
    argv = command.split()
    if argv[0] not in ("threshold", "spectral"):
        mpath = tmp_path / "g.csv"
        write_matrix_csv(mpath, gaussian(6, 6, SeedSpec(13, 0)) / math.sqrt(6))
        argv += ["--matrix", str(mpath)]
    out = str(tmp_path / "report.json")
    assert main(argv + ["--out", out]) == 0
    assert main(["verify-certificate", out]) == 0
    doc = json.loads(open(out).read())
    doc["results"][key] = value
    with open(out, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert main(["verify-certificate", out]) == 1
    assert "FAIL results" in capsys.readouterr().out


@pytest.mark.parametrize("edit", ["2*upper", "lower/2", "upper*(1+1e-9)", "abc"])
def test_verify_checks_the_oracle_against_its_bracket(tmp_path, capsys, edit):
    # gamma2_oracle lies inside the bracket, so a stored oracle outside the
    # re-evaluated [lower, upper] fails; at either end it passes
    mpath = tmp_path / "g.csv"
    write_matrix_csv(mpath, gaussian(5, 5, SeedSpec(13, 1)) / math.sqrt(5))
    out = str(tmp_path / "gamma2.json")
    assert main(["gamma2", "--matrix", str(mpath), "--oracle", "--out", out]) == 0
    assert main(["verify-certificate", out]) == 0
    doc = json.loads(open(out).read())
    results = doc["results"]
    assert results["lower"] <= results["oracle"] <= results["upper"]
    for end in ("lower", "upper"):
        results["oracle"] = results[end]
        with open(out, "w") as fh:
            json.dump(doc, fh)
        assert main(["verify-certificate", out]) == 0
    results["oracle"] = {"2*upper": 2.0 * results["upper"], "lower/2": 0.5 * results["lower"],
                         "upper*(1+1e-9)": results["upper"] * (1.0 + 1e-9),
                         "abc": "abc"}[edit]
    with open(out, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert main(["verify-certificate", out]) == 1
    assert "FAIL results" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["1e-6", "1e-4", "0.5", "10"])
def test_oracle_lies_in_the_reported_bracket_at_any_tol(tmp_path, tol):
    # the oracle continues the bracket's own run from the same SVD, so it
    # lies in [lower, upper] exactly, not just to the verifier's 1e-12
    for trial in range(3):
        mpath = tmp_path / f"g{trial}.csv"
        write_matrix_csv(mpath, gaussian(8, 8, SeedSpec(14, trial)) / math.sqrt(8))
        out = str(tmp_path / f"gamma2-{trial}.json")
        assert main(["gamma2", "--matrix", str(mpath), "--oracle", "--tol", tol,
                     "--out", out]) == 0
        results = json.loads(open(out).read())["results"]
        assert results["lower"] <= results["oracle"] <= results["upper"]
        assert main(["verify-certificate", out]) == 0


@pytest.mark.parametrize("forgery", ["one weight, two atoms", "negative weights",
                                     "atoms of length 4"])
def test_verify_rejects_a_forged_classical_upper_bound(tmp_path, capsys, forgery):
    # the projective norm of I_2 is 1 = 0.5 J + 0.5 (1,-1)(1,-1)^t; each
    # forgery claims 0.5 with a payload whose reconstruction would be exact
    # if short weight lists were broadcast, negative weights summed, or
    # sign vectors reshaped to length n
    mpath = tmp_path / "i2.csv"
    write_matrix_csv(mpath, np.eye(2))
    out = str(tmp_path / "classical.json")
    assert main(["classical", "--matrix", str(mpath), "--out", out]) == 0
    assert main(["verify-certificate", out]) == 0
    doc = json.loads(open(out).read())
    upper = doc["certificates"][1]
    assert upper["claims"] == "classical_upper" and upper["value"] == 1.0
    atom = lambda a, b: {"alpha": a, "beta": b, "type": "sign_pair"}
    atoms = upper["certificate"]["atoms"]
    upper["certificate"]["weights"], upper["certificate"]["atoms"] = {
        "one weight, two atoms": ([0.5], atoms),
        "negative weights": ([0.5, 0.5, -0.25, -0.25],
                             atoms + [atom([1, 1], [1, 1]), atom([-1, -1], [1, 1])]),
        "atoms of length 4": ([0.5], [atom([1, 1, 1, -1], [1, 1, 1, -1])]),
    }[forgery]
    upper["value"] = doc["results"]["upper"] = 0.5
    with open(out, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert main(["verify-certificate", out]) == 1
    assert "FAIL certificate 1 (classical_upper): re-evaluation failed" in \
        capsys.readouterr().out


def test_classical_lower_above_upper_fails():
    # lower <= pi(t) <= upper, with no slack beyond rounding; a weight sum of
    # 0.5 that reconstructs I_2 only to 1/2 certifies 0.5 + 2, not 0.5
    from randcorr.norms import ConvexDecomposition
    from randcorr.verify import _classical_bracket_failures
    for lower, upper, fails in ((1.0, 0.5, True), (1.0 + 1e-11, 1.0, True),
                                (1.0 + 1e-13, 1.0, False), (1.0, 1.0, False)):
        assert bool(_classical_bracket_failures(lower, upper)) == fails
    ones = np.ones((1, 2))
    dec = ConvexDecomposition(np.array([0.5]), ones, ones)
    assert dec.upper_bound(np.eye(2)) == 2.5
    assert _classical_bracket_failures(1.0, dec.upper_bound(np.eye(2))) == []


@pytest.mark.parametrize("command, edit", [
    ("threshold --gap sqrt(16/15)", "alpha0=0.5"),
    ("threshold --gap sqrt(16/15)", "alpha0+3tol"),
    ("threshold --gap sqrt(16/15)", "alpha0-3tol"),
    ("threshold --gap sqrt(16/15) --tol 1e-6", "alpha0+3tol"),
    ("threshold --gap sqrt(16/15)", "gap_constant"),
    ("spectral --alpha 0.5", "c_alpha"), ("spectral --alpha 0.5", "support_upper"),
    ("spectral --alpha 0.5", "atom_mass"), ("spectral --alpha 0.5", "total_mass"),
    ("spectral --alpha 0.5", "first_moment"), ("spectral --alpha 4", "alpha"),
    ("spectral --alpha 4 --grid-points 500", "grid_points")],
    ids=["threshold-alpha0_0.5", "threshold-alpha0_up", "threshold-alpha0_down",
         "threshold_tol1e-6-alpha0_up", "threshold-gap_constant", "spectral-c_alpha",
         "spectral-support_upper", "spectral-atom_mass", "spectral-total_mass",
         "spectral-first_moment", "spectral-alpha", "spectral-grid_points"])
def test_verify_checks_threshold_and_spectral_results(tmp_path, capsys, command, edit):
    # alpha0 must bracket the objective's root to within tol; the law's
    # numbers are rebuilt from one density at the stored alpha and grid
    out = str(tmp_path / "report.json")
    assert main(command.split() + ["--out", out]) == 0
    capsys.readouterr()
    assert main(["verify-certificate", out]) == 0
    doc = json.loads(open(out).read())
    config, results = doc["config"], doc["results"]
    if edit == "alpha0=0.5":
        results["alpha0"] = 0.5
    elif edit.startswith("alpha0"):
        results["alpha0"] += (3.0 if edit[6] == "+" else -3.0) * config["tol"]
    elif edit == "gap_constant":
        config["gap_constant"] *= 1.01
    elif edit == "alpha":
        config["alpha"] = 4.1
    elif edit == "grid_points":
        config["grid_points"] = 400
    else:
        results[edit] *= 2.0 if edit == "c_alpha" else 1.0 + 1e-9
    with open(out, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert main(["verify-certificate", out]) == 1
    assert "FAIL results" in capsys.readouterr().out


@pytest.mark.parametrize("edit", ["ks_distance", "ks_n", "ks_m", "seed", "no_draw"])
def test_verify_redraws_the_ks_distance(tmp_path, capsys, edit):
    # --ks-n records its draw in the config, and verify-certificate rebuilds
    # ks_distance from it; a ks_distance whose draw the config does not
    # record cannot be rebuilt, so it fails
    out = str(tmp_path / "report.json")
    assert main(["spectral", "--alpha", "0.5", "--grid-points", "500", "--ks-n", "60",
                 "--ks-m", "30", "--seed", "3", "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert {k: doc["config"][k] for k in ("ks_n", "ks_m", "seed")} == {
        "ks_n": 60, "ks_m": 30, "seed": 3}
    assert 0.0 < doc["results"]["ks_distance"] <= 1.0
    capsys.readouterr()
    assert main(["verify-certificate", out]) == 0
    assert capsys.readouterr().out == "all certificates verified\n"
    if edit == "ks_distance":
        doc["results"]["ks_distance"] *= 1.0 + 1e-9
    elif edit == "no_draw":
        for key in ("ks_n", "ks_m", "seed"):
            del doc["config"][key]
    else:
        doc["config"][edit] = {"ks_n": 80, "ks_m": 40, "seed": 4}[edit]
    with open(out, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert main(["verify-certificate", out]) == 1
    assert "FAIL results" in capsys.readouterr().out


def test_spectral_without_ks_n_records_no_draw(tmp_path):
    out = str(tmp_path / "report.json")
    assert main(["spectral", "--alpha", "0.5", "--grid-points", "500", "--seed", "3",
                 "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert set(doc["config"]) == {"subcommand", "alpha", "grid_points"}
    assert "ks_distance" not in doc["results"]


@pytest.mark.parametrize("command, edit", [
    ("gap", "near_singular"), ("classical", "near_singular"),
    ("norm --which trace", "value"), ("norm --which operator", "value"),
    ("norm --which flatness", "value"), ("classical", "residual"),
    ("classical", "payload_residual")])
def test_verify_rebuilds_what_the_matrix_fixes(tmp_path, capsys, command, edit):
    # the Bell functional's near_singular flag, the trace, operator and
    # flatness values and a decomposition's residual follow from the matrix
    mpath = tmp_path / "g.csv"
    write_matrix_csv(mpath, gaussian(6, 6, SeedSpec(13, 0)) / math.sqrt(6))
    out = str(tmp_path / "report.json")
    assert main(command.split() + ["--matrix", str(mpath), "--out", out]) == 0
    assert main(["verify-certificate", out]) == 0
    doc = json.loads(open(out).read())
    payloads = {c["claims"]: c["certificate"] for c in doc.get("certificates", [])}
    if edit == "near_singular":
        bell = payloads["bell_functional" if command == "gap" else "classical_lower"]
        bell["near_singular"] = not bell["near_singular"]
    elif edit == "value":
        doc["results"]["value"] *= 2.0
    elif edit == "residual":
        assert doc["results"]["upper"] is not None  # the decomposition is kept
        doc["results"]["residual"] = 0.5
    else:
        payloads["classical_upper"]["residual"] = 0.5
    with open(out, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert main(["verify-certificate", out]) == 1
    assert capsys.readouterr().out.startswith("FAIL ")


@pytest.mark.parametrize("scenario, group, key, value", [
    ("qc_gap", "params", "heuristic_restarts", 50),
    ("mean_width", "params", "heuristic_restarts", 50),
    ("nonlocality_sweep", "thresholds", "tau_slack", 0.0)])
def test_reports_with_retired_settings_verify(tmp_path, scenario, group, key, value):
    # reports written while these settings existed still carry them
    cfg = default_config(scenario).to_dict()
    cfg.update(sizes=[8], trials=2)
    cfg[group][key] = value
    cfg_path, out = tmp_path / "cfg.json", str(tmp_path / "exp.json")
    cfg_path.write_text(json.dumps(cfg))
    assert main(["experiment", "--config", str(cfg_path), "--out", out]) in (0, 3)
    assert json.loads(open(out).read())["config"][group][key] == value
    assert main(["verify-certificate", out]) == 0


def test_verify_checks_heuristic_lower_above_cap(tmp_path, capsys):
    # above EXACT_CAP the gap divides by the heuristic lower value, so its
    # attaining pair must reach it: a lowered value, with the gap recomputed
    # to match, fails
    mpath = tmp_path / "g26.csv"
    write_matrix_csv(mpath, gaussian(26, 26, SeedSpec(13, 1)) / math.sqrt(26))
    out = str(tmp_path / "gap26.json")
    assert main(["gap", "--matrix", str(mpath), "--restarts", "2", "--out", out]) == 0
    assert main(["verify-certificate", out]) == 0
    doc = json.loads(open(out).read())
    [payload] = [c["certificate"] for c in doc["certificates"]
                 if c["claims"] == "bell_functional"]
    assert payload["exact"] is False
    payload["heuristic_lower"] *= 0.8
    bell = BellFunctional(np.asarray(payload["a"]), payload["eps_one_norm"], False,
                          heuristic_lower=payload["heuristic_lower"])
    doc["results"]["gap"] = gap_from_bell(np.asarray(doc["matrix"]), bell,
                                          doc["results"]["gamma2_lower"])
    with open(out, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert main(["verify-certificate", out]) == 1
    assert "heuristic_lower" in capsys.readouterr().out


@pytest.mark.parametrize("entry", ["results", "certificate", "NaN", "Infinity"])
def test_verify_non_numeric_value_is_a_failure(id4, tmp_path, capsys, entry):
    # NaN and Infinity (json writes them bare) are set as the certificate's value
    out = str(tmp_path / "norm.json")
    assert main(["norm", "--matrix", id4, "--out", out]) == 0
    doc = json.loads(open(out).read())
    if entry == "results":
        doc["results"]["value"] = "abc"
    else:
        doc["certificates"][0]["value"] = "abc" if entry == "certificate" else float(entry)
    with open(out, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert main(["verify-certificate", out]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("edit", ["no_claims", "no_certificate", "payload_not_object",
                                  "matrix_not_numeric", "certificates_not_list",
                                  "results_not_object"])
def test_verify_malformed_report_is_a_failure(id4, tmp_path, capsys, edit):
    out = str(tmp_path / "norm.json")
    assert main(["norm", "--matrix", id4, "--out", out]) == 0
    doc = json.loads(open(out).read())
    cert = doc["certificates"][0]
    if edit == "no_claims":
        del cert["claims"]
    elif edit == "no_certificate":
        del cert["certificate"]
    elif edit == "payload_not_object":
        cert["certificate"] = [1, -1]
    elif edit == "matrix_not_numeric":
        doc["matrix"][0][0] = "abc"
    elif edit == "certificates_not_list":
        doc["certificates"] = 5
    else:
        doc["results"] = [doc["results"]]
    with open(out, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert main(["verify-certificate", out]) == 1
    assert capsys.readouterr().out.startswith("FAIL ")


def hadamard8():
    h = np.ones((1, 1))
    for _ in range(3):
        h = np.block([[h, h], [h, -h]])
    return h


def test_verify_rejects_factorization_off_by_5e_7(tmp_path, capsys):
    # gamma2_bracket keeps only factorizations reproducing t to 1e-9; one
    # scaled by 1 - 5e-7, with its value and results updated, would put the
    # upper bound below gamma2(H8) = sqrt(8) = the certified lower bound
    mpath = tmp_path / "h8.csv"
    write_matrix_csv(mpath, hadamard8())
    out = str(tmp_path / "gamma2.json")
    assert main(["gamma2", "--matrix", str(mpath), "--out", out]) == 0
    assert main(["verify-certificate", out]) == 0
    doc = json.loads(open(out).read())
    [cert] = [c for c in doc["certificates"] if c["claims"] == "gamma2_upper"]
    x = np.asarray(cert["certificate"]["x"]) * (1.0 - 5e-7)
    cert["certificate"]["x"] = x.tolist()
    cert["value"] = FactorizationPair(x, np.asarray(cert["certificate"]["y"])).value()
    doc["results"]["upper"] = cert["value"]
    assert doc["results"]["upper"] < doc["results"]["lower"] == pytest.approx(math.sqrt(8))
    with open(out, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert main(["verify-certificate", out]) == 1
    assert "does not reproduce the matrix" in capsys.readouterr().out


def test_verify_claim_fixes_the_payload_class(tmp_path, capsys):
    # a sign pair's value is no gamma2 upper bound: a gamma2_upper claim backed
    # by one fails, even with the value and results made to match
    mpath = tmp_path / "g.csv"
    write_matrix_csv(mpath, gaussian(6, 6, SeedSpec(13, 0)) / math.sqrt(6))
    norm_out, out = str(tmp_path / "norm.json"), str(tmp_path / "gamma2.json")
    assert main(["norm", "--matrix", str(mpath), "--out", norm_out]) == 0
    assert main(["gamma2", "--matrix", str(mpath), "--out", out]) == 0
    [sign_cert] = json.loads(open(norm_out).read())["certificates"]
    doc = json.loads(open(out).read())
    [cert] = [c for c in doc["certificates"] if c["claims"] == "gamma2_upper"]
    cert["certificate"], cert["value"] = sign_cert["certificate"], sign_cert["value"]
    doc["results"]["upper"] = sign_cert["value"]
    with open(out, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert main(["verify-certificate", out]) == 1
    assert "FAIL certificate 1 (gamma2_upper)" in capsys.readouterr().out


@pytest.mark.parametrize("edit", ["eps_one_norm", "attaining", "payload_key",
                                  "certificate_key", "report_key"])
def test_verify_rejects_edits_outside_the_claimed_value(tmp_path, capsys, edit):
    mpath = tmp_path / "g.csv"
    write_matrix_csv(mpath, gaussian(6, 6, SeedSpec(3, 0)) / math.sqrt(6))
    out = str(tmp_path / "gap.json")
    assert main(["gap", "--matrix", str(mpath), "--out", out]) == 0
    doc = json.loads(open(out).read())
    [cert] = [c for c in doc["certificates"] if c["claims"] == "bell_functional"]
    payload = cert["certificate"]
    if edit == "eps_one_norm":
        payload["eps_one_norm"] *= 1.5
    elif edit == "attaining":
        payload["attaining"]["alpha"][1] *= -1
    elif edit == "payload_key":
        payload["note"] = 1
    elif edit == "certificate_key":
        cert["note"] = 1
    else:
        doc["note"] = 1
    with open(out, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert main(["verify-certificate", out]) == 1
    assert capsys.readouterr().out.startswith("FAIL ")


def test_verify_report_not_an_object_exits_2(id4, tmp_path, capsys):
    out = str(tmp_path / "norm.json")
    assert main(["norm", "--matrix", id4, "--out", out]) == 0
    doc = json.loads(open(out).read())
    with open(out, "w") as fh:
        json.dump([doc], fh)
    capsys.readouterr()
    assert main(["verify-certificate", out]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "validation"


def test_uncertified_norm_reports_verify(id4, tmp_path):
    # trace, operator and flatness values carry no certificate to check
    for which in ("trace", "operator", "flatness"):
        out = str(tmp_path / f"{which}.json")
        assert main(["norm", "--matrix", id4, "--which", which, "--out", out]) == 0
        assert main(["verify-certificate", out]) == 0


@pytest.mark.parametrize("argv", [
    ["threshold", "--gap", "1/0"], ["threshold", "--gap", "sqrt(-1)"],
    ["threshold", "--gap", "1.5.2"], ["spectral", "--alpha", "ln(0)"],
    ["spectral", "--alpha", "1e400"], ["norm", "--matrix", "BAD_CSV"],
    ["threshold", "--gap", "(" * 2000 + "1" + ")" * 2000],
    ["threshold", "--gap=" + "-" * 2000 + "1"]],
    ids=["div_by_zero", "sqrt_negative", "two_points", "ln_zero", "overflow",
         "csv_cell", "deep_parentheses", "deep_unary_minus"])
def test_malformed_numeric_input_exits_2(tmp_path, capsys, argv):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,x\n")
    argv = [str(bad) if tok == "BAD_CSV" else tok for tok in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err
    assert json.loads(err)["error"] == "validation"


def test_validation_errors_exit_2(tmp_path, capsys):
    assert main(["norm", "--matrix", str(tmp_path / "missing.csv")]) == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"] == "validation"
    assert main(["experiment"]) == 2


@pytest.mark.parametrize("argv", [
    ["experiment", "--scenario", "levy_tails", "--trials", "0"],
    ["experiment", "--scenario", "levy_tails", "--n"],
    ["experiment", "--scenario", "levy_tails", "--threads", "0"],
    ["sample", "--kind", "gaussian", "--n", "3"]],
    ids=["zero_trials", "no_sizes", "zero_threads", "sample_without_out"])
def test_bad_input_is_rejected_not_defaulted(tmp_path, monkeypatch, capsys, argv):
    # no default stands in for the value given, and nothing is drawn first
    import randcorr.cli as cli_mod
    import randcorr.experiments as experiments_mod
    monkeypatch.setattr(cli_mod, "EnsembleSpec",
                        lambda **kw: pytest.fail("sample drew before checking --out"))
    monkeypatch.setattr(experiments_mod, "run_trial",
                        lambda *a: pytest.fail("a trial ran"))
    if argv[0] == "experiment":
        argv = argv + ["--out", str(tmp_path / "report.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err
    assert json.loads(err)["error"] == "validation"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv", [
    ["threshold", "--gap", "sqrt(16/15)", "--tol", "nan"],
    ["threshold", "--gap", "sqrt(16/15)", "--tol", "0"],
    ["gamma2", "--matrix", "ID4", "--oracle", "--tol", "nan"],
    ["gamma2", "--matrix", "ID4", "--oracle", "--tol", "0"],
    ["gamma2", "--matrix", "ID4", "--oracle", "--tol=-1e-4"],
    ["gamma2", "--matrix", "ID4", "--tol", "inf"],
    ["classical", "--matrix", "ID4", "--tol", "nan"],
    ["classical", "--matrix", "ID4", "--tol", "0"]],
    ids=["threshold_nan", "threshold_zero", "oracle_nan", "oracle_zero",
         "oracle_negative", "gamma2_inf", "classical_nan", "classical_zero"])
def test_tol_must_be_positive_and_finite(id4, tmp_path, capsys, argv):
    # before: threshold --tol nan was a ValueError traceback, gamma2 --oracle
    # --tol nan skipped its search and exited 0, and --tol 0 bisected until
    # it gave up with exit 1
    out = tmp_path / "report.json"
    argv = [id4 if tok == "ID4" else tok for tok in argv] + ["--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err
    line = json.loads(err)
    assert line["error"] == "validation" and "--tol" in line["message"]
    assert not out.exists()


def test_numerical_error_detail_on_stderr(id4, monkeypatch, capsys):
    import randcorr.cli as cli_mod

    def failing_bracket(mat, triple=None):
        raise NumericalError("bisection failed", detail={
            "interval": (1.0, 2.0), "roots": np.array([0.5, 1.5]),
            "steps": np.int64(3)})

    monkeypatch.setattr(cli_mod, "gamma2_bracket", failing_bracket)
    assert main(["gamma2", "--matrix", id4]) == 1
    line = json.loads(capsys.readouterr().err.strip())
    assert line == {"error": "numerical", "message": "bisection failed",
                    "detail": {"interval": [1.0, 2.0], "roots": [0.5, 1.5],
                               "steps": 3}}


def test_inputs_not_mutated(id4):
    before = open(id4, "rb").read()
    main(["norm", "--matrix", id4, "--which", "trace"])
    assert open(id4, "rb").read() == before


def test_out_env_default_dir(id4, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RANDCORR_OUT", str(tmp_path / "reports"))
    assert main(["norm", "--matrix", id4, "--which", "operator"]) == 0
    assert (tmp_path / "reports" / "norm-seed0.json").exists()
