import json
import math
import os

import numpy as np
import pytest

from randcorr.cli import main, parse_scalar
from randcorr.errors import NumericalError
from randcorr.experiments import (ExperimentConfig, TrialRecord,
                                  summarize_records, verdicts)
from randcorr.linalg import write_matrix_csv
from randcorr.norms import (BellFunctional, classical_upper_bound, gap_from_bell,
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


def test_classical_unconverged_certifies_no_upper_bound(tmp_path, capsys):
    # column generation cut off at 5 atoms still uses elastic slack: its
    # weight sum (0.50) sits below the certified lower bound (1.02)
    mat = gaussian(10, 10, SeedSpec(7, 0)) / math.sqrt(10)
    mpath = tmp_path / "g10.csv"
    write_matrix_csv(mpath, mat)
    out = str(tmp_path / "classical.json")
    assert main(["classical", "--matrix", str(mpath), "--max-atoms", "5",
                 "--out", out]) == 0
    assert "no upper bound" in capsys.readouterr().out
    doc = json.loads(open(out).read())
    assert doc["results"]["upper"] is None
    assert not doc["results"]["converged"]
    assert doc["results"]["residual"] > 1e-6
    assert [c["claims"] for c in doc["certificates"]] == ["classical_lower"]
    assert main(["verify-certificate", out]) == 0
    # a slack-using decomposition is rejected even when it states its residual
    dec = classical_upper_bound(np.asarray(doc["matrix"]), max_atoms=5)
    doc["certificates"].append({"claims": "classical_upper",
                                "value": dec.weight_sum(),
                                "certificate": dec.to_dict()})
    with open(out, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert main(["verify-certificate", out]) == 1
    assert "does not reconstruct" in capsys.readouterr().out


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


def test_spectral_subcommand_with_csv(tmp_path, capsys):
    csv = str(tmp_path / "law.csv")
    out = str(tmp_path / "law.json")
    assert main(["spectral", "--alpha", "1", "--grid-points", "500",
                 "--csv", csv, "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert doc["results"]["support_upper"] == pytest.approx(6.75, abs=0.05)
    assert os.path.exists(csv)


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


@pytest.mark.parametrize("edit", ["emptied", "truncated", "renamed", "value", "threshold"])
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
    else:
        verdicts[1]["threshold"] = 0.25
    with open(out, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert main(["verify-certificate", out]) == 1
    assert "FAIL verdict" in capsys.readouterr().out


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
    ("gap", "bell_norm_exact"), ("classical", "upper_certificate_dropped")])
def test_verify_rejects_edited_results(tmp_path, capsys, kind, edit):
    mpath = tmp_path / "g.csv"
    write_matrix_csv(mpath, gaussian(6, 6, SeedSpec(13, 0)) / math.sqrt(6))
    out = str(tmp_path / f"{kind}.json")
    assert main([kind, "--matrix", str(mpath), "--out", out]) == 0
    assert main(["verify-certificate", out]) == 0
    doc = json.loads(open(out).read())
    if edit == "bell_norm_exact":
        doc["results"][edit] = not doc["results"][edit]
    elif edit == "upper_certificate_dropped":
        doc["certificates"] = [c for c in doc["certificates"]
                               if c["claims"] != "classical_upper"]
    else:
        doc["results"][edit] *= 1.5
    with open(out, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert main(["verify-certificate", out]) == 1
    assert "FAIL results" in capsys.readouterr().out


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


@pytest.mark.parametrize("entry", ["results", "certificate"])
def test_verify_non_numeric_value_is_a_failure(id4, tmp_path, capsys, entry):
    out = str(tmp_path / "norm.json")
    assert main(["norm", "--matrix", id4, "--out", out]) == 0
    doc = json.loads(open(out).read())
    if entry == "results":
        doc["results"]["value"] = "abc"
    else:
        doc["certificates"][0]["value"] = "abc"
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


def test_numerical_error_detail_on_stderr(id4, monkeypatch, capsys):
    import randcorr.cli as cli_mod

    def failing_bracket(mat):
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
