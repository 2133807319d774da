import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy

from volterra_cone import (DriftSystem, PathConfig, build_canonical, build_q3, load_params,
                           q3_defaults, simulate)
from volterra_cone import cli, pde, scheme
from volterra_cone.cli import EXPORT_ROWS, _fmt, build_parser, main
from volterra_cone.floatfmt import format_g17
from volterra_cone.presets import params_anchored, preset


def write_params(tmp_path, name="params.json", **overrides):
    payload = {
        "w": [1.0, 2.0],
        "x": [1.0, 10.0],
        "theta": 0.02,
        "lambda": 0.3,
        "nu": 0.3,
        "v0": [1 / 60, 1 / 600],
    }
    payload.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def strict_json(text: str):
    """``json.loads`` of standard JSON only (RFC 8259): Infinity, -Infinity and NaN are refused."""
    def refuse(token):
        raise ValueError(f"{token} is not a JSON number")

    return json.loads(text, parse_constant=refuse)


def test_build_q_canonical(tmp_path):
    params = write_params(tmp_path)
    out = tmp_path / "q.json"
    code = main(["build-q", "--params", str(params), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["admissible"] is True
    assert payload["Q"] == [[1.0, -1.0], [1.0, 2.0]]
    np.testing.assert_array_equal(payload["Qinv"], build_canonical([1.0, 2.0], [1.0, 10.0]).Qinv)
    assert (tmp_path / "q.json.manifest.json").exists()


def test_a_one_factor_model_has_no_worst_offdiagonal_entry(tmp_path):
    params = write_params(tmp_path, w=[2.0], x=[3.0], v0=[0.01])
    out = tmp_path / "q.json"
    assert main(["build-q", "--params", str(params), "--out", str(out)]) == 0
    condition = strict_json(out.read_text())["report"]["offdiag_condition"]
    assert condition == {"ok": True, "worst_entry": None}
    strict_json((tmp_path / "q.json.manifest.json").read_text())


def test_build_q_non_admissible_exits_3(tmp_path):
    params = write_params(tmp_path, w=[1.0, 2.0, 3.0], x=[1.0, 5.0, 25.0],
                          v0=[0.01, 0.002, 0.0005])
    out = tmp_path / "q3.json"
    code = main(["build-q", "--params", str(params), "--family", "q3",
                 "--a", "1.3", "--b", "2.0", "--out", str(out)])
    assert code == 3
    payload = json.loads(out.read_text())
    assert payload["report"]["admissible"] is False


def test_build_q_records_the_model_and_leaves_its_options_to_argv(tmp_path):
    # fig2's own matrix is canonical and ignores --q, so a non-finite --q is not recorded
    # (the q2 family, which uses it, refuses it: case build-q-q2-q-nan of test_bad_input_exits_2)
    out = tmp_path / "q.json"
    argv = ["build-q", "--preset", "fig2", "--q", "nan", "--out", str(out)]
    assert main(argv) == 0
    manifest = strict_json((tmp_path / "q.json.manifest.json").read_text())
    assert manifest["config"] == {"params": preset("fig2")[0].to_dict()}
    assert manifest["argv"] == argv
    assert main(["rerun", "--verify", str(tmp_path / "q.json.manifest.json")]) == 0


def test_a_command_without_a_model_exits_2(tmp_path, capsys):
    out = tmp_path / "q.json"
    assert main(["build-q", "--out", str(out)]) == 2
    assert "either --params FILE or --preset NAME is required" in capsys.readouterr().err
    assert not out.exists()


def test_a_model_with_large_weights_builds_and_simulates(tmp_path):
    # wbar = 1.86e6: its canonical Q 1 misses wbar e_N by one ulp of wbar (2.3e-10)
    model = params_anchored((102464.65, 871663.849, 130227.018, 756689.902),
                            (17.65, 30.04, 54.19, 86.33))
    params = write_params(tmp_path, **model.to_dict())
    assert main(["build-q", "--params", str(params), "--out", str(tmp_path / "q.json")]) == 0
    assert main(["simulate", "--params", str(params), "--T", "0.1", "--M", "10", "--paths", "4",
                 "--out", str(tmp_path / "sim.csv")]) == 0


def test_only_build_q_computes_a_condition_number(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.cond was called")

    monkeypatch.setattr(np.linalg, "cond", refuse)
    assert main(["simulate", "--preset", "fig2", "--M", "10", "--paths", "4",
                 "--out", str(tmp_path / "sim.csv")]) == 0
    assert main(["pde", "--preset", "table1", "--n", "8", "--out", str(tmp_path / "pde.csv")]) == 0
    monkeypatch.undo()
    assert main(["build-q", "--preset", "fig2", "--out", str(tmp_path / "q.json")]) == 0
    report = json.loads((tmp_path / "q.json").read_text())["report"]
    assert report["invertible"]["cond_estimate"] == np.linalg.cond(preset("fig2")[1].Q)


def test_missing_params_file_exits_2(tmp_path):
    out = tmp_path / "q.json"
    assert main(["build-q", "--params", str(tmp_path / "missing.json"), "--out", str(out)]) == 2


THREE_FACTORS = {"w": [1.0, 2.0, 3.0], "x": [1.0, 5.0, 25.0], "v0": [0.01, 0.002, 0.0005]}
# sum(w / x) of the anchor underflows to 0 and overflows to inf
ANCHOR_SUM_UNDERFLOWS = {"w": [1e-300], "x": [1e308], "v0": [0.0]}
ANCHOR_SUM_OVERFLOWS = {"w": [1.0], "x": [1e-320], "v0": [0.02]}
# nu wbar is finite, but nu**2 overflows in the float ** of the variance rate
NU_SQUARED_OVERFLOWS = {"w": [1e-300], "x": [1.0], "v0": [0.02], "nu": 1e200}
# every weight is finite, but their sum wbar overflows; nu = 0 would hide it in nu^2 wbar^2
W_SUM_OVERFLOWS = {"w": [1e308, 1e308], "nu": 0.0, "v0": [0.0, 0.0]}
# wbar is finite, but wbar**2 overflows; the message must not blame nu = 0
WBAR_SQUARED_OVERFLOWS = {**THREE_FACTORS, "w": [1e200, 1e200, 1e200], "nu": 0.0}
# every input is finite, but 4 w1 w2 y2 (y1 + y2) of the q3 bounds overflows
Q3_BOUNDS_OVERFLOW = {**THREE_FACTORS, "w": [1.0, 1.0, 1.0], "x": [1.0, 2.0, 1e170]}
# w @ v0 and sum(w / x) are finite, but the anchor mu / x overflows
ANCHOR_OVERFLOWS = {"w": [1e-300, 1e12], "x": [1e-300, 1e12], "v0": [1e200, 0.5]}
# x v0 in the drift's constant term overflows
DRIFT_CONSTANT_OVERFLOWS = {"w": [1.0, 1.0], "theta": 0.1, "v0": [1.0, 1e308]}
# ||A h||_1 is far past 2^31, and ||A||_1 in units of b's power of two (2^-5) overflows first
NODE_OUT_OF_REACH = {"w": [1.0], "x": [1e308], "v0": [0.0], "nu": 0.0}
# every path stays at 1e308, so the sum in the Monte Carlo mean overflows
INFINITE_STATISTIC = {"w": [1.0], "x": [1.0], "theta": 1e6, "lambda": 1e-320, "nu": 1e-320,
                      "v0": [1e308]}


@pytest.mark.parametrize("argv, overrides, names", [
    (["simulate", "--T", "nan", "--M", "10", "--paths", "2"], {}, "horizon"),
    (["simulate", "--T", "inf", "--M", "10", "--paths", "2"], {}, "horizon"),
    (["mean-check", "--t", "nan", "--M", "10", "--paths", "20"], {}, "horizon"),
    (["pde", "--T", "nan", "--n", "8"], {}, "horizon"),
    (["pde", "--T", "-1", "--n", "8"], {}, "horizon"),
    (["pde-convergence", "--T", "0", "--n-list", "4,8"], {}, "horizon"),
    (["pde", "--box", "0,nan;0,4", "--n", "8"], {}, "box"),
    (["check-domain", "--point", "1,nan"], {}, "point"),
    (["build-q", "--family", "q3"], {"w": [1.0], "x": [1.0], "v0": [0.02]}, "q3"),
    (["simulate", "--M", "10", "--paths", "2"], {"theta": math.nan}, "theta"),
    (["pde", "--n", "8"], {"theta": math.nan}, "theta"),
    (["simulate", "--M", "10", "--paths", "2"], {"lambda": math.inf}, "lambda"),
    (["simulate", "--M", "10", "--paths", "2"], {"nu": math.nan}, "nu"),
    (["simulate", "--M", "10", "--paths", "2"], {"nu": 1e200}, "nu"),
    (["build-q", "--family", "q3", "--b", "inf"], THREE_FACTORS, "family parameter"),
    (["build-q", "--family", "q2", "--q", "nan"], {}, "family parameter"),
    (["mean-check", "--M", "10", "--paths", "1"], {}, "paths"),
    (["simulate", "--M", "10", "--paths", "2"], {"theta": None}, "theta"),
    (["pde", "--n", "8"], {"nu": None}, "nu"),
    (["simulate", "--M", "10", "--paths", "2"], {"lambda": "fast"}, "lambda"),
    (["build-q"], {"w": {"a": 1.0}}, "w must"),
    (["build-q", "--family", "q3", "--a", "1e308"], THREE_FACTORS, "family parameter"),
    (["build-q", "--family", "q3", "--b", "1e308"], THREE_FACTORS, "family parameter"),
    (["build-q", "--family", "q2", "--q", "1e308"], {}, "family parameter"),
    (["build-q", "--family", "q2", "--q", "1e-320"], {}, "family parameter"),
    (["simulate", "--family", "q2", "--q", "1e-320", "--M", "10", "--paths", "2"], {},
     "family parameter"),
    (["mean-check", "--t", "0", "--M", "10", "--paths", "20"], {}, "horizon"),
    (["simulate", "--preset", "fig3a", "--family", "q3", "--a", "1e300", "--M", "10",
      "--paths", "3", "--allow-nonadmissible"], {}, "transformed drift"),
    (["pde", "--preset", "fig3a", "--family", "q3", "--a", "1e300", "--alpha", "1,1,1",
      "--box", "0,4;0,4;0,4", "--n", "4"], {}, "transformed drift"),
    (["simulate", "--preset", "fig2", "--params", "missing.json", "--M", "10", "--paths", "2"],
     {}, "not both"),
    # 500 x (1e11 + 1) x 2 doubles is 727 TiB, past RAM and a 47-bit address space: it fails
    # at once even where the kernel overcommits, and nothing is touched before it
    (["cloud", "--preset", "fig2", "--M", "100000000000", "--paths", "500"], {}, "allocate"),
    (["pde", "--preset", "table1", "--alpha", "1e308,1e308", "--n", "8"], {}, "overflows"),
    (["pde", "--preset", "table1", "--beta", "1e308", "--n", "8"], {}, "overflows"),
    (["simulate", "--preset", "fig2", "--M", "10", "--paths", "2", "--T", "1e308"], {},
     "||A h||_1"),
    (["simulate", "--M", "10", "--paths", "2"], {"lambda": 1e300}, "||A h||_1"),
    (["simulate", "--M", "10", "--paths", "2", "--seed", "-1"], {}, "seed"),
    (["simulate", "--M", "10", "--paths", "2"], {"v0": [1e308, 3e307]}, "shift"),
    (["build-q"], {"w": [3.0, 1.0], "x": [1e200, 1e308]}, "not finite"),
    (["build-q"], {"w": [1e-320, 1e-320]}, "not finite"),
    (["simulate", "--M", "10", "--paths", "2"], ANCHOR_SUM_UNDERFLOWS, "sum(w / x)"),
    (["check-domain", "--point", "0"], ANCHOR_SUM_UNDERFLOWS, "sum(w / x)"),
    (["simulate", "--M", "10", "--paths", "2"], ANCHOR_SUM_OVERFLOWS, "sum(w / x)"),
    (["check-domain", "--point", "0"], ANCHOR_SUM_OVERFLOWS, "sum(w / x)"),
    (["simulate", "--M", "10", "--paths", "2"], NU_SQUARED_OVERFLOWS, "variance rate"),
    (["pde", "--alpha", "1", "--box", "0,4", "--n", "8"], NU_SQUARED_OVERFLOWS, "variance rate"),
    (["build-q"], W_SUM_OVERFLOWS, "sum(w)"),
    (["simulate", "--M", "10", "--paths", "2"], W_SUM_OVERFLOWS, "sum(w)"),
    (["build-q"], WBAR_SQUARED_OVERFLOWS, "wbar = 3e+200"),
    (["simulate", "--M", "10", "--paths", "2"], WBAR_SQUARED_OVERFLOWS, "wbar = 3e+200"),
    (["q3-bounds"], Q3_BOUNDS_OVERFLOW, "q3 bounds"),
    (["simulate", "--M", "10", "--paths", "2"], ANCHOR_OVERFLOWS, "anchor mu / x"),
    (["mean-check", "--M", "10", "--paths", "20"], ANCHOR_OVERFLOWS, "anchor mu / x"),
    (["check-domain", "--point", "1,1"], ANCHOR_OVERFLOWS, "anchor mu / x"),
    (["pde", "--n", "8"], DRIFT_CONSTANT_OVERFLOWS, "transformed drift"),
    (["check-domain", "--point", "1"], {}, "point must have shape (2,)"),
    (["pde", "--alpha", "nan,1", "--n", "8"], {}, "alpha and beta must be finite"),
    (["simulate", "--M", "10", "--paths", "2"], NODE_OUT_OF_REACH, "double-precision reach"),
    (["mean-check", "--M", "5", "--paths", "3"], INFINITE_STATISTIC, "standard error inf"),
], ids=["simulate-T-nan", "simulate-T-inf", "mean-check-t-nan", "pde-T-nan", "pde-T-negative",
        "pde-convergence-T-zero", "pde-box-nan", "check-domain-point-nan",
        "build-q-q3-one-factor", "simulate-theta-nan", "pde-theta-nan", "simulate-lambda-inf",
        "simulate-nu-nan", "simulate-nu-overflows", "build-q-q3-b-inf", "build-q-q2-q-nan",
        "mean-check-one-path", "simulate-theta-null", "pde-nu-null", "simulate-lambda-string",
        "build-q-w-object", "build-q-q3-a-overflows", "build-q-q3-b-overflows",
        "build-q-q2-q-overflows", "build-q-q2-q-underflows", "simulate-q2-q-underflows",
        "mean-check-t-zero", "simulate-q3-drift-overflows", "pde-q3-drift-overflows",
        "simulate-preset-and-params", "cloud-unallocatable", "pde-alpha-overflows",
        "pde-beta-overflows", "simulate-T-overflows", "simulate-lambda-overflows",
        "simulate-seed-negative", "simulate-anchor-overflows", "build-q-canonical-G-overflows",
        "build-q-canonical-w-underflows", "simulate-anchor-sum-underflows",
        "check-domain-anchor-sum-underflows", "simulate-anchor-sum-overflows",
        "check-domain-anchor-sum-overflows", "simulate-nu-squared-overflows",
        "pde-nu-squared-overflows", "build-q-w-sum-overflows", "simulate-w-sum-overflows",
        "build-q-wbar-squared-overflows", "simulate-wbar-squared-overflows",
        "q3-bounds-overflows", "simulate-anchor-divide-overflows",
        "mean-check-anchor-divide-overflows", "check-domain-anchor-divide-overflows",
        "pde-drift-constant-overflows", "check-domain-point-short", "pde-alpha-nan",
        "simulate-node-out-of-reach", "mean-check-statistic-infinite"])
def test_bad_input_exits_2(tmp_path, capsys, argv, overrides, names):
    # a case naming a preset takes its parameters from it: adding --params would be an error
    params = [] if "--preset" in argv else ["--params", str(write_params(tmp_path, **overrides))]
    out = [] if argv[0] in ("mean-check", "check-domain") else ["--out", str(tmp_path / "out")]
    assert main([*argv, *params, *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and names in err


def test_params_file_must_hold_an_object(tmp_path, capsys):
    params = tmp_path / "list.json"
    params.write_text("[1, 2]")
    assert main(["build-q", "--params", str(params), "--out", str(tmp_path / "q.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "object" in err


@pytest.mark.parametrize("name", ["table1", "fig1", "fig2", "fig3a", "fig3b", "fig3c"])
def test_build_q_writes_the_preset_matrix(tmp_path, name):
    matrix = preset(name)[1]
    for family in ([], ["--family", "preset"]):
        out = tmp_path / "q.json"
        expected = 0 if matrix.report().admissible else 3  # fig3c's matrix is not admissible
        assert main(["build-q", "--preset", name, *family, "--out", str(out)]) == expected
        payload = json.loads(out.read_text())
        np.testing.assert_array_equal(payload["Q"], matrix.Q)
        np.testing.assert_array_equal(payload["Qinv"], matrix.Qinv)


def test_q3_family_defaults_are_those_q3_bounds_reports(tmp_path, capsys):
    params, _ = preset("fig3b")  # its own matrix has (a, b) = (1.1, 1.5)
    a, b = q3_defaults(params.w)
    assert (a, b) == (1.0, 2.0)
    out = tmp_path / "q.json"
    assert main(["build-q", "--preset", "fig3b", "--family", "q3", "--out", str(out)]) == 0
    np.testing.assert_array_equal(json.loads(out.read_text())["Q"],
                                  build_q3(params.w, params.x, a, b).Q)
    capsys.readouterr()
    assert main(["q3-bounds", "--preset", "fig3b"]) == 0
    defaults = json.loads(capsys.readouterr().out)["defaults"]
    assert (defaults["a"], defaults["b"]) == (a, b)


def test_q3_bounds_values(tmp_path, capsys):
    params = write_params(tmp_path, w=[1.0, 2.0, 3.0], x=[1.0, 5.0, 25.0],
                          v0=[0.01, 0.002, 0.0005])
    assert main(["q3-bounds", "--params", str(params)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["a"][0] == pytest.approx(0.8439088914585774, abs=1e-12)
    assert payload["a"][1] == pytest.approx(1.2, abs=1e-12)
    assert payload["b"][0] == pytest.approx(1.4, abs=1e-12)
    assert payload["b"][1] == pytest.approx(2.8439088914585775, abs=1e-12)
    assert payload["defaults"]["a_feasible"] and payload["defaults"]["b_feasible"]


def test_q3_bounds_has_no_matrix_options(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["q3-bounds", "--preset", "fig3a", "--family", "q2", "--q", "-5", "--a", "nan"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_q3_bounds_rejects_tied_nodes(tmp_path):
    params = write_params(tmp_path, w=[1.0, 2.0, 3.0], x=[1.0, 1.0, 25.0],
                          v0=[0.01, 0.002, 0.0005])
    assert main(["q3-bounds", "--params", str(params)]) == 2


def test_simulate_deterministic_csv(tmp_path):
    params = write_params(tmp_path)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["cloud", "--params", str(params), "--T", "1.0", "--M", "100",
            "--paths", "5", "--seed", "11"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "path_id,step,t,v_1,v_2,u_1,u_2,agg"
    audit = json.loads((tmp_path / "a.csv.audit.json").read_text())
    assert set(audit) == {"min_transformed", "min_aggregate", "n_violations",
                          "sqrt_clamp_count", "prob_violations"}
    assert audit["n_violations"] == 0
    assert audit["sqrt_clamp_count"] == 0
    assert audit["prob_violations"] == 0


@pytest.mark.parametrize("argv, csv_sha256, audit_sha256", [
    (["simulate", "--preset", "fig2", "--T", "1", "--M", "200", "--paths", "300", "--seed", "1"],
     "23d7a2a3a73932226bf4f26b03ca751db09a8979c97997a39c5782618d91d70d",
     "5fdf9960df53536c0dde058ec042e91fd16002c36c9544752cababf38da83710"),
    (["cloud", "--preset", "fig3c", "--allow-nonadmissible", "--T", "2", "--M", "600",
      "--paths", "40", "--seed", "2"],
     "2243549e88af2b78db8a9a138e5816301b831f56568ec015ae9b002a04e0fb84",
     "805c9040cc01ef09f2d7c19c93006140d51e469f5b1c520c6daf2e9ff75a85c5"),
], ids=["simulate-fig2", "cloud-fig3c-escape"])
def test_simulation_outputs_keep_their_bytes(tmp_path, argv, csv_sha256, audit_sha256):
    """``volterra-cone <argv> --out c.csv`` writes c.csv and c.csv.audit.json with these SHA-256.

    The digests are those the commands wrote at commit c28e7bb, whose step kernel audited
    the cone after every step.  The kernel audits batches of steps, and at the default
    budget fig2's 300 paths march 200 steps in batches of 43, and fig3c's 40 paths, which
    escape the cone, march 600 steps in batches of 273, 239 and 88.
    """
    out = tmp_path / "c.csv"
    assert main(argv + ["--out", str(out)]) == 0
    audit = tmp_path / "c.csv.audit.json"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha256
    assert hashlib.sha256(audit.read_bytes()).hexdigest() == audit_sha256
    assert (json.loads(audit.read_text())["n_violations"] > 0) == (argv[0] == "cloud")


def test_mean_check_output_keeps_its_bytes(tmp_path):
    """``mean-check`` writes the SHA-256 it wrote at commit 193e312, exact mean included."""
    out = tmp_path / "m.json"
    assert main(["mean-check", "--preset", "fig2", "--t", "1", "--M", "200", "--paths", "300",
                 "--seed", "1", "--out", str(out)]) == 0
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == "17a391ee831467688d3f6b017d63f27deb7990484d0f2b60a375faaa638eee5d")


def test_simulate_nonadmissible_audit(tmp_path):
    out = tmp_path / "bad.csv"
    args = ["simulate", "--preset", "fig3c", "--T", "10.0", "--M", "4000",
            "--paths", "200", "--seed", "7", "--out", str(out)]
    assert main(args + ["--allow-nonadmissible"]) == 0
    audit = json.loads((tmp_path / "bad.csv.audit.json").read_text())
    assert audit["min_transformed"] < -1e-3
    assert audit["n_violations"] > 0
    assert main(args) == 4


def test_mean_check_pass_and_corrupted_fail(tmp_path, skip_final_half_drift):
    # nu = 0 makes the comparison deterministic: exact match required,
    # and a corrupted composition misses it by a full half drift step
    params = write_params(tmp_path, nu=0.0)
    base = ["mean-check", "--params", str(params), "--t", "1.0",
            "--M", "20", "--paths", "3", "--seed", "1"]
    assert main(base) == 0
    skip_final_half_drift()
    assert main(base) == 5


def test_mean_check_bounds_the_exact_deviation_relative_to_the_mean(tmp_path, capsys):
    # at theta = 2e5 the exact mean is about 1.4e5, so an absolute 1e-10 is below its rounding
    params = write_params(tmp_path, theta=2e5, nu=0.0)
    assert main(["mean-check", "--params", str(params), "--t", "1", "--M", "100",
                 "--paths", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["deviation"] <= 1e-13 * payload["exact_mean"]


def test_mean_check_of_a_tiny_forcing(tmp_path):
    # theta = 1e-310 is subnormal, so ||A||_1 in units of b's power of two overflows and b stays
    # unscaled; nu = 0 makes the check exact to 1e-10
    params = write_params(tmp_path, theta=1e-310, nu=0.0, v0=[0.0, 0.0])
    assert main(["mean-check", "--params", str(params), "--M", "10", "--paths", "2"]) == 0


def test_mean_check_statistical_pass(tmp_path):
    params = write_params(tmp_path)
    assert main(["mean-check", "--params", str(params), "--t", "1.0",
                 "--M", "100", "--paths", "2000", "--seed", "2"]) == 0


def test_check_domain(tmp_path, capsys):
    params = write_params(tmp_path)
    assert main(["check-domain", "--params", str(params), "--point", "1,0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["contains"] is True
    assert payload["worst_component"] >= 0.0
    assert main(["check-domain", "--params", str(params), "--point", "0.5,1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["contains"] is False
    # a negative first coordinate reads as an option unless it is joined to --point by "="
    assert main(["check-domain", "--params", str(params), "--point=-0.001,0.02"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["contains"] is False
    assert payload["worst_component"] == pytest.approx(-0.021, rel=1e-12)


def test_pde_preset_boxes(tmp_path):
    out = tmp_path / "box1.csv"
    assert main(["pde", "--preset", "table1", "--box", "box1", "--n", "16",
                 "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[0] == "16"
    assert row[3] == "false"  # no blow-up

    out2 = tmp_path / "box2.csv"
    assert main(["pde", "--preset", "table1", "--box", "box2", "--n", "64",
                 "--out", str(out2)]) == 0
    row2 = out2.read_text().splitlines()[1].split(",")
    assert row2[1] == "inf"
    assert row2[3] == "true"


def test_pde_prints_the_table_it_writes(tmp_path, capsys):
    out = tmp_path / "pde.csv"
    assert main(["pde", "--preset", "table1", "--box", "box2", "--n", "64",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_pde_box3_converges_with_larger_error_than_box1(tmp_path):
    out1 = tmp_path / "b1.csv"
    out3 = tmp_path / "b3.csv"
    assert main(["pde", "--preset", "table1", "--box", "box1", "--n", "64",
                 "--out", str(out1)]) == 0
    assert main(["pde", "--preset", "table1", "--box", "box3", "--n", "64",
                 "--out", str(out3)]) == 0
    err1 = float(out1.read_text().splitlines()[1].split(",")[1])
    err3 = float(out3.read_text().splitlines()[1].split(",")[1])
    assert np.isfinite(err1) and np.isfinite(err3)
    assert err3 >= err1


def test_pde_convergence_csv(tmp_path):
    out = tmp_path / "conv.csv"
    assert main(["pde-convergence", "--preset", "table1", "--box", "box1",
                 "--n-list", "8,16,32", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,l2_error,order,blow_up"
    assert len(lines) == 4
    order_16 = float(lines[2].split(",")[2])
    assert order_16 > 1.0


def test_rerun_reproduces_outputs(tmp_path):
    params = write_params(tmp_path)
    out = tmp_path / "sim.csv"
    args = ["cloud", "--params", str(params), "--T", "0.5", "--M", "50",
            "--paths", "4", "--seed", "3", "--out", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    out.unlink()
    assert main(["rerun", str(tmp_path / "sim.csv.manifest.json")]) == 0
    assert out.read_bytes() == first


def test_simulate_takes_a_seed_of_several_words(tmp_path):
    out = tmp_path / "sim.csv"
    seed = 2**64 + 5  # three 32-bit words
    assert main(["simulate", "--params", str(write_params(tmp_path)), "--T", "0.5", "--M", "20",
                 "--paths", "3", "--seed", str(seed), "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "sim.csv.manifest.json").read_text())
    assert manifest["seed"] == seed
    first = out.read_bytes()
    assert main(["rerun", str(tmp_path / "sim.csv.manifest.json")]) == 0
    assert out.read_bytes() == first


#: a short run of every command that takes --out, without the --out
RERUN_CASES = {
    "build-q": ["--preset", "fig3b"],
    "q3-bounds": ["--preset", "fig3a"],
    "simulate": ["--preset", "fig2", "--T", "0.5", "--M", "30", "--paths", "4", "--seed", "2"],
    "cloud": ["--preset", "fig3a", "--T", "0.5", "--M", "30", "--paths", "3", "--seed", "2"],
    "mean-check": ["--preset", "fig2", "--t", "0.5", "--M", "30", "--paths", "8", "--seed", "2"],
    "pde": ["--preset", "table1", "--n", "8"],
    "pde-convergence": ["--preset", "table1", "--n-list", "4,8"],
}


def test_rerun_cases_cover_every_command_that_writes_out():
    # every command that writes --out has a rerun case, so one whose output holds a clock fails
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(RERUN_CASES) == {name for name, sub in subs.choices.items()
                                if any("--out" in a.option_strings for a in sub._actions)}


@pytest.mark.parametrize("command", list(RERUN_CASES))
def test_rerun_verify_reproduces_every_command(tmp_path, capsys, command):
    out = tmp_path / "run.out"
    manifest_path = tmp_path / "run.out.manifest.json"
    assert main([command, *RERUN_CASES[command], "--out", str(out)]) == 0
    assert main(["rerun", "--verify", str(manifest_path)]) == 0
    if command == "pde-convergence":
        manifest = json.loads(manifest_path.read_text())
        manifest["sha256"][str(out)] = "0" * 64
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["rerun", "--verify", str(manifest_path)]) == 7
        assert f"differs from {manifest_path}: {out}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["build-q", "q3-bounds", "mean-check", "simulate", "pde"])
def test_every_output_is_named_by_one_spelling(tmp_path, monkeypatch, command):
    # "--out ./x.out" and "--out x.out" name one file, and the manifest keys it as str(Path(...))
    monkeypatch.chdir(tmp_path)
    assert main([command, *RERUN_CASES[command], "--out", "./x.out"]) == 0
    manifest = json.loads((tmp_path / "x.out.manifest.json").read_text())
    assert "x.out" in manifest["outputs"]
    for key in ("outputs", "sha256", "bytes"):
        assert [str(Path(path)) for path in manifest[key]] == list(manifest[key])


def test_rerun_verifies_a_manifest_that_spells_an_output_with_dot_slash(tmp_path, monkeypatch,
                                                                         capsys):
    # manifests written before every output was keyed by its normalized path list "./q.json"
    monkeypatch.chdir(tmp_path)
    argv = ["q3-bounds", "--preset", "fig3a", "--out", "./q.json"]
    assert main(argv) == 0
    digest = hashlib.sha256((tmp_path / "q.json").read_bytes()).hexdigest()
    for listed, code in ((digest, 0), ("0" * 64, 7)):
        (tmp_path / "old.manifest.json").write_text(
            json.dumps({"argv": argv, "sha256": {"./q.json": listed}}))
        capsys.readouterr()
        assert main(["rerun", "--verify", "old.manifest.json"]) == code
    assert "differs from old.manifest.json: ./q.json" in capsys.readouterr().err


def test_a_run_without_an_output_writes_no_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["q3-bounds", "--preset", "fig3a"]) == 0
    assert main(["mean-check", *RERUN_CASES["mean-check"]]) == 0
    assert main(["check-domain", "--preset", "fig2", "--point", "1,0.5"]) == 0
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, written", [
    ("q3-bounds", "x.json"),
    ("mean-check", "x.json"),
    ("simulate", "x.json.audit.json"),
])
def test_a_json_output_prints_the_text_it_writes(tmp_path, capsys, command, written):
    assert main([command, *RERUN_CASES[command], "--out", str(tmp_path / "x.json")]) == 0
    assert capsys.readouterr().out == (tmp_path / written).read_text()


def test_rerun_verify_checks_every_output_digest(tmp_path, capsys):
    out = tmp_path / "cloud.csv"
    assert main(["cloud", "--preset", "fig3a", "--T", "0.5", "--M", "30", "--paths", "3",
                 "--seed", "2", "--out", str(out)]) == 0
    manifest_path = tmp_path / "cloud.csv.manifest.json"
    assert main(["rerun", "--verify", str(manifest_path)]) == 0

    manifest = json.loads(manifest_path.read_text())
    audit = str(tmp_path / "cloud.csv.audit.json")
    manifest["sha256"][audit] = "0" * 64
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["rerun", "--verify", str(manifest_path)]) == 7
    err = capsys.readouterr().err
    assert audit in err and str(out) + "\n" not in err  # only the edited output is named


def test_rerun_without_verify_returns_the_exit_code_of_the_run(tmp_path, capsys):
    params = write_params(tmp_path)
    argv = ["simulate", "--params", str(params), "--M", "10", "--paths", "2",
            "--out", str(tmp_path / "sim.csv")]
    assert main(argv) == 0
    params.unlink()
    capsys.readouterr()
    assert main(argv) == 2
    direct = capsys.readouterr().err
    assert main(["rerun", str(tmp_path / "sim.csv.manifest.json")]) == 2
    assert capsys.readouterr().err == direct and str(params) in direct


@pytest.mark.parametrize("payload, verify, names", [
    ("self", False, "reruns a manifest itself"),
    ([1, 2], False, "no argv list"),
    ({"argv": ["check-domain", "--preset", "fig2", "--point", 3]}, False, "no argv list"),
    ({"argv": ["check-domain", "--preset", "fig2", "--point", "0.1,0.1"]}, True, "no sha256 map"),
    ({"argv": ["q3-bounds", "--preset", "fig3a"], "sha256": {}}, True, "without --out"),
    ({"argv": ["--version"], "sha256": {"v.csv": "0" * 64}}, True, "help or the version"),
    ({"argv": ["--help"], "sha256": {"h.csv": "0" * 64}}, True, "help or the version"),
    ({"argv": ["simulate", "-h"], "sha256": {"h.csv": "0" * 64}}, True, "help or the version"),
    # refused before the run, so the output is never written
    ({"argv": ["simulate", "--preset", "fig2", "--out", "never.csv"], "sha256": {}}, True,
     "lists no digest"),
], ids=["reruns-itself", "list", "argv-with-number", "verify-without-digests",
        "verify-without-out", "version", "help", "command-help", "verify-without-a-digest"])
def test_rerun_rejects_a_malformed_manifest(tmp_path, capsys, payload, verify, names):
    manifest = tmp_path / "bad.manifest.json"
    if payload == "self":
        payload = {"argv": ["rerun", str(manifest)]}
    manifest.write_text(json.dumps(payload))
    assert main(["rerun", *["--verify"] * verify, str(manifest)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and names in err


SIM_TIMINGS = {"seed_s", "uniforms_s", "steps_s"}
PDE_TIMINGS = {"assemble_s", "factor_s", "steps_s", "runtime_s"}


@pytest.mark.parametrize("argv, timed", [
    (["simulate", "--preset", "fig2", "--T", "0.5", "--M", "40", "--paths", "6"],
     SIM_TIMINGS | {"export_s"}),
    (["cloud", "--preset", "fig3a", "--T", "0.5", "--M", "40", "--paths", "3"],
     SIM_TIMINGS | {"export_s"}),
    (["mean-check", "--preset", "fig2", "--t", "0.5", "--M", "40", "--paths", "6"], SIM_TIMINGS),
    (["pde", "--preset", "table1", "--n", "8"], PDE_TIMINGS),
    (["build-q", "--preset", "fig3b"], None),
    (["q3-bounds", "--preset", "fig3a"], None),
    (["pde-convergence", "--preset", "table1", "--n-list", "4,8"], PDE_TIMINGS),
], ids=["simulate", "cloud", "mean-check", "pde", "build-q", "q3-bounds", "pde-convergence"])
def test_manifest_records_versions_digests_and_timings(tmp_path, argv, timed):
    # timed: the stage timings the manifest records, per n for the PDE; None where it has none
    out = tmp_path / "run.out"
    assert main([*argv, "--out", str(out)]) == 0
    manifest = strict_json((tmp_path / "run.out.manifest.json").read_text())
    assert manifest["versions"] == {"python": platform.python_version(),
                                    "numpy": np.__version__, "scipy": scipy.__version__}
    assert set(manifest["sha256"]) == set(manifest["bytes"]) == set(manifest["outputs"])
    for path in manifest["outputs"]:
        assert manifest["sha256"][path] == hashlib.sha256(Path(path).read_bytes()).hexdigest()
        assert manifest["bytes"][path] == Path(path).stat().st_size
        if path.endswith(".json"):  # audit JSON and mean.json stay free of run telemetry
            assert not {"timings", "sha256", "versions"} & set(strict_json(Path(path).read_text()))
    assert manifest["command"] == argv[0]
    for clock in ("wall_clock_s", "cpu_clock_s"):
        assert math.isfinite(manifest[clock]) and manifest[clock] >= 0.0, clock
    if timed is not None:
        per_n = manifest["timings"] if argv[0].startswith("pde") else {"": manifest["timings"]}
        for timings in per_n.values():
            assert set(timings) == timed
            assert all(value >= 0.0 for value in timings.values())


def test_pde_manifests_record_timings_and_blow_up(tmp_path, capsys):
    out = tmp_path / "box2.csv"
    assert main(["pde", "--preset", "table1", "--box", "box2", "--n", "64",
                 "--out", str(out)]) == 0
    manifest = strict_json((tmp_path / "box2.csv.manifest.json").read_text())
    assert set(manifest["timings"]) == set(manifest["blowup_max_abs"]) == {"64"}
    assert 1 <= manifest["blowup_step"]["64"] <= 64
    peak = manifest["blowup_max_abs"]["64"]
    assert peak in ("inf", "nan") or peak > 1e100
    box2_timings = manifest["timings"]["64"]

    # the centred 3-D march blows up at n = 8 on a box that keeps u_3 >= 0
    out = tmp_path / "fig3a.csv"
    assert main(["pde-convergence", "--preset", "fig3a", "--alpha", "1,1,1",
                 "--box", "0,4;0,4;0,4", "--n-list", "4,8", "--out", str(out)]) == 6
    manifest = json.loads((tmp_path / "fig3a.csv.manifest.json").read_text())
    step = manifest["blowup_step"]
    assert step["4"] is None and 1 <= step["8"] <= 8
    assert f"n=8 stopped at step {step['8']} with max|v|" in capsys.readouterr().err
    assert set(manifest["timings"]) == set(manifest["blowup_max_abs"]) == {"4", "8"}
    assert manifest["blowup_max_abs"]["4"] is None
    for timings in [box2_timings, *manifest["timings"].values()]:
        assert set(timings) == PDE_TIMINGS
        stages = timings["assemble_s"] + timings["factor_s"] + timings["steps_s"]
        assert timings["runtime_s"] >= stages


def test_pde_exits_6_when_the_step_matrix_cannot_be_factored(tmp_path, monkeypatch):
    def singular_factor(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(pde, "splu", singular_factor)
    out = tmp_path / "box1.csv"
    assert main(["pde", "--preset", "table1", "--box", "box1", "--n", "8",
                 "--out", str(out)]) == 6
    manifest = strict_json((tmp_path / "box1.csv.manifest.json").read_text())
    assert manifest["blowup_step"] == {"8": 0}
    assert manifest["blowup_max_abs"] == {"8": "nan"}


def test_threads_flag_is_accepted_hidden_and_ignored(tmp_path, capsys):
    params = write_params(tmp_path)
    out1 = tmp_path / "t1.csv"
    out2 = tmp_path / "t2.csv"
    args = ["cloud", "--params", str(params), "--T", "0.5", "--M", "50",
            "--paths", "7", "--seed", "13"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--threads", "3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    with pytest.raises(SystemExit):
        main(["simulate", "--help"])
    assert "--threads" not in capsys.readouterr().out

    # a manifest written when --threads still chose the worker count
    manifest = tmp_path / "old.manifest.json"
    manifest.write_text(json.dumps({"argv": args + ["--threads", "2", "--out", str(out2)]}))
    out2.unlink()
    assert main(["rerun", str(manifest)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_the_command_picks_the_record(tmp_path, capsys):
    # cloud records every step of each path and simulate the last; --record is gone, so a
    # manifest whose argv carries it is refused as bad input
    argv = ["--preset", "fig2", "--T", "0.5", "--M", "20", "--paths", "3", "--seed", "2"]
    assert main(["cloud", *argv, "--out", str(tmp_path / "c.csv")]) == 0
    assert main(["simulate", *argv, "--out", str(tmp_path / "s.csv")]) == 0
    full, last = ([line.split(",") for line in (tmp_path / name).read_text().splitlines()[1:]]
                  for name in ("c.csv", "s.csv"))
    assert len(full) == 3 * 21 and [row[1] for row in last] == ["20"] * 3
    # u and agg; v_1, v_2 of a one-row record round differently (see cli._cloud_csv)
    assert [row[:3] + row[5:] for row in full[20::21]] == [row[:3] + row[5:] for row in last]
    manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
    assert "record" not in manifest["config"]
    manifest["argv"] += ["--record", "full"]
    (tmp_path / "s.csv.manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(SystemExit) as exit_info:
        main(["rerun", str(tmp_path / "s.csv.manifest.json")])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --record full" in capsys.readouterr().err


def test_csv_floats_round_trip(tmp_path):
    # every field of a full record parses back to the simulated value bit for bit
    params_path = write_params(tmp_path, **THREE_FACTORS)
    out = tmp_path / "sim.csv"
    assert main(["cloud", "--params", str(params_path), "--T", "0.5", "--M", "50",
                 "--paths", "3", "--seed", "3", "--out", str(out)]) == 0
    params = load_params(params_path)
    cloud = simulate(params, build_canonical(params.w, params.x),
                     PathConfig(T=0.5, M=50, n_paths=3, seed=3, record_full=True))
    lines = out.read_text().splitlines()
    assert lines[0] == "path_id,step,t,v_1,v_2,v_3,u_1,u_2,u_3,agg"
    fields = [line.split(",") for line in lines[1:]]
    assert len(fields) == 3 * 51 and all(len(row) == 10 for row in fields)
    ids = np.array([[int(row[0]), int(row[1])] for row in fields])
    values = np.array([[float(tok) for tok in row[2:]] for row in fields]).reshape(3, 51, 8)
    np.testing.assert_array_equal(ids[:, 0], np.repeat(np.arange(3), 51))
    np.testing.assert_array_equal(ids[:, 1], np.tile(cloud.steps, 3))
    np.testing.assert_array_equal(values[..., 0], np.tile(cloud.times, (3, 1)))
    np.testing.assert_array_equal(values[..., 1:4], cloud.states)
    np.testing.assert_array_equal(values[..., 4:7], cloud.transformed)
    np.testing.assert_array_equal(values[..., 7], cloud.aggregates)


def _row_formatted_csv(cloud) -> bytes:
    """The cloud's CSV as the per-row writer formatted it, one ``%`` call per row."""
    n = cloud.transformed.shape[-1]
    header = ["path_id", "step", "t", *(f"v_{i + 1}" for i in range(n)),
              *(f"u_{i + 1}" for i in range(n)), "agg"]
    row_format = "%d,%d," + ",".join(["%.17g"] * (2 * n + 2)) + "\n"
    lines = [",".join(header) + "\n"]
    states = cloud.states
    for path_id in range(cloud.transformed.shape[0]):
        block = np.column_stack((np.full(cloud.steps.size, path_id), cloud.steps, cloud.times,
                                 states[path_id], cloud.transformed[path_id],
                                 cloud.aggregates[path_id]))
        lines += [row_format % tuple(row) for row in block]
    return "".join(lines).encode()


@pytest.mark.parametrize("factors, record, steps, paths", [
    ({}, "full", 30, 4),
    (THREE_FACTORS, "full", 30, 4),
    ({}, "terminal", 30, 5),
    (THREE_FACTORS, "terminal", 30, 5),
    (THREE_FACTORS, "full", 50, 1),
    # whole paths per chunk, and a last chunk of fewer paths
    ({}, "full", 40, EXPORT_ROWS // 41 + 5),
    # a path one row longer than a chunk is split; a one-row piece would round v differently
    (THREE_FACTORS, "full", EXPORT_ROWS, 8),
    ({}, "terminal", 3, EXPORT_ROWS + 7),
], ids=["n2-full", "n3-full", "n2-terminal", "n3-terminal", "one-path", "chunks-of-paths",
        "split-path", "terminal-chunks"])
def test_csv_export_matches_the_row_formatter(tmp_path, factors, record, steps, paths):
    params_path = write_params(tmp_path, **factors)
    out = tmp_path / "sim.csv"
    command = "cloud" if record == "full" else "simulate"
    assert main([command, "--params", str(params_path), "--T", "0.5", "--M", str(steps),
                 "--paths", str(paths), "--seed", "4", "--out", str(out)]) == 0
    params = load_params(params_path)
    cloud = simulate(params, build_canonical(params.w, params.x),
                     PathConfig(T=0.5, M=steps, n_paths=paths, seed=4,
                                record_full=record == "full"))
    assert out.read_bytes() == _row_formatted_csv(cloud)


SPECIAL_VALUES = {-0.0: "-0", 5e-324: "4.9406564584124654e-324", 1e308: "1e+308",
                  1e-5: "1.0000000000000001e-05", 0.1: "0.10000000000000001", 2.0: "2",
                  math.nan: "nan", math.inf: "inf", -math.inf: "-inf"}


def _g17_texts(values) -> list[str]:
    chars, lengths = format_g17(values)
    return [row[:length].tobytes().decode() for row, length in zip(chars, lengths)]


def test_column_formatter_gives_fmt_of_each_value():
    values = list(SPECIAL_VALUES)
    assert [_fmt(value) for value in values] == list(SPECIAL_VALUES.values())
    assert _g17_texts(np.array(values)) == list(SPECIAL_VALUES.values())
    assert _g17_texts(np.array([])) == []

    # the fig3c escape, as `cloud --allow-nonadmissible` simulates it
    params, matrix = preset("fig3c")
    cloud = simulate(params, matrix, PathConfig(T=10.0, M=1000, n_paths=20, seed=1,
                                                record_full=True),
                     require_initial_in_cone=False)
    assert cloud.n_violations > 0
    for column in np.concatenate((cloud.states, cloud.transformed), axis=-1).reshape(-1, 6).T:
        assert _g17_texts(column) == [_fmt(value) for value in column.tolist()]


@pytest.mark.parametrize("argv", [
    ["simulate", "--preset", "fig2", "--T", "0.5", "--M", "20", "--paths", "10"],
    ["cloud", "--preset", "fig3a", "--T", "0.5", "--M", "20", "--paths", "10"],
    ["mean-check", "--preset", "fig2", "--t", "0.5", "--M", "20", "--paths", "10"],
], ids=["simulate", "cloud", "mean-check"])
def test_manifest_records_the_worker_count(tmp_path, monkeypatch, argv):
    # blocks and chunks of at most 4 paths or rows, so 10 paths are 3 blocks, their CSV is 3 or
    # more chunks and both process counts are the CPUs'; mean-check exports no CSV
    monkeypatch.setattr(scheme, "BLOCK_PATHS", 4)
    monkeypatch.setattr(cli, "EXPORT_ROWS", 4)
    for cpus in (1, 2):
        monkeypatch.setattr(scheme, "_usable_cpus", lambda cpus=cpus: cpus)
        out = tmp_path / f"{cpus}.out"
        assert main([*argv, "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / f"{cpus}.out.manifest.json").read_text())
        assert manifest["workers"] == cpus
        assert manifest.get("export_workers") == (None if argv[0] == "mean-check" else cpus)
    assert (tmp_path / "1.out").read_bytes() == (tmp_path / "2.out").read_bytes()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_march_that_leaves_the_cone_exits_4(tmp_path, capsys, monkeypatch, cpus):
    # a NaN in the propagators puts each path's aggregate outside the cone at step 0; with
    # two CPUs each of the two paths is a block, and a forked worker marches one of them
    propagators = DriftSystem.propagators

    def poisoned(system, h):
        prop, forcing = propagators(system, h)
        prop[-1, 0] = math.nan
        return prop, forcing

    monkeypatch.setattr(DriftSystem, "propagators", poisoned)
    if cpus == 2:
        monkeypatch.setattr(scheme, "BLOCK_PATHS", 1)
    monkeypatch.setattr(scheme, "_usable_cpus", lambda: cpus)
    assert main(["simulate", "--preset", "fig2", "--M", "10", "--paths", "2",
                 "--out", str(tmp_path / "paths.csv")]) == 4
    assert "state left the cone" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert_no_child_left()


def test_a_worker_that_dies_without_a_report_exits_2(tmp_path, capsys, monkeypatch):
    # a killed worker is not a cone-audit failure (exit 4); of the 4 blocks the worker dies on
    # block 1, which is due right after the parent's block 0, so the parent marches no other
    monkeypatch.setattr(scheme, "BLOCK_PATHS", 4)
    monkeypatch.setattr(scheme, "_usable_cpus", lambda: 2)
    block = scheme._simulate_block
    parent = os.getpid()
    marched = []

    def dying(*args):
        if os.getpid() != parent:
            os._exit(9)
        marched.append(args[-2])
        return block(*args)

    monkeypatch.setattr(scheme, "_simulate_block", dying)
    argv = ["simulate", "--preset", "fig2", "--T", "0.5", "--M", "20", "--paths", "16"]
    assert main([*argv, "--out", str(tmp_path / "paths.csv")]) == 2
    assert "exited with status 9 without a report" in capsys.readouterr().err
    assert marched == [0]
    assert_no_child_left()


@pytest.mark.parametrize("factors, record, steps, paths", [
    # a path one row longer than a chunk is split into two pieces: 6 chunks
    (THREE_FACTORS, "full", EXPORT_ROWS, 3),
    # two chunks of whole paths and a part chunk
    ({}, "full", 40, 2 * (EXPORT_ROWS // 41) + 5),
    # one row per path: two full chunks and a part chunk
    (THREE_FACTORS, "terminal", 3, 2 * EXPORT_ROWS + 7),
], ids=["split-paths", "chunks-of-paths", "terminal-chunks"])
def test_export_bytes_do_not_depend_on_the_process_count(tmp_path, monkeypatch, factors, record,
                                                         steps, paths):
    params_path = write_params(tmp_path, **factors)
    argv = ["cloud" if record == "full" else "simulate", "--params", str(params_path),
            "--T", "0.5", "--M", str(steps), "--paths", str(paths), "--seed", "5"]
    exported = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(scheme, "_usable_cpus", lambda cpus=cpus: cpus)
        out = tmp_path / f"{cpus}.csv"
        assert main([*argv, "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / f"{cpus}.csv.manifest.json").read_text())
        assert manifest["export_workers"] == cpus
        exported[cpus] = out.read_bytes()
        assert exported[cpus] == exported[1], cpus
    assert_no_child_left()
    params = load_params(params_path)
    cloud = simulate(params, build_canonical(params.w, params.x),
                     PathConfig(T=0.5, M=steps, n_paths=paths, seed=5,
                                record_full=record == "full"))
    n = len(params.w)
    rows = [[float(tok) for tok in line.split(",")] for line in exported[1].decode().splitlines()[1:]]
    values = np.array(rows).reshape(*cloud.transformed.shape[:2], 2 * n + 4)
    np.testing.assert_array_equal(values[..., 3:3 + n], cloud.states)
    np.testing.assert_array_equal(values[..., 3 + n:-1], cloud.transformed)
    # the run of one process repeated by three, and the other way round
    assert main(["rerun", "--verify", str(tmp_path / "1.csv.manifest.json")]) == 0
    monkeypatch.setattr(scheme, "_usable_cpus", lambda: 1)
    assert main(["rerun", "--verify", str(tmp_path / "3.csv.manifest.json")]) == 0


def test_an_export_worker_that_dies_without_its_chunk_exits_2(tmp_path, capsys, monkeypatch):
    # 40 chunks of 4 rows: the worker dies formatting chunk 1, before any manifest is written
    monkeypatch.setattr(cli, "EXPORT_ROWS", 4)
    monkeypatch.setattr(scheme, "_usable_cpus", lambda: 2)
    rows = cli._csv_rows
    parent = os.getpid()

    def dying(*args):
        if os.getpid() != parent:
            os._exit(5)
        return rows(*args)

    monkeypatch.setattr(cli, "_csv_rows", dying)
    out = tmp_path / "cloud.csv"
    assert main(["simulate", "--preset", "fig2", "--T", "0.5", "--M", "20", "--paths", "160",
                 "--out", str(out)]) == 2
    assert "exited with status 5 without a report" in capsys.readouterr().err
    assert not (tmp_path / "cloud.csv.audit.json").exists()
    assert not (tmp_path / "cloud.csv.manifest.json").exists()
    assert_no_child_left()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_a_write_error_during_the_export_exits_2(capsys, monkeypatch):
    # chunks of one row, so the file's buffer takes many before the first write fails, while
    # both export workers are formatting
    monkeypatch.setattr(cli, "EXPORT_ROWS", 1)
    monkeypatch.setattr(scheme, "_usable_cpus", lambda: 3)
    assert main(["simulate", "--preset", "fig2", "--T", "0.5", "--M", "20", "--paths", "400",
                 "--out", "/dev/full"]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert_no_child_left()


def test_mean_check_forks_its_workers_from_the_cli(tmp_path, monkeypatch):
    # 20 000 paths are two blocks, so two workers where two CPUs are usable; the interpreter
    # is a fresh one, told to run OpenBLAS threads (the package pins one unless told), which
    # are running when the workers fork
    argv = ["mean-check", "--preset", "fig2", "--t", "1", "--M", "20", "--paths", "20000",
            "--seed", "2"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
               OPENBLAS_NUM_THREADS="2")
    proc = subprocess.run([sys.executable, "-m", "volterra_cone", *argv, "--out", "forked.json"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "forked.json.manifest.json").read_text())
    assert manifest["workers"] == min(2, scheme._usable_cpus())
    monkeypatch.setattr(scheme, "_usable_cpus", lambda: 1)
    assert main([*argv, "--out", str(tmp_path / "one.json")]) == 0
    assert (tmp_path / "forked.json").read_bytes() == (tmp_path / "one.json").read_bytes()


def test_the_cpu_clock_counts_the_reaped_workers(tmp_path, monkeypatch):
    # the export worker spins until it has used 0.5 s of CPU while the CLI process waits;
    # os.times counts in clock ticks, hence the margin
    monkeypatch.setattr(cli, "EXPORT_ROWS", 4)
    monkeypatch.setattr(scheme, "_usable_cpus", lambda: 2)
    rows = cli._csv_rows
    parent = os.getpid()

    def spinning(*args):
        while os.getpid() != parent and time.process_time() < 0.5:
            pass
        return rows(*args)

    monkeypatch.setattr(cli, "_csv_rows", spinning)
    out = tmp_path / "cloud.csv"
    assert main(["simulate", "--preset", "fig2", "--T", "0.5", "--M", "20", "--paths", "160",
                 "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "cloud.csv.manifest.json").read_text())
    assert manifest["export_workers"] == 2
    assert manifest["cpu_clock_s"] >= 0.45


PINNED_THREADS = """
import os
import volterra_cone
import scipy.sparse.linalg  # loads SciPy's own OpenBLAS
print(len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS"))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("given", [None, "2"])
def test_the_package_pins_openblas_to_one_thread_unless_told(tmp_path, given):
    # a fresh interpreter, as this one carries the "1" of its own import
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    proc = subprocess.run([sys.executable, "-c", PINNED_THREADS], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    threads, value = proc.stdout.split()
    assert value == (given or "1")
    if given is None:  # numpy's and SciPy's pools started no thread
        assert threads == "1"


CONFTEST_THREADS = """
import os, runpy, sys
runpy.run_path(sys.argv[1])
print(len(os.listdir("/proc/self/task")))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_the_tests_fork_from_one_thread_as_the_cli_does(tmp_path):
    # the conftest imports the package before numpy, so OpenBLAS starts no pool in this
    # process and the in-process tests fork their workers as the CLI does
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", CONFTEST_THREADS,
                           str(Path(__file__).with_name("conftest.py"))],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"]


LOADED_MODULES = """
import json, sys
import volterra_cone
from volterra_cone.cli import main

SOLVERS = ("scipy.linalg", "scipy.sparse")
# the CSV formatter and its tables load on the first export only; no command needs these
FORMATTER = ("volterra_cone.floatfmt", "fractions", "decimal")

def loaded(prefixes):
    return sorted(m for m in sys.modules if m.startswith(prefixes))

# at start-up nothing of scipy is loaded, not even the package whose version a manifest records
STARTUP = ("scipy", "numpy.random") + FORMATTER
report = {"import": loaded(STARTUP)}
try:
    main(["--version"])
except SystemExit:
    pass
report["--version"] = loaded(STARTUP)
for argv in json.loads(sys.argv[1]):
    report[argv[0]] = [main(argv), loaded(SOLVERS), loaded(FORMATTER)]
print(json.dumps(report))
"""


def _loaded_modules(tmp_path, commands) -> dict:
    """What a fresh interpreter has loaded after import, after --version and after each command."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", LOADED_MODULES, json.dumps(commands)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded.pop("import") == []  # nor scipy, nor numpy.random, which seeding loads
    assert loaded.pop("--version") == []
    return loaded


def test_only_the_pde_commands_load_scipy_linalg_or_sparse(tmp_path):
    commands = [
        ["simulate", "--preset", "fig2", "--T", "1", "--M", "20", "--paths", "4", "--out", "s.csv"],
        ["cloud", "--preset", "fig3a", "--T", "1", "--M", "20", "--paths", "4", "--out", "c.csv"],
        ["mean-check", "--preset", "fig2", "--M", "20", "--paths", "50", "--seed", "3"],
        ["build-q", "--preset", "fig3b", "--out", "q.json"],
        ["q3-bounds", "--preset", "fig3a", "--out", "bounds.json"],
        ["check-domain", "--preset", "table1", "--point", "0.2,0.3"],
    ]
    loaded = _loaded_modules(tmp_path, commands)
    for command, (code, solvers, formatter) in loaded.items():
        assert code == 0 and solvers == [], command
        assert formatter == ["volterra_cone.floatfmt"], command  # the first export loaded it

    # in a fresh interpreter, where neither the formatter nor scipy's solvers are loaded yet
    (code, solvers, formatter), = _loaded_modules(
        tmp_path, [["pde", "--preset", "table1", "--n", "8", "--out", "pde.csv"]]).values()
    assert code == 0 and "scipy.sparse.linalg" in solvers and formatter == []


def test_every_benchmark_invocation_still_parses():
    # perfbench/run.py is loaded from its path and read, never changed; its dataclasses
    # need the module registered before it runs
    import importlib.util

    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("perfbench_run", root / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = bench
    try:
        spec.loader.exec_module(bench)
        workloads = json.loads((root / "BENCHMARK.json").read_text())["workloads"]
        argvs = [call.argv for workload in workloads
                 for call in bench.workload_calls(workload["name"], 1)]
    finally:
        del sys.modules[spec.name]
    assert len(argvs) == 5
    for argv in argvs:
        build_parser().parse_args(list(argv))
