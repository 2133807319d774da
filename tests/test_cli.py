import json
import math

import numpy as np
import pytest

from volterra_cone.cli import main


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


def test_build_q_canonical(tmp_path):
    params = write_params(tmp_path)
    out = tmp_path / "q.json"
    code = main(["build-q", "--params", str(params), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["admissible"] is True
    assert payload["Q"] == [[1.0, -1.0], [1.0, 2.0]]
    assert (tmp_path / "q.json.manifest.json").exists()


def test_build_q_non_admissible_exits_3(tmp_path):
    params = write_params(tmp_path, w=[1.0, 2.0, 3.0], x=[1.0, 5.0, 25.0],
                          v0=[0.01, 0.002, 0.0005])
    out = tmp_path / "q3.json"
    code = main(["build-q", "--params", str(params), "--family", "q3",
                 "--a", "1.3", "--b", "2.0", "--out", str(out)])
    assert code == 3
    payload = json.loads(out.read_text())
    assert payload["report"]["admissible"] is False


def test_missing_params_file_exits_2(tmp_path):
    out = tmp_path / "q.json"
    assert main(["build-q", "--params", str(tmp_path / "missing.json"), "--out", str(out)]) == 2


THREE_FACTORS = {"w": [1.0, 2.0, 3.0], "x": [1.0, 5.0, 25.0], "v0": [0.01, 0.002, 0.0005]}


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
], ids=["simulate-T-nan", "simulate-T-inf", "mean-check-t-nan", "pde-T-nan", "pde-T-negative",
        "pde-convergence-T-zero", "pde-box-nan", "check-domain-point-nan",
        "build-q-q3-one-factor", "simulate-theta-nan", "pde-theta-nan", "simulate-lambda-inf",
        "simulate-nu-nan", "simulate-nu-overflows", "build-q-q3-b-inf", "build-q-q2-q-nan",
        "mean-check-one-path"])
def test_bad_input_exits_2(tmp_path, capsys, argv, overrides, names):
    params = write_params(tmp_path, **overrides)
    out = [] if argv[0] in ("mean-check", "check-domain") else ["--out", str(tmp_path / "out")]
    assert main([*argv, "--params", str(params), *out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and names in err


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


def test_q3_bounds_rejects_tied_nodes(tmp_path):
    params = write_params(tmp_path, w=[1.0, 2.0, 3.0], x=[1.0, 1.0, 25.0],
                          v0=[0.01, 0.002, 0.0005])
    assert main(["q3-bounds", "--params", str(params)]) == 2


def test_simulate_deterministic_csv(tmp_path):
    params = write_params(tmp_path)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["simulate", "--params", str(params), "--T", "1.0", "--M", "100",
            "--paths", "5", "--seed", "11", "--record", "full"]
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


def test_simulate_nonadmissible_audit(tmp_path):
    out = tmp_path / "bad.csv"
    args = ["simulate", "--preset", "fig3c", "--T", "10.0", "--M", "4000",
            "--paths", "200", "--seed", "7", "--out", str(out)]
    assert main(args + ["--allow-nonadmissible"]) == 0
    audit = json.loads((tmp_path / "bad.csv.audit.json").read_text())
    assert audit["min_transformed"] < -1e-3
    assert audit["n_violations"] > 0
    assert main(args) == 4


def test_simulate_non_finite_state_fails_cone_audit(tmp_path, capsys):
    # a finite but huge reversion rate makes the propagator NaN: NaN is outside the cone
    params = write_params(tmp_path, **{"lambda": 1e300})
    args = ["simulate", "--params", str(params), "--M", "10", "--paths", "2"]
    assert main([*args, "--out", str(tmp_path / "nan.csv")]) == 4
    assert "left the cone" in capsys.readouterr().err


def test_mean_check_pass_and_corrupted_fail(tmp_path, skip_final_half_drift):
    # nu = 0 makes the comparison deterministic: exact match required,
    # and a corrupted composition misses it by a full half drift step
    params = write_params(tmp_path, nu=0.0)
    base = ["mean-check", "--params", str(params), "--t", "1.0",
            "--M", "20", "--paths", "3", "--seed", "1"]
    assert main(base) == 0
    skip_final_half_drift()
    assert main(base) == 5


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
    assert lines[0] == "n,l2_error,order,blow_up,fallback_upwind,runtime_s"
    assert len(lines) == 4
    order_16 = float(lines[2].split(",")[2])
    assert order_16 > 1.0


def test_rerun_reproduces_outputs(tmp_path):
    params = write_params(tmp_path)
    out = tmp_path / "sim.csv"
    args = ["simulate", "--params", str(params), "--T", "0.5", "--M", "50",
            "--paths", "4", "--seed", "3", "--record", "full", "--out", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    out.unlink()
    assert main(["rerun", str(tmp_path / "sim.csv.manifest.json")]) == 0
    assert out.read_bytes() == first


def test_threads_flag_is_accepted_hidden_and_ignored(tmp_path, capsys):
    params = write_params(tmp_path)
    out1 = tmp_path / "t1.csv"
    out2 = tmp_path / "t2.csv"
    args = ["simulate", "--params", str(params), "--T", "0.5", "--M", "50",
            "--paths", "7", "--seed", "13", "--record", "full"]
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


def test_csv_floats_round_trip(tmp_path):
    params = write_params(tmp_path)
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--params", str(params), "--T", "0.5", "--M", "50",
                 "--paths", "2", "--seed", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    values = [float(tok) for tok in lines[1].split(",")]
    assert np.isfinite(values).all()
