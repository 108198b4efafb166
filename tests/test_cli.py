import json
import math
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

from oracles import stable_distance_profile
from rampdro import cli, dro


def _load_schema(name):
    with resources.files("rampdro.schemas").joinpath(name).open() as fh:
        return json.load(fh)


def _read_json(path):
    return json.loads(path.read_text())


def _validate(payload, schema_name):
    jsonschema.validate(payload, _load_schema(schema_name))


def two_point_csv(tmp_path):
    # distances (0, 1) against (w=1, b=0) with weights (1/2, 1/2)
    path = tmp_path / "two.csv"
    path.write_text("x1,y,p\n0,1,0.5\n1,1,0.5\n")
    return path


def test_train_report_schema_and_content(tmp_path):
    out = tmp_path / "train.json"
    rc = cli.main([
        "train", "--n", "300", "--d", "4", "--seed", "3", "--starts", "3",
        "--grad-tol", "1e-6", "--out", str(out),
    ])
    assert rc == 0
    payload = _read_json(out)
    _validate(payload, "train_report.schema.json")
    res = payload["result"]
    assert res["converged"] is True
    assert res["n_clusters"] >= 1
    w = np.asarray(res["minimizer"]["w"], dtype=float)
    t = res["dro_variables"]["t"]
    assert t == pytest.approx(float(np.linalg.norm(w)), rel=1e-12)
    assert res["imputed_epsilon"] == pytest.approx(0.1 * t, rel=1e-12)
    np.testing.assert_allclose(np.asarray(res["dro_variables"]["w0"]) * t, w, atol=1e-10)


def test_train_deterministic_up_to_timestamp(tmp_path):
    args = ["train", "--n", "120", "--d", "3", "--seed", "9", "--starts", "2",
            "--grad-tol", "1e-6"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    a, b = _read_json(out1), _read_json(out2)
    a.pop("timestamp")
    b.pop("timestamp")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_train_rejects_plain_ramp_before_compute(tmp_path):
    rc = cli.main(["train", "--n", "10", "--d", "2", "--loss", "ramp",
                   "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert not (tmp_path / "x.json").exists()


def test_train_rejects_nonpositive_sigma(tmp_path, capsys):
    rc = cli.main(["train", "--n", "10", "--d", "2", "--sigma", "0",
                   "--out", str(tmp_path / "x.json")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "validation"


def test_train_missing_data_file_is_io_error(tmp_path):
    rc = cli.main(["train", "--data", str(tmp_path / "absent.csv"),
                   "--out", str(tmp_path / "x.json")])
    assert rc == 4


def _non_finite_starts(monkeypatch, bad):
    # multistart looks minimize up at call time; the starts listed in `bad` run
    # the real minimize on an objective that is NaN everywhere
    real = cli.solve.minimize
    calls = []

    def fake(fun, x0, opts):
        calls.append(None)
        if len(calls) - 1 in bad:
            return real(lambda z: (float("nan"), np.full_like(z, np.nan)), x0, opts)
        return real(fun, x0, opts)

    monkeypatch.setattr(cli.solve, "minimize", fake)


def test_train_reports_non_finite_starts_as_failures(tmp_path, monkeypatch):
    _non_finite_starts(monkeypatch, {1, 3})
    out = tmp_path / "t.json"
    rc = cli.main(["train", "--n", "300", "--d", "3", "--seed", "3", "--starts", "4",
                   "--out", str(out)])
    assert rc == 0
    payload = _read_json(out)
    _validate(payload, "train_report.schema.json")
    res = payload["result"]
    assert res["failures"] == [{"index": 1, "message": "non_finite"},
                               {"index": 3, "message": "non_finite"}]
    assert {i for c in res["clusters"] for i in c["members"]} == {0, 2}


def test_train_exits_numerical_when_every_start_is_non_finite(tmp_path, monkeypatch, capsys):
    _non_finite_starts(monkeypatch, {0, 1, 2})
    out = tmp_path / "t.json"
    rc = cli.main(["train", "--n", "300", "--d", "3", "--seed", "3", "--starts", "3",
                   "--out", str(out)])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == {
        "type": "numerical",
        "message": "no start converged: 3 of 3 had a non-finite start, 0 stopped unconverged",
    }
    assert not out.exists()


def test_train_exits_numerical_when_no_start_converges(tmp_path, capsys):
    out = tmp_path / "x.json"
    rc = cli.main(["train", "--n", "2000", "--d", "5", "--starts", "4", "--max-iters", "5",
                   "--out", str(out)])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "numerical"
    assert "4 stopped unconverged" in err["error"]["message"]
    assert not out.exists()


def test_train_reports_unconverged_starts_apart_from_clusters(tmp_path):
    out = tmp_path / "t.json"
    rc = cli.main(["train", "--n", "300", "--d", "4", "--seed", "3", "--starts", "6",
                   "--max-iters", "30", "--out", str(out)])
    assert rc == 0
    payload = _read_json(out)
    _validate(payload, "train_report.schema.json")
    res = payload["result"]
    unconverged = {u["index"] for u in res["unconverged"]}
    clustered = {i for c in res["clusters"] for i in c["members"]}
    assert unconverged and clustered and not res["failures"]
    assert unconverged | clustered == set(range(6)) and not unconverged & clustered
    assert all(u["iterations"] == 30 for u in res["unconverged"])
    assert res["converged"] is True


def test_train_with_corruptions_and_reference(tmp_path):
    out = tmp_path / "t.json"
    rc = cli.main([
        "train", "--n", "200", "--d", "3", "--seed", "1", "--starts", "2",
        "--flip-fraction", "0.1", "--adv-fraction", "0.1",
        "--reference", "1,0,0", "--grad-tol", "1e-5", "--out", str(out),
    ])
    assert rc == 0
    payload = _read_json(out)
    assert payload["config"]["flip_fraction"] == 0.1
    assert payload["config"]["reference"] == [1.0, 0.0, 0.0]


@pytest.mark.parametrize("scale", ["1e200", "1e-200"])
def test_train_reference_at_extreme_scales(tmp_path, scale):
    # the angle to the reference ignores its length; 1e200 overflowed the
    # norm, and 1e-200 underflowed it to a rejected "zero" vector
    payloads = []
    for reference in (f"{scale},0,0", "1,0,0"):
        out = tmp_path / f"t{len(payloads)}.json"
        rc = cli.main([
            "train", "--n", "200", "--d", "3", "--seed", "1", "--starts", "2",
            "--flip-fraction", "0.1", "--reference", reference, "--out", str(out),
        ])
        assert rc == 0
        payloads.append(_read_json(out))
    assert payloads[0]["config"]["reference"] == [float(scale), 0.0, 0.0]
    sins = [p["result"]["sin_angle_to_reference"] for p in payloads]
    assert 0.0 < sins[0] < 1.0
    assert sins[0] == pytest.approx(sins[1], abs=1e-14)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_oracle_report_equals_fresh_stable_profiles(tmp_path, monkeypatch, seed):
    # every oracle call building its own profile with a stable sort is the
    # plain reading; the shared, SIMD-sorted profile must give the same bits
    argv = [
        "oracle", "--n", "3000", "--d", "3", "--seed", str(seed), "--w", "1,0.3,-0.2",
        "--b", "0.1", "--epsilon", "0.05", "--rho", "0.3", "--flip-fraction", "0.1",
    ]
    shared, fresh = tmp_path / "shared.json", tmp_path / "fresh.json"
    assert cli.main([*argv, "--out", str(shared)]) == 0

    def stable_profile(dists, weights):
        # a profile grown whole, its arrays replaced by the stable sort's
        profile = dro._build(dists, weights)
        profile.cover(math.inf)
        vars(profile).update(stable_distance_profile(dists, weights))
        return profile

    monkeypatch.setattr(dro, "_profile", stable_profile)
    assert cli.main([*argv, "--out", str(fresh)]) == 0
    got, want = _read_json(shared), _read_json(fresh)
    del got["timestamp"], want["timestamp"]
    assert got == want


def test_oracle_two_point_instance(tmp_path):
    out = tmp_path / "oracle.json"
    rc = cli.main([
        "oracle", "--data", str(two_point_csv(tmp_path)), "--w", "1", "--b", "0",
        "--epsilon", "0.25", "--rho", "0.75", "--out", str(out),
    ])
    assert rc == 0
    payload = _read_json(out)
    _validate(payload, "oracle_report.schema.json")
    wc = payload["result"]["worst_case"]
    assert wc["dual_value"] == pytest.approx(0.75, abs=1e-12)
    assert wc["knapsack_value"] == pytest.approx(0.75, abs=1e-12)
    assert wc["difference"] <= 1e-12
    assert wc["t_star"] == 1.0
    assert payload["result"]["cvar"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert payload["result"]["chance_holds"] is True
    assert payload["result"]["cvar_holds"] is True


def test_oracle_epsilon_zero_gives_nominal_mass(tmp_path):
    out = tmp_path / "o0.json"
    rc = cli.main([
        "oracle", "--data", str(two_point_csv(tmp_path)), "--w", "1",
        "--epsilon", "0", "--out", str(out),
    ])
    assert rc == 0
    payload = _read_json(out)
    assert payload["result"]["worst_case"]["dual_value"] == pytest.approx(0.5, abs=1e-15)
    assert payload["result"]["worst_case"]["t_star"] == "inf"


def test_oracle_at_the_largest_normal(tmp_path):
    # ||w|| overflows at w = (1e308, 1e308); the distances, and so the whole
    # report, match those of w = (1, 1) to rounding
    reports = []
    for w in ("1e308,1e308", "1,1"):
        out = tmp_path / f"o{len(reports)}.json"
        assert cli.main(["oracle", "--n", "50", "--d", "2", "--w", w, "--epsilon", "0.1",
                         "--rho", "0.5", "--out", str(out)]) == 0
        reports.append(_read_json(out)["result"])
    big, unit = reports
    for part in ("margin", "worst_case"):
        assert big[part] == pytest.approx(unit[part], rel=1e-14, abs=1e-14)
    assert big["cvar"] == pytest.approx(unit["cvar"], rel=1e-14)
    assert (big["chance_holds"], big["cvar_holds"]) == (unit["chance_holds"], unit["cvar_holds"])


def test_oracle_dimension_mismatch(tmp_path):
    rc = cli.main(["oracle", "--data", str(two_point_csv(tmp_path)), "--w", "1,2",
                   "--epsilon", "0.1", "--out", str(tmp_path / "o.json")])
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["oracle", "--n", "20", "--d", "2", "--w", "1,0", "--epsilon", "nan"],
    ["train", "--n", "20", "--d", "2", "--starts", "1", "--grad-tol", "nan"],
    ["train", "--n", "20", "--d", "2", "--starts", "1", "--epsilon-bar", "nan"],
    ["train", "--n", "20", "--d", "2", "--starts", "1", "--flip-fraction", "nan"],
    ["train", "--n", "20", "--d", "2", "--starts", "1", "--flip-fraction", "-0.1"],
    ["oracle", "--n", "20", "--d", "2", "--w", "1,0", "--epsilon", "0.1", "--adv-fraction", "nan"],
    ["oracle", "--n", "20", "--d", "2", "--w", "1,0", "--epsilon", "0.1", "--adv-fraction", "-0.1"],
    ["train", "--n", "200", "--d", "3", "--starts", "3", "--grad-tol", "inf"],
    ["train", "--n", "20", "--d", "2", "--starts", "1", "--sigma", "inf"],
    ["certify-analytic", "--epsilons", "nan"],
    ["certify-analytic", "--epsilons", ""],
    ["certify-analytic", "--epsilons", "0.1,1e-30"],
    ["certify-analytic", "--epsilons", "inf"],
    ["reproduce", "--table", "T1", "--scale", "0.01", "--d", "0"],
    ["train", "--n", "200", "--d", "3", "--starts", "3", "--epsilon-bar", "inf"],
    ["reproduce", "--table", "T1", "--scale", "0.005", "--epsilon-bar", "inf"],
    ["train", "--n", "200", "--d", "3", "--starts", "3", "--reference", "inf,0,0"],
    ["train", "--n", "200", "--d", "3", "--starts", "3", "--reference", "nan,0,0"],
    ["train", "--n", "200", "--d", "3", "--starts", "3", "--reference", "0,0,0"],
    ["reproduce", "--table", "T1", "--scale", "0.005", "--starts", "0"],
    ["reproduce", "--table", "T1", "--scale", "0.005", "--starts", "-3"],
])
def test_nan_settings_are_validation_errors(tmp_path, capsys, argv):
    out = tmp_path / "x.json"
    rc = cli.main([*argv, "--out", str(out)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"]["type"] == "validation"
    assert not out.exists()


def test_oracle_malformed_csv_is_validation_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x1,y\n1.0,7\n")
    rc = cli.main(["oracle", "--data", str(bad), "--w", "1", "--epsilon", "0.1",
                   "--out", str(tmp_path / "o.json")])
    assert rc == 2


@pytest.mark.parametrize("table,n_rows", [("T1", 6), ("T2", 5), ("T4", 3)])
def test_reproduce_tables_small_scale(tmp_path, table, n_rows):
    out = tmp_path / f"{table.lower()}.csv"
    rc = cli.main(["reproduce", "--table", table, "--scale", "0.005", "--seed", "5",
                   "--starts", "20", "--grad-tol", "1e-5", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == n_rows + 1
    trends = _read_json(out.with_suffix(".trends.json"))
    _validate(trends, "reproduce_trends.schema.json")
    assert trends["config"]["table"] == table


def test_reproduce_t3_small_scale(tmp_path):
    out = tmp_path / "t3.csv"
    rc = cli.main(["reproduce", "--table", "T3", "--scale", "0.003", "--seed", "5",
                   "--starts", "20", "--grad-tol", "1e-4", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "flip_pct"
    assert len(lines) == 5


def test_reproduce_t2_has_imputed_epsilon_column(tmp_path):
    out = tmp_path / "t2.csv"
    rc = cli.main(["reproduce", "--table", "T2", "--scale", "0.005", "--seed", "2",
                   "--starts", "4", "--grad-tol", "1e-5", "--out", str(out)])
    assert rc == 0
    header, *rows = [line.split(",") for line in out.read_text().strip().splitlines()]
    i_norm = header.index("norm_w")
    i_imp = header.index("imputed_epsilon")
    for row in rows:
        eps_bar = float(row[0])
        assert float(row[i_imp]) == pytest.approx(eps_bar * float(row[i_norm]), rel=1e-4)


def test_reproduce_rejects_bad_scale(tmp_path):
    rc = cli.main(["reproduce", "--table", "T1", "--scale", "0",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_certify_analytic_small(tmp_path):
    out = tmp_path / "cert.json"
    rc = cli.main(["certify-analytic", "--epsilons", "0.5", "--out", str(out)])
    assert rc == 0
    payload = _read_json(out)
    _validate(payload, "certify_report.schema.json")
    assert payload["config"]["grid"] == 1  # one root cell: [-box, box]^2
    assert payload["config"]["box"] == 2.0  # R(0.5) = 1.31
    assert payload["result"]["all_pass"] is True
    entry = payload["result"]["per_epsilon"][0]
    assert entry["n_points"] == 1
    assert entry["checks"] == {
        "single_point": True,
        "closed_form_residual": True,
        "location": True,
        "value": True,
    }


def _certify(tmp_path, *argv):
    out = tmp_path / "cert.json"
    assert cli.main(["certify-analytic", *argv, "--out", str(out)]) == 0
    payload = _read_json(out)
    _validate(payload, "certify_report.schema.json")
    return payload["result"]


def test_certify_large_epsilons_find_points_beside_the_origin(tmp_path):
    # w1 = 1/(2 eps) lies inside the inner disk next to the origin
    result = _certify(tmp_path, "--epsilons", "1000,100000")
    assert result["all_pass"] is True
    for entry in result["per_epsilon"]:
        assert entry["n_points"] == 1
        assert entry["points"][0] == pytest.approx([0.5 / entry["epsilon"], 0.0], abs=1e-15)
        assert all(entry["checks"].values())


@pytest.mark.parametrize("eps", ["1e10", "1e100", "1e300"])
def test_certify_huge_epsilons_beside_the_origin(tmp_path, eps):
    # w = (1/(2 eps), 0) is far below 1e-10 but is not the origin
    result = _certify(tmp_path, "--epsilons", eps)
    assert result["all_pass"] is True
    entry = result["per_epsilon"][0]
    assert entry["n_points"] == 1
    assert entry["points"][0] == [0.5 / float(eps), 0.0]


def test_certify_near_the_largest_epsilon_raises_no_overflow_warning(tmp_path):
    # eps * w overflows on the coarse cells of the root that eps = 0.1 sets:
    # such a residual exceeds every finite bound, and the disk point's radius
    # must not round to 0 (3 * eps overflows here)
    result = _certify(tmp_path, "--epsilons", "0.1,8.98e307")
    assert result["all_pass"] is True
    assert [e["n_points"] for e in result["per_epsilon"]] == [1, 1]


def test_certify_no_longer_takes_grid(tmp_path):
    # the quadtree's one root cell is fitted to the outer radii, so there is
    # no root tiling and no box to set
    for flag in (["--grid", "120"], ["--box", "3"]):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["certify-analytic", *flag, "--out", str(tmp_path / "c.json")])
        assert exit_info.value.code == 2
        assert not (tmp_path / "c.json").exists()


def test_certify_rejects_epsilon_whose_double_overflows(tmp_path, capsys):
    rc = cli.main(["certify-analytic", "--epsilons", "1e308", "--out", str(tmp_path / "c.json")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["type"] == "validation"
    assert err["message"] == "epsilon must be positive with 2 * epsilon finite, got 1e+308"
    assert not (tmp_path / "c.json").exists()


def test_certify_on_the_inner_disk_edge(tmp_path):
    # eps = 1/sqrt(2): annulus survivors and the angle root meet
    result = _certify(tmp_path, "--epsilons", repr(math.sqrt(0.5)))
    assert result["all_pass"] is True
    assert result["per_epsilon"][0]["n_points"] == 1


def test_certify_requires_the_box_to_reach_the_outer_radius(tmp_path):
    # R(0.001) = 10.4, so the root square is [-16, 16]^2 and holds the
    # minimizer at 7.94 with every other stationary point there could be
    out = tmp_path / "cert.json"
    assert cli.main(["certify-analytic", "--epsilons", "0.001", "--out", str(out)]) == 0
    payload = _read_json(out)
    _validate(payload, "certify_report.schema.json")
    entry = payload["result"]["per_epsilon"][0]
    assert entry["outer_radius"] == pytest.approx(10.38, abs=0.01)
    assert payload["config"]["box"] == 16.0 >= entry["outer_radius"]
    assert payload["result"]["all_pass"] is True
    assert entry["points"][0] == pytest.approx([7.937005259840997, 0.0], abs=1e-12)


@pytest.mark.parametrize("eps,radius", [("1e-30", "10378908155.56212"), ("5e-324", "inf")])
def test_certify_rejects_epsilon_too_small_for_the_leaf_lattice(tmp_path, capsys, eps, radius):
    # pytest turns a RuntimeWarning into an error, as CI's PYTHONWARNINGS does
    rc = cli.main(["certify-analytic", "--epsilons", eps, "--out", str(tmp_path / "c.json")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err["type"] == "validation"
    assert err["message"] == (
        f"epsilon {eps} is too small: its outer radius {radius} is not below 268435456.0"
    )
    assert not (tmp_path / "c.json").exists()


def test_certify_rejects_nonpositive_epsilon(tmp_path):
    rc = cli.main(["certify-analytic", "--epsilons", "0.1,-1",
                   "--out", str(tmp_path / "c.json")])
    assert rc == 2


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "reports"))
    rc = cli.main(["oracle", "--n", "20", "--d", "2", "--seed", "1", "--w", "1,0",
                   "--epsilon", "0.1", "--out", "o.json"])
    assert rc == 0
    assert (tmp_path / "reports" / "o.json").exists()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "rampdro.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "train" in proc.stdout and "certify-analytic" in proc.stdout


def test_train_report_independent_of_blas_threads(tmp_path):
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "rampdro.cli", "train", "--n", "10000", "--d", "10",
             "--seed", "3", "--starts", "4", "--max-iters", "300", "--out", str(out)],
            capture_output=True, text=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        payload = _read_json(out)
        payload.pop("timestamp")
        reports.append(payload)
    assert reports[0] == reports[1]
