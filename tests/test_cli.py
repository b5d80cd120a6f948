import json

import pytest
from mpmath import mpf

from broydenlab.cli import METRICS_HEADER, SUMMARY_HEADER, main
from broydenlab.harness import Window


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_list_problems(capsys):
    assert main(["list-problems"]) == 0
    out = capsys.readouterr().out
    for name in ("example1", "example2", "example3", "example4", "monomial:p"):
        assert name in out


def test_bad_arguments_exit_2(tmp_path, capsys):
    assert main(["unknown-command"]) == 2
    assert main(["single", "--problem", "nonexistent",
                 "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "metrics.csv").exists()
    # invalid numeric configuration: tolerance too close to the precision
    assert main(["single", "--problem", "example1", "--tol", "200",
                 "--precision", "210", "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "metrics.csv").exists()


def test_verify_example3(capsys):
    assert main(["verify", "--problem", "example3"]) == 0
    out = capsys.readouterr().out
    assert "P_N F''" in out
    assert "jacobian vs central differences" in out


def test_verify_example4_skips_nullspace_check(capsys):
    assert main(["verify", "--problem", "example4"]) == 0
    out = capsys.readouterr().out
    assert "regular root" in out


def test_single_bmp_writes_metrics(tmp_path, capsys):
    code = main(["single", "--problem", "example1", "--method", "bmp",
                 "--alpha", "0.01", "--beta", "0", "--tol", "60",
                 "--precision", "160", "--seed", "42",
                 "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_csv(tmp_path / "metrics.csv")
    assert ",".join(header) == METRICS_HEADER
    assert rows[0][0] == "0"
    # undefined quantities at k = 0 serialize as the literal sentinel
    assert rows[0][3] == "-1" and rows[0][4] == "-1"
    kbar = len(rows) - 1
    window = Window.from_kbar(kbar)
    q_col = header.index("q")
    for k in window.indices:
        q = mpf(rows[k][q_col])
        assert mpf("0.616") <= q <= mpf("0.620")
    out = capsys.readouterr().out
    assert "status=converged" in out


def test_single_full_precision_roundtrip(tmp_path):
    code = main(["single", "--problem", "monomial:2", "--method", "newton",
                 "--alpha", "0.5", "--tol", "60", "--precision", "160",
                 "--max-iter", "250", "--full-precision",
                 "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_csv(tmp_path / "metrics.csv")
    q_col = header.index("q")
    # Newton on u**2 halves the iterate each step
    assert mpf(rows[-1][q_col]) == mpf("0.5")


def test_single_smp_and_bm_methods(tmp_path):
    for method in ("smp", "bm"):
        out_dir = tmp_path / method
        code = main(["single", "--problem", "example1", "--method", method,
                     "--alpha", "0.001", "--beta", "0", "--tol", "60",
                     "--precision", "160", "--seed", "7",
                     "--C", "1", "--order-alpha", "0.5",
                     "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "metrics.csv").exists()


def test_cumulative_with_inline_flags(tmp_path, capsys):
    code = main(["cumulative", "--problem", "example1", "--alpha", "1e-5",
                 "--beta", "0", "--m", "2", "--tol", "60",
                 "--precision", "130", "--seed", "11",
                 "--out", str(tmp_path)])
    assert code == 0
    header, rows = read_csv(tmp_path / "summary.csv")
    assert ",".join(header) == SUMMARY_HEADER
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert row["rem"] == "0"
    q_min = mpf(row["q_min"])
    assert mpf("0.616") <= q_min <= mpf("0.620")


def test_cumulative_with_json_config(tmp_path):
    cfg = {"problem": "example1", "alpha": "1e-5", "beta": "0", "m": 2,
           "tol_exponent": 60, "precision": 130, "max_iter": 500,
           "rng_seed": 11}
    cfg_path = tmp_path / "series.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["cumulative", "--config", str(cfg_path),
                 "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "summary.csv").exists()


def test_cumulative_empty_accepted_set_exits_3(tmp_path, capsys):
    cfg = {"problem": "example1", "alpha": "1e-5", "beta": "0", "m": 1,
           "tol_exponent": 60, "precision": 130, "max_iter": 3,
           "rng_seed": 11}
    cfg_path = tmp_path / "series.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["cumulative", "--config", str(cfg_path),
                 "--out", str(tmp_path)])
    assert code == 3
    assert not (tmp_path / "summary.csv").exists()


def test_cumulative_bad_config_exits_2(tmp_path):
    cfg_path = tmp_path / "series.json"
    cfg_path.write_text(json.dumps({"problem": "example1", "alpha": "0.1",
                                    "beta": "0", "bogus_key": 1}))
    assert main(["cumulative", "--config", str(cfg_path),
                 "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "summary.csv").exists()
    assert main(["cumulative", "--out", str(tmp_path)]) == 2


def test_basin_writes_image_and_table(tmp_path, capsys):
    code = main(["basin", "--problem", "example1", "--half-width", "0.001",
                 "--grid-res", "3", "--out", str(tmp_path)])
    assert code == 0
    image = (tmp_path / "basin.ppm").read_bytes()
    assert image.startswith(b"P6\n3 3\n255\n")
    assert len(image) == len(b"P6\n3 3\n255\n") + 27
    header, rows = read_csv(tmp_path / "basin.csv")
    assert header == ["x", "y", "class", "kbar", "q_final"]
    assert len(rows) == 9


def _assert_refused(code, capsys, tmp_path, name):
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / name).exists()


def test_basin_dimension_mismatch_exits_2(tmp_path, capsys):
    code = main(["basin", "--problem", "example2", "--grid-res", "3",
                 "--out", str(tmp_path)])
    _assert_refused(code, capsys, tmp_path, "basin.ppm")


def test_basin_negative_half_width_exits_2(tmp_path, capsys):
    code = main(["basin", "--problem", "example1", "--half-width", "-0.001",
                 "--grid-res", "3", "--out", str(tmp_path)])
    _assert_refused(code, capsys, tmp_path, "basin.ppm")


@pytest.mark.parametrize("extra", [
    ["--alpha", "nan"], ["--alpha", "inf"], ["--alpha", "-1"],
    ["--beta", "nan"], ["--beta", "-0.5"],
    ["--method", "smp", "--C", "nan"], ["--method", "smp", "--C", "inf"],
    ["--method", "smp", "--order-alpha", "nan"],
])
def test_single_bad_scale_exits_2(tmp_path, capsys, extra):
    code = main(["single", "--problem", "example1", *extra,
                 "--precision", "100", "--tol", "50", "--out", str(tmp_path)])
    _assert_refused(code, capsys, tmp_path, "metrics.csv")


@pytest.mark.parametrize("config", [
    [1, 2],
    {"problem": "example1", "alpha": "1e-5", "beta": "0", "m": "3"},
    {"problem": "example1", "alpha": "1e-5", "beta": "0", "m": True},
    {"problem": "example1", "alpha": "nan", "beta": "0"},
    {"problem": 1, "alpha": "1e-5"},
    {"problem": "example1", "alpha": "1e-5", "beta": "0",
     "criteria": {"q_bnd": ["0.9", "1.0"]}},
    {"problem": "example1", "alpha": "1e-5", "criteria": [0.9, 1.0]},
    {"problem": "example1", "alpha": "1e-5", "criteria": {"q_band": 0.9}},
])
def test_cumulative_malformed_config_exits_2(tmp_path, capsys, config):
    cfg_path = tmp_path / "series.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["cumulative", "--config", str(cfg_path), "--out", str(tmp_path)])
    _assert_refused(code, capsys, tmp_path, "summary.csv")


def test_cumulative_config_beta_defaults_to_zero(tmp_path):
    cfg = {"problem": "example1", "alpha": "1e-5", "m": 1, "tol_exponent": 60,
           "precision": 130, "rng_seed": 11,
           "criteria": {"u_cap": "1e-10", "q_band": ["0.616", "0.620"],
                        "Q_band": None}}
    cfg_path = tmp_path / "series.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["cumulative", "--config", str(cfg_path),
                 "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "summary.csv")
    assert dict(zip(header, rows[0]))["beta"] == "0"
