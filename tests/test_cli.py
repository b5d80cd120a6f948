import concurrent.futures
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpf

import broydenlab
from broydenlab.cli import (_COMMANDS, METRICS_HEADER, SUMMARY_HEADER, _write,
                             main)
from broydenlab.harness import window


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


def test_list_problems_loads_no_unused_stdlib_module():
    # hashlib, concurrent.futures, fractions and json are imported where a
    # command uses them, so a fresh interpreter that needs none starts faster
    lazy = ("hashlib", "concurrent.futures", "fractions", "json")
    code = ("import sys; from broydenlab.cli import main; main(['list-problems']); "
            f"print([m for m in {lazy!r} if m in sys.modules])")
    src = str(Path(broydenlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert "example1" in done.stdout
    assert done.stdout.splitlines()[-1] == "[]"


def test_single_draws_without_loading_openssl(tmp_path):
    # CounterRng hashes with the interpreter's own SHA-256 (_sha256, or _sha2
    # on CPython 3.12+); hashlib's OpenSSL module costs 3.5 MB resident
    import importlib.util
    if not any(importlib.util.find_spec(m) for m in ("_sha256", "_sha2")):
        pytest.skip("this interpreter has no built-in SHA-256 module")
    argv = ["single", "--problem", "example1", "--precision", "60", "--tol", "30",
            "--out", str(tmp_path)]
    code = (f"import sys; from broydenlab.cli import main; main({argv!r}); "
            "print('_hashlib' in sys.modules)")
    src = str(Path(broydenlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert "status=converged" in done.stdout
    assert done.stdout.splitlines()[-1] == "False"


def test_bad_arguments_exit_2(tmp_path, capsys):
    assert main(["unknown-command"]) == 2
    assert main(["single", "--problem", "nonexistent",
                 "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "metrics.csv").exists()
    # invalid numeric configuration: tolerance too close to the precision
    assert main(["single", "--problem", "example1", "--tol", "200",
                 "--precision", "210", "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "metrics.csv").exists()


def test_failed_write_leaves_nothing(tmp_path, capsys, monkeypatch):
    # full-precision cells are computed while metrics.csv is open: a Jacobi
    # sweep that fails from its sixth call on stops the write part-way, and
    # neither the partial file nor the new directory is left behind
    from broydenlab import diagnostics
    from broydenlab.linalg import NoConvergence
    out, calls, partial = tmp_path / "out", [], []
    original = diagnostics.singular_values

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) >= 6:
            partial.extend(out.glob(".*.partial"))
            raise NoConvergence("rotation budget exceeded")
        return original(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "singular_values", failing)
    assert main(["single", "--problem", "example1", "--full-precision",
                 "--precision", "60", "--tol", "30", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert [p.name for p in partial] == [".metrics.csv.partial"]
    assert not out.exists() and list(tmp_path.iterdir()) == []


def test_write_streams_lines(tmp_path):
    # an iterable of lines is written as it is drawn, never joined in memory
    import tracemalloc
    lines = ("x" * 999 + "\n" for _ in range(20000))
    tracemalloc.start()
    try:
        _write(tmp_path, {"big.csv": lines})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "big.csv").stat().st_size == 20_000_000
    assert peak < 1_000_000
    assert [p.name for p in tmp_path.iterdir()] == ["big.csv"]


def test_interrupted_write_keeps_the_old_files(tmp_path):
    # Ctrl-C part-way: the directories the write made go, and a file of an
    # earlier run is neither replaced nor removed
    def lines():
        yield "new\n"
        raise KeyboardInterrupt
    with pytest.raises(KeyboardInterrupt):
        _write(tmp_path / "a" / "b", {"x.csv": lines()})
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "x.csv").write_text("old\n")
    with pytest.raises(KeyboardInterrupt):
        _write(tmp_path, {"y.ppm": b"P6", "x.csv": lines()})
    assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]
    assert (tmp_path / "x.csv").read_text() == "old\n"


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
    q_col = header.index("q")
    for k in window(kbar):
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
    return err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_basin_dimension_mismatch_exits_2(tmp_path, capsys, workers):
    # with two workers the refusal is raised in a pool worker
    code = main(["basin", "--problem", "example2", "--grid-res", "3",
                 "--workers", workers, "--out", str(tmp_path)])
    _assert_refused(code, capsys, tmp_path, "basin.ppm")


def test_basin_negative_half_width_exits_2(tmp_path, capsys):
    code = main(["basin", "--problem", "example1", "--half-width", "-0.001",
                 "--grid-res", "3", "--out", str(tmp_path)])
    _assert_refused(code, capsys, tmp_path, "basin.ppm")


@pytest.mark.parametrize("extra", [
    ["--alpha", "nan"], ["--alpha", "inf"], ["--alpha", "-1"],
    ["--beta", "nan"], ["--beta", "-0.5"],
    ["--method", "smp", "--C", "nan"], ["--method", "smp", "--C", "inf"],
    ["--method", "smp", "--order-alpha", "nan"], ["--alpha", "1/0"],
    ["--method", "smp", "--C", "1/0"], ["--method", "smp", "--order-alpha", "1/0"],
    # the smp constants are checked whichever method runs
    ["--method", "bm", "--C", "nonsense"], ["--method", "bmp", "--order-alpha", "xyz"],
    ["--method", "newton", "--C", "0"], ["--method", "newton", "--order-alpha", "0.7"],
])
def test_single_bad_scale_exits_2(tmp_path, capsys, extra):
    code = main(["single", "--problem", "example1", *extra,
                 "--precision", "100", "--tol", "50", "--out", str(tmp_path)])
    _assert_refused(code, capsys, tmp_path, "metrics.csv")


@pytest.mark.parametrize("command", ["single", "cumulative"])
@pytest.mark.parametrize("seed", [str(1 << 64), "-1"])
def test_seed_outside_64_bits_exits_2(tmp_path, capsys, command, seed):
    # the random stream keys on 64 bits of the seed, so a wider seed would
    # alias a narrower one (2**64 ran as 0, -1 as 2**64 - 1)
    code = main([command, "--problem", "example1", "--alpha", "1e-5",
                 "--precision", "60", "--tol", "30", "--seed", seed,
                 "--out", str(tmp_path)])
    _assert_refused(code, capsys, tmp_path,
                    "metrics.csv" if command == "single" else "summary.csv")


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
    {"problem": "example1", "alpha": "1e-5",
     "criteria": {"q_band": ["1e-400", "1e-401"]}},
    {"problem": "example1", "m": 1},
    {"alpha": "1e-5", "m": 1},
    {"problem": "example1", "alpha": "1e-5",
     "criteria": {"q_band": ["1/0", "1"]}},
    {"problem": "example1", "alpha": "1e-5", "rng_seed": 1 << 64},
])
def test_cumulative_malformed_config_exits_2(tmp_path, capsys, config):
    cfg_path = tmp_path / "series.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["cumulative", "--config", str(cfg_path), "--out", str(tmp_path)])
    _assert_refused(code, capsys, tmp_path, "summary.csv")


@pytest.mark.parametrize("flags", [["--m", "2"], ["--tol", "30", "--seed", "1"],
                                   ["--problem", "example1"]])
def test_cumulative_config_refuses_series_flags(tmp_path, capsys, flags):
    cfg_path = tmp_path / "series.json"
    cfg_path.write_text(json.dumps({"problem": "example1", "alpha": "1e-5",
                                    "m": 1, "precision": 60,
                                    "tol_exponent": 30}))
    code = main(["cumulative", "--config", str(cfg_path), *flags,
                 "--workers", "1", "--out", str(tmp_path)])
    err = _assert_refused(code, capsys, tmp_path, "summary.csv")
    # the message names every series flag given, and nothing else
    assert err == f"error: --config excludes {', '.join(flags[::2])}\n"


@pytest.mark.parametrize("command", [[]] + [[name] for name in _COMMANDS])
def test_help_of_every_command(capsys, command):
    assert main(command + ["--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: broydenlab")
    assert "Traceback" not in captured.out + captured.err


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


@pytest.mark.parametrize("argv, name", [
    (["cumulative", "--problem", "example1", "--alpha", "1e-5", "--m", "2",
      "--workers", "0", "--precision", "60", "--tol", "30"], "summary.csv"),
    (["basin", "--problem", "example1", "--grid-res", "3", "--workers", "-3"],
     "basin.ppm"),
])
def test_workers_below_one_exit_2(tmp_path, capsys, monkeypatch, argv, name):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    code = main(argv + ["--out", str(tmp_path)])
    _assert_refused(code, capsys, tmp_path, name)


@pytest.mark.parametrize("argv, name", [
    (["single", "--alpha", "0.1"], "metrics.csv"),
    (["cumulative", "--problem", "example1", "--alpha", "1e-5", "--m", "x"],
     "summary.csv"),
    # the basin draws no random numbers
    (["basin", "--problem", "example1", "--grid-res", "3", "--seed", "1"],
     "basin.ppm"),
])
def test_argparse_refusal_is_one_line(tmp_path, capsys, argv, name):
    # refusals of a missing required flag, a non-integer value or an
    # unknown flag print no usage block
    code = main(argv + ["--out", str(tmp_path)])
    _assert_refused(code, capsys, tmp_path, name)


@pytest.mark.parametrize("problem, line", [
    ("nope", "error: unknown problem 'nope'\n"),
    ("monomial:0", "error: monomial exponent must be >= 1\n"),
    ("monomial:x", "error: bad monomial exponent in 'monomial:x'\n"),
], ids=["nope", "monomial:0", "monomial:x"])
def test_unknown_problem_message(tmp_path, capsys, problem, line):
    code = main(["single", "--problem", problem, "--alpha", "0.1",
                 "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == line


# -- random command lines and configs ------------------------------------------

# each strategy draws from its valid values at least as often as from the
# invalid ones, so that some runs get past the input checks
_PROBLEMS = st.one_of(st.just("example1"), st.sampled_from(
    ["example1", "example2", "example3", "example4", "monomial:2",
     "monomial:0", "nope"]))
_GOOD_SCALES = st.sampled_from(["0.01", "1e-5", "0.3", "0"])
_SCALES = st.one_of(_GOOD_SCALES, _GOOD_SCALES,
                    st.sampled_from(["-1", "nan", "inf", "abc", "1e400"]))
_NOT_INT = st.sampled_from(["x", "2.5", ""])
_TOLS = st.one_of(st.integers(20, 30), st.integers(-2, 60), _NOT_INT)
_M = st.one_of(st.integers(1, 2), st.integers(-1, 2), _NOT_INT)
_SEEDS = st.one_of(st.integers(0, 3), _NOT_INT)


def _command(name, required, optional):
    """``name`` and ``--option value`` pairs for the required options and a
    random subset of the optional ones; a value drawn as None leaves its
    option out."""
    return st.fixed_dictionaries(required, optional=optional).map(
        lambda d: [name] + [x for k, v in d.items() if v is not None
                            for x in (k, str(v))])


# precision, tolerance and iteration cap are always drawn, so no run falls
# back to the 320-digit defaults; --problem may be missing
_BOUNDED = {"--problem": st.one_of(_PROBLEMS, _PROBLEMS, st.none()),
            "--tol": _TOLS,
            "--precision": st.one_of(st.integers(50, 80), st.integers(50, 80),
                                     _NOT_INT),
            "--max-iter": st.one_of(st.integers(30, 60), st.integers(-1, 60),
                                    _NOT_INT)}

_SINGLE = _command(
    "single", _BOUNDED,
    {"--method": st.sampled_from(["bm", "bmp", "smp", "newton"]),
     "--seed": _SEEDS, "--alpha": _SCALES, "--beta": _SCALES,
     "--b0-mode": st.sampled_from(["jacobian", "broyden-update"]),
     "--C": _SCALES, "--order-alpha": _SCALES})

_CUMULATIVE = _command(
    "cumulative", {**_BOUNDED, "--m": _M, "--alpha": _SCALES},
    {"--seed": _SEEDS, "--beta": _SCALES})

_BASIN = _command(
    "basin", {**_BOUNDED, "--grid-res": st.one_of(st.sampled_from([3, 5]),
                                                   st.integers(-1, 5), _NOT_INT)},
    {"--half-width": _SCALES})

_JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-2, 80),
                         _SCALES, st.lists(_SCALES, max_size=3))
# problem and alpha are required keys, but may be missing here
_CONFIG = st.fixed_dictionaries(
    {"tol_exponent": _TOLS, "precision": st.integers(50, 80),
     "max_iter": _BOUNDED["--max-iter"], "m": _M},
    optional={"problem": _PROBLEMS, "alpha": _SCALES,
              "beta": _SCALES, "rng_seed": st.integers(0, 3),
              "b0_mode": st.sampled_from(["jacobian", "broyden-update", "x"]),
              "window_rule": st.sampled_from(["min", "max", "x"]),
              "criteria": st.dictionaries(
                  st.sampled_from(["u_cap", "q_band", "Q_band", "q_bnd"]),
                  _JSON_VALUES, max_size=3),
              "bogus": _JSON_VALUES})
# a config together with a series flag, which it excludes
_CONFIG_AND_FLAG = st.tuples(
    _CONFIG, st.sampled_from(["--problem", "--alpha", "--m", "--tol", "--seed"]),
    st.one_of(_SCALES, _M))


@settings(max_examples=40, deadline=None)
@given(command=st.one_of(_SINGLE, _CUMULATIVE, _BASIN, _CONFIG,
                         _CONFIG_AND_FLAG))
def test_cli_random_input_never_crashes(tmp_path_factory, command):
    # any command line that argparse accepts, and any JSON config, ends in
    # a documented exit code with at most one line on stderr; a config with
    # a series flag is refused, and a run that succeeds writes no empty or
    # None cell to a CSV file (undefined values are written as -1)
    out = tmp_path_factory.mktemp("out")
    argv = command
    if not isinstance(command, list):
        data, *flag = command if isinstance(command, tuple) else (command,)
        config = out / "series.json"
        config.write_text(json.dumps(data))
        argv = ["cumulative", "--config", str(config), *map(str, flag)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv + ["--out", str(out)])
    expected = (2,) if isinstance(command, tuple) else (0, 2, 3)
    assert code in expected, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().count("\n") <= 1, err.getvalue()
    if code == 0:
        cells = [cell for path in out.glob("*.csv")
                 for line in path.read_text().splitlines()
                 for cell in line.split(",")]
        assert cells and not {"", "None"} & set(cells), (argv, cells)
