"""Golden outputs: SHA-256 hashes of the files the CLI writes.

Each case runs one small fixed configuration (130-320 digits) and compares
the hash of every output file with the value recorded when the case was
added.  A refactor must leave all of them unchanged; an intended change of
an output format or of a numerical path has to update the hash here, in the
same commit, with the reason.
"""
import contextlib
import hashlib
import io
import json

import pytest

from broydenlab.cli import main

_SINGLE = ["single", "--problem", "example1", "--alpha", "0.01",
           "--precision", "140", "--tol", "60", "--seed", "3"]
_BASIN = ["basin", "--problem", "example1", "--half-width", "0.001",
          "--grid-res", "9", "--precision", "160", "--tol", "60"]
_BASIN_9X9 = {
    "basin.ppm": "7dddf22f8b4ba04727a06fc5d181b20f5cc92fcdaeb75ed27c2900dd68e8c709",
    "basin.csv": "39fa888f14847a3a7b450001330ec395ef1626b0f4203a7f9152feca1085beab",
}
_EXAMPLE3 = ["single", "--problem", "example3", "--alpha", "0.1",
             "--precision", "140", "--tol", "60", "--seed", "3"]
_CUMULATIVE_M5 = {
    "summary.csv": "e83263b3d5f82628e5bce88c400f1d84a9de33ebf2fa826a38c4e7ec54bfa656"}
_CUMULATIVE_M5_ARGV = ["cumulative", "--problem", "example1", "--alpha", "1e-5",
                       "--m", "5", "--precision", "130", "--tol", "60", "--seed", "11"]
_EXAMPLE3_UPDATE = ["single", "--problem", "example3", "--alpha", "0.1",
                    "--b0-mode", "broyden-update", "--precision", "140", "--tol", "60",
                    "--seed", "3"]
_N3_SERIES = ["--alpha", "1e-5", "--m", "4", "--precision", "130",
              "--tol", "60", "--seed", "1"]

CASES = {
    "single-bm": (_SINGLE + ["--method", "bm"], {
        "metrics.csv": "73d13b9e919b18621143775056d7e75552642b27677fddd5298cbbc369192b48"}),
    "single-bmp": (_SINGLE + ["--method", "bmp"], {
        "metrics.csv": "198f6569e6eb0a6ab95542628819fb2a1ef70ffc9bff8c1fdc1aea4488d021be"}),
    "single-bmp-beta": (_SINGLE + ["--method", "bmp", "--beta", "1e-3"], {
        "metrics.csv": "1c2dbb71e6d075044923c1356bc779a9c176294461340021a0ed3b1616f7e8f4"}),
    "single-smp": (_SINGLE + ["--method", "smp"], {
        "metrics.csv": "5b262fd10ae4a5e4c912f1beb59b135f7a9aa843abf12def5fd6ff4c2c60f277"}),
    "single-newton": (_SINGLE + ["--method", "newton"], {
        "metrics.csv": "12563ca70c1e0c75ad50295d16961b6f54df30fb184f40c2af4b90ae7b2b2726"}),
    "single-bmp-full-precision": (_SINGLE + ["--method", "bmp", "--full-precision"], {
        "metrics.csv": "e7e8945eaf0caadfbbc584aad4876c3235a83cea21c0e9c70bb27909f9a435fc"}),
    "single-example3-broyden-update": (_EXAMPLE3_UPDATE, {
        "metrics.csv": "5b22bc1326d37d20d049a31baefb8301c026b18d9a3ce40987c0d63a16a75432"}),
    # n = 3 at full precision: the last bits of the metrics and of Jacobi's
    # singular values, which six digits hide
    "single-example3-broyden-update-full-precision": (
        _EXAMPLE3_UPDATE + ["--full-precision"], {
            "metrics.csv": "987c19603672e45df404265dc0e8c01a27641d8cbf04c64a35a73dda71aaaa8a"}),
    "single-example2-full-precision": (
        ["single", "--problem", "example2", "--alpha", "0.1", "--precision", "140",
         "--tol", "60", "--seed", "3", "--full-precision"], {
            "metrics.csv": "780e7b2a939a94efaa40d68e665c52ad8e04bbe7f86ea8ba5eac4e1b55e8ec55"}),
    # n = 1, example4's regular root, n = 3 for smp and newton, 320 digits
    "single-monomial2": (
        ["single", "--problem", "monomial:2", "--alpha", "0.5",
         "--precision", "140", "--tol", "60", "--seed", "3"], {
            "metrics.csv": "994eb4a635642ad258001d251d9531a6680c14d746fe9e167688827010ae45f8"}),
    "single-example4": (
        ["single", "--problem", "example4", "--alpha", "0.01",
         "--precision", "140", "--tol", "60", "--seed", "3"], {
            "metrics.csv": "9ab10fbb8ca4215701a39fe96c9c473b23c888fa843f56a54fbe468f3004b57c"}),
    "single-example3-smp": (_EXAMPLE3 + ["--method", "smp"], {
        "metrics.csv": "61240d39eb8d0fe978e3e6b8681a9c1d20f0abba54de2bb72b755e60e39365c5"}),
    "single-example3-newton": (_EXAMPLE3 + ["--method", "newton"], {
        "metrics.csv": "ca5b7122f3b7f2013ac8d0671c974c527bd981297f4d6f4736e4e694f1de996b"}),
    "single-bmp-320": (
        ["single", "--problem", "example1", "--alpha", "0.01",
         "--precision", "320", "--tol", "100", "--seed", "3"], {
            "metrics.csv": "2667b0558d6474766ab3fa0c813310478f14cf31f761c97adec44a7cfde330de"}),
    "cumulative-m5": (_CUMULATIVE_M5_ARGV, _CUMULATIVE_M5),
    # results do not depend on the worker count
    "cumulative-m5-workers-2": (_CUMULATIVE_M5_ARGV + ["--workers", "2"], _CUMULATIVE_M5),
    # the same series through an equivalent config
    "cumulative-m5-config": (
        ["cumulative", "--config",
         {"problem": "example1", "alpha": "1e-5", "m": 5, "precision": 130,
          "tol_exponent": 60, "rng_seed": 11}], _CUMULATIVE_M5),
    # n = 3, where no window row of ||E_k|| has an exact key
    "cumulative-example2": (
        ["cumulative", "--problem", "example2"] + _N3_SERIES, {
            "summary.csv": "9955342eb74c3a667bfff829788a4e3cc88114da8c6d9847050b6f105281f7fd"}),
    "cumulative-example3": (
        ["cumulative", "--problem", "example3"] + _N3_SERIES, {
            "summary.csv": "8f76da4609dd30c07048af6ffc37ed3879f6ab10180b9ebde8dd509303c961f0"}),
    # the only case of the "max" window rule; the config dict is written to
    # a file and its path takes the dict's place in argv
    "cumulative-config-max-window": (
        ["cumulative", "--config",
         {"problem": "example1", "alpha": "1e-5", "beta": "1e-3", "m": 4,
          "tol_exponent": 60, "precision": 130, "rng_seed": 5,
          "window_rule": "max"}], {
            "summary.csv": "cd183d2977a2f1b55ff27fc9c03f0629d42ff4718da8ae9dd184400c05ae3fe1"}),
    # the only cumulative case of the broyden-update B_0 (no b0 rule)
    "cumulative-broyden-update": (
        ["cumulative", "--problem", "example1", "--alpha", "1e-5",
         "--beta", "1e-3", "--b0-mode", "broyden-update", "--m", "4",
         "--precision", "130", "--tol", "60", "--seed", "7"], {
            "summary.csv": "ec812cdfad780e55a25bee7b56bdbc280df51f2779583319f175485433d75d3e"}),
    # the y = 0 row of this grid is purple: the Newton-like step lands on
    # the root exactly, so kbar = 1 and Q is undefined
    "basin-9x9-workers-1": (_BASIN + ["--workers", "1"], _BASIN_9X9),
    "basin-9x9-workers-2": (_BASIN + ["--workers", "2"], _BASIN_9X9),
    # 209 in-band, 14 out-of-band and 2 no-convergence pixels
    "basin-15x15": (
        ["basin", "--problem", "example1", "--half-width", "0.001",
         "--grid-res", "15", "--precision", "160", "--tol", "60",
         "--workers", "1"], {
            "basin.ppm": "737284de4b35954de6651cb8f972198dca143d5a18a2566ecb5a739ea204a7a4",
            "basin.csv": "9488ad4485a1704ef127cbae2722e279e316d5276440278c7af2fee8c352da00"}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    argv, hashes = CASES[name]
    config = tmp_path / "config.json"
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):
            config.write_text(json.dumps(arg))
            argv = argv[:i] + [str(config)] + argv[i + 1:]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--out", str(tmp_path)]) == 0
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
           for f in hashes}
    assert got == hashes
