import importlib.util
import json
import os
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "fold_bench.py"
_SPEC = importlib.util.spec_from_file_location("fold_bench", _PATH)
fold_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fold_bench)

METRICS = [{"name": "solves_per_s", "better": "higher", "bound": 0.25},
           {"name": "solve_ms_p50", "better": "lower", "bound": 0.25}]


def _write(out: Path, workload, seed, rate, ms, mtime, trace=0, failed=0):
    out.mkdir(exist_ok=True)
    path = out / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps({
        "correct": True, "attempted": 10, "failed": failed,
        "metrics": {"solves_per_s": {"value": rate, "unit": "1/s"},
                    "solve_ms_p50": {"value": ms, "unit": "ms"}}}))
    os.utime(path, (mtime, mtime))


def test_fold_made_up_runs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    # three pairs; the change wins the rate twice and ties the time once
    for i, (p, c) in enumerate([((4.0, 200.0), (6.0, 150.0)),
                                ((5.0, 180.0), (4.5, 180.0)),
                                ((6.0, 160.0), (9.0, 100.0))]):
        first, second = (parent, change) if i % 2 == 0 else (change, parent)
        _write(first, "cumulative", 900 + i, *(p if first is parent else c),
               mtime=1000 + 10 * i)
        _write(second, "cumulative", 900 + i, *(c if first is parent else p),
               mtime=1005 + 10 * i)
    # unpaired and traced runs are left out
    _write(parent, "cumulative", 999, 1.0, 1.0, mtime=2000)
    _write(change, "cumulative", 900, 1.0, 1.0, mtime=2000, trace=1)

    folded = fold_bench.fold(fold_bench.load_runs(parent),
                             fold_bench.load_runs(change), METRICS)
    assert folded["seeds"] == {"cumulative": [900, 901, 902]}
    block = folded["end_to_end"]["cumulative"]
    assert block["parent"]["solves_per_s"] == {
        "median": 5.0, "q1": 4.5, "q3": 5.5, "runs": [4.0, 5.0, 6.0]}
    assert block["change"]["solve_ms_p50"] == {
        "median": 150.0, "q1": 125.0, "q3": 165.0, "runs": [100.0, 150.0, 180.0]}
    assert block["solves_per_s_change_better"] == "2 of 3"
    assert block["solve_ms_p50_change_better"] == "2 of 3"
    assert block["solves_per_s_change_over_parent_median"] == 1.2
    assert [p["first"] for p in block["pairs_parent_change"]] == [
        "parent", "change", "parent"]
    assert block["pairs_parent_change"][1]["solves_per_s"] == [5.0, 4.5]
    assert block["failed"] == {"parent": [0, 0, 0], "change": [0, 0, 0]}
    assert block["solves_per_s_verdict"] == block["solve_ms_p50_verdict"] == "within"


def test_fold_into_keeps_other_keys(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2):
        _write(parent, "basin", seed, 1.0 + seed, 10.0, mtime=100)
        _write(change, "basin", seed, 2.0 + seed, 9.0, mtime=200)
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"end_to_end": METRICS}))
    into = tmp_path / "BENCH.json"
    into.write_text(json.dumps({"pr": 8, "seeds": {"old": [0]}}))
    assert fold_bench.main([str(parent), str(change), "--benchmark", str(bench),
                            "--into", str(into)]) == 0
    data = json.loads(into.read_text())
    assert data["pr"] == 8 and data["seeds"] == {"basin": [1, 2]}
    assert data["end_to_end"]["basin"]["solves_per_s_change_better"] == "2 of 2"


def test_fold_needs_two_pairs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write(parent, "single", 1, 1.0, 1.0, mtime=1)
    _write(change, "single", 1, 1.0, 1.0, mtime=2)
    with pytest.raises(ValueError):
        fold_bench.fold(fold_bench.load_runs(parent),
                        fold_bench.load_runs(change), METRICS)


@pytest.mark.parametrize("parent,change,better,want", [
    # a median 29% below the parent's, whose spread is narrow
    ([10.0, 10.5, 11.0], [7.0, 7.5, 8.0], "higher", "worse"),
    ([100.0, 100.0, 100.0], [120.0, 130.0, 140.0], "lower", "worse"),
    # 10% below, narrow spread
    ([10.0, 10.5, 11.0], [9.0, 9.5, 10.0], "higher", "within"),
    # the parent's quartiles (7, 13) span more than the bound of 2.5
    ([4.0, 10.0, 16.0], [9.0, 10.0, 11.0], "higher", "unresolved"),
    ([4.0, 10.0, 16.0], [3.0, 4.0, 5.0], "lower", "unresolved"),
    # a wide spread, but every change run beats every parent run
    ([4.0, 10.0, 16.0], [17.0, 18.0, 19.0], "higher", "within"),
    # worse by more than the bound wins over a wide spread
    ([4.0, 10.0, 16.0], [5.0, 6.0, 7.0], "higher", "worse"),
])
def test_verdict(parent, change, better, want):
    got = fold_bench.verdict(fold_bench.summary(parent), fold_bench.summary(change),
                             better, 0.25)
    assert got == want


@pytest.mark.parametrize("won,pairs,parent,change,better,want", [
    # 9 of 10 won, the median 4.0 better than the parent's, whose
    # quartiles (9.5, 10.5) are 1.0 apart
    (9, 10, [9.0, 10.0, 11.0], [13.0, 14.0, 15.0], "higher", "better"),
    (10, 10, [9.0, 10.0, 11.0], [13.0, 14.0, 15.0], "higher", "better"),
    (9, 10, [9.0, 10.0, 11.0], [5.0, 6.0, 9.0], "lower", "better"),
    # 8 of 10 pairs are too few for a claim
    (8, 10, [9.0, 10.0, 11.0], [13.0, 14.0, 15.0], "higher", "within"),
    # every pair won, but the medians differ by no more than the spread
    (10, 10, [9.0, 10.0, 11.0], [10.5, 10.8, 11.0], "higher", "within"),
    (10, 10, [9.0, 10.0, 11.0], [9.0, 9.0, 9.0], "lower", "within"),
])
def test_verdict_better(won, pairs, parent, change, better, want):
    got = fold_bench.verdict(fold_bench.summary(parent), fold_bench.summary(change),
                             better, 0.25, won, pairs)
    assert got == want


def test_verdict_worse_takes_precedence():
    # nine of ten pairs won cannot outweigh a median worse than the bound
    parent = fold_bench.summary([10.0, 10.0, 10.0])
    change = fold_bench.summary([5.0, 6.0, 7.0])
    assert fold_bench.verdict(parent, change, "higher", 0.25, 9, 10) == "worse"


def test_fold_claims_a_gain(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for i in range(10):
        p_rate = 10.0 + (i % 3) / 10
        c_rate = 9.0 if i == 4 else 14.0 + (i % 3) / 10
        _write(parent, "basin", 1300 + i, p_rate, 100.0, mtime=100 + i)
        _write(change, "basin", 1300 + i, c_rate, 100.0, mtime=200 + i)
    folded = fold_bench.fold(fold_bench.load_runs(parent),
                             fold_bench.load_runs(change), METRICS)
    block = folded["end_to_end"]["basin"]
    assert block["solves_per_s_change_better"] == "9 of 10"
    assert block["solves_per_s_verdict"] == "better"
    assert block["solve_ms_p50_change_better"] == "0 of 10"
    assert block["solve_ms_p50_verdict"] == "within"


def test_fold_no_gain_when_more_operations_fail(tmp_path):
    # the pairs of test_fold_claims_a_gain, but one change run fails an
    # operation the parent's runs do not
    parent, change = tmp_path / "parent", tmp_path / "change"
    for i in range(10):
        c_rate = 9.0 if i == 4 else 14.0 + (i % 3) / 10
        _write(parent, "basin", 1300 + i, 10.0 + (i % 3) / 10, 100.0, mtime=100 + i)
        _write(change, "basin", 1300 + i, c_rate, 100.0, mtime=200 + i,
               failed=1 if i == 7 else 0)
    folded = fold_bench.fold(fold_bench.load_runs(parent),
                             fold_bench.load_runs(change), METRICS)
    block = folded["end_to_end"]["basin"]
    assert block["failed"]["change"] == [0] * 7 + [1, 0, 0]
    assert block["solves_per_s_change_better"] == "9 of 10"
    assert block["solves_per_s_verdict"] == "within"


def test_verdict_no_gain_when_more_operations_fail():
    parent = fold_bench.summary([9.0, 10.0, 11.0])
    change = fold_bench.summary([13.0, 14.0, 15.0])
    assert fold_bench.verdict(parent, change, "higher", 0.25, 10, 10) == "better"
    assert fold_bench.verdict(parent, change, "higher", 0.25, 10, 10,
                              fails_more=True) == "within"


def test_main_prints_verdicts(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2, 3):
        _write(parent, "single", seed, 10.0 + seed / 10, 100.0, mtime=100)
        _write(change, "single", seed, 7.0 + seed / 10, 100.0, mtime=200)
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"end_to_end": METRICS}))
    assert fold_bench.main([str(parent), str(change), "--benchmark", str(bench)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["single solves_per_s: worse", "single solve_ms_p50: within"]
