"""Fold alternating parent/change benchmark runs into a BENCH_<PR>.json.

Each side's ``.perfbench_out/`` directory holds one result file per untraced
run, ``<workload>-seed<seed>-trace0.json``, as written by
``perfbench/run.py``.  Runs of the two sides with the same workload and seed
form a pair.  For every workload and every end-to-end metric of
``BENCHMARK.json`` this prints, or writes into the ``end_to_end`` and
``seeds`` keys of an existing JSON file, each side's median, inclusive
quartiles and sorted runs, the pairs, how many pairs the change won (ties
count for neither side), the ratio of the medians and a verdict against the
metric's ``bound`` (see :func:`verdict`; ``better`` means a gain can be
claimed), which is also printed on stderr,
one line per workload and metric.  The side that ran first in a pair is
read from the files' modification times.

    python3 tools/fold_bench.py PARENT_OUT CHANGE_OUT [--into BENCH_10.json]
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NAME = re.compile(r"(?P<workload>[a-z_]+)-seed(?P<seed>\d+)-trace0\.json")


def load_runs(out_dir: Path) -> dict:
    """{(workload, seed): (result, mtime)} for the untraced runs in out_dir."""
    runs = {}
    for path in sorted(out_dir.iterdir()):
        match = _NAME.fullmatch(path.name)
        if match:
            key = (match["workload"], int(match["seed"]))
            runs[key] = (json.loads(path.read_text()), path.stat().st_mtime)
    return runs


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "runs": sorted(round(v, 4) for v in values)}


def verdict(parent: dict, change: dict, better: str, bound: float,
            won: int = 0, pairs: int = 0, fails_more: bool = False) -> str:
    """How the change's runs compare with the parent's on one metric, given
    each side's :func:`summary`, which direction is ``better``, the
    relative ``bound``, how many of the ``pairs`` the change ``won`` and
    whether a larger share of its operations failed (``fails_more``):

    * ``worse``: the change's median is worse than the parent's by more
      than ``bound`` times the parent's median;
    * ``better``: the change won at least nine tenths of the pairs (ties
      count for neither side), its median is better than the parent's by
      more than the parent's quartile spread, and no larger share of its
      operations failed, so a gain can be claimed (never without
      ``pairs``);
    * ``unresolved``: the parent's quartile spread is wider than the
      bound, and not every change run beats every parent run;
    * ``within``: every other case.
    """
    sign = 1 if better == "higher" else -1
    allowed = bound * abs(parent["median"])
    gain = sign * (change["median"] - parent["median"])
    if gain < -allowed:
        return "worse"
    if (pairs and not fails_more and 10 * won >= 9 * pairs
            and gain > parent["q3"] - parent["q1"]):
        return "better"
    beats_all = all(sign * (c - p) > 0
                    for c in change["runs"] for p in parent["runs"])
    if parent["q3"] - parent["q1"] > allowed and not beats_all:
        return "unresolved"
    return "within"


def fold(parent: dict, change: dict, metrics: list) -> dict:
    """The ``seeds`` and ``end_to_end`` blocks of a BENCH_<PR>.json.

    ``metrics`` are BENCHMARK.json's ``end_to_end`` entries (name, better,
    bound).
    Only pairs present on both sides enter; each workload needs two.
    """
    pairs = sorted(set(parent) & set(change))
    workloads = sorted({w for w, _ in pairs})
    seeds, blocks = {}, {}
    for workload in workloads:
        keys = [k for k in pairs if k[0] == workload]
        if len(keys) < 2:
            raise ValueError(f"{workload}: need at least 2 pairs, got {len(keys)}")
        seeds[workload] = [seed for _, seed in keys]
        sides = {"parent": [parent[k] for k in keys],
                 "change": [change[k] for k in keys]}
        block = {side: {m["name"]: summary([r["metrics"][m["name"]]["value"]
                                             for r, _ in runs])
                        for m in metrics}
                 for side, runs in sides.items()}
        for field in ("failed", "attempted", "correct"):
            block[field] = {side: [r[field] for r, _ in runs]
                            for side, runs in sides.items()}
        failed, attempted = ({side: sum(block[field][side]) for side in sides}
                             for field in ("failed", "attempted"))
        # the shares failed/attempted compared without a division
        fails_more = (failed["change"] * attempted["parent"]
                      > failed["parent"] * attempted["change"])
        block["pairs_parent_change"] = [
            {"seed": seed,
             "first": "parent" if p_time <= c_time else "change",
             **{m["name"]: [round(p["metrics"][m["name"]]["value"], 4),
                            round(c["metrics"][m["name"]]["value"], 4)]
                for m in metrics}}
            for (_, seed), (p, p_time), (c, c_time)
            in zip(keys, sides["parent"], sides["change"])]
        for m in metrics:
            name, sign = m["name"], 1 if m["better"] == "higher" else -1
            won = sum(sign * (c - p) > 0 for p, c in
                      (pair[name] for pair in block["pairs_parent_change"]))
            block[f"{name}_change_better"] = f"{won} of {len(keys)}"
            medians = block["parent"][name]["median"], block["change"][name]["median"]
            block[f"{name}_change_over_parent_median"] = (
                round(medians[1] / medians[0], 3) if medians[0] else None)
            block[f"{name}_verdict"] = verdict(
                block["parent"][name], block["change"][name], m["better"],
                m["bound"], won, len(keys), fails_more)
        blocks[workload] = block
    return {"seeds": seeds, "end_to_end": blocks}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="the parent's .perfbench_out")
    ap.add_argument("change", type=Path, help="the change's .perfbench_out")
    ap.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    ap.add_argument("--into", type=Path,
                    help="JSON file whose seeds and end_to_end keys to replace")
    args = ap.parse_args(argv)
    metrics = json.loads(args.benchmark.read_text())["end_to_end"]
    try:
        folded = fold(load_runs(args.parent), load_runs(args.change), metrics)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for workload, block in folded["end_to_end"].items():
        for m in metrics:
            print(f"{workload} {m['name']}: {block[m['name'] + '_verdict']}",
                  file=sys.stderr)
    if args.into is None:
        print(json.dumps(folded, indent=1))
        return 0
    data = json.loads(args.into.read_text()) if args.into.exists() else {}
    data.update(folded)
    args.into.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
