"""Compare two sets of benchmark results, e.g. a parent commit's and a change's.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records run.py writes to .perfbench_out/results/.
For every workload and end-to-end metric it prints both medians and
quartiles and the change against the metric's bound in BENCHMARK.json.
It refuses to compare (exit 2) records whose core count, BLAS, BLAS
thread variables or CLI child environment differ, and records whose
output checks failed.
Same-seed quality numbers (val_loss, pa_f1) that differ are listed: a
change that only moves speed leaves them identical. Exit 1 when a median
is worse than its bound allows.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
QUALITY = ("val_loss", "pa_f1")


def load(directory: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(directory.glob("*-trace0.json"))]


def machine(record: dict) -> tuple:
    env = record["env"]
    return (env["nproc"], json.dumps(env["blas"], sort_keys=True),
            json.dumps(env["blas_threads"], sort_keys=True),
            json.dumps(env["cli_child_env"], sort_keys=True))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (load(Path(d)) for d in argv)
    if not base or not new:
        print("error: no *-trace0.json records in one of the directories", file=sys.stderr)
        return 2
    failed = [f"{r['workload']} seed {r['seed']}" for r in base + new if not r["result"]["correct"]]
    if failed:
        print(f"error: records whose output checks failed: {failed}", file=sys.stderr)
        return 2
    machines = {machine(r) for r in base + new}
    if len(machines) != 1:
        print("error: records come from different set-ups (nproc, BLAS, BLAS threads,"
              f" CLI child env): {sorted(machines)}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    worse = 0
    for key in sorted({(r["workload"], r["size"]) for r in base}
                      & {(r["workload"], r["size"]) for r in new}):
        sides = [[r for r in records if (r["workload"], r["size"]) == key] for records in (base, new)]
        print(f"{key[0]} ({key[1]} size): {len(sides[0])} base runs, {len(sides[1])} new runs")
        for metric in spec:
            name, bound = metric["name"], metric["bound"]
            values = [[r["result"]["metrics"][name]["value"] for r in side
                       if name in r["result"]["metrics"]] for side in sides]
            if not all(values):
                continue
            medians = [statistics.median(v) for v in values]
            change = medians[1] / medians[0] - 1.0
            regressed = change > bound if metric["better"] == "lower" else change < -bound
            worse += regressed
            quartiles = [statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
                         for v in values]
            print(f"  {name:<16} base {medians[0]:.6g} [{quartiles[0][0]:.6g}, {quartiles[0][2]:.6g}]"
                  f"  new {medians[1]:.6g} [{quartiles[1][0]:.6g}, {quartiles[1][2]:.6g}]"
                  f"  {change:+.2%} (bound {bound:.0%}, {metric['better']} is better)"
                  + ("  WORSE" if regressed else ""))
        by_seed = defaultdict(dict)
        for label, side in zip(("base", "new"), sides):
            for r in side:
                by_seed[r["seed"]][label] = r.get("extra", {})
        for seed, pair in sorted(by_seed.items()):
            for name in QUALITY:
                old, now = (pair.get(side, {}).get(name) for side in ("base", "new"))
                if old is not None and now is not None and old != now:
                    print(f"  seed {seed}: {name} {old!r} -> {now!r}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
