"""Run sets of benchmark runs and hold them against the bounds.

    python3 perfbench/compare.py run --out FILE [--seeds 1-10]
    python3 perfbench/compare.py spread FILE
    python3 perfbench/compare.py compare BASE NEW

``run`` appends one JSON line per run (workload, seed, result) to FILE, for
every workload of BENCHMARK.json, with its run length and tracing off.  ``spread`` prints, per workload and
end-to-end metric, the median of the runs and the distance between the
first and third quartile as a share of the median, next to the metric's
bound.  ``compare`` prints how far NEW's median is worse than BASE's, as a
share of BASE's median, and fails (exit 1) when that exceeds a bound or when
the share of failed calls differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cmd_run(args) -> int:
    bench = _benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    with open(args.out, "a", encoding="utf-8") as fh:
        for seed in _seeds(args.seeds):
            for workload in workloads:
                cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                       "--seconds", str(bench["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    return 1
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                fh.write(json.dumps({"workload": workload, "seed": seed, "result": result}) + "\n")
                fh.flush()
                print(workload, seed, json.dumps(result), flush=True)
    return 0


def _load(path: str) -> dict:
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            runs[row["workload"]].append(row["result"])
    return runs


def _failed_share(results: list) -> float:
    return sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)


def cmd_spread(args) -> int:
    bench = _benchmark()
    for workload, results in _load(args.file).items():
        print(f"{workload}: {len(results)} runs, failed share {_failed_share(results)}, "
              f"correct {all(r['correct'] for r in results)}")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread <= m["bound"] / 3 else "WIDE" if spread > m["bound"] else "near"
            print(f"  {m['name']:16} median {med:12.5f}  q1 {q1:12.5f}  q3 {q3:12.5f}  "
                  f"spread {spread:7.4f}  bound {m['bound']}  {flag}")
    return 0


def cmd_compare(args) -> int:
    bench = _benchmark()
    base, new = _load(args.base), _load(args.new)
    ok = True
    for workload in base:
        if _failed_share(base[workload]) != _failed_share(new[workload]):
            print(f"{workload}: failed share differs")
            ok = False
        for m in bench["end_to_end"]:
            b = statistics.median(r["metrics"][m["name"]]["value"] for r in base[workload])
            n = statistics.median(r["metrics"][m["name"]]["value"] for r in new[workload])
            worse = (n - b) / b if m["better"] == "lower" else (b - n) / b
            verdict = "ok" if worse <= m["bound"] else "WORSE"
            ok = ok and verdict == "ok"
            print(f"{workload:10} {m['name']:16} base {b:12.5f}  new {n:12.5f}  "
                  f"worse by {worse:+.4f}  bound {m['bound']}  {verdict}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default="1-10")
    p.set_defaults(fn=cmd_run)
    p = sub.add_parser("spread")
    p.add_argument("file")
    p.set_defaults(fn=cmd_spread)
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    p.set_defaults(fn=cmd_compare)
    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
