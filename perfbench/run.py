"""Benchmark of the ``ipj`` kernel: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run starts the workload's worker
process several times: each start writes the inputs made from ``--seed``
and counts as one set-up sample; the last one also measures.  The last line
of the output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 15
TIME_LIMIT_S = 170

sys.path.insert(0, str(HERE))
from reference import REFERENCE_START, REFERENCE_START_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class RunError(Exception):
    pass


def _reference_time(env: dict) -> float:
    """Wall time of one start of the reference process, to its end."""
    t0 = time.perf_counter()
    try:
        # no timeout: waiting with one polls in steps of up to 50 ms
        subprocess.run(REFERENCE_START, cwd=ROOT, env=env, check=True)
    except (subprocess.SubprocessError, OSError) as exc:
        raise RunError(f"the reference process failed: {exc}") from exc
    return time.perf_counter() - t0


def _worker(args, workdir: Path, measure: bool, deadline: float) -> tuple:
    """Start one worker; return (set-up seconds at reference speed, its last line).

    Set-up is the time from starting the worker until it reports ``ready``,
    scaled with the time of a reference process started just before it.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--dir", str(workdir)]
    if measure:
        cmd += ["--measure", "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}.tsv")]
    # bytecode is cached (outside the sources) as in an installed package
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    reference = _reference_time(env)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    try:
        ready = proc.stdout.readline()
        setup = (time.perf_counter() - t0) * REFERENCE_START_S / reference
        if ready.strip() != "ready":
            raise RunError("the worker stopped during set-up")
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired as exc:
        raise RunError("the worker ran past the time limit") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RunError(f"the worker exited with code {proc.returncode}")
    return setup, (out.strip().splitlines() or [""])[-1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through the finally blocks that stop the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "ipj" / "cli.py").is_file():
        print(f"error: no ipj sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = OUT / f"run-{os.getpid()}"
    try:
        setups = []
        for i in range(SETUP_SAMPLES):
            setup, last = _worker(args, workdir, i == SETUP_SAMPLES - 1, deadline)
            setups.append(setup)
        result = json.loads(last)
    except (RunError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for err in result["errors"]:
        print(f"failed call: {err}", file=sys.stderr)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        listed, values = bench["per_layer"], result["layers"]
    else:
        listed, values = bench["end_to_end"], dict(result, setup_s=statistics.median(setups))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(f"{result['rounds']} rounds; unscaled verdicts_per_s {result['raw_verdicts_per_s']}")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": result["wrong"] == 0 and result["same_verdicts"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
