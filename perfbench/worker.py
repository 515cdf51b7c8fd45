"""One workload in one single-threaded process.

The worker writes the workload's inputs, prints ``ready`` (the parent takes
the time from process start to this line as one set-up sample) and, with
``--measure``, runs whole rounds of calls for about ``--seconds``.  Each
call is ``ipj.cli.main(argv)`` in-process with its stdout captured, so it is
the call a user makes.  With ``--trace 1`` it then runs the same rounds
again under the tracer.  The last line of its output is a JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import ipj.cli as cli  # noqa: E402
import workloads  # noqa: E402
from reference import REFERENCE_S, Speed  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEED_EVERY_S, SPEED_SHARE = 0.2, 0.1


def run_call(argv: list) -> tuple:
    """(exit code or None if it raised, stdout, seconds) of one CLI call."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)  # looked up per call, so the tracer's wrapper is used
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # noqa: BLE001 - a crash is one failed call
        code = None
    return code, out.getvalue(), time.perf_counter() - t0


def run_rounds(calls: list, rounds: int, seconds: float, speed: Speed) -> dict:
    """Whole rounds of calls: ``rounds`` of them, or as many as fit in ``seconds``.

    Without ``rounds``, a round is started if the rounds so far say it will
    end within ``seconds``; the first round always runs, so a run lasts at
    most about ``seconds``, or one round where that is longer.

    Between calls, once SPEED_EVERY_S has passed, the machine speed is
    sampled for SPEED_SHARE of the time since the last sampling: the speed
    wavers within a tenth of a second, so a long call needs a long sampling
    to stand for it.  Each call is scaled to reference speed with the mean
    of the samplings just before and after it.
    """
    raw, before, outputs, errors = [], [], [], []
    bursts = [speed.sample()]
    failed = wrong = 0
    start = last_burst = time.perf_counter()
    done = 0
    while done < rounds if rounds else (
            done == 0 or (time.perf_counter() - start) * (done + 1) / done <= seconds):
        for call in calls:
            code, out, dt = run_call(call.argv)
            raw.append(dt)
            before.append(len(bursts) - 1)
            outputs.append((code, out))
            since = time.perf_counter() - last_burst
            if since >= SPEED_EVERY_S:
                bursts.append(speed.sample(since * SPEED_SHARE))
                last_burst = time.perf_counter()
            if code is None or code == 2:
                failed += 1
                errors.append(f"{call.argv}: exit {code}")
                continue
            try:
                payload = json.loads(out)
            except ValueError:
                payload = {}
            err = call.check(code, payload)
            if err:
                failed += 1
                wrong += 1
                errors.append(f"{call.argv}: {err}")
        done += 1
    bursts.append(speed.sample((time.perf_counter() - last_burst) * SPEED_SHARE))
    scaled = [dt * REFERENCE_S / ((bursts[k] + bursts[k + 1]) / 2) for dt, k in zip(raw, before)]
    return {"rounds": done, "raw": raw, "scaled": scaled, "outputs": outputs,
            "failed": failed, "wrong": wrong, "errors": errors}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True, help="directory for the input files")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file for the spans of the traced run")
    ap.add_argument("--measure", action="store_true", help="run the calls after set-up")
    args = ap.parse_args(argv)

    calls = workloads.build(args.workload, args.seed, Path(args.dir))
    print("ready", flush=True)
    if not args.measure:
        return 0

    speed = Speed()
    plain = run_rounds(calls, 0, args.seconds, speed)
    result = {
        "attempted": len(plain["outputs"]),
        "failed": plain["failed"],
        "wrong": plain["wrong"],
        "errors": plain["errors"][:5],
        "rounds": plain["rounds"],
        "verdicts_per_s": len(plain["scaled"]) / sum(plain["scaled"]),
        "verdict_ms_p50": statistics.median(plain["scaled"]) * 1000,
        "raw_verdicts_per_s": len(plain["raw"]) / sum(plain["raw"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "same_verdicts": True,
    }
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_rounds(calls, plain["rounds"], 0, speed)
        finally:
            tracer.uninstall()
        result["attempted"] += len(traced["outputs"])
        result["failed"] += traced["failed"]
        result["wrong"] += traced["wrong"]
        result["errors"] += traced["errors"][:5]
        result["same_verdicts"] = traced["outputs"] == plain["outputs"]
        overhead = sum(traced["scaled"]) - sum(plain["scaled"])
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        result["layers"] = tracer.metrics([m["name"] for m in bench["per_layer"]], overhead,
                                          sum(traced["scaled"]) / sum(traced["raw"]))
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
