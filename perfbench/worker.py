"""Child process of the benchmark: one fresh interpreter per measurement.

    python3 perfbench/worker.py setup WORKLOAD SEED
    python3 perfbench/worker.py run WORKLOAD SEED SECONDS TRACE
    python3 perfbench/worker.py verify TRACE
    python3 perfbench/worker.py criteria

Every mode prints ``ready`` once the package is imported and the inputs
are built (the parent times set-up up to that line), and all but
`setup` end with one JSON line of results.  `run` drives the in-process
workloads; `verify` times ``cli.main(["verify-paper"])`` in-process for
the traced/untraced comparison; `criteria` times every claim thunk
single-threaded and sums the times per criterion.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _ready() -> None:
    print("ready", flush=True)


def _trace_summary(tracer: spans.Tracer, label: str) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"{label}.spans.jsonl")
    main = threading.main_thread().ident
    return {
        "stats": tracer.span_stats(),
        "counts": tracer.counts(),
        "spans": len(tracer.spans),
        "worker_threads": len(tracer.threads - {main}),
    }


def _installed_tracer() -> spans.Tracer:
    tracer = spans.Tracer()
    tracer.install()
    return tracer


def cmd_setup(workload: str, seed: int) -> None:
    if workload == "verify-paper":
        import graded_leibniz.cli  # noqa: F401
    else:
        workloads.IN_PROCESS[workload](seed)
    _ready()


def cmd_run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = workloads.IN_PROCESS[workload](seed)
    _ready()
    # another pass starts while it would end no more than half a pass
    # late; a traced run spends about half its time on untraced passes
    # and then runs one traced pass
    budget = seconds / 2 if trace else seconds
    passes = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        passes.append(workloads.run_pass(ops))
        took = time.perf_counter() - start
        if time.perf_counter() - begin + took / 2 > budget:
            break
    result = {"passes": [{k: p[k] for k in ("wall_s", "cpu_s", "latencies_s", "starts_s")}
                         for p in passes],
              "attempted": sum(p["attempted"] for p in passes),
              "failed": sum(p["failed"] for p in passes),
              "notes": [n for p in passes for n in p["notes"]][:20]}
    if trace:
        tracer = _installed_tracer()
        traced = workloads.run_pass(ops, tracer)
        result["attempted"] += traced["attempted"]
        result["failed"] += traced["failed"]
        result["notes"] += traced["notes"][:20]
        result["traced_wall_s"] = traced["wall_s"]
        result["same_outputs"] = _canon(traced["outputs"]) == _canon(passes[-1]["outputs"])
        result["trace"] = _trace_summary(tracer, workload)
    return result


def _canon(outputs) -> str:
    return json.dumps(outputs, sort_keys=True, default=repr)


def cmd_verify(trace: bool) -> dict:
    from graded_leibniz import cli

    _ready()
    tracer = _installed_tracer() if trace else None
    buf = io.StringIO()
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify-paper"])
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.assert_installed()
    finally:
        if tracer is not None:
            tracer.uninstall()
    attempted, failed, canon, notes = workloads.check_verify_paper(code, buf.getvalue())
    result = {"wall_s": wall, "code": code, "attempted": attempted, "failed": failed,
              "notes": notes[:20], "outputs": _canon([code, canon])}
    if tracer is not None:
        result["trace"] = _trace_summary(tracer, "verify-paper")
    return result


def cmd_criteria() -> dict:
    from graded_leibniz.verification import all_claim_thunks

    _ready()
    seconds: dict[int, float] = defaultdict(float)
    failed = 0
    thunks = all_claim_thunks()
    for thunk in thunks:
        start = time.perf_counter()
        claim = thunk()
        seconds[claim.criterion] += time.perf_counter() - start
        failed += bool(workloads.check_claim(claim.to_json()))
    return {"criteria_s": seconds, "attempted": len(thunks), "failed": failed}


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode in ("setup", "run"):
        # single-threaded: share a CPU with the parent's host-speed sampler
        hostspeed.pin_to_measuring_cpu()
    if mode == "setup":
        cmd_setup(rest[0], int(rest[1]))
        return 0
    if mode == "run":
        result = cmd_run(rest[0], int(rest[1]), float(rest[2]), rest[3] == "1")
    elif mode == "verify":
        result = cmd_verify(rest[0] == "1")
    elif mode == "criteria":
        result = cmd_criteria()
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
