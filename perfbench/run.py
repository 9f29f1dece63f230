"""Benchmark of graded-leibniz: four workloads timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of verify-paper, enumerate, aut-fp, structure, or `all`
(the default) to run each in turn.  Every measurement runs in a fresh
interpreter started from this checkout's `src/`; nothing is installed.

With ``--trace 0`` the run reports every end-to-end metric of
BENCHMARK.json: median wall and CPU time of a pass (set-up excluded),
median set-up time over several fresh interpreters, the peak resident
set of the measuring process (read from that child's own rusage via
``os.wait4``), and the median and 90th percentile latency of one timed
call within a pass (median over passes).  Every time is scaled to a
reference host speed sampled while it was measured (see hostspeed.py);
the raw medians are printed beside the scaled ones.  With ``--trace 1``
it runs untraced passes, then one traced pass, and reports the
per-layer metrics (see layers.py and predictions.json), including the
tracing overhead; the traced pass must produce the same outputs as the
untraced one.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from hostspeed import REF_QUANTUM_S, HostSpeed, measuring_cpu  # noqa: E402
from workloads import WORKLOADS, check_verify_paper  # noqa: E402

#: fresh interpreters timed for setup_s before the measured passes, and
#: again after them, so the median spans the run rather than one moment
SETUP_SAMPLES = 5

#: what one timed call is, per workload
OP_NAMES = {"verify-paper": "invocations", "enumerate": "enumerations",
            "aut-fp": "searches", "structure": "requests"}
#: what the failure fraction counts, per workload
CHECKED_OPS = {"verify-paper": "claims", "enumerate": "enumerations",
               "aut-fp": "searches", "structure": "requests"}


def _child_env() -> dict:
    env = dict(os.environ)
    # verify-paper sizes its pool from os.cpu_count() when this is unset
    env.pop("GRADED_LEIBNIZ_THREADS", None)
    # cache bytecode inside the checkout, so set-up after the first run
    # measures imports, not compilation
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Child:
    """A child interpreter whose own rusage is read when it is reaped.

    Used as a context manager: leaving the block early kills and reaps it.
    """

    def __init__(self, argv: list[str]):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                                     env=_child_env(), cwd=ROOT)

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self._reap()
        self.proc.stdout.close()

    def _reap(self):
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return usage

    def wait_ready(self) -> float:
        """``perf_counter`` time at which the child reported its inputs ready."""
        if self.proc.stdout.readline().strip() != b"ready":
            raise RuntimeError(f"child {self.proc.args[1:]} failed before set-up finished")
        return time.perf_counter()

    def finish(self):
        """(exit code, stdout, rusage, ``perf_counter`` time it was reaped)."""
        out = self.proc.stdout.read()
        usage = self._reap()
        return self.proc.returncode, out.decode(), usage, time.perf_counter()


def _run_child(argv: list[str]):
    with Child(argv) as child:
        child.wait_ready()
        code, out, usage, _ = child.finish()
    if code != 0:
        raise RuntimeError(f"child {argv} exited with code {code}")
    return json.loads(out.strip().splitlines()[-1]), usage


def setup_intervals(workload: str, seed: int) -> list[tuple[float, float]]:
    """(spawn, ready) of fresh interpreters that set the workload up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        with Child([str(WORKER), "setup", workload, str(seed)]) as child:
            samples.append((child.start, child.wait_ready()))
            code = child.finish()[0]
        if code != 0:
            raise RuntimeError(f"set-up of {workload} exited with code {code}")
    return samples


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _rss_mb(usage) -> float:
    return usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def measure_verify_paper(seconds: float) -> dict:
    """`graded-leibniz verify-paper` in a fresh interpreter, timed from outside."""
    passes, attempted, failed, notes = [], 0, 0, []
    begin = time.perf_counter()
    while True:
        with Child(["-m", "graded_leibniz.cli", "verify-paper"]) as child:
            code, out, usage, end = child.finish()
        wall = end - child.start
        a, f, _, n = check_verify_paper(code, out)
        attempted, failed, notes = attempted + a, failed + f, notes + n
        passes.append({"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                       "latencies_s": [wall], "starts_s": [child.start],
                       "rss_mb": _rss_mb(usage)})
        if time.perf_counter() - begin + wall / 2 > seconds:
            break
    return {"passes": passes, "rss_mb": max(p["rss_mb"] for p in passes),
            "attempted": attempted, "failed": failed, "notes": notes}


def measure_in_process(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    result, usage = _run_child([str(WORKER), "run", workload, str(seed), str(seconds),
                                "1" if trace else "0"])
    result["rss_mb"] = _rss_mb(usage)
    return result


def _times(passes: list[dict], setups: list[tuple[float, float]], scale) -> dict:
    """Timing metrics of a run, each timed call and set-up multiplied by
    scale(start, end) of the interval it was measured over.

    A pass's wall time is the sum of its scaled calls, and its CPU time
    is scaled by the same overall factor.
    """
    walls, cpus, lat_ms = [], [], []
    for p in passes:
        calls = [t * scale(s, s + t) for s, t in zip(p["starts_s"], p["latencies_s"])]
        walls.append(sum(calls))
        cpus.append(p["cpu_s"] * sum(calls) / sum(p["latencies_s"]))
        lat_ms.append([t * 1000 for t in calls])
    # request percentiles are taken within each pass, then the median
    # over passes, like wall_s
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median((ready - start) * scale(start, ready) for start, ready in setups),
        "req_p50_ms": statistics.median(_percentile(p, 50) for p in lat_ms),
        "req_p90_ms": statistics.median(_percentile(p, 90) for p in lat_ms),
    }


def end_to_end(workload: str, seed: int, seconds: float, spec: dict) -> tuple[dict, dict, list]:
    with HostSpeed() as host:
        setups = setup_intervals(workload, seed)
        if workload == "verify-paper":
            # its pool moves between CPUs, so neither it nor the sampler
            # is pinned
            host.pin(None)
            res = measure_verify_paper(seconds)
            host.pin(measuring_cpu())
        else:
            res = measure_in_process(workload, seed, seconds, trace=False)
        setups += setup_intervals(workload, seed)
    passes = res["passes"]
    values = _times(passes, setups, host.scale)
    values["peak_rss_mb"] = res["rss_mb"]
    raw = _times(passes, setups, lambda start, end: 1.0)
    quanta = [host.quantum_s(p["starts_s"][0], p["starts_s"][-1] + p["latencies_s"][-1]) * 1000
              for p in passes]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    calls = len(passes[0]["latencies_s"])
    first_p90 = _percentile(passes[0]["latencies_s"], 90)
    beyond = sum(1 for t in passes[0]["latencies_s"] if t > first_p90)
    base = f"{res['failed']} failed of {res['attempted']} {CHECKED_OPS[workload]}"

    def timed(name: str, unit: str, digits: int, how: str) -> str:
        return (f"{workload} {name} {values[name]:.{digits}f} {unit} ({how}; "
                f"raw {raw[name]:.{digits}f} {unit})")

    lines = [
        timed("wall_s", "s", 4, f"median of {len(passes)} passes"),
        timed("cpu_s", "s", 4, f"median of {len(passes)} passes"),
        timed("setup_s", "s", 4, f"median of {len(setups)} fresh interpreters"),
        f"{workload} peak_rss_mb {values['peak_rss_mb']:.1f} MB",
        timed("req_p50_ms", "ms", 2,
              f"median over {len(passes)} passes of {calls} {OP_NAMES[workload]} each"),
        timed("req_p90_ms", "ms", 2,
              f"median over {len(passes)} passes of {calls} {OP_NAMES[workload]} each, "
              f"{beyond} beyond p90 per pass"),
        f"{workload} ops_failed_frac {res['failed'] / res['attempted']:.4g} ({base})",
        f"{workload} host: times scaled to a {REF_QUANTUM_S * 1000:g} ms quantum; "
        f"median quantum per pass {min(quanta):.3f}-{max(quanta):.3f} ms, "
        f"{len(host.samples)} samples; sampler and children on cpu {measuring_cpu()}"
        + (", both unpinned during the passes" if workload == "verify-paper" else ""),
    ]
    counts = {"attempted": res["attempted"], "failed": res["failed"], "correct": res["failed"] == 0}
    return metrics, counts, lines + [f"{workload} check: {n}" for n in res["notes"][:20]]


def traced(workload: str, seed: int, seconds: float, spec: dict) -> tuple[dict, dict, list]:
    extra = {f"verification.c{c}.s": 0.0 for c in range(1, 11)}
    lines = []
    if workload == "verify-paper":
        plain, _ = _run_child([str(WORKER), "verify", "0"])
        res, _ = _run_child([str(WORKER), "verify", "1"])
        crit, _ = _run_child([str(WORKER), "criteria"])
        for c, s in crit["criteria_s"].items():
            extra[f"verification.c{c}.s"] = s
        traced_wall = res["wall_s"]
        extra["trace.overhead_s"] = traced_wall - plain["wall_s"]
        same = res["outputs"] == plain["outputs"]
        attempted = plain["attempted"] + res["attempted"] + crit["attempted"]
        failed = plain["failed"] + res["failed"] + crit["failed"]
        notes = plain["notes"] + res["notes"]
    else:
        res = measure_in_process(workload, seed, seconds, trace=True)
        traced_wall = res["traced_wall_s"]
        extra["trace.overhead_s"] = traced_wall - statistics.median(p["wall_s"] for p in res["passes"])
        same = res["same_outputs"]
        attempted, failed, notes = res["attempted"], res["failed"], res["notes"]
    trace = res["trace"]
    extra["verification.pool_threads"] = trace["worker_threads"] if workload == "verify-paper" else 0
    view = layers.TraceView(trace["stats"], trace["counts"], extra)
    metrics = layers.per_layer(spec, view)
    zeros = layers.predicted_zeros(metrics, workload, layers.load_predictions())
    for name, m in metrics.items():
        lines.append(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    lines.append(f"{workload} trace: traced pass {traced_wall:.3f} s, "
                 f"{trace['spans']} spans written to perfbench/out/")
    lines.append(f"{workload} trace: traced outputs {'equal' if same else 'DIFFER FROM'} untraced outputs")
    lines += [f"{workload} trace: {n} reads zero but is predicted to move here" for n in zeros]
    lines += [f"{workload} check: {n}" for n in notes[:20]]
    counts = {"attempted": attempted, "failed": failed,
              "correct": failed == 0 and same and not zeros}
    return metrics, counts, lines


def _env_line() -> str:
    return (f"env: python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, "
            f"os.cpu_count {os.cpu_count()}, verify-paper pool threads {os.cpu_count() or 1} "
            f"(GRADED_LEIBNIZ_THREADS unset)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # unwind on SIGTERM too, so the children are killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "graded_leibniz" / "__init__.py").is_file():
        print(f"error: no graded_leibniz sources under {SRC}", file=sys.stderr)
        return 2
    spec = layers.load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print(_env_line())
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in names:
        print(f"# workload {name}, seed {args.seed}, {seconds:g} s, tracing {'on' if args.trace else 'off'}",
              flush=True)
        measure = traced if args.trace else end_to_end
        got, counts, lines = measure(name, args.seed, seconds, spec)
        print("\n".join(lines), flush=True)
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in got.items()})
        attempted += counts["attempted"]
        failed += counts["failed"]
        correct = correct and counts["correct"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
