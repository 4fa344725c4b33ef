"""Layered benchmark for ptamtl.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the library is imported from ``src/``.  One
process, one client, a closed loop: each op starts when the previous one has
ended.  Set-up (importing the library and building the seeded inputs) is
timed several times in a run and its median reported.  An op that runs past
its workload's time cap is stopped by SIGALRM and counted as failed.

With ``--trace 0`` the loop makes passes over the input pool for
``--seconds`` of wall time, timing one more set-up after each pass, and
reports the end-to-end metrics, taking each instance's op time as the
median of its repeats, in CPU seconds scaled to a reference speed (see
``speed.py``).  With ``--trace 1`` it sets up SETUP_REPS times, then runs the
first ops of the pool once untraced and once traced, alternating while time
remains, and reports per-layer metrics of one pass: exact counts (checked
to repeat between passes) and median times.  The last line of stdout is the
result; the line before it holds the environment, the answer digest and the
checks.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from speed import REFERENCE_S, Speedometer  # noqa: E402
from tracer import Tracer  # noqa: E402

LAYERS = ("timedwords", "mtl", "pta", "channel", "encoding", "reduction", "modelcheck", "formats", "cli")
SETUP_REPS = 5
RUN_LIMIT = 150.0  # no op starts later than this many seconds into a run

# name -> (pool maker, its size argument, ops in a traced pass, per-op time cap in seconds)
WORKLOADS = {
    "mc-reduction": (workloads.reduction_pool, 40, 12, 10.0),
    "mc-property": (workloads.property_pool, 1, 30, 10.0),
    "check-words": (workloads.words_pool, 2, 150, 5.0),
}


class OpTimeout(BaseException):
    """Raised by the alarm inside an op; a BaseException so that the CLI's
    catch-all error handler does not turn it into an exit code."""


def _alarm(signum, frame):
    raise OpTimeout()


class Library:
    """The ptamtl modules, freshly imported."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "ptamtl" or m.startswith("ptamtl.")]:
            del sys.modules[name]
        importlib.import_module("ptamtl")
        for layer in LAYERS:
            setattr(self, layer, importlib.import_module(f"ptamtl.{layer}"))


# -- tracing ------------------------------------------------------------------


def install_tracer(tracer: Tracer) -> None:
    counts = tracer.counts

    def monitor(args, result):
        counts["mtl.monitor_events"] += len(args[0])
        counts["mtl.monitor_rejects"] += result is False
        counts["pta.prefixes_offered"] += tracer.is_open("pta.search")

    def satisfied(args, result):
        counts["mtl.satisfies_events"] += len(args[0])

    def yielded(args, word):
        counts["pta.words_yielded"] += 1

    p = tracer.patch
    p("ptamtl.cli.main", "cli")
    for name in ("parse_pta", "parse_formula", "parse_rational", "parse_valuation", "parse_timed_word"):
        p(f"ptamtl.formats.{name}", "formats.parse")
    for name in ("serialize_pta", "serialize_formula", "serialize_timed_word", "serialize_valuation"):
        p(f"ptamtl.formats.{name}", "formats.serialize")
    p("ptamtl.cli.bounded_modelcheck", "modelcheck")
    p("ptamtl.modelcheck.prefix_may_satisfy", "mtl.monitor", after=monitor)
    p("ptamtl.modelcheck.iter_accepted", "pta.search", after=yielded, generator=True)
    p("ptamtl.modelcheck.membership", "pta.membership")
    p("ptamtl.modelcheck.satisfies", "mtl.satisfies", after=satisfied)
    p("ptamtl.mtl.satisfies", "mtl.satisfies", after=satisfied)
    p("ptamtl.encoding.check_membership", "encoding.check")
    p("ptamtl.reduction.build_bundle", "reduction.build")
    p("ptamtl.reduction.build_automaton", "reduction.build")
    p("ptamtl.reduction.build_formula", "reduction.build")
    p("ptamtl.channel.enumerate_error_free", "channel.enumerate")
    p("ptamtl.encoding.encode", "encoding.encode")


def formula_nodes(formulas) -> int:
    """Distinct nodes over the given formulas, each formula counted once."""
    total = 0
    for formula in {id(f): f for f in formulas}.values():
        seen, stack = set(), [formula]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(getattr(node, f) for f in ("operand", "left", "right") if hasattr(node, f))
        total += len(seen)
    return total


def setup_metrics(tracer: Tracer) -> dict:
    t = tracer.inclusive
    return {
        "reduction.build_s": t["reduction.build"],
        "channel.enumerate_s": t["channel.enumerate"],
        "encoding.encode_s": t["encoding.encode"],
        "formats.serialize_s": t["formats.serialize"],
    }


def pass_metrics(tracer: Tracer, op_seconds: float) -> tuple[dict, dict]:
    """(times, counts) of one traced pass over the pool."""
    t, c, n = tracer.inclusive, tracer.counts, tracer.calls
    layered = ("cli", "formats.parse", "formats.serialize", "modelcheck", "mtl.monitor",
               "pta.search", "pta.membership", "mtl.satisfies", "encoding.check")  # fmt: skip
    attributed = sum(tracer.self_time(key) for key in layered)
    times = {
        "mtl.monitor_s": t["mtl.monitor"],
        "pta.search_self_s": tracer.self_time("pta.search"),
        "pta.membership_s": t["pta.membership"],
        "mtl.satisfies_s": t["mtl.satisfies"],
        "encoding.check_s": t["encoding.check"],
        "formats.parse_s": t["formats.parse"],
        "modelcheck.self_s": tracer.self_time("modelcheck"),
        "cli.self_s": tracer.self_time("cli"),
        "trace.op_s": op_seconds,
        "share.mtl.monitor": t["mtl.monitor"] / op_seconds,
        "share.pta.search_self": tracer.self_time("pta.search") / op_seconds,
        "share.mtl.satisfies": t["mtl.satisfies"] / op_seconds,
        "share.encoding.check": t["encoding.check"] / op_seconds,
        "trace.self_sum_frac": attributed / op_seconds,
    }
    counts = {
        "mtl.monitor_calls": n["mtl.monitor"],
        "mtl.monitor_rejects": c["mtl.monitor_rejects"],
        "mtl.monitor_events": c["mtl.monitor_events"],
        "pta.prefixes_offered": c["pta.prefixes_offered"],
        "pta.words_yielded": c["pta.words_yielded"],
        "pta.membership_calls": n["pta.membership"],
        "mtl.satisfies_calls": n["mtl.satisfies"],
        "mtl.satisfies_events": c["mtl.satisfies_events"],
        "encoding.check_calls": n["encoding.check"],
    }
    return times, counts


# -- the closed loop ------------------------------------------------------------


class Loop:
    """Runs ops one after another; keeps each instance's op times (CPU
    seconds), the failures and one answer summary per instance.  With a
    speedometer it samples the host's speed before each op when due."""

    def __init__(
        self, cap: float, deadline: float, tracer: Tracer | None = None, speed: Speedometer | None = None
    ):
        self.cap = cap
        self.deadline = deadline
        self.tracer = tracer
        self.speed = speed
        self.times: dict[str, list[float]] = {}
        self.marks: dict[str, list[int]] = {}  # the speed sample taken before each op
        self.failures: list[str] = []
        self.answers: dict[str, str] = {}

    @property
    def attempted(self) -> int:
        return sum(len(t) for t in self.times.values())

    def run(self, instance) -> float:
        if self.speed is not None:
            self.marks.setdefault(instance.ident, []).append(self.speed.tick())
        signal.setitimer(signal.ITIMER_REAL, self.cap)
        start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            if self.tracer is None:
                answer = instance.op()
            else:
                answer = self.tracer.call("bench.op", instance.op)
            error = None
        except OpTimeout:
            error = f"timeout after {self.cap} s"
        except Exception as exc:  # noqa: BLE001 -- an op that raises is a failed op
            error = f"raised {type(exc).__name__}: {exc}"
        finally:
            cpu = time.process_time() - cpu_start
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.times.setdefault(instance.ident, []).append(cpu)
        if error is None:
            try:
                error = instance.check(answer)
                self.answers.setdefault(instance.ident, instance.summary(answer))
            except Exception as exc:  # noqa: BLE001 -- an unreadable answer is wrong
                error = f"unreadable answer: {type(exc).__name__}: {exc}"
        if error is not None:
            self.failures.append(f"{instance.ident}: {error}")
        return elapsed

    def run_pass(self, pool, stop: float = math.inf) -> float:
        """Run every instance once, in pool order, starting none at or after
        ``stop`` (a time.monotonic() value) or the deadline; returns the wall
        time the ops took."""
        busy = 0.0
        for instance in pool:
            if time.monotonic() >= min(stop, self.deadline):
                break
            busy += self.run(instance)
        return busy


def tail(samples: list[float]) -> tuple[float, float]:
    """The sample at the highest percentile with at least ten samples beyond
    it (the 11th largest) and that percentile; the largest one when there
    are fewer than 11 samples."""
    ordered = sorted(samples)
    index = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def environment(seed: int) -> dict:
    rev = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            rev = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            rev = ref
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_rev": rev,
        "workload_seed": seed,
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
    }


def build(name: str, seed: int, workdir: Path, tracer: Tracer | None = None):
    """Import the library afresh and build the workload's pool; returns the
    pool and the CPU seconds it took."""
    make_pool, size, _, _ = WORKLOADS[name]
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    gc.collect()  # every timed set-up starts from a collected heap
    start = time.process_time()
    lib = Library()
    if tracer is None:
        pool = make_pool(lib, random.Random(seed), workdir, size)
    else:
        install_tracer(tracer)
        pool = tracer.call("bench.setup", make_pool, lib, random.Random(seed), workdir, size)
    took = time.process_time() - start
    if tracer is not None:
        tracer.unpatch()
    return pool, took


def run_untraced(name, seed, workdir, cap: float, seconds: float, deadline: float):
    """Passes over the pool for ``seconds`` of wall time; the last pass stops
    when the time is up.  The set-up is timed before the first pass and again
    after each pass, where its pool is dropped, so that the ops keep running
    on warmed-up code; returns the loop, the set-up times, the speed sample
    taken before each set-up, the speedometer and the pool size."""
    speed = Speedometer()
    marks = [speed.tick(force=True)]
    pool, took = build(name, seed, workdir)
    setups = [took]
    loop = Loop(cap, deadline, speed=speed)
    stop = time.monotonic() + seconds
    while time.monotonic() < min(stop, deadline):
        loop.run_pass(pool, stop)
        marks.append(speed.tick(force=True))
        setups.append(build(name, seed, workdir)[1])
    return loop, setups, marks, speed, len(pool)


def run_traced(pool, cap: float, seconds: float, deadline: float):
    """Alternate untraced and traced passes over the pool while time remains."""
    started = time.perf_counter()
    traced_passes, count_sets = [], []
    attempted, failures, answers = 0, [], {}
    while not traced_passes or (
        time.perf_counter() - started < seconds and time.monotonic() < deadline
    ):
        plain = Loop(cap, deadline)
        plain_s = plain.run_pass(pool)
        tracer = Tracer()
        install_tracer(tracer)
        traced = Loop(cap, deadline, tracer)
        try:
            traced_s = traced.run_pass(pool)
        finally:
            tracer.unpatch()
        times, counts = pass_metrics(tracer, traced_s)
        times["trace.overhead_frac"] = traced_s / plain_s - 1
        traced_passes.append(times)
        count_sets.append(counts)
        for loop in (plain, traced):
            attempted += loop.attempted
            failures += loop.failures
            answers.update(loop.answers)
        absent = tracer.absent
    metrics = {key: statistics.median(p[key] for p in traced_passes) for key in traced_passes[0]}
    metrics.update(count_sets[0])
    checks = {
        "passes": len(traced_passes),
        "counts_repeat": all(c == count_sets[0] for c in count_sets),
        "self_times_cover_ops": abs(metrics["trace.self_sum_frac"] - 1) <= 0.05,
        "absent": absent,
    }
    return metrics, attempted, failures, answers, checks


END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "success_frac": "frac",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.startswith("share."):
        return "frac"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ptamtl" / "__init__.py").is_file():
        print(f"error: no ptamtl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    deadline = time.monotonic() + RUN_LIMIT
    signal.signal(signal.SIGALRM, _alarm)
    _, _, trace_ops, cap = WORKLOADS[args.workload]
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        details = {"env": environment(args.seed)}
        if args.trace:
            setups, layer_times = [], []
            for _ in range(SETUP_REPS):
                tracer = Tracer()
                pool, took = build(args.workload, args.seed, workdir, tracer)
                setups.append(took)
                layer_times.append(setup_metrics(tracer))
            traced_pool = pool[:trace_ops]
            metrics, attempted, failures, answers, checks = run_traced(traced_pool, cap, args.seconds, deadline)
            for key in layer_times[0]:
                metrics[key] = statistics.median(r[key] for r in layer_times)
            metrics["reduction.formula_nodes"] = formula_nodes(
                i.formula for i in traced_pool if i.formula is not None
            )
            details.update(checks, pool=len(traced_pool))
            digest_source = answers
        else:
            loop, setups, marks, speed, size = run_untraced(
                args.workload, args.seed, workdir, cap, args.seconds, deadline
            )
            attempted, failures = loop.attempted, loop.failures
            # An op's time is its CPU time, which leaves out the time other
            # processes held the CPU, scaled to the reference speed by the
            # speedometer's samples around it.  Each instance's op time is
            # the median of its repeats: the host now and then runs a stretch
            # well faster than usual, so the fastest repeat depends on
            # whether one fell in such a stretch.
            op_times = [
                statistics.median(t * speed.scale(m) for t, m in zip(loop.times[i], loop.marks[i]))
                for i in loop.times
            ]
            unscaled = [statistics.median(t) for t in loop.times.values()]
            details["unscaled"] = {
                "latency_p50_ms": 1000 * statistics.median(unscaled),
                "setup_s": statistics.median(setups),
            }
            details["speed"] = {
                "reference_s": REFERENCE_S,
                "kernel_median_s": statistics.median(speed.samples),
                "samples": len(speed.samples),
            }
            setups = [t * speed.scale(m) for t, m in zip(setups, marks)]
            p_tail, percentile = tail(op_times)
            metrics = {
                "throughput_ops_s": len(op_times) / sum(op_times),
                "latency_p50_ms": 1000 * statistics.median(op_times),
                "latency_tail_ms": 1000 * p_tail,
                "success_frac": 1 - len(failures) / attempted,
                "setup_s": statistics.median(setups),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            details["pool"] = size
            details["tail_percentile"] = percentile
            details["repeats"] = [min(map(len, loop.times.values())), max(map(len, loop.times.values()))]
            digest_source = loop.answers
        details["setup_s_reps"] = setups
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    details["digest"] = hashlib.sha256(
        json.dumps(sorted(digest_source.items())).encode()
    ).hexdigest()[:16]
    details["failures"] = failures[:20]
    print(json.dumps(details, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
