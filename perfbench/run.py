#!/usr/bin/env python3
"""orbihom benchmark: seeded CLI workloads in a closed loop.

    python3 perfbench/run.py --workload product-homology --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One client runs ops back to back: each op calls orbihom.cli.main
in-process with stdout captured, and the next op starts when it
returns.  The loop runs whole rounds (see workloads.py) until
--seconds have passed and at least MIN_OPS ops are done, then checks
nothing more: every op was checked against its expected output as it
finished.  Imports, input generation and expected values make up the
set-up, which is repeated SETUP_REPS times and reported as a median.

Every reported time is normalised for host speed: the probe kernel of
hostspeed.py is timed before and after each op and each set-up, and the
op's wall time is scaled by hostspeed.REFERENCE_S over the mean of the
two probe times.  The raw wall times are printed next to each metric.

--trace 0 reports the end-to-end metrics; --trace 1 reports the
per-layer metrics of tracer.py and writes the spans to .bench_out/.
The last line of stdout is one JSON object; the lines before it print
every metric with its unit and sample count.  `--workload all` runs
each workload in a fresh process, one after another.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import hostspeed
from tracer import Tracer
from workloads import COUNT_ROUNDS, WORKLOADS, size_range

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPS = 7
# Probe samples per host-speed reading around a set-up.
SETUP_PROBES = 3
# With 100 samples, ten lie beyond the 90th percentile.
MIN_OPS = 100


def load_library() -> SimpleNamespace:
    """Import orbihom afresh, so that every set-up pays for its imports."""
    for name in [n for n in sys.modules
                 if n == "orbihom" or n.startswith("orbihom.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("orbihom.cli")
    return SimpleNamespace(cli=cli, orbmodel=sys.modules["orbihom.orbmodel"],
                           chains=sys.modules["orbihom.chains"])


def input_dir(workload: str, seed: int) -> Path:
    return OUT / f"{workload}-seed{seed}"


def normalise(times: list[float], probes: list[float]) -> list[float]:
    """Scale times[i] by REFERENCE_S over the mean of the probe times
    taken right before it (probes[i]) and right after it (probes[i+1])."""
    return [t * 2 * hostspeed.REFERENCE_S / (before + after)
            for t, before, after in zip(times, probes, probes[1:])]


def setup_probe() -> float:
    return statistics.median(hostspeed.sample()
                             for _ in range(SETUP_PROBES))


def setup(workload: str, seed: int):
    """Set up SETUP_REPS times; returns the last set-up's library and
    rounds, and the raw and host-normalised time of every set-up."""
    times, probes = [], [setup_probe()]
    for _ in range(SETUP_REPS):
        start = perf_counter()
        lib = load_library()
        rounds = WORKLOADS[workload](seed, lib, input_dir(workload, seed))
        times.append(perf_counter() - start)
        probes.append(setup_probe())
    return lib, rounds, times, normalise(times, probes)


def check(op, code, text: str) -> bool:
    if code != 0:
        return False
    if op.kind == "text":
        return text == op.expected
    if op.kind == "json_pass":
        try:
            return json.loads(text).get("passed") is True
        except ValueError:
            return False
    lines = text.rstrip("\n").splitlines()
    return bool(lines) and lines[-1] == "RESULT PASS"


class Loop:
    """Closed loop over whole rounds; keeps per-op latency and failures.

    The host-speed probe runs before the first op and after every op,
    outside the ops' timing."""

    def __init__(self, cli, rounds, tracer: Tracer | None = None):
        self.cli = cli
        self.rounds = rounds
        self.tracer = tracer
        self.ops = 0
        self.failed = 0
        self.traced_argv: list[str] = []

    def run_op(self, op) -> float:
        """Run one op and check its output; returns the op's wall time.

        The output check runs after the clock stops."""
        out, err = io.StringIO(), io.StringIO()
        began = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.cli.main(list(op.argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an op that raises counts as failed; keep going
            code, err = None, io.StringIO(traceback.format_exc())
        elapsed = perf_counter() - began
        ok = check(op, code, out.getvalue())
        if not ok and self.failed < 3:
            print(f"op failed: {' '.join(op.argv)} (exit {code})\n"
                  f"{out.getvalue()}{err.getvalue()}", file=sys.stderr)
        self.ops += 1
        self.failed += not ok
        return elapsed

    def run(self, first_round: int, min_rounds: int, seconds: float,
            min_ops: int = 0) -> tuple[list[float], list[float], float, int]:
        """Run rounds from first_round on, cycling through the pool, until
        min_rounds are done, `seconds` have passed and min_ops ops ran.

        Returns the raw op latencies, the probe times around them (one
        more than the ops), the loop's wall time and the rounds done."""
        latencies: list[float] = []
        probes = [hostspeed.sample()]
        done = 0
        start = perf_counter()
        while (done < min_rounds or len(latencies) < min_ops
               or perf_counter() - start < seconds):
            for op in self.rounds[(first_round + done) % len(self.rounds)]:
                if self.tracer is not None:
                    self.tracer.op = self.ops
                    self.traced_argv.append(" ".join(op.argv))
                latencies.append(self.run_op(op))
                probes.append(hostspeed.sample())
            done += 1
        return latencies, probes, perf_counter() - start, done


def run_untraced(lib, rounds, seconds: float):
    loop = Loop(lib.cli, rounds)
    raw, probes, wall, done = loop.run(0, 1, seconds, MIN_OPS)
    latencies = normalise(raw, probes)
    n = len(latencies)
    deciles = statistics.quantiles(latencies, n=10)
    beyond = sum(1 for x in latencies if x > deciles[8])
    speed = hostspeed.REFERENCE_S / statistics.median(probes)
    metrics = {
        "ops_per_s": (n / sum(latencies), "1/s",
                      f"ops={n} rounds={done} raw={n / sum(raw):.4g} "
                      f"loop_wall={wall:.2f}s host_speed={speed:.3f}"),
        "latency_p50_s": (statistics.median(latencies), "s",
                          f"samples={n} raw={statistics.median(raw):.4g}"),
        "latency_p90_s": (deciles[8], "s",
                          f"samples={n} beyond={beyond} "
                          f"raw={statistics.quantiles(raw, n=10)[8]:.4g}"),
        "fail_ratio": (loop.failed / loop.ops, "ratio",
                       f"failed={loop.failed} attempted={loop.ops}"),
    }
    return loop, metrics


def run_traced(lib, rounds, seconds: float, workload: str, trace_path: Path,
               meta: dict):
    window = COUNT_ROUNDS[workload]
    tracer = Tracer()
    loop = Loop(lib.cli, rounds, tracer)
    tracer.install()
    try:
        tracer.counting = True
        lat_w, _, wall_w, _ = loop.run(0, window, 0)
        tracer.counting = False
        lat_r, _, wall_r, _ = loop.run(window, 0, seconds - wall_w)
    finally:
        tracer.uninstall()
    # Tracing overhead: the count-window rounds again, untraced.
    reference = Loop(lib.cli, rounds)
    _, _, wall_u, _ = reference.run(0, window, 0)
    traced = f"ops={len(lat_w) + len(lat_r)} wall={wall_w + wall_r:.2f}s"
    counted = f"window={len(lat_w)} ops"
    metrics = {name: (value, unit, traced if unit == "s" else counted)
               for name, (value, unit) in tracer.metrics(len(lat_w)).items()}
    metrics["trace.overhead_ratio"] = (
        wall_w / wall_u, "ratio",
        f"traced {len(lat_w) / wall_w:.4f} vs untraced "
        f"{reference.ops / wall_u:.4f} ops/s on the same {len(lat_w)} ops")
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_path, {**meta, "ops": loop.traced_argv})
    loop.ops += reference.ops
    loop.failed += reference.failed
    return loop, metrics


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "orbihom").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "git_sha": git_sha(),
            "src_sha256": digest.hexdigest()}


def run_workload(args) -> dict:
    try:
        return measure(args)
    finally:
        shutil.rmtree(input_dir(args.workload, args.seed), ignore_errors=True)


def measure(args) -> dict:
    lib, rounds, setup_raw, setup_times = setup(args.workload, args.seed)
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "sizes": size_range(rounds), **provenance()}
    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
        loop, metrics = run_traced(lib, rounds, args.seconds, args.workload,
                                   trace_path, meta)
    else:
        loop, metrics = run_untraced(lib, rounds, args.seconds)
        metrics["setup_s"] = (statistics.median(setup_times), "s",
                              f"samples={len(setup_times)} "
                              f"raw={statistics.median(setup_raw):.4g}")
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kib / 1024, "MB", "samples=1")
    print(f"# {json.dumps(meta)}")
    for name, (value, unit, note) in metrics.items():
        print(f"{args.workload:17} {name:28} {value:>14.6g} {unit:9} {note}")
    # fail_ratio is carried by attempted/failed: it is 0 on a correct run.
    metrics.pop("fail_ratio", None)
    return {"correct": loop.failed == 0, "attempted": loop.ops,
            "failed": loop.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _) in metrics.items()}}


def run_all(args) -> dict:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False, timeout=900)
        lines = child.stdout.rstrip("\n").splitlines()
        if child.returncode != 0 or not lines:
            raise RuntimeError(f"workload {workload} exited "
                               f"{child.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "orbihom" / "cli.py").is_file():
        print(f"error: orbihom sources not found under {SRC}",
              file=sys.stderr)
        return 2
    os.environ["ORBIHOM_COLOR"] = "0"
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
