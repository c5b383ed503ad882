"""profinite-kit benchmark: four seeded workloads, checked answers, one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload syntactic|closure|search|cli \
        --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client.  It repeats whole passes
over its fixed corpus while another pass fits in --seconds (at least one
pass).  With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of one traced
pass (after one untraced pass, which gives trace.overhead_ratio).  Lines
before it give the environment, the traffic profile and every metric with
its unit.  Records and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 1
HELD_OUT_SEED = 9001     # never used to tune the strata
SETUP_PROBES = 3
THREADS_VAR = "PROFINITE_KIT_THREADS"
# Reported with --trace 0.  failed_ratio is printed too but can be 0.
END_TO_END = [("throughput_qps", "queries/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MiB")]


def load_package():
    """Import the library from this checkout's src/, or fail loudly."""
    if not (SRC / "profinite_kit" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'profinite_kit'} not found; run from a profinite-kit checkout")
    sys.path.insert(0, str(SRC))
    pk = importlib.import_module("profinite_kit")
    if Path(pk.__file__).resolve().parent != SRC / "profinite_kit":
        sys.exit(f"error: imported profinite_kit from {pk.__file__}, not from {SRC}")
    return pk


def environment(threads_found) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "git_sha": sha or "not a git checkout",
            THREADS_VAR: "unset (1)" if threads_found is None else
            f"{threads_found!r} found, unset for the run (1)"}


def run_pass(queries, tracer=None, reference=None):
    """One pass in order: (seconds inside queries, per-query latencies, outcomes).

    An outcome is (True, answer) or (False, error text).  Given the first
    pass as `reference`, an answer is replaced by whether it equals the
    reference answer, so later passes hold no large results.
    """
    latencies, outcomes = [], []
    for index, (_, thunk) in enumerate(queries):
        if tracer is not None:
            tracer.query = f"q{index}"
        t0 = time.perf_counter()
        try:
            outcome = (True, thunk())
        except Exception as exc:  # a failing query is counted, and the loop goes on
            outcome = (False, f"{type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - t0)
        if reference is not None and outcome[0]:
            outcome = (True, outcome[1] == reference[index][1])
        outcomes.append(outcome)
    return sum(latencies), latencies, outcomes


def grade(workload, pk, state, passes):
    """Failures per pass: exceptions, checks on the first pass, drift in later ones.

    Also counts the queries that make the run incorrect: a wrong answer, or
    an error the workload does not list as a known defect.
    """
    first = passes[0][2]
    answered = {i: result for i, (ok, result) in enumerate(first) if ok}
    ordered = [answered.get(i) for i in range(len(first))]
    reasons = {i: result for i, (ok, result) in enumerate(first) if not ok}
    checked = workload.check(pk, state, ordered)
    reasons.update({i: r for i, r in checked.items() if i in answered})
    failed = sum(1 for i in range(len(first)) if i in reasons)
    for _, _, outcomes in passes[1:]:
        for i, (ok, value) in enumerate(outcomes):  # value: equal to the first, or the error
            if not ok or not value or i in reasons:
                failed += 1
                reasons.setdefault(i, "answer changed between passes" if ok else value)
    known = getattr(workload, "known_failure", lambda state, i, reason: False)
    wrong = sum(1 for i, reason in reasons.items()
                if i in answered or not known(state, i, reason))
    return failed, reasons, wrong, ordered


def probe_setup(name: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import, build and warm, then exit."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "run.py"), "--probe-setup",
                        "--workload", name, "--seed", str(seed)],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def end_to_end(latencies, wall, attempted, failed, setup_times, rss_kib) -> dict:
    p90 = statistics.quantiles(latencies, n=10)[8]
    return {
        "throughput_qps": ((attempted - failed) / wall, "queries/s",
                           f"{attempted - failed} answered in {wall:.2f} s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms", f"n={len(latencies)}"),
        "latency_p90_ms": (p90 * 1e3, "ms", f"n={len(latencies)}, "
                           f"{sum(x > p90 for x in latencies)} beyond"),
        "setup_s": (statistics.median(setup_times), "s",
                    "median of " + ", ".join(f"{t:.3f}" for t in setup_times)),
        "peak_rss_mb": (rss_kib / 1024, "MiB", "ru_maxrss"),
        "failed_ratio": (failed / attempted, "fraction", f"{failed}/{attempted}"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("syntactic", "closure", "search", "cli"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    threads_found = os.environ.pop(THREADS_VAR, None)
    pk = load_package()
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    state = workload.build(pk, args.seed)
    if args.probe_setup:
        workload.warm(pk, state)
        return 0

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    is_cli = args.workload == "cli"
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "environment": environment(threads_found)}

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None and not is_cli:
        tracer.install()
    workload.warm(pk, state)
    if tracer is not None:
        tracer.uninstall()
    queries = workload.queries(pk, state)

    passes = []
    elapsed = last = 0.0
    while not passes or elapsed + last <= args.seconds:
        start = time.perf_counter()
        passes.append(run_pass(queries, reference=passes[0][2] if passes else None))
        last = time.perf_counter() - start
        elapsed += last
        if args.trace:
            break
    rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN if is_cli else
                                 resource.RUSAGE_SELF).ru_maxrss

    if args.trace:
        if is_cli:
            child = ChildRunner(tracer)
            traced = run_pass(workload.queries(pk, state, child=child.run), tracer,
                              passes[0][2])
        else:
            tracer.install()
            traced = run_pass(queries, tracer, passes[0][2])
            tracer.uninstall()
        overhead = traced[0] / passes[0][0]
        passes.append(traced)
        tracer.write_spans(str(OUT / f"{stem}.spans.tsv.gz"))

    failed, reasons, wrong, first = grade(workload, pk, state, passes)
    attempted = sum(len(p[2]) for p in passes)
    record["profile"] = workload.profile(state, first)
    record["failures"] = {f"q{i} {queries[i][0]}": r for i, r in sorted(reasons.items())}
    print("environment:", json.dumps(record["environment"]))
    print("profile:", json.dumps(record["profile"], default=str))
    for where, reason in record["failures"].items():
        print(f"failed: {where}: {reason}")

    if args.trace:
        shown = {name: (value, unit, "")
                 for name, (value, unit) in tracing.summarize(tracer, overhead).items()}
    else:
        latencies = [x for p in passes for x in p[1]]
        wall = sum(p[0] for p in passes)
        shown = end_to_end(latencies, wall, attempted, failed,
                           probe_setup(args.workload, args.seed), rss_kib)
        record["passes"] = len(passes)
    for name, (value, unit, note) in shown.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))

    reported = tracing.per_layer_names() if args.trace else END_TO_END
    metrics = {name: {"value": shown[name][0], "unit": shown[name][1]}
               for name, _ in reported}
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u, _) in shown.items()}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


class ChildRunner:
    """Runs a CLI invocation through the bench shim and merges its spans."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, argv):
        out = OUT / "cli-child.json"
        out.unlink(missing_ok=True)
        command = [sys.executable, str(HERE / "cli_child.py"), str(out), *argv]
        proc = self.tracer.span("cli.process_ms", lambda: subprocess.run(
            command, cwd=ROOT, env=self.env, capture_output=True, text=True))
        if out.exists():  # absent when the child died before writing it
            self.tracer.merge(json.loads(out.read_text()), parent=len(self.tracer.spans) - 1)
        return proc.returncode, proc.stdout


if __name__ == "__main__":
    sys.exit(main())
