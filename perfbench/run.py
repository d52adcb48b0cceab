"""Benchmark entry point: run one workload through the public experiment API.

    python3 perfbench/run.py --workload {sweep,regimes,identities} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  One run repeats the workload's round of experiment calls for
about ``--seconds`` seconds and then checks every call's output.

* ``--trace 0`` reports the end-to-end metrics: ``wall_s`` and ``cpu_s``
  (median per round), ``setup_s`` (median of fresh-interpreter set-ups) and
  ``peak_rss_mb``; ``fail_frac`` is printed alongside.  The three times are
  rescaled to a reference machine speed (``speed.py``), measured during
  each round and, for set-up, over the whole run, which starts right after
  the set-ups; the raw times are printed on a ``perfbench raw`` line.
* ``--trace 1`` spends half the time untraced and half traced and reports
  the per-layer metrics of ``tracer.LAYER_METRICS``: counts from the first
  traced round, times as medians over traced rounds, and the tracing
  overhead (traced minus untraced round wall time).  These times are raw:
  the speed probe's handler would run inside the spans.  The first traced
  round's spans go to ``.perfbench_out/spans-<workload>-seed<N>.jsonl.gz``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
operation passed its checks, 1 when one failed and 2 when the checkout
holds no package source.
"""

import os

# Pinned before numpy loads a BLAS, and inherited by the set-up probes.
PINNED_ENV = {
    "OU_JUMP_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402
from typing import NamedTuple  # noqa: E402

import speed  # noqa: E402
from tracer import LAYER_METRICS, ROOT_GROUP, TIME_METRICS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
WORKLOADS = ("sweep", "regimes", "identities")


class Call(NamedTuple):
    """One experiment call as it ran: which, when, what it gave."""

    index: int
    op: object
    report: object
    error: "str | None"


class Round(NamedTuple):
    """Raw times of one round of calls, plus its tracer or speed samples."""

    wall: float
    cpu: float
    tracer: "Tracer | None"
    layers: "dict | None"
    probed: "speed.Interval | None"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def say(*parts) -> None:
    print("perfbench", *parts, flush=True)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
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


def environment() -> dict:
    import numpy
    import scipy

    import ou_jump_lab

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "ou_jump_lab": ou_jump_lab.__version__,
        "commit": git_commit(),
        "pinned_env": PINNED_ENV,
    }


def measure_setup(workload: str) -> list:
    """Seconds each fresh interpreter needs to import and build the models."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_rounds(ops, budget: float, traced: bool, first_index: int,
               probe: "speed.SpeedProbe | None" = None) -> tuple:
    """Repeat the round of ``ops`` while another round fits in ``budget``.

    Each traced round gets its own tracer, installed around the round only.
    With a running ``probe``, its handler's time is taken out of each round
    and the round keeps the speed samples taken during it.
    """
    calls, rounds = [], []
    start = perf_counter()
    while True:
        tracer = Tracer() if traced else None
        with tracer.installed() if traced else nullcontext():
            mark = probe.mark() if probe else None
            t0, c0 = perf_counter(), process_time()
            made = [one_call(first_index + len(calls) + i, op, tracer)
                    for i, op in enumerate(ops)]
            wall, cpu = perf_counter() - t0, process_time() - c0
            probed = probe.since(mark) if probe else None
        if probed:
            wall, cpu = wall - probed.spent_wall, cpu - probed.spent_cpu
        calls.extend(made)
        rounds.append(Round(wall, cpu, tracer,
                            tracer.summary() if traced else None, probed))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(rounds) > budget:
            return calls, rounds


def one_call(index: int, op, tracer) -> Call:
    def call():
        return op.run(op.config)

    report, error = None, None
    try:
        report = tracer.span(op.label, ROOT_GROUP, call) if tracer else call()
    except Exception as exc:  # the call failed; report it and keep measuring
        error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    return Call(index, op, report, error)


def rescaled(rounds, whole: "speed.Interval") -> tuple:
    """Median round (wall, cpu) at the reference speed."""
    walls, cpus = [], []
    for r in rounds:
        f_wall, f_cpu = r.probed.factors(whole)
        walls.append(r.wall * f_wall)
        cpus.append(r.cpu * f_cpu)
    return statistics.median(walls), statistics.median(cpus)


def source_digest() -> str:
    """sha256 of the package source, so stored report digests never outlive it."""
    h = hashlib.sha256()
    for path in sorted((SRC / "ou_jump_lab").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def verify(calls, built, seed: int) -> dict:
    """Failure messages per call index: raised, check failed, or bytes differ.

    The first call of each label sets the reference digest; every later call
    of that label, traced or not, must reproduce it byte for byte.  The
    references are kept in ``.perfbench_out/digests.json`` under the source
    digest and seed, so a later run with the same seed on the same source is
    held to them too -- a run with a single round still gets compared.
    """
    import numpy as np

    import workloads

    OUT.mkdir(exist_ok=True)
    store_path = OUT / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    prefix = f"{source_digest()}:{seed}:"
    problems, seen = {}, {}
    for call in calls:
        found = []
        if call.error is not None:
            found.append(f"raised {call.error}")
        else:
            digest = workloads.report_digest(call.report, OUT)
            seen.setdefault(call.op.label, digest)
            ref = store.setdefault(prefix + call.op.label, [digest, f"call {call.index}"])
            if digest != ref[0]:
                found.append(f"report bytes differ from {ref[1]} "
                             f"({digest[:16]} vs {ref[0][:16]})")
            rng = np.random.default_rng([seed, call.index])
            found += workloads.check(call.op, call.report, built, rng)
        problems[call.index] = found
    for label, digest in seen.items():
        say("digest", label, digest)
        store[prefix + label][1] = "an earlier run with this seed"
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    tmp.replace(store_path)
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ou_jump_lab" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ou_jump_lab

    if Path(ou_jump_lab.__file__).resolve().parent != (SRC / "ou_jump_lab").resolve():
        print(f"perfbench: imported {ou_jump_lab.__file__}, not the checkout's copy",
              file=sys.stderr)
        return 2
    import workloads

    say("env", json.dumps(environment(), sort_keys=True))
    ops = workloads.ops_for(args.workload, args.seed)
    budget = args.seconds / 2.0 if args.trace else float(args.seconds)

    setup_times = [] if args.trace else measure_setup(args.workload)
    probe = None if args.trace else speed.SpeedProbe()
    with probe or nullcontext():
        calls, plain = run_rounds(ops, budget, traced=False, first_index=0,
                                  probe=probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = []
    if args.trace:
        more, traced = run_rounds(ops, budget, traced=True, first_index=len(calls))
        calls += more

    built = workloads.setup(args.workload, args.seed)
    problems = verify(calls, built, args.seed)
    failed = sum(1 for found in problems.values() if found)
    for call in calls:
        for msg in problems[call.index]:
            print(f"perfbench FAIL call {call.index} {call.op.label}: {msg}",
                  file=sys.stderr)
    for call in calls[: len(ops)]:
        if call.report is not None:
            say("flags", call.op.label, json.dumps(workloads.flags(call.report)))
    say("rounds", f"untraced={len(plain)}", f"traced={len(traced)}",
        f"calls={len(calls)}", f"failed={failed}")

    wall = statistics.median(r.wall for r in plain)
    if args.trace:
        first = traced[0]
        metrics = {}
        for name, unit, _ in LAYER_METRICS:
            if name == "trace.overhead_s":
                value = statistics.median(r.wall for r in traced) - wall
            elif name in TIME_METRICS:
                value = statistics.median(r.layers[name] for r in traced)
            else:
                value = first.layers[name]
            metrics[name] = {"value": value, "unit": unit}
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        first.tracer.write_spans(spans)
        if first.tracer.missing:
            say("unwrapped", json.dumps(first.tracer.missing))
        if first.tracer.counts.get("trace.count_errors"):
            say("count_errors", first.tracer.counts["trace.count_errors"])
        say("spans", str(spans.relative_to(ROOT)))
    else:
        whole = probe.since((0, 0.0, 0.0))
        wall_s, cpu_s = rescaled(plain, whole)
        setup_s = statistics.median(setup_times)
        say("raw", f"wall_s={wall!r}",
            f"cpu_s={statistics.median(r.cpu for r in plain)!r}",
            f"setup_s={setup_s!r}",
            f"probe_samples={len(whole.wall)}",
            f"probe_median_s={statistics.median(whole.wall)!r}",
            f"probe_spent_s={whole.spent_wall!r}")
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "cpu_s": {"value": cpu_s, "unit": "s"},
            "setup_s": {"value": setup_s * whole.factors(whole)[0], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    for name, m in metrics.items():
        say("metric", name, repr(m["value"]), m["unit"])
    say("metric", "fail_frac", repr(failed / len(calls)), "ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
