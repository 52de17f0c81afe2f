"""Run one qsdiag benchmark workload, check every output and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

The workload is a closed loop with one client: the next CLI job starts when
the previous one has returned.  In-process workloads call
`qsdiag.cli.main(argv)`; cli-cold starts `python -m qsdiag.cli` per job.
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 the run measures half its time untraced, then the same number of
cycles with span recorders around qsdiag's public functions, and carries the
per-layer metrics.  Exit status 0 means every output passed its check.
"""

import os

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:  # before numpy loads, here and in every subprocess
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer, clock, self_times  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("diagram-sparse", "channel-density", "cli-cold")
SETUP_REPS = 3
# job_tail_ms reads the highest of these percentiles that leaves at least
# TAIL_BEYOND samples above it, up to the workload's tail_cap.  A coarse
# fixed ladder keeps the percentile the same from run to run while the
# sample count wobbles, and the cap keeps it the same when a faster program
# fits more cycles into a run, so a parent and a child read one percentile.
TAIL_LADDER = (50, 75, 95, 99, 99.9)
TAIL_BEYOND = 10
SUBPROCESS_TIMEOUT_S = 60
# An untraced run makes at least two passes, so that a slow machine still
# collects enough samples for the same tail percentile.
MIN_CYCLES = 2


@dataclass
class Record:
    job: int  # index into the plan's job list
    start: int
    end: int
    code: int
    digest: str

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6


class Runner:
    """Runs one job and returns (exit code, stderr text, start ns, end ns)."""

    def __init__(self, subprocess_jobs: bool, env: dict):
        self.subprocess_jobs = subprocess_jobs
        self.env = env
        self.tracer = None
        self.spans_file = None

    def __call__(self, job, record: int):
        job.out.unlink(missing_ok=True)
        if self.subprocess_jobs:
            return self._subprocess(job, record)
        if self.tracer:
            self.tracer.job = record
        err = io.StringIO()
        main = sys.modules["qsdiag.cli"].main  # the wrapped one once tracing
        with contextlib.redirect_stderr(err):
            start = clock()
            code = main(job.argv)
            end = clock()
        return code, err.getvalue(), start, end

    def _subprocess(self, job, record: int):
        start = clock()
        if self.spans_file:
            cmd = [sys.executable, str(HERE / "child.py"), str(self.spans_file),
                   str(record), str(start), "--", *job.argv]
        else:
            cmd = [sys.executable, "-m", "qsdiag.cli", *job.argv]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=SUBPROCESS_TIMEOUT_S)
        end = clock()
        return proc.returncode, proc.stderr + proc.stdout, start, end


def _read(path: Path):
    return path.read_bytes() if path.exists() else None


def _digest(data, err: str, code: int) -> str:
    h = hashlib.blake2b(data if data is not None else b"<none>")
    h.update(f"\0{code}\0{err}".encode())
    return h.hexdigest()


def run_cycles(plan, runner, last_err: dict, budget_ns=None, cycles=None, first=0,
               min_cycles=1):
    """Run whole passes over the plan's jobs.

    Stops after `cycles` passes, or before the pass that would overrun
    `budget_ns` once `min_cycles` passes are done.  Returns (records,
    wall ns, passes).
    """
    records = []
    t0 = clock()
    k = 0
    while True:
        for i, job in enumerate(plan.jobs):
            code, err, start, end = runner(job, first + len(records))
            records.append(Record(i, start, end, code, _digest(_read(job.out), err, code)))
            last_err[i] = err
        k += 1
        elapsed = clock() - t0
        if (k >= cycles) if cycles else k >= min_cycles and elapsed * (k + 1) > budget_ns * k:
            return records, elapsed, k


def judge(job, code: int, err: str):
    """First problem with a job's final output, or None."""
    if code != job.expect_code:
        return f"exit code {code}, expected {job.expect_code}: {err.strip()[:200]!r}"
    if job.expect_code == 0 and err:
        return f"unexpected stderr: {err.strip()[:200]!r}"
    try:
        return job.check(_read(job.out), err)
    except (ValueError, KeyError, IndexError, TypeError, UnicodeDecodeError) as exc:
        return f"unreadable output: {exc!r}"


def tail(samples, cap):
    """(percentile, value): the highest ladder percentile up to `cap` with TAIL_BEYOND
    samples above."""
    n = len(samples)
    p = max((q for q in TAIL_LADDER if q <= cap and n * (100 - q) / 100 >= TAIL_BEYOND),
            default=50)
    return p, sorted(samples)[max(math.ceil(p / 100 * n), 1) - 1]


def environment(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():  # never let git search above the checkout
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "qsdiag").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    numpy = sys.modules["numpy"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "commit": commit or "unknown (not a git checkout)",
        "source_sha256": source.hexdigest(),
    }


def setup(args, runner):
    """Import qsdiag, then build inputs and references and warm up SETUP_REPS times.

    Returns (plan, warm-up problems, set-up seconds: import + median rep).
    """
    t0 = clock()
    importlib.import_module("qsdiag.cli")
    import_ns = clock() - t0
    import numpy as np
    import workloads

    build = workloads.BUILDERS[args.workload]
    reps = []
    for _ in range(SETUP_REPS):
        t0 = clock()
        shutil.rmtree(args.workdir, ignore_errors=True)
        args.workdir.mkdir(parents=True)
        plan = build(np.random.default_rng(args.seed), args.workdir, args.tiny, ROOT)
        warm = [(job, *runner(job, -1)[:2]) for job in plan.warmup]
        reps.append(clock() - t0)
    problems = [f"{job.name}: {p}" for job, code, err in warm
                if (p := judge(job, code, err))]
    return plan, problems, (import_ns + statistics.median(reps)) / 1e9


def evaluate(plan, records, last_err):
    """Check every job's final output and the repeat digests.

    Returns (number of failed records, one problem line per failed job).
    """
    problems = {}
    for i, job in enumerate(plan.jobs):
        codes = [r.code for r in records if r.job == i]
        p = judge(job, codes[-1], last_err[i])
        if p:
            problems[i] = p
    first = {}
    failed = 0
    for r in records:
        first.setdefault(r.job, r.digest)
        if r.digest != first[r.job] and r.job not in problems:
            problems[r.job] = "output differs between repeats"
        failed += r.code != plan.jobs[r.job].expect_code or r.job in problems
    return failed, [f"{plan.jobs[i].name}: {p}" for i, p in sorted(problems.items())]


def peak_rss_mb(subprocess_jobs: bool) -> float:
    """Peak RSS of the process that ran the jobs: this one, or the largest child."""
    usage = resource.RUSAGE_CHILDREN if subprocess_jobs else resource.RUSAGE_SELF
    return resource.getrusage(usage).ru_maxrss / 1024


def end_to_end(plan, records, wall_ns, setup_s, rss_mb, subprocess_jobs, print_row):
    times = [r.ms for r in records]
    largest = [r.ms for r in records if plan.jobs[r.job].klass == plan.largest]
    p, tail_ms = tail(times, plan.tail_cap)
    rows = [
        ("setup_s", setup_s, "s", f"import + median of {SETUP_REPS} set-ups"),
        ("jobs_per_s", len(times) / (wall_ns / 1e9), "1/s",
         f"{len(times)} jobs / {wall_ns / 1e9:.3f} s"),
        ("job_p50_ms", statistics.median(times), "ms", f"n={len(times)}"),
        ("job_tail_ms", tail_ms, "ms", f"p{p:g}, n={len(times)}"),
        ("largest_p50_ms", statistics.median(largest), "ms",
         f"class {plan.largest}, n={len(largest)}"),
        ("peak_rss_mb", rss_mb, "MB", "largest job process" if subprocess_jobs
         else "benchmark process"),
    ]
    for row in rows:
        print_row(*row)
    return {name: {"value": value, "unit": unit} for name, value, unit, _ in rows}


PER_LAYER_TIMES = (
    "composite.immerse_gate", "composite.partial_trace",
    "diagram.build_diagram", "diagram.boundary_states", "diagram.render_text",
    "diagram.render_svg", "diagram.parse_circuit", "diagram.build_gate",
    "core.validate_density", "core.matrix_from_json", "core.matrix_to_json",
    "kraus.apply_channel", "channels.parse_channel_spec", "channels.channel_from_spec",
    "bloch.affine_map_of_channel", "bloch.ellipsoid_samples", "bloch.points_to_csv",
    "purify.purify_single_qubit",
    "startup.interpreter", "startup.numpy_import", "startup.qsdiag_import",
)
PER_LAYER_CALLS = ("composite.immerse_gate", "diagram.build_gate", "core.validate_density",
                   "kraus.apply_channel", "kraus.validate_channel")


def per_layer(plan, traced, spans, cycles, wall_untraced, wall_traced, print_row):
    """Per-layer metrics per cycle of the workload, from the traced records and spans."""
    per = self_times(spans)
    jobs_of = {rid: plan.jobs[r.job] for rid, r in traced.items()}
    rows = []
    for name in PER_LAYER_TIMES:
        rows.append((f"{name}_ms", per.get(name, (0, 0))[1] / 1e6 / cycles, "ms", "self"))
    for name in PER_LAYER_CALLS:
        rows.append((f"{name}_calls", per.get(name, (0, 0))[0] / cycles, "count", "calls"))
    immerse = sum(16 * 4 ** jobs_of[s[5]].n_qubits for s in spans
                  if s[2] == "composite.immerse_gate")
    rows.append(("composite.immerse_bytes_computed", immerse / cycles, "B",
                 "computed: calls x 16*4^n"))
    count = {key: sum(j.counts.get(key, 0) for j in plan.jobs)
             for key in ("edges_enumerated", "edges_kept", "active_lines", "points")}
    for key in ("edges_enumerated", "edges_kept", "active_lines"):
        rows.append((f"diagram.{key}", count[key], "count", "computed from inputs"))
    rows.append(("diagram.edge_keep_ratio",
                 count["edges_kept"] / count["edges_enumerated"] if count["edges_enumerated"]
                 else 0.0, "ratio", f"base {count['edges_enumerated']} edges"))
    rows.append(("bloch.points", count["points"], "count", "computed from inputs"))
    out_bytes = sum(len(_read(j.out) or b"") for j in plan.jobs)
    rows.append(("cli.out_bytes", out_bytes, "B", "output bytes"))
    cli_self = sum(ns for name, (_, ns) in per.items() if name.startswith("cli."))
    rows.append(("cli.main_self_ms", cli_self / 1e6 / cycles, "ms", "self, cli.* spans"))
    rows.append(("trace.overhead_pct", 100 * (wall_traced - wall_untraced) / wall_untraced, "%",
                 f"{wall_traced / 1e9:.3f} s traced vs {wall_untraced / 1e9:.3f} s untraced"))
    covered = {}
    for sid, parent, name, start, end, job in spans:
        if not parent:
            covered[job] = covered.get(job, 0) + end - start
    unattributed = sum(r.end - r.start - covered.get(rid, 0) for rid, r in traced.items())
    rows.append(("trace.unattributed_ms", unattributed / 1e6 / cycles, "ms",
                 "job time outside every span"))
    for row in rows:
        print_row(*row)
    return {name: {"value": value, "unit": unit} for name, value, unit, _ in rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-check")
    args = parser.parse_args(argv)
    if not (SRC / "qsdiag" / "cli.py").is_file() or not (ROOT / "tests" / "golden").is_dir():
        print(f"error: no qsdiag source tree (src/qsdiag, tests/golden) under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    args.workdir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"

    subprocess_jobs = args.workload == "cli-cold"
    runner = Runner(subprocess_jobs, env)

    def print_row(name, value, unit, note):
        print(f"metric {name:<36} {value:>14.6g} {unit:<6} ({note})")

    try:
        plan, warm_problems, setup_s = setup(args, runner)
        env_record = environment(args)
        print("env " + json.dumps(env_record, sort_keys=True))
        budget = args.seconds * 1e9
        last_err = {}
        if args.trace:
            records, wall_u, cycles = run_cycles(plan, runner, last_err, budget_ns=budget / 2)
            tracer = Tracer()
            if subprocess_jobs:
                runner.spans_file = args.workdir / "spans.jsonl"
            else:
                runner.tracer = tracer
                tracer.install()
            traced, wall_t, _ = run_cycles(plan, runner, last_err, cycles=cycles,
                                           first=len(records))
            spans = tracer.spans
            if subprocess_jobs:
                spans = [tuple(s) for line in runner.spans_file.read_text().splitlines()
                         for s in json.loads(line)]
            traced_by_id = {len(records) + i: r for i, r in enumerate(traced)}
            records += traced
        else:
            records, wall, cycles = run_cycles(plan, runner, last_err, budget_ns=budget,
                                               min_cycles=MIN_CYCLES)
            rss_mb = peak_rss_mb(subprocess_jobs)  # before the checks allocate
        failed, problems = evaluate(plan, records, last_err)
        failed += len(warm_problems)
        attempted = len(records) + len(plan.warmup)
        print(f"workload {args.workload} seed {args.seed}: {cycles} cycles of "
              f"{len(plan.jobs)} jobs, closed loop, 1 client")
        if args.trace:
            metrics = per_layer(plan, traced_by_id, spans, cycles, wall_u, wall_t, print_row)
            trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({"env": env_record, "spans": spans}))
            print(f"spans written to {trace_file.relative_to(ROOT)}")
        else:
            metrics = end_to_end(plan, records, wall, setup_s, rss_mb, subprocess_jobs, print_row)
        print_row("error_rate", failed / attempted, "ratio", f"{failed}/{attempted} jobs")
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    for p in warm_problems + problems:
        print(f"FAILED {p}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
