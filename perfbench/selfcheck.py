"""Self-check of the benchmark harness.  Run from the root of a checkout:

    python3 perfbench/selfcheck.py

1. Smoke pass: every workload runs once at --tiny size, untraced and twice
   traced; each run must pass its checks and print every metric named in
   BENCHMARK.json with its unit (and error_rate).
2. Repeatability: every count metric of the two traced runs at one seed
   must agree exactly.
3. The correctness gate is not vacuous: every job of every tiny workload
   passes its check on the program's real output and fails it once the
   output is corrupted.

Exits 1 and lists the problems when any step fails.
"""

import json
import re
import shutil
import subprocess
import sys

import run  # pins the BLAS threads before numpy loads

SEED = 7
COUNT_UNITS = {"count", "B", "ratio"}
_METRIC_RE = re.compile(r"^metric (\S+)\s+(\S+) (\S+)\s+\((.*)\)$")


def run_workload(workload: str, trace: int):
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    printed = {m[1]: m[3] for m in map(_METRIC_RE.match, lines) if m}
    return proc.returncode, json.loads(lines[-1]) if lines else None, printed, proc.stderr


def smoke(contract, problems):
    for w in run.WORKLOADS:
        traced = []
        for trace, key in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
            code, result, printed, err = run_workload(w, trace)
            where = f"{w} --trace {trace}"
            if code != 0 or not result or not result["correct"]:
                problems.append(f"{where}: exit {code}, result {result}, stderr {err[-300:]!r}")
                continue
            expected = {m["name"]: m["unit"] for m in contract[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                problems.append(f"{where}: metrics {sorted(got.items())} != {sorted(expected.items())}")
            for name, unit in list(expected.items()) + [("error_rate", "ratio")]:
                if printed.get(name) != unit:
                    problems.append(f"{where}: printed {name} unit {printed.get(name)!r} != {unit!r}")
            if trace:
                traced.append(result["metrics"])
        if len(traced) == 2:
            for name, unit in ((m["name"], m["unit"]) for m in contract["per_layer"]):
                if (unit in COUNT_UNITS or name.endswith("_calls")) and \
                        traced[0][name]["value"] != traced[1][name]["value"]:
                    problems.append(f"{w}: {name} differs between traced runs at seed {SEED}: "
                                    f"{traced[0][name]['value']} != {traced[1][name]['value']}")


def corrupt(data: bytes) -> bytes:
    """Change one number of a JSON matrix, or drop the middle line of a text output."""
    lines = data.split(b"\n")
    if len(lines) <= 2 and data.startswith(b"{"):
        doc = json.loads(data)
        target = doc["state"] if "state" in doc else doc
        target["re"][0] += 1e-3
        return json.dumps(doc).encode()
    del lines[len(lines) // 2]
    return b"\n".join(lines)


def gate_not_vacuous(problems):
    import numpy as np
    import qsdiag.cli  # noqa: F401  (the runner calls it through sys.modules)
    import workloads

    runner = run.Runner(subprocess_jobs=False, env={})
    checked = 0
    for w in run.WORKLOADS:
        wd = run.WORK / "selfcheck" / w
        wd.mkdir(parents=True, exist_ok=True)
        plan = workloads.BUILDERS[w](np.random.default_rng(SEED), wd, True, run.ROOT)
        for job in plan.warmup + plan.jobs:
            code, err, _, _ = runner(job, 0)
            real = run.judge(job, code, err)
            if real:
                problems.append(f"{job.name}: real output rejected: {real}")
                continue
            if job.out.exists():
                job.out.write_bytes(corrupt(job.out.read_bytes()))
                caught = run.judge(job, code, err)
            else:
                caught = run.judge(job, code, "")  # the failure without its message
            if not caught:
                problems.append(f"{job.name}: corrupted output passed the check")
            checked += 1
    print(f"correctness gate: {checked} jobs pass on real output and fail once corrupted")


def main() -> int:
    contract = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    smoke(contract, problems)
    print(f"smoke pass: {len(run.WORKLOADS)} workloads, untraced and twice traced")
    sys.path.insert(0, str(run.SRC))
    gate_not_vacuous(problems)
    shutil.rmtree(run.WORK / "selfcheck", ignore_errors=True)
    for p in problems:
        print(f"PROBLEM {p}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
