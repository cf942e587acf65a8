"""Smoke test for the benchmark: every workload at minimal length.

    python3 perfbench/smoke.py [workload ...]

Runs each workload (default: all of them) for one pass, untraced and traced,
and checks that the last stdout line is the result object with every metric
named in BENCHMARK.json and its unit, correct outputs and no failed run. It
also checks that the benchmark exits non-zero, printing no result, in a copy
of the benchmark without the qadsim sources. Exits 0 when all checks pass.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 180


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def check_workload(workload: str, spec: dict) -> list[str]:
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, workload, trace)
        where = f"{workload} --trace {trace}"
        if proc.returncode != 0:
            return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{where}: result keys {sorted(result)}")
        if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
            problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            problems.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
        if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
            problems.append(f"{where}: a metric value is not a number")
    return problems


def check_without_sources() -> list[str]:
    bare = HERE / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, "ideal-sweep", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}"]
    return []


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_without_sources()
    for workload in argv or list(WORKLOADS):
        found = check_workload(workload, spec)
        print(f"{workload}: {'FAILED' if found else 'ok'}", flush=True)
        problems += found
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
