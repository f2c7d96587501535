"""Self-check of the benchmark at tiny sizes (n <= 8); takes a few seconds.

Run from the repository root:  python3 benchmarks/smoke.py

Checks that both modes print every metric BENCHMARK.json names, with its
unit, plus failed_ratio; that a tampered expected digest makes the run
count a failure and name the job; and that the benchmark exits non-zero,
printing no result, where the spinbars sources are missing.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile

import run


def invoke(trace: int) -> tuple[list[str], str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run.main(["--workload", "smoke", "--seed", "7", "--seconds", "1", "--trace", str(trace)])
    if status != 0:
        raise SystemExit(f"smoke run exited {status}: {err.getvalue()}")
    return out.getvalue().splitlines(), err.getvalue()


def check_metrics(lines: list[str], declared: list[dict]) -> dict:
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"result keys {sorted(result)}")
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if not line.startswith("#")}
    names = {m["name"] for m in declared}
    if set(result["metrics"]) != names:
        raise SystemExit(f"metrics {sorted(set(result['metrics']) ^ names)} differ from BENCHMARK.json")
    for m in declared:
        got = result["metrics"][m["name"]]
        if got["unit"] != m["unit"] or printed.get(m["name"]) != m["unit"]:
            raise SystemExit(f"{m['name']}: unit {got['unit']!r} / printed {printed.get(m['name'])!r}, want {m['unit']!r}")
    if printed.get("failed_ratio") != "ratio":
        raise SystemExit("failed_ratio is not printed with its unit")
    return result


def failed_ratio(lines: list[str]) -> float:
    return next(float(line.split()[1]) for line in lines if line.startswith("failed_ratio "))


def main() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    lines, _ = invoke(0)
    result = check_metrics(lines, bench["end_to_end"])
    if not result["correct"] or failed_ratio(lines) != 0:
        raise SystemExit(f"clean smoke run failed: {lines[-1]}")
    lines, _ = invoke(1)
    check_metrics(lines, bench["per_layer"])

    victim = run.job_id(run.WORKLOADS["smoke"][0])
    saved = run.EXPECTED[victim]
    run.EXPECTED[victim] = "0" * 64
    try:
        lines, err = invoke(0)
    finally:
        run.EXPECTED[victim] = saved
    result = json.loads(lines[-1])
    if result["correct"] or result["failed"] == 0 or failed_ratio(lines) <= 0 or victim not in err:
        raise SystemExit(f"tampered digest went unnoticed: {lines[-1]} / {err!r}")

    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, f"{bare}/{run.HERE.name}", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "smoke", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    if proc.returncode == 0 or proc.stdout.strip():
        raise SystemExit(f"run without sources exited {proc.returncode} and printed {proc.stdout!r}")
    print("smoke: ok")


if __name__ == "__main__":
    main()
