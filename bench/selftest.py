"""Smoke test of the benchmark at minimal size (one cycle per run).

    python3 bench/selftest.py

For every workload, both with and without tracing, it checks that the
last line carries exactly the keys the harness reads and every metric
named in BENCHMARK.json with its unit.  It then runs scalar_factor with
every negative-squares estimate raised by one and checks that the silent
wrong answers land in wrong_share and make the run incorrect.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "0", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: "
                             f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def check_shape(workload, trace, result):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append("attempted is not a positive whole number")
    if not isinstance(result["failed"], int):
        problems.append("failed is not a whole number")
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    names = {m["name"]: m["unit"] for m in wanted}
    got = result["metrics"]
    if set(got) != set(names):
        problems.append(f"missing {sorted(set(names) - set(got))}, "
                        f"extra {sorted(set(got) - set(names))}")
    for name, unit in names.items():
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, expected {unit!r}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    return [f"{workload} trace={trace}: {p}" for p in problems]


def main():
    problems = []
    for spec in SPEC["workloads"]:
        for trace in (0, 1):
            info, result = run(spec["name"], trace)
            problems += check_shape(spec["name"], trace, result)
            if not result["correct"]:
                problems.append(f"{spec['name']} trace={trace}: wrong answers "
                                f"{info['failure_examples']}")
            print(f"{spec['name']:<14} trace={trace} attempted={result['attempted']:<4} "
                  f"failed={result['failed']}", flush=True)
    info, result = run("scalar_factor", 0, "--inject-wrong")
    if not (info["wrong_share"] > 0 and result["correct"] is False):
        problems.append(f"injected wrong answers not caught: wrong_share {info['wrong_share']}")
    print(f"injected wrong answers: wrong_share={info['wrong_share']:.3f} "
          f"correct={result['correct']}")
    for p in problems:
        print("FAIL", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
