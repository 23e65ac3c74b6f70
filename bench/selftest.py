"""Self-test of the benchmark at reduced size.

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json with ``--small``, untraced and
traced, and asserts that each run prints a result line with exactly the
metrics BENCHMARK.json names, in their units, with every check passing.
Then copies only BENCHMARK.json and ``bench/`` into a scratch directory
and asserts that the benchmark exits non-zero there without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(root, workload, trace, *extra):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, workload, trace, "--small")
            assert proc.returncode == 0, f"{workload} trace={trace}: {proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result.keys()
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected[trace], (
                f"{workload} trace={trace}: missing {sorted(set(expected[trace]) - set(got))}, "
                f"extra {sorted(set(got) - set(expected[trace]))}, "
                f"units {[k for k in got if expected[trace].get(k, got[k]) != got[k]]}"
            )
            assert result["attempted"] >= 1 and result["correct"], (workload, trace, proc.stdout)
            print(f"ok {workload} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} checks, {result['failed']} failed")

    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "inversion", 0)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
        print(f"ok without sources: exit {proc.returncode}, no result line")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
