"""Smoke check of the benchmark: a very short run of every workload.

    python3 perfbench/smoke.py

For each workload it runs ``run.py`` untraced and traced for one second
(the loop still completes one op of every kind) and asserts that the
result line names every metric of ``BENCHMARK.json`` with its unit, that
every op passed its oracle, that ``ops_failed_frac`` is printed, and that
the traced runs together recorded a span for every wrapped name.  Exits
non-zero on the first failed assertion.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}"
                         f"\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def check(workload: str, trace: int, spec: dict) -> set[str]:
    result, lines = run(workload, trace)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        failures = [ln for ln in lines if ln.startswith("failure")]
        raise SystemExit(f"{workload} trace={trace}: oracle failures "
                         f"{failures}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    for metric in wanted:
        entry = got.get(metric["name"])
        if entry is None or entry["unit"] != metric["unit"]:
            raise SystemExit(f"{workload}: metric {metric['name']} "
                             f"[{metric['unit']}] missing, got {entry}")
        if not isinstance(entry["value"], (int, float)):
            raise SystemExit(f"{workload}: {metric['name']} not a number")
    if set(got) != {m["name"] for m in wanted}:
        raise SystemExit(f"{workload}: unexpected metrics "
                         f"{sorted(set(got) - {m['name'] for m in wanted})}")
    if not any(ln.startswith("metric ops_failed_frac") for ln in lines):
        raise SystemExit(f"{workload}: ops_failed_frac not printed")
    if not trace:
        return set()
    record = json.loads((ROOT / ".perfbench_out"
                         / f"{workload}-seed7-trace1" / "result.json")
                        .read_text())
    return set(record["span_names"])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from spans import SPAN_NAMES
    seen = set()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            seen |= check(workload, trace, spec)
            print(f"ok {workload} trace={trace}", flush=True)
    missing = set(SPAN_NAMES) - seen
    if missing:
        raise SystemExit(f"no spans recorded for {sorted(missing)}")
    print(f"ok spans for all {len(SPAN_NAMES)} wrapped names")
    return 0


if __name__ == "__main__":
    sys.exit(main())
