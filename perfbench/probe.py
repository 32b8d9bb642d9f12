"""Size-envelope probe: does each large case finish, or refuse up front?

    python3 perfbench/probe.py

Each case is one CLI command at a size beyond the timed workloads, run in
a child process under a fixed deadline (``DEADLINE_S``), so that the
benchmark's repeated runs never pay for it.  The outcome is ``ok`` (exit
0), ``refused`` (domain or config error, exit 1 or 3), ``numerical`` (exit
2) or ``timeout`` (killed at the deadline), recorded with the time to that
outcome and the last line of standard error.  Results go to standard
output and to ``.perfbench_out/probe.json`` in the checkout.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out" / "probe"

#: seconds before a case is killed
DEADLINE_S = 60.0

OUTCOMES = {0: "ok", 1: "refused", 2: "numerical", 3: "refused"}


def _path_model(n: int) -> dict:
    return {"graph": {"nodes": n, "edges": [[i, i + 1] for i in range(n - 1)]},
            "alpha": 0.2, "epsilon": 0.05, "beta_override": None}


CASES = {
    "continue_n4": (["continue", "--steps", "4"], _path_model(4)),
    "continue_n5": (["continue", "--steps", "4"], _path_model(5)),
    "dobrushin_n3": (["dobrushin"], _path_model(3)),
}


def child(case: str) -> int:
    """Run one case in this process; the exit code is the CLI's."""
    sys.path.insert(0, str(ROOT / "src"))
    from stochpert import cli
    argv, cfg = CASES[case]
    config = OUT / f"config-{case}.json"
    config.write_text(json.dumps(cfg))
    return cli.main([*argv, "--config", str(config),
                     "--out", str(OUT / f"report-{case}.json")])


def probe(case: str) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, __file__, "--child", case], env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:       # run() has killed and reaped it
        return {"case": case, "outcome": "timeout",
                "seconds": time.perf_counter() - start,
                "message": f"no result within {DEADLINE_S:g} s"}
    lines = proc.stderr.strip().splitlines()
    return {"case": case,
            "outcome": OUTCOMES.get(proc.returncode,
                                    f"exit {proc.returncode}"),
            "seconds": time.perf_counter() - start,
            "message": lines[-1] if lines else ""}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--child", choices=sorted(CASES), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    OUT.mkdir(parents=True, exist_ok=True)
    if args.child:
        return child(args.child)
    results = [probe(case) for case in CASES]
    for r in results:
        print(f"{r['case']:14s} {r['outcome']:10s} {r['seconds']:8.2f} s  "
              f"{r['message']}")
    (OUT.parent / "probe.json").write_text(json.dumps(results, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
