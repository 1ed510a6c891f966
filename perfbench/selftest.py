"""Self-test of the benchmark on a tiny census (g2, k=-1, u<=3).

Run from the repository root:

    python3 perfbench/selftest.py

It checks that
* an untraced and a traced run print exactly the metrics BENCHMARK.json
  names, each with its unit, and count the tiny census correctly;
* the traced run's self times sum to no more than its wall time, and its
  top-level spans cover at least 95% of its sweep time;
* a run against a tampered golden file reports failed embeddings and exits
  with status 1.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


def run(script: str, *args: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, script, "--workload", "tiny", "--seconds", "1", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
    return proc.returncode, json.loads(last)


def check(ok: bool, what: str, problems: list[str]) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        problems.append(what)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    script = os.path.join(HERE, "run.py")
    problems: list[str] = []

    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        rc, result = run(script, "--trace", trace)
        want = {m["name"]: m["unit"] for m in bench[group]}
        got = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
        check(rc == 0 and result.get("correct") is True, f"trace {trace}: run is correct", problems)
        check(got == want, f"trace {trace}: prints every {group} metric with its unit", problems)
        if trace == "1" and got == want:
            m = {name: v["value"] for name, v in result["metrics"].items()}
            check(
                (m["search.scanned"], m["search.candidates"], m["search.embeddings"]) == (43, 4, 4),
                "trace 1: counts 43 tuples, 4 candidates, 4 embeddings",
                problems,
            )
            check(0 < m["trace.self_share"] <= 1, "trace 1: self times sum to at most the wall time", problems)
            check(m["trace.coverage"] >= 0.95, "trace 1: top-level spans cover >= 95% of sweep_s", problems)

    # a copy of the benchmark whose golden lost one candidate's basket entry
    copy = os.path.join(HERE, "out", "selftest", "perfbench")
    shutil.rmtree(os.path.dirname(copy), ignore_errors=True)
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("out", "__pycache__"))
    path = os.path.join(copy, "goldens", "g2-km1-u3.json")
    with open(path, encoding="utf-8") as fh:
        gold = json.load(fh)
    victim = next(c for group in gold["embeddings"].values() for c in group if c["basket"])
    victim["basket"][0]["multiplicity"] += 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(gold, fh)
    try:
        rc, result = run(os.path.join(copy, "run.py"), "--trace", "0")
    finally:
        shutil.rmtree(os.path.dirname(copy), ignore_errors=True)
    check(
        rc == 1 and result.get("correct") is False and result.get("failed", 0) > 0,
        "a tampered golden is reported as failed embeddings, exit status 1",
        problems,
    )
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
