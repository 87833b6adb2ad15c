#!/usr/bin/env python3
"""Self-test of the benchmark harness; takes about a minute after the build.

    python3 perfbench/selftest.py

1. Each workload's tiny list (lists/tiny/) runs with --trace 0 and
   --trace 1, succeeds, and prints exactly the metrics BENCHMARK.json names.
2. A copy of the tiny paper_sweep list with one expected area changed must
   drive success_ratio below 1, print "correct": false and exit non-zero.
3. A copy with one instance hash changed must be refused before any op runs.
Exits 0 when every check holds.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")
WORKLOADS = ("paper_sweep", "spec_unique", "spec_repeat")


def run(workload, list_path, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--list", list_path]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith('{"correct"') else None
    return proc.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = {0: {m["name"] for m in bench["end_to_end"]},
             1: {m["name"] for m in bench["per_layer"]}}
    tiny = {w: os.path.join(HERE, "lists", "tiny", w + ".json") for w in WORKLOADS}
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for w in WORKLOADS:
        for trace in (0, 1):
            code, res = run(w, tiny[w], trace)
            good = (code == 0 and res is not None and res["correct"] and res["failed"] == 0
                    and set(res["metrics"]) == names[trace])
            if good and trace == 0:
                good = res["metrics"]["success_ratio"]["value"] == 1.0
            check(good, "%s --trace %d runs clean with every metric" % (w, trace))

    os.makedirs(SCRATCH, exist_ok=True)
    with open(tiny["paper_sweep"]) as f:
        doc = json.load(f)
    doc["requests"][0]["expect"][3]["area"] += 1.0
    corrupt = os.path.join(SCRATCH, "corrupt_answer.json")
    with open(corrupt, "w") as f:
        json.dump(doc, f)
    code, res = run("paper_sweep", corrupt, 0)
    check(code != 0 and res is not None and not res["correct"]
          and res["metrics"]["success_ratio"]["value"] < 1.0,
          "a corrupted expected answer fails the run")

    with open(tiny["paper_sweep"]) as f:
        doc = json.load(f)
    doc["instances"][0]["text_hash"] = "0" * 16
    stale = os.path.join(SCRATCH, "stale_hash.json")
    with open(stale, "w") as f:
        json.dump(doc, f)
    code, res = run("paper_sweep", stale, 0)
    check(code != 0 and res is None, "a changed instance text is refused before any op")

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
