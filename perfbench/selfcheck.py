#!/usr/bin/env python3
"""Fast self-check of the benchmark (about a minute after the build).

    python3 perfbench/selfcheck.py

Runs every workload at a tiny size (SF=1 with a 1000x thinner fact table,
1 s) untraced and traced, and checks that the last line carries exactly
`correct`, `attempted`, `failed` and `metrics`, with every metric of
BENCHMARK.json printed as a number in its unit. Then it records reference
digests for a tiny run, corrupts one, and checks that the run fails.
"""

import json
import math
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "selfcheck"


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny",
           *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc


def check(ok, what):
    print(f"[{'ok' if ok else 'FAIL'}] {what}")
    return ok


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    good = True
    for w in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, result, proc = run(w["name"], trace)
            label = f"{w['name']} trace={trace}"
            if not check(code == 0 and result is not None,
                         f"{label} exits 0 with a result line"):
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                good = False
                continue
            good &= check(sorted(result) == ["attempted", "correct", "failed",
                                             "metrics"],
                          f"{label} result keys")
            good &= check(result["correct"] and result["failed"] == 0 and
                          result["attempted"] >= 1,
                          f"{label} answers verified")
            missing = [m["name"] for m in spec[kind]
                       if m["name"] not in result["metrics"]
                       or result["metrics"][m["name"]]["unit"] != m["unit"]
                       or not isinstance(result["metrics"][m["name"]]["value"],
                                         (int, float))
                       or not math.isfinite(
                           result["metrics"][m["name"]]["value"])]
            good &= check(not missing and
                          len(result["metrics"]) == len(spec[kind]),
                          f"{label} prints every {kind} metric with its unit"
                          + (f" (missing {missing})" if missing else ""))

    SCRATCH.mkdir(parents=True, exist_ok=True)
    digests = SCRATCH / "expected.tsv"
    digests.unlink(missing_ok=True)
    code, _, _ = run("ssb13-sf10-solo", 0,
                     "--record-expected", str(digests))
    good &= check(code == 0 and digests.exists(), "reference digests recorded")
    lines = digests.read_text().splitlines()
    generation, digest, text = lines[0].split("\t", 2)
    flipped = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    lines[0] = "\t".join([generation, flipped, text])
    digests.write_text("\n".join(lines) + "\n")
    code, result, _ = run("ssb13-sf10-solo", 0, "--expected", str(digests))
    good &= check(code == 2 and result is not None and
                  not result["correct"] and result["failed"] > 0,
                  "a corrupted expected digest fails the run")

    print("selfcheck:", "PASS" if good else "FAIL")
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
