#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
`perfbench` binary under .bench_build/; later runs only re-check the build.
Prints a metrics table, then as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics of
BENCHMARK.json, or its per-layer metrics with --trace 1). Every run's full
result, stamped with a host fingerprint, lands in .bench_build/results/.

Exit codes: 0 ok; 1 build, usage or harness error; 2 a request failed or
gave a wrong answer; 3 the run is invalid (the load generator fell behind).
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
DATA_SEED = 20200302  # ssb::DatagenOptions' canonical seed
# Tiny sizes for the self-check: SF=1 with a 1000x thinner fact table.
TINY = ["--sf=1", "--fact-divisor=1000", "--setups=2"]


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; returns False on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(len(os.sched_getaffinity(0)))
    build_log = BUILD.parent / "build.log"
    steps = [["cmake", "--build", str(BUILD), "--target", "perfbench",
              "-j", jobs]]
    if not (BUILD / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log(f"build failed: {' '.join(step)} (see {build_log})")
                with open(build_log) as f:
                    sys.stderr.write("".join(f.readlines()[-20:]))
                return False
    return True


def read(path, default=""):
    try:
        return pathlib.Path(path).read_text().strip()
    except OSError:
        return default


def host_fingerprint():
    model = ""
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    llc = ""
    for index in sorted(pathlib.Path("/sys/devices/system/cpu/cpu0/cache")
                        .glob("index*")):
        if read(index / "level") == "3":
            llc = read(index / "size")
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    return {"cpu_model": model, "nproc": len(os.sched_getaffinity(0)),
            "llc": llc, "git_commit": commit,
            "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                           time.gmtime())}


def print_table(result, names):
    metrics = result["metrics"]
    print(f"{'metric':<28} {'value':>16}  {'unit':<7} {'samples':>8}")
    for name in names:
        m = metrics[name]
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        note = "  (absent: " + result["absent"][name] + ")" \
            if name in result["absent"] else ""
        print(f"{name:<28} {value:>16}  {m['unit']:<7} {m['samples']:>8}"
              f"{note}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True,
                    help="workload seed: query order, suite, schedule")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--data-seed", type=int, default=DATA_SEED)
    ap.add_argument("--tiny", action="store_true",
                    help="self-check size: SF=1, fact table / 1000")
    ap.add_argument("--expected", default=str(HERE / "expected_digests.tsv"),
                    help="reference digests (generation, digest, spec)")
    ap.add_argument("--record-expected", default="",
                    help="append the digests this run verified against")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload '{args.workload}'")
        return 1
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if not build():
        return 1

    out_dir = ROOT / ".bench_build" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(BINARY), f"--workload={args.workload}",
           f"--data-seed={args.data_seed}", f"--workload-seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--expected={args.expected}",
           f"--trace-out={out_dir / (stem + '.spans.jsonl')}"]
    if args.tiny:
        cmd += TINY
    if args.record_expected:
        cmd.append(f"--record-expected={args.record_expected}")

    host = host_fingerprint()
    host["loadavg_before"] = read("/proc/loadavg")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=170)
    except subprocess.TimeoutExpired:
        log("benchmark binary timed out")
        return 1
    host["loadavg_after"] = read("/proc/loadavg")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 1 or not lines:
        log(f"benchmark binary failed (exit {proc.returncode})")
        return 1
    result = json.loads(lines[-1])
    result["settings"].update(host)
    (out_dir / (stem + ".json")).write_text(json.dumps(result, indent=1))

    names = [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"metric {m['name']} missing or not in {m['unit']}")
            return 1

    s = result["settings"]
    print(f"# {args.workload}  seed={args.seed}  trace={args.trace}  "
          f"cpu={s['cpu_model']}  nproc={s['nproc']}  llc={s['llc']}  "
          f"threads={s['threads']}  simd={s['simd']}  "
          f"storage={s['storage']}  build={s['build_type']}  "
          f"commit={s['git_commit'][:12]}  load {s['loadavg_before']} -> "
          f"{s['loadavg_after']}")
    print_table(result, sorted(result["metrics"]))
    failed_frac = result["failed"] / max(1, result["attempted"])
    print(f"failed_frac {failed_frac:.6g} ({result['failed']} of "
          f"{result['attempted']} requests)")
    for note in result["notes"]:
        print(f"note: {note}")
    for m in result["mismatches"]:
        print(f"MISMATCH: {m}")
    if result["self_time"]:
        print(f"{'span (self time)':<36} {'count':>8} {'total ms':>12} "
              f"{'self ms':>12}")
        for row in result["self_time"]:
            print(f"{row['layer']:<36} {row['count']:>8} "
                  f"{row['total_ms']:>12.3f} {row['self_ms']:>12.3f}")

    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["metrics"][n]["value"],
                        "unit": result["metrics"][n]["unit"]}
                    for n in names}}))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
