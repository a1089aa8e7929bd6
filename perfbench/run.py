#!/usr/bin/env python3
"""Build and run the repo benchmark (see README.md next to this file).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--negative-control] [--out FILE]

Run from the root of a checkout. Builds perfbench/ (which compiles ../src)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
measuring program, and passes its summary through. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics. Exits
non-zero when the build fails, an output check fails, or the metrics do not
match BENCHMARK.json. With --out, appends the result and the host class to a
JSON-lines file for perfbench/compare.py.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=3):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_id(root):
    """Git commit when the checkout is a repository, else a digest of src/."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0:
                return "git:" + sha.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build(root, build_dir):
    src = os.path.join(root, "perfbench")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", src, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail(f"build step {' '.join(cmd[:2])} exited {r.returncode}")
    build_type = "unknown"
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    return os.path.join(build_dir, "perfbench"), build_type


def check_metrics(result, spec, trace):
    """The metrics must be exactly BENCHMARK.json's list for this mode."""
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metrics disagree with BENCHMARK.json: missing {missing}, "
             f"extra {extra}, or units differ", 1)
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            fail(f"metric {name} has no numeric value", 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--negative-control", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("run from the checkout root: BENCHMARK.json not found")
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}", 2)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    binary, build_type = build(root, build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.negative_control:
        cmd.append("--negative-control")
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(r.stdout)
        fail(f"measuring program exited {r.returncode} without a result", 1)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has the wrong keys", 1)
    check_metrics(result, spec, args.trace)

    host = {"nproc": os.cpu_count(), "build_type": build_type,
            "source": source_id(root)}
    print("\n".join(lines[:-1]))
    print(f"host class nproc={host['nproc']} build={host['build_type']} "
          f"source={host['source']}")
    if args.out:
        record = {"host": host, "workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "negative_control": args.negative_control,
                  "result": result}
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(lines[-1])
    sys.exit(0 if r.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
