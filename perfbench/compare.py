#!/usr/bin/env python3
"""Summarise or compare benchmark runs recorded with `run.py --out FILE`.

    python3 perfbench/compare.py RUNS.jsonl
        Per workload and end-to-end metric: median, quartiles, and the spread
        (q3 - q1) / median against the metric's bound in BENCHMARK.json.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl
        Per workload and end-to-end metric: each side's median and quartiles
        and a verdict. REGRESSION when NEW's median is worse than BASE's by
        more than the bound; unresolved when BASE's own spread exceeds the
        bound, unless every NEW run beats every BASE run. Exits 1 on any
        regression or failed run, 2 when the two files come from different
        host classes (CPU count or build type): such numbers do not compare.

Only untraced runs (--trace 0) enter; BENCHMARK.json is read from the current
directory. Runs of the same DES workload and seed must report bit-identical
modeled goodput; a difference is printed as a model change.
"""
import json
import statistics
import sys

sys.dont_write_bytecode = True


def load(path):
    with open(path) as f:
        return [r for r in map(json.loads, filter(str.strip, f))
                if r["trace"] == 0]


def host_classes(runs):
    return {(r["host"]["nproc"], r["host"]["build_type"]) for r in runs}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def by_workload(runs, metric):
    out = {}
    for r in runs:
        out.setdefault(r["workload"], []).append(
            r["result"]["metrics"][metric]["value"])
    return out


def failures(runs):
    return [f"{r['workload']} seed {r['seed']}" for r in runs
            if not r["result"]["correct"] or r["result"]["failed"]]


def model_changes(runs):
    seen, changed = {}, set()
    for r in runs:
        if not r["workload"].startswith("des-"):
            continue
        key = (r["workload"], r["seed"])
        g = r["result"]["metrics"]["goodput_gbps"]["value"]
        if seen.setdefault(key, g) != g:
            changed.add(key)
    return sorted(changed)


def summarise(spec, runs):
    print(f"{'workload':<18} {'metric':<14} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}  n")
    worst = 0
    for m in spec["end_to_end"]:
        for w, vals in sorted(by_workload(runs, m["name"]).items()):
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if m["name"] != "setup_s" and spread > m["bound"]:
                flag, worst = "  OVER BOUND", 1
            elif spread > m["bound"] / 3:
                flag = "  over bound/3"
            print(f"{w:<18} {m['name']:<14} {med:>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {spread:>8.4f} {m['bound']:>6}  "
                  f"{len(vals)}{flag}")
    return worst


def compare(spec, base, new):
    print(f"{'workload':<18} {'metric':<14} {'base median':>12} "
          f"{'new median':>12} {'worse by':>9} {'bound':>6}  verdict")
    regressions = 0
    for m in spec["end_to_end"]:
        sign = 1 if m["better"] == "lower" else -1
        bvals, nvals = by_workload(base, m["name"]), by_workload(new, m["name"])
        for w in sorted(set(bvals) & set(nvals)):
            bq1, bmed, bq3 = quartiles(bvals[w])
            _, nmed, _ = quartiles(nvals[w])
            worse = sign * (nmed - bmed) / bmed if bmed else 0.0
            spread = (bq3 - bq1) / bmed if bmed else float("inf")
            always_better = all(sign * (n - b) < 0
                                for n in nvals[w] for b in bvals[w])
            if worse > m["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            elif spread > m["bound"] and not always_better:
                verdict = "unresolved (base spread over bound)"
            else:
                verdict = "ok"
            print(f"{w:<18} {m['name']:<14} {bmed:>12.6g} {nmed:>12.6g} "
                  f"{worse:>+9.4f} {m['bound']:>6}  {verdict}")
    return regressions


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    sets = [load(p) for p in sys.argv[1:]]
    if any(not s for s in sets):
        print("compare: no untraced runs in an input file", file=sys.stderr)
        sys.exit(2)
    classes = set().union(*(host_classes(s) for s in sets))
    if len(classes) != 1:
        print(f"compare: refusing to mix host classes {sorted(classes)}",
              file=sys.stderr)
        sys.exit(2)
    nproc, build_type = classes.pop()
    print(f"host class: nproc={nproc} build={build_type}")
    bad = failures([r for s in sets for r in s])
    for b in bad:
        print(f"FAILED RUN: {b}")
    for key in model_changes([r for s in sets for r in s]):
        print(f"model change: {key[0]} seed {key[1]} goodput differs")
    if len(sets) == 1:
        code = summarise(spec, sets[0])
    else:
        code = 1 if compare(spec, *sets) else 0
    sys.exit(1 if bad else code)


if __name__ == "__main__":
    main()
