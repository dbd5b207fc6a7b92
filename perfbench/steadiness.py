#!/usr/bin/env python3
"""Check that the benchmark is steady: interleaved sets of seeded runs.

    python3 perfbench/steadiness.py [--workloads A,B] [--seeds 1,2,...]
                                    [--sets 2] [--seconds S] [--out DIR]

Runs every (seed, workload) once per set, untraced, through run.py, with
the sets interleaved run by run so host drift lands on every set alike.
For each set, workload and end-to-end metric it records the median and
quartiles over the seeds (statistics.quantiles, n=4) and the spread
(q3 - q1) / median; across sets it records how much worse the later
median is than the first. A metric passes when its spread is within its
bound from BENCHMARK.json and no later median is worse than the first by
more than the bound. The target for a steady benchmark is a spread below
a third of the bound.

Writes steadiness.json (every run's result line plus the summary) and
steadiness.md (the summary table) into --out, prints the table, and exits
1 when any metric fails.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    t0 = time.time()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return {"workload": workload, "seed": seed, "rc": done.returncode,
            "wall_s": round(time.time() - t0, 3),
            "notes": [l[2:] for l in lines if l.startswith("# ")],
            "result_set": next((json.loads(l)["result_set"] for l in lines
                                if l.startswith('{"result_set"')), None),
            "result": result}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse(first, later, better):
    """Share by which `later` is worse than `first` (negative: better)."""
    if not first:
        return 0.0
    change = (later - first) / first
    return change if better == "lower" else -change


def summarize(runs, spec, workloads, sets):
    rows = []
    ok = True
    for wl in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = []
            for s in range(sets):
                vals = [r["result"]["metrics"][name]["value"] for r in runs
                        if r["workload"] == wl and r["set"] == s
                        and r["result"].get("metrics")]
                per_set.append(spread(vals) if len(vals) >= 2 else None)
            if any(p is None for p in per_set):
                rows.append({"workload": wl, "metric": name, "ok": False})
                ok = False
                continue
            spreads = [p[3] for p in per_set]
            drift = max(worse(per_set[0][0], p[0], metric["better"])
                        for p in per_set[1:]) if sets > 1 else 0.0
            row_ok = max(spreads) <= bound and drift <= bound
            ok = ok and row_ok
            rows.append({
                "workload": wl, "metric": name, "unit": metric["unit"],
                "bound": bound,
                "sets": [{"median": p[0], "q1": p[1], "q3": p[2],
                          "spread": p[3]} for p in per_set],
                "max_spread": max(spreads),
                "worse_by": drift,
                "steady": max(spreads) < bound / 3,
                "ok": row_ok})
    return rows, ok


def table(rows, sets):
    head = ("| workload | metric | bound | " +
            " | ".join(f"set {s + 1} median [q1, q3] | spread" for s in
                       range(sets)) + " | later worse by | ok |")
    out = [head, "|" + "---|" * (head.count("|") - 1)]
    for r in rows:
        if "sets" not in r:
            out.append(f"| {r['workload']} | {r['metric']} | | missing |")
            continue
        cells = []
        for p in r["sets"]:
            cells.append(f"{p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]")
            cells.append(f"{100 * p['spread']:.2f}%")
        out.append(f"| {r['workload']} | {r['metric']} | "
                   f"{100 * r['bound']:.0f}% | " + " | ".join(cells) +
                   f" | {100 * r['worse_by']:+.2f}% | "
                   f"{'yes' if r['ok'] else 'NO'} |")
    return "\n".join(out)


def repeatability(runs, spec, workloads, seeds, sets):
    """Every set's value of each metric on the first two seeds: the same
    inputs measured once per set."""
    if sets < 2:
        return ""
    out = ["| workload | metric | " + " | ".join(
        f"seed {seed}: " + " / ".join(f"set {s + 1}" for s in range(sets))
        for seed in seeds[:2]) + " |"]
    out.append("|" + "---|" * (2 + len(seeds[:2])))
    for wl in workloads:
        for metric in spec["end_to_end"]:
            cells = []
            for seed in seeds[:2]:
                vals = [r["result"].get("metrics", {}).get(
                            metric["name"], {}).get("value")
                        for s in range(sets) for r in runs
                        if r["workload"] == wl and r["seed"] == seed
                        and r["set"] == s]
                cells.append(" / ".join("-" if v is None else f"{v:.6g}"
                                        for v in vals))
            out.append(f"| {wl} | {metric['name']} | " + " | ".join(cells) +
                       " |")
    return "\n".join(out)


def host_steal(run):
    """CPU-seconds the hypervisor stole during the run's window, from the
    run's notes (None when the run did not report it)."""
    for note in run.get("notes", []):
        m = re.match(r"host steal: (\S+) CPU-s", note)
        if m:
            return float(m.group(1))
    return None


def steal_table(runs):
    """Every run's time_to_solution_s next to the CPU time the hypervisor
    stole during its window, in run order."""
    out = ["| run | seed | set | workload | time_to_solution_s | "
           "host steal, CPU-s |", "|---|---|---|---|---|---|"]
    for i, r in enumerate(runs):
        tts = r["result"].get("metrics", {}).get(
            "time_to_solution_s", {}).get("value")
        steal = host_steal(r)
        out.append(f"| {i + 1} | {r['seed']} | {r['set'] + 1} | "
                   f"{r['workload']} | "
                   f"{'-' if tts is None else f'{tts:.6g}'} | "
                   f"{'-' if steal is None else f'{steal:.3g}'} |")
    return "\n".join(out)


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", default=os.path.join(HERE, "results"))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    seeds = [int(s) for s in args.seeds.split(",")]

    runs = []
    for seed in seeds:
        for wl in workloads:
            for s in range(args.sets):
                r = run_once(wl, seed, args.seconds)
                r["set"] = s
                runs.append(r)
                m = r["result"].get("metrics", {})
                brief = ", ".join(f"{k}={v['value']:.4g}" for k, v in
                                  m.items())
                print(f"set {s + 1} {wl} seed {seed}: rc={r['rc']} "
                      f"{r['wall_s']}s {brief}", file=sys.stderr, flush=True)

    rows, ok = summarize(runs, spec, workloads, args.sets)
    failed = [r for r in runs if r["rc"] != 0 or not r["result"].get("correct")]
    ok = ok and not failed
    md = table(rows, args.sets)
    os.makedirs(args.out, exist_ok=True)
    env = next((r["result_set"]["env"] for r in runs if r["result_set"]), {})
    with open(os.path.join(args.out, "steadiness.json"), "w") as f:
        json.dump({"seconds": args.seconds, "seeds": seeds, "sets": args.sets,
                   "env": env, "summary": rows, "runs": runs}, f, indent=1)
    same = repeatability(runs, spec, workloads, seeds, args.sets)
    with open(os.path.join(args.out, "steadiness.md"), "w") as f:
        f.write(f"Seeds {seeds}, {args.sets} interleaved sets, "
                f"{args.seconds:g} s per run, env {json.dumps(env)}; "
                f"{len(failed)} failed run(s).\n\n"
                "Spread is (q3 - q1) / median over the seeds; 'later worse "
                "by' compares each later set's median with the first.\n\n"
                f"{md}\n\nThe same inputs measured once per set:\n\n"
                f"{same}\n\nEvery run in the order it ran, with the CPU "
                "time the hypervisor stole from the machine during its "
                f"window:\n\n{steal_table(runs)}\n")
    print(md)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
