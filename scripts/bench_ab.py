#!/usr/bin/env python3
"""Alternating parent/change runs of the repo benchmark, one JSON line per run.

`record` runs two builds of the benchmark (`BENCHMARK.json`'s command, built
in each commit's own checkout with `cargo build --release --offline
--manifest-path benchmark/Cargo.toml`) in pairs, alternating which side goes
first, each for `BENCHMARK.json`'s `run_seconds`. It appends each run's last
stdout line (the benchmark's `{correct, attempted, failed, metrics}` object)
to `--out` with the run's commit, role, workload, seed, trace flag and pair
index, and two host facts: `host_lane_kernel` and `host_compress_kernel`,
the bodies this checkout's `field::lane_kernel()` and
`hash::compress_kernel()` pick on this host (read once from its `lanes` and
`sha_blocks` examples). They record the CPU's capability, not what either
binary ran: a build that predates a hook runs its own portable loop
whatever they read (a parent without the `fold_halves` / `scale` hooks,
such as 38b81f83, folds and scales on the scalar loops). Each line also
carries what the run cost the operating system: `host_minflt`, its minor
page faults, and `host_sys_s`, its system CPU seconds (the
`getrusage(RUSAGE_CHILDREN)` deltas around the run) — the allocator's share
of a host clock, which a prover that frees and re-faults its tables pays.

`summary` prints, per workload, seed and trace flag, each role's median
[quartiles] of one metric, the pairs the change won (in the metric's
`better` direction from `BENCHMARK.json`), whether the exact metrics
(`sim_*`, `proof_bytes_mean`, `verified_share`) were equal in every run,
and every `end_to_end` metric whose change median is worse than its parent
median by more than the metric's `bound` (a fraction of the parent median),
or that all are within bound. Where the runs carry `host_minflt` and
`host_sys_s`, a third line gives each role's median of both.

`trajectory` reads every committed `BENCH_<n>.json` at the repo root in
order of `<n>` and prints, per file, workload, seed and trace flag, the
parent and change medians of one metric, their ratio (change / parent), and
the chained ratio: the product of that workload, seed and trace flag's
ratios over every file so far that has it. Each file is one A/B step, so
the chain is the metric's history across steps even where absolute levels
drifted between sessions. A line that does not parse exits non-zero.

`stages` is the same A/B step layer by layer: for one file's `--trace 1`
runs it prints, per workload and seed, every pipeline stage's
`zkp.stage.<stage>.host_ms_per_proof` as the parent and change medians and
their ratio (change / parent), with the run count of each side. Stages the
workload does not run (zero on both sides) are left out. A line that does
not parse exits non-zero.

    python3 scripts/bench_ab.py record --out BENCH_<n>.json \\
        --parent /path/to/parent-benchmark@<commit> --change /path/to/change-benchmark@<commit> \\
        --workload spartan-batch --seeds 1,2727 --pairs 10 [--trace 0]
    python3 scripts/bench_ab.py summary BENCH_<n>.json [--metric host_proofs_per_s]
    python3 scripts/bench_ab.py trajectory [--metric host_proofs_per_s]
    python3 scripts/bench_ab.py stages BENCH_<n>.json [--workload service-mixed]
"""

import argparse
import json
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def example_line(package, example, pattern):
    """The first match of `pattern` in a release example's stdout."""
    out = subprocess.run(
        ["cargo", "run", "--release", "--offline", "-q", "-p", package, "--example", example],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    match = re.search(pattern, out)
    if not match:
        sys.exit(f"{example}: no `{pattern}` in its output")
    return match.group(1)


def run_once(binary, workload, seed, seconds, trace):
    """The run's last stdout line, and its minor faults and system CPU."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True,
    ).stdout
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    usage = {"host_minflt": after.ru_minflt - before.ru_minflt,
             "host_sys_s": round(after.ru_stime - before.ru_stime, 3)}
    return json.loads(out.strip().splitlines()[-1]), usage


def record(args):
    sides = {}
    for role in ("parent", "change"):
        binary, _, commit = getattr(args, role).rpartition("@")
        if not binary or not commit:
            sys.exit(f"--{role} takes <benchmark binary>@<commit>")
        sides[role] = (binary, commit)
    host = {
        "host_lane_kernel": example_line("batchzk-field", "lanes", r"dispatch to: (\S+)"),
        "host_compress_kernel": example_line("batchzk-hash", "sha_blocks", r"dispatches to: (\S+)"),
    }
    with open(args.out, "a", encoding="utf-8") as out:
        for seed in args.seeds:
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for role in order:
                    binary, commit = sides[role]
                    result, usage = run_once(binary, args.workload, seed, SPEC["run_seconds"],
                                             args.trace)
                    line = {"commit": commit, "role": role, "workload": args.workload,
                            "seed": seed, "trace": args.trace, "pair": pair, **host, **usage,
                            **result}
                    out.write(json.dumps(line, sort_keys=True) + "\n")
                    out.flush()
                    value = result["metrics"].get("host_proofs_per_s", {}).get("value")
                    print(f"{args.workload} seed {seed} pair {pair} {role}: "
                          f"host_proofs_per_s {value}, host_minflt {usage['host_minflt']}",
                          flush=True)


def exact(name):
    return name.startswith("sim_") or name in ("proof_bytes_mean", "verified_share")


def summary(args):
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    groups = {}
    for line in Path(args.file).read_text(encoding="utf-8").splitlines():
        run = json.loads(line)
        key = (run["workload"], run["seed"], run["trace"])
        groups.setdefault(key, []).append(run)
    for (workload, seed, trace), runs in sorted(groups.items()):
        values = {"parent": {}, "change": {}}
        for run in runs:
            metric = run["metrics"].get(args.metric)
            if metric is not None:
                # A second `record` into the same file numbers its pairs
                # from 0 again: the k-th run of a pair index pairs with the
                # other role's k-th.
                slot = values[run["role"]]
                pair = (run["pair"], sum(p == run["pair"] for p, _ in slot))
                slot[pair] = metric["value"]
        if not any(values.values()):
            continue
        pairs = sorted(set(values["parent"]) & set(values["change"]))
        sign = 1 if better.get(args.metric, "higher") == "higher" else -1
        won = sum(sign * (values["change"][p] - values["parent"][p]) > 0 for p in pairs)
        cells = []
        for role in ("parent", "change"):
            v = sorted(values[role].values())
            if len(v) >= 2:
                q1, med, q3 = statistics.quantiles(v, n=4, method="inclusive")
                cells.append(f"{role} {med:.4g} [{q1:.4g}, {q3:.4g}]")
            elif v:
                cells.append(f"{role} {v[0]:.4g}")
        exact_sets = {json.dumps({k: m["value"] for k, m in run["metrics"].items() if exact(k)},
                                 sort_keys=True) for run in runs}
        failed = sum(run["failed"] for run in runs)
        print(f"{workload} seed {seed} trace {trace}: {args.metric}: {'; '.join(cells)}; "
              f"change won {won} / {len(pairs)} pairs; exact metrics equal: "
              f"{'yes' if len(exact_sets) == 1 else 'NO'}; failed ops {failed}")
        worse = worse_end_to_end(runs)
        print(f"  {'; '.join(worse) if worse else 'all end-to-end metrics within bound'}")
        usage = []
        for name in ("host_minflt", "host_sys_s"):
            medians = [(role, statistics.median(v)) for role in ("parent", "change")
                       if (v := [run[name] for run in runs if run["role"] == role and name in run])]
            if medians:
                usage.append(f"{name} median " + ", ".join(f"{r} {m:.10g}" for r, m in medians))
        if usage:
            print(f"  {'; '.join(usage)}")


def worse_end_to_end(runs):
    """Each `end_to_end` metric whose change median is worse than its parent
    median by more than `bound` times the parent median."""
    worse = []
    for spec in SPEC["end_to_end"]:
        name, bound = spec["name"], spec["bound"]
        medians = {}
        for role in ("parent", "change"):
            v = [run["metrics"][name]["value"] for run in runs
                 if run["role"] == role and name in run["metrics"]]
            if v:
                medians[role] = statistics.median(v)
        if len(medians) < 2:
            continue
        parent, change = medians["parent"], medians["change"]
        loss = change - parent if spec["better"] == "lower" else parent - change
        if loss > bound * abs(parent):
            worse.append(f"{name} worse beyond its bound {bound}: "
                         f"parent {parent:.4g}, change {change:.4g}")
    return worse


def runs_of(path):
    """The runs of one BENCH file, each line checked to be a run object."""
    runs = []
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        try:
            run = json.loads(line)
            run["role"], run["workload"], run["seed"], run["trace"], run["metrics"]
        except (ValueError, KeyError, TypeError) as err:
            sys.exit(f"{path.name}:{number}: not a benchmark run line ({err!r})")
        runs.append(run)
    return runs


def trajectory(args):
    files = sorted((int(m.group(1)), path) for path in ROOT.glob("BENCH_*.json")
                   if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name)))
    if not files:
        sys.exit("no BENCH_<n>.json at the repo root")
    chained = {}
    for _, path in files:
        groups = {}
        for run in runs_of(path):
            metric = run["metrics"].get(args.metric)
            if metric is not None:
                key = (run["workload"], run["seed"], run["trace"])
                groups.setdefault(key, {}).setdefault(run["role"], []).append(metric["value"])
        for key, values in sorted(groups.items()):
            if not {"parent", "change"} <= set(values):
                continue
            parent, change = (statistics.median(values[role]) for role in ("parent", "change"))
            workload, seed, trace = key
            line = f"{path.name} {workload} seed {seed} trace {trace}: {args.metric} " \
                   f"{parent:.4g} -> {change:.4g}"
            if parent == 0:
                print(f"{line} (no ratio from a zero parent)")
                continue
            chain, steps = chained.get(key, (1.0, 0))
            chain, steps = chain * change / parent, steps + 1
            chained[key] = (chain, steps)
            print(f"{line} (x{change / parent:.3f}); chained x{chain:.3f} "
                  f"over {steps} file{'s' if steps > 1 else ''}")


STAGE = re.compile(r"zkp\.stage\.(.+)\.host_ms_per_proof")


def stages(args):
    groups = {}
    for run in runs_of(Path(args.file)):
        if run["trace"] != 1 or args.workload not in (None, run["workload"]):
            continue
        per_stage = groups.setdefault((run["workload"], run["seed"]), {})
        for name, metric in run["metrics"].items():
            if m := STAGE.fullmatch(name):
                sides = per_stage.setdefault(m.group(1), {})
                sides.setdefault(run["role"], []).append(metric["value"])
    if not groups:
        print(f"{args.file}: no --trace 1 runs"
              + (f" of {args.workload}" if args.workload else ""))
    for (workload, seed), per_stage in sorted(groups.items()):
        for stage, values in sorted(per_stage.items()):
            if not {"parent", "change"} <= set(values):
                continue
            parent, change = (statistics.median(values[role]) for role in ("parent", "change"))
            if parent == 0 and change == 0:
                continue
            ratio = f"x{change / parent:.3f}" if parent else "no ratio from a zero parent"
            print(f"{Path(args.file).name} {workload} seed {seed}: {stage} host_ms_per_proof "
                  f"{parent:.4g} -> {change:.4g} ({ratio}; "
                  f"{len(values['parent'])} / {len(values['change'])} runs)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("--out", required=True)
    rec.add_argument("--parent", required=True)
    rec.add_argument("--change", required=True)
    rec.add_argument("--workload", required=True)
    rec.add_argument("--seeds", type=lambda s: [int(x) for x in s.split(",")], default=[1])
    rec.add_argument("--pairs", type=int, default=10)
    rec.add_argument("--trace", type=int, choices=(0, 1), default=0)
    summ = sub.add_parser("summary")
    summ.add_argument("file")
    summ.add_argument("--metric", default="host_proofs_per_s")
    traj = sub.add_parser("trajectory")
    traj.add_argument("--metric", default="host_proofs_per_s")
    stage = sub.add_parser("stages")
    stage.add_argument("file")
    stage.add_argument("--workload")
    args = parser.parse_args()
    commands = {"record": record, "summary": summary, "trajectory": trajectory, "stages": stages}
    commands[args.command](args)


if __name__ == "__main__":
    main()
