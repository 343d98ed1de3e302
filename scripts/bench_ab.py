#!/usr/bin/env python3
"""Alternating parent/change runs of the repo benchmark, one JSON line per run.

`record` runs two builds of the benchmark (`BENCHMARK.json`'s command, built
in each commit's own checkout with `cargo build --release --offline
--manifest-path benchmark/Cargo.toml`) in pairs, alternating which side goes
first, each for `BENCHMARK.json`'s `run_seconds`. It appends each run's last
stdout line (the benchmark's `{correct, attempted, failed, metrics}` object)
to `--out` with the run's commit, role, workload, seed, trace flag and pair
index, and three host facts: `host_lane_kernel`, `host_compress_kernel` and
`host_hash_lanes_kernel`, the bodies this checkout's `field::lane_kernel()`,
`hash::compress_kernel()` and `hash::lanes_kernel()` (sixteen messages at a
time) pick on this host (read from the dispatch lines its `lanes` and
`sha_blocks` examples print first; each example runs once, and is stopped as
soon as those lines are read). They record the CPU's capability, not what either
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
the parent's quartile spread (third quartile minus first), and a verdict:
`resolved` when the change won at least 9 of every 10 pairs (and there are
at least 10) and its median beats the parent's by more than that spread,
else `unresolved` with the test it missed: the rule a claimed gain must
pass. A second line starts with the per-pair ratio change / parent of
that metric, its median [quartiles] (informational), then lists every
`end_to_end` metric whose change median is worse than its parent median by more than
the metric's `bound` (a fraction of the parent median), and every other one
that is `unresolved` because the parent's quartile spread is wider than
`bound` times the parent median (the runs cannot tell a change that small
from noise) while some change run fails to beat some parent run; or it says
that all are within bound. Where the runs carry `host_minflt` and `host_sys_s`, a
third line gives each role's median of both. A last line gives the paired
verdict, for information only: the pairs won, whether the per-pair ratio's
quartile nearer 1 lies on the metric's better side of 1, and `resolved` when
both the 9 / 10 rule and that hold.

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


def example_lines(package, example, *patterns):
    """The first match of each of `patterns` in a release example's stdout,
    read as it streams: the example is stopped once every one has matched,
    so the timing tables after its dispatch lines are never run."""
    found = {}
    with subprocess.Popen(
        ["cargo", "run", "--release", "--offline", "-q", "-p", package, "--example", example],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    ) as proc:
        for line in proc.stdout:
            for pattern in patterns:
                if pattern not in found and (match := re.search(pattern, line)):
                    found[pattern] = match.group(1)
            if len(found) == len(patterns):
                proc.kill()
                break
    missing = [pattern for pattern in patterns if pattern not in found]
    if missing:
        sys.exit(f"{example}: no `{missing[0]}` in its output (exit {proc.returncode})")
    return [found[pattern] for pattern in patterns]


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
    [lane] = example_lines("batchzk-field", "lanes", r"dispatch to: (\S+)")
    compress, hash_lanes = example_lines("batchzk-hash", "sha_blocks", r"dispatches to: (\S+)",
                                         r"16 messages at a time dispatch to: (\S+)")
    host = {"host_lane_kernel": lane, "host_compress_kernel": compress,
            "host_hash_lanes_kernel": hash_lanes}
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
        cells, quartiles = [], {}
        for role in ("parent", "change"):
            v = sorted(values[role].values())
            if len(v) >= 2:
                quartiles[role] = statistics.quantiles(v, n=4, method="inclusive")
                q1, med, q3 = quartiles[role]
                cells.append(f"{role} {med:.4g} [{q1:.4g}, {q3:.4g}]")
            elif v:
                cells.append(f"{role} {v[0]:.4g}")
        exact_sets = {json.dumps({k: m["value"] for k, m in run["metrics"].items() if exact(k)},
                                 sort_keys=True) for run in runs}
        failed = sum(run["failed"] for run in runs)
        print(f"{workload} seed {seed} trace {trace}: {args.metric}: {'; '.join(cells)}; "
              f"change won {won} / {len(pairs)} pairs; exact metrics equal: "
              f"{'yes' if len(exact_sets) == 1 else 'NO'}; failed ops {failed}; "
              f"{verdict(quartiles, sign, won, len(pairs))}")
        bounds = end_to_end_bounds(runs) or ["all end-to-end metrics within bound"]
        ratios = [values["change"][p] / values["parent"][p] for p in pairs
                  if values["parent"][p]]
        if len(ratios) >= 2:
            # Informational: the spread of the pairs' ratios, on the
            # default (exclusive) quartiles.
            q1, med, q3 = statistics.quantiles(ratios, n=4)
            bounds.insert(0, f"per-pair change / parent {med:.4g} [{q1:.4g}, {q3:.4g}]")
        print(f"  {'; '.join(bounds)}")
        usage = []
        for name in ("host_minflt", "host_sys_s"):
            medians = [(role, statistics.median(v)) for role in ("parent", "change")
                       if (v := [run[name] for run in runs if run["role"] == role and name in run])]
            if medians:
                usage.append(f"{name} median " + ", ".join(f"{r} {m:.10g}" for r, m in medians))
        if usage:
            print(f"  {'; '.join(usage)}")
        if len(ratios) >= 2:
            print(f"  {paired_verdict(ratios, sign, won, len(pairs))}")


def verdict(quartiles, sign, won, pairs):
    """`resolved` when the change won at least 9 / 10 of at least 10 pairs
    and its median beats the parent's by more than the parent's quartile
    spread; else `unresolved` and the test it missed."""
    if "parent" not in quartiles or "change" not in quartiles:
        return "unresolved: fewer than two runs a side"
    q1, parent, q3 = quartiles["parent"]
    gain = sign * (quartiles["change"][1] - parent)
    spread = f"parent quartile spread {q3 - q1:.4g}, median gain {gain:.4g}"
    missed = [test for test, failed in [
        ("fewer than 10 pairs", pairs < 10),
        (f"won {won} / {pairs} pairs, under 9 / 10", won * 10 < 9 * pairs),
        ("median gain not past the spread", gain <= q3 - q1),
    ] if failed]
    return f"{spread}; " + (f"unresolved: {', '.join(missed)}" if missed else "resolved")


def paired_verdict(ratios, sign, won, pairs):
    """The pairs' own verdict, for information only: `resolved` when the
    change won at least 9 / 10 of at least 10 pairs and the quartile of the
    per-pair ratio change / parent nearer 1 -- the upper one for a
    lower-is-better metric, the lower one otherwise -- lies on the better
    side of 1; else `unresolved` and the test it missed. A drift of the
    host that moves both sides of a pair alike leaves it unmoved, where it
    widens the parent's quartile spread that `verdict` compares with."""
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    nearer = q1 if sign > 0 else q3
    past = sign * (nearer - 1) > 0
    missed = [test for test, failed in [
        ("fewer than 10 pairs", pairs < 10),
        (f"won {won} / {pairs} pairs, under 9 / 10", won * 10 < 9 * pairs),
        ("ratio quartile not past 1", not past),
    ] if failed]
    return (f"paired verdict (information only): change won {won} / {pairs} pairs; "
            f"per-pair ratio quartile nearer 1 {nearer:.4g} "
            f"({'on' if past else 'not on'} the better side of 1); "
            + (f"unresolved: {', '.join(missed)}" if missed else "resolved"))


def end_to_end_bounds(runs):
    """Each `end_to_end` metric whose change median is worse than its parent
    median by more than `bound` times the parent median; then each other one
    whose parent quartile spread is wider than that, unless every change run
    beats every parent run: the no-regression rule, which calls such a
    metric unresolved rather than within bound."""
    worse, unresolved = [], []
    for spec in SPEC["end_to_end"]:
        name, bound = spec["name"], spec["bound"]
        values = {}
        for role in ("parent", "change"):
            v = [run["metrics"][name]["value"] for run in runs
                 if run["role"] == role and name in run["metrics"]]
            if v:
                values[role] = v
        if len(values) < 2:
            continue
        parent, change = (statistics.median(values[role]) for role in ("parent", "change"))
        sign = -1 if spec["better"] == "lower" else 1
        if sign * (parent - change) > bound * abs(parent):
            worse.append(f"{name} worse beyond its bound {bound}: "
                         f"parent {parent:.4g}, change {change:.4g}")
            continue
        spread = 0.0
        if len(values["parent"]) >= 2:
            q1, _, q3 = statistics.quantiles(values["parent"], n=4, method="inclusive")
            spread = q3 - q1
        beats_all = (min(sign * v for v in values["change"])
                     > max(sign * v for v in values["parent"]))
        if spread > bound * abs(parent) and not beats_all:
            unresolved.append(f"{name} unresolved: parent quartile spread {spread:.4g} "
                              f"wider than its bound {bound} x median {parent:.4g}")
    return worse + unresolved


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
