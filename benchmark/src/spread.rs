//! `-- spread`: the benchmark's own steadiness check. Runs every workload
//! as interleaved sets of runs of the same code, each run of a set with
//! another seed, and reports per end-to-end metric and workload each set's
//! median and quartiles, the quartile distance as a share of the median
//! (the run-to-run spread), and how far the sets' medians disagree, all
//! against the metric's bound. Writes `benchmark/SPREAD.md`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use crate::json::{self, Json};
use crate::spec;
use crate::stats::{iqr_share, median, quartiles};

struct Args {
    sets: usize,
    runs: usize,
    seconds: u64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        sets: 2,
        runs: 10,
        seconds: spec::RUN_SECONDS,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .ok()
                .filter(|n| (1..=1000).contains(n))
                .ok_or_else(|| format!("{flag}: {value:?} is not a count in 1..=1000"))
        };
        match flag.as_str() {
            "--sets" => parsed.sets = number()? as usize,
            "--runs" => parsed.runs = number()? as usize,
            "--seconds" => parsed.seconds = number()?,
            _ => return Err(format!("unknown spread flag {flag}")),
        }
    }
    Ok(parsed)
}

/// One child run: this same executable on one workload and seed. Returns
/// the metrics of its result line and its wall time.
fn child_run(workload: &str, seed: u64, seconds: u64) -> Result<(Vec<(String, f64)>, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let start = Instant::now();
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let line = stdout.lines().last().ok_or("a run printed nothing")?;
    let result = json::parse(line)?;
    if result.get("correct") != Some(&Json::Bool(true))
        || result.get("failed") != Some(&Json::Num(0.0))
    {
        return Err(format!("{workload} seed {seed} reported failures: {line}"));
    }
    let metrics = result
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("result line has no metrics")?
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without a value")?;
            Ok((name.clone(), value))
        })
        .collect::<Result<Vec<_>, &str>>()?;
    Ok((metrics, wall_s))
}

/// By how much of `first` the median `second` is worse, in the metric's
/// own direction; negative when it is better.
fn worsening(first: f64, second: f64, better: &str) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    let change = (second - first) / first.abs();
    if better == "higher" {
        -change
    } else {
        change
    }
}

pub fn main(args: &[String]) -> ExitCode {
    let args = match parse_args(args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(1);
        }
    };
    // (workload, metric) -> per set, the values of its runs.
    let mut samples: BTreeMap<(usize, usize), Vec<Vec<f64>>> = BTreeMap::new();
    let e2e = spec::end_to_end();
    let mut run_wall: Vec<Vec<f64>> = vec![Vec::new(); spec::WORKLOADS.len()];
    let started = Instant::now();
    // Interleaved: run r of every set before run r+1 of any, so slow drift
    // of the host lands on all sets alike.
    for r in 0..args.runs {
        for set in 0..args.sets {
            for (w, workload) in spec::WORKLOADS.iter().enumerate() {
                let seed = r as u64 + 1;
                eprintln!(
                    "run {} of set {} on {} (seed {seed})",
                    r + 1,
                    set + 1,
                    workload.name
                );
                let (metrics, wall_s) = match child_run(workload.name, seed, args.seconds) {
                    Ok(found) => found,
                    Err(message) => {
                        eprintln!("{message}");
                        return ExitCode::from(2);
                    }
                };
                run_wall[w].push(wall_s);
                for (m, (spec, _)) in e2e.iter().enumerate() {
                    let value = metrics
                        .iter()
                        .find(|(name, _)| *name == spec.name)
                        .map(|(_, v)| *v);
                    let Some(value) = value else {
                        eprintln!("{} did not print {}", workload.name, spec.name);
                        return ExitCode::from(2);
                    };
                    samples
                        .entry((w, m))
                        .or_insert_with(|| vec![Vec::new(); args.sets])[set]
                        .push(value);
                }
            }
        }
    }

    let mut md = String::new();
    writeln!(
        md,
        "# Run-to-run spread of the benchmark\n\n\
         Written by `cargo run --release --offline --manifest-path benchmark/Cargo.toml -- spread \
         --sets {} --runs {} --seconds {}` on a host with {} cores, host threads pinned to 1. \
         Every set ran each workload {} times, run *r* of every set with seed *r*, sets \
         interleaved. `spread` is the distance between a set's quartiles as a share of its \
         median (`statistics.quantiles(values, n=4)`); `worse by` is how far a later set's \
         median is worse than the first set's, in the metric's own direction. Both must stay \
         within `bound`; the benchmark is written to keep spreads under a third of it. \
         Whole session: {:.0} s.\n",
        args.sets,
        args.runs,
        args.seconds,
        batchzk_par::host_cores(),
        args.runs,
        started.elapsed().as_secs_f64()
    )
    .expect("write");
    let mut ok = true;
    for (w, workload) in spec::WORKLOADS.iter().enumerate() {
        writeln!(
            md,
            "## {}\n\nWall time of one run, set-up and process start included: median {:.1} s, longest {:.1} s.\n",
            workload.name,
            median(&run_wall[w]),
            run_wall[w].iter().copied().fold(0.0, f64::max)
        )
        .expect("write");
        writeln!(
            md,
            "| metric | unit | set | median | q1 | q3 | spread | worse by | bound | verdict |"
        )
        .expect("write");
        writeln!(md, "|---|---|---|---|---|---|---|---|---|---|").expect("write");
        for (m, (spec, bound)) in e2e.iter().enumerate() {
            let sets = &samples[&(w, m)];
            let first_median = median(&sets[0]);
            for (s, values) in sets.iter().enumerate() {
                let (q1, q3) = quartiles(values);
                let spread = iqr_share(values);
                let worse = worsening(first_median, median(values), spec.better);
                // set-up time's own spread is not bounded, only its medians.
                let spread_ok = spec.name == "setup_s" || spread <= *bound;
                let verdict = if spread_ok && worse <= *bound {
                    if (spec.name == "setup_s" || spread <= bound / 3.0) && worse <= bound / 3.0 {
                        "ok"
                    } else {
                        "within bound, above a third"
                    }
                } else {
                    ok = false;
                    "OUTSIDE BOUND"
                };
                writeln!(
                    md,
                    "| {} | {} | {} | {:.6} | {:.6} | {:.6} | {:.2} % | {:+.2} % | {:.0} % | {} |",
                    spec.name,
                    spec.unit,
                    s + 1,
                    median(values),
                    q1,
                    q3,
                    spread * 100.0,
                    worse * 100.0,
                    bound * 100.0,
                    verdict
                )
                .expect("write");
            }
        }
        writeln!(md).expect("write");
    }
    print!("{md}");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("SPREAD.md");
    if let Err(e) = std::fs::write(&path, &md) {
        eprintln!("could not write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("a spread or a disagreement between sets is outside its bound");
        ExitCode::from(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(100.0, 110.0, "lower") - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, "higher") + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, "higher") - 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, "lower"), 0.0);
    }

    #[test]
    fn spread_arguments() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let parsed = parse_args(&args("--sets 3 --runs 5 --seconds 2")).unwrap();
        assert_eq!((parsed.sets, parsed.runs, parsed.seconds), (3, 5, 2));
        assert!(parse_args(&args("--sets 0")).is_err());
        assert!(parse_args(&args("--runs")).is_err());
        assert!(parse_args(&args("--what 1")).is_err());
    }
}
