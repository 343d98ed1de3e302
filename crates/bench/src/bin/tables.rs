//! Regenerates the paper's tables and figures.
//!
//! Usage: `tables <experiment|all|help> [--quick|--medium|--paper]
//! [--devices N] [--profile <name>] [--threads N] [--fault-plan <spec>]
//! [--trace <spec>] [--trace-file <path>] [--backend <name>]`
//! where experiment is one of `table3..table11`, `fig4`, `fig9`,
//! `ablation`, `scaling`, `faults`, `serve`, `backends`, `trace`,
//! `timeline`, `profile`, `bench-json`.
//!
//! `--threads N` sets the host worker-pool size every experiment runs
//! under (device clocks and per-slot payload work fan out across it);
//! `BATCHZK_THREADS` is the environment equivalent and the default is the
//! host's available parallelism. Output is byte-identical at any thread
//! count — parallelism only changes wall-clock.
//!
//! `scaling` proves the scale's scaling batch across device pools and
//! prints throughput vs device count with the pool analyzer's per-device
//! occupancy and scaling-efficiency verdicts. `--devices N` sets the
//! largest pool (swept as 1, 2, 4, ... N; default 8) and
//! `--profile <name>` picks the simulated GPU (`v100`, `a100`,
//! `rtx3090ti`, `h100`, `gh200`; default `a100`).
//!
//! `faults` runs the recovery-overhead study: the scale's scaling batch on
//! a two-device pool, fault-free and under each scripted-fault scenario
//! (mid-batch fail-stop, degraded clock, dropped kernel), asserting the
//! recovered proofs stay byte-identical to the fault-free run.
//! `--fault-plan <spec>` appends a custom scenario (a plan that leaves no
//! device to finish on is an error, not a panic); the spec grammar is
//! comma-separated `<device>@<cycle>:fail`, `<device>@<cycle>:slow:<pct>`,
//! or `<device>@<cycle>:drop:<nth>` (see `OPERATIONS.md`).
//!
//! `serve` replays an open-loop arrival trace through the online proving
//! service on A100 pools of 1 and 4 devices and prints the per-class SLO
//! report (submitted / accepted / rejected-with-reason, p50/p95/p99
//! latency vs SLO, goodput). The default trace is the committed reference
//! trace (`traces/reference.trace`); override it with `--trace <spec>`
//! (the arrival grammar of `DESIGN.md` §13: comma-separated
//! `<class>@<cycle>:one | <class>@<cycle>:poisson:<gap>:<count>:<seed> |
//! <class>@<cycle>:onoff:<gap>:<count>:<seed>:<on>:<off>`) or
//! `--trace-file <path>`. Empty traces and malformed specs are errors,
//! not panics.
//!
//! `backends` compares every [`batchzk_zkp::ProverBackend`] proved through
//! the fully pipelined schedule against the kernel-per-task naive schedule
//! (byte-identical proofs asserted), then replays the committed mixed
//! trace (`traces/mixed.trace`) through one service instance serving every
//! protocol. `--backend <name>` restricts the sweep to one backend — any
//! name in [`batchzk_zkp::BACKEND_NAMES`], which the usage text enumerates
//! — and unknown names exit non-zero with usage.
//! The `serve`/`timeline` arrival grammar also accepts a per-arrival
//! backend suffix (`class/backend@...`), validated against the same set.
//!
//! `trace` is not part of `all`: it prints the per-stage timeline and
//! stage-imbalance table of the pipelined Merkle module, then the raw
//! Chrome-trace JSON as the final block of output — redirect or copy it
//! into a `.json` file and load it in `chrome://tracing` or
//! <https://ui.perfetto.dev>.
//!
//! `timeline` is also explicit-only: it replays the arrival trace (same
//! `--trace` / `--trace-file` flags as `serve`) on the single-device pool
//! — the committed overload case — prints the flight recorder's
//! per-window sparkline table and the deterministic fire/resolve alert
//! log, and writes two artifacts to the current directory: `TIMELINE.json`
//! (the windowed series, rule set, and alert log; byte-identical to the
//! BENCH.json `timeline` section at the same scale) and
//! `TIMELINE.trace.json` (the device's Chrome trace with the recorder
//! merged in as counter tracks, for `chrome://tracing` or Perfetto).
//!
//! `profile` is also explicit-only: after one warm-up prove it attributes
//! the fastest of five instrumented single-thread proves at the scale's
//! smallest system size to named pipeline phases, prints the markdown report,
//! and writes `PROFILE.json` to the current directory, both from that one
//! measurement. The per-kernel
//! costs (Montgomery multiply, dot, SHA-256 block, NTT butterfly) are
//! `benchmark/`'s `field.*` and `hash.*` rows.
//!
//! `bench-json` is also explicit-only: it runs the standard module and
//! system pipelines on the A100 profile and writes the machine-readable
//! `BENCH.json` artifact (throughput, lifecycle latency quantiles,
//! per-stage occupancy, limiting-stage analysis) to the current directory
//! for cross-commit regression tracking. Every figure in it derives from
//! simulated cycles, so the file is byte-identical at a given scale on any
//! host and at any thread count.
//!
//! Unrecognized experiments or flags print usage and exit non-zero.

use batchzk_bench::experiments;
use batchzk_bench::scale::Scale;
use std::io::Write;
use std::process::ExitCode;

/// `println!` into the report writer through [`emit`], returning early
/// from the enclosing `Result<_, ExitCode>` function when that fails.
macro_rules! say {
    ($out:expr, $($arg:tt)*) => {
        emit($out, format_args!("{}\n", format_args!($($arg)*)))?
    };
}

/// `(name, in-all, description)` for every experiment the binary can run.
const EXPERIMENTS: &[(&str, bool, &str)] = &[
    ("table3", true, "Merkle-tree module throughput (trees/ms)"),
    ("table4", true, "sum-check module throughput (proofs/ms)"),
    ("table5", true, "linear-time encoder throughput (codes/ms)"),
    ("table6", true, "module latency: the pipelining trade-off"),
    ("table7", true, "amortized per-proof time vs baselines"),
    ("table8", true, "ZKP systems across GPU profiles"),
    ("table9", true, "batch size vs throughput and latency"),
    ("table10", true, "device memory footprint"),
    ("table11", true, "verifiable-ML service throughput"),
    ("fig4", true, "pipelined vs naive utilization timeline"),
    ("fig9", true, "utilization collapse of naive modules"),
    ("ablation", true, "multi-stream / warp-sort ablations"),
    (
        "scaling",
        true,
        "multi-device throughput vs device count (--devices, --profile)",
    ),
    (
        "faults",
        true,
        "scripted-fault recovery overhead (--fault-plan)",
    ),
    (
        "serve",
        true,
        "online service replay: per-class SLO report (--trace, --trace-file)",
    ),
    (
        "backends",
        true,
        "pipelined vs naive per ProverBackend + mixed-trace service (--backend {backends})",
    ),
    (
        "trace",
        false,
        "per-stage timeline + Chrome-trace JSON (explicit-only)",
    ),
    (
        "timeline",
        false,
        "flight recorder: sparklines, alert log, TIMELINE.json (explicit-only)",
    ),
    (
        "profile",
        false,
        "prover phase attribution; writes PROFILE.json (explicit-only)",
    ),
    (
        "bench-json",
        false,
        "write machine-readable BENCH.json (explicit-only)",
    ),
];

const FLAGS: &[&str] = &["--quick", "--medium", "--paper"];

fn usage() -> String {
    let mut out = String::from(
        "usage: tables <experiment...|all|help> [--quick|--medium|--paper]\n\
         \x20             [--devices N] [--profile <name>] [--threads N]\n\nexperiments:\n",
    );
    out.push_str("  all          every experiment marked (all) below\n");
    out.push_str("  help         this listing\n");
    // The backend set is enumerated from `zkp::BACKEND_NAMES`, never
    // hardcoded: a new backend shows up in the help text automatically.
    let backend_names = batchzk_zkp::BACKEND_NAMES.join("|");
    for (name, in_all, desc) in EXPERIMENTS {
        let marker = if *in_all { " (all)" } else { "" };
        let desc = desc.replace("{backends}", &backend_names);
        out.push_str(&format!("  {name:<12} {desc}{marker}\n"));
    }
    out.push_str("\nscale flags: --quick (default), --medium, --paper\n");
    out.push_str(
        "scaling flags: --devices N (largest pool, swept 1,2,4..N; default 8)\n\
         \x20              --profile <v100|a100|rtx3090ti|h100|gh200> (default a100)\n",
    );
    out.push_str(
        "host flags:    --threads N (host worker pool; default BATCHZK_THREADS\n\
         \x20              or available parallelism; results identical at any N)\n",
    );
    out.push_str(
        "fault flags:   --fault-plan <spec> (extra `faults` scenario; spec is\n\
         \x20              comma-separated dev@cycle:fail | dev@cycle:slow:<pct>\n\
         \x20              | dev@cycle:drop:<nth>)\n",
    );
    out.push_str(
        "serve flags:   --trace <spec> | --trace-file <path> (arrival trace to\n\
         \x20              replay, shared with `timeline`; default is the\n\
         \x20              committed reference trace.\n\
         \x20              Spec grammar (DESIGN.md 13): comma-separated\n\
         \x20              class@cycle:one | class@cycle:poisson:<gap>:<count>:<seed>\n\
         \x20              | class@cycle:onoff:<gap>:<count>:<seed>:<on>:<off>;\n\
         \x20              class may carry a backend suffix, class/backend@...)\n",
    );
    out.push_str(&format!(
        "backend flags: --backend <{backend_names}> (restrict `backends` to one\n\
         \x20              prover backend; trace backend suffixes are validated\n\
         \x20              against the same set)\n",
    ));
    out
}

/// The device counts swept by `scaling`: powers of two up to `n`, plus
/// `n` itself when it is not one.
fn device_ladder(n: usize) -> Vec<usize> {
    let mut counts = Vec::new();
    let mut d = 1;
    while d < n {
        counts.push(d);
        d *= 2;
    }
    counts.push(n);
    counts
}

/// Prints `tables: <msg>`, a blank line and the usage text to stderr.
fn usage_error(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("tables: {msg}\n");
    eprint!("{}", usage());
    ExitCode::FAILURE
}

/// Writes `text` to the report. A reader that closed it early (`tables …
/// | head`) ends the run quietly, with success; any other write error is
/// a one-line error and failure.
fn emit(out: &mut dyn Write, text: std::fmt::Arguments<'_>) -> Result<(), ExitCode> {
    out.write_fmt(text).map_err(report_closed)
}

/// Flushes the report, as [`emit`] writes it.
fn emit_flush(out: &mut dyn Write) -> Result<(), ExitCode> {
    out.flush().map_err(report_closed)
}

/// The exit code of a failed write to the report (see [`emit`]).
fn report_closed(e: std::io::Error) -> ExitCode {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        ExitCode::SUCCESS
    } else {
        eprintln!("tables: failed to write the report: {e}");
        ExitCode::FAILURE
    }
}

/// Writes one artifact to the current directory and reports its size.
fn write_artifact(out: &mut dyn Write, path: &str, content: &str) -> Result<(), ExitCode> {
    match std::fs::write(path, content) {
        Ok(()) => {
            say!(out, "wrote {path} ({} bytes)", content.len());
            Ok(())
        }
        Err(e) => {
            eprintln!("tables: failed to write {path}: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

type TableFn = fn(&Scale) -> String;

/// The experiments that take only the scale and return one table.
const SCALE_ONLY: &[(&str, TableFn)] = &[
    ("table3", experiments::table3),
    ("table4", experiments::table4),
    ("table5", experiments::table5),
    ("table6", experiments::table6),
    ("table7", experiments::table7),
    ("table8", experiments::table8),
    ("table9", experiments::table9),
    ("table10", experiments::table10),
    ("table11", experiments::table11),
    ("fig4", experiments::fig4),
    ("fig9", experiments::fig9),
    ("ablation", experiments::ablation),
];

fn main() -> ExitCode {
    let mut stdout = std::io::stdout().lock();
    match run(std::env::args().skip(1).collect(), &mut stdout) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

/// Runs the experiments `raw` names, the report written to `out`.
fn run(raw: Vec<String>, out: &mut dyn Write) -> Result<(), ExitCode> {
    // Peel off the value-taking flags first, then validate the rest.
    let mut max_devices = 8usize;
    let mut profile = experiments::profile_by_name("a100").expect("a100 profile exists");
    let mut fault_plan: Option<batchzk_gpu_sim::FaultPlan> = None;
    let mut arrival_plan = experiments::reference_plan();
    let mut backend_filter: Option<String> = None;
    let mut args: Vec<String> = Vec::new();
    let mut it = raw.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace" => match it.next().map(|v| batchzk_gpu_sim::ArrivalPlan::parse(&v)) {
                Some(Ok(plan)) => arrival_plan = plan,
                Some(Err(e)) => return Err(usage_error(format!("bad --trace spec: {e}"))),
                None => return Err(usage_error("--trace needs a spec argument")),
            },
            "--trace-file" => match it.next() {
                Some(path) => match std::fs::read_to_string(&path)
                    .map_err(|e| e.to_string())
                    .and_then(|s| batchzk_gpu_sim::ArrivalPlan::parse(&s))
                {
                    Ok(plan) => arrival_plan = plan,
                    Err(e) => {
                        return Err(usage_error(format!("bad --trace-file `{path}`: {e}")));
                    }
                },
                None => return Err(usage_error("--trace-file needs a path argument")),
            },
            "--fault-plan" => match it.next().map(|v| batchzk_gpu_sim::FaultPlan::parse(&v)) {
                Some(Ok(plan)) => fault_plan = Some(plan),
                Some(Err(e)) => return Err(usage_error(format!("bad --fault-plan spec: {e}"))),
                None => return Err(usage_error("--fault-plan needs a spec argument")),
            },
            "--devices" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => max_devices = n,
                _ => return Err(usage_error("--devices needs a positive integer")),
            },
            "--profile" => match it.next().as_deref().and_then(experiments::profile_by_name) {
                Some(p) => profile = p,
                None => {
                    return Err(usage_error(
                        "--profile needs one of v100, a100, rtx3090ti, h100, gh200",
                    ));
                }
            },
            "--threads" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => batchzk_par::set_threads(n),
                _ => return Err(usage_error("--threads needs a positive integer")),
            },
            "--backend" => match it.next() {
                Some(name) if batchzk_zkp::BACKEND_NAMES.contains(&name.as_str()) => {
                    backend_filter = Some(name);
                }
                Some(name) => {
                    return Err(usage_error(format!(
                        "unknown backend `{name}`: expected one of {}",
                        batchzk_zkp::BACKEND_NAMES.join(", ")
                    )));
                }
                None => return Err(usage_error("--backend needs a name argument")),
            },
            _ => args.push(arg),
        }
    }

    // Per-arrival backend suffixes in the replay trace must name known
    // prover backends — reject before spending any proving time.
    if let Err(e) = experiments::validate_trace_backends(&arrival_plan) {
        return Err(usage_error(format!("bad trace: {e}")));
    }

    // Reject unknown flags and experiments up front (exit non-zero).
    for arg in &args {
        let known = if arg.starts_with("--") {
            FLAGS.contains(&arg.as_str())
        } else {
            arg == "all" || arg == "help" || EXPERIMENTS.iter().any(|(n, _, _)| n == arg)
        };
        if !known {
            return Err(usage_error(format!("unrecognized argument `{arg}`")));
        }
    }

    if args.iter().any(|a| a == "help") {
        emit(out, format_args!("{}", usage()))?;
        return emit_flush(out);
    }

    let scale = if args.iter().any(|a| a == "--paper") {
        Scale::paper()
    } else if args.iter().any(|a| a == "--medium") {
        Scale::medium()
    } else {
        Scale::quick()
    };
    let which: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let which = if which.is_empty() { vec!["all"] } else { which };

    say!(out, "# BatchZK reproduction — experiment harness");
    say!(out, "scale: {}\n", scale.tag);

    let all = which.contains(&"all");
    let want = |name: &str| all || which.contains(&name);
    // An experiment that fails on its inputs: the one-line error, exit 1.
    let failed = |name: &str, e: String| {
        eprintln!("tables: {name} failed: {e}");
        ExitCode::FAILURE
    };

    for (name, experiment) in SCALE_ONLY {
        if want(name) {
            say!(out, "{}", experiment(&scale));
        }
    }
    if want("scaling") {
        let report = experiments::scaling(&scale, &device_ladder(max_devices), &profile);
        say!(out, "{report}");
    }
    if want("faults") {
        let report = experiments::faults(&scale, fault_plan.as_ref());
        say!(out, "{}", report.map_err(|e| failed("faults", e))?);
    }
    if want("serve") {
        let report = experiments::serve(&scale, &arrival_plan);
        say!(out, "{}", report.map_err(|e| failed("serve", e))?);
    }
    if want("backends") {
        let report = experiments::backends(&scale, backend_filter.as_deref());
        say!(out, "{report}");
    }
    // `trace` is explicit-only: its JSON payload would drown `all` output.
    if which.contains(&"trace") {
        let (report, json) = experiments::trace(&scale);
        say!(out, "{report}");
        say!(
            out,
            "Chrome trace JSON (load in chrome://tracing or Perfetto):\n"
        );
        say!(out, "{json}");
    }
    // `timeline` is explicit-only: it writes artifacts, like `bench-json`.
    if which.contains(&"timeline") {
        let artifacts =
            experiments::timeline(&scale, &arrival_plan).map_err(|e| failed("timeline", e))?;
        say!(out, "{}", artifacts.report);
        write_artifact(out, "TIMELINE.json", &artifacts.json)?;
        write_artifact(out, "TIMELINE.trace.json", &artifacts.chrome_trace)?;
    }
    // `profile` is explicit-only: it writes an artifact, like `bench-json`.
    if which.contains(&"profile") {
        let (report, json) = experiments::profile(&scale);
        say!(out, "{report}");
        write_artifact(out, "PROFILE.json", &json)?;
    }
    // `bench-json` is explicit-only: it writes an artifact, not a table.
    if which.contains(&"bench-json") {
        write_artifact(out, "BENCH.json", &experiments::bench_json(&scale))?;
    }
    emit_flush(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that has gone away: every write and flush fails with `kind`.
    struct Closed(std::io::ErrorKind);

    impl Write for Closed {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(self.0.into())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Err(self.0.into())
        }
    }

    #[test]
    fn a_closed_stdout_ends_the_run_quietly() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        for list in [&["help"][..], &["table8"]] {
            let broken = run(args(list), &mut Closed(std::io::ErrorKind::BrokenPipe));
            assert_eq!(broken, Err(ExitCode::SUCCESS), "{list:?}");
            let failed = run(args(list), &mut Closed(std::io::ErrorKind::Other));
            assert_eq!(failed, Err(ExitCode::FAILURE), "{list:?}");
        }
        let mut report = Vec::new();
        assert_eq!(run(args(&["help"]), &mut report), Ok(()));
        assert_eq!(String::from_utf8(report).expect("utf-8"), usage());
    }
}
