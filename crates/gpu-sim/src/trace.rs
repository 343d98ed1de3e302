//! Per-step event recording and Chrome-trace export.
//!
//! The simulator's aggregate counters ([`crate::KernelStats`],
//! [`crate::UtilSample`]) answer "how fast was the run"; the event recorder
//! in this module answers "*where did the cycles go*" — per kernel, per copy
//! engine, per step — the way the paper's Figure 4 timeline does. Recording
//! granularity is controlled by [`TraceLevel`]:
//!
//! * [`TraceLevel::Stats`] — the default: the O(1) scalar totals (clock,
//!   busy cycles, transfer bytes), utilization samples and per-kernel
//!   cumulative statistics.
//! * [`TraceLevel::Full`] — additionally records one [`KernelEvent`] per
//!   resident kernel per step, one [`TransferEvent`] per submitted transfer,
//!   and one [`StepEvent`] per step, enabling [`chrome_trace_json`] export.
//!
//! The Chrome trace format is the JSON event array consumed by
//! `chrome://tracing` and <https://ui.perfetto.dev>: duration (`"ph": "X"`)
//! events with microsecond timestamps. We emit **one device cycle as one
//! microsecond** — the viewer's time axis then reads directly in simulated
//! cycles. Track layout: process 0 carries one thread per kernel name (in
//! order of first appearance) plus two extra threads for the `copy-h2d` and
//! `copy-d2h` engines. The export is byte-deterministic for a given run:
//! events are emitted in recording order and every number is an integer.

use crate::fault::FaultEvent;
use crate::gpu::Dir;

/// How much the device records while executing steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceLevel {
    /// Utilization samples + cumulative per-kernel statistics (default).
    #[default]
    Stats,
    /// Everything in `Stats` plus per-step kernel/transfer/step events.
    Full,
}

/// One kernel's execution during one step (recorded at [`TraceLevel::Full`]).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelEvent {
    /// Index of the step this execution belongs to (0-based).
    pub step: u64,
    /// Clock value when the step (and hence this kernel) started.
    pub start_cycle: u64,
    /// Cycles this kernel ran: its own duration plus launch overhead,
    /// dilated by oversubscription, never exceeding the step's compute span.
    pub duration_cycles: u64,
    /// Kernel name (stage identity).
    pub name: String,
    /// Threads dedicated to the kernel this step.
    pub threads: u32,
    /// Useful cycles summed over the kernel's threads.
    pub busy_cycles: u64,
    /// Fraction of the kernel's allocated lane-cycles doing useful work
    /// during its own duration (SIMD divergence + partial waves), 0..=1.
    pub warp_occupancy: f64,
}

/// One host↔device transfer during one step (recorded at
/// [`TraceLevel::Full`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferEvent {
    /// Index of the step this transfer belongs to (0-based).
    pub step: u64,
    /// Clock value when the copy engine started on this transfer.
    pub start_cycle: u64,
    /// Cycles the copy engine spent on this transfer.
    pub duration_cycles: u64,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Transfer direction (selects the copy engine).
    pub dir: Dir,
    /// Whether the transfer was hidden behind compute: multi-stream was on
    /// and the whole engine's traffic fit inside the step's compute span.
    pub overlapped: bool,
}

/// Aggregate timing of one step (recorded at [`TraceLevel::Full`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepEvent {
    /// Step index (0-based).
    pub step: u64,
    /// Clock value when the step started.
    pub start_cycle: u64,
    /// Wall cycles of the whole step after the overlap policy.
    pub step_cycles: u64,
    /// Cycles the compute kernels occupied.
    pub compute_cycles: u64,
    /// Cycles the host→device copy engine occupied.
    pub h2d_cycles: u64,
    /// Cycles the device→host copy engine occupied.
    pub d2h_cycles: u64,
}

/// One Chrome-trace counter track: a named family of per-timestamp values
/// rendered as a stacked area chart beside the kernel timeline (phase
/// `"C"` events). Built by higher layers — e.g. the service flight
/// recorder's queue-depth and utilization series — and merged into the
/// device trace by [`crate::Gpu::chrome_trace_json_with_counters`].
///
/// Values are integers (counts, cycles, parts-per-million) so the export
/// stays byte-deterministic; `series` names the stacked components and
/// every point carries one value per series, in the same order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CounterTrack {
    /// Track name shown by the viewer (e.g. `service queue depth`).
    pub name: String,
    /// Names of the stacked series inside the track.
    pub series: Vec<String>,
    /// `(timestamp_cycle, values)` points; `values` aligns with `series`.
    pub points: Vec<(u64, Vec<u64>)>,
}

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes recorded events to Chrome-trace JSON (see module docs for the
/// track layout). Deterministic: same events → byte-identical output. Fault
/// events, when present, appear as instant (`"ph": "i"`) markers on a
/// dedicated `faults` track after the copy engines; counter tracks, when
/// present, append their phase-`"C"` events after everything else. Empty
/// fault and counter inputs are exact no-ops: the output is byte-identical
/// to an export without them.
pub(crate) fn chrome_trace_json(
    kernel_events: &[KernelEvent],
    transfer_events: &[TransferEvent],
    fault_events: &[FaultEvent],
    counter_tracks: &[CounterTrack],
) -> String {
    // Track ids: kernels by first appearance, then the two copy engines.
    let mut names: Vec<&str> = Vec::new();
    for e in kernel_events {
        if !names.iter().any(|n| *n == e.name) {
            names.push(&e.name);
        }
    }
    let h2d_tid = names.len() as u64 + 1;
    let d2h_tid = names.len() as u64 + 2;

    let mut events: Vec<String> = Vec::new();
    // Metadata: name each track.
    events.push(
        "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"batchzk device\"}}"
            .to_string(),
    );
    for (i, name) in names.iter().enumerate() {
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            i as u64 + 1,
            json_escape(name)
        ));
    }
    events.push(format!(
        "{{\"ph\":\"M\",\"pid\":0,\"tid\":{h2d_tid},\"name\":\"thread_name\",\
         \"args\":{{\"name\":\"copy-h2d\"}}}}"
    ));
    events.push(format!(
        "{{\"ph\":\"M\",\"pid\":0,\"tid\":{d2h_tid},\"name\":\"thread_name\",\
         \"args\":{{\"name\":\"copy-d2h\"}}}}"
    ));
    let fault_tid = d2h_tid + 1;
    if !fault_events.is_empty() {
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{fault_tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"faults\"}}}}"
        ));
    }

    for e in kernel_events {
        let tid = names.iter().position(|n| *n == e.name).expect("known") as u64 + 1;
        // warp occupancy in parts-per-million keeps the output integral and
        // therefore byte-deterministic across platforms.
        let occ_ppm = (e.warp_occupancy * 1e6).round() as u64;
        events.push(format!(
            "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\
             \"name\":\"{name}\",\"args\":{{\"step\":{step},\"threads\":{threads},\
             \"busy_cycles\":{busy},\"warp_occupancy_ppm\":{occ_ppm}}}}}",
            ts = e.start_cycle,
            dur = e.duration_cycles.max(1),
            name = json_escape(&e.name),
            step = e.step,
            threads = e.threads,
            busy = e.busy_cycles,
        ));
    }
    for e in transfer_events {
        let (tid, name) = match e.dir {
            Dir::HostToDevice => (h2d_tid, "h2d"),
            Dir::DeviceToHost => (d2h_tid, "d2h"),
        };
        events.push(format!(
            "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"dur\":{dur},\
             \"name\":\"{name}\",\"args\":{{\"step\":{step},\"bytes\":{bytes},\
             \"overlapped\":{overlapped}}}}}",
            ts = e.start_cycle,
            dur = e.duration_cycles.max(1),
            step = e.step,
            bytes = e.bytes,
            overlapped = e.overlapped,
        ));
    }

    for e in fault_events {
        let name = match &e.kernel {
            Some(k) => format!("{}:{}", e.kind.label(), k),
            None => e.kind.label(),
        };
        events.push(format!(
            "{{\"ph\":\"i\",\"pid\":0,\"tid\":{fault_tid},\"ts\":{ts},\"s\":\"t\",\
             \"name\":\"{name}\"}}",
            ts = e.at_cycle,
            name = json_escape(&name),
        ));
    }

    // Counter tracks (phase "C"): identified by name, no tid — the viewer
    // draws each as a stacked area chart under the duration tracks.
    for track in counter_tracks {
        let name = json_escape(&track.name);
        for (ts, values) in &track.points {
            let mut args = String::new();
            for (i, (series, value)) in track.series.iter().zip(values).enumerate() {
                if i > 0 {
                    args.push(',');
                }
                args.push_str(&format!("\"{}\":{}", json_escape(series), value));
            }
            events.push(format!(
                "{{\"ph\":\"C\",\"pid\":0,\"ts\":{ts},\"name\":\"{name}\",\
                 \"args\":{{{args}}}}}"
            ));
        }
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\ny");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn export_is_valid_and_ordered() {
        let kernels = vec![
            KernelEvent {
                step: 0,
                start_cycle: 0,
                duration_cycles: 10,
                name: "stage-a".into(),
                threads: 32,
                busy_cycles: 320,
                warp_occupancy: 1.0,
            },
            KernelEvent {
                step: 1,
                start_cycle: 10,
                duration_cycles: 5,
                name: "stage-b".into(),
                threads: 16,
                busy_cycles: 40,
                warp_occupancy: 0.5,
            },
        ];
        let transfers = vec![TransferEvent {
            step: 0,
            start_cycle: 0,
            duration_cycles: 3,
            bytes: 4096,
            dir: Dir::HostToDevice,
            overlapped: true,
        }];
        let json = chrome_trace_json(&kernels, &transfers, &[], &[]);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("stage-a"));
        assert!(json.contains("copy-h2d"));
        assert!(json.contains("\"warp_occupancy_ppm\":500000"));
        // No fault events -> no faults track.
        assert!(!json.contains("faults"));
        // Deterministic.
        assert_eq!(json, chrome_trace_json(&kernels, &transfers, &[], &[]));
        // Balanced braces/brackets as a cheap well-formedness check.
        let balance = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}') && balance('[', ']'));
    }

    #[test]
    fn fault_events_appear_on_their_own_track() {
        use crate::fault::{FaultEvent, FaultKind};
        let faults = vec![
            FaultEvent {
                at_cycle: 100,
                kind: FaultKind::FailStop,
                kernel: None,
            },
            FaultEvent {
                at_cycle: 40,
                kind: FaultKind::DropKernel { nth: 3 },
                kernel: Some("system-merkle".into()),
            },
        ];
        let json = chrome_trace_json(&[], &[], &faults, &[]);
        assert!(json.contains("\"name\":\"faults\""));
        assert!(json.contains("\"name\":\"fail\""));
        assert!(json.contains("\"name\":\"drop:3:system-merkle\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert_eq!(json, chrome_trace_json(&[], &[], &faults, &[]));
    }

    #[test]
    fn counter_tracks_render_as_phase_c_events() {
        let tracks = vec![
            CounterTrack {
                name: "service queue depth".into(),
                series: vec!["interactive".into(), "bulk".into()],
                points: vec![(0, vec![1, 4]), (100, vec![0, 2])],
            },
            CounterTrack {
                name: "utilization ppm d0".into(),
                series: vec!["busy".into()],
                points: vec![(0, vec![1_000_000])],
            },
        ];
        let json = chrome_trace_json(&[], &[], &[], &tracks);
        assert!(json.contains(
            "{\"ph\":\"C\",\"pid\":0,\"ts\":0,\"name\":\"service queue depth\",\
             \"args\":{\"interactive\":1,\"bulk\":4}}"
        ));
        assert!(json.contains("\"ts\":100"));
        assert!(json.contains("utilization ppm d0"));
        assert_eq!(json, chrome_trace_json(&[], &[], &[], &tracks));
        let balance = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}') && balance('[', ']'));
    }

    #[test]
    fn empty_counter_input_is_a_byte_exact_no_op() {
        let kernels = vec![KernelEvent {
            step: 0,
            start_cycle: 0,
            duration_cycles: 10,
            name: "stage-a".into(),
            threads: 32,
            busy_cycles: 320,
            warp_occupancy: 1.0,
        }];
        assert_eq!(
            chrome_trace_json(&kernels, &[], &[], &[]),
            chrome_trace_json(
                &kernels,
                &[],
                &[],
                &[CounterTrack {
                    name: "empty".into(),
                    series: vec!["v".into()],
                    points: Vec::new(),
                }]
            ),
            "a counter track with no points must not perturb the export"
        );
        assert!(!chrome_trace_json(&kernels, &[], &[], &[]).contains("\"ph\":\"C\""));
    }
}
