//! Deterministic open-loop arrival traces in virtual device time.
//!
//! The online proving service (DESIGN.md §13) is exercised with *open-loop*
//! load: request arrival times are fixed in advance, in virtual device-clock
//! cycles, and do not react to how fast the service drains them. A trace is
//! described by an [`ArrivalPlan`] — a list of generator segments with a
//! compact text grammar modelled on [`FaultPlan`](crate::FaultPlan)'s spec
//! format — and expanded to a concrete, sorted list of [`Arrival`]s by
//! [`ArrivalPlan::expand`].
//!
//! Everything is exact: seeds are part of the spec, the Poisson sampler uses
//! a software logarithm built from `+ - * /` only (every operation is
//! IEEE-754 correctly rounded, so expansion is bit-identical on any
//! platform), and expansion never consults the wall clock. The same spec
//! string therefore always yields the same arrival list, which is what makes
//! the BENCH.json `service` section byte-deterministic.
//!
//! # Grammar
//!
//! Comma-separated segments, each `<class>[/<backend>]@<cycle>:<kind>`:
//!
//! | segment | meaning |
//! |---------|---------|
//! | `<class>@<cycle>:one` | a single arrival at an explicit cycle |
//! | `<class>@<cycle>:poisson:<gap>:<count>:<seed>` | `count` Poisson arrivals from `cycle`, mean inter-arrival `gap` cycles |
//! | `<class>@<cycle>:onoff:<gap>:<count>:<seed>:<on>:<off>` | the same Poisson process gated by an on/off duty cycle: arrivals only land inside `on`-cycle windows separated by `off`-cycle silences |
//!
//! `class` is a lowercase label (`[a-z0-9_-]+`) the service layer maps to a
//! priority class. It may carry an optional `/<backend>` suffix (same
//! charset) naming the prover backend the request targets — e.g.
//! `interactive/groth16@0:one`; without a suffix the service's default
//! backend applies. The simulator treats both as opaque labels; the CLI
//! layer validates backend names. Whitespace around segments is ignored;
//! an empty spec is the empty plan. [`ArrivalPlan::spec`] renders the plan
//! back to this grammar, and `parse(spec()) == plan` round-trips.
//!
//! ```
//! use batchzk_gpu_sim::ArrivalPlan;
//!
//! let plan = ArrivalPlan::parse(
//!     "interactive@0:poisson:5000:8:1, bulk@0:onoff:2000:8:2:40000:80000",
//! )
//! .unwrap();
//! let arrivals = plan.expand();
//! assert_eq!(arrivals.len(), 16);
//! assert!(arrivals.windows(2).all(|w| w[0].at_cycle <= w[1].at_cycle));
//! assert_eq!(ArrivalPlan::parse(&plan.spec()).unwrap(), plan);
//! ```

use std::fmt;

/// One request arrival: a priority-class label and the virtual device-clock
/// cycle the request reaches the service front.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Priority-class label from the generating segment (e.g.
    /// `"interactive"`). The service layer maps it to a priority class.
    pub class: String,
    /// Prover-backend label from the generating segment, if the segment
    /// named one (`class/backend` in the spec); `None` means the service's
    /// default backend.
    pub backend: Option<String>,
    /// Virtual device-clock cycle of the arrival.
    pub at_cycle: u64,
}

/// The arrival process one [`ArrivalSegment`] generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalKind {
    /// A single arrival at the segment's start cycle.
    One,
    /// A seeded Poisson process: exponential inter-arrival gaps with the
    /// given mean, starting at the segment's start cycle.
    Poisson {
        /// Mean inter-arrival gap in cycles (> 0).
        mean_gap: u64,
        /// Number of arrivals to generate.
        count: u32,
        /// Seed for the per-segment deterministic RNG.
        seed: u64,
    },
    /// A bursty on/off-modulated Poisson process: the same exponential gaps,
    /// but time only advances inside `on`-cycle windows; each window is
    /// followed by `off` cycles of silence.
    OnOff {
        /// Mean inter-arrival gap in cycles (> 0) while "on".
        mean_gap: u64,
        /// Number of arrivals to generate.
        count: u32,
        /// Seed for the per-segment deterministic RNG.
        seed: u64,
        /// Width of each "on" window in cycles (> 0).
        on: u64,
        /// Width of each "off" silence in cycles.
        off: u64,
    },
}

impl ArrivalKind {
    fn label(&self) -> String {
        match self {
            ArrivalKind::One => "one".into(),
            ArrivalKind::Poisson {
                mean_gap,
                count,
                seed,
            } => format!("poisson:{mean_gap}:{count}:{seed}"),
            ArrivalKind::OnOff {
                mean_gap,
                count,
                seed,
                on,
                off,
            } => format!("onoff:{mean_gap}:{count}:{seed}:{on}:{off}"),
        }
    }
}

/// One generator segment: a class label, a start cycle, and a process kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalSegment {
    /// Priority-class label stamped on every arrival this segment emits.
    pub class: String,
    /// Optional prover-backend label stamped on every arrival this segment
    /// emits; `None` means the service's default backend.
    pub backend: Option<String>,
    /// Virtual cycle the process starts at.
    pub start_cycle: u64,
    /// The arrival process.
    pub kind: ArrivalKind,
}

/// A deterministic open-loop arrival trace: an ordered list of generator
/// segments with a compact text spec grammar (see [`ArrivalPlan::parse`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ArrivalPlan {
    segments: Vec<ArrivalSegment>,
}

impl ArrivalPlan {
    /// An empty plan (no arrivals).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a single arrival of `class` at `cycle`. As in the spec grammar,
    /// `class` may carry a `/<backend>` suffix.
    pub fn one(mut self, class: &str, cycle: u64) -> Self {
        let (class, backend) = split_token(class);
        self.segments.push(ArrivalSegment {
            class,
            backend,
            start_cycle: cycle,
            kind: ArrivalKind::One,
        });
        self
    }

    /// The segments, in insertion order.
    #[cfg(test)]
    fn segments(&self) -> &[ArrivalSegment] {
        &self.segments
    }

    /// True when the plan generates no arrivals.
    pub fn is_empty(&self) -> bool {
        self.expand().is_empty()
    }

    /// The distinct class labels, in order of first appearance.
    #[cfg(test)]
    fn classes(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for s in &self.segments {
            if !out.contains(&s.class) {
                out.push(s.class.clone());
            }
        }
        out
    }

    /// The distinct backend labels explicitly named by segments, in order
    /// of first appearance (segments without a suffix contribute nothing).
    /// The CLI layer validates these against the prover-backend registry.
    pub fn backends(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for s in &self.segments {
            if let Some(b) = &s.backend {
                if !out.contains(b) {
                    out.push(b.clone());
                }
            }
        }
        out
    }

    /// Parses the compact text spec: comma-separated segments of the form
    /// `<class>@<cycle>:one`,
    /// `<class>@<cycle>:poisson:<gap>:<count>:<seed>`, or
    /// `<class>@<cycle>:onoff:<gap>:<count>:<seed>:<on>:<off>`, where
    /// `class` is a lowercase label (`[a-z0-9_-]+`), optionally suffixed
    /// `/<backend>` (same charset) to target a specific prover backend.
    /// Whitespace around segments is ignored; an empty spec is the empty
    /// plan.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the malformed segment.
    pub fn parse(spec: &str) -> Result<ArrivalPlan, String> {
        let mut plan = ArrivalPlan::new();
        for raw in spec.split(',') {
            let entry = raw.trim();
            if entry.is_empty() {
                continue;
            }
            let err = || format!("malformed arrival segment `{entry}`");
            let (target, action) = entry.split_once(':').ok_or_else(err)?;
            let (token, cycle) = target.split_once('@').ok_or_else(err)?;
            let label_ok = |s: &str| {
                !s.is_empty()
                    && s.chars().all(|c| {
                        c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-'
                    })
            };
            let (class, backend) = split_token(token.trim());
            if !label_ok(&class) || backend.as_deref().is_some_and(|b| !label_ok(b)) {
                return Err(err());
            }
            let start_cycle: u64 = cycle.trim().parse().map_err(|_| err())?;
            let fields: Vec<&str> = action.split(':').map(str::trim).collect();
            let num = |s: &str| -> Result<u64, String> { s.parse::<u64>().map_err(|_| err()) };
            let kind = match fields.as_slice() {
                ["one"] => ArrivalKind::One,
                ["poisson", gap, count, seed] => ArrivalKind::Poisson {
                    mean_gap: positive(num(gap)?, err)?,
                    count: u32::try_from(num(count)?).map_err(|_| err())?,
                    seed: num(seed)?,
                },
                ["onoff", gap, count, seed, on, off] => ArrivalKind::OnOff {
                    mean_gap: positive(num(gap)?, err)?,
                    count: u32::try_from(num(count)?).map_err(|_| err())?,
                    seed: num(seed)?,
                    on: positive(num(on)?, err)?,
                    off: num(off)?,
                },
                _ => return Err(err()),
            };
            plan.segments.push(ArrivalSegment {
                class,
                backend,
                start_cycle,
                kind,
            });
        }
        Ok(plan)
    }

    /// Renders the plan back to the [`parse`](Self::parse) spec format.
    pub fn spec(&self) -> String {
        self.segments
            .iter()
            .map(|s| {
                let token = match &s.backend {
                    Some(b) => format!("{}/{b}", s.class),
                    None => s.class.clone(),
                };
                format!("{token}@{}:{}", s.start_cycle, s.kind.label())
            })
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Expands the plan to the concrete arrival list, sorted by cycle
    /// (ties broken by segment insertion order, then emission order).
    /// Expansion is pure integer/IEEE arithmetic seeded from the spec, so
    /// the same plan always yields the same list, on any platform.
    pub fn expand(&self) -> Vec<Arrival> {
        let mut out: Vec<(u64, usize, Arrival)> = Vec::new();
        for (seg_idx, seg) in self.segments.iter().enumerate() {
            let emit = |out: &mut Vec<(u64, usize, Arrival)>, at_cycle: u64| {
                out.push((
                    at_cycle,
                    seg_idx,
                    Arrival {
                        class: seg.class.clone(),
                        backend: seg.backend.clone(),
                        at_cycle,
                    },
                ));
            };
            match seg.kind {
                ArrivalKind::One => emit(&mut out, seg.start_cycle),
                ArrivalKind::Poisson {
                    mean_gap,
                    count,
                    seed,
                } => {
                    let mut rng = SplitMix64(seed);
                    let mut t = seg.start_cycle;
                    for _ in 0..count {
                        t = t.saturating_add(exp_gap(&mut rng, mean_gap));
                        emit(&mut out, t);
                    }
                }
                ArrivalKind::OnOff {
                    mean_gap,
                    count,
                    seed,
                    on,
                    off,
                } => {
                    let mut rng = SplitMix64(seed);
                    // Active time: cycles elapsed inside "on" windows only.
                    let mut active = 0u64;
                    for _ in 0..count {
                        active = active.saturating_add(exp_gap(&mut rng, mean_gap));
                        // Map active time to wall time through the duty
                        // cycle: each full `on` window costs `on + off`.
                        let wall = (active / on).saturating_mul(on + off) + (active % on);
                        emit(&mut out, seg.start_cycle.saturating_add(wall));
                    }
                }
            }
        }
        out.sort_by_key(|(cycle, seg, _)| (*cycle, *seg));
        out.into_iter().map(|(_, _, a)| a).collect()
    }
}

impl fmt::Display for ArrivalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.spec())
    }
}

/// Splits a `class[/backend]` token into its parts (first `/` wins; the
/// parser rejects backends that themselves contain `/`).
fn split_token(token: &str) -> (String, Option<String>) {
    match token.split_once('/') {
        Some((class, backend)) => (class.into(), Some(backend.into())),
        None => (token.into(), None),
    }
}

fn positive(v: u64, err: impl Fn() -> String) -> Result<u64, String> {
    if v == 0 {
        Err(err())
    } else {
        Ok(v)
    }
}

/// SplitMix64; duplicated privately because this crate has no deps.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Samples an exponential inter-arrival gap with the given mean via inverse
/// transform: `gap = -ln(u) * mean` with `u` uniform in `(0, 1]`.
fn exp_gap(rng: &mut SplitMix64, mean_gap: u64) -> u64 {
    // 53 random bits, shifted into (0, 1]: never zero, never subnormal.
    let u = ((rng.next() >> 11) + 1) as f64 / (1u64 << 53) as f64;
    (-det_ln(u) * mean_gap as f64).round() as u64
}

/// Software natural logarithm for `x` in `(0, 1]` using only `+ - * /` —
/// every operation is IEEE-754 correctly rounded, so the result is
/// bit-identical on any platform (libm's `ln` is not guaranteed to be).
///
/// Decomposes `x = m * 2^e` with `m` in `[0.5, 1)`, then
/// `ln(m) = 2 * atanh((m - 1) / (m + 1))` by its Taylor series, which
/// converges fast because `|z| <= 1/3` on that interval.
fn det_ln(x: f64) -> f64 {
    debug_assert!(x > 0.0 && x <= 1.0);
    if x == 1.0 {
        // The decomposition below writes 1.0 as 0.5 * 2^1, which leaves a
        // 1-ulp series residue; ln(1) = 0 is exactly representable.
        return 0.0;
    }
    let bits = x.to_bits();
    let e = ((bits >> 52) & 0x7ff) as i64 - 1022; // x = m * 2^e, m in [0.5, 1)
    let m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | (1022u64 << 52));
    let z = (m - 1.0) / (m + 1.0);
    let z2 = z * z;
    let mut term = z;
    let mut atanh = z;
    for k in 1..20 {
        term *= z2;
        atanh += term / (2 * k + 1) as f64;
    }
    e as f64 * std::f64::consts::LN_2 + 2.0 * atanh
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_ln_matches_libm() {
        // Sanity only: on this platform the software log should agree with
        // libm to ~1 ulp over the sampler's input range.
        let mut rng = SplitMix64(7);
        for _ in 0..10_000 {
            let u = ((rng.next() >> 11) + 1) as f64 / (1u64 << 53) as f64;
            let got = det_ln(u);
            let want = u.ln();
            assert!(
                (got - want).abs() <= want.abs() * 1e-15 + 1e-15,
                "ln({u}) = {got}, libm {want}"
            );
        }
        assert_eq!(det_ln(1.0), 0.0);
    }

    #[test]
    fn poisson_mean_gap_is_close() {
        let plan = ArrivalPlan::parse("standard@0:poisson:10000:4000:42").unwrap();
        let arrivals = plan.expand();
        assert_eq!(arrivals.len(), 4000);
        let last = arrivals.last().unwrap().at_cycle;
        let mean = last as f64 / 4000.0;
        assert!(
            (mean - 10_000.0).abs() < 600.0,
            "empirical mean gap {mean} far from 10000"
        );
    }

    #[test]
    fn onoff_arrivals_respect_duty_cycle() {
        let (on, off) = (5_000u64, 20_000u64);
        let plan = ArrivalPlan::parse(&format!("bulk@1000:onoff:500:64:3:{on}:{off}")).unwrap();
        for a in plan.expand() {
            let phase = (a.at_cycle - 1_000) % (on + off);
            assert!(phase <= on, "arrival at phase {phase} inside off window");
        }
    }

    #[test]
    fn spec_round_trips() {
        let plan = ArrivalPlan::parse(
            "interactive@17:one, standard@0:poisson:9000:32:11, \
             bulk@250000:onoff:2000:64:12:40000:80000",
        )
        .unwrap();
        let spec = plan.spec();
        assert_eq!(
            spec,
            "interactive@17:one,standard@0:poisson:9000:32:11,\
             bulk@250000:onoff:2000:64:12:40000:80000"
        );
        let reparsed = ArrivalPlan::parse(&spec).unwrap();
        assert_eq!(reparsed, plan);
        assert_eq!(reparsed.expand(), plan.expand());
        assert_eq!(format!("{plan}"), spec);
    }

    #[test]
    fn expansion_is_deterministic_and_sorted() {
        let plan = ArrivalPlan::parse(
            "interactive@0:poisson:5000:50:1,standard@0:poisson:7000:50:2,bulk@0:onoff:1000:50:3:30000:60000",
        )
        .unwrap();
        let a = plan.expand();
        let b = plan.expand();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].at_cycle <= w[1].at_cycle));
        assert_eq!(a.len(), 150);
        // Different seed, different trace.
        let other = ArrivalPlan::parse("interactive@0:poisson:5000:50:9").unwrap();
        assert_ne!(other.expand()[..], a[..]);
    }

    #[test]
    fn whitespace_and_empty_specs() {
        assert_eq!(ArrivalPlan::parse("").unwrap(), ArrivalPlan::new());
        assert_eq!(ArrivalPlan::parse(" , ,, ").unwrap(), ArrivalPlan::new());
        let plan = ArrivalPlan::parse("  interactive@5:one ,bulk@0:poisson:100:2:7 ").unwrap();
        assert_eq!(plan.segments().len(), 2);
    }

    #[test]
    fn malformed_specs_are_rejected() {
        for bad in [
            "interactive@5",                    // no kind
            "interactive:one",                  // no @cycle
            "Interactive@5:one",                // uppercase class
            "@5:one",                           // empty class
            "interactive@x:one",                // bad cycle
            "interactive@5:two",                // unknown kind
            "interactive@5:poisson:100:2",      // missing seed
            "interactive@5:poisson:0:2:7",      // zero mean gap
            "interactive@5:onoff:100:2:7:0:50", // zero on-window
            "interactive@5:onoff:100:2:7:50",   // missing off
            "interactive@5:poisson:100:2:7:9",  // trailing field
            "interactive/@5:one",               // empty backend
            "/groth16@5:one",                   // empty class with backend
            "interactive/Groth@5:one",          // uppercase backend
            "interactive/a/b@5:one",            // nested slash
            // Counts are u32: 2^32 + 1 used to truncate to one arrival.
            "interactive@5:poisson:10:4294967297:1",
            "interactive@5:onoff:10:4294967296:1:5:5",
        ] {
            let err = ArrivalPlan::parse(bad).unwrap_err();
            assert!(err.contains("malformed arrival segment"), "{bad}: {err}");
        }
    }

    #[test]
    fn backend_suffix_round_trips_and_stamps_arrivals() {
        let plan = ArrivalPlan::parse(
            "interactive@0:poisson:100:4:1, interactive/groth16@0:poisson:100:4:2,\
             bulk/sumcheck@5:one",
        )
        .unwrap();
        assert_eq!(plan.classes(), ["interactive", "bulk"]);
        assert_eq!(plan.backends(), ["groth16", "sumcheck"]);
        assert_eq!(ArrivalPlan::parse(&plan.spec()).unwrap(), plan);
        let arrivals = plan.expand();
        assert_eq!(arrivals.len(), 9);
        let tagged = arrivals
            .iter()
            .filter(|a| a.backend.as_deref() == Some("groth16"))
            .count();
        assert_eq!(tagged, 4);
        assert!(arrivals
            .iter()
            .filter(|a| a.backend.is_none())
            .all(|a| a.class == "interactive"));
        // Builder path splits the same token grammar.
        let built = ArrivalPlan::new().one("bulk/sumcheck", 5);
        assert_eq!(built.segments()[0].backend.as_deref(), Some("sumcheck"));
        assert_eq!(built.spec(), "bulk/sumcheck@5:one");
    }

    #[test]
    fn classes_lists_first_appearance_order() {
        let plan =
            ArrivalPlan::parse("bulk@0:one,interactive@1:one,bulk@2:one,standard@3:one").unwrap();
        assert_eq!(plan.classes(), ["bulk", "interactive", "standard"]);
        assert!(!plan.is_empty());
        assert!(ArrivalPlan::new().is_empty());
    }
}
