//! The pipelined Groth16-style NTT+MSM backend.
//!
//! The Groth16-style "old protocol" existed in this codebase only as an
//! analytic timing baseline (`bench::baseline`); here it becomes a
//! first-class pipelined prover whose stages run the *real*
//! [`batchzk_field::NttDomain`] and [`batchzk_curve::MsmBases`] (Pippenger)
//! computation while charging the gpu-sim cost model with the same
//! per-proof operation counts the baseline uses ([`MSM_COUNT`] MSMs,
//! [`NTT_COUNT`] size-`2S` NTTs, [`BYTES_PER_CONSTRAINT`] resident bytes
//! per constraint):
//!
//! 1. **witness-ntt** — interpolate the three gate polynomials `A, B, C`
//!    (three inverse NTTs of size `n`) and lift `A, B` onto the double
//!    domain (two forward NTTs of size `2n`);
//! 2. **quotient** — pointwise-multiply on the double domain, inverse-NTT
//!    back, and fold-divide by the vanishing polynomial `x^n − 1`
//!    (asserting a zero remainder — the witness must satisfy the gates);
//! 3. **msm-bucket** — the commitments to `A, B, C, h`: four real G1
//!    MSMs, run whole on the host over the circuit's fixed-base table
//!    ([`batchzk_curve::MsmBases`]: the bases are the same for every proof
//!    of the batch, so their window shifts are computed once per circuit
//!    and a commitment is one bucket pass) and charged as [`MSM_COUNT`]
//!    G1-equivalents of bucket accumulation (the uncomputed fifth stands
//!    in for the G2 half);
//! 4. **msm-reduce** — on the host only normalises the four commitments,
//!    derives `r` from them (Fiat–Shamir) and emits the evaluation proof;
//!    it is charged the per-window running-sum reduction on top.
//!
//! The bucket / reduce split of stages 3 and 4 is the *modelled* device
//! split, not where the host spends its time. The modelled operation count
//! ([`msm_group_op_count`] over [`window_size`]: textbook unsigned-window
//! Pippenger) and the host algorithm (signed windows, batch-affine
//! buckets, stored shifts, its own window ladders) differ on purpose until
//! the cost model is re-derived from counted operations (ROADMAP item 5,
//! "One operation count, two clocks"): re-tuning the modelled ladder for
//! the host would silently move every `sim_*` number. The table's
//! residency ([`MsmBases::table_bytes_for`] the circuit's size) is likewise not
//! yet part of `mem_after`.
//!
//! Between stages a task owns one `TaskState` variant — exactly what the
//! later stages read — and stage 1 reads the instance only, so a
//! fault-recovery replay restarts a salvaged task there (DESIGN.md §15,
//! "Task state").
//!
//! Stages overlap their H2D/D2H transfers with compute when the pipeline
//! runs multi-stream (double-buffering), exactly like the sumcheck system.
//! [`run_stages_naive`](crate::naive::run_stages_naive) is the
//! kernel-per-task contrast: the same four stages walked serially per task
//! group, no cross-stage overlap.
//!
//! The proof is *structural*: commitments and quotient are real
//! computation, but without pairings the verifier checks the divisibility
//! identity `A(r)·B(r) − C(r) = h(r)·(r^n − 1)` at a transcript-derived
//! point against prover-supplied evaluations, rather than a pairing
//! equation. That is sufficient for this simulator's purpose — identical
//! arithmetic workload and byte-deterministic outputs — and is documented
//! here so nobody mistakes it for a sound SNARK.

use std::sync::{Arc, OnceLock};

use batchzk_curve::{msm_group_op_count, window_size, G1Affine, G1Projective, MsmBases};
use batchzk_field::{Field, Fr, NttDomain, SplitMix64};
use batchzk_gpu_sim::{CostModel, Gpu, Work};
use batchzk_hash::Transcript;

use crate::backend::{check_len, ProverBackend};
use crate::engine::{allocate_threads, BoxedStage, PipeStage, StageWork};

/// G1-equivalent MSMs in one Groth16 proof (three in G1, one in G2 ≈ two
/// G1-equivalents).
pub const MSM_COUNT: u64 = 5;
/// NTT transforms (of size `2S`) in one Groth16 proof.
pub const NTT_COUNT: u64 = 7;
/// Modeled device bytes per constraint for a resident Groth16 proving run
/// (witness + bases + FFT buffers + proving key), calibrated against the
/// paper's Table 10 (1.38 GB at `S = 2^20` ⇒ ~1.4 KB per constraint). The
/// host's fixed-base table ([`MsmBases::table_bytes_for`] the circuit size:
/// 2 304 bytes per constraint at `2^8`, 1 584 at `2^12`, shared by the
/// whole batch) is not in it.
pub const BYTES_PER_CONSTRAINT: u64 = 1400;

/// Fiat–Shamir domain separator for the Groth16-style transcript.
pub const DOMAIN: &[u8] = b"batchzk-groth16-v1";

/// Number of leading witness values exposed as the public statement.
const PUBLIC_LEN: usize = 4;

/// The shared circuit: a cyclic multiplication relation of `2^log_size`
/// gates. Gate `i` takes left input `w_i`, right input `w_{(i+1) mod n}`,
/// and must output their product — so the gate polynomials satisfy
/// `A·B − C ≡ 0` on the evaluation domain for *every* witness, and the
/// quotient by `x^n − 1` is exact. This keeps the prover's arithmetic
/// identical in shape to a real Groth16 R1CS run without carrying a
/// constraint system.
pub struct GrothCircuit {
    log_size: u32,
    domain: NttDomain<Fr>,
    ext_domain: NttDomain<Fr>,
    /// The commitment key as a fixed-base table, built by the first proof:
    /// callers after the shape alone (the backend's module weights and
    /// footprint) never pay for it.
    key: OnceLock<MsmBases>,
}

impl GrothCircuit {
    /// Creates a circuit of `2^log_size` gates with deterministic
    /// commitment bases.
    ///
    /// # Panics
    ///
    /// Panics if `log_size + 1` exceeds the scalar field's two-adicity
    /// (the quotient works on a domain of size `2^(log_size + 1)`).
    pub fn new(log_size: u32) -> Self {
        Self {
            log_size,
            domain: NttDomain::new(log_size),
            ext_domain: NttDomain::new(log_size + 1),
            key: OnceLock::new(),
        }
    }

    /// The deterministic commitment bases with their window shifts, built
    /// once per circuit and shared by every proof of every batch.
    fn key(&self) -> &MsmBases {
        self.key.get_or_init(|| {
            let bases: Vec<G1Affine> = (1..=self.size() as u64)
                .map(G1Affine::from_counter)
                .collect();
            MsmBases::new(&bases)
        })
    }

    /// Bytes of the fixed-base table the commitments run over. On a device
    /// it would be resident next to [`BYTES_PER_CONSTRAINT`] per
    /// constraint for as long as the circuit is served; the simulator does
    /// **not** charge it yet (ROADMAP item 5), so only the tests read it.
    #[cfg(test)]
    fn fixed_base_table_bytes(&self) -> usize {
        MsmBases::table_bytes_for(self.size())
    }

    /// Number of gates.
    pub fn size(&self) -> usize {
        1 << self.log_size
    }

    /// log2 of the gate count.
    fn log_size(&self) -> u32 {
        self.log_size
    }

    /// Deterministically generates a witness for this circuit from `seed`
    /// (any vector of `n` scalars satisfies the cyclic relation).
    pub fn witness(&self, seed: u64) -> Vec<Fr> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        (0..self.size()).map(|_| Fr::random(&mut rng)).collect()
    }

    /// Real butterfly count of stage 1: three inverse size-`n` NTTs plus
    /// two forward size-`2n` NTTs.
    fn stage1_butterflies(&self) -> u64 {
        let n = self.size() as u64;
        let log_n = self.log_size as u64;
        3 * (n / 2) * log_n + 2 * n * (log_n + 1)
    }

    /// The baseline's total NTT budget for one proof: [`NTT_COUNT`]
    /// transforms of size `2n`, `n·(log n + 1)` butterflies each.
    fn ntt_budget(&self) -> u64 {
        let n = self.size() as u64;
        n * (self.log_size as u64 + 1) * NTT_COUNT
    }
}

/// A Groth16-style proof-in-progress moving through the four stages: the
/// instance, which the witness-ntt stage reads (again, when a
/// fault-recovery replay restarts the task there), and the state the last
/// stage left. [`GrothBackend`]'s `begin` and `finish` are the way in and
/// out.
pub struct GrothTask {
    witness: Vec<Fr>,
    statement: Vec<Fr>,
    state: TaskState,
}

/// What a task owns between two stages: each variant holds exactly what
/// the later stages read, so a buffer is freed by the transition after its
/// last reader.
enum TaskState {
    /// Submitted, or salvaged for a replay.
    Fresh,
    /// After witness-ntt: the coefficients of `A, B, C` and the
    /// evaluations of `A, B` on the double domain.
    Transformed {
        coeffs: [Vec<Fr>; 3],
        ext_evals: [Vec<Fr>; 2],
    },
    /// After the quotient, the last reader of the double-domain
    /// evaluations: the coefficients of `A, B, C` and of `h`.
    Divided {
        coeffs: [Vec<Fr>; 3],
        h: Vec<Fr>,
    },
    /// After msm-bucket: the projective commitments to `A, B, C, h` too.
    Committed {
        coeffs: [Vec<Fr>; 3],
        h: Vec<Fr>,
        commitments: [G1Projective; 4],
    },
    Done(GrothProof),
}

/// A finished Groth16-style proof: commitments to the gate polynomials
/// and quotient, plus their evaluations at the transcript point `r`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrothProof {
    /// Commitment to `A`.
    pub com_a: G1Affine,
    /// Commitment to `B`.
    pub com_b: G1Affine,
    /// Commitment to `C`.
    pub com_c: G1Affine,
    /// Commitment to the quotient `h`.
    pub com_h: G1Affine,
    /// `A(r)`.
    pub eval_a: Fr,
    /// `B(r)`.
    pub eval_b: Fr,
    /// `C(r)`.
    pub eval_c: Fr,
    /// `h(r)`.
    pub eval_h: Fr,
}

impl GrothProof {
    /// Serialized size: four uncompressed G1 points and four scalars.
    pub fn size_bytes(&self) -> usize {
        4 * 64 + 4 * 32
    }
}

fn absorb_point(transcript: &mut Transcript, label: &[u8], p: &G1Affine) {
    transcript.absorb_field(label, &p.x);
    transcript.absorb_field(label, &p.y);
    transcript.absorb_bytes(label, &[p.infinity as u8]);
}

/// Derives the evaluation challenge `r` from the statement and
/// commitments — shared between prover stage 4 and the verifier.
fn challenge_point(statement: &[Fr], proof_points: [&G1Affine; 4]) -> Fr {
    let mut transcript = Transcript::new(DOMAIN);
    transcript.absorb_fields(b"statement", statement);
    let labels: [&[u8]; 4] = [b"com-a", b"com-b", b"com-c", b"com-h"];
    for (label, point) in labels.iter().zip(proof_points) {
        absorb_point(&mut transcript, label, point);
    }
    transcript.challenge_field::<Fr>(b"eval-point")
}

/// Horner evaluation of a coefficient vector at `x`.
fn horner(coeffs: &[Fr], x: Fr) -> Fr {
    coeffs.iter().rev().fold(Fr::ZERO, |acc, c| acc * x + *c)
}

/// The four stages' kernel names, in pipeline order.
const STAGE_NAMES: [&str; 4] = [
    "groth-witness-ntt",
    "groth-quotient",
    "groth-msm-bucket",
    "groth-msm-reduce",
];

/// Stage `k` of the four on one device.
struct GrothStage {
    k: usize,
    threads: u32,
    circuit: Arc<GrothCircuit>,
    cost: CostModel,
}

impl PipeStage<GrothTask> for GrothStage {
    fn name(&self) -> String {
        STAGE_NAMES[self.k].into()
    }
    fn threads(&self) -> u32 {
        self.threads
    }
    /// The task's state machine (DESIGN.md §15, "Task state"): arm `(0, _)`
    /// is the replay entry, the last arm the one out-of-order panic.
    fn process(&self, task: &mut GrothTask) -> StageWork {
        use TaskState::*;
        let (next, work) = match (self.k, std::mem::replace(&mut task.state, Fresh)) {
            (0, _) => self.witness_ntt(&task.witness),
            (1, Transformed { coeffs, ext_evals }) => self.quotient(coeffs, ext_evals),
            (2, Divided { coeffs, h }) => self.msm_bucket(coeffs, h),
            (
                3,
                Committed {
                    coeffs,
                    h,
                    commitments,
                },
            ) => self.msm_reduce(&task.statement, coeffs, h, commitments),
            _ => panic!(
                "{} ran on a task the stage before it had not processed",
                self.name()
            ),
        };
        task.state = next;
        work
    }
    fn naive_phases(&self, _task: &GrothTask) -> Option<Vec<Work>> {
        Some(match self.k {
            0 => self.witness_ntt_naive(),
            1 => self.quotient_naive(),
            2 => self.msm_bucket_naive(),
            _ => self.msm_reduce_naive(),
        })
    }
}

impl GrothStage {
    /// Stage 1: interpolate `A, B, C` and lift `A, B` to the double domain.
    fn witness_ntt(&self, witness: &[Fr]) -> (TaskState, StageWork) {
        let c = &self.circuit;
        let n = c.size();
        let a_evals = witness.to_vec();
        // Right inputs: the witness rotated left by one (cyclic gates).
        let mut b_evals = witness.to_vec();
        b_evals.rotate_left(1);
        let c_evals: Vec<Fr> = a_evals.iter().zip(&b_evals).map(|(x, y)| *x * *y).collect();
        let mut coeffs = [a_evals, b_evals, c_evals];
        for v in coeffs.iter_mut() {
            c.domain.inverse(v);
        }
        let mut ext_evals = [coeffs[0].clone(), coeffs[1].clone()];
        for v in ext_evals.iter_mut() {
            v.resize(2 * n, Fr::ZERO);
            c.ext_domain.forward(v);
        }
        let work = StageWork {
            work: Work::Uniform {
                units: c.stage1_butterflies().max(1),
                cycles_per_unit: self.cost.ntt_butterfly(),
            },
            // Dynamic loading: this proof's witness arrives now.
            h2d_bytes: (n * 32) as u64,
            d2h_bytes: 0,
            mem_after: (9 * n * 32) as u64,
        };
        (TaskState::Transformed { coeffs, ext_evals }, work)
    }

    fn witness_ntt_naive(&self) -> Vec<Work> {
        // One kernel step per NTT level: three size-n inverse transforms
        // then two size-2n forward transforms. Late levels at small n
        // leave most of a kernel-per-task thread slice idle.
        let c = &self.circuit;
        let n = c.size() as u64;
        let log_n = c.log_size();
        let mut phases = Vec::new();
        for _ in 0..3 {
            for _ in 0..log_n {
                phases.push(Work::Uniform {
                    units: (n / 2).max(1),
                    cycles_per_unit: self.cost.ntt_butterfly(),
                });
            }
        }
        for _ in 0..2 {
            for _ in 0..=log_n {
                phases.push(Work::Uniform {
                    units: n.max(1),
                    cycles_per_unit: self.cost.ntt_butterfly(),
                });
            }
        }
        phases
    }

    /// Stage 2: pointwise product on the double domain, inverse NTT, and
    /// the exact fold-division by `x^n − 1`.
    fn quotient(
        &self,
        coeffs: [Vec<Fr>; 3],
        [a_ext, b_ext]: [Vec<Fr>; 2],
    ) -> (TaskState, StageWork) {
        let c = &self.circuit;
        let n = c.size();
        let mut p: Vec<Fr> = a_ext.iter().zip(&b_ext).map(|(x, y)| *x * *y).collect();
        c.ext_domain.inverse(&mut p);
        for (pi, ci) in p.iter_mut().zip(&coeffs[2]) {
            *pi -= *ci;
        }
        // Divide by x^n − 1: x^i = x^(i−n)·(x^n − 1) + x^(i−n) for i ≥ n.
        let mut h = vec![Fr::ZERO; n];
        for i in (n..2 * n).rev() {
            h[i - n] = p[i];
            let carry = p[i];
            p[i - n] += carry;
        }
        assert!(
            p[..n].iter().all(|r| *r == Fr::ZERO),
            "witness does not satisfy the gate relation"
        );
        let work = StageWork {
            work: Work::Uniform {
                units: quotient_units(&self.cost, c).max(1),
                cycles_per_unit: self.cost.ntt_butterfly(),
            },
            h2d_bytes: 0,
            d2h_bytes: 0,
            mem_after: (5 * n * 32) as u64,
        };
        (TaskState::Divided { coeffs, h }, work)
    }

    fn quotient_naive(&self) -> Vec<Work> {
        // Pointwise products, then the remaining transform budget walked
        // level by level (size-2n levels).
        let c = &self.circuit;
        let n = c.size() as u64;
        let mut phases = vec![Work::Uniform {
            units: 2 * n,
            cycles_per_unit: self.cost.field_mul,
        }];
        let rest = c.ntt_budget().saturating_sub(c.stage1_butterflies());
        for _ in 0..rest.div_ceil(n.max(1)) {
            phases.push(Work::Uniform {
                units: n.max(1),
                cycles_per_unit: self.cost.ntt_butterfly(),
            });
        }
        phases
    }

    /// Stage 3: the four real commitment MSMs over the circuit's table,
    /// charged as Pippenger bucket accumulation on the modelled device
    /// kernel.
    fn msm_bucket(&self, coeffs: [Vec<Fr>; 3], h: Vec<Fr>) -> (TaskState, StageWork) {
        let c = &self.circuit;
        let n = c.size();
        let vectors: [&[Fr]; 4] = [&coeffs[0], &coeffs[1], &coeffs[2], &h];
        let commitments = c.key().msm_each(vectors);
        let work = StageWork {
            work: Work::Uniform {
                units: msm_group_op_count(n) * MSM_COUNT,
                cycles_per_unit: self.cost.group_add,
            },
            h2d_bytes: 0,
            d2h_bytes: 0,
            // Bases + buckets + FFT buffers resident — the peak.
            mem_after: n as u64 * BYTES_PER_CONSTRAINT,
        };
        let next = TaskState::Committed {
            coeffs,
            h,
            commitments,
        };
        (next, work)
    }

    fn msm_bucket_naive(&self) -> Vec<Work> {
        // Pre-cuZK GPU MSMs walk Pippenger's windows serially (the
        // MSB-down accumulation is a dependency chain between windows):
        // one kernel step per window per MSM, plus the 254 inter-window
        // doublings.
        let n = self.circuit.size();
        let c = window_size(n);
        let mut phases = vec![
            Work::Uniform {
                units: n as u64 + (1u64 << (c + 1)),
                cycles_per_unit: self.cost.group_add,
            };
            self.window_chains()
        ];
        phases.push(Work::Uniform {
            units: 254,
            cycles_per_unit: self.cost.group_add,
        });
        phases
    }

    /// Windows × MSMs: the serial running-sum chains of one proof.
    fn window_chains(&self) -> usize {
        254_usize.div_ceil(window_size(self.circuit.size())) * MSM_COUNT as usize
    }

    /// Stage 4: Fiat–Shamir assembly on the host (the MSMs finished in
    /// stage 3), charged the modelled per-window running-sum reduction as
    /// well. The pipelined backend charges the modern *parallelized*
    /// running-sum (the cuZK/GZKP-generation reduction the paper's
    /// contemporaries use); [`Self::msm_reduce_naive`] carries the classic
    /// serial chains the Bellperson-generation baseline executes one
    /// thread per window.
    fn msm_reduce(
        &self,
        statement: &[Fr],
        coeffs: [Vec<Fr>; 3],
        h: Vec<Fr>,
        commitments: [G1Projective; 4],
    ) -> (TaskState, StageWork) {
        let affine = G1Projective::batch_to_affine(&commitments);
        let r = challenge_point(statement, [&affine[0], &affine[1], &affine[2], &affine[3]]);
        let eval_a = horner(&coeffs[0], r);
        let eval_b = horner(&coeffs[1], r);
        let eval_c = horner(&coeffs[2], r);
        let eval_h = horner(&h, r);
        let proof = GrothProof {
            com_a: affine[0],
            com_b: affine[1],
            com_c: affine[2],
            com_h: affine[3],
            eval_a,
            eval_b,
            eval_c,
            eval_h,
        };
        let n = self.circuit.size() as u64;
        let cost = &self.cost;
        let reduce_units = self.window_chains() as u64 * (2u64 << window_size(n as usize))
            + (4 * n * cost.field_mul).div_ceil(cost.group_add);
        let work = StageWork {
            work: Work::Uniform {
                units: reduce_units.max(1),
                cycles_per_unit: cost.group_add,
            },
            h2d_bytes: 0,
            // The finished proof leaves the device.
            d2h_bytes: proof.size_bytes() as u64,
            mem_after: 0,
        };
        (TaskState::Done(proof), work)
    }

    fn msm_reduce_naive(&self) -> Vec<Work> {
        // Serial running-sum chains, one thread per window, then the
        // four Horner evaluations.
        let n = self.circuit.size();
        let chain_cycles = (2u64 << window_size(n)) * self.cost.group_add;
        let mut items = vec![chain_cycles; self.window_chains()];
        items.push(4 * n as u64 * self.cost.field_mul);
        vec![Work::Items(items)]
    }
}

/// Stage-2 work in butterfly-equivalent units: the remainder of the
/// baseline's [`NTT_COUNT`]-transform budget after stage 1's real
/// butterflies, plus the `2n` pointwise products.
fn quotient_units(cost: &CostModel, circuit: &GrothCircuit) -> u64 {
    let n = circuit.size() as u64;
    let ntt_rest = circuit
        .ntt_budget()
        .saturating_sub(circuit.stage1_butterflies());
    let mul_equiv = (2 * n * cost.field_mul).div_ceil(cost.ntt_butterfly().max(1));
    ntt_rest + mul_equiv
}

/// The Groth16-style NTT+MSM stack as a [`ProverBackend`]: witness NTTs →
/// quotient → MSM buckets → MSM reduce/assemble over one shared circuit,
/// running the real [`batchzk_field::NttDomain`] and
/// [`batchzk_curve::MsmBases`] kernels under the gpu-sim cost model.
#[derive(Clone)]
pub struct GrothBackend {
    circuit: Arc<GrothCircuit>,
}

impl GrothBackend {
    /// Creates the backend over one shared circuit of `2^log_size` gates.
    ///
    /// # Panics
    ///
    /// Panics if `log_size` exceeds what the field's two-adicity admits
    /// (the quotient works on a domain of size `2^(log_size + 1)`).
    pub fn new(log_size: u32) -> Self {
        Self {
            circuit: Arc::new(GrothCircuit::new(log_size)),
        }
    }

    /// The shared circuit.
    pub fn circuit(&self) -> &Arc<GrothCircuit> {
        &self.circuit
    }
}

impl ProverBackend for GrothBackend {
    type Instance = Vec<Fr>;
    type Task = GrothTask;
    type Statement = Vec<Fr>;
    type Proof = GrothProof;

    fn name(&self) -> &'static str {
        "groth16"
    }

    /// Wraps one witness vector as a fresh task; the first `min(4, n)`
    /// witness values become the public statement.
    ///
    /// # Panics
    ///
    /// Panics, on the submitting thread, if the witness is not one scalar
    /// per gate of the circuit.
    fn begin(&self, witness: Self::Instance) -> Self::Task {
        check_len(self.name(), "witness", witness.len(), self.circuit.size());
        let statement = witness[..PUBLIC_LEN.min(witness.len())].to_vec();
        GrothTask {
            witness,
            statement,
            state: TaskState::Fresh,
        }
    }

    /// The four module work weights (witness-ntt, quotient, msm-bucket,
    /// msm-reduce) in cycles under `gpu`'s cost model.
    fn module_weights(&self, gpu: &Gpu) -> Vec<u64> {
        let circuit = &self.circuit;
        let cost = gpu.cost();
        let n = circuit.size();
        let butterfly = cost.ntt_butterfly();
        let w1 = circuit.stage1_butterflies() * butterfly;
        let w2 = quotient_units(cost, circuit) * butterfly;
        let w3 = msm_group_op_count(n) * MSM_COUNT * cost.group_add;
        let c = window_size(n);
        let windows = 254_usize.div_ceil(c) as u64;
        let w4 = windows * MSM_COUNT * (2u64 << c) * cost.group_add + 4 * n as u64 * cost.field_mul;
        vec![w1.max(1), w2.max(1), w3.max(1), w4.max(1)]
    }

    fn stages(&self, gpu: &Gpu, total_threads: u32) -> Vec<BoxedStage<Self::Task>> {
        let threads = allocate_threads(total_threads, &self.module_weights(gpu));
        let stage = |k| GrothStage {
            k,
            threads: threads[k],
            circuit: Arc::clone(&self.circuit),
            cost: *gpu.cost(),
        };
        (0..STAGE_NAMES.len())
            .map(|k| Box::new(stage(k)) as BoxedStage<GrothTask>)
            .collect()
    }

    /// The maximum of the per-stage `mem_after` values, which the MSM
    /// residency dominates.
    fn task_footprint_bytes(&self) -> u64 {
        self.circuit.size() as u64 * BYTES_PER_CONSTRAINT
    }

    fn finish(&self, task: Self::Task) -> (Self::Statement, Self::Proof) {
        match task.state {
            TaskState::Done(proof) => (task.statement, proof),
            _ => panic!("task has not completed the pipeline"),
        }
    }

    /// Commitments on curve, challenge recomputed from the transcript, and
    /// the divisibility identity `A(r)·B(r) − C(r) = h(r)·(r^n − 1)` checked
    /// at `r`. As noted in the module docs this is a structural
    /// (pairing-free) check.
    fn verify(&self, statement: &Self::Statement, proof: &Self::Proof) -> bool {
        let points = [&proof.com_a, &proof.com_b, &proof.com_c, &proof.com_h];
        if points.iter().any(|p| !p.is_on_curve()) {
            return false;
        }
        let r = challenge_point(statement, points);
        let z_r = r.pow(&[self.circuit.size() as u64]) - Fr::ONE;
        proof.eval_a * proof.eval_b - proof.eval_c == proof.eval_h * z_r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Pipeline, PipelineRun};
    use crate::naive::run_stages_naive;
    use batchzk_gpu_sim::DeviceProfile;

    fn tasks(backend: &GrothBackend, witnesses: Vec<Vec<Fr>>) -> Vec<GrothTask> {
        witnesses.into_iter().map(|w| backend.begin(w)).collect()
    }

    fn prove_pipelined(
        gpu: &mut Gpu,
        backend: &GrothBackend,
        witnesses: Vec<Vec<Fr>>,
        threads: u32,
    ) -> Vec<(Vec<Fr>, GrothProof)> {
        let stages = backend.stages(gpu, threads);
        let run = Pipeline::new(gpu, stages, true).run(tasks(backend, witnesses));
        let outputs = run.expect("fits").outputs.into_iter();
        outputs.map(|t| backend.finish(t)).collect()
    }

    fn prove_naive(
        gpu: &mut Gpu,
        backend: &GrothBackend,
        witnesses: Vec<Vec<Fr>>,
        threads: u32,
        concurrent: usize,
    ) -> PipelineRun<GrothTask> {
        let stages = backend.stages(gpu, threads);
        let preload = backend.task_footprint_bytes() * witnesses.len() as u64;
        let tasks = tasks(backend, witnesses);
        run_stages_naive(gpu, stages, tasks, "groth", preload, threads, concurrent)
    }

    #[test]
    fn pipelined_proofs_verify() {
        let backend = GrothBackend::new(6);
        let witnesses: Vec<Vec<Fr>> = (0..4).map(|s| backend.circuit().witness(s)).collect();
        let mut gpu = Gpu::new(DeviceProfile::a100());
        let done = prove_pipelined(&mut gpu, &backend, witnesses, 2048);
        assert_eq!(done.len(), 4);
        for (statement, proof) in done {
            assert!(backend.verify(&statement, &proof));
            assert_eq!(proof.size_bytes(), 384);
        }
        assert_eq!(gpu.memory_ref().in_use(), 0);
    }

    #[test]
    fn tampered_proof_rejected() {
        let backend = GrothBackend::new(5);
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let witness = backend.circuit().witness(9);
        let done = prove_pipelined(&mut gpu, &backend, vec![witness], 1024);
        let (statement, mut proof) = done.into_iter().next().unwrap();
        assert!(backend.verify(&statement, &proof));
        proof.eval_c += Fr::ONE;
        assert!(!backend.verify(&statement, &proof));
        // And a statement swap changes the challenge.
        let proof = {
            let mut p = proof;
            p.eval_c -= Fr::ONE;
            p
        };
        let mut other = statement.clone();
        other[0] += Fr::ONE;
        assert!(!backend.verify(&other, &proof));
    }

    #[test]
    fn naive_proofs_byte_identical_to_pipelined() {
        let backend = GrothBackend::new(5);
        let witnesses: Vec<Vec<Fr>> = (0..6).map(|s| backend.circuit().witness(100 + s)).collect();
        let mut gpu = Gpu::new(DeviceProfile::a100());
        let piped = prove_pipelined(&mut gpu, &backend, witnesses.clone(), 2048);
        let mut gpu = Gpu::new(DeviceProfile::a100());
        let naive = prove_naive(&mut gpu, &backend, witnesses, 2048, 2);
        assert_eq!(naive.outputs.len(), piped.len());
        for (n, p) in naive.outputs.into_iter().zip(piped) {
            assert_eq!(backend.finish(n), p);
        }
        assert_eq!(gpu.memory_ref().in_use(), 0);
    }

    #[test]
    fn pipelined_beats_naive_throughput() {
        let backend = GrothBackend::new(6);
        let witnesses: Vec<Vec<Fr>> = (0..12).map(|s| backend.circuit().witness(s)).collect();
        let mut gpu = Gpu::new(DeviceProfile::a100());
        let stages = backend.stages(&gpu, 4096);
        let piped = Pipeline::new(&mut gpu, stages, true)
            .run(tasks(&backend, witnesses.clone()))
            .expect("fits")
            .stats;
        let mut gpu = Gpu::new(DeviceProfile::a100());
        let naive = prove_naive(&mut gpu, &backend, witnesses, 4096, 4).stats;
        assert!(
            piped.throughput_per_ms > naive.throughput_per_ms,
            "pipelined {} <= naive {}",
            piped.throughput_per_ms,
            naive.throughput_per_ms
        );
    }

    #[test]
    fn module_weights_positive_and_msm_heavy() {
        // The paper's Table 7: MSM dominates Groth16-style provers.
        let backend = GrothBackend::new(10);
        let gpu = Gpu::new(DeviceProfile::v100());
        let w = backend.module_weights(&gpu);
        assert!(w.iter().all(|&x| x > 0));
        assert!(w[2] > w[0] && w[2] > w[1]);
    }

    #[test]
    fn footprint_matches_baseline_model() {
        let backend = GrothBackend::new(8);
        assert_eq!(backend.task_footprint_bytes(), 256 * BYTES_PER_CONSTRAINT);
        // Against a task: no stage reports more than it resident, and a
        // run's peak is at most two stages' residency at once (the engine
        // allocates a stage's footprint before it frees the last one's).
        let mut gpu = Gpu::new(DeviceProfile::a100());
        let witness = backend.circuit().witness(7);
        let mut task = backend.begin(witness.clone());
        let stages = backend.stages(&gpu, 2048).into_iter();
        let resident = stages.map(|s| s.process(&mut task).mem_after).max();
        assert!(backend.task_footprint_bytes() >= resident.expect("four stages"));
        let stages = backend.stages(&gpu, 2048);
        let run = Pipeline::new(&mut gpu, stages, true).run(tasks(&backend, vec![witness]));
        let peak = run.expect("fits").stats.peak_mem_bytes;
        assert!(
            peak > 0 && 2 * backend.task_footprint_bytes() >= peak,
            "peak {peak}"
        );
    }

    #[test]
    fn fixed_base_table_is_sized_without_being_built() {
        // The figures DESIGN.md §16 records for the re-baseline: not yet
        // part of the backend's task footprint.
        let backend = GrothBackend::new(8);
        let circuit = backend.circuit();
        assert_eq!(circuit.fixed_base_table_bytes(), 256 * 2304);
        assert_eq!(GrothCircuit::new(12).fixed_base_table_bytes(), 4096 * 1584);
        backend.module_weights(&Gpu::new(DeviceProfile::v100()));
        backend.task_footprint_bytes();
        assert!(circuit.key.get().is_none(), "shape queries build no table");
        assert_eq!(
            circuit.key().table_bytes(),
            circuit.fixed_base_table_bytes()
        );
    }
}
