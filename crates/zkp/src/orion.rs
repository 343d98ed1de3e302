//! The pipelined Orion-style polynomial-commitment backend — the fourth
//! pipelined module family, composing the paper's three core modules into
//! a standalone batch workload: multilinear PCS openings at batch scale.
//!
//! One task commits to a `2^k`-evaluation multilinear polynomial and opens
//! it at a per-task point, moving through a matched 4-deep pipeline whose
//! stages are exactly the phase functions of [`crate::pcs`]:
//!
//! 1. **orion-encode** — transpose the coefficient matrix into the
//!    interleaved buffer and encode every row with the linear-time encoder
//!    ([`PcsKey::commit_encode`]);
//! 2. **orion-merkle** — hash the interleaved-codeword columns into Merkle
//!    leaves and build the commitment tree ([`pcs::commit_merkle`]),
//!    seeding the Fiat–Shamir transcript from the statement and root;
//! 3. **orion-combine** — the proximity and evaluation combination rows,
//!    `γᵀ·M` and `eq_row(r_hi)ᵀ·M`, via the field dot kernels
//!    ([`pcs::open_combine`]);
//! 4. **orion-open** — answer the transcript-seeded column queries with
//!    their Merkle paths and emit the finished proof
//!    ([`pcs::open_queries`]).
//!
//! Stages 1–2 are the PCS commit prefix the sumcheck system opens with too
//! (`commit.rs`); between stages a task owns one `TaskState` variant, and
//! stage 1 reads the instance only, so a fault-recovery replay restarts a
//! salvaged task there (DESIGN.md §15, "Task state").
//!
//! The stage work ratios differ sharply from both the sumcheck system and
//! the Groth16-style stack — encoding and column hashing dominate while
//! the query phase is nearly free — which is precisely the stress case a
//! pipelined system's measured-ratio thread allocation must absorb.
//!
//! [`PipeStage::naive_phases`] carries the kernel-per-task baseline: one
//! kernel per matrix row (encode, combine), per tree layer (merkle), and
//! per opened column (open), reproducing the utilization collapse of the
//! non-pipelined schedule. Both schedules produce byte-identical proofs,
//! as does the pure-CPU [`OrionBackend::prove_cpu`] reference.

use std::sync::Arc;

use batchzk_field::{Field, SplitMix64};
use batchzk_gpu_sim::{CostModel, Gpu, Work};
use batchzk_hash::Transcript;
use batchzk_pipeline::{allocate_threads, BoxedStage, PipeStage, StageWork};

use crate::backend::{check_len, ProverBackend};
use crate::commit::{self, Commit};
use crate::pcs::{self, CombinedRows, EncodedRows, PcsCommitment, PcsKey, PcsOpening, PcsParams};

/// Fiat–Shamir domain separator for the standalone PCS-opening transcript.
pub const DOMAIN: &[u8] = b"batchzk-orion-v1";

/// Device bytes a task keeps resident from the encode stage on: the
/// coefficient matrix (the combine stage reads it) plus its encoded rows.
fn resident_bytes<F: Field>(key: &PcsKey<F>) -> u64 {
    (key.n_rows() * (key.n_cols() + key.codeword_len()) * 32) as u64
}

/// A PCS-opening proof-in-progress moving through the four stages: the
/// instance, which the encode stage reads (again, when a fault-recovery
/// replay restarts the task there), and the state the last stage left.
pub struct OrionTask<F: Field> {
    evals: Vec<F>,
    point: Vec<F>,
    state: TaskState<F>,
}

/// What a task owns between two stages (DESIGN.md §15, "Task state").
enum TaskState<F: Field> {
    /// Submitted, or salvaged for a replay.
    Fresh,
    Encoded(EncodedRows<F>),
    /// After the Merkle stage: the transcript holds the point and the root.
    Committed {
        commit: Commit<F>,
        transcript: Transcript,
    },
    /// After the combine stage: the transcript has drawn `γ` as well.
    Combined {
        commit: Commit<F>,
        transcript: Transcript,
        rows: CombinedRows<F>,
    },
    Done(OrionProof<F>),
}

/// A finished PCS-opening proof: the column-Merkle commitment, the claimed
/// evaluation, and the combination-row opening with its column queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrionProof<F> {
    /// The interleaved-codeword commitment.
    pub commitment: PcsCommitment,
    /// The claimed evaluation at the statement point.
    pub value: F,
    /// The combination rows and opened columns.
    pub opening: PcsOpening<F>,
}

impl<F: Field> OrionProof<F> {
    /// Approximate serialized size in bytes: root + shape + value +
    /// opening.
    pub fn size_bytes(&self) -> usize {
        32 + 16 + 32 + self.opening.size_bytes()
    }
}

/// The four stages' kernel names, in pipeline order.
const STAGE_NAMES: [&str; 4] = [
    "orion-encode",
    "orion-merkle",
    "orion-combine",
    "orion-open",
];

/// Stage `k` of the four on one device.
struct Stage<F: Field> {
    k: usize,
    threads: u32,
    key: Arc<PcsKey<F>>,
    cost: CostModel,
}

impl<F: Field> PipeStage<OrionTask<F>> for Stage<F> {
    fn name(&self) -> String {
        STAGE_NAMES[self.k].into()
    }
    fn threads(&self) -> u32 {
        self.threads
    }
    /// The task's state machine (DESIGN.md §15, "Task state"): arm `(0, _)`
    /// is the replay entry, the last arm the one out-of-order panic.
    fn process(&self, task: &mut OrionTask<F>) -> StageWork {
        use TaskState::*;
        let p = &self.key;
        let (next, work) = match (self.k, std::mem::replace(&mut task.state, Fresh)) {
            (0, _) => {
                // Stage 1: transpose the coefficient matrix and encode
                // every row.
                let h2d = (task.evals.len() * 32) as u64;
                let (encoded, work) =
                    commit::encode(p, &self.cost, &task.evals, vec![], h2d, resident_bytes(p));
                (Encoded(encoded), work)
            }
            (1, Encoded(encoded)) => {
                // Stage 2: hash the interleaved-codeword columns into
                // Merkle leaves and build the commitment tree, then seed
                // the Fiat–Shamir transcript.
                let (commit, work) = commit::merkle(&self.cost, encoded, resident_bytes(p));
                let transcript = statement_transcript(&task.point, &commit.commitment);
                (Committed { commit, transcript }, work)
            }
            (2, Committed { commit, transcript }) => self.combine(&task.point, commit, transcript),
            (
                3,
                Combined {
                    commit,
                    transcript,
                    rows,
                },
            ) => self.open(commit, transcript, rows),
            _ => panic!(
                "{} ran on a task the stage before it had not processed",
                self.name()
            ),
        };
        task.state = next;
        work
    }
    fn naive_phases(&self, _task: &OrionTask<F>) -> Option<Vec<Work>> {
        let p = &self.key;
        let term_cost = self.term_cost();
        Some(match self.k {
            // Kernel-per-row: the baseline launches one encoding kernel
            // per matrix row, each touching only `row_nnz` non-zeros of
            // its slice.
            0 => vec![
                Work::Uniform {
                    units: (p.row_nnz() as u64).max(1),
                    cycles_per_unit: self.cost.spmv_term(),
                };
                p.n_rows()
            ],
            1 => commit::merkle_naive_phases(p, &self.cost),
            // Kernel-per-row: one fold kernel per matrix row, each a
            // 2·n_cols multiply-accumulate slice.
            2 => vec![
                Work::Uniform {
                    units: (2 * p.n_cols()) as u64,
                    cycles_per_unit: term_cost,
                };
                p.n_rows()
            ],
            // Kernel-per-query: one column-gather kernel per opened
            // column, then the final evaluation dot product.
            _ => {
                let mut phases = vec![
                    Work::Uniform {
                        units: (p.n_rows() as u64).max(1),
                        cycles_per_unit: term_cost,
                    };
                    p.column_tests()
                ];
                phases.push(Work::Uniform {
                    units: (2 * p.n_cols()) as u64,
                    cycles_per_unit: term_cost,
                });
                phases
            }
        })
    }
}

impl<F: Field> Stage<F> {
    fn term_cost(&self) -> u64 {
        self.cost.field_mul + self.cost.global_access
    }

    /// Stage 3: the proximity and evaluation combination rows via the
    /// field dot kernels.
    fn combine(
        &self,
        point: &[F],
        commit: Commit<F>,
        mut transcript: Transcript,
    ) -> (TaskState<F>, StageWork) {
        let p = &self.key;
        let rows = pcs::open_combine(&commit.data, point, &mut transcript);
        let work = StageWork {
            work: Work::Uniform {
                units: (2 * p.n_rows() * p.n_cols()) as u64,
                cycles_per_unit: self.term_cost(),
            },
            h2d_bytes: 0,
            d2h_bytes: 0,
            mem_after: resident_bytes(p) + (3 * p.n_cols() * 32) as u64,
        };
        let next = TaskState::Combined {
            commit,
            transcript,
            rows,
        };
        (next, work)
    }

    /// Stage 4: answer the seeded column queries and emit the finished
    /// proof.
    fn open(
        &self,
        Commit { commitment, data }: Commit<F>,
        mut transcript: Transcript,
        rows: CombinedRows<F>,
    ) -> (TaskState<F>, StageWork) {
        let p = &self.key;
        let (value, opening) = pcs::open_queries(p.pcs(), &data, rows, &mut transcript);
        let proof = OrionProof {
            commitment,
            value,
            opening,
        };
        let work = StageWork {
            work: Work::Uniform {
                units: ((p.column_tests() * p.n_rows() + 2 * p.n_cols()) as u64).max(1),
                cycles_per_unit: self.term_cost(),
            },
            h2d_bytes: 0,
            // The finished proof leaves the device.
            d2h_bytes: proof.size_bytes() as u64,
            mem_after: 0,
        };
        (TaskState::Done(proof), work)
    }
}

/// Computes the four module work weights (encode, merkle, combine, open)
/// in cycles under `gpu`'s cost model, for the measured-ratio thread
/// allocation. The ratios are heavily front-loaded — encoding and column
/// hashing dominate, the query phase is nearly free — unlike either the
/// sumcheck system or the Groth16-style stack.
pub fn module_weights<F: Field>(gpu: &Gpu, key: &PcsKey<F>) -> [u64; 4] {
    let cost = gpu.cost();
    let (n_rows, n_cols) = (key.n_rows(), key.n_cols());
    let [w_encode, w_merkle] = commit::module_weights(gpu, key);
    let term = cost.field_mul + cost.global_access;
    let w_combine = (2 * n_rows * n_cols) as u64 * term;
    let w_open = (key.column_tests() * n_rows + 2 * n_cols) as u64 * term;
    [w_encode, w_merkle, w_combine.max(1), w_open.max(1)]
}

/// Builds the four Orion stages for one device: thread allocation follows
/// the measured-ratio rule under that device's cost model.
pub fn build_stages<F: Field>(
    gpu: &Gpu,
    key: &Arc<PcsKey<F>>,
    total_threads: u32,
) -> Vec<BoxedStage<OrionTask<F>>> {
    let threads = allocate_threads(total_threads, &module_weights(gpu, key));
    let stage = |k| Stage {
        k,
        threads: threads[k],
        key: Arc::clone(key),
        cost: *gpu.cost(),
    };
    (0..STAGE_NAMES.len())
        .map(|k| Box::new(stage(k)) as BoxedStage<OrionTask<F>>)
        .collect()
}

/// Analytic per-task peak device-memory footprint in bytes — the maximum
/// of the per-stage `mem_after` values (the Merkle stage's tree residency
/// on top of the encoded matrix).
pub fn task_footprint_bytes<F: Field>(key: &PcsKey<F>) -> u64 {
    resident_bytes(key) + key.codeword_len() as u64 * 64
}

/// The transcript every opening starts from: the statement point, then
/// the commitment root.
fn statement_transcript<F: Field>(point: &[F], commitment: &PcsCommitment) -> Transcript {
    let mut transcript = Transcript::new(DOMAIN);
    transcript.absorb_fields(b"point", point);
    transcript.absorb_digest(b"root", &commitment.root);
    transcript
}

/// Verifies a finished PCS-opening proof against its statement point:
/// commitment shape, transcript replay, re-encoded combination rows, and
/// the Merkle column queries (see [`PcsKey::verify`]).
pub fn verify<F: Field>(key: &PcsKey<F>, point: &[F], proof: &OrionProof<F>) -> bool {
    let mut transcript = statement_transcript(point, &proof.commitment);
    key.verify(
        &proof.commitment,
        point,
        proof.value,
        &proof.opening,
        &mut transcript,
    )
}

/// The Orion-style interleaved-codeword PCS as a [`ProverBackend`]:
/// encode → merkle → combine → open over one shared parameter set, running
/// under the same pipeline engine, shard policies, fault recovery, and
/// online service as the sumcheck and Groth16-style backends.
pub struct OrionBackend<F: Field> {
    key: Arc<PcsKey<F>>,
}

impl<F: Field> Clone for OrionBackend<F> {
    fn clone(&self) -> Self {
        Self {
            key: Arc::clone(&self.key),
        }
    }
}

impl<F: Field> OrionBackend<F> {
    /// Creates the backend for `2^num_vars`-evaluation polynomials under
    /// one PCS parameter set, building the [`PcsKey`] every proof and
    /// every verification shares.
    pub fn new(num_vars: usize, params: PcsParams) -> Self {
        Self {
            key: Arc::new(PcsKey::new(params, num_vars)),
        }
    }

    /// The shared commitment key.
    pub fn shared(&self) -> &Arc<PcsKey<F>> {
        &self.key
    }

    /// Deterministically generates one `(evaluations, point)` instance
    /// from `seed`.
    pub fn instance(&self, seed: u64) -> (Vec<F>, Vec<F>) {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let evals = (0..1usize << self.key.num_vars())
            .map(|_| F::random(&mut rng))
            .collect();
        let point = (0..self.key.num_vars())
            .map(|_| F::random(&mut rng))
            .collect();
        (evals, point)
    }

    /// The pure-CPU reference prover: commit and open in one straight
    /// line, no pipeline, no simulated device. Byte-identical to the
    /// pipelined and kernel-per-task schedules.
    pub fn prove_cpu(&self, (evals, point): (Vec<F>, Vec<F>)) -> (Vec<F>, OrionProof<F>) {
        let (commitment, data) = self.key.commit(&evals);
        let mut transcript = statement_transcript(&point, &commitment);
        let (value, opening) = pcs::open(self.key.pcs(), &data, &point, &mut transcript);
        (
            point,
            OrionProof {
                commitment,
                value,
                opening,
            },
        )
    }
}

impl<F: Field> ProverBackend for OrionBackend<F> {
    type Instance = (Vec<F>, Vec<F>);
    type Task = OrionTask<F>;
    type Statement = Vec<F>;
    type Proof = OrionProof<F>;

    fn name(&self) -> &'static str {
        "orion"
    }

    fn begin(&self, (evals, point): Self::Instance) -> Self::Task {
        let num_vars = self.key.num_vars();
        check_len(self.name(), "evaluation table", evals.len(), 1 << num_vars);
        check_len(self.name(), "point", point.len(), num_vars);
        OrionTask {
            evals,
            point,
            state: TaskState::Fresh,
        }
    }

    fn module_weights(&self, gpu: &Gpu) -> Vec<u64> {
        module_weights(gpu, &self.key).to_vec()
    }

    fn stages(&self, gpu: &Gpu, total_threads: u32) -> Vec<BoxedStage<Self::Task>> {
        build_stages(gpu, &self.key, total_threads)
    }

    fn task_footprint_bytes(&self) -> u64 {
        task_footprint_bytes(&self.key)
    }

    fn finish(&self, task: Self::Task) -> (Self::Statement, Self::Proof) {
        match task.state {
            TaskState::Done(proof) => (task.point, proof),
            _ => panic!("task has not completed the pipeline"),
        }
    }

    fn verify(&self, statement: &Self::Statement, proof: &Self::Proof) -> bool {
        verify(&self.key, statement, proof)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{prove_batch_naive_with, prove_batch_pool_with, prove_batch_with};
    use batchzk_field::Fr;
    use batchzk_gpu_sim::{DevicePool, DeviceProfile, FaultPlan};
    use batchzk_pipeline::ShardPolicy;

    fn backend(num_vars: usize) -> OrionBackend<Fr> {
        OrionBackend::new(
            num_vars,
            PcsParams {
                num_col_tests: 8,
                ..PcsParams::default()
            },
        )
    }

    fn instances(b: &OrionBackend<Fr>, n: usize) -> Vec<(Vec<Fr>, Vec<Fr>)> {
        (0..n).map(|i| b.instance(500 + i as u64)).collect()
    }

    #[test]
    fn pipelined_proofs_verify_and_match_cpu_reference() {
        let b = backend(8);
        let batch = instances(&b, 4);
        let mut gpu = Gpu::new(DeviceProfile::a100());
        let run = prove_batch_with(&mut gpu, &b, batch.clone(), 2048, true).expect("fits");
        assert_eq!(run.proofs.len(), 4);
        for ((statement, proof), instance) in run.proofs.iter().zip(batch) {
            assert!(b.verify(statement, proof));
            let (cpu_statement, cpu_proof) = b.prove_cpu(instance);
            assert_eq!(*statement, cpu_statement);
            assert_eq!(*proof, cpu_proof, "pipeline must match the CPU reference");
        }
        assert_eq!(gpu.memory_ref().in_use(), 0);
    }

    #[test]
    fn known_answer_proofs() {
        // SHA-256 of the `Debug` rendering of the whole proof (commitment,
        // value, both rows, every opened column and path) under the default
        // parameters, recorded at the commit before the interleaved
        // codeword buffer and the deferred-reduction dot kernel.
        let b = OrionBackend::<Fr>::new(10, PcsParams::default());
        for (seed, digest) in [
            (
                1u64,
                "7786ed03bba6f05ebe998f2f9539bf54cbfa0a0ea0548bce3a362f1f5bf5ae1b",
            ),
            (
                7061979,
                "7e825a87b6e7ce9e9aaf8071e61d45dd99ece9f78803439a29951d8362abaa3b",
            ),
        ] {
            let (_, proof) = b.prove_cpu(b.instance(seed));
            let got: String = batchzk_hash::sha256(format!("{proof:?}").as_bytes())
                .iter()
                .map(|byte| format!("{byte:02x}"))
                .collect();
            assert_eq!(got, digest, "seed {seed}");
        }
    }

    #[test]
    fn dishonest_proofs_rejected() {
        let b = backend(8);
        let (statement, proof) = b.prove_cpu(b.instance(1));
        assert!(b.verify(&statement, &proof));
        // Dishonest evaluation claim.
        let mut forged = proof.clone();
        forged.value += Fr::ONE;
        assert!(!b.verify(&statement, &forged));
        // Tampered codeword column.
        let mut forged = proof.clone();
        forged.opening.columns[0].values[0] += Fr::ONE;
        assert!(!b.verify(&statement, &forged));
        // Tampered combination row.
        let mut forged = proof.clone();
        forged.opening.combined_row[1] += Fr::ONE;
        assert!(!b.verify(&statement, &forged));
        // Statement swap changes the transcript challenges.
        let mut other = statement.clone();
        other[0] += Fr::ONE;
        assert!(!b.verify(&other, &proof));
        // Commitment shape forgery.
        let mut forged = proof;
        forged.commitment.n_rows *= 2;
        assert!(!b.verify(&statement, &forged));
    }

    #[test]
    fn naive_and_pipelined_proofs_byte_identical_across_host_threads() {
        let b = backend(8);
        let batch = instances(&b, 6);
        let runs: Vec<_> = [1usize, 2, 4]
            .iter()
            .map(|&t| {
                batchzk_par::with_threads(t, || {
                    let mut gpu = Gpu::new(DeviceProfile::a100());
                    let piped =
                        prove_batch_with(&mut gpu, &b, batch.clone(), 4096, true).expect("fits");
                    let mut gpu = Gpu::new(DeviceProfile::a100());
                    let naive = prove_batch_naive_with(&mut gpu, &b, batch.clone(), 4096, 2);
                    (piped, naive)
                })
            })
            .collect();
        let (base_piped, base_naive) = &runs[0];
        assert_eq!(
            base_piped.proofs, base_naive.proofs,
            "schedules must agree on bytes"
        );
        for (i, (piped, naive)) in runs.iter().enumerate().skip(1) {
            let t = [1, 2, 4][i];
            assert_eq!(piped.proofs, base_piped.proofs, "threads={t}: pipelined");
            assert_eq!(piped.stats, base_piped.stats, "threads={t}: stats");
            assert_eq!(naive.proofs, base_naive.proofs, "threads={t}: naive");
        }
    }

    #[test]
    fn pool_recovers_from_fail_stop_with_identical_proofs() {
        let b = backend(8);
        let batch = instances(&b, 8);
        let mut clean_pool = DevicePool::homogeneous(DeviceProfile::a100(), 2);
        let clean = prove_batch_pool_with(
            &mut clean_pool,
            &b,
            batch.clone(),
            4096,
            true,
            ShardPolicy::MemoryAware,
        )
        .expect("fault-free baseline");
        assert!(clean.recovery.is_none());
        let mid = clean.device_stats[1].total_cycles / 2;
        assert!(mid > 0);
        let faulty = |threads: usize| {
            batchzk_par::with_threads(threads, || {
                let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), 2);
                pool.apply_fault_plan(&FaultPlan::new().fail_stop(1, mid));
                prove_batch_pool_with(
                    &mut pool,
                    &b,
                    batch.clone(),
                    4096,
                    true,
                    ShardPolicy::MemoryAware,
                )
                .expect("survivor completes the batch")
            })
        };
        let run = faulty(1);
        assert_eq!(run.proofs, clean.proofs, "recovery must be invisible");
        for (statement, proof) in &run.proofs {
            assert!(b.verify(statement, proof));
        }
        let rec = run.recovery.as_ref().expect("the fail-stop fired");
        assert_eq!(rec.failed_devices, vec![1]);
        // Same fault plan at more host threads: byte-identical everything.
        let run2 = faulty(2);
        assert_eq!(run2.proofs, run.proofs);
        assert_eq!(run2.recovery, run.recovery);
    }

    #[test]
    fn pipelined_beats_naive_throughput() {
        let b = backend(10);
        let batch = instances(&b, 12);
        let mut gpu = Gpu::new(DeviceProfile::a100());
        let piped = prove_batch_with(&mut gpu, &b, batch.clone(), 4096, true)
            .expect("fits")
            .stats;
        let mut gpu = Gpu::new(DeviceProfile::a100());
        let naive = prove_batch_naive_with(&mut gpu, &b, batch, 4096, 4).stats;
        assert!(
            piped.throughput_per_ms > naive.throughput_per_ms,
            "pipelined {} <= naive {}",
            piped.throughput_per_ms,
            naive.throughput_per_ms
        );
    }

    #[test]
    fn module_weights_positive_and_front_loaded() {
        // Encoding plus column hashing dominate; the query phase is nearly
        // free — the work-ratio stress case of DESIGN.md §17.
        let b = backend(12);
        let gpu = Gpu::new(DeviceProfile::a100());
        let w = module_weights(&gpu, b.shared());
        assert!(w.iter().all(|&x| x > 0));
        assert!(w[0] + w[1] > w[2] + w[3]);
        assert!(w[3] < w[1]);
    }

    #[test]
    fn footprint_covers_stage_residency() {
        let b = backend(10);
        let shared = b.shared();
        assert_eq!(
            task_footprint_bytes(shared),
            resident_bytes(shared) + shared.codeword_len() as u64 * 64
        );
        assert!(task_footprint_bytes(shared) > 0);
    }
}
