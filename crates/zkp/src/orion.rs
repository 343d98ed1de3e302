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
use batchzk_gpu_sim::{Gpu, Work};
use batchzk_hash::Transcript;
use batchzk_pipeline::{allocate_threads, BoxedStage, PipeStage, StageWork};

use crate::backend::ProverBackend;
use crate::pcs::{
    self, CombinedRows, EncodedRows, PcsCommitment, PcsKey, PcsOpening, PcsParams, PcsProverData,
};

/// Fiat–Shamir domain separator for the standalone PCS-opening transcript.
pub const DOMAIN: &[u8] = b"batchzk-orion-v1";

/// Bytes of the coefficient matrix plus its encoded rows, as the device
/// memory model charges them.
fn resident_bytes<F: Field>(key: &PcsKey<F>) -> u64 {
    (key.n_rows() * (key.n_cols() + key.codeword_len()) * 32) as u64
}

/// A PCS-opening proof-in-progress moving through the four stages.
pub struct OrionTask<F: Field> {
    evals: Vec<F>,
    point: Vec<F>,
    encoded: Option<EncodedRows<F>>,
    data: Option<PcsProverData<F>>,
    commitment: Option<PcsCommitment>,
    transcript: Option<Transcript>,
    rows: Option<CombinedRows<F>>,
    proof: Option<OrionProof<F>>,
}

impl<F: Field> OrionTask<F> {
    /// Wraps one `(evaluations, point)` instance as a fresh task.
    pub fn new(evals: Vec<F>, point: Vec<F>) -> Self {
        Self {
            evals,
            point,
            encoded: None,
            data: None,
            commitment: None,
            transcript: None,
            rows: None,
            proof: None,
        }
    }

    /// The evaluation point this task opens at (the public statement).
    pub fn point(&self) -> &[F] {
        &self.point
    }

    /// The finished proof.
    ///
    /// # Panics
    ///
    /// Panics if the task has not completed the pipeline.
    pub fn into_proof(self) -> OrionProof<F> {
        self.proof.expect("task has not completed the pipeline")
    }
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

/// Stage 1: transpose the coefficient matrix and encode every row.
struct OrionEncodeStage<F: Field> {
    key: Arc<PcsKey<F>>,
    threads: u32,
    spmv_cost: u64,
}

impl<F: Field> PipeStage<OrionTask<F>> for OrionEncodeStage<F> {
    fn name(&self) -> String {
        "orion-encode".into()
    }
    fn threads(&self) -> u32 {
        self.threads
    }
    fn process(&self, task: &mut OrionTask<F>) -> StageWork {
        let p = &self.key;
        // Borrow (not take): fault recovery replays salvaged tasks from
        // stage 0, so the stage-0 input must survive processing.
        let encoded = p.commit_encode(&task.evals);
        let nnz = encoded.encode_nnz() as u64;
        task.encoded = Some(encoded);
        StageWork {
            work: Work::Uniform {
                units: nnz.max(1),
                cycles_per_unit: self.spmv_cost,
            },
            // Dynamic loading: this proof's evaluation table arrives now.
            h2d_bytes: ((1usize << p.num_vars()) * 32) as u64,
            d2h_bytes: 0,
            mem_after: resident_bytes(p),
        }
    }
    fn naive_phases(&self, _task: &OrionTask<F>) -> Option<Vec<Work>> {
        // Kernel-per-row: the baseline launches one encoding kernel per
        // matrix row, each touching only `row_nnz` non-zeros of its slice.
        let p = &self.key;
        Some(vec![
            Work::Uniform {
                units: (p.row_nnz() as u64).max(1),
                cycles_per_unit: self.spmv_cost,
            };
            p.n_rows()
        ])
    }
}

/// Stage 2: hash the interleaved-codeword columns into Merkle leaves and
/// build the commitment tree, then seed the Fiat–Shamir transcript.
struct OrionMerkleStage<F: Field> {
    key: Arc<PcsKey<F>>,
    threads: u32,
    column_cost: u64,
}

impl<F: Field> PipeStage<OrionTask<F>> for OrionMerkleStage<F> {
    fn name(&self) -> String {
        "orion-merkle".into()
    }
    fn threads(&self) -> u32 {
        self.threads
    }
    fn process(&self, task: &mut OrionTask<F>) -> StageWork {
        let p = &self.key;
        let encoded = task.encoded.take().expect("encode stage ran");
        let columns = encoded.codeword_len() as u64;
        let (commitment, data) = pcs::commit_merkle(encoded);
        let mut transcript = Transcript::new(DOMAIN);
        transcript.absorb_fields(b"point", &task.point);
        transcript.absorb_digest(b"root", &commitment.root);
        task.commitment = Some(commitment);
        task.data = Some(data);
        task.transcript = Some(transcript);
        StageWork {
            work: Work::Uniform {
                units: columns.max(1),
                cycles_per_unit: self.column_cost,
            },
            h2d_bytes: 0,
            // Intermediate tree layers stream back to host; the encoded
            // matrix stays resident for the combine and query stages.
            d2h_bytes: columns * 32,
            mem_after: resident_bytes(p) + columns * 64,
        }
    }
    fn naive_phases(&self, _task: &OrionTask<F>) -> Option<Vec<Work>> {
        // Kernel-per-layer: upper tree layers have too few nodes to fill
        // the baseline's thread slice.
        let mut nodes = (self.key.codeword_len() as u64 / 2).max(1);
        let mut phases = Vec::new();
        loop {
            phases.push(Work::Uniform {
                units: nodes,
                cycles_per_unit: self.column_cost,
            });
            if nodes == 1 {
                break;
            }
            nodes /= 2;
        }
        Some(phases)
    }
}

/// Stage 3: the proximity and evaluation combination rows via the field
/// dot kernels.
struct OrionCombineStage<F: Field> {
    key: Arc<PcsKey<F>>,
    threads: u32,
    term_cost: u64,
}

impl<F: Field> PipeStage<OrionTask<F>> for OrionCombineStage<F> {
    fn name(&self) -> String {
        "orion-combine".into()
    }
    fn threads(&self) -> u32 {
        self.threads
    }
    fn process(&self, task: &mut OrionTask<F>) -> StageWork {
        let p = &self.key;
        let data = task.data.as_ref().expect("merkle stage ran");
        let transcript = task.transcript.as_mut().expect("merkle stage ran");
        let rows = pcs::open_combine(data, &task.point, transcript);
        task.rows = Some(rows);
        StageWork {
            work: Work::Uniform {
                units: (2 * p.n_rows() * p.n_cols()) as u64,
                cycles_per_unit: self.term_cost,
            },
            h2d_bytes: 0,
            d2h_bytes: 0,
            mem_after: resident_bytes(p) + (3 * p.n_cols() * 32) as u64,
        }
    }
    fn naive_phases(&self, _task: &OrionTask<F>) -> Option<Vec<Work>> {
        // Kernel-per-row: one fold kernel per matrix row, each a 2·n_cols
        // multiply-accumulate slice.
        let p = &self.key;
        Some(vec![
            Work::Uniform {
                units: (2 * p.n_cols()) as u64,
                cycles_per_unit: self.term_cost,
            };
            p.n_rows()
        ])
    }
}

/// Stage 4: answer the seeded column queries and emit the finished proof.
struct OrionOpenStage<F: Field> {
    key: Arc<PcsKey<F>>,
    threads: u32,
    term_cost: u64,
}

impl<F: Field> PipeStage<OrionTask<F>> for OrionOpenStage<F> {
    fn name(&self) -> String {
        "orion-open".into()
    }
    fn threads(&self) -> u32 {
        self.threads
    }
    fn process(&self, task: &mut OrionTask<F>) -> StageWork {
        let p = &self.key;
        let data = task.data.take().expect("merkle stage ran");
        let mut transcript = task.transcript.take().expect("merkle stage ran");
        let rows = task.rows.take().expect("combine stage ran");
        let (value, opening) = pcs::open_queries(p.pcs(), &data, rows, &mut transcript);
        let commitment = task.commitment.take().expect("merkle stage ran");
        let proof = OrionProof {
            commitment,
            value,
            opening,
        };
        let proof_bytes = proof.size_bytes() as u64;
        task.proof = Some(proof);
        StageWork {
            work: Work::Uniform {
                units: ((p.column_tests() * p.n_rows() + 2 * p.n_cols()) as u64).max(1),
                cycles_per_unit: self.term_cost,
            },
            h2d_bytes: 0,
            // The finished proof leaves the device.
            d2h_bytes: proof_bytes,
            mem_after: 0,
        }
    }
    fn naive_phases(&self, _task: &OrionTask<F>) -> Option<Vec<Work>> {
        // Kernel-per-query: one column-gather kernel per opened column,
        // then the final evaluation dot product.
        let p = &self.key;
        let mut phases = vec![
            Work::Uniform {
                units: (p.n_rows() as u64).max(1),
                cycles_per_unit: self.term_cost,
            };
            p.column_tests()
        ];
        phases.push(Work::Uniform {
            units: (2 * p.n_cols()) as u64,
            cycles_per_unit: self.term_cost,
        });
        Some(phases)
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
    let w_encode = (key.row_nnz() * n_rows) as u64 * cost.spmv_term();
    let column_cost = (n_rows as u64).div_ceil(2) * cost.sha256_compress + cost.merkle_node();
    let w_merkle = key.codeword_len() as u64 * column_cost;
    let term = cost.field_mul + cost.global_access;
    let w_combine = (2 * n_rows * n_cols) as u64 * term;
    let w_open = (key.column_tests() * n_rows + 2 * n_cols) as u64 * term;
    [
        w_encode.max(1),
        w_merkle.max(1),
        w_combine.max(1),
        w_open.max(1),
    ]
}

/// Builds the four Orion stages for one device: thread allocation follows
/// the measured-ratio rule under that device's cost model.
pub fn build_stages<F: Field>(
    gpu: &Gpu,
    key: &Arc<PcsKey<F>>,
    total_threads: u32,
) -> Vec<BoxedStage<OrionTask<F>>> {
    let weights = module_weights(gpu, key);
    let threads = allocate_threads(total_threads, &weights);
    let cost = *gpu.cost();
    let column_cost = (key.n_rows() as u64).div_ceil(2) * cost.sha256_compress + cost.merkle_node();
    vec![
        Box::new(OrionEncodeStage {
            key: Arc::clone(key),
            threads: threads[0],
            spmv_cost: cost.spmv_term(),
        }),
        Box::new(OrionMerkleStage {
            key: Arc::clone(key),
            threads: threads[1],
            column_cost,
        }),
        Box::new(OrionCombineStage {
            key: Arc::clone(key),
            threads: threads[2],
            term_cost: cost.field_mul + cost.global_access,
        }),
        Box::new(OrionOpenStage {
            key: Arc::clone(key),
            threads: threads[3],
            term_cost: cost.field_mul + cost.global_access,
        }),
    ]
}

/// Analytic per-task peak device-memory footprint in bytes — the maximum
/// of the per-stage `mem_after` values (the Merkle stage's tree residency
/// on top of the encoded matrix).
pub fn task_footprint_bytes<F: Field>(key: &PcsKey<F>) -> u64 {
    resident_bytes(key) + key.codeword_len() as u64 * 64
}

/// Verifies a finished PCS-opening proof against its statement point:
/// commitment shape, transcript replay, re-encoded combination rows, and
/// the Merkle column queries (see [`PcsKey::verify`]).
pub fn verify<F: Field>(key: &PcsKey<F>, point: &[F], proof: &OrionProof<F>) -> bool {
    let mut transcript = Transcript::new(DOMAIN);
    transcript.absorb_fields(b"point", point);
    transcript.absorb_digest(b"root", &proof.commitment.root);
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
        let mut transcript = Transcript::new(DOMAIN);
        transcript.absorb_fields(b"point", &point);
        transcript.absorb_digest(b"root", &commitment.root);
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
        assert_eq!(
            point.len(),
            self.key.num_vars(),
            "point dimension must match the shared shape"
        );
        OrionTask::new(evals, point)
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
        let proof = task.proof.expect("task has not completed the pipeline");
        (task.point, proof)
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
            ShardPolicy::LeastOutstanding,
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
                    ShardPolicy::LeastOutstanding,
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
