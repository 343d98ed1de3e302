//! The PCS commit prefix: the encoder and Merkle stages that open both the
//! sumcheck system's pipeline and the Orion backend's.
//!
//! Both backends commit to one `2^k`-evaluation table under a shared
//! [`PcsKey`] with the same two operations, [`PcsKey::commit_encode`] then
//! [`pcs::commit_merkle`], charged to the simulated device the same way.
//! This module owns that once: the two transitions with their
//! [`StageWork`], the kernel-per-layer baseline phases and the two module
//! weights. What differs between the backends — what the encoder stage
//! loads from the host, and how many bytes a task keeps resident besides
//! the tree — is an argument at the two call sites.

use batchzk_field::Field;
use batchzk_gpu_sim::{CostModel, Gpu, Work};
use batchzk_pipeline::StageWork;

use crate::pcs::{self, EncodedRows, PcsCommitment, PcsKey, PcsProverData};

/// A finished commitment as the opening stages read it: the public
/// commitment and the prover's encoded rows and tree.
pub(crate) struct Commit<F> {
    pub(crate) commitment: PcsCommitment,
    pub(crate) data: PcsProverData<F>,
}

/// Device cycles to hash one codeword column into its leaf and fold the
/// leaf into the tree.
fn column_cost(cost: &CostModel, n_rows: usize) -> u64 {
    (n_rows as u64).div_ceil(2) * cost.sha256_compress + cost.merkle_node()
}

/// The encoder and Merkle module weights in cycles under `gpu`'s cost
/// model — the first two of either backend's four.
pub(crate) fn module_weights<F: Field>(gpu: &Gpu, key: &PcsKey<F>) -> [u64; 2] {
    let cost = gpu.cost();
    let w_encode = (key.row_nnz() * key.n_rows()) as u64 * cost.spmv_term();
    let w_merkle = key.codeword_len() as u64 * column_cost(cost, key.n_rows());
    [w_encode.max(1), w_merkle.max(1)]
}

/// The encoder stage: arranges `evals` as the coefficient matrix and
/// encodes every row, into `codewords` ([`PcsKey::commit_encode_into`]).
/// `h2d_bytes` is this proof's prover input, which arrives now (dynamic
/// loading); `resident` is what the task keeps on the device from here
/// until its proof leaves.
pub(crate) fn encode<F: Field>(
    key: &PcsKey<F>,
    cost: &CostModel,
    evals: &[F],
    codewords: Vec<F>,
    h2d_bytes: u64,
    resident: u64,
) -> (EncodedRows<F>, StageWork) {
    let encoded = key.commit_encode_into(evals, codewords);
    let work = StageWork {
        work: Work::Uniform {
            units: (encoded.encode_nnz() as u64).max(1),
            cycles_per_unit: cost.spmv_term(),
        },
        h2d_bytes,
        d2h_bytes: 0,
        mem_after: resident,
    };
    (encoded, work)
}

/// The Merkle stage: hashes the codeword columns into leaves and builds
/// the commitment tree, yielding the root.
pub(crate) fn merkle<F: Field>(
    cost: &CostModel,
    encoded: EncodedRows<F>,
    resident: u64,
) -> (Commit<F>, StageWork) {
    let columns = encoded.codeword_len() as u64;
    let column_cost = column_cost(cost, encoded.n_rows());
    let (commitment, data) = pcs::commit_merkle(encoded);
    let work = StageWork {
        work: Work::Uniform {
            units: columns.max(1),
            cycles_per_unit: column_cost,
        },
        h2d_bytes: 0,
        // Intermediate tree layers stream back to host (§3.1); the
        // encoded matrix stays resident for the opening stages.
        d2h_bytes: columns * 32,
        mem_after: resident + columns * 64,
    };
    (Commit { commitment, data }, work)
}

/// Kernel-per-layer: the non-pipelined baseline launches one kernel per
/// tree layer, and the upper layers have too few nodes to fill its thread
/// slice (Figure 4a's utilization collapse).
pub(crate) fn merkle_naive_phases<F: Field>(key: &PcsKey<F>, cost: &CostModel) -> Vec<Work> {
    let nodes = (key.codeword_len() as u64 / 2).max(1);
    halving_phases(nodes, 1, column_cost(cost, key.n_rows()))
}

/// One kernel per level of a structure that halves from `nodes` to one,
/// each charged `units_per_node` units per node.
pub(crate) fn halving_phases(
    mut nodes: u64,
    units_per_node: u64,
    cycles_per_unit: u64,
) -> Vec<Work> {
    let mut phases = Vec::new();
    while nodes >= 1 {
        phases.push(Work::Uniform {
            units: units_per_node * nodes,
            cycles_per_unit,
        });
        if nodes == 1 {
            break;
        }
        nodes /= 2;
    }
    phases
}
