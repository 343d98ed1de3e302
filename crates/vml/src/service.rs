//! The verifiable MLaaS service of Figure 8: model commitment in
//! preprocessing, a prediction engine, and batch proof generation through
//! the fully pipelined ZKP system.
//!
//! Binding each proof to the committed model cryptographically (proving the
//! witness prefix equals the committed parameters) is the Orion-style
//! extension documented in `DESIGN.md`; here the commitment is published
//! and the witness layout pins the parameter positions, which suffices for
//! the throughput study the paper's Table 11 reports.

use std::sync::Arc;

use batchzk_field::{field_from_i64, Fr};
use batchzk_gpu_sim::{DevicePool, Gpu};
use batchzk_hash::Digest;
use batchzk_merkle::MerkleTree;
use batchzk_metrics::Registry;
use batchzk_pipeline::{observe, PipelineError, RecoveryReport, RunStats, ShardPolicy};
use batchzk_zkp::r1cs::R1cs;
use batchzk_zkp::{
    prove_batch_pool_with, prove_batch_with, record_pool_outcome, PcsParams, Proof, ProverBackend,
    SpartanBackend,
};

use crate::compile::{compile_inference, compile_witness};
use crate::network::Network;
use crate::tensor::Tensor;

/// The service provider: holds the secret model and the compiled circuit.
pub struct MlService {
    network: Network,
    backend: SpartanBackend<Fr>,
    commitment: Digest,
    metrics: Registry,
}

/// Module label the ML service records its metrics under.
const VML_MODULE: &str = "vml";

/// One answered customer request: the prediction plus its proof.
#[derive(Debug)]
pub struct VerifiedPrediction {
    /// Predicted logits.
    pub logits: Vec<i64>,
    /// Public inputs of the proof (pixels + logits, field-encoded).
    pub public_inputs: Vec<Fr>,
    /// The zero-knowledge proof.
    pub proof: Proof<Fr>,
}

/// Outcome of a batch prediction+proving round.
pub struct ServiceRun {
    /// The answered requests in arrival order.
    pub predictions: Vec<VerifiedPrediction>,
    /// GPU pipeline statistics (throughput, latency, memory).
    pub stats: RunStats,
}

/// Outcome of a batch prediction+proving round across a device pool.
pub struct PoolServiceRun {
    /// The answered requests in arrival order (identical to what a
    /// single-device round would produce).
    pub predictions: Vec<VerifiedPrediction>,
    /// Per-device pipeline statistics, in pool order.
    pub device_stats: Vec<RunStats>,
    /// Wall time of the round: the slowest device's elapsed ms.
    pub makespan_ms: f64,
    /// What fault recovery (if any) the round performed. Even under
    /// recovery the predictions above carry proofs byte-identical to a
    /// fault-free round.
    pub recovery: Option<RecoveryReport>,
}

impl MlService {
    /// Preprocessing (run once): commits to the model parameters and
    /// compiles the inference circuit.
    pub fn new(network: Network, params: PcsParams) -> Self {
        // Model commitment: Merkle root over the flattened parameters.
        let flat: Vec<Fr> = network
            .flat_params()
            .iter()
            .map(|&v| field_from_i64(v))
            .collect();
        let commitment = MerkleTree::from_field_elems(&flat).root();
        // Compile the circuit once from a reference input (structure is
        // input-independent).
        let probe = crate::network::synthetic_image(0, &network.input_shape);
        let trace = network.forward(&probe);
        let compiled = compile_inference::<Fr>(&network, &probe, &trace);
        Self {
            network,
            backend: SpartanBackend::new(Arc::new(compiled.r1cs), params),
            commitment,
            metrics: Registry::new(),
        }
    }

    /// Service metrics accumulated across all [`serve_batch`] rounds
    /// (requests answered, lifecycle latency histograms, OOM pressure)
    /// under the module label `vml`.
    ///
    /// [`serve_batch`]: MlService::serve_batch
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// The published model commitment (sent to customers in preprocessing).
    pub fn model_commitment(&self) -> Digest {
        self.commitment
    }

    /// The compiled circuit (shape statistics, verification).
    pub fn r1cs(&self) -> &Arc<R1cs<Fr>> {
        self.backend.r1cs()
    }

    /// The network description.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Plain prediction without proving (the traditional MLaaS path).
    pub fn predict(&self, image: &Tensor) -> Vec<i64> {
        self.network.forward(image).output().data().to_vec()
    }

    /// Answers a stream of customer images: predicts each and generates the
    /// proofs in batch through the pipelined system on `gpu`.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::OutOfDeviceMemory`] if the batch's working
    /// set does not fit on the device; the allocator is left clean, so a
    /// smaller batch can be retried on the same `gpu`.
    ///
    /// # Panics
    ///
    /// Panics if any image has the wrong shape.
    pub fn serve_batch(
        &mut self,
        gpu: &mut Gpu,
        images: &[Tensor],
        total_threads: u32,
    ) -> Result<ServiceRun, PipelineError> {
        let (logits_list, instances) = self.prepare_requests(images);
        let run = prove_batch_with(gpu, &self.backend, instances, total_threads, true)
            .inspect_err(|e| observe::record_pool(&mut self.metrics, VML_MODULE, Err(e)))?;
        observe::record_run(&mut self.metrics, VML_MODULE, &run.stats);
        let predictions = run
            .proofs
            .into_iter()
            .zip(logits_list)
            .map(|((public_inputs, proof), logits)| VerifiedPrediction {
                logits,
                public_inputs,
                proof,
            })
            .collect();
        Ok(ServiceRun {
            predictions,
            stats: run.stats,
        })
    }

    /// Answers a stream of customer images across a device pool: predicts
    /// each and generates the proofs through one pipeline per pool device,
    /// placed by the scheduler's memory-aware routine (`policy` names it
    /// and is kept only for the frozen `benchmark/` crate's call; it goes
    /// with the next change to `benchmark/`). Predictions come back in
    /// arrival order with proofs byte-identical to a single-device
    /// [`serve_batch`]; metrics gain the per-device label dimension.
    ///
    /// If a pool device carries a scripted fault
    /// ([`batchzk_gpu_sim::FaultPlan`]), the round rides the scheduler's
    /// survivor resharding: requests lost to a fail-stop or dropped kernel
    /// are replayed on healthy devices, the returned
    /// [`PoolServiceRun::recovery`] describes what happened, and the fault
    /// metric families (`batchzk_device_failures_total`,
    /// `batchzk_pool_failed_devices`, ...) are recorded under the `vml`
    /// module.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::OutOfDeviceMemory`] if a shard's working
    /// set does not fit its device even under the memory-aware admission
    /// cap; all devices are left clean. Returns
    /// [`PipelineError::DeviceFailed`] only when every pool device has
    /// fail-stopped.
    ///
    /// # Panics
    ///
    /// Panics if any image has the wrong shape.
    ///
    /// [`serve_batch`]: MlService::serve_batch
    pub fn serve_batch_pool(
        &mut self,
        pool: &mut DevicePool,
        images: &[Tensor],
        total_threads: u32,
        policy: ShardPolicy,
    ) -> Result<PoolServiceRun, PipelineError> {
        let (logits_list, instances) = self.prepare_requests(images);
        let outcome =
            prove_batch_pool_with(pool, &self.backend, instances, total_threads, true, policy);
        record_pool_outcome(&mut self.metrics, VML_MODULE, pool, &outcome);
        let run = outcome?;
        let predictions = run
            .proofs
            .into_iter()
            .zip(logits_list)
            .map(|((public_inputs, proof), logits)| VerifiedPrediction {
                logits,
                public_inputs,
                proof,
            })
            .collect();
        Ok(PoolServiceRun {
            predictions,
            device_stats: run.device_stats,
            makespan_ms: run.makespan_ms,
            recovery: run.recovery,
        })
    }

    /// Runs inference on every request and generates its assignment for
    /// the circuit compiled in [`MlService::new`].
    ///
    /// # Panics
    ///
    /// Panics if an assignment does not fit that circuit.
    #[allow(clippy::type_complexity)]
    fn prepare_requests(&self, images: &[Tensor]) -> (Vec<Vec<i64>>, Vec<(Vec<Fr>, Vec<Fr>)>) {
        // Each request's forward pass + witness generation is independent,
        // so fan out across the host pool; `par_map` returns results in
        // input order, keeping predictions aligned with arrival order.
        let r1cs = self.r1cs();
        let (logits, instances): (Vec<_>, Vec<_>) = batchzk_par::par_map(images, |image| {
            let trace = self.network.forward(image);
            let logits = trace.output().data().to_vec();
            (logits, compile_witness(&self.network, image, &trace, r1cs))
        })
        .into_iter()
        .unzip();
        for (inputs, witness) in &instances {
            assert!(
                inputs.len() == r1cs.num_inputs() && witness.len() == r1cs.num_witness(),
                "circuit mismatch: the network ({} layers, input {:?}) assigns {} inputs and \
                 {} witnesses, its circuit takes {} and {}",
                self.network.layers.len(),
                self.network.input_shape,
                inputs.len(),
                witness.len(),
                r1cs.num_inputs(),
                r1cs.num_witness()
            );
        }
        (logits, instances)
    }

    /// Customer-side verification of one answered request.
    pub fn verify_prediction(&self, prediction: &VerifiedPrediction) -> bool {
        // The trailing public inputs are the logits; check they match the
        // claimed prediction, then verify the proof.
        let n = prediction.logits.len();
        if prediction.public_inputs.len() < n {
            return false;
        }
        let tail = &prediction.public_inputs[prediction.public_inputs.len() - n..];
        let logits_ok = tail
            .iter()
            .zip(&prediction.logits)
            .all(|(f, &v)| *f == field_from_i64::<Fr>(v));
        logits_ok
            && self
                .backend
                .verify(&prediction.public_inputs, &prediction.proof)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{synthetic_image, tiny_cnn};
    use batchzk_gpu_sim::DeviceProfile;

    fn service() -> MlService {
        MlService::new(
            tiny_cnn(),
            PcsParams {
                num_col_tests: 12,
                ..PcsParams::default()
            },
        )
    }

    #[test]
    fn end_to_end_predictions_verify() {
        let mut svc = service();
        let images: Vec<Tensor> = (0..3)
            .map(|i| synthetic_image(10 + i, &svc.network().input_shape))
            .collect();
        let mut gpu = Gpu::new(DeviceProfile::gh200());
        let run = svc.serve_batch(&mut gpu, &images, 4096).expect("fits");
        assert_eq!(run.predictions.len(), 3);
        for (pred, image) in run.predictions.iter().zip(&images) {
            assert!(svc.verify_prediction(pred));
            assert_eq!(pred.logits, svc.predict(image));
        }
        assert!(run.stats.throughput_per_ms > 0.0);
        // The service's own metrics saw the round.
        let m = [("module", "vml")];
        assert_eq!(svc.metrics().counter("batchzk_runs_total", &m), 1);
        assert_eq!(svc.metrics().counter("batchzk_tasks_total", &m), 3);
        assert_eq!(
            svc.metrics()
                .histogram("batchzk_lifecycle_cycles", &m)
                .expect("lifecycle histogram recorded")
                .count(),
            3
        );
    }

    #[test]
    fn pooled_service_round_matches_single_device() {
        let mut svc = service();
        let images: Vec<Tensor> = (0..4)
            .map(|i| synthetic_image(30 + i, &svc.network().input_shape))
            .collect();
        let mut gpu = Gpu::new(DeviceProfile::a100());
        let single = svc.serve_batch(&mut gpu, &images, 4096).expect("fits");
        let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), 2);
        let pooled = svc
            .serve_batch_pool(&mut pool, &images, 4096, ShardPolicy::MemoryAware)
            .expect("fits");
        assert_eq!(pooled.predictions.len(), 4);
        for (p, s) in pooled.predictions.iter().zip(&single.predictions) {
            assert!(svc.verify_prediction(p));
            assert_eq!(p.proof, s.proof, "sharding is invisible in the proof");
            assert_eq!(p.logits, s.logits);
        }
        assert!(pooled.makespan_ms > 0.0);
        assert!(
            pooled.makespan_ms < single.stats.total_ms,
            "two devices beat one: {} vs {}",
            pooled.makespan_ms,
            single.stats.total_ms
        );
        // Per-device metric dimension present under the vml module.
        let d0 = svc
            .metrics()
            .counter("batchzk_tasks_total", &[("module", "vml"), ("device", "0")]);
        let d1 = svc
            .metrics()
            .counter("batchzk_tasks_total", &[("module", "vml"), ("device", "1")]);
        assert_eq!(d0 + d1, 4);
        assert!(d0 > 0 && d1 > 0, "both devices proved work");
        // Module-level counters accumulate across the two rounds.
        let m = [("module", "vml")];
        assert_eq!(svc.metrics().counter("batchzk_runs_total", &m), 2);
        assert_eq!(svc.metrics().counter("batchzk_tasks_total", &m), 8);
    }

    #[test]
    fn pooled_service_survives_device_fail_stop() {
        use batchzk_gpu_sim::FaultPlan;
        let mut svc = service();
        let images: Vec<Tensor> = (0..4)
            .map(|i| synthetic_image(50 + i, &svc.network().input_shape))
            .collect();
        let mut clean_pool = DevicePool::homogeneous(DeviceProfile::a100(), 2);
        let clean = svc
            .serve_batch_pool(&mut clean_pool, &images, 4096, ShardPolicy::MemoryAware)
            .expect("fits");
        assert!(clean.recovery.is_none());
        let device_tasks = |svc: &MlService, d: &str| {
            svc.metrics()
                .counter("batchzk_tasks_total", &[("module", "vml"), ("device", d)])
        };
        let carried = device_tasks(&svc, "0");

        let mut pool = DevicePool::homogeneous(DeviceProfile::a100(), 2);
        pool.apply_fault_plan(&FaultPlan::new().fail_stop(1, 0));
        let run = svc
            .serve_batch_pool(&mut pool, &images, 4096, ShardPolicy::MemoryAware)
            .expect("survivor carries the round");
        assert_eq!(run.predictions.len(), 4);
        for (p, c) in run.predictions.iter().zip(&clean.predictions) {
            assert!(svc.verify_prediction(p));
            assert_eq!(p.proof, c.proof, "recovery is invisible in the proof");
            assert_eq!(p.logits, c.logits);
        }
        let rec = run.recovery.expect("fail-stop was recovered");
        assert_eq!(rec.failed_devices, vec![1]);
        assert!(rec.replay_rounds >= 1);
        // Fault metric families recorded under the vml module.
        let m = [("module", "vml")];
        assert_eq!(
            svc.metrics().counter("batchzk_device_failures_total", &m),
            1
        );
        assert_eq!(
            svc.metrics().gauge("batchzk_pool_failed_devices", &m),
            Some(1.0)
        );
        assert_eq!(
            svc.metrics().gauge("batchzk_pool_degraded_devices", &m),
            Some(0.0)
        );
        assert_eq!(
            svc.metrics().counter("batchzk_tasks_replayed_total", &m),
            rec.replayed_tasks as u64
        );
        // The healthy device carried every request of the faulty round.
        assert_eq!(device_tasks(&svc, "0"), carried + 4);
    }

    #[test]
    #[should_panic(expected = "circuit mismatch")]
    fn mismatched_network_fails_before_proving() {
        let mut svc = service();
        // A trailing ReLU assigns two more witnesses per logit than the
        // circuit compiled in `new` takes.
        svc.network.layers.push(crate::network::Layer::Relu);
        let images = vec![synthetic_image(22, &svc.network().input_shape)];
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let _ = svc.serve_batch(&mut gpu, &images, 2048);
    }

    #[test]
    fn tampered_prediction_rejected() {
        let mut svc = service();
        let images = vec![synthetic_image(20, &svc.network().input_shape)];
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let mut run = svc.serve_batch(&mut gpu, &images, 2048).expect("fits");
        let pred = &mut run.predictions[0];
        pred.logits[0] += 1;
        assert!(!svc.verify_prediction(pred));
    }

    #[test]
    fn tampered_proof_rejected() {
        let mut svc = service();
        let images = vec![synthetic_image(21, &svc.network().input_shape)];
        let mut gpu = Gpu::new(DeviceProfile::v100());
        let mut run = svc.serve_batch(&mut gpu, &images, 2048).expect("fits");
        let pred = &mut run.predictions[0];
        pred.proof.va += <batchzk_field::Fr as batchzk_field::Field>::ONE;
        assert!(!svc.verify_prediction(pred));
    }

    #[test]
    fn model_commitment_is_stable_and_binding() {
        let a = service().model_commitment();
        let b = service().model_commitment();
        assert_eq!(a, b);
        // A different model commits differently.
        let mut other_net = tiny_cnn();
        if let crate::network::Layer::Conv3x3 { weights, .. } = &mut other_net.layers[0] {
            weights[0] += 1;
        }
        let other = MlService::new(other_net, PcsParams::default());
        assert_ne!(a, other.model_commitment());
    }
}
