//! `vml-vgg16`: the verifiable-ML service answering a batch of images on a
//! two-device pool. The same sum-check backend as `spartan-batch`, used
//! differently: tables far beyond the last private cache level, the sparse
//! matrices of a real circuit, the shard scheduler on the path, and a
//! set-up (circuit compile) that is not negligible.

use std::sync::Arc;

use batchzk_field::Fr;
use batchzk_gpu_sim::{DevicePool, DeviceProfile};
use batchzk_pipeline::ShardPolicy;
use batchzk_vml::network::synthetic_image;
use batchzk_vml::{
    compile_inference, tiny_cnn, vgg16, MlService, Network, Tensor, VerifiedPrediction,
};
use batchzk_zkp::{prove_batch_pool_with, PcsParams, Proof, SpartanBackend};

use crate::host::timed;
use crate::trace::{span_if, Kind, Traced, Tracer};
use crate::workload::{
    check_reproduced, fail, instance_seed, small_batch_with, spartan_probe_input, timed_phase,
    BenchBackend, DeviceCounters, ProbeInput, Reference, Round, Shape, Sim, SmallBatch, Workload,
    DEVICE_THREADS, PROVE_PHASE, VERIFY_PHASE,
};

#[derive(Debug, Clone, Copy)]
pub struct VmlSize {
    /// VGG-16 width divisor; 0 selects the tests' tiny CNN.
    pub vgg_divisor: usize,
    pub images: usize,
    /// Images of a timing window and of the set-up's warm-up batch.
    pub window: usize,
    pub devices: usize,
}

const FORWARD_SPAN: &str = "vml.forward";
const PREPARE_SPAN: &str = "vml.prepare";
const COMPILE_SPAN: &str = "vml.compile";

pub struct VmlWorkload {
    service: MlService,
    size: VmlSize,
    seed: u64,
    images: Vec<Tensor>,
    reference: Reference<Proof<Fr>>,
}

fn network(size: &VmlSize) -> Network {
    if size.vgg_divisor == 0 {
        tiny_cnn()
    } else {
        vgg16(size.vgg_divisor)
    }
}

impl VmlWorkload {
    /// Compiles the circuit and answers a warm-up batch, checking that
    /// every answer verifies and that an altered proof does not.
    pub fn set_up(seed: u64, size: VmlSize) -> Self {
        let service = MlService::new(network(&size), PcsParams::default());
        let mut this = Self {
            service,
            size,
            seed,
            images: Vec::new(),
            reference: Reference::default(),
        };
        let warm = this.generate_images(size.window);
        let (round, mut predictions) = this.serve(&warm);
        if round.verified != size.window as u64 {
            fail("a warm-up prediction does not verify");
        }
        let bad = &mut predictions[0];
        <SpartanBackend<Fr> as BenchBackend>::tamper(&mut bad.proof);
        if this.service.verify_prediction(bad) {
            fail("sumcheck verifier accepted an altered proof");
        }
        this
    }

    fn generate_images(&self, n: usize) -> Vec<Tensor> {
        let shape = &self.service.network().input_shape;
        (0..n)
            .map(|i| synthetic_image(instance_seed(self.seed, i), shape))
            .collect()
    }

    fn pool(&self) -> DevicePool {
        DevicePool::homogeneous(DeviceProfile::a100(), self.size.devices)
    }

    /// The untraced round: the service's own batch entry point.
    fn serve(&mut self, images: &[Tensor]) -> (Round, Vec<VerifiedPrediction>) {
        let mut pool = self.pool();
        let (run, prove) = timed(|| {
            self.service.serve_batch_pool(
                &mut pool,
                images,
                DEVICE_THREADS,
                ShardPolicy::MemoryAware,
            )
        });
        let run = run.unwrap_or_else(|e| fail(&format!("serve_batch_pool failed: {e}")));
        let (verified, verify) = timed(|| {
            run.predictions
                .iter()
                .filter(|p| self.service.verify_prediction(p))
                .count() as u64
        });
        let round = Round {
            submitted: images.len() as u64,
            completed: run.predictions.len() as u64,
            verified,
            proof_bytes: run
                .predictions
                .iter()
                .map(|p| p.proof.size_bytes() as u64)
                .sum(),
            prove,
            verify,
            sim: Sim::of_batch(&run.device_stats),
            device_stats: run.device_stats,
            devices: DeviceCounters::read(pool.devices()),
            service: None,
        };
        (round, run.predictions)
    }

    fn backend(&self) -> SpartanBackend<Fr> {
        SpartanBackend::new(Arc::clone(self.service.r1cs()), PcsParams::default())
    }

    /// Forward pass and witness compilation of one image: what the
    /// service's private request preparation does, from public functions.
    fn compile(
        &self,
        image: &Tensor,
        tracer: Option<&Tracer>,
        proof: Option<usize>,
    ) -> (Vec<i64>, (Vec<Fr>, Vec<Fr>)) {
        let net = self.service.network();
        let trace = span_if(tracer, Kind::Layer, FORWARD_SPAN, proof, || {
            net.forward(image)
        });
        let compiled = span_if(tracer, Kind::Layer, PREPARE_SPAN, proof, || {
            compile_inference::<Fr>(net, image, &trace)
        });
        (
            trace.output().data().to_vec(),
            (compiled.inputs, compiled.witness),
        )
    }

    /// The traced round: the same steps `serve_batch_pool` takes, from the
    /// outside, with spans around each; proofs must come out identical.
    fn serve_traced(
        &mut self,
        images: &[Tensor],
        tracer: &Arc<Tracer>,
    ) -> (Round, Vec<VerifiedPrediction>) {
        let traced = Traced::new(self.backend(), Arc::clone(tracer));
        let mut pool = self.pool();
        let mut logits = Vec::new();
        let (run, prove) = timed_phase(Some(tracer), PROVE_PHASE, || {
            let instances = images
                .iter()
                .enumerate()
                .map(|(i, image)| {
                    let (l, instance) = self.compile(image, Some(tracer), Some(i));
                    logits.push(l);
                    (i, instance)
                })
                .collect();
            prove_batch_pool_with(
                &mut pool,
                &traced,
                instances,
                DEVICE_THREADS,
                true,
                ShardPolicy::MemoryAware,
            )
        });
        let run = run.unwrap_or_else(|e| fail(&format!("traced pool round failed: {e}")));
        let predictions: Vec<VerifiedPrediction> = run
            .proofs
            .into_iter()
            .zip(logits)
            .map(|(((_, public_inputs), proof), logits)| VerifiedPrediction {
                logits,
                public_inputs,
                proof,
            })
            .collect();
        let (verified, verify) = timed_phase(Some(tracer), VERIFY_PHASE, || {
            predictions
                .iter()
                .enumerate()
                .filter(|(i, p)| {
                    tracer.span(Kind::Verify, "verify.sumcheck", Some(*i), || {
                        self.service.verify_prediction(p)
                    })
                })
                .count() as u64
        });
        let round = Round {
            submitted: images.len() as u64,
            completed: predictions.len() as u64,
            verified,
            proof_bytes: predictions
                .iter()
                .map(|p| p.proof.size_bytes() as u64)
                .sum(),
            prove,
            verify,
            sim: Sim::of_batch(&run.device_stats),
            device_stats: run.device_stats,
            devices: DeviceCounters::read(pool.devices()),
            service: None,
        };
        (round, predictions)
    }
}

impl Workload for VmlWorkload {
    fn describe(&self) -> String {
        format!(
            "{} constraints, {} images a round ({} a timing window) on {} A100s, memory-aware sharding, \
             closed loop, one client",
            self.service.r1cs().num_constraints(),
            self.size.images,
            self.size.window,
            self.size.devices
        )
    }

    fn prepare(&mut self) {
        self.images = self.generate_images(self.size.images);
    }

    fn round(&mut self, shape: Shape, tracer: Option<&Arc<Tracer>>) -> Round {
        let images = match shape {
            Shape::Full => self.images.clone(),
            Shape::Window => self.images[..self.size.window].to_vec(),
        };
        let (round, predictions) = match tracer {
            None => self.serve(&images),
            Some(tracer) => self.serve_traced(&images, tracer),
        };
        let proofs: Vec<Proof<Fr>> = predictions.into_iter().map(|p| p.proof).collect();
        check_reproduced(&mut self.reference, shape, proofs);
        round
    }

    fn probe_input(&self) -> ProbeInput {
        let (_, instance) = self.compile(&self.images[0], None, None);
        spartan_probe_input(self.service.r1cs(), PcsParams::default(), &instance)
    }

    fn small_batch(&mut self, naive_too: bool) -> SmallBatch {
        let instances = self
            .images
            .iter()
            .map(|image| self.compile(image, None, None).1)
            .collect();
        small_batch_with(&self.backend(), instances, naive_too)
    }

    fn extra_layer_metrics(&mut self, tracer: &Arc<Tracer>, out: &mut Vec<(String, f64)>) {
        let size = self.size;
        let (service, compile) = tracer.span(Kind::Layer, COMPILE_SPAN, None, || {
            timed(|| MlService::new(network(&size), PcsParams::default()))
        });
        let compile_s = compile.wall_s;
        let spans = tracer.spans();
        let mean_ms = |name: &str| {
            let spans: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64 / 1e6)
                .collect();
            spans.iter().sum::<f64>() / spans.len().max(1) as f64
        };
        out.push(("vml.compile_s".into(), compile_s));
        out.push(("vml.forward_ms_per_image".into(), mean_ms(FORWARD_SPAN)));
        out.push(("vml.prepare_ms_per_request".into(), mean_ms(PREPARE_SPAN)));
        out.push((
            "vml.constraints".into(),
            service.r1cs().num_constraints() as f64,
        ));
    }
}
