//! # batchzk-vml
//!
//! The verifiable machine-learning application of the paper's §5: a
//! quantized CNN inference engine (VGG-16 shapes over 32×32×3 inputs), a
//! compiler from inference traces to R1CS, and the MLaaS service loop of
//! Figure 8 — predict, prove in batch through the pipelined system, verify
//! on the customer side.
//!
//! # Examples
//!
//! ```
//! use batchzk_vml::{MlService, network};
//! use batchzk_zkp::PcsParams;
//! use batchzk_gpu_sim::{DeviceProfile, Gpu};
//!
//! let mut svc = MlService::new(
//!     network::tiny_cnn(),
//!     PcsParams { num_col_tests: 8, ..PcsParams::default() },
//! );
//! let image = network::synthetic_image(1, &svc.network().input_shape);
//! let mut gpu = Gpu::new(DeviceProfile::gh200());
//! let run = svc.serve_batch(&mut gpu, &[image], 2048).expect("fits");
//! assert!(svc.verify_prediction(&run.predictions[0]));
//! ```

pub mod compile;
pub mod network;
pub mod service;
pub mod tensor;

pub use compile::{
    compile_inference, compile_inference_with_options, compile_witness, CompileOptions,
    CompiledInference,
};
pub use network::{tiny_cnn, vgg16, Layer, Network, Trace};
pub use service::{MlService, PoolServiceRun, ServiceRun, VerifiedPrediction};
pub use tensor::Tensor;
