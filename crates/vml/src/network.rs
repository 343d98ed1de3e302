//! Layer definitions, the inference engine, and the VGG-16 configuration.
//!
//! The engine (the "machine-learning engine" of Figure 8) computes the
//! quantized forward pass and records every intermediate activation — the
//! execution trace the circuit compiler turns into an R1CS witness.

use crate::tensor::{synthetic_weights, Tensor};

/// Right-shift applied after every conv/dense layer (requantization back to
/// the working fixed-point scale).
pub const REQUANT_SHIFT: u32 = 7;

/// A network layer.
#[derive(Debug, Clone)]
pub enum Layer {
    /// 3×3 same-padding convolution with `out_ch × in_ch × 3 × 3` weights,
    /// followed by requantization (arithmetic shift by [`REQUANT_SHIFT`]).
    Conv3x3 {
        /// Output channels.
        out_ch: usize,
        /// Input channels.
        in_ch: usize,
        /// Weights, `out_ch * in_ch * 9` entries.
        weights: Vec<i64>,
        /// Bias per output channel (at the accumulator scale).
        bias: Vec<i64>,
    },
    /// Pointwise `max(x, 0)`.
    Relu,
    /// 2×2 sum pooling with stride 2 (linear; standard average pooling
    /// without the division — documented substitution in `DESIGN.md`).
    SumPool2x2,
    /// Fully connected layer with `out_dim × in_dim` weights, followed by
    /// requantization.
    Dense {
        /// Output dimension.
        out_dim: usize,
        /// Input dimension.
        in_dim: usize,
        /// Weights, `out_dim * in_dim` entries.
        weights: Vec<i64>,
        /// Bias per output.
        bias: Vec<i64>,
    },
    /// Collapses CHW to a flat vector.
    Flatten,
}

impl Layer {
    /// Number of secret parameters in this layer.
    fn num_params(&self) -> usize {
        match self {
            Layer::Conv3x3 { weights, bias, .. } | Layer::Dense { weights, bias, .. } => {
                weights.len() + bias.len()
            }
            _ => 0,
        }
    }

    /// Number of multiply–accumulate operations for a given input shape.
    fn macs(&self, input_shape: &[usize]) -> usize {
        match self {
            Layer::Conv3x3 { out_ch, in_ch, .. } => {
                let (h, w) = (input_shape[1], input_shape[2]);
                out_ch * h * w * in_ch * 9
            }
            Layer::Dense {
                out_dim, in_dim, ..
            } => out_dim * in_dim,
            _ => 0,
        }
    }
}

/// Floor division by `2^k` (arithmetic shift, exact for negatives too).
#[inline]
fn floor_shift(x: i64, k: u32) -> i64 {
    x >> k
}

/// A feed-forward network.
#[derive(Debug, Clone)]
pub struct Network {
    /// The layers in execution order.
    pub layers: Vec<Layer>,
    /// Input shape (CHW).
    pub input_shape: Vec<usize>,
}

/// The full forward trace: the output plus every layer's activation.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Per-layer outputs (activation after each layer), in order.
    pub activations: Vec<Tensor>,
}

impl Trace {
    /// The network output (logits).
    pub fn output(&self) -> &Tensor {
        self.activations.last().expect("non-empty network")
    }
}

impl Network {
    /// Runs quantized inference, recording all intermediate activations.
    ///
    /// # Panics
    ///
    /// Panics if the input shape does not match the network.
    pub fn forward(&self, input: &Tensor) -> Trace {
        assert_eq!(input.shape(), &self.input_shape[..], "input shape mismatch");
        let mut activations = Vec::with_capacity(self.layers.len());
        let mut current = input.clone();
        for layer in &self.layers {
            current = apply_layer(layer, &current);
            activations.push(current.clone());
        }
        Trace { activations }
    }

    /// Total multiply–accumulates of one inference.
    pub fn total_macs(&self) -> usize {
        let mut shape = self.input_shape.clone();
        let mut total = 0usize;
        for layer in &self.layers {
            total += layer.macs(&shape);
            shape = output_shape(layer, &shape);
        }
        total
    }

    /// Total secret parameters.
    pub fn total_params(&self) -> usize {
        self.layers.iter().map(Layer::num_params).sum()
    }

    /// All parameters flattened in layer order (the model the service
    /// commits to in preprocessing).
    pub fn flat_params(&self) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.total_params());
        for layer in &self.layers {
            match layer {
                Layer::Conv3x3 { weights, bias, .. } | Layer::Dense { weights, bias, .. } => {
                    out.extend_from_slice(weights);
                    out.extend_from_slice(bias);
                }
                _ => {}
            }
        }
        out
    }
}

/// Computes the output shape of a layer for a given input shape.
pub fn output_shape(layer: &Layer, input: &[usize]) -> Vec<usize> {
    match layer {
        Layer::Conv3x3 { out_ch, .. } => vec![*out_ch, input[1], input[2]],
        Layer::Relu => input.to_vec(),
        Layer::SumPool2x2 => vec![input[0], input[1] / 2, input[2] / 2],
        Layer::Dense { out_dim, .. } => vec![*out_dim],
        Layer::Flatten => vec![input.iter().product()],
    }
}

fn apply_layer(layer: &Layer, input: &Tensor) -> Tensor {
    match layer {
        Layer::Conv3x3 {
            out_ch,
            in_ch,
            weights,
            bias,
        } => {
            let (h, w) = (input.shape()[1], input.shape()[2]);
            assert_eq!(input.shape()[0], *in_ch, "channel mismatch");
            let mut out = Tensor::zeros(vec![*out_ch, h, w]);
            for oc in 0..*out_ch {
                for y in 0..h {
                    for x in 0..w {
                        let mut acc = bias[oc];
                        for ic in 0..*in_ch {
                            for ky in 0..3usize {
                                for kx in 0..3usize {
                                    let iy = y as i64 + ky as i64 - 1;
                                    let ix = x as i64 + kx as i64 - 1;
                                    if iy < 0 || ix < 0 || iy >= h as i64 || ix >= w as i64 {
                                        continue;
                                    }
                                    let wv = weights[((oc * in_ch + ic) * 3 + ky) * 3 + kx];
                                    acc += wv * input.at_chw(ic, iy as usize, ix as usize);
                                }
                            }
                        }
                        out.data_mut()[(oc * h + y) * w + x] = floor_shift(acc, REQUANT_SHIFT);
                    }
                }
            }
            out
        }
        Layer::Relu => {
            let data = input.data().iter().map(|&v| v.max(0)).collect();
            Tensor::new(data, input.shape().to_vec())
        }
        Layer::SumPool2x2 => {
            let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
            let (oh, ow) = (h / 2, w / 2);
            let mut out = Tensor::zeros(vec![c, oh, ow]);
            for ch in 0..c {
                for y in 0..oh {
                    for x in 0..ow {
                        let s = input.at_chw(ch, 2 * y, 2 * x)
                            + input.at_chw(ch, 2 * y, 2 * x + 1)
                            + input.at_chw(ch, 2 * y + 1, 2 * x)
                            + input.at_chw(ch, 2 * y + 1, 2 * x + 1);
                        out.data_mut()[(ch * oh + y) * ow + x] = s;
                    }
                }
            }
            out
        }
        Layer::Dense {
            out_dim,
            in_dim,
            weights,
            bias,
        } => {
            assert_eq!(input.len(), *in_dim, "dense input mismatch");
            let data = (0..*out_dim)
                .map(|o| {
                    let acc: i64 = bias[o]
                        + (0..*in_dim)
                            .map(|i| weights[o * in_dim + i] * input.data()[i])
                            .sum::<i64>();
                    floor_shift(acc, REQUANT_SHIFT)
                })
                .collect();
            Tensor::new(data, vec![*out_dim])
        }
        Layer::Flatten => {
            let mut t = input.clone();
            t.reshape(vec![input.len()]);
            t
        }
    }
}

/// Builds a VGG-16-shaped network for 32×32×3 (CIFAR-10) inputs with the
/// channel widths divided by `width_divisor` (1 = the full VGG-16 shape;
/// larger divisors give the proportionally scaled-down variants the
/// benchmarks sweep). Weights are synthetic (`DESIGN.md`: trained-model
/// accuracy is orthogonal to proving throughput).
///
/// # Panics
///
/// Panics if `width_divisor` is 0 or does not divide 64.
pub fn vgg16(width_divisor: usize) -> Network {
    assert!(
        width_divisor > 0 && 64 % width_divisor == 0,
        "width divisor must divide 64"
    );
    let d = width_divisor;
    // Classic VGG-16 configuration: M = 2×2 pool.
    let cfg: [&[usize]; 5] = [
        &[64 / d, 64 / d],
        &[128 / d, 128 / d],
        &[256 / d, 256 / d, 256 / d],
        &[512 / d, 512 / d, 512 / d],
        &[512 / d, 512 / d, 512 / d],
    ];
    let mut layers = Vec::new();
    let mut in_ch = 3usize;
    let mut seed = 1u64;
    for block in cfg {
        for &out_ch in block {
            let out_ch = out_ch.max(1);
            layers.push(Layer::Conv3x3 {
                out_ch,
                in_ch,
                weights: synthetic_weights(out_ch * in_ch * 9, 8, seed),
                bias: synthetic_weights(out_ch, 64, seed + 1),
            });
            layers.push(Layer::Relu);
            in_ch = out_ch;
            seed += 2;
        }
        layers.push(Layer::SumPool2x2);
    }
    layers.push(Layer::Flatten);
    // After five pools a 32×32 input is 1×1: the flat dim equals in_ch.
    let fc_dims = [(512 / d).max(1), (512 / d).max(1), 10];
    let mut in_dim = in_ch;
    for out_dim in fc_dims {
        layers.push(Layer::Dense {
            out_dim,
            in_dim,
            weights: synthetic_weights(out_dim * in_dim, 8, seed),
            bias: synthetic_weights(out_dim, 64, seed + 1),
        });
        layers.push(Layer::Relu);
        in_dim = out_dim;
        seed += 2;
    }
    layers.pop(); // no ReLU after the final logits
    Network {
        layers,
        input_shape: vec![3, 32, 32],
    }
}

/// A tiny CNN for tests: one conv block plus a dense head on an 8×8 input.
pub fn tiny_cnn() -> Network {
    let layers = vec![
        Layer::Conv3x3 {
            out_ch: 2,
            in_ch: 1,
            weights: synthetic_weights(2 * 9, 8, 100),
            bias: synthetic_weights(2, 16, 101),
        },
        Layer::Relu,
        Layer::SumPool2x2,
        Layer::Flatten,
        Layer::Dense {
            out_dim: 4,
            in_dim: 2 * 4 * 4,
            weights: synthetic_weights(4 * 32, 8, 102),
            bias: synthetic_weights(4, 16, 103),
        },
    ];
    Network {
        layers,
        input_shape: vec![1, 8, 8],
    }
}

/// A deterministic synthetic CIFAR-10-shaped input image.
pub fn synthetic_image(seed: u64, shape: &[usize]) -> Tensor {
    let len = shape.iter().product();
    Tensor::new(synthetic_weights(len, 100, seed ^ 0xface), shape.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_cnn_forward_shapes() {
        let net = tiny_cnn();
        let input = synthetic_image(1, &net.input_shape);
        let trace = net.forward(&input);
        assert_eq!(trace.activations.len(), net.layers.len());
        assert_eq!(trace.output().shape(), &[4]);
    }

    #[test]
    fn relu_clamps_negative() {
        let net = tiny_cnn();
        let input = synthetic_image(2, &net.input_shape);
        let trace = net.forward(&input);
        // Activation after the ReLU layer (index 1) is non-negative.
        assert!(trace.activations[1].data().iter().all(|&v| v >= 0));
    }

    #[test]
    fn inference_is_deterministic() {
        let net = tiny_cnn();
        let input = synthetic_image(3, &net.input_shape);
        assert_eq!(net.forward(&input).output(), net.forward(&input).output());
    }

    #[test]
    fn vgg16_full_shape() {
        let net = vgg16(16); // scaled down for test speed
        assert_eq!(net.input_shape, vec![3, 32, 32]);
        // 13 conv + 13 relu + 5 pool + flatten + 3 dense + 2 relu = 37
        assert_eq!(net.layers.len(), 37);
        let input = synthetic_image(4, &net.input_shape);
        let trace = net.forward(&input);
        assert_eq!(trace.output().shape(), &[10]);
    }

    #[test]
    fn vgg16_macs_scale_with_width() {
        // Full VGG-16 on 32x32: ~313M MACs (CIFAR variant ~ 313M).
        let full = vgg16(1).total_macs();
        assert!(
            (200_000_000..500_000_000).contains(&full),
            "full VGG-16 MACs = {full}"
        );
        let eighth = vgg16(8).total_macs();
        assert!(eighth < full / 30, "width/8 should cut MACs ~64x: {eighth}");
    }

    #[test]
    fn floor_shift_matches_floor_division() {
        for x in [-1000i64, -129, -128, -127, -1, 0, 1, 127, 128, 1000] {
            let expect = (x as f64 / 128.0).floor() as i64;
            assert_eq!(floor_shift(x, 7), expect, "x={x}");
        }
    }

    #[test]
    fn total_params_counts_weights_and_bias() {
        let net = tiny_cnn();
        assert_eq!(net.total_params(), 2 * 9 + 2 + 4 * 32 + 4);
        assert_eq!(net.flat_params().len(), net.total_params());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn wrong_input_shape_panics() {
        let net = tiny_cnn();
        let _ = net.forward(&Tensor::zeros(vec![1, 4, 4]));
    }
}
