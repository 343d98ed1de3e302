//! Rank-1 constraint systems: the circuit representation the full ZKP
//! system proves (the paper's "circuit compiled from the function to be
//! proved", with `S` multiplication gates ⇒ `S` constraints in Table 7).
//!
//! The assignment vector is laid out Spartan-style in two power-of-two
//! halves: `z = (io ‖ w)` where `io = (1, x, 0, ...)` is public and `w` is
//! the committed witness. The multilinear extension then splits on the top
//! variable: `z̃(y, y_top) = (1-y_top)·ĩo(y) + y_top·w̃(y)`, which lets the
//! verifier evaluate the public half itself while the PCS opens only `w̃`.
//!
//! Only two windows of that layout are live: `io = (1, x)` at columns
//! `[0, 1 + num_inputs)` and `w` at `[half_len, half_len + num_witness)`.
//! [`R1cs::new`] checks that every matrix entry lies in them, so every vector
//! over the columns that the prover or the verifier builds — `z` itself, the
//! row-bound matrix polynomial of sum-check #2, the `eq(ry, ·)` table — is
//! held as its two windows ([`Windows`]) and never filled out to `2·half_len`
//! entries: each skipped entry is an exact zero. The matrices themselves
//! index only the live columns `io ‖ w`, as `u32`s.

use batchzk_field::{field_from_i64, Field, NARROW_BOUND};
use batchzk_sumcheck::eq_table_prefix;
#[cfg(test)]
use batchzk_sumcheck::MultilinearPoly;

/// A vector over the columns of the `z` layout, held as its two windows:
/// `io` at columns `[0, io.len())`, `w` at `[half_len, half_len + w.len())`,
/// and zero everywhere else.
#[derive(Debug, Clone, Copy)]
pub struct Windows<'a, F> {
    /// The prefix of the public half.
    pub io: &'a [F],
    /// The prefix of the witness half.
    pub w: &'a [F],
}

/// The top bit of a ±1 entry's `u32` column in [`Csr`]: set for −1.
const NEG: u32 = 1 << 31;

/// A sparse matrix in compressed rows over `u32` columns. Most of an R1CS
/// matrix is 1 or −1 (all of [`synthetic_r1cs`], 87 % of the VGG-16/64
/// circuit): such an entry is only its column, with the sign in [`NEG`],
/// and costs an addition or a subtraction; every other entry keeps its
/// value beside its column and costs a product.
#[derive(Debug, Clone)]
struct Csr<F> {
    /// Row `r`'s entries are `units[ends[r][0]..ends[r + 1][0]]` and
    /// `general[ends[r][1]..ends[r + 1][1]]`.
    ends: Vec<[u32; 2]>,
    /// The ±1 entries' signed columns.
    units: Vec<u32>,
    /// Every other entry as `(column, value)`.
    general: Vec<(u32, F)>,
}

impl<F: Field> Csr<F> {
    fn new() -> Self {
        Self {
            ends: vec![[0, 0]],
            units: Vec::new(),
            general: Vec::new(),
        }
    }

    /// Appends a row of `(column, coefficient)` entries, leaving out those
    /// whose coefficient is zero.
    fn push_row(&mut self, entries: impl IntoIterator<Item = (u32, F)>) {
        for (c, v) in entries {
            if v == F::ONE {
                self.units.push(c);
            } else if v == -F::ONE {
                self.units.push(c | NEG);
            } else if v != F::ZERO {
                self.general.push((c, v));
            }
        }
        let ends = [self.units.len(), self.general.len()];
        self.ends.push(ends.map(|e| e as u32));
    }

    fn rows(&self) -> usize {
        self.ends.len() - 1
    }

    fn nnz(&self) -> usize {
        self.units.len() + self.general.len()
    }

    /// Each row's ±1 and general entries.
    fn row_entries(&self) -> impl ExactSizeIterator<Item = (&[u32], &[(u32, F)])> {
        let (mut u, mut g) = (0, 0);
        self.ends[1..].iter().map(move |&[u_end, g_end]| {
            let row = (
                &self.units[u..u_end as usize],
                &self.general[g..g_end as usize],
            );
            (u, g) = (u_end as usize, g_end as usize);
            row
        })
    }

    /// Writes the row sums `(M · x)[r]` of the rows from `first` on into
    /// `out`, one a slot, for `x = (io ‖ w)` given as its two windows. A
    /// row's first ±1 entry starts its sum, so a row of one costs no
    /// addition, and a row's general entries share one deferred reduction
    /// ([`Field::dot_pairs`]) when there are two or more. The loop lives
    /// here, not in an iterator adapter, so the row body stays inlined.
    fn row_sums(&self, x: Windows<'_, F>, first: usize, out: &mut [F]) {
        let Windows { io, w } = x;
        let x = |c: u32| {
            let c = c as usize;
            if c < io.len() {
                io[c]
            } else {
                w[c - io.len()]
            }
        };
        let signed = |u: u32| {
            let v = x(u & !NEG);
            if u & NEG == 0 {
                v
            } else {
                -v
            }
        };
        let ends = &self.ends[first..=first + out.len()];
        let [mut u, mut g] = ends[0].map(|i| i as usize);
        for (slot, &[u_end, g_end]) in out.iter_mut().zip(&ends[1..]) {
            let units = &self.units[u..u_end as usize];
            let general = &self.general[g..g_end as usize];
            (u, g) = (u_end as usize, g_end as usize);
            let sum = match units {
                [] => F::ZERO,
                [first, rest @ ..] => rest.iter().fold(signed(*first), |s, &u| s + signed(u)),
            };
            *slot = match general {
                [] => sum,
                [(c, v)] => sum + *v * x(*c),
                _ => sum + F::dot_pairs(general.iter().map(|&(c, v)| (v, x(c)))),
            };
        }
    }

    /// Writes the row sums `(M · z)[r]` of every row into `out` in
    /// integers, for `z = (io ‖ w)` as narrow integers and `coeffs` the
    /// general entries' coefficients as integers ([`SmallCoeffs`]): a ±1
    /// entry adds or subtracts, a general one is an integer multiply. The
    /// caller bounds `Σ|coefficient|·max|z|` below 2^62, so no partial sum
    /// overflows. Returns whether every sum is narrow (`out` holds a wide
    /// one truncated).
    fn narrow_row_sums(&self, coeffs: &[i32], z: &[i32], out: &mut [i32]) -> bool {
        // Each row takes its counts of entries off one pass over all of them.
        let mut units = self.units.iter();
        let mut general = self.general.iter().zip(coeffs);
        let mut wide = false;
        for (slot, ends) in out.iter_mut().zip(self.ends.windows(2)) {
            let mut sum = 0i64;
            for &unit in units.by_ref().take((ends[1][0] - ends[0][0]) as usize) {
                // `v` or, with the sign bit set, `(v ^ −1) + 1 = −v`.
                let negative = i64::from(unit >> 31);
                sum += (i64::from(z[(unit & !NEG) as usize]) ^ -negative) + negative;
            }
            for (&(c, _), &k) in general.by_ref().take((ends[1][1] - ends[0][1]) as usize) {
                sum += i64::from(k) * i64::from(z[c as usize]);
            }
            wide |= sum.unsigned_abs() >= NARROW_BOUND as u64;
            *slot = sum as i32;
        }
        !wide
    }
}

/// The escape [`Gather::shapes`] holds for a group whose counts do not
/// [`pack`]: they are the next entry of [`Gather::long`].
const LONG: u16 = u16::MAX;

/// A group's counts `[plus, minus, general]` in one `u16` — six bits, then
/// five and five — when they fit (never [`LONG`]: `plus` stays below 63).
fn pack([plus, minus, general]: [u32; 3]) -> Option<u16> {
    let fits = plus < 63 && minus < 32 && general < 32;
    fits.then_some((plus | minus << 6 | general << 11) as u16)
}

/// The counts of a packed shape.
fn unpack(shape: u16) -> [usize; 3] {
    let s = usize::from(shape);
    [s & 63, s >> 6 & 31, s >> 11]
}

/// `[A; B; C]ᵀ` as matrix-bind gathers it: per live column and matrix one
/// group of that matrix's entries in the column, by kind — the rows of its
/// +1 entries, the rows of its −1 entries, then its general entries — so
/// that a group sums each sign with no test per entry
/// ([`Field::signed_sum`]). The groups follow column by column, A's, B's
/// then C's, and each stores only its counts: the gather walks them in
/// order.
#[derive(Debug, Clone)]
struct Gather<F> {
    /// Per column, per matrix, the group's [`pack`]ed counts or [`LONG`].
    shapes: Vec<u16>,
    /// The counts of the [`LONG`] groups, in order.
    long: Vec<[u32; 3]>,
    /// Each group's rows of +1 entries, then of −1 entries.
    units: Vec<u32>,
    /// Each group's general entries, with their rows.
    general: General<F>,
}

/// The general entries (every entry that is not ±1) of a [`Gather`].
#[derive(Debug, Clone)]
enum General<F> {
    /// A narrow circuit's ([`SmallCoeffs`]), with integer coefficients:
    /// a field × small product each.
    Small(Vec<(u32, i32)>),
    /// Any other circuit's, with field coefficients: a full product each.
    Field(Vec<(u32, F)>),
}

impl<F: Field> Gather<F> {
    /// Groups A, B and C over `cols` live columns, with their general
    /// entries' integer coefficients when the circuit has them. A counting
    /// sort — count per column, prefix sums, then fill matrix by matrix and
    /// sign by sign, so that each column lists its entries in group order
    /// — whose entries carry their stacked row `k·rows + r` and sign until
    /// one pass per column reads its groups' counts off them.
    fn new(matrices: &[Csr<F>; 3], small: Option<&SmallCoeffs>, cols: usize) -> Self {
        // What the gather keeps is allocated before the scratch it is
        // sorted with, so that freeing the scratch leaves no hole below it.
        let total = [0, 1].map(|i| {
            let lens = matrices.iter().map(|m| [m.units.len(), m.general.len()][i]);
            lens.sum::<usize>()
        });
        let mut units = vec![0; total[0]];
        // General entries as `(stacked row, index in their matrix)`.
        let mut general = vec![(0, 0); total[1]];
        let (mut shapes, mut long) = (Vec::with_capacity(3 * cols), Vec::new());
        // Each column's next free slot in `units` and `general`.
        let mut next = vec![[0u32; 2]; cols];
        for m in matrices {
            for &u in &m.units {
                next[(u & !NEG) as usize][0] += 1;
            }
            for &(c, _) in &m.general {
                next[c as usize][1] += 1;
            }
        }
        let mut offset = [0u32; 2];
        for slot in &mut next {
            let count = *slot;
            *slot = offset;
            offset = [offset[0] + count[0], offset[1] + count[1]];
        }
        let rows = matrices[0].rows();
        for (k, m) in matrices.iter().enumerate() {
            for sign in [0, NEG] {
                for (r, (row, _)) in m.row_entries().enumerate() {
                    for &u in row.iter().filter(|&&u| u & NEG == sign) {
                        let slot = &mut next[(u & !NEG) as usize][0];
                        units[*slot as usize] = (k * rows + r) as u32 | sign;
                        *slot += 1;
                    }
                }
            }
            let mut j = 0;
            for (r, (_, row)) in m.row_entries().enumerate() {
                for &(c, _) in row {
                    let slot = &mut next[c as usize][1];
                    general[*slot as usize] = ((k * rows + r) as u32, j);
                    *slot += 1;
                    j += 1;
                }
            }
        }
        // The matrix and row of a stacked row.
        let split = |s: u32| {
            let k = s as usize / rows;
            (k, s - (k * rows) as u32)
        };
        let mut start = [0; 2];
        for &end in &next {
            let mut counts = [[0u32; 3]; 3];
            for u in &mut units[start[0] as usize..end[0] as usize] {
                let (k, r) = split(*u & !NEG);
                counts[k][usize::from(*u & NEG != 0)] += 1;
                *u = r;
            }
            for &(s, _) in &general[start[1] as usize..end[1] as usize] {
                counts[split(s).0][2] += 1;
            }
            for counts in counts {
                shapes.push(pack(counts).unwrap_or_else(|| {
                    long.push(counts);
                    LONG
                }));
            }
            start = end;
        }
        let general = general.into_iter().map(|(s, j)| (split(s), j as usize));
        let general = match small {
            Some(small) => General::Small(
                general
                    .map(|((k, r), j)| (r, small.general[k][j]))
                    .collect(),
            ),
            None => General::Field(
                general
                    .map(|((k, r), j)| (r, matrices[k].general[j].1))
                    .collect(),
            ),
        };
        Self {
            shapes,
            long,
            units,
            general,
        }
    }

    /// Writes each live column's three sums `Σ_r x[r] · M(r, c)`, over A's,
    /// B's and C's entries, into `out[0]`, `out[1]` and `out[2]` at the
    /// column: an empty group is zero, a group of one ±1 entry a copy or a
    /// negation, and any other one [`Field::signed_sum`] — plus a full
    /// product per general entry of a circuit that is not narrow.
    fn sums(&self, x: &[F], out: [&mut [F]; 3]) {
        match &self.general {
            General::Small(general) => self.gather(x, general, out, F::signed_sum),
            General::Field(general) => self.gather(x, general, out, |x, plus, minus, general| {
                let units = F::signed_sum(x, plus, minus, &[]);
                general
                    .iter()
                    .fold(units, |s, &(r, v)| s + v * x[r as usize])
            }),
        }
    }

    /// [`Self::sums`] over the general entries `general`, which `sum`
    /// adds into a group of two or more entries. The loop lives here, not
    /// in an iterator adapter, so the group body stays inlined.
    fn gather<G>(
        &self,
        x: &[F],
        general: &[G],
        mut out: [&mut [F]; 3],
        sum: impl Fn(&[F], &[u32], &[u32], &[G]) -> F,
    ) {
        let (mut units, mut general, mut long) = (&self.units[..], general, self.long.iter());
        for (col, shapes) in self.shapes.chunks_exact(3).enumerate() {
            for (out, &shape) in out.iter_mut().zip(shapes) {
                let [plus, minus, scaled] = match shape {
                    LONG => long
                        .next()
                        .expect("a long group's counts")
                        .map(|n| n as usize),
                    _ => unpack(shape),
                };
                let (plus, rest) = units.split_at(plus);
                let (minus, rest) = rest.split_at(minus);
                let (scaled, rest_general) = general.split_at(scaled);
                (units, general) = (rest, rest_general);
                out[col] = match (plus, minus, scaled) {
                    ([], [], []) => F::ZERO,
                    ([r], [], []) => x[*r as usize],
                    ([], [r], []) => -x[*r as usize],
                    _ => sum(x, plus, minus, scaled),
                };
            }
        }
    }
}

/// A, B and C's coefficients as integers, classified once per circuit: the
/// integer spmv ([`R1cs::narrow_products`]) reads them, and [`Gather`]
/// keeps a copy beside its general entries.
#[derive(Debug, Clone)]
struct SmallCoeffs {
    /// Per matrix, the coefficient of each general entry (every entry that
    /// is not ±1), in the order the rows store them.
    general: [Vec<i32>; 3],
    /// Per matrix, the largest `Σ|coefficient|` of a row.
    row_abs: [u64; 3],
}

impl SmallCoeffs {
    /// The classes of `matrices`' coefficients, or `None` when one is not
    /// a narrow integer ([`Field::narrow_into`]): that disables the integer
    /// path for the circuit.
    fn classify<F: Field>(matrices: &[Csr<F>; 3]) -> Option<Self> {
        let [a, b, c] = matrices.each_ref().map(|m| {
            let mut coeffs = vec![0; m.general.len()];
            // The values pass through a stack block, not a heap copy.
            let mut block = [F::ZERO; 256];
            let chunks = m.general.chunks(256).zip(coeffs.chunks_mut(256));
            let narrow = chunks.into_iter().all(|(entries, coeffs)| {
                let values = &mut block[..entries.len()];
                for (v, &(_, e)) in values.iter_mut().zip(entries) {
                    *v = e;
                }
                F::narrow_into(values, coeffs)
            });
            narrow.then_some(coeffs)
        });
        let general = [a?, b?, c?];
        let row_abs = std::array::from_fn(|k| {
            let (m, coeffs) = (&matrices[k], &general[k]);
            let rows = m.ends.windows(2).map(|e| {
                let units = u64::from(e[1][0] - e[0][0]);
                let general = &coeffs[e[0][1] as usize..e[1][1] as usize];
                units
                    + general
                        .iter()
                        .map(|k| u64::from(k.unsigned_abs()))
                        .sum::<u64>()
            });
            rows.max().unwrap_or(0)
        });
        Some(Self { general, row_abs })
    }
}

/// `[A·z | B·z | C·z]` of an assignment that satisfies its circuit, as
/// narrow integers in three blocks of `padded_constraints`, zero past the
/// constraint count: only [`R1cs::narrow_products`] makes one, after the
/// integer satisfaction check. Round 1 of sum-check #1 runs on it.
#[derive(Debug, Clone, Copy)]
pub struct SatisfiedProducts<'a>(&'a [i32]);

impl<'a> SatisfiedProducts<'a> {
    /// The three tables `[A·z, B·z, C·z]`.
    pub fn tables(self) -> [&'a [i32]; 3] {
        let m = self.0.len() / 3;
        [0, 1, 2].map(|k| &self.0[k * m..(k + 1) * m])
    }
}

/// An R1CS instance: `(A·z) ∘ (B·z) = C·z` for `z = (io ‖ w)`.
///
/// A, B and C are held over the live columns `io ‖ w` only, as compressed
/// rows (`Csr`), beside one transpose of the three grouped for the gather
/// (`Gather`) and, when every coefficient is a narrow integer, their
/// integer classes.
#[derive(Debug, Clone)]
pub struct R1cs<F> {
    /// A, B and C.
    matrices: [Csr<F>; 3],
    /// A, B and C's coefficients as integers, if they all are.
    small: Option<SmallCoeffs>,
    /// `[A; B; C]ᵀ`, grouped per live column, matrix and sign
    /// (matrix-bind's gather).
    transpose: Gather<F>,
    /// Number of constraints (unpadded).
    num_constraints: usize,
    /// Public input count (excluding the leading constant one).
    num_inputs: usize,
    /// Witness variable count.
    num_witness: usize,
    /// Length of each z half (power of two).
    half_len: usize,
}

impl<F: Field> R1cs<F> {
    /// Assembles an instance from its constraints in order, each as its
    /// three rows `[a, b, c]` of `(column, coefficient)` entries over the
    /// `2 * half_len` columns of `z`, where `half_len` is the padded size of
    /// each half.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent dimensions or no constraints; if an entry's
    /// column lies outside the io window `[0, 1 + num_inputs)` and the
    /// witness window `[half_len, half_len + num_witness)` (the windowed
    /// prover and verifier read nothing else, so they are exact only under
    /// this condition); or if the live columns, `3·rows` or the non-zeros do
    /// not fit a `u32` with its top bit reserved for the sign.
    pub fn new<E: IntoIterator<Item = (usize, F)>>(
        constraints: impl IntoIterator<Item = [E; 3]>,
        num_inputs: usize,
        num_witness: usize,
        half_len: usize,
    ) -> Self {
        assert!(
            half_len.is_power_of_two(),
            "half length must be a power of two"
        );
        assert!(num_inputs < half_len, "io half overflow");
        assert!(num_witness <= half_len, "witness half overflow");
        let io_len = 1 + num_inputs;
        let witness = half_len..half_len + num_witness;
        let live_col = |col: usize| {
            let live = if col < io_len {
                col
            } else if witness.contains(&col) {
                io_len + col - half_len
            } else {
                panic!("matrix column {col} outside the io and witness windows")
            };
            live as u32
        };
        let mut matrices = [(); 3].map(|()| Csr::new());
        for row in constraints {
            for (m, entries) in matrices.iter_mut().zip(row) {
                m.push_row(entries.into_iter().map(|(c, v)| (live_col(c), v)));
            }
        }
        let num_constraints = matrices[0].rows();
        assert!(num_constraints > 0, "empty constraint system");
        let nnz: usize = matrices.iter().map(Csr::nnz).sum();
        let live = io_len + num_witness;
        assert!(
            [live, 3 * num_constraints, nnz]
                .iter()
                .all(|&n| n < NEG as usize),
            "live columns, 3·rows and non-zeros must fit a u32 with the sign bit reserved"
        );
        let small = SmallCoeffs::classify(&matrices);
        let transpose = Gather::new(&matrices, small.as_ref(), live);
        Self {
            matrices,
            small,
            transpose,
            num_constraints,
            num_inputs,
            num_witness,
            half_len,
        }
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.num_constraints
    }

    /// Constraint count padded to a power of two.
    pub fn padded_constraints(&self) -> usize {
        self.num_constraints.next_power_of_two().max(2)
    }

    /// Number of public inputs (excluding the constant one).
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of witness variables.
    pub fn num_witness(&self) -> usize {
        self.num_witness
    }

    /// Length of each z half.
    pub fn half_len(&self) -> usize {
        self.half_len
    }

    /// Total assignment length `2 * half_len`.
    pub fn z_len(&self) -> usize {
        2 * self.half_len
    }

    /// Total non-zeros across the three matrices: the entries they store,
    /// none of which has a zero coefficient.
    pub fn total_nnz(&self) -> usize {
        self.matrices.iter().map(Csr::nnz).sum()
    }

    /// Builds the full assignment `z = (1, x, 0.. ‖ w, 0..)`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `witness` have the wrong length.
    pub fn assemble_z(&self, inputs: &[F], witness: &[F]) -> Vec<F> {
        assert_eq!(inputs.len(), self.num_inputs, "wrong public input count");
        assert_eq!(witness.len(), self.num_witness, "wrong witness count");
        let mut z = vec![F::ZERO; self.z_len()];
        z[0] = F::ONE;
        z[1..1 + inputs.len()].copy_from_slice(inputs);
        z[self.half_len..self.half_len + witness.len()].copy_from_slice(witness);
        z
    }

    /// The io window `(1, x)` of the assignment.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` has the wrong length.
    pub fn io(&self, inputs: &[F]) -> Vec<F> {
        assert_eq!(inputs.len(), self.num_inputs, "wrong public input count");
        [&[F::ONE], inputs].concat()
    }

    /// The live [`Windows`] of an assignment: its io window (from
    /// [`Self::io`]) and its witness.
    ///
    /// # Panics
    ///
    /// Panics if either has the wrong length.
    pub fn live<'a>(&self, io: &'a [F], witness: &'a [F]) -> Windows<'a, F> {
        assert_eq!(io.len(), 1 + self.num_inputs, "wrong public input count");
        assert_eq!(witness.len(), self.num_witness, "wrong witness count");
        Windows { io, w: witness }
    }

    /// The live [`Windows`] of an assembled `z` ([`Self::assemble_z`]).
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != self.z_len()`.
    pub fn windows<'a>(&self, z: &'a [F]) -> Windows<'a, F> {
        assert_eq!(z.len(), self.z_len(), "assignment length mismatch");
        let w = &z[self.half_len..self.half_len + self.num_witness];
        self.live(&z[..1 + self.num_inputs], w)
    }

    /// The public half of z as a multilinear polynomial: the oracle of
    /// [`Self::io_eval`].
    #[cfg(test)]
    pub(crate) fn io_poly(&self, inputs: &[F]) -> MultilinearPoly<F> {
        let mut io = self.io(inputs);
        io.resize(self.half_len, F::ZERO);
        MultilinearPoly::new(io)
    }

    /// The public half's share of `z̃` at `ry`, `(1 − y_top)·ĩo(y')`, from the
    /// io window of `ry`'s `eq` table ([`Self::eq_windows`]), summed over the
    /// `1 + num_inputs` entries of `io`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` has the wrong length or `eq_io` is shorter than it.
    pub fn io_eval(&self, inputs: &[F], eq_io: &[F]) -> F {
        assert_eq!(inputs.len(), self.num_inputs, "wrong public input count");
        eq_io[0] + F::dot(inputs, &eq_io[1..=inputs.len()])
    }

    /// The two windows `[io, w]` of `eq(ry, ·)` over the columns, for
    /// `ry = (y', y_top)`: `(1 − y_top)·eq(y', ·)` over the first
    /// `1 + num_inputs` columns and `y_top·eq(y', ·)` over the first
    /// `num_witness` of the witness half, each built in `O(window)`
    /// ([`eq_table_prefix`]).
    ///
    /// # Panics
    ///
    /// Panics if `point_y` does not have `log₂ z_len` coordinates.
    pub fn eq_windows(&self, point_y: &[F]) -> [Vec<F>; 2] {
        assert_eq!(1 << point_y.len(), self.z_len(), "point dimension mismatch");
        let (&y_top, y) = point_y.split_last().expect("z has a top variable");
        [
            eq_table_prefix(y, 1 + self.num_inputs, F::ONE - y_top),
            eq_table_prefix(y, self.num_witness, y_top),
        ]
    }

    /// Checks that a vector's [`Windows`] are exactly the live windows.
    fn check_live(&self, v: Windows<'_, F>) {
        assert_eq!(
            [v.io.len(), v.w.len()],
            [1 + self.num_inputs, self.num_witness],
            "window lengths"
        );
    }

    /// The three matrix MLEs `[Ã, B̃, C̃](rx, ry)` as `⟨eq_rx, M · eq_y⟩`:
    /// per matrix the row sums against the windows of `eq(ry, ·)`
    /// ([`Self::eq_windows`]), dotted ([`Field::dot`]) with `eq_rx` a block
    /// of rows at a time, so no row vector is allocated.
    ///
    /// # Panics
    ///
    /// Panics if `eq_rx` is shorter than the constraint count or `eq_y`'s
    /// windows are not the live windows' lengths.
    pub fn matrix_evals(&self, eq_rx: &[F], eq_y: Windows<'_, F>) -> [F; 3] {
        self.check_live(eq_y);
        let eq_rx = &eq_rx[..self.num_constraints];
        self.matrices.each_ref().map(|m| {
            let mut block = [F::ZERO; 512];
            let blocks = eq_rx.chunks(block.len()).enumerate().map(|(i, eq)| {
                m.row_sums(eq_y, i * block.len(), &mut block[..eq.len()]);
                F::dot(eq, &block)
            });
            blocks.sum()
        })
    }

    /// Writes the three products `[A·z, B·z, C·z]`, one entry per
    /// constraint, into the three blocks of `padded_constraints` entries at
    /// the front of `out`, each zero past the constraint count: the tables
    /// sum-check #1 folds. Nothing `out` held is read.
    ///
    /// # Panics
    ///
    /// Panics if `z`'s windows are not the live windows' lengths or `out`
    /// is shorter than `3 · padded_constraints`.
    pub fn products(&self, z: Windows<'_, F>, out: &mut [F]) {
        self.check_live(z);
        let m = self.padded_constraints();
        for (matrix, table) in self.matrices.iter().zip(out[..3 * m].chunks_exact_mut(m)) {
            let (sums, padding) = table.split_at_mut(self.num_constraints);
            matrix.row_sums(z, 0, sums);
            padding.fill(F::ZERO);
        }
    }

    /// Whether [`Self::products`] of an assignment satisfy every
    /// constraint: `(A·z) ∘ (B·z) = C·z`.
    pub fn products_satisfy(&self, products: &[F]) -> bool {
        let m = self.padded_constraints();
        let [az, bz, cz] = [0, 1, 2].map(|k| &products[k * m..k * m + self.num_constraints]);
        az.iter().zip(bz).zip(cz).all(|((a, b), c)| *a * *b == *c)
    }

    /// Recovers `z`'s live windows `io ‖ w` as narrow integers
    /// ([`Field::narrow_into`]) into `out`, and whether they all are: it
    /// stops at the first block that is not, so a random assignment pays
    /// for one. `out`'s storage is kept from call to call.
    ///
    /// # Panics
    ///
    /// Panics if `z`'s windows are not the live windows' lengths.
    pub fn narrow_z(&self, z: Windows<'_, F>, out: &mut Vec<i32>) -> bool {
        self.check_live(z);
        out.resize(z.io.len() + z.w.len(), 0);
        let (io, w) = out.split_at_mut(z.io.len());
        F::narrow_into(z.io, io) && F::narrow_into(z.w, w)
    }

    /// [`Self::products`] in integers from the narrow `z` of
    /// [`Self::narrow_z`], written into `out` (resized to
    /// `3 · padded_constraints`), when they can be and satisfy the
    /// circuit: every coefficient is a narrow integer, `Σ|coefficient| ·
    /// max|z|` of every row is below 2^62, every row sum is narrow, and
    /// `(A·z)·(B·z) = C·z` holds in integers. Those integers are exact
    /// images of the field values, so they then stand for the field
    /// products, and `None` leaves the field path to decide.
    ///
    /// # Panics
    ///
    /// Panics if `z` is not the live windows' length.
    pub fn narrow_products<'a>(
        &self,
        z: &[i32],
        out: &'a mut Vec<i32>,
    ) -> Option<SatisfiedProducts<'a>> {
        assert_eq!(
            z.len(),
            1 + self.num_inputs + self.num_witness,
            "live length"
        );
        let small = self.small.as_ref()?;
        let max_z = z
            .iter()
            .map(|v| u64::from(v.unsigned_abs()))
            .max()
            .unwrap_or(0);
        let bounded = small
            .row_abs
            .iter()
            .all(|&r| u128::from(r) * u128::from(max_z) < 1 << 62);
        let m = self.padded_constraints();
        out.resize(3 * m, 0);
        let tables = self
            .matrices
            .iter()
            .zip(&small.general)
            .zip(out.chunks_exact_mut(m));
        let mut narrow = bounded;
        for ((matrix, coeffs), table) in tables {
            let (sums, padding) = table.split_at_mut(self.num_constraints);
            narrow = narrow && matrix.narrow_row_sums(coeffs, z, sums);
            padding.fill(0);
        }
        let [a, b, c] = [0, 1, 2].map(|k| &out[k * m..k * m + self.num_constraints]);
        let satisfied = narrow
            && a.iter()
                .zip(b)
                .zip(c)
                .all(|((&a, &b), &c)| i64::from(a) * i64::from(b) == i64::from(c));
        satisfied.then_some(SatisfiedProducts(out))
    }

    /// Checks satisfaction of every constraint.
    pub fn is_satisfied(&self, z: &[F]) -> bool {
        let mut products = vec![F::ZERO; 3 * self.padded_constraints()];
        z.len() == self.z_len() && {
            self.products(self.windows(z), &mut products);
            self.products_satisfy(&products)
        }
    }

    /// Writes the γ-combined row-bound matrix polynomial of Spartan's
    /// second sum-check, `Σ_k γ_k · Σ_x eq_x[x] · M_k(x, ·)` for
    /// `M = (A, B, C)`, into `out` as its two live windows `io ‖ w` (of
    /// `1 + num_inputs` and `num_witness` entries): the columns outside
    /// them are zero. `eq_x` is `eq` over the constraint rows; `s_b` and
    /// `s_c`, as long as `out`, are worked in and their contents unread.
    ///
    /// It gathers each live column's three per-matrix sums
    /// `Σ_x eq_x[x] · M_k(x, c)` from the grouped transpose into `out`,
    /// `s_b` and `s_c` — one pass over the non-zeros, each sign of a group
    /// summed unreduced and reduced once ([`Field::signed_sum`]), a field ×
    /// small product for each entry that is not ±1 of a narrow circuit (a
    /// full one otherwise), and no copy or scale of `eq_x` — then applies γ
    /// once per column, `out ← γ_A·out + γ_B·s_b + γ_C·s_c`
    /// ([`Field::combine`]): three products and one reduction a column.
    ///
    /// # Panics
    ///
    /// Panics if `eq_x` is not `num_constraints` entries, `gamma` does not
    /// hold three elements, or `out`, `s_b` or `s_c` is not the live
    /// windows' length.
    pub fn bind_rows_combined(
        &self,
        eq_x: &[F],
        gamma: &[F],
        out: &mut [F],
        [s_b, s_c]: [&mut [F]; 2],
    ) {
        let &[g_a, g_b, g_c] = gamma else {
            panic!("one γ per matrix")
        };
        assert_eq!(eq_x.len(), self.num_constraints, "one eq entry per row");
        let live = 1 + self.num_inputs + self.num_witness;
        assert!(
            [out.len(), s_b.len(), s_c.len()] == [live; 3],
            "window lengths"
        );
        self.transpose.sums(eq_x, [out, s_b, s_c]);
        F::combine(out, g_a, [(s_b, g_b), (s_c, g_c)]);
    }
}

/// A linear combination of variables, as `(variable, coefficient)` pairs.
pub type Lc<F> = Vec<(Var, F)>;

/// A variable reference in the builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Var {
    /// The constant 1.
    One,
    /// Public input `i` (0-based).
    Input(usize),
    /// Witness variable `i` (0-based).
    Witness(usize),
}

/// Incremental R1CS construction.
///
/// # Examples
///
/// ```
/// use batchzk_zkp::r1cs::{R1csBuilder, Var};
/// use batchzk_field::{Field, Fr};
///
/// // Prove knowledge of w with w * w = x.
/// let mut b = R1csBuilder::<Fr>::new();
/// let x = b.new_input();
/// let w = b.new_witness();
/// b.enforce(
///     vec![(Var::Witness(w), Fr::ONE)],
///     vec![(Var::Witness(w), Fr::ONE)],
///     vec![(Var::Input(x), Fr::ONE)],
/// );
/// let r1cs = b.build();
/// let z = r1cs.assemble_z(&[Fr::from(9u64)], &[Fr::from(3u64)]);
/// assert!(r1cs.is_satisfied(&z));
/// ```
#[derive(Debug, Clone)]
pub struct R1csBuilder<F> {
    constraints: Vec<(Lc<F>, Lc<F>, Lc<F>)>,
    num_inputs: usize,
    num_witness: usize,
}

impl<F: Field> Default for R1csBuilder<F> {
    fn default() -> Self {
        Self::new()
    }
}

impl<F: Field> R1csBuilder<F> {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self {
            constraints: Vec::new(),
            num_inputs: 0,
            num_witness: 0,
        }
    }

    /// Allocates a public input, returning its index.
    pub fn new_input(&mut self) -> usize {
        self.num_inputs += 1;
        self.num_inputs - 1
    }

    /// Allocates a witness variable, returning its index.
    pub fn new_witness(&mut self) -> usize {
        self.num_witness += 1;
        self.num_witness - 1
    }

    /// Adds the constraint `⟨a, z⟩ · ⟨b, z⟩ = ⟨c, z⟩`.
    pub fn enforce(&mut self, a: Lc<F>, b: Lc<F>, c: Lc<F>) {
        self.constraints.push((a, b, c));
    }

    /// Number of constraints so far.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Finalizes the instance.
    ///
    /// # Panics
    ///
    /// Panics if no constraints were added.
    pub fn build(self) -> R1cs<F> {
        let half_len = (1 + self.num_inputs)
            .max(self.num_witness)
            .next_power_of_two()
            .max(2);
        let col = |var: Var| match var {
            Var::One => 0,
            Var::Input(i) => {
                assert!(i < self.num_inputs, "unallocated input {i}");
                1 + i
            }
            Var::Witness(i) => {
                assert!(i < self.num_witness, "unallocated witness {i}");
                half_len + i
            }
        };
        let rows = self
            .constraints
            .iter()
            .map(|(a, b, c)| [a, b, c].map(|lc| lc.iter().map(|&(v, coeff)| (col(v), coeff))));
        R1cs::new(rows, self.num_inputs, self.num_witness, half_len)
    }
}

/// Generates a satisfiable synthetic instance with `s` multiplication
/// constraints — the workload shape of Table 7 ("circuits with S
/// multiplication gates").
///
/// The circuit chains multiplications `w_{i+1} = w_i · w_{g(i)}` with a
/// final public output, giving matrices of ~1 non-zero per row per matrix
/// (the sparsity regime real circuits have).
pub fn synthetic_r1cs<F: Field>(s: usize, seed: u64) -> (R1cs<F>, Vec<F>, Vec<F>) {
    use batchzk_field::{RngCore, SplitMix64};
    assert!(s >= 2, "need at least two constraints");
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut builder = R1csBuilder::<F>::new();
    let x = builder.new_input();

    // Witness values computed alongside the constraints.
    let mut w_vals: Vec<F> = vec![F::random(&mut rng)];
    let w0 = builder.new_witness();
    debug_assert_eq!(w0, 0);
    for i in 1..s {
        let j = rng.gen_range(0..w_vals.len());
        let wi = builder.new_witness();
        let val = w_vals[i - 1] * w_vals[j];
        builder.enforce(
            vec![(Var::Witness(i - 1), F::ONE)],
            vec![(Var::Witness(j), F::ONE)],
            vec![(Var::Witness(wi), F::ONE)],
        );
        w_vals.push(val);
    }
    // Expose the last value as the public input: w_last * 1 = x.
    let last = w_vals.len() - 1;
    builder.enforce(
        vec![(Var::Witness(last), F::ONE)],
        vec![(Var::One, F::ONE)],
        vec![(Var::Input(x), F::ONE)],
    );
    let inputs = vec![w_vals[last]];
    let r1cs = builder.build();
    (r1cs, inputs, w_vals)
}

/// Generates a satisfiable instance of `s` constraints over small integers,
/// the shape of a quantized network's circuit: each constraint multiplies a
/// combination of earlier values — coefficients ±1, ±2^i and other small
/// integers — by a small value or the constant one, and defines a new
/// witness as that product plus an earlier value; every fifth instead
/// checks that a combination less itself is zero, and the last exposes the
/// final value as the public input. Every value, product and row sum is a
/// narrow integer ([`NARROW_BOUND`]), so the prover runs on the integers
/// until the first challenge (DESIGN.md §16).
///
/// # Panics
///
/// Panics if `s < 2`.
pub fn small_r1cs<F: Field>(s: usize, seed: u64) -> (R1cs<F>, Vec<F>, Vec<F>) {
    let (builder, inputs, witness) = small_builder(s, seed);
    let lift = |values: Vec<i64>| values.into_iter().map(field_from_i64).collect();
    (builder.build(), lift(inputs), lift(witness))
}

/// [`small_r1cs`] before it is built: the builder, and the integers its
/// inputs and witnesses hold.
pub(crate) fn small_builder<F: Field>(s: usize, seed: u64) -> (R1csBuilder<F>, Vec<i64>, Vec<i64>) {
    use batchzk_field::{RngCore, SplitMix64};
    assert!(s >= 2, "need at least two constraints");
    /// A witness's index at random, or the one holding 0 or 1 when the
    /// value drawn exceeds `bound`.
    fn pick(rng: &mut SplitMix64, w: &[i64], bound: i64) -> usize {
        let j = rng.gen_range(0..w.len());
        if w[j].abs() <= bound {
            j
        } else {
            1
        }
    }
    fn coeff(rng: &mut SplitMix64) -> i64 {
        let magnitude = match rng.gen_range(0..3) {
            0 => 1,
            1 => 1 << rng.gen_range(1..12),
            _ => rng.gen_range(3..100) as i64,
        };
        if rng.next_u64() & 1 == 0 {
            magnitude
        } else {
            -magnitude
        }
    }
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut b = R1csBuilder::<F>::new();
    let x = b.new_input();
    let mut w = vec![rng.gen_range(0..17) as i64 - 8, rng.gen_range(0..2) as i64];
    for _ in 0..2 {
        b.new_witness();
    }
    let one_term = || vec![(Var::One, F::ONE)];
    for i in 1..s {
        // Combinations of values up to 2^12, times at most 16: below 2^29.
        let terms: Vec<(usize, i64)> = (0..rng.gen_range(1..4))
            .map(|_| (pick(&mut rng, &w, 1 << 12), coeff(&mut rng)))
            .collect();
        let lc = |sign: i64| {
            let terms = terms.iter();
            terms.map(move |&(j, c)| (Var::Witness(j), field_from_i64::<F>(sign * c)))
        };
        if i % 5 == 0 {
            b.enforce(lc(1).chain(lc(-1)).collect(), one_term(), vec![]);
            continue;
        }
        let a: i64 = terms.iter().map(|&(j, c)| c * w[j]).sum();
        let (b_lc, b_value) = if rng.next_u64() & 1 == 0 {
            (one_term(), 1)
        } else {
            let j = pick(&mut rng, &w, 16);
            (vec![(Var::Witness(j), F::ONE)], w[j])
        };
        let k = pick(&mut rng, &w, 1 << 12);
        let v = Var::Witness(b.new_witness());
        w.push(a * b_value + w[k]);
        let c = vec![(v, F::ONE), (Var::Witness(k), -F::ONE)];
        b.enforce(lc(1).collect(), b_lc, c);
    }
    let last = Var::Witness(w.len() - 1);
    b.enforce(
        vec![(last, F::ONE)],
        one_term(),
        vec![(Var::Input(x), F::ONE)],
    );
    (b, vec![w[w.len() - 1]], w)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use batchzk_field::{Fr, RngCore, SplitMix64};
    use batchzk_hash::Prg;
    use batchzk_sumcheck::eq_table;

    /// A matrix as `(row, column of z, value)` triplets.
    pub(crate) type Triplets<F> = Vec<(usize, usize, F)>;

    /// The padded row binding `m(y) = Σ_x eq_x[x] · M(x, y)` over all `cols`
    /// columns: the plain triplet loop the gather is tested against.
    pub(crate) fn bind_rows<F: Field>(m: &[(usize, usize, F)], cols: usize, eq_x: &[F]) -> Vec<F> {
        let mut out = vec![F::ZERO; cols];
        for &(r, c, v) in m {
            out[c] += v * eq_x[r];
        }
        out
    }

    /// [`R1cs::products`] into a new buffer holding no zeros, checked zero
    /// past the constraint count, as the three constraint-length vectors.
    pub(crate) fn products<F: Field>(r1cs: &R1cs<F>, z: Windows<'_, F>) -> [Vec<F>; 3] {
        let (m, rows) = (r1cs.padded_constraints(), r1cs.num_constraints());
        let mut out = vec![-F::ONE; 3 * m];
        r1cs.products(z, &mut out);
        let mut padding = out.chunks(m).flat_map(|t| &t[rows..]);
        assert!(padding.all(F::is_zero), "products' padding");
        [0, 1, 2].map(|k| out[k * m..k * m + rows].to_vec())
    }

    /// [`R1cs::bind_rows_combined`] over `eq_x`'s first rows, in new buffers
    /// holding no zeros, as its two windows.
    pub(crate) fn bind<F: Field>(r1cs: &R1cs<F>, eq_x: &[F], gamma: &[F]) -> [Vec<F>; 2] {
        let (rows, io) = (r1cs.num_constraints(), 1 + r1cs.num_inputs());
        let [mut out, mut s_b, mut s_c] = [(); 3].map(|()| vec![-F::ONE; io + r1cs.num_witness()]);
        r1cs.bind_rows_combined(&eq_x[..rows], gamma, &mut out, [&mut s_b, &mut s_c]);
        let (io, w) = out.split_at(io);
        [io.to_vec(), w.to_vec()]
    }

    /// The padded matrix MLE `M̃(rx, ry)` against full `eq` tables: the
    /// plain triplet loop [`R1cs::matrix_evals`] is tested against.
    pub(crate) fn mle_eval<F: Field>(m: &[(usize, usize, F)], eq_rx: &[F], eq_ry: &[F]) -> F {
        m.iter().map(|&(r, c, v)| v * eq_rx[r] * eq_ry[c]).sum()
    }

    /// The column of `z` that live column `c` stands for.
    fn z_col<F>(r1cs: &R1cs<F>, c: usize) -> usize {
        if c <= r1cs.num_inputs {
            c
        } else {
            r1cs.half_len + c - 1 - r1cs.num_inputs
        }
    }

    /// A matrix's entries as `(row, column, value)`, in row order.
    fn entries<F: Field>(m: &Csr<F>) -> Triplets<F> {
        let mut out = Vec::new();
        for (r, (units, general)) in m.row_entries().enumerate() {
            for &u in units {
                let v = if u & NEG == 0 { F::ONE } else { -F::ONE };
                out.push((r, (u & !NEG) as usize, v));
            }
            out.extend(general.iter().map(|&(c, v)| (r, c as usize, v)));
        }
        out
    }

    /// A, B and C as triplets over the columns of `z`, read back from their
    /// rows.
    pub(crate) fn triplets<F: Field>(r1cs: &R1cs<F>) -> [Triplets<F>; 3] {
        r1cs.matrices.each_ref().map(|m| {
            let entries = entries(m).into_iter();
            entries.map(|(r, c, v)| (r, z_col(r1cs, c), v)).collect()
        })
    }

    /// The same, read back from the grouped transpose.
    fn transpose_triplets<F: Field>(r1cs: &R1cs<F>) -> [Triplets<F>; 3] {
        let t = &r1cs.transpose;
        let general: Vec<(u32, F)> = match &t.general {
            General::Small(g) => g
                .iter()
                .map(|&(r, k)| (r, field_from_i64(k.into())))
                .collect(),
            General::Field(g) => g.clone(),
        };
        let (mut units, mut general, mut long) = (&t.units[..], &general[..], t.long.iter());
        let mut out = [(); 3].map(|()| Vec::new());
        for (i, &shape) in t.shapes.iter().enumerate() {
            let (c, k) = (z_col(r1cs, i / 3), i % 3);
            let [plus, minus, scaled] = match shape {
                LONG => long.next().expect("long counts").map(|n| n as usize),
                _ => unpack(shape),
            };
            let signed = [(F::ONE, plus), (-F::ONE, minus)].map(|(v, n)| {
                let (rows, rest) = units.split_at(n);
                units = rest;
                rows.iter().map(move |&r| (r as usize, c, v))
            });
            out[k].extend(signed.into_iter().flatten());
            let (entries, rest) = general.split_at(scaled);
            general = rest;
            out[k].extend(entries.iter().map(|&(r, v)| (r as usize, c, v)));
        }
        assert!(units.is_empty() && general.is_empty() && long.next().is_none());
        out
    }

    /// Triplets in a canonical order, so that equal multisets compare equal.
    fn sorted(m: Triplets<Fr>) -> Vec<(usize, usize, [u8; 32])> {
        let mut keyed: Vec<_> = m
            .into_iter()
            .map(|(r, c, v)| (r, c, v.to_bytes()))
            .collect();
        keyed.sort_unstable();
        keyed
    }

    fn square_instance() -> (R1cs<Fr>, Vec<Fr>, Vec<Fr>) {
        // w*w = x
        let mut b = R1csBuilder::<Fr>::new();
        let x = b.new_input();
        let w = b.new_witness();
        b.enforce(
            vec![(Var::Witness(w), Fr::ONE)],
            vec![(Var::Witness(w), Fr::ONE)],
            vec![(Var::Input(x), Fr::ONE)],
        );
        (b.build(), vec![Fr::from(49u64)], vec![Fr::from(7u64)])
    }

    #[test]
    fn satisfaction() {
        let (r1cs, inputs, witness) = square_instance();
        let z = r1cs.assemble_z(&inputs, &witness);
        assert!(r1cs.is_satisfied(&z));
        // Wrong witness fails.
        let bad = r1cs.assemble_z(&inputs, &[Fr::from(8u64)]);
        assert!(!r1cs.is_satisfied(&bad));
        // Wrong input fails.
        let bad = r1cs.assemble_z(&[Fr::from(50u64)], &witness);
        assert!(!r1cs.is_satisfied(&bad));
    }

    #[test]
    fn synthetic_instances_satisfy() {
        for s in [2usize, 5, 37, 200] {
            let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(s, s as u64);
            let z = r1cs.assemble_z(&inputs, &witness);
            assert!(r1cs.is_satisfied(&z), "s={s}");
            assert_eq!(r1cs.num_constraints(), s);
        }
    }

    #[test]
    fn synthetic_rejects_tampered_witness() {
        let (r1cs, inputs, mut witness) = synthetic_r1cs::<Fr>(50, 1);
        witness[25] += Fr::ONE;
        let z = r1cs.assemble_z(&inputs, &witness);
        assert!(!r1cs.is_satisfied(&z));
    }

    #[test]
    fn bind_rows_matches_direct_computation() {
        // γ = (1, 0, 0) binds A alone.
        let (r1cs, _, _) = synthetic_r1cs::<Fr>(20, 2);
        let mut rng = Prg::seed_from_u64(3);
        let log_m = r1cs.padded_constraints().trailing_zeros() as usize;
        let rx: Vec<Fr> = (0..log_m).map(|_| Fr::random(&mut rng)).collect();
        let eq_rx = eq_table(&rx);
        let [io, w] = bind(&r1cs, &eq_rx, &[Fr::ONE, Fr::ZERO, Fr::ZERO]);
        let [a, _, _] = triplets(&r1cs);
        // Check the ends of both windows against the triplet sum.
        let (half, last) = (r1cs.half_len(), w.len() - 1);
        for (col, bound) in [(0, io[0]), (1, io[1]), (half, w[0]), (half + last, w[last])] {
            let direct: Fr = a
                .iter()
                .filter(|&&(_, c, _)| c == col)
                .map(|&(r, _, v)| v * eq_rx[r])
                .sum();
            assert_eq!(bound, direct, "column {col}");
        }
    }

    #[test]
    fn mle_eval_consistent_with_bind_rows() {
        // M̃(rx, ry) must equal ⟨bind_rows(eq_rx), eq_ry⟩, and the row-wise
        // evaluation both.
        let (r1cs, _, _) = synthetic_r1cs::<Fr>(10, 4);
        let mut rng = Prg::seed_from_u64(5);
        let log_m = r1cs.padded_constraints().trailing_zeros() as usize;
        let log_n = r1cs.z_len().trailing_zeros() as usize;
        let rx: Vec<Fr> = (0..log_m).map(|_| Fr::random(&mut rng)).collect();
        let ry: Vec<Fr> = (0..log_n).map(|_| Fr::random(&mut rng)).collect();
        let eq_rx = eq_table(&rx);
        let eq_ry = eq_table(&ry);
        let evals = r1cs.matrix_evals(&eq_rx, r1cs.windows(&eq_ry));
        for (m, eval) in triplets(&r1cs).iter().zip(evals) {
            let via_bind: Fr = bind_rows(m, r1cs.z_len(), &eq_rx)
                .iter()
                .zip(&eq_ry)
                .map(|(a, b)| *a * *b)
                .sum();
            assert_eq!(mle_eval(m, &eq_rx, &eq_ry), via_bind);
            assert_eq!(eval, via_bind);
        }
    }

    #[test]
    fn combined_binding_matches_per_matrix_binding() {
        // The formula this replaced: bind each matrix, scale by its γ, add.
        let (r1cs, _, _) = synthetic_r1cs::<Fr>(37, 6);
        let mut rng = Prg::seed_from_u64(7);
        let eq_rx: Vec<Fr> = (0..r1cs.padded_constraints())
            .map(|_| Fr::random(&mut rng))
            .collect();
        let gamma: Vec<Fr> = (0..3).map(|_| Fr::random(&mut rng)).collect();
        let mut want = vec![Fr::ZERO; r1cs.z_len()];
        for (g, m) in gamma.iter().zip(triplets(&r1cs)) {
            for (slot, v) in want.iter_mut().zip(bind_rows(&m, r1cs.z_len(), &eq_rx)) {
                *slot += *g * v;
            }
        }
        assert_eq!(bind(&r1cs, &eq_rx, &gamma), padded_windows(&r1cs, &want));
    }

    /// The two live windows of a padded column vector, after checking that
    /// it is zero everywhere else.
    fn padded_windows(r1cs: &R1cs<Fr>, padded: &[Fr]) -> [Vec<Fr>; 2] {
        let Windows { io, w } = r1cs.windows(padded);
        let live = (0..io.len()).chain(r1cs.half_len()..r1cs.half_len() + w.len());
        let mut rest = padded.to_vec();
        for c in live {
            rest[c] = Fr::ZERO;
        }
        assert!(rest.iter().all(|v| v.is_zero()), "padding is not zero");
        [io.to_vec(), w.to_vec()]
    }

    /// A random instance's constraints, each as three rows of `(column of
    /// z, coefficient)`: rows that are empty, rows of general coefficients
    /// only, and mixed rows of 1, −1, 0 and random coefficients with
    /// repeated columns; on every third instance the last live column is
    /// never referenced.
    fn random_rows(
        rng: &mut SplitMix64,
        live: &[usize],
        rows: usize,
        skip_last: bool,
    ) -> Vec<[Vec<(usize, Fr)>; 3]> {
        let cols = &live[..live.len() - usize::from(skip_last)];
        // A row is empty, all general coefficients, all zero coefficients,
        // or a mix of ±1, zero and general ones.
        let row = |rng: &mut SplitMix64| {
            let kind = rng.gen_range(0..6);
            let len = if kind == 0 { 0 } else { rng.gen_range(1..7) };
            let mut entries: Vec<(usize, Fr)> = Vec::with_capacity(len);
            for _ in 0..len {
                let pick = match kind {
                    1 => 3,
                    2 => 2,
                    _ => rng.next_u64() % 4,
                };
                let v = match pick {
                    0 => Fr::ONE,
                    1 => -Fr::ONE,
                    2 => Fr::ZERO,
                    _ => Fr::random(rng),
                };
                let c = match entries.last() {
                    Some(&(c, _)) if rng.gen_range(0..3) == 0 => c,
                    _ => cols[rng.gen_range(0..cols.len())],
                };
                entries.push((c, v));
            }
            entries
        };
        (0..rows).map(|_| [(); 3].map(|()| row(rng))).collect()
    }

    #[test]
    fn sparse_kernels_match_the_plain_triplet_loop() {
        let mut rng = SplitMix64::seed_from_u64(0x37);
        let random = |rng: &mut SplitMix64, n: usize| -> Vec<Fr> {
            (0..n).map(|_| Fr::random(rng)).collect()
        };
        for rep in 0..48 {
            let half = 2usize << rng.gen_range(0..5);
            let num_inputs = if rep % 4 == 0 {
                0
            } else {
                rng.gen_range(0..half)
            };
            let num_witness = rng.gen_range(1..half + 1);
            // Now and then more rows than one block of `matrix_evals`.
            let rows = if rep % 8 == 7 {
                rng.gen_range(513..1100)
            } else {
                rng.gen_range(1..40)
            };
            let live: Vec<usize> = (0..=num_inputs).chain(half..half + num_witness).collect();
            let constraints = random_rows(&mut rng, &live, rows, rep % 3 == 0);
            let want: [Triplets<Fr>; 3] = std::array::from_fn(|k| {
                let rows = constraints.iter().enumerate();
                rows.flat_map(|(r, row)| row[k].iter().map(move |&(c, v)| (r, c, v)))
                    .collect()
            });
            let r1cs = R1cs::new(constraints, num_inputs, num_witness, half);
            let case =
                format!("rep {rep}: {rows} rows, {num_inputs} inputs, {num_witness} witnesses");
            // The matrices store exactly the entries with a non-zero
            // coefficient.
            let stored = want
                .clone()
                .map(|m| sorted(m.into_iter().filter(|t| t.2 != Fr::ZERO).collect()));
            let nnz: usize = stored.iter().map(Vec::len).sum();
            assert_eq!(r1cs.total_nnz(), nnz, "{case}: non-zeros");
            for (k, (csr, t)) in triplets(&r1cs)
                .into_iter()
                .zip(transpose_triplets(&r1cs))
                .enumerate()
            {
                assert_eq!(sorted(csr), stored[k], "{case}: rows of {k}");
                assert_eq!(sorted(t), stored[k], "{case}: transpose of {k}");
            }

            let cols = r1cs.z_len();
            let (z, eq_x, eq_y, gamma) = (
                random(&mut rng, cols),
                random(&mut rng, rows),
                random(&mut rng, cols),
                random(&mut rng, 3),
            );
            let products = products(&r1cs, r1cs.windows(&z));
            let evals = r1cs.matrix_evals(&eq_x, r1cs.windows(&eq_y));
            let mut combined = vec![Fr::ZERO; cols];
            for (k, (g, m)) in gamma.iter().zip(&want).enumerate() {
                let (mut mz, mut eval) = (vec![Fr::ZERO; rows], Fr::ZERO);
                for &(r, c, v) in m {
                    mz[r] += v * z[c];
                    combined[c] += *g * eq_x[r] * v;
                    eval += v * eq_x[r] * eq_y[c];
                }
                assert_eq!(products[k], mz, "{case}: products {k}");
                assert_eq!(evals[k], eval, "{case}: matrix_evals {k}");
                assert_eq!(mle_eval(m, &eq_x, &eq_y), eval, "{case}: mle_eval {k}");
                let bound = bind_rows(m, cols, &eq_x);
                let direct = (0..cols).map(|c| {
                    m.iter()
                        .filter(|t| t.1 == c)
                        .map(|&(r, _, v)| v * eq_x[r])
                        .sum()
                });
                assert!(bound.iter().copied().eq(direct), "{case}: bind_rows {k}");
            }
            assert_eq!(
                bind(&r1cs, &eq_x, &gamma),
                padded_windows(&r1cs, &combined),
                "{case}: binding"
            );
        }
    }

    /// The gather's groups past what a packed shape holds: a constant
    /// column every row of A references with alternating signs (as VGG's
    /// is), hot columns with runs of ±1 and of general coefficients of
    /// both signs up to the narrow bound, repeated entries; once narrow
    /// (integer coefficients) and once with a coefficient of 2^40 (the
    /// field path). Transpose and binding against the triplet oracle.
    #[test]
    fn grouped_gather_matches_the_plain_triplet_loop_on_long_columns() {
        let mut rng = SplitMix64::seed_from_u64(0x50);
        let edge = i64::from(NARROW_BOUND) - 1;
        let (num_inputs, num_witness, half, rows) = (3, 200, 256, 3000);
        let live: Vec<usize> = (0..=num_inputs).chain(half..half + num_witness).collect();
        for wide in [None, Some(1i64 << 40)] {
            let mut constraints: Vec<[Vec<(usize, Fr)>; 3]> = Vec::with_capacity(rows);
            for r in 0..rows {
                let sign = field_from_i64::<Fr>(if r % 2 == 0 { 1 } else { -1 });
                let mut general = || {
                    let k = match rng.gen_range(0..4) {
                        0 => edge,
                        1 => -edge,
                        _ => rng.gen_range(0..2 * edge as usize) as i64 - edge,
                    };
                    field_from_i64::<Fr>(k)
                };
                let (g1, g2, g3) = (general(), general(), general());
                let any = live[rng.gen_range(0..live.len())];
                constraints.push([
                    vec![(0, sign), (any, g1)],
                    vec![(live[1 + r % 3], sign), (live[5], g2)],
                    vec![(any, -sign), (0, g3), (0, Fr::ONE), (live[5], sign)],
                ]);
            }
            if let Some(k) = wide {
                constraints[rows / 2][1].push((live[7], field_from_i64(k)));
            }
            let want: [Triplets<Fr>; 3] = std::array::from_fn(|k| {
                let rows = constraints.iter().enumerate();
                let entries = rows.flat_map(|(r, row)| row[k].iter().map(move |&(c, v)| (r, c, v)));
                entries.filter(|t| t.2 != Fr::ZERO).collect()
            });
            let r1cs = R1cs::new(constraints, num_inputs, num_witness, half);
            let case = format!("wide coefficient {wide:?}");
            assert_eq!(
                matches!(r1cs.transpose.general, General::Small(_)),
                wide.is_none(),
                "{case}: integer coefficients exactly when narrow"
            );
            assert!(r1cs.transpose.long.len() > 3, "{case}: long groups");
            for (k, t) in transpose_triplets(&r1cs).into_iter().enumerate() {
                assert_eq!(
                    sorted(t),
                    sorted(want[k].clone()),
                    "{case}: transpose of {k}"
                );
            }
            let eq_x: Vec<Fr> = (0..rows).map(|_| Fr::random(&mut rng)).collect();
            let gamma: Vec<Fr> = (0..3).map(|_| Fr::random(&mut rng)).collect();
            let mut combined = vec![Fr::ZERO; r1cs.z_len()];
            for (g, m) in gamma.iter().zip(&want) {
                for &(r, c, v) in m {
                    combined[c] += *g * eq_x[r] * v;
                }
            }
            assert_eq!(
                bind(&r1cs, &eq_x, &gamma),
                padded_windows(&r1cs, &combined),
                "{case}: binding"
            );
        }
    }

    #[test]
    fn combined_binding_multiplies_are_linear_in_nnz_and_rows() {
        use crate::counting::{count_muls, Counted};
        for s in [50usize, 400] {
            // Every coefficient of the synthetic instance is 1: no multiply
            // in the products at all.
            let (r1cs, inputs, witness) = synthetic_r1cs::<Counted>(s, 8);
            let z = r1cs.assemble_z(&inputs, &witness);
            let (_, muls) = count_muls(|| products(&r1cs, r1cs.windows(&z)));
            assert_eq!((muls.full, muls.deferred), (0, 0), "s={s}: all-ones");

            // The same shape of chain with B in three classes — 1, −1, 2 —
            // one B entry a row.
            let two = Counted::ONE + Counted::ONE;
            let r1cs = chain(s, |w, i| {
                vec![(w[i * 7 % s], [Counted::ONE, -Counted::ONE, two][i % 3])]
            });
            let z = r1cs.assemble_z(&inputs, &witness);
            let z = r1cs.windows(&z);
            let general = (s / 3) as u64;
            let (_, muls) = count_muls(|| products(&r1cs, z));
            assert_eq!((muls.full, muls.deferred), (general, 0), "s={s}: products");

            let eq_rx = vec![Counted::ONE; r1cs.padded_constraints()];
            let gamma = [Counted::ONE; 3];
            let (_, muls) = count_muls(|| bind(&r1cs, &eq_rx, &gamma));
            // No z_len term: nothing passes over the dense column vector;
            // and no rows term: `eq_rx` is neither copied nor scaled. A
            // field × small product per general non-zero (the coefficients
            // are narrow integers), then γ once per live column: three
            // deferred products.
            let live = (1 + r1cs.num_inputs() + r1cs.num_witness()) as u64;
            assert_eq!(
                (muls.full, muls.deferred, muls.small),
                (0, 3 * live, general),
                "s={s}: binding"
            );

            // The row-wise MLE: a multiply per general non-zero, then one
            // deferred product per row and matrix.
            let eq_ry = vec![Counted::ONE; r1cs.z_len()];
            let eq_y = r1cs.windows(&eq_ry);
            let (_, muls) = count_muls(|| r1cs.matrix_evals(&eq_rx, eq_y));
            let rows = r1cs.num_constraints() as u64;
            assert_eq!(
                (muls.full, muls.deferred),
                (general, 3 * rows),
                "s={s}: matrix_evals"
            );

            // Two general entries in a row share one deferred reduction:
            // none of B's products is a full multiply.
            let r1cs = chain(s, |w, i| vec![(w[i], two), (w[(i + 1) % s], two)]);
            let z = r1cs.assemble_z(&inputs, &witness);
            let (_, muls) = count_muls(|| products(&r1cs, r1cs.windows(&z)));
            assert_eq!((muls.full, muls.deferred), (0, 2 * rows), "s={s}: pairs");
            let eq_y = r1cs.windows(&eq_ry);
            let (_, muls) = count_muls(|| r1cs.matrix_evals(&eq_rx, eq_y));
            let deferred = 2 * rows + 3 * rows;
            assert_eq!(
                (muls.full, muls.deferred),
                (0, deferred),
                "s={s}: pairs' MLE"
            );
        }

        /// `s` constraints `w_i · ⟨b_row(w, i), z⟩ = w_{i+1 mod s}` over one
        /// input and `s` witnesses.
        fn chain(s: usize, b_row: impl Fn(&[Var], usize) -> Lc<Counted>) -> R1cs<Counted> {
            let mut builder = R1csBuilder::<Counted>::new();
            builder.new_input();
            let w: Vec<Var> = (0..s)
                .map(|_| Var::Witness(builder.new_witness()))
                .collect();
            for i in 0..s {
                let (a, c) = (w[i], w[(i + 1) % s]);
                builder.enforce(
                    vec![(a, Counted::ONE)],
                    b_row(&w, i),
                    vec![(c, Counted::ONE)],
                );
            }
            builder.build()
        }
    }

    #[test]
    fn io_eval_matches_the_folded_io_polynomial() {
        // 0, 1 and half_len − 1 public inputs: the sparse sum against the
        // full point's eq table equals (1 − y_top)·ĩo(y').
        let mut rng = Prg::seed_from_u64(0x10);
        for num_inputs in [0usize, 1, 7] {
            let mut b = R1csBuilder::<Fr>::new();
            for _ in 0..num_inputs {
                b.new_input();
            }
            let ws: Vec<usize> = (0..8).map(|_| b.new_witness()).collect();
            b.enforce(
                vec![(Var::Witness(ws[0]), Fr::ONE)],
                vec![(Var::Witness(ws[1]), Fr::ONE)],
                vec![(Var::Witness(ws[2]), Fr::ONE)],
            );
            let r1cs = b.build();
            assert_eq!(r1cs.half_len(), 8);
            let inputs: Vec<Fr> = (0..num_inputs).map(|_| Fr::random(&mut rng)).collect();
            let y: Vec<Fr> = (0..4).map(|_| Fr::random(&mut rng)).collect();
            let (y_top, y_prime) = y.split_last().unwrap();
            let folded = r1cs.io_poly(&inputs).evaluate(y_prime);
            let [eq_io, _] = r1cs.eq_windows(&y);
            assert_eq!(eq_io, eq_table(&y)[..1 + num_inputs]);
            assert_eq!(
                r1cs.io_eval(&inputs, &eq_io),
                (Fr::ONE - *y_top) * folded,
                "{num_inputs} inputs"
            );
        }
    }

    #[test]
    fn io_poly_matches_z_prefix() {
        let (r1cs, inputs, witness) = square_instance();
        let z = r1cs.assemble_z(&inputs, &witness);
        let io = r1cs.io_poly(&inputs);
        assert_eq!(io.evals(), &z[..r1cs.half_len()]);
    }

    #[test]
    #[should_panic(expected = "wrong public input count")]
    fn wrong_input_count_panics() {
        let (r1cs, _, witness) = square_instance();
        let _ = r1cs.assemble_z(&[], &witness);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_builder_panics() {
        let _ = R1csBuilder::<Fr>::new().build();
    }

    #[test]
    #[should_panic(expected = "matrix column 6 outside the io and witness windows")]
    fn triplet_in_the_padding_panics_at_construction() {
        // One input and two witnesses in halves of 4: columns 2, 3, 6 and
        // 7 are padding.
        let row = |cols: [usize; 3]| [cols.map(|c| [(c, Fr::ONE)])];
        let _ = R1cs::new(row([0, 4, 5]), 1, 2, 4);
        let _ = R1cs::new(row([1, 4, 6]), 1, 2, 4);
    }

    #[test]
    #[should_panic(expected = "fit a u32 with the sign bit reserved")]
    fn triplet_bounds_checked() {
        // 2^31 witnesses: one live column past the signed `u32` range.
        let half = 1usize << 31;
        let _ = R1cs::new([[[(0, Fr::ONE)]; 3]], 0, half, half);
    }
}
