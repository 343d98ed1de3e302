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
//! [`R1cs::new`] checks that every matrix entry lies in them, so no vector
//! over the columns that the prover or the verifier builds — `z` itself, the
//! row-bound matrix polynomial of sum-check #2, the `eq(ry, ·)` vector — is
//! filled out to `2·half_len` entries: each skipped entry is an exact zero.
//! `z` is held as its two windows ([`Windows`]); the matrices index only the
//! live columns `io ‖ w`, as `u32`s, and the vectors they are summed against
//! (`z` for the field products, `eq(ry, ·)`) are one live vector `io ‖ w`.

use batchzk_field::{field_from_i64, Field, NARROW_BOUND};
#[cfg(test)]
use batchzk_sumcheck::MultilinearPoly;
use batchzk_sumcheck::{eq_table_prefix, eq_table_prefix_into};

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

/// The escape [`Grouped::shapes`] holds for a group whose counts do not
/// [`pack`]: they are the next entry of [`Grouped::long`].
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

/// A, B and C in one sparse layout over lines — rows, or live columns —
/// per line and matrix one group of that matrix's entries in the line, by
/// kind: the indices of its +1 entries, of its −1 entries, then its general
/// entries with their coefficients. Most of an R1CS matrix is ±1 (all of
/// [`synthetic_r1cs`], 94 % of the VGG-16/64 circuit), so most entries are
/// a bare index, and a group sums each sign with no test per entry
/// ([`Field::signed_sum`]). The groups follow line by line, A's, B's then
/// C's, and each stores only its counts: every reader walks them in order
/// ([`Self::walk`]).
#[derive(Debug, Clone)]
struct Grouped<F> {
    /// Per line, per matrix, the group's [`pack`]ed counts or [`LONG`].
    shapes: Vec<u16>,
    /// The counts of the [`LONG`] groups, in order.
    long: Vec<[u32; 3]>,
    /// Each group's indices of +1 entries, then of −1 entries.
    units: Vec<u32>,
    /// Each group's general entries, with their indices.
    general: General<F>,
}

/// The general entries (every entry that is not ±1) of a [`Grouped`].
#[derive(Debug, Clone)]
enum General<F> {
    /// A narrow circuit's, with integer coefficients: a field × small
    /// product each, and the integer spmv ([`R1cs::narrow_products`]).
    Small(Vec<(u32, i32)>),
    /// Any other circuit's, with field coefficients: a full product each.
    Field(Vec<(u32, F)>),
}

impl<F: Field> General<F> {
    /// `entries` with integer coefficients when every one is a narrow
    /// integer ([`Field::narrow_into`]), else as they are. The values pass
    /// through a stack block, not a heap copy.
    fn classify(entries: Vec<(u32, F)>) -> Self {
        let mut small = Vec::with_capacity(entries.len());
        let (mut values, mut ints) = ([F::ZERO; 256], [0; 256]);
        for chunk in entries.chunks(256) {
            let (values, ints) = (&mut values[..chunk.len()], &mut ints[..chunk.len()]);
            for (v, &(_, e)) in values.iter_mut().zip(chunk) {
                *v = e;
            }
            if !F::narrow_into(values, ints) {
                return Self::Field(entries);
            }
            small.extend(chunk.iter().zip(&*ints).map(|(&(i, _), &k)| (i, k)));
        }
        Self::Small(small)
    }
}

impl<F: Field> Grouped<F> {
    /// Groups A, B and C by rows, from each constraint's three rows of
    /// `(live column, coefficient)` entries, leaving out those whose
    /// coefficient is zero.
    fn by_rows<E: IntoIterator<Item = (u32, F)>>(rows: impl IntoIterator<Item = [E; 3]>) -> Self {
        let (mut shapes, mut long, mut units, mut general) = (vec![], vec![], vec![], vec![]);
        let mut minus = Vec::new();
        for row in rows {
            for entries in row {
                let (start, scaled) = (units.len(), general.len());
                for (c, v) in entries {
                    if v == F::ONE {
                        units.push(c);
                    } else if v == -F::ONE {
                        minus.push(c);
                    } else if v != F::ZERO {
                        general.push((c, v));
                    }
                }
                let plus = units.len() - start;
                let counts = [plus, minus.len(), general.len() - scaled].map(|n| n as u32);
                units.append(&mut minus);
                shapes.push(pack(counts).unwrap_or_else(|| {
                    long.push(counts);
                    LONG
                }));
            }
        }
        Self {
            shapes,
            long,
            units,
            general: General::classify(general),
        }
    }

    /// The same entries grouped by the other lines, `lines` of them: line
    /// `c` here lists, per matrix, the lines of the entries whose index is
    /// `c` there, in order. A counting sort — count per line, matrix and
    /// kind, prefix sums, then one fill in walk order.
    fn transpose(&self, lines: usize) -> Self {
        match &self.general {
            General::Small(g) => self.transposed(g, 0, lines, General::Small),
            General::Field(g) => self.transposed(g, F::ZERO, lines, General::Field),
        }
    }

    /// [`Self::transpose`] over this layout's general entries `general`.
    fn transposed<V: Copy>(
        &self,
        general: &[(u32, V)],
        zero: V,
        lines: usize,
        wrap: fn(Vec<(u32, V)>) -> General<F>,
    ) -> Self {
        // What the transpose keeps is allocated before the scratch it is
        // sorted with, so that freeing the scratch leaves no hole below it.
        let mut units = vec![0; self.units.len()];
        let mut entries = vec![(0, zero); general.len()];
        let (mut shapes, mut long) = (Vec::with_capacity(3 * lines), Vec::new());
        // Per line and matrix, its group's counts `[plus, minus, general]`,
        // then where the group's next entry of each kind goes.
        let mut next = vec![[[0u32; 3]; 3]; lines];
        self.walk(general, |_, k, plus, minus, scaled| {
            for (kind, indices) in [plus, minus].into_iter().enumerate() {
                for &i in indices {
                    next[i as usize][k][kind] += 1;
                }
            }
            for &(i, _) in scaled {
                next[i as usize][k][2] += 1;
            }
        });
        let (mut u, mut g) = (0, 0);
        for counts in next.iter_mut().flatten() {
            shapes.push(pack(*counts).unwrap_or_else(|| {
                long.push(*counts);
                LONG
            }));
            let [plus, minus, scaled] = *counts;
            *counts = [u, u + plus, g];
            (u, g) = (u + plus + minus, g + scaled);
        }
        self.walk(general, |line, k, plus, minus, scaled| {
            for (kind, indices) in [plus, minus].into_iter().enumerate() {
                for &i in indices {
                    let slot = &mut next[i as usize][k][kind];
                    units[*slot as usize] = line as u32;
                    *slot += 1;
                }
            }
            for &(i, v) in scaled {
                let slot = &mut next[i as usize][k][2];
                entries[*slot as usize] = (line as u32, v);
                *slot += 1;
            }
        });
        Self {
            shapes,
            long,
            units,
            general: wrap(entries),
        }
    }

    fn nnz(&self) -> usize {
        self.units.len()
            + match &self.general {
                General::Small(g) => g.len(),
                General::Field(g) => g.len(),
            }
    }

    /// Calls `each(line, k, plus, minus, general)` on every group in
    /// order: matrix `k`'s entries in `line`, as the indices of its +1 and
    /// −1 entries and its general entries out of `general` (this layout's,
    /// in either coefficient type). The loop lives here and takes the group
    /// body as a closure, so each reader's copy inlines it.
    #[inline]
    fn walk<G>(&self, general: &[G], mut each: impl FnMut(usize, usize, &[u32], &[u32], &[G])) {
        let (mut units, mut general, mut long) = (&self.units[..], general, self.long.iter());
        for (line, shapes) in self.shapes.as_chunks::<3>().0.iter().enumerate() {
            for (k, &shape) in shapes.iter().enumerate() {
                let [plus, minus, scaled] = match shape {
                    LONG => long
                        .next()
                        .expect("a long group's counts")
                        .map(|n| n as usize),
                    _ => unpack(shape),
                };
                let (group, rest) = units.split_at(plus + minus);
                let (plus, minus) = group.split_at(plus);
                let (scaled, rest_general) = general.split_at(scaled);
                (units, general) = (rest, rest_general);
                each(line, k, plus, minus, scaled);
            }
        }
        debug_assert!(units.is_empty() && general.is_empty() && long.next().is_none());
    }

    /// Calls `each(line, k, sum)` with every group's sum
    /// `Σ_i x[i] · M_k(line, i)`, in order: an empty group is zero, a lone
    /// ±1 entry a copy or a negation, a +1 and a −1 one modular
    /// subtraction, and any other group [`Field::signed_sum`] — plus a full
    /// product per general entry of a circuit that is not narrow.
    #[inline]
    fn sums(&self, x: &[F], each: impl FnMut(usize, usize, F)) {
        match &self.general {
            General::Small(general) => self.field_walk(x, general, each, F::signed_sum),
            General::Field(general) => {
                self.field_walk(x, general, each, |x, plus, minus, general| {
                    let units = F::signed_sum(x, plus, minus, &[]);
                    general
                        .iter()
                        .fold(units, |s, &(i, v)| s + v * x[i as usize])
                })
            }
        }
    }

    /// [`Self::sums`] over the general entries `general`, which `sum` adds
    /// into a group of two or more entries.
    #[inline]
    fn field_walk<G>(
        &self,
        x: &[F],
        general: &[G],
        mut each: impl FnMut(usize, usize, F),
        sum: impl Fn(&[F], &[u32], &[u32], &[G]) -> F,
    ) {
        self.walk(general, |line, k, plus, minus, scaled| {
            let s = match (plus, minus, scaled) {
                ([], [], []) => F::ZERO,
                ([i], [], []) => x[*i as usize],
                ([], [i], []) => -x[*i as usize],
                ([i], [j], []) => x[*i as usize] - x[*j as usize],
                _ => sum(x, plus, minus, scaled),
            };
            each(line, k, s);
        });
    }
}

/// `evals[k] += weight · ⟨eq, blocks[k]⟩` for each matrix `k`. Out of
/// line: inlined into the group closure that fills the blocks, the dot
/// made the whole walk slower, and so did the scale by `weight` (DESIGN.md
/// §16, "R1CS matrices" and "The verifier's `eq` tables as tensor
/// products").
#[inline(never)]
fn dot_blocks<F: Field>(evals: &mut [F; 3], eq: &[F], weight: F, blocks: &[[F; 512]; 3]) {
    for (eval, block) in evals.iter_mut().zip(blocks) {
        *eval += weight * F::dot(eq, block);
    }
}

/// The three blocks of `m` entries at the front of `out`.
fn blocks<T>(out: &mut [T], m: usize) -> [&mut [T]; 3] {
    let mut blocks = out[..3 * m].chunks_exact_mut(m);
    [(); 3].map(|()| blocks.next().expect("three blocks"))
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
/// A, B and C are held over the live columns `io ‖ w` only, in one grouped
/// layout (`Grouped`) built twice: by rows (spmv and the verifier's matrix
/// evaluation) and by columns (matrix-bind).
#[derive(Debug, Clone)]
pub struct R1cs<F> {
    /// A, B and C by rows.
    rows: Grouped<F>,
    /// A, B and C by live columns.
    cols: Grouped<F>,
    /// The largest `Σ|coefficient|` of a row of A, B or C when every
    /// coefficient is a narrow integer: the integer spmv's overflow bound.
    row_abs: u64,
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
    /// this condition); or if the live columns, `3·rows` or the non-zeros
    /// reach 2^31.
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
        let rows = constraints
            .into_iter()
            .map(|row| row.map(|entries| entries.into_iter().map(|(c, v)| (live_col(c), v))));
        let rows = Grouped::by_rows(rows);
        let num_constraints = rows.shapes.len() / 3;
        assert!(num_constraints > 0, "empty constraint system");
        let live = io_len + num_witness;
        assert!(
            [live, 3 * num_constraints, rows.nnz()]
                .iter()
                .all(|&n| n < 1 << 31),
            "live columns, 3·rows and non-zeros must be below 2^31"
        );
        let mut row_abs = 0;
        if let General::Small(general) = &rows.general {
            rows.walk(general, |_, _, plus, minus, scaled| {
                let scaled = scaled.iter().map(|&(_, k)| u64::from(k.unsigned_abs()));
                let abs = (plus.len() + minus.len()) as u64 + scaled.sum::<u64>();
                row_abs = row_abs.max(abs);
            });
        }
        let cols = rows.transpose(live);
        Self {
            rows,
            cols,
            row_abs,
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

    /// The live columns `io ‖ w`.
    fn live_len(&self) -> usize {
        1 + self.num_inputs + self.num_witness
    }

    /// Total non-zeros across the three matrices: the entries they store,
    /// none of which has a zero coefficient.
    pub fn total_nnz(&self) -> usize {
        self.rows.nnz()
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
    /// io prefix of `ry`'s live `eq` vector ([`Self::eq_windows`]), summed
    /// over the `1 + num_inputs` entries of `io`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` has the wrong length or `eq_y` is shorter than
    /// the io window.
    pub fn io_eval(&self, inputs: &[F], eq_y: &[F]) -> F {
        assert_eq!(inputs.len(), self.num_inputs, "wrong public input count");
        eq_y[0] + F::dot(inputs, &eq_y[1..=inputs.len()])
    }

    /// Writes `eq(ry, ·)` over the live columns `io ‖ w`, for
    /// `ry = (y', y_top)`, into `eq` as one vector: `(1 − y_top)·eq(y', ·)`
    /// over the first `1 + num_inputs` columns, then `y_top·eq(y', ·)` over
    /// the first `num_witness` of the witness half, each built in
    /// `O(window)` ([`eq_table_prefix_into`]). Nothing `eq` held is read,
    /// so it may be storage kept from call to call.
    ///
    /// # Panics
    ///
    /// Panics if `point_y` does not have `log₂ z_len` coordinates or `eq` is
    /// not the live columns' length.
    pub fn eq_windows(&self, point_y: &[F], eq: &mut [F]) {
        assert_eq!(1 << point_y.len(), self.z_len(), "point dimension mismatch");
        assert_eq!(eq.len(), self.live_len(), "live length");
        let (&y_top, y) = point_y.split_last().expect("z has a top variable");
        let (io, w) = eq.split_at_mut(1 + self.num_inputs);
        eq_table_prefix_into(y, F::ONE - y_top, io);
        eq_table_prefix_into(y, y_top, w);
    }

    /// The three matrix MLEs `[Ã, B̃, C̃](rx, ry)` at the row point
    /// `point_x = rx` as `⟨eq(rx, ·), M · eq_y⟩`: the row sums against the
    /// live `eq(ry, ·)` ([`Self::eq_windows`]), a block of 512 rows at a
    /// time, weighted by `eq(rx, ·)` with no table of it over the rows. The
    /// low `min(9, log₂ m)` row variables index a row within its block and
    /// the rest the block, so `eq(rx, r) = eq_lo[r mod 512] ·
    /// eq_hi[r / 512]`: each block's sums are dotted ([`Field::dot`]) with
    /// `eq_lo` and scaled by their block's `eq_hi` weight, two tables of at
    /// most 512 and `⌈rows / 512⌉` entries.
    ///
    /// # Panics
    ///
    /// Panics if `point_x` does not have `log₂ padded_constraints`
    /// coordinates or `eq_y` is not the live columns' length.
    pub fn matrix_evals(&self, point_x: &[F], eq_y: &[F]) -> [F; 3] {
        assert_eq!(
            1 << point_x.len(),
            self.padded_constraints(),
            "row point dimension mismatch"
        );
        assert_eq!(eq_y.len(), self.live_len(), "live length");
        let rows = self.num_constraints;
        let (low, high) = point_x.split_at(point_x.len().min(9));
        let mut eq_lo = [F::ZERO; 512];
        let eq_lo = &mut eq_lo[..rows.min(512)];
        eq_table_prefix_into(low, F::ONE, eq_lo);
        let eq_hi = eq_table_prefix(high, rows.div_ceil(512), F::ONE);
        let mut block = [[F::ZERO; 512]; 3];
        let mut evals = [F::ZERO; 3];
        self.rows.sums(eq_y, |r, k, sum| {
            let i = r % 512;
            block[k][i] = sum;
            if k == 2 && (i == 511 || r + 1 == rows) {
                dot_blocks(&mut evals, &eq_lo[..=i], eq_hi[r / 512], &block);
            }
        });
        evals
    }

    /// Writes the three products `[A·z, B·z, C·z]`, one entry per
    /// constraint, into the three blocks of `padded_constraints` entries at
    /// the front of `out`, each zero past the constraint count: the tables
    /// sum-check #1 folds. `z` is the assignment's live vector `io ‖ w`.
    /// Nothing `out` held is read.
    ///
    /// # Panics
    ///
    /// Panics if `z` is not the live columns' length or `out` is shorter
    /// than `3 · padded_constraints`.
    pub fn products(&self, z: &[F], out: &mut [F]) {
        assert_eq!(z.len(), self.live_len(), "live length");
        let mut tables = blocks(out, self.padded_constraints());
        self.rows.sums(z, |r, k, sum| tables[k][r] = sum);
        for table in tables {
            table[self.num_constraints..].fill(F::ZERO);
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
        assert_eq!(
            [z.io.len(), z.w.len()],
            [1 + self.num_inputs, self.num_witness],
            "window lengths"
        );
        out.resize(self.live_len(), 0);
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
        assert_eq!(z.len(), self.live_len(), "live length");
        let General::Small(general) = &self.rows.general else {
            return None;
        };
        let max_z = z.iter().map(|v| v.unsigned_abs()).max().unwrap_or(0);
        if u128::from(self.row_abs) * u128::from(max_z) >= 1 << 62 {
            return None;
        }
        let (rows, m) = (self.num_constraints, self.padded_constraints());
        out.resize(3 * m, 0);
        let mut tables = blocks(out, m);
        let mut wide = false;
        self.rows.walk(general, |r, k, plus, minus, scaled| {
            let at = |&i: &u32| i64::from(z[i as usize]);
            let sum = match (plus, minus, scaled) {
                ([], [], []) => 0,
                ([i], [], []) => at(i),
                _ => {
                    let units =
                        plus.iter().map(at).sum::<i64>() - minus.iter().map(at).sum::<i64>();
                    let scaled = scaled.iter().map(|(i, c)| i64::from(*c) * at(i));
                    units + scaled.sum::<i64>()
                }
            };
            wide |= sum.unsigned_abs() >= NARROW_BOUND as u64;
            tables[k][r] = sum as i32;
        });
        for table in &mut tables {
            table[rows..].fill(0);
        }
        let [a, b, c] = tables.map(|t| &t[..rows]);
        let satisfied = !wide
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
            let Windows { io, w } = self.windows(z);
            self.products(&[io, w].concat(), &mut products);
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
    /// `Σ_x eq_x[x] · M_k(x, c)` from the layout by columns into `out`,
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
        let live = self.live_len();
        assert!(
            [out.len(), s_b.len(), s_c.len()] == [live; 3],
            "window lengths"
        );
        let mut sums = [&mut *out, &mut *s_b, &mut *s_c];
        self.cols.sums(eq_x, |c, k, sum| sums[k][c] = sum);
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
    use batchzk_sumcheck::{eq_eval, eq_table};

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

    /// [`R1cs::products`] of the live vector `z` into a new buffer holding
    /// no zeros, checked zero past the constraint count, as the three
    /// constraint-length vectors.
    fn products<F: Field>(r1cs: &R1cs<F>, z: &[F]) -> [Vec<F>; 3] {
        let (m, rows) = (r1cs.padded_constraints(), r1cs.num_constraints());
        let mut out = vec![-F::ONE; 3 * m];
        r1cs.products(z, &mut out);
        let mut padding = out.chunks(m).flat_map(|t| &t[rows..]);
        assert!(padding.all(F::is_zero), "products' padding");
        [0, 1, 2].map(|k| out[k * m..k * m + rows].to_vec())
    }

    /// [`R1cs::bind_rows_combined`] over `eq_x`'s first rows, in new buffers
    /// holding no zeros: its live vector `io ‖ w`.
    pub(crate) fn bind<F: Field>(r1cs: &R1cs<F>, eq_x: &[F], gamma: &[F]) -> Vec<F> {
        let rows = r1cs.num_constraints();
        let [mut out, mut s_b, mut s_c] = [(); 3].map(|()| vec![-F::ONE; r1cs.live_len()]);
        r1cs.bind_rows_combined(&eq_x[..rows], gamma, &mut out, [&mut s_b, &mut s_c]);
        out
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

    /// A grouped layout's entries per matrix as `(line, index, value)`, in
    /// walk order.
    fn grouped_triplets<F: Field>(g: &Grouped<F>) -> [Triplets<F>; 3] {
        let general: Vec<(u32, F)> = match &g.general {
            General::Small(s) => s
                .iter()
                .map(|&(i, k)| (i, field_from_i64(k.into())))
                .collect(),
            General::Field(f) => f.clone(),
        };
        let mut out = [(); 3].map(|()| Vec::new());
        let mut entries = 0;
        g.walk(&general, |line, k, plus, minus, scaled| {
            let signed = [(F::ONE, plus), (-F::ONE, minus)].into_iter();
            let units = signed.flat_map(|(v, indices)| indices.iter().map(move |&i| (i, v)));
            let group = units.chain(scaled.iter().copied());
            out[k].extend(group.map(|(i, v)| (line, i as usize, v)));
            entries += plus.len() + minus.len() + scaled.len();
        });
        assert_eq!(entries, g.nnz(), "the walk reads every entry");
        out
    }

    /// A, B and C as triplets over the columns of `z`, read back from the
    /// layout by rows.
    pub(crate) fn triplets<F: Field>(r1cs: &R1cs<F>) -> [Triplets<F>; 3] {
        grouped_triplets(&r1cs.rows).map(|m| {
            let entries = m.into_iter();
            entries.map(|(r, c, v)| (r, z_col(r1cs, c), v)).collect()
        })
    }

    /// The same, read back from the layout by columns.
    fn column_triplets<F: Field>(r1cs: &R1cs<F>) -> [Triplets<F>; 3] {
        grouped_triplets(&r1cs.cols).map(|m| {
            let entries = m.into_iter();
            entries.map(|(c, r, v)| (r, z_col(r1cs, c), v)).collect()
        })
    }

    /// The live vector `io ‖ w` of a vector over the columns of `z`.
    fn live_of<F: Field>(r1cs: &R1cs<F>, z: &[F]) -> Vec<F> {
        let Windows { io, w } = r1cs.windows(z);
        [io, w].concat()
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
        let live = bind(&r1cs, &eq_rx, &[Fr::ONE, Fr::ZERO, Fr::ZERO]);
        let [a, _, _] = triplets(&r1cs);
        // Check the ends of both windows of `io ‖ w` against the triplet sum.
        let (io_len, last) = (r1cs.num_inputs + 1, live.len() - 1);
        let ends = [
            (0, 0),
            (1, 1),
            (io_len, z_col(&r1cs, io_len)),
            (last, z_col(&r1cs, last)),
        ];
        for (i, col) in ends {
            let direct: Fr = a
                .iter()
                .filter(|&&(_, c, _)| c == col)
                .map(|&(r, _, v)| v * eq_rx[r])
                .sum();
            assert_eq!(live[i], direct, "column {col}");
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
        let evals = r1cs.matrix_evals(&rx, &live_of(&r1cs, &eq_ry));
        for (m, eval) in triplets(&r1cs).iter().zip(evals) {
            let via_bind = Fr::dot(&bind_rows(m, r1cs.z_len(), &eq_rx), &eq_ry);
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
        assert_eq!(bind(&r1cs, &eq_rx, &gamma), live_of(&r1cs, &want));
    }

    /// A random instance's constraints, each as three rows of `(column of
    /// z, coefficient)`: rows that are empty, rows of general coefficients
    /// only, and mixed rows of 1, −1, 0 and general coefficients — random,
    /// or small integers on a `narrow` instance — with repeated columns; on
    /// every third instance the last live column is never referenced.
    fn random_rows(
        rng: &mut SplitMix64,
        live: &[usize],
        rows: usize,
        skip_last: bool,
        narrow: bool,
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
                    _ if narrow => small_coefficient(rng),
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

    /// An integer in `±[2, 100)`.
    fn small_coefficient(rng: &mut SplitMix64) -> Fr {
        let k = rng.gen_range(2..100) as i64;
        field_from_i64(if rng.next_u64() & 1 == 0 { k } else { -k })
    }

    /// A vector over the `z_len` columns of `z` with small integers in
    /// `[−8, 8]` on the live columns `live`, one at column 0 and zero
    /// elsewhere.
    fn small_z(rng: &mut SplitMix64, live: &[usize], z_len: usize) -> Vec<Fr> {
        let mut z = vec![Fr::ZERO; z_len];
        for &c in live {
            z[c] = field_from_i64(rng.gen_range(0..17) as i64 - 8);
        }
        z[0] = Fr::ONE;
        z
    }

    /// Makes `z` satisfy every constraint: the term `(A·z)(B·z) − C·z` joins
    /// each C row at column 0, where `z` holds the constant one.
    fn satisfy(constraints: &mut [[Vec<(usize, Fr)>; 3]], z: &[Fr]) {
        for row in constraints {
            let [a, b, c] = [0, 1, 2].map(|k| row[k].iter().map(|&(i, v)| v * z[i]).sum::<Fr>());
            row[2].push((0, a * b - c));
        }
    }

    /// The constraints' matrices as triplets over the columns of `z`, zero
    /// coefficients included.
    fn matrices(constraints: &[[Vec<(usize, Fr)>; 3]]) -> [Triplets<Fr>; 3] {
        std::array::from_fn(|k| {
            let rows = constraints.iter().enumerate();
            rows.flat_map(|(r, row)| row[k].iter().map(move |&(c, v)| (r, c, v)))
                .collect()
        })
    }

    /// Every reader of `r1cs` against the plain triplet loop over `want`,
    /// its matrices: the entries both layouts store, at random vectors
    /// `products`, `mle_eval`, `bind_rows` and the combined binding, and
    /// `matrix_evals` at a random row point, whose `eq` weight per row is
    /// [`eq_eval`] at the row's bits.
    fn check_readers(r1cs: &R1cs<Fr>, want: &[Triplets<Fr>; 3], rng: &mut SplitMix64, case: &str) {
        // The layouts store exactly the entries with a non-zero
        // coefficient.
        let stored = want
            .clone()
            .map(|m| sorted(m.into_iter().filter(|t| t.2 != Fr::ZERO).collect()));
        let nnz: usize = stored.iter().map(Vec::len).sum();
        assert_eq!(r1cs.total_nnz(), nnz, "{case}: non-zeros");
        let layouts = triplets(r1cs).into_iter().zip(column_triplets(r1cs));
        for (k, (by_rows, by_cols)) in layouts.enumerate() {
            assert_eq!(sorted(by_rows), stored[k], "{case}: rows of {k}");
            assert_eq!(sorted(by_cols), stored[k], "{case}: columns of {k}");
        }

        let random = |rng: &mut SplitMix64, n: usize| -> Vec<Fr> {
            (0..n).map(|_| Fr::random(rng)).collect()
        };
        let (rows, cols) = (r1cs.num_constraints(), r1cs.z_len());
        let (z, eq_x, eq_y, gamma) = (
            random(rng, cols),
            random(rng, rows),
            random(rng, cols),
            random(rng, 3),
        );
        let log_m = r1cs.padded_constraints().trailing_zeros() as usize;
        let rx = random(rng, log_m);
        let eq_rx: Vec<Fr> = (0..rows)
            .map(|r| {
                let bits: Vec<Fr> = (0..log_m).map(|i| Fr::from((r >> i & 1) as u64)).collect();
                eq_eval(&rx, &bits)
            })
            .collect();
        let products = products(r1cs, &live_of(r1cs, &z));
        let evals = r1cs.matrix_evals(&rx, &live_of(r1cs, &eq_y));
        let mut combined = vec![Fr::ZERO; cols];
        for (k, (g, m)) in gamma.iter().zip(want).enumerate() {
            let (mut mz, mut eval, mut at_rx) = (vec![Fr::ZERO; rows], Fr::ZERO, Fr::ZERO);
            for &(r, c, v) in m {
                mz[r] += v * z[c];
                combined[c] += *g * eq_x[r] * v;
                eval += v * eq_x[r] * eq_y[c];
                at_rx += v * eq_rx[r] * eq_y[c];
            }
            assert_eq!(products[k], mz, "{case}: products {k}");
            assert_eq!(evals[k], at_rx, "{case}: matrix_evals {k}");
            assert_eq!(mle_eval(m, &eq_x, &eq_y), eval, "{case}: mle_eval {k}");
            let bound = bind_rows(m, cols, &eq_x);
            assert_eq!(Fr::dot(&bound, &eq_y), eval, "{case}: bound MLE {k}");
            let direct = (0..cols).map(|c| {
                m.iter()
                    .filter(|t| t.1 == c)
                    .map(|&(r, _, v)| v * eq_x[r])
                    .sum()
            });
            assert!(bound.iter().copied().eq(direct), "{case}: bind_rows {k}");
        }
        let binding = bind(r1cs, &eq_x, &gamma);
        assert_eq!(binding, live_of(r1cs, &combined), "{case}: binding");
    }

    /// [`R1cs::narrow_products`] at `z`, small integers that satisfy
    /// `r1cs`, against the plain triplet loop over `want`, its matrices: the
    /// products as integers when every coefficient is a narrow integer, and
    /// `None` otherwise.
    fn check_narrow(r1cs: &R1cs<Fr>, want: &[Triplets<Fr>; 3], z: &[Fr], case: &str) {
        let mut coefficients = want.iter().flatten().map(|t| t.2);
        let narrow = coefficients.all(|v| Fr::narrow_into(&[v], &mut [0]));
        let (mut z_narrow, mut out) = (Vec::new(), Vec::new());
        assert!(r1cs.narrow_z(r1cs.windows(z), &mut z_narrow), "{case}: z");
        let products = r1cs.narrow_products(&z_narrow, &mut out);
        assert_eq!(products.is_some(), narrow, "{case}: integer products");
        let m = r1cs.padded_constraints();
        let tables = products.iter().flat_map(|p| p.tables());
        for (k, (table, m_k)) in tables.zip(want).enumerate() {
            let mut mz = vec![Fr::ZERO; m];
            for &(r, c, v) in m_k {
                mz[r] += v * z[c];
            }
            let mut ints = vec![0; m];
            assert!(Fr::narrow_into(&mz, &mut ints), "{case}: narrow {k}");
            assert_eq!(table, ints, "{case}: integer products {k}");
        }
    }

    #[test]
    fn sparse_kernels_match_the_plain_triplet_loop() {
        let mut rng = SplitMix64::seed_from_u64(0x37);
        for s in [10, 20, 37] {
            let (r1cs, _, _) = synthetic_r1cs::<Fr>(s, s as u64);
            check_readers(&r1cs, &triplets(&r1cs), &mut rng, &format!("synthetic {s}"));
        }
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
            let (skip_last, narrow) = (rep % 3 == 0, rep % 2 == 1);
            let mut constraints = random_rows(&mut rng, &live, rows, skip_last, narrow);
            // Satisfied at small integers, for the integer spmv: a narrow
            // instance takes it, any other leaves it.
            let z = small_z(&mut rng, &live, 2 * half);
            satisfy(&mut constraints, &z);
            let want = matrices(&constraints);
            let r1cs = R1cs::new(constraints, num_inputs, num_witness, half);
            let case =
                format!("rep {rep}: {rows} rows, {num_inputs} inputs, {num_witness} witnesses");
            check_readers(&r1cs, &want, &mut rng, &case);
            check_narrow(&r1cs, &want, &z, &case);
        }
        // At the edges of `matrix_evals`' 512-row blocks — 1, 511, 512 and
        // 513 rows, and more than two blocks with a partial last one — on
        // narrow and wide circuits.
        let (num_inputs, num_witness, half) = (5, 40, 64);
        let live: Vec<usize> = (0..=num_inputs).chain(half..half + num_witness).collect();
        for rows in [1, 511, 512, 513, 1300] {
            for narrow in [true, false] {
                let mut constraints = random_rows(&mut rng, &live, rows, false, narrow);
                let z = small_z(&mut rng, &live, 2 * half);
                satisfy(&mut constraints, &z);
                let want = matrices(&constraints);
                let r1cs = R1cs::new(constraints, num_inputs, num_witness, half);
                let case = format!("{rows} rows, narrow {narrow}");
                check_readers(&r1cs, &want, &mut rng, &case);
                check_narrow(&r1cs, &want, &z, &case);
            }
        }
    }

    /// Groups past what a packed shape holds. By columns: a constant column
    /// every row of A references with alternating signs (as VGG's is), hot
    /// columns with runs of ±1 and of general coefficients of both signs up
    /// to the narrow bound, repeated entries. By rows: a row of 70 +1
    /// entries and one of 40 general entries. Once narrow (integer
    /// coefficients) and once with a coefficient of 2^40 (the field path):
    /// every reader against the triplet oracle, and the integer spmv on the
    /// long rows alone, satisfied at small integers.
    #[test]
    fn grouped_gather_matches_the_plain_triplet_loop_on_long_columns() {
        let mut rng = SplitMix64::seed_from_u64(0x50);
        let edge = i64::from(NARROW_BOUND) - 1;
        let (num_inputs, num_witness, half, rows) = (3, 200, 256, 3000);
        let live: Vec<usize> = (0..=num_inputs).chain(half..half + num_witness).collect();
        for wide in [None, Some(1i64 << 40)] {
            let mut constraints: Vec<[Vec<(usize, Fr)>; 3]> = Vec::with_capacity(rows + 2);
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
            let mut long_rows = vec![
                [
                    live[8..78].iter().map(|&c| (c, Fr::ONE)).collect(),
                    vec![(0, Fr::ONE)],
                    vec![],
                ],
                [
                    vec![(0, Fr::ONE)],
                    live[10..50]
                        .iter()
                        .map(|&c| (c, small_coefficient(&mut rng)))
                        .chain(wide.map(|k| (live[60], field_from_i64(k))))
                        .collect(),
                    vec![(live[3], -Fr::ONE)],
                ],
            ];
            constraints.extend(long_rows.iter().cloned());
            let want = matrices(&constraints);
            let r1cs = R1cs::new(constraints, num_inputs, num_witness, half);
            let case = format!("wide coefficient {wide:?}");
            let small = [&r1cs.rows, &r1cs.cols].map(|g| matches!(g.general, General::Small(_)));
            let narrow = [wide.is_none(); 2];
            assert_eq!(
                small, narrow,
                "{case}: integer coefficients exactly when narrow"
            );
            assert!(r1cs.cols.long.len() > 3, "{case}: long column groups");
            assert_eq!(r1cs.rows.long.len(), 2, "{case}: long row groups");
            check_readers(&r1cs, &want, &mut rng, &case);

            let z = small_z(&mut rng, &live, 2 * half);
            satisfy(&mut long_rows, &z);
            let want = matrices(&long_rows);
            let r1cs = R1cs::new(long_rows, num_inputs, num_witness, half);
            assert_eq!(r1cs.rows.long.len(), 2, "{case}: long rows alone");
            check_readers(&r1cs, &want, &mut rng, &case);
            check_narrow(&r1cs, &want, &z, &case);
        }
    }

    #[test]
    fn combined_binding_multiplies_are_linear_in_nnz_and_rows() {
        use crate::counting::{count_muls, Counted};
        // One block of `matrix_evals`' rows, and three.
        for s in [50usize, 400, 1300] {
            // Every coefficient of the synthetic instance is 1: no multiply
            // in the products at all.
            let (r1cs, inputs, witness) = synthetic_r1cs::<Counted>(s, 8);
            let z = live_of(&r1cs, &r1cs.assemble_z(&inputs, &witness));
            let (_, muls) = count_muls(|| products(&r1cs, &z));
            assert_eq!((muls.full, muls.deferred), (0, 0), "s={s}: all-ones");

            // The same shape of chain with B in three classes — 1, −1, 2 —
            // one B entry a row.
            let two = Counted::ONE + Counted::ONE;
            let r1cs = chain(s, |w, i| {
                vec![(w[i * 7 % s], [Counted::ONE, -Counted::ONE, two][i % 3])]
            });
            let z = live_of(&r1cs, &r1cs.assemble_z(&inputs, &witness));
            let general = (s / 3) as u64;
            // A field × small product per general non-zero: the
            // coefficients are narrow integers.
            let (_, muls) = count_muls(|| products(&r1cs, &z));
            assert_eq!(
                (muls.full, muls.deferred, muls.small),
                (0, 0, general),
                "s={s}: products"
            );

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

            // The row-wise MLE at a row point: the same field × small
            // product per general non-zero, one deferred product per row
            // and matrix, and full products only in `eq` over the rows as a
            // tensor product — at most two an entry of its two tables (512
            // rows, one weight a block), one a row variable for their
            // constants — and one a block and matrix, to weigh its dot.
            let eq_y = vec![Counted::ONE; live as usize];
            let log_m = r1cs.padded_constraints().trailing_zeros() as u64;
            let rx = vec![two; log_m as usize];
            let (_, muls) = count_muls(|| r1cs.matrix_evals(&rx, &eq_y));
            let rows = r1cs.num_constraints() as u64;
            let blocks = rows.div_ceil(512);
            let weights = 2 * (rows.min(512) + blocks) + log_m + 3 * blocks;
            assert_eq!(
                (muls.deferred, muls.small),
                (3 * rows, general),
                "s={s}: matrix_evals"
            );
            assert!(
                muls.full <= weights,
                "s={s}: matrix_evals' {} full",
                muls.full
            );

            // Two general entries in a row: two field × small products.
            let r1cs = chain(s, |w, i| vec![(w[i], two), (w[(i + 1) % s], two)]);
            let z = live_of(&r1cs, &r1cs.assemble_z(&inputs, &witness));
            let (_, muls) = count_muls(|| products(&r1cs, &z));
            let pairs = (0, 0, 2 * rows);
            assert_eq!(
                (muls.full, muls.deferred, muls.small),
                pairs,
                "s={s}: pairs"
            );
            let (_, muls) = count_muls(|| r1cs.matrix_evals(&rx, &eq_y));
            assert_eq!(
                (muls.deferred, muls.small),
                (3 * rows, 2 * rows),
                "s={s}: pairs' MLE"
            );
            assert!(
                muls.full <= weights,
                "s={s}: pairs' MLE, {} full",
                muls.full
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
            // In storage holding no zeros, as reused storage does.
            let mut eq_y = vec![-Fr::ONE; r1cs.live_len()];
            r1cs.eq_windows(&y, &mut eq_y);
            assert_eq!(eq_y, live_of(&r1cs, &eq_table(&y)));
            assert_eq!(
                r1cs.io_eval(&inputs, &eq_y),
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
    #[should_panic(expected = "must be below 2^31")]
    fn triplet_bounds_checked() {
        // 2^31 witnesses: one live column past the signed `u32` range.
        let half = 1usize << 31;
        let _ = R1cs::new([[[(0, Fr::ONE)]; 3]], 0, half, half);
    }
}
