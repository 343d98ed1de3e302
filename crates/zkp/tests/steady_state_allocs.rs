//! The Spartan prover's steady state allocates nothing table-sized: its
//! sum-check arena and codeword buffers are sized once per circuit and
//! reused by every later proof (DESIGN.md §16, "The sum-check arena").
//!
//! A test binary of its own, because it counts every allocation the
//! process makes through a wrapping global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use batchzk_field::Fr;
use batchzk_gpu_sim::{DeviceProfile, Gpu};
use batchzk_zkp::r1cs::{small_r1cs, synthetic_r1cs};
use batchzk_zkp::{prove_batch_with, PcsParams, ProverBackend, R1cs, SpartanBackend};

/// The system allocator, noting the largest block asked for while armed.
struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is two atomic operations, which neither allocate nor touch
// the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// One test at a time: the allocator's record is process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn a_second_batch_allocates_no_table() {
    // 2^11 constraints: each sum-check table is 64 KiB.
    let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(2048, 38);
    second_batch_allocates_no_table(r1cs, inputs, witness);
}

#[test]
fn a_second_small_valued_batch_allocates_no_table() {
    // The same on narrow integers, which spmv and round 1 of sum-check #1
    // run on: the arena's integer buffers are reused too.
    let (r1cs, inputs, witness) = small_r1cs::<Fr>(2048, 38);
    let io = r1cs.io(&inputs);
    let (mut z, mut products) = (Vec::new(), Vec::new());
    assert!(r1cs.narrow_z(r1cs.live(&io, &witness), &mut z));
    assert!(r1cs.narrow_products(&z, &mut products).is_some());
    second_batch_allocates_no_table(r1cs, inputs, witness);
}

fn second_batch_allocates_no_table(r1cs: R1cs<Fr>, inputs: Vec<Fr>, witness: Vec<Fr>) {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let m = r1cs.padded_constraints();
    let table_bytes = m * std::mem::size_of::<Fr>();
    assert!(table_bytes >= 64 << 10);
    let live = 1 + r1cs.num_inputs() + r1cs.num_witness();
    // DESIGN.md §16: sum-check #1, matrix-bind and sum-check #2 in turn.
    let arena_bound = (4 * m).max(r1cs.num_constraints() + 3 * live);

    let params = PcsParams {
        num_col_tests: 12,
        ..PcsParams::default()
    };
    let backend = SpartanBackend::new(Arc::new(r1cs), params);
    let batch = vec![(inputs, witness); 6];
    let mut gpu = Gpu::new(DeviceProfile::a100());
    let (first, second) = batchzk_par::with_threads(1, || {
        let first = prove_batch_with(&mut gpu, &backend, batch.clone(), 4096, true);
        let instances = batch.clone();
        LARGEST.store(0, Ordering::Relaxed);
        ARMED.store(true, Ordering::Relaxed);
        let second = prove_batch_with(&mut gpu, &backend, instances, 4096, true);
        ARMED.store(false, Ordering::Relaxed);
        (first.expect("fits"), second.expect("fits"))
    });
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest < table_bytes,
        "the second batch allocated {largest} bytes at once; a table is {table_bytes}"
    );
    assert_eq!(second.proofs, first.proofs, "reused storage, same proofs");

    let arenas = backend.arena_capacities();
    assert_eq!(arenas.len(), 1, "one device, one arena");
    assert!(
        arenas.iter().all(|&n| n <= arena_bound),
        "arenas {arenas:?} past the layout's {arena_bound} elements"
    );
}

#[test]
fn a_second_verify_allocates_no_table() {
    // The verifier of a backend builds `eq` over the live columns in
    // storage the backend keeps, and over the rows as a tensor product of
    // two small tables: once every proof has been verified, verifying
    // them again asks for nothing table-sized.
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(2048, 52);
    let table_bytes = r1cs.padded_constraints() * std::mem::size_of::<Fr>();
    assert!(table_bytes >= 64 << 10);
    let params = PcsParams {
        num_col_tests: 12,
        ..PcsParams::default()
    };
    let backend = SpartanBackend::new(Arc::new(r1cs), params);
    let mut gpu = Gpu::new(DeviceProfile::a100());
    let run = prove_batch_with(&mut gpu, &backend, vec![(inputs, witness); 3], 4096, true);
    let proofs = run.expect("fits").proofs;
    let verify_all = || {
        batchzk_par::with_threads(1, || {
            proofs
                .iter()
                .all(|(statement, proof)| backend.verify(statement, proof))
        })
    };
    assert!(verify_all(), "honest proofs verify");
    LARGEST.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let again = verify_all();
    ARMED.store(false, Ordering::Relaxed);
    assert!(again, "honest proofs verify again");
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest < table_bytes,
        "verifying again allocated {largest} bytes at once; a table is {table_bytes}"
    );
}
