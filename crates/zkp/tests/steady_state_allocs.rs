//! The Spartan prover's steady state allocates nothing table-sized: its
//! sum-check arena and codeword buffers are sized once per circuit and
//! reused by every later proof (DESIGN.md §16, "The sum-check arena").
//!
//! A test binary of its own, because it counts every allocation the
//! process makes through a wrapping global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use batchzk_field::Fr;
use batchzk_gpu_sim::{DeviceProfile, Gpu};
use batchzk_zkp::r1cs::synthetic_r1cs;
use batchzk_zkp::{prove_batch_with, PcsParams, SpartanBackend};

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

#[test]
fn a_second_batch_allocates_no_table() {
    // 2^11 constraints: each sum-check table is 64 KiB.
    let (r1cs, inputs, witness) = synthetic_r1cs::<Fr>(2048, 38);
    let m = r1cs.padded_constraints();
    let table_bytes = m * std::mem::size_of::<Fr>();
    assert!(table_bytes >= 64 << 10);
    let live = 1 + r1cs.num_inputs() + r1cs.num_witness();
    // DESIGN.md §16: sum-check #1, matrix-bind and sum-check #2 in turn.
    let arena_bound = (4 * m).max(live + 3 * r1cs.num_constraints()).max(2 * live);

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
