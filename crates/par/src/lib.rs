//! Deterministic host-side parallelism for the BatchZK reproduction.
//!
//! The simulator's own thesis — throughput comes from keeping every
//! execution unit busy — applies to the host too: Montgomery muls, SHA-256
//! compressions and the N independent devices of a `DevicePool` are
//! embarrassingly parallel streams, yet a naive `thread::spawn` free-for-all
//! would destroy the byte-determinism the bench trajectory is built on.
//!
//! This crate is the middle path: a dependency-free *scoped work-stealing*
//! pool (hermetic, std-only, matching the repo's no-external-deps rule) with
//! **deterministic result ordering**. Workers race over a shared index
//! space — each worker owns a contiguous range and steals from the back of
//! other workers' ranges when its own runs dry — but every result is
//! written back into its input's slot, so the output `Vec` is byte-identical
//! to the `threads = 1` run no matter how the race unfolds. Parallelism may
//! only change wall-clock time, never bytes.
//!
//! Thread count resolution (first match wins):
//! 1. an explicit count passed by the caller (`*_with` variants),
//! 2. a process-wide override set via [`set_threads`] (the `--threads` CLI
//!    flag),
//! 3. the `BATCHZK_THREADS` environment variable,
//! 4. [`std::thread::available_parallelism`].
//!
//! # Examples
//!
//! ```
//! // Results land in input order regardless of which worker ran what,
//! // so the bytes match the serial run at any thread count.
//! let squares = batchzk_par::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! let mut cells = vec![0u64; 8];
//! batchzk_par::with_threads(4, || {
//!     batchzk_par::par_map_mut(&mut cells, |i, c| *c += i as u64);
//! });
//! assert_eq!(cells, vec![0, 1, 2, 3, 4, 5, 6, 7]);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::thread;

/// Process-wide thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets a process-wide thread-count override (the `--threads` flag).
/// A count of 0 clears the override, falling back to `BATCHZK_THREADS`
/// and then [`std::thread::available_parallelism`].
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Resolves the effective thread count: the [`set_threads`] override if
/// set, else `BATCHZK_THREADS` (ignored when unparsable or 0), else the
/// machine's available parallelism, else 1. Always at least 1.
pub fn current_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("BATCHZK_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Physical parallelism of the host as reported by
/// [`std::thread::available_parallelism`] (1 when the query fails).
/// Unlike [`current_threads`] this ignores every override: it is the
/// quantity wall-clock measurements record so readers can tell a
/// saturated host from a scaling failure.
pub fn host_cores() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f` with the thread count forced to `n`, restoring the previous
/// override afterwards. Intended for single-threaded drivers (`tables
/// profile`'s one-thread prove, the benchmark's one- and two-thread runs,
/// and the threads-N ≡ threads-1 determinism tests); the override is
/// process-wide, so concurrent callers will observe it — harmless for
/// correctness (any thread count produces identical bytes) but it can
/// perturb concurrent wall-clock measurements.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = THREAD_OVERRIDE.swap(n, Ordering::Relaxed);
    let out = f();
    THREAD_OVERRIDE.store(prev, Ordering::Relaxed);
    out
}

/// One worker's deque of still-unclaimed indices, packed `(start << 32) |
/// end` so an owner claim (front) and a steal (back) are single CAS
/// operations on one word.
struct Range(AtomicU64);

impl Range {
    fn new(start: usize, end: usize) -> Self {
        Self(AtomicU64::new(pack(start as u64, end as u64)))
    }

    /// Owner path: claim the next index from the front.
    fn claim_front(&self) -> Option<usize> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (s, e) = unpack(cur);
            if s >= e {
                return None;
            }
            match self.0.compare_exchange_weak(
                cur,
                pack(s + 1, e),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(s as usize),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Thief path: steal one index from the back.
    fn steal_back(&self) -> Option<usize> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (s, e) = unpack(cur);
            if s >= e {
                return None;
            }
            match self.0.compare_exchange_weak(
                cur,
                pack(s, e - 1),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((e - 1) as usize),
                Err(seen) => cur = seen,
            }
        }
    }
}

fn pack(start: u64, end: u64) -> u64 {
    (start << 32) | end
}

fn unpack(v: u64) -> (u64, u64) {
    (v >> 32, v & 0xffff_ffff)
}

/// Splits `0..n` into `workers` contiguous ranges (the static seed of the
/// work-stealing race; remainders go to the leading workers).
fn seed_ranges(n: usize, workers: usize) -> Vec<Range> {
    let base = n / workers;
    let extra = n % workers;
    let mut start = 0usize;
    (0..workers)
        .map(|w| {
            let len = base + usize::from(w < extra);
            let r = Range::new(start, start + len);
            start += len;
            r
        })
        .collect()
}

/// Applies `f` to every index in `0..n` on up to `threads` workers and
/// returns the results **in index order** — byte-identical to
/// `(0..n).map(f).collect()` regardless of thread count or interleaving.
///
/// `threads <= 1` (and `n <= 1`) short-circuits to a fully inline serial
/// loop: no threads are spawned, no atomics touched.
fn par_map_indexed_with<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    assert!(n < u32::MAX as usize, "index space exceeds packed range");
    let workers = threads.min(n);
    let ranges = seed_ranges(n, workers);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let ranges = &ranges;
                let f = &f;
                scope.spawn(move || {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        // Drain the worker's own range from the front...
                        if let Some(i) = ranges[w].claim_front() {
                            local.push((i, f(i)));
                            continue;
                        }
                        // ...then steal from the back of the others.
                        let victim = (0..workers)
                            .map(|k| (w + 1 + k) % workers)
                            .find_map(|v| ranges[v].steal_back());
                        match victim {
                            Some(i) => local.push((i, f(i))),
                            None => break,
                        }
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("batchzk-par worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index claimed exactly once"))
        .collect()
}

/// Maps `f` over a slice on up to [`current_threads`] workers, results in
/// input order.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed_with(current_threads(), items.len(), |i| f(&items[i]))
}

/// Applies `f` to every element of `items` by `&mut`, returning the
/// per-element results in input order. Elements are dealt to workers in
/// contiguous chunks (exclusive `&mut` access rules out back-stealing);
/// with independent per-element work the static split balances well.
pub fn par_map_mut_with<T, R, F>(threads: usize, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let workers = threads.min(n);
    let base = n / workers;
    let extra = n % workers;
    let mut out: Vec<Vec<R>> = Vec::with_capacity(workers);
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        let mut rest = items;
        let mut start = 0usize;
        for w in 0..workers {
            let len = base + usize::from(w < extra);
            let (chunk, tail) = rest.split_at_mut(len);
            rest = tail;
            let f = &f;
            let first = start;
            handles.push(scope.spawn(move || {
                chunk
                    .iter_mut()
                    .enumerate()
                    .map(|(k, t)| f(first + k, t))
                    .collect::<Vec<R>>()
            }));
            start += len;
        }
        for h in handles {
            out.push(h.join().expect("batchzk-par worker panicked"));
        }
    });
    out.into_iter().flatten().collect()
}

/// [`par_map_mut_with`] at the [`current_threads`] count.
pub fn par_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    par_map_mut_with(current_threads(), items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_at_every_thread_count() {
        let n = 1000usize;
        let serial: Vec<u64> = (0..n).map(|i| (i as u64).wrapping_mul(0x9e37)).collect();
        for threads in [1, 2, 3, 4, 8, 17] {
            let par = par_map_indexed_with(threads, n, |i| (i as u64).wrapping_mul(0x9e37));
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn skewed_work_is_stolen_and_stays_ordered() {
        // One pathologically slow item at the front of worker 0's range:
        // the other workers drain the rest by stealing, and the output is
        // still index-ordered.
        let n = 64usize;
        let out = par_map_indexed_with(4, n, |i| {
            if i == 0 {
                // Busy-work instead of sleeping: keep the test fast but the
                // skew real.
                let mut acc = 1u64;
                for k in 1..200_000u64 {
                    acc = acc.wrapping_mul(k) ^ k;
                }
                (i as u64) ^ (acc & 1)
            } else {
                i as u64
            }
        });
        for (i, v) in out.iter().enumerate().skip(1) {
            assert_eq!(*v, i as u64);
        }
        assert_eq!(out.len(), n);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = par_map_indexed_with(4, 0, |i| i as u32);
        assert!(empty.is_empty());
        let one = par_map_indexed_with(4, 1, |i| i as u32 + 7);
        assert_eq!(one, vec![7]);
    }

    #[test]
    fn par_map_borrows_items() {
        let items: Vec<String> = (0..50).map(|i| format!("item-{i}")).collect();
        let lens = with_threads(4, || par_map(&items, |s| s.len()));
        let serial: Vec<usize> = items.iter().map(|s| s.len()).collect();
        assert_eq!(lens, serial);
    }

    #[test]
    fn par_map_mut_mutates_every_element_in_place() {
        for threads in [1, 2, 4, 7] {
            let mut items: Vec<u64> = (0..100).collect();
            let returns = par_map_mut_with(threads, &mut items, |i, v| {
                *v += 1;
                *v * i as u64
            });
            let expect_items: Vec<u64> = (1..=100).collect();
            let expect_ret: Vec<u64> = (0..100u64).map(|i| (i + 1) * i).collect();
            assert_eq!(items, expect_items, "threads={threads}");
            assert_eq!(returns, expect_ret, "threads={threads}");
        }
    }

    #[test]
    fn seed_ranges_cover_index_space_exactly() {
        for n in [1usize, 5, 16, 17, 1000] {
            for workers in [1usize, 2, 3, 7, 16] {
                let ranges = seed_ranges(n, workers);
                let mut total = 0usize;
                let mut next = 0u64;
                for r in &ranges {
                    let (s, e) = unpack(r.0.load(Ordering::Relaxed));
                    assert_eq!(s, next, "ranges are contiguous");
                    total += (e - s) as usize;
                    next = e;
                }
                assert_eq!(total, n, "n={n} workers={workers}");
            }
        }
    }

    #[test]
    fn thread_count_override_wins_over_env() {
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(5, || assert_eq!(current_threads(), 5));
            assert_eq!(current_threads(), 3);
        });
        assert!(current_threads() >= 1);
    }
}
