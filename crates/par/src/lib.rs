//! A scoped worker pool with deterministic work splitting and ordered
//! result reduction.
//!
//! The exploration frontiers in this repo (litmus corpus runs, chaos
//! campaign sweeps) are embarrassingly parallel over *independent* work
//! items, but their reports are contractually deterministic: the same
//! input must yield byte-identical output regardless of how many
//! threads ran it. This crate provides exactly that discipline, in the
//! same offline-shim spirit as `quickprop`: no external dependencies,
//! just `std::thread::scope`.
//!
//! Two rules make the parallelism invisible in the results:
//!
//! 1. **Deterministic splitting** — worker `w` of `W` statically owns
//!    items `w, w + W, w + 2W, ...`. No work stealing, no dependence on
//!    scheduling order.
//! 2. **Ordered reduction** — every result is written back to its
//!    item's index, so [`par_map`] returns results in input order, the
//!    same `Vec` a sequential `map` would produce.
//!
//! ```
//! let doubled = ise_par::par_map(&[1, 2, 3, 4], 2, |_, &x| x * 2);
//! assert_eq!(doubled, vec![2, 4, 6, 8]);
//! ```
//!
//! [`par_map_dedup`] adds content-keyed dedupe on top: items with equal
//! keys are evaluated once, and the result is cloned into every slot.
//!
//! Library entry points take the worker count as an argument. Each
//! binary and example reads it once, at the top of `main`, with
//! [`worker_count`] (the `ISE_WORKERS` environment variable when set),
//! so CI can pin it per matrix leg.

#![deny(missing_docs)]

use std::collections::HashMap;
use std::hash::Hash;
use std::num::NonZeroUsize;
use std::panic;
use std::thread;

/// The worker count to use by default: `ISE_WORKERS` when set,
/// otherwise the machine's available parallelism (falling back to 1
/// when that cannot be determined).
///
/// # Panics
///
/// Panics if `ISE_WORKERS` is set to anything but a positive integer —
/// previously a typo silently serialized the whole run onto one worker.
pub fn worker_count() -> usize {
    match ise_types::env::env_count("ISE_WORKERS") {
        Some(n) => n.get(),
        None => thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1),
    }
}

/// Maps `f` over `items` on `workers` scoped threads, returning results
/// in input order.
///
/// `f` receives `(index, &item)`. With `workers <= 1` (or fewer than two
/// items) everything runs on the calling thread — the sequential
/// reference path the differential tests compare against. Work is split
/// statically by stride and results are reduced by index, so the output
/// is identical for every worker count.
///
/// # Panics
///
/// A panic in `f` is resumed on the calling thread with its original
/// payload once every worker has stopped.
pub fn par_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    if workers == 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    items
                        .iter()
                        .enumerate()
                        .skip(w)
                        .step_by(workers)
                        .map(|(i, item)| (i, f(i, item)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            let results = h.join().unwrap_or_else(|payload| {
                // Re-raise the worker's panic (e.g. an invariant
                // assertion in a campaign cell) with its payload intact.
                panic::resume_unwind(payload)
            });
            for (i, r) in results {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("strided split covers every index"))
        .collect()
}

/// [`par_map`] that evaluates each distinct `key` once, on the first
/// item carrying it, and clones that result into every item with the
/// same key. Returns one result per item in input order, plus the
/// number of distinct keys. Keys are computed on the calling thread.
/// Equal keys must mean equal results; a caller whose results carry
/// per-item metadata re-stamps it afterwards.
pub fn par_map_dedup<T, K, R>(
    items: &[T],
    workers: usize,
    key: impl Fn(&T) -> K,
    f: impl Fn(usize, &T) -> R + Sync,
) -> (Vec<R>, usize)
where
    T: Sync,
    K: Eq + Hash,
    R: Send + Clone,
{
    let mut slot_of = HashMap::new();
    let mut firsts = Vec::new();
    let slots: Vec<usize> = (0..items.len())
        .map(|i| {
            *slot_of.entry(key(&items[i])).or_insert_with(|| {
                firsts.push(i);
                firsts.len() - 1
            })
        })
        .collect();
    let results = par_map(&firsts, workers, |_, &i| f(i, &items[i]));
    let out = slots.into_iter().map(|s| results[s].clone()).collect();
    (out, results.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..57).collect();
        for workers in [1, 2, 3, 4, 8, 57, 100] {
            let out = par_map(&items, workers, |i, &x| {
                assert_eq!(i, x);
                x * 10
            });
            let expect: Vec<usize> = items.iter().map(|x| x * 10).collect();
            assert_eq!(out, expect, "workers={workers}");
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let hits = AtomicUsize::new(0);
        let items: Vec<u32> = (0..33).collect();
        par_map(&items, 4, |_, _| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), items.len());
    }

    #[test]
    fn empty_and_single_item_inputs_work() {
        let none: Vec<u8> = Vec::new();
        assert!(par_map(&none, 8, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u8], 8, |_, &x| x), vec![7]);
    }

    #[test]
    fn dedup_evaluates_each_key_once_on_its_first_item() {
        let items = [3u32, 1, 3, 4, 1, 5, 9, 3];
        for workers in [1, 2, 4, 16] {
            let hits = AtomicUsize::new(0);
            let (out, unique) = par_map_dedup(
                &items,
                workers,
                |&x| x,
                |i, _| {
                    hits.fetch_add(1, Ordering::Relaxed);
                    i
                },
            );
            assert_eq!(out, [0, 1, 0, 3, 1, 5, 6, 0], "workers={workers}");
            assert_eq!((unique, hits.into_inner()), (5, 5), "workers={workers}");
        }
    }

    #[test]
    fn worker_panic_propagates_with_payload() {
        let items: Vec<usize> = (0..16).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            par_map(&items, 4, |_, &x| {
                assert_ne!(x, 11, "poisoned item");
            });
        }))
        .expect_err("panic must propagate");
        let msg = err.downcast_ref::<String>().expect("string panic payload");
        assert!(msg.contains("poisoned item"), "got: {msg}");
    }
}
