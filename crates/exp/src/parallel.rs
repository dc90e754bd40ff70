//! Deterministic sharded parallel-map over trial seeds.
//!
//! Work distribution is **per-worker shards with chunked work-stealing**:
//! the input is split into `threads` contiguous shards, each with its own
//! atomic cursor, and worker `w` drains shard `w` in chunks of several
//! items before rotating round-robin onto the other shards to steal what
//! remains. Compared to the previous one-`fetch_add`-per-item shared
//! counter this keeps a worker on one contiguous region (cache-friendly
//! for prefab-derived inputs), amortizes the atomic over a chunk — which
//! matters when the cells are small-grain sweep trials — and still
//! tolerates the heavily skewed per-trial runtimes of scarce-energy
//! cells: a worker whose shard drains early steals chunks from the slow
//! ones instead of idling. Results are kept in private `(index, result)`
//! buffers and stitched back in input order after the scope joins, so
//! output order never depends on scheduling.
//!
//! Workers rendezvous at a [`Barrier`] between building their state and
//! claiming their first chunk. Without it the spawn order is a head
//! start: worker 0 begins stealing the later workers' shards before
//! those threads exist, and on small-grain sweeps one worker ends up
//! executing nearly every item while the rest spin up into exhausted
//! cursors (the PR 6 bench recorded 244 of 244 items on worker 0). The
//! barrier costs one wait per worker per map and restores the intended
//! near-even spread.
//!
//! The `*_with` variants additionally thread a per-worker state value
//! (typically a pooled `harvest_core::RunContext`) through every call,
//! so a worker executes its whole share of trials against one reusable
//! simulation context.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use serde::{Deserialize, Serialize};

/// What one worker thread hands back: its (index, result) buffer and its
/// per-worker state.
type WorkerBuffer<R, W> = (Vec<(usize, R)>, W);

/// Shard `s` of `n` items over `t` workers: the half-open index range
/// `[s*n/t, (s+1)*n/t)` (balanced to within one item).
fn shard_bounds(s: usize, n: usize, t: usize) -> (usize, usize) {
    (s * n / t, (s + 1) * n / t)
}

/// Chunk size for cursor claims: large enough to amortize the atomic on
/// small-grain cells, small enough that stealing can still rebalance a
/// skewed tail.
fn chunk_size(n: usize, t: usize) -> usize {
    (n / (t * 32)).clamp(1, 64)
}

/// The sharded core all public variants compile down to.
fn run_sharded<T, R, W, N, F>(items: Vec<T>, threads: usize, init: N, f: F) -> (Vec<R>, Vec<W>)
where
    T: Clone + Send + Sync,
    R: Send,
    W: Send,
    N: Fn(usize) -> W + Sync,
    F: Fn(&mut W, T) -> R + Sync,
{
    assert!(threads > 0, "need at least one worker thread");
    if items.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let n = items.len();
    let threads = threads.min(n);
    if threads == 1 {
        let mut state = init(0);
        let out: Vec<R> = items.into_iter().map(|x| f(&mut state, x)).collect();
        return (out, vec![state]);
    }

    let chunk = chunk_size(n, threads);
    let cursors: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
    let start_line = Barrier::new(threads);
    let (f, init, items_ref, cursors_ref, start_line) =
        (&f, &init, &items[..], &cursors[..], &start_line);

    let buffers: Vec<WorkerBuffer<R, W>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                scope.spawn(move || {
                    let mut state = {
                        // A panicking `init` must still release the
                        // rendezvous, or the sibling workers deadlock in
                        // `wait` while this thread unwinds.
                        struct WaitOnDrop<'a>(&'a Barrier);
                        impl Drop for WaitOnDrop<'_> {
                            fn drop(&mut self) {
                                self.0.wait();
                            }
                        }
                        let _release = WaitOnDrop(start_line);
                        init(w)
                    };
                    let mut out = Vec::with_capacity(n / threads + 1);
                    for step in 0..threads {
                        let shard = (w + step) % threads;
                        let (lo, hi) = shard_bounds(shard, n, threads);
                        loop {
                            let off = cursors_ref[shard].fetch_add(chunk, Ordering::Relaxed);
                            let begin = lo.saturating_add(off);
                            if begin >= hi {
                                break;
                            }
                            let end = (begin + chunk).min(hi);
                            for (off, item) in items_ref[begin..end].iter().enumerate() {
                                out.push((begin + off, f(&mut state, item.clone())));
                            }
                        }
                    }
                    (out, state)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut states = Vec::with_capacity(buffers.len());
    for (buffer, state) in buffers {
        states.push(state);
        for (idx, result) in buffer {
            debug_assert!(slots[idx].is_none(), "index claimed twice");
            slots[idx] = Some(result);
        }
    }
    let results = slots
        .into_iter()
        .map(|s| s.expect("every index claimed exactly once"))
        .collect();
    (results, states)
}

/// Applies `f` to every item, fanning work out over `threads` OS threads
/// while preserving input order in the output.
///
/// Results are deterministic: the mapping from item to result does not
/// depend on scheduling, only the wall-clock does. Items are read
/// through a shared slice and cloned on claim (`T: Clone + Sync`) —
/// sweep items are small `Copy` tuples, so the clone is free and no
/// per-item lock is needed to transfer ownership.
///
/// # Panics
///
/// Propagates panics from `f` and panics if `threads == 0`.
///
/// # Examples
///
/// ```
/// let squares = harvest_exp::parallel::parallel_map(0..8u64, 4, |x| x * x);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub fn parallel_map<I, T, R, F>(items: I, threads: usize, f: F) -> Vec<R>
where
    I: IntoIterator<Item = T>,
    T: Clone + Send + Sync,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let items: Vec<T> = items.into_iter().collect();
    run_sharded(items, threads, |_| (), |(), x| f(x)).0
}

/// [`parallel_map`] with a per-worker state value threaded through every
/// call: `init(w)` builds worker `w`'s state once, and each mapped item
/// gets `&mut` access to the state of whichever worker executes it.
///
/// This is the pooled-sweep entry point: `init` builds one
/// `harvest_core::RunContext` per worker, and every trial in that
/// worker's share reuses its queue and registry allocations. The mapping
/// from item to result must not depend on the worker state for the
/// output to stay deterministic (pooled contexts satisfy this: runs in
/// a pooled context are bit-identical to fresh runs).
///
/// Returns the results in input order plus the final worker states (one
/// per spawned worker), so callers can aggregate e.g. pool high-water
/// marks. `init` is not called when `items` is empty.
///
/// # Panics
///
/// Propagates panics from `f` and panics if `threads == 0`.
pub fn parallel_map_with<I, T, R, W, N, F>(
    items: I,
    threads: usize,
    init: N,
    f: F,
) -> (Vec<R>, Vec<W>)
where
    I: IntoIterator<Item = T>,
    T: Clone + Send + Sync,
    R: Send,
    W: Send,
    N: Fn(usize) -> W + Sync,
    F: Fn(&mut W, T) -> R + Sync,
{
    run_sharded(items.into_iter().collect(), threads, init, f)
}

/// Why one quarantined cell failed (see [`parallel_map_quarantined`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellFailure {
    /// The panic payload or error rendering.
    pub message: String,
    /// `true` when the mapped function panicked; `false` when it
    /// returned an error.
    pub panicked: bool,
    /// Index of the worker that executed the cell.
    pub worker: usize,
    /// Path of the flight-recorder dump written for this cell, when
    /// flight recording was on. `None` on older manifest/store rows
    /// (the vendored serde reads a missing `Option` field as `None`,
    /// so pre-telemetry records stay readable).
    pub flight: Option<String>,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// [`parallel_map_with`] in quarantining mode: the mapped function is
/// fallible, and both its errors **and its panics** are caught per
/// item and returned as [`CellFailure`]s in place of results, so one
/// poisoned sweep cell cannot take down a whole campaign. Input order
/// is preserved; every other cell still executes.
///
/// The worker state must tolerate a mid-item panic — pooled
/// [`crate::scenario::SimPool`] contexts do (a panicked run's queues
/// are rebuilt on the next use), which is why they are the intended
/// state here. Panic payloads still go through the process panic hook
/// (so backtraces remain available under `RUST_BACKTRACE`); only the
/// unwind is contained.
///
/// # Panics
///
/// Panics if `threads == 0`. Panics from `f` are quarantined, not
/// propagated.
pub fn parallel_map_quarantined<I, T, R, E, W, N, F>(
    items: I,
    threads: usize,
    init: N,
    f: F,
) -> (Vec<Result<R, CellFailure>>, Vec<W>)
where
    I: IntoIterator<Item = T>,
    T: Clone + Send + Sync,
    R: Send,
    E: std::fmt::Display,
    W: Send,
    N: Fn(usize) -> W + Sync,
    F: Fn(&mut W, T) -> Result<R, E> + Sync,
{
    let items: Vec<T> = items.into_iter().collect();
    let (out, states) = run_sharded(
        items,
        threads,
        |w| (w, init(w)),
        |(w, state), x| {
            let worker = *w;
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(state, x))) {
                Ok(Ok(r)) => Ok(r),
                Ok(Err(e)) => Err(CellFailure {
                    message: e.to_string(),
                    panicked: false,
                    worker,
                    flight: None,
                }),
                Err(payload) => Err(CellFailure {
                    message: panic_message(payload.as_ref()),
                    panicked: true,
                    worker,
                    flight: None,
                }),
            }
        },
    );
    (out, states.into_iter().map(|(_, s)| s).collect())
}

/// A sensible default worker count.
///
/// Resolution order:
/// 1. The `HARVEST_THREADS` environment variable, when set to a positive
///    integer — an explicit override for benchmarking or oversubscribed
///    machines. The override is taken verbatim (no cap). A value that
///    is zero or fails to parse is **ignored with a one-line warning on
///    stderr** (printed once per process) rather than silently falling
///    through.
/// 2. Otherwise the machine's available parallelism — or 4 when it
///    cannot be determined — **capped at 16**: the experiment runs are
///    short, and past 16 workers the spawn and synchronization overhead
///    outweighs the extra cores. The cap applies only to this fallback,
///    never to an explicit override.
pub fn default_threads() -> usize {
    if let Ok(raw) = std::env::var("HARVEST_THREADS") {
        match raw.trim().parse::<usize>() {
            Ok(n) if n > 0 => return n,
            _ => {
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "warning: ignoring HARVEST_THREADS={raw:?} \
                         (expected a positive integer); using available parallelism"
                    );
                });
            }
        }
    }
    std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .min(16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::with_env;
    use std::time::Duration;

    #[test]
    fn preserves_order() {
        let out = parallel_map(0..100u32, 7, |x| x + 1);
        assert_eq!(out, (1..=100).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_path() {
        let out = parallel_map(vec!["a", "b"], 1, |s| s.to_uppercase());
        assert_eq!(out, vec!["A", "B"]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u8> = parallel_map(Vec::<u8>::new(), 4, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let out = parallel_map(0..3u8, 16, |x| x * 2);
        assert_eq!(out, vec![0, 2, 4]);
    }

    #[test]
    fn skewed_runtimes_keep_input_order() {
        // Early items are slow, late items fast: under static chunking the
        // first worker would finish last; chunk stealing must still place
        // every result at its input index.
        let out = parallel_map(0..40u64, 4, |x| {
            if x < 4 {
                std::thread::sleep(Duration::from_millis(20));
            } else if x % 7 == 0 {
                std::thread::sleep(Duration::from_millis(2));
            }
            x * 3
        });
        assert_eq!(out, (0..40u64).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn nondeterministic_claim_order_still_deterministic_output() {
        let a = parallel_map(0..500u64, 8, |x| x.wrapping_mul(0x9E37_79B9).rotate_left(7));
        let b = parallel_map(0..500u64, 3, |x| x.wrapping_mul(0x9E37_79B9).rotate_left(7));
        let serial: Vec<u64> = (0..500u64)
            .map(|x| x.wrapping_mul(0x9E37_79B9).rotate_left(7))
            .collect();
        assert_eq!(a, serial);
        assert_eq!(b, serial);
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map(0..64u64, 4, |x| {
                if x == 13 {
                    panic!("unlucky trial");
                }
                x
            })
        });
        assert!(caught.is_err(), "a worker panic must reach the caller");
    }

    #[test]
    fn borrowing_shared_state_works() {
        // Closures may borrow prefab-style shared context.
        let shared: Vec<u64> = (0..10).map(|i| i * 100).collect();
        let out = parallel_map(0..10usize, 4, |i| shared[i] + 1);
        assert_eq!(out, (0..10u64).map(|i| i * 100 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn with_state_threads_one_state_per_worker() {
        // Each worker counts the items it executed into its own state;
        // the final states must account for every item exactly once and
        // the output must stay in input order.
        let (out, states) = parallel_map_with(
            0..200u64,
            4,
            |w| (w, 0u64),
            |state, x| {
                state.1 += 1;
                x + 1
            },
        );
        assert_eq!(out, (1..=200).collect::<Vec<_>>());
        assert_eq!(states.len(), 4);
        assert_eq!(
            states.iter().map(|s| s.0).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(states.iter().map(|s| s.1).sum::<u64>(), 200);
    }

    #[test]
    fn with_state_single_thread_and_empty() {
        let (out, states) = parallel_map_with(
            0..5u32,
            1,
            |_| 0u32,
            |acc, x| {
                *acc += x;
                x
            },
        );
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(states, vec![10]);
        let (out, states): (Vec<u32>, Vec<u32>) =
            parallel_map_with(Vec::<u32>::new(), 4, |_| 0u32, |_, x| x);
        assert!(
            out.is_empty() && states.is_empty(),
            "init must not run on empty input"
        );
    }

    #[test]
    fn quarantine_catches_panics_and_errors_in_place() {
        // Suppress the default hook's backtrace spam for the expected
        // panics; the hook is process-global, so restore it after.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let (out, states) = parallel_map_quarantined(
            0..32u64,
            4,
            |_| 0u64,
            |count, x| {
                *count += 1;
                if x == 5 {
                    panic!("poisoned cell {x}");
                }
                if x == 9 {
                    return Err(format!("typed failure at {x}"));
                }
                Ok(x * 2)
            },
        );
        std::panic::set_hook(hook);
        assert_eq!(out.len(), 32);
        for (i, r) in out.iter().enumerate() {
            match i as u64 {
                5 => {
                    let f = r.as_ref().unwrap_err();
                    assert!(f.panicked);
                    assert_eq!(f.message, "poisoned cell 5");
                    assert!(f.worker < 4);
                }
                9 => {
                    let f = r.as_ref().unwrap_err();
                    assert!(!f.panicked);
                    assert_eq!(f.message, "typed failure at 9");
                }
                x => assert_eq!(*r.as_ref().unwrap(), x * 2),
            }
        }
        // Every cell — including the poisoned ones — was executed once.
        assert_eq!(states.iter().sum::<u64>(), 32);
    }

    #[test]
    fn quarantine_empty_input() {
        let (out, states) =
            parallel_map_quarantined(Vec::<u32>::new(), 4, |_| (), |(), x| Ok::<_, String>(x));
        assert!(out.is_empty() && states.is_empty());
    }

    #[test]
    fn every_worker_gets_items_on_uniform_grain() {
        // Uniform per-item cost, items ≫ threads: with the start-line
        // barrier no worker can drain the others' shards before they
        // begin, so every worker must execute at least one item (the
        // pre-barrier behaviour put all 64 on worker 0). Each worker
        // counts the items it executed into its own state.
        let (out, items) = parallel_map_with(
            0..64u64,
            4,
            |_| 0u64,
            |count, x| {
                *count += 1;
                std::thread::sleep(Duration::from_millis(2));
                x
            },
        );
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        assert_eq!(items.iter().sum::<u64>(), 64);
        for (w, n) in items.iter().enumerate() {
            assert!(*n > 0, "worker {w} executed nothing: {items:?}");
        }
    }

    #[test]
    fn init_panic_releases_the_start_line() {
        // A worker whose init panics must not strand the others at the
        // barrier: the map has to unwind promptly, not hang.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let caught = std::panic::catch_unwind(|| {
            parallel_map_with(
                0..64u64,
                4,
                |w| {
                    if w == 2 {
                        panic!("poisoned init");
                    }
                    0u64
                },
                |_, x| x,
            )
        });
        std::panic::set_hook(hook);
        assert!(caught.is_err(), "the init panic must reach the caller");
    }

    #[test]
    fn shard_bounds_partition_exactly() {
        for n in [1usize, 2, 7, 64, 1000] {
            for t in [1usize, 2, 3, 8, 16] {
                let mut covered = 0;
                for s in 0..t {
                    let (lo, hi) = shard_bounds(s, n, t);
                    assert_eq!(lo, covered, "shards must tile [0, n)");
                    assert!(hi >= lo);
                    covered = hi;
                }
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn harvest_threads_override() {
        // Env mutation is process-global: serialize through the shared
        // env lock so no concurrent test observes a half-set variable.
        with_env(&[("HARVEST_THREADS", Some("3"))], || {
            assert_eq!(default_threads(), 3);
        });
        with_env(&[("HARVEST_THREADS", Some("not a number"))], || {
            let n = default_threads();
            assert!((1..=16).contains(&n), "garbage must fall back, got {n}");
        });
        with_env(&[("HARVEST_THREADS", Some("0"))], || {
            let n = default_threads();
            assert!((1..=16).contains(&n), "zero must fall back, got {n}");
        });
        with_env(&[("HARVEST_THREADS", None)], || {
            assert!(default_threads() >= 1);
        });
    }
}
