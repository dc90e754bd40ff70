//! Outside-in probes with no dependency beyond `std`: a counting global
//! allocator, process CPU time and peak RSS from `/proc/self`, pack
//! bytes from a store's directory listing, and host provenance.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

use harvest_exp::cache::TrialSummary;
use harvest_exp::store::TrialStore;
use harvest_exp::{PaperScenario, PolicyKind};

use crate::workloads::open_store;

/// A global allocator that counts allocations (and reallocations) per
/// thread. A binary opts in with
/// `#[global_allocator] static A: CountingAlloc = CountingAlloc;`.
#[derive(Debug)]
pub struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with` never allocates and tolerates thread-local teardown.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations made by the calling thread so far (0 when the counting
/// allocator is not installed).
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// `true` when [`CountingAlloc`] is this process's global allocator.
pub fn counting_installed() -> bool {
    let before = thread_allocs();
    let probe = black_box(Box::new(0u64));
    drop(probe);
    thread_allocs() > before
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System`'s guarantees carry over; the only
// addition is a thread-local counter bump, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: same contract as `GlobalAlloc::alloc`, upheld by our caller.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: same contract as `GlobalAlloc::alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: `ptr` came from `System` with `layout`; forwarded as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Kernel clock ticks per second of the `/proc` time fields (`USER_HZ`,
/// fixed at 100 on Linux).
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of the whole process, exited threads
/// included, in seconds (10 ms resolution).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesized command name start at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> f64 {
        fields
            .get(n - 3)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (field(14) + field(15)) / USER_HZ
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Total bytes and count of the pack files (`*.hpk`) in a store
/// directory.
fn pack_listing(dir: &Path) -> (u64, u64) {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "hpk"))
        .filter_map(|e| e.metadata().ok())
        .fold((0, 0), |(bytes, n), m| (bytes + m.len(), n + 1))
}

static PACK_HEADER: OnceLock<u64> = OnceLock::new();

/// Measures the fixed bytes every pack file starts with, from outside
/// the store: one record in one store, the same record twice in
/// another, and the difference. Writer threads hash to writer slots,
/// so how many packs a campaign creates varies from run to run; the
/// record bytes (pack bytes less these headers) do not.
pub fn calibrate_pack_header(dir: &Path) -> u64 {
    *PACK_HEADER.get_or_init(|| {
        let scenario = PaperScenario::new(0.4, 50.0);
        let key = scenario.trial_key(PolicyKind::Lsa, 0);
        let summary = TrialSummary::of(&scenario.run(PolicyKind::Lsa, 0));
        let bytes_after = |records: usize, tag: &str| {
            let store_dir = dir.join(tag);
            let _ = std::fs::remove_dir_all(&store_dir);
            let store = open_store(&store_dir);
            for _ in 0..records {
                TrialStore::store(&store, &key, &summary);
            }
            drop(store);
            let (bytes, packs) = pack_listing(&store_dir);
            let _ = std::fs::remove_dir_all(&store_dir);
            assert_eq!(packs, 1, "one writer thread appends to one pack");
            bytes
        };
        let (one, two) = (bytes_after(1, "header-1"), bytes_after(2, "header-2"));
        (2 * one)
            .checked_sub(two)
            .expect("records have a fixed size per key")
    })
}

/// Bytes of the records in a store directory: pack bytes less one
/// calibrated header per pack.
///
/// # Panics
///
/// Panics if [`calibrate_pack_header`] has not run.
pub fn record_bytes(dir: &Path) -> u64 {
    let header = *PACK_HEADER.get().expect("pack header calibrated at start");
    let (bytes, packs) = pack_listing(dir);
    bytes - packs * header
}

/// Wall time in milliseconds of a fixed, benchmark-owned integer and
/// floating-point loop: a reading of host speed that no change to the
/// program can move. The timed run rescales its end-to-end times by it
/// to one reference host speed (see `perfbench/README.md`).
pub fn host_reference_ms() -> f64 {
    let start = Instant::now();
    let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0.0f64);
    for _ in 0..black_box(4_000_000u64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc * 0.999_999 + (x >> 11) as f64 * 1e-16;
    }
    black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// The first `model name` line of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
