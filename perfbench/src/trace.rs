//! In-memory spans of the traced run, their self-time accounting, and
//! a Chrome-trace export.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer; nothing inside the program is instrumented. A span on a
//! worker track counts `1 / threads` of its duration toward its
//! parent, so the self times of all layers add up to the campaign's
//! wall time: in a parallel phase, the phase's own self time is the
//! share of `threads × wall` that no worker spent inside a layer call
//! (spawn, claiming, imbalance).

use std::fmt::Write as _;
use std::time::Instant;

/// Figure drivers: grid construction, aggregation, orchestration.
pub const FIGURES: &str = "exp.figures";
/// The pack store: open, probe, append, barrier, close.
pub const STORE: &str = "exp.store";
/// Scenario layer: trial keys and prefab builds.
pub const SCENARIO: &str = "exp.scenario";
/// The parallel map's own time inside a fan-out phase.
pub const PARALLEL: &str = "exp.parallel";
/// One trial through a pooled context: `core.system` with the event
/// queue, EDF queue, piecewise kernel, policies and predictor below it.
pub const SYSTEM: &str = "core.system";

/// Every layer, in report order.
pub const LAYERS: [&str; 5] = [FIGURES, STORE, SCENARIO, PARALLEL, SYSTEM];

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The layer the call belongs to.
    pub layer: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Worker index for spans recorded on a worker thread.
    pub worker: Option<u32>,
    /// Campaign the span belongs to (1-based).
    pub campaign: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

fn ns_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The driver-thread recorder; owns every span of a traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
    campaign: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            campaign: 0,
        }
    }
}

impl Tracer {
    /// Starts a new campaign and opens its root span.
    pub fn begin_campaign(&mut self) -> usize {
        self.campaign += 1;
        self.open("campaign", FIGURES, None)
    }

    /// Opens a span on the driver thread.
    pub fn open(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<usize>,
    ) -> usize {
        let now = ns_since(self.epoch);
        self.spans.push(Span {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            parent,
            worker: None,
            campaign: self.campaign,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`open`](Self::open).
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = ns_since(self.epoch);
    }

    /// Times `f` as one driver-thread span under `parent`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, layer, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// A recorder for worker `worker` whose spans nest under `parent`.
    pub fn track(&self, worker: usize, parent: usize) -> WorkerTrack {
        WorkerTrack {
            epoch: self.epoch,
            worker: u32::try_from(worker).expect("worker index fits u32"),
            parent,
            campaign: self.campaign,
            spans: Vec::new(),
        }
    }

    /// Moves the spans of finished worker tracks into the tracer.
    pub fn absorb(&mut self, tracks: impl IntoIterator<Item = WorkerTrack>) {
        for t in tracks {
            self.spans.extend(t.spans);
        }
    }

    /// Writes every span as Chrome-trace JSON (`ph: "X"` complete
    /// events; one process per campaign, one thread per worker, the
    /// driver on thread 0).
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let tid = s.worker.map_or(0, |w| w + 1);
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":{},\"tid\":{tid},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.layer,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.campaign,
            );
        }
        out.push_str("\n]\n");
        out
    }
}

/// A worker thread's span recorder, created in the parallel map's
/// per-worker init and absorbed by the [`Tracer`] afterwards.
#[derive(Debug)]
pub struct WorkerTrack {
    epoch: Instant,
    worker: u32,
    parent: usize,
    campaign: u32,
    spans: Vec<Span>,
}

impl WorkerTrack {
    /// Times `f` as one span on this worker.
    pub fn time<R>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let start_ns = ns_since(self.epoch);
        let out = f();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: ns_since(self.epoch),
            parent: Some(self.parent),
            worker: Some(self.worker),
            campaign: self.campaign,
        });
        out
    }
}

/// Self-time split of one campaign.
#[derive(Debug, Clone, Default)]
pub struct Accounting {
    /// Wall time of the campaign's root span.
    pub campaign_ns: f64,
    /// Self time per layer, aligned with [`LAYERS`].
    pub self_ns: [f64; LAYERS.len()],
    /// Summed busy time of workers inside fan-out phases.
    pub worker_busy_ns: f64,
    /// Summed `threads × wall` of fan-out phases.
    pub worker_capacity_ns: f64,
    /// Summed per-phase spread between the first and the last worker
    /// to finish its last item.
    pub tail_ns: f64,
}

/// Splits the campaign rooted at `root` into layer self times.
pub fn account(spans: &[Span], root: usize, threads: usize) -> Accounting {
    let campaign = spans[root].campaign;
    let weight = |s: &Span| {
        if s.worker.is_some() {
            1.0 / threads as f64
        } else {
            1.0
        }
    };
    let mut acc = Accounting {
        campaign_ns: spans[root].dur_ns() as f64,
        ..Accounting::default()
    };
    let layer_index = |layer: &str| {
        LAYERS
            .iter()
            .position(|l| *l == layer)
            .expect("known layer")
    };
    let members: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].campaign == campaign)
        .collect();
    // One pass over the children: weighted child time per parent, and
    // per fan-out phase each worker's last finish.
    let mut child_ns = vec![0.0f64; spans.len()];
    let mut last_end: Vec<Vec<(u32, u64)>> = vec![Vec::new(); spans.len()];
    for &i in &members {
        let s = &spans[i];
        let Some(p) = s.parent else { continue };
        child_ns[p] += weight(s) * s.dur_ns() as f64;
        if let Some(w) = s.worker {
            acc.worker_busy_ns += s.dur_ns() as f64;
            match last_end[p].iter_mut().find(|(lw, _)| *lw == w) {
                Some((_, end)) => *end = (*end).max(s.end_ns),
                None => last_end[p].push((w, s.end_ns)),
            }
        }
    }
    for &i in &members {
        let s = &spans[i];
        acc.self_ns[layer_index(s.layer)] += weight(s) * s.dur_ns() as f64 - child_ns[i];
        if s.layer == PARALLEL {
            acc.worker_capacity_ns += threads as f64 * s.dur_ns() as f64;
            let ends = &last_end[i];
            if let (Some(first), Some(last)) = (
                ends.iter().map(|(_, e)| *e).min(),
                ends.iter().map(|(_, e)| *e).max(),
            ) {
                acc.tail_ns += (last - first) as f64;
            }
        }
    }
    acc
}

/// Summed duration of the spans named `name` in a campaign.
pub fn named(spans: &[Span], campaign: u32, name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.campaign == campaign && s.name == name)
        .map(|s| s.dur_ns() as f64)
        .sum()
}
