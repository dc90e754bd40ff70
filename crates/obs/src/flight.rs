//! Crash flight recorder: a bounded ring of recent events, frozen into
//! replayable dumps when something dies.
//!
//! The simulator's full trace is unbounded and usually off; when a
//! watchdog fires or a worker panics, what the post-mortem needs is the
//! *last few hundred* events, plus the engine counters at the moment of
//! death. A [`FlightRecorder`] keeps exactly that: a fixed-capacity ring
//! of [`FlightEvent`]s (older events are dropped, counted, never
//! reallocated past capacity) that the simulation feeds while it runs.
//! On failure, [`FlightRecorder::capture`] freezes the ring into a
//! [`FlightDump`] queued on the recorder; the campaign driver drains
//! dumps with [`FlightRecorder::take_dumps`], fills in the owning cell's
//! key text, and writes each as a small JSONL file next to the manifest.
//!
//! This crate knows nothing about the simulator, so events are
//! pre-rendered `(kind, detail)` strings — the cost of rendering is only
//! paid when a recorder is installed, which it never is on the pinned
//! warm paths.
//!
//! Dump files are JSONL: one [`FlightLine::Meta`] header (key, reason,
//! engine counters) followed by one [`FlightLine::Event`] per ring slot,
//! oldest first. [`FlightDump::from_jsonl`] round-trips them.

use crate::export::{jsonl_to_vec, to_jsonl_string, JsonlWriter};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// A recorder shared between a run context and the simulation model it
/// lends itself to; the mutex is uncontended (one simulation at a time)
/// and survives worker panics.
pub type SharedFlightRecorder = Arc<Mutex<FlightRecorder>>;

/// Default ring capacity: enough to hold the full release/start/complete
/// churn of a few hyperperiods at §5.1 scale while staying under ~100 kB
/// rendered.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 512;

/// One recorded event: a pre-rendered simulator trace event or a driver
/// marker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Monotone sequence number (never resets; survives ring wrap).
    pub seq: u64,
    /// Simulation time of the event (0 for driver markers).
    pub t: f64,
    /// Event kind (`"released"`, `"started"`, ..., or `"mark"`).
    pub kind: String,
    /// Rendered payload (debug form of the trace event, or marker text).
    pub detail: String,
}

/// A frozen post-mortem: the ring contents plus counters at capture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightDump {
    /// Canonical key text of the cell that died. The simulator does not
    /// know cell keys, so this is empty at capture and filled in by the
    /// campaign driver when it pairs dumps with failed cells.
    pub key: String,
    /// Why the dump was taken (`"watchdog-event-budget"`, `"panic"`, ...).
    pub reason: String,
    /// Engine events handled when the dump was taken.
    pub events_handled: u64,
    /// Events that fell off the ring before capture.
    pub dropped: u64,
    /// Ring contents, oldest first.
    pub events: Vec<FlightEvent>,
}

/// One line of a flight-dump JSONL file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FlightLine {
    /// Header: everything but the events.
    Meta(FlightMeta),
    /// One ring slot.
    Event(FlightEvent),
}

/// Header line of a dump file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightMeta {
    /// See [`FlightDump::key`].
    pub key: String,
    /// See [`FlightDump::reason`].
    pub reason: String,
    /// See [`FlightDump::events_handled`].
    pub events_handled: u64,
    /// See [`FlightDump::dropped`].
    pub dropped: u64,
}

impl FlightDump {
    /// Serialize as JSONL: one `Meta` header, then one `Event` per line.
    pub fn to_jsonl(&self) -> Result<String, serde_json::Error> {
        let mut lines = vec![FlightLine::Meta(FlightMeta {
            key: self.key.clone(),
            reason: self.reason.clone(),
            events_handled: self.events_handled,
            dropped: self.dropped,
        })];
        lines.extend(self.events.iter().cloned().map(FlightLine::Event));
        to_jsonl_string(&lines)
    }

    /// Write the JSONL form into `out`.
    pub fn write_jsonl<W: Write>(&self, out: W) -> io::Result<()> {
        let mut w = JsonlWriter::new(out);
        w.write(&FlightLine::Meta(FlightMeta {
            key: self.key.clone(),
            reason: self.reason.clone(),
            events_handled: self.events_handled,
            dropped: self.dropped,
        }))?;
        for ev in &self.events {
            w.write(&FlightLine::Event(ev.clone()))?;
        }
        w.finish().map(|_| ())
    }

    /// Parse a dump file written by [`Self::write_jsonl`] /
    /// [`Self::to_jsonl`]. The first line must be the `Meta` header.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let lines: Vec<FlightLine> = jsonl_to_vec(text)?;
        let mut iter = lines.into_iter();
        let meta = match iter.next() {
            Some(FlightLine::Meta(meta)) => meta,
            Some(_) => return Err("flight dump must begin with a Meta line".to_string()),
            None => return Err("flight dump is empty".to_string()),
        };
        let mut events = Vec::new();
        for line in iter {
            match line {
                FlightLine::Event(ev) => events.push(ev),
                FlightLine::Meta(_) => return Err("flight dump has a second Meta line".to_string()),
            }
        }
        Ok(Self {
            key: meta.key,
            reason: meta.reason,
            events_handled: meta.events_handled,
            dropped: meta.dropped,
            events,
        })
    }
}

/// Fixed-capacity ring of recent events plus a queue of frozen dumps.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    ring: VecDeque<FlightEvent>,
    seq: u64,
    dropped: u64,
    pending: Vec<FlightDump>,
}

impl FlightRecorder {
    /// New recorder holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            ring: VecDeque::with_capacity(capacity),
            seq: 0,
            dropped: 0,
            pending: Vec::new(),
        }
    }

    /// Convenience: a recorder behind the `Arc<Mutex<..>>` that run
    /// contexts and models share.
    pub fn shared(capacity: usize) -> SharedFlightRecorder {
        Arc::new(Mutex::new(Self::new(capacity)))
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Record one event, evicting the oldest if the ring is full.
    pub fn record(&mut self, t: f64, kind: &str, detail: String) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(FlightEvent {
            seq: self.seq,
            t,
            kind: kind.to_string(),
            detail,
        });
        self.seq += 1;
    }

    /// Record a driver marker (e.g. the key text of the cell about to
    /// run), so dumps are attributable even when the crash predates any
    /// simulation event.
    pub fn mark(&mut self, label: &str) {
        self.record(0.0, "mark", label.to_string());
    }

    /// Freeze the current ring into a pending [`FlightDump`]. The ring
    /// keeps running (it is not cleared): several runs through one pool
    /// may abort and each capture sees the events up to its own moment.
    pub fn capture(&mut self, reason: &str, events_handled: u64) {
        self.pending.push(FlightDump {
            key: String::new(),
            reason: reason.to_string(),
            events_handled,
            dropped: self.dropped,
            events: self.ring.iter().cloned().collect(),
        });
    }

    /// Number of dumps captured and not yet taken.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Drain the captured dumps, oldest first.
    pub fn take_dumps(&mut self) -> Vec<FlightDump> {
        std::mem::take(&mut self.pending)
    }

    /// Forget ring contents (not pending dumps); sequence numbering and
    /// the drop counter restart too.
    pub fn clear(&mut self) {
        self.ring.clear();
        self.seq = 0;
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_only_the_tail() {
        let mut rec = FlightRecorder::new(4);
        for i in 0..10 {
            rec.record(i as f64, "released", format!("job {i}"));
        }
        rec.capture("watchdog-event-budget", 123);
        let dumps = rec.take_dumps();
        assert_eq!(dumps.len(), 1);
        let dump = &dumps[0];
        assert_eq!(dump.events.len(), 4);
        assert_eq!(dump.dropped, 6);
        assert_eq!(dump.events_handled, 123);
        // Oldest-first tail: seqs 6..10.
        let seqs: Vec<u64> = dump.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert!(rec.take_dumps().is_empty(), "take drains");
    }

    #[test]
    fn marks_survive_into_dumps() {
        let mut rec = FlightRecorder::new(8);
        rec.mark("v1|scenario|edf|7");
        rec.record(1.5, "stalled", "until 2.0".to_string());
        rec.capture("panic", 0);
        let dump = rec.take_dumps().remove(0);
        assert_eq!(dump.events[0].kind, "mark");
        assert_eq!(dump.events[0].detail, "v1|scenario|edf|7");
    }

    #[test]
    fn dump_round_trips_through_jsonl() {
        let mut rec = FlightRecorder::new(4);
        rec.mark("key text");
        rec.record(2.0, "missed", "job 3".to_string());
        rec.capture("watchdog-no-progress", 42);
        let mut dump = rec.take_dumps().remove(0);
        dump.key = "v1|scenario|lsa|0".to_string();

        let text = dump.to_jsonl().unwrap();
        let back = FlightDump::from_jsonl(&text).unwrap();
        assert_eq!(back, dump);

        let mut buf = Vec::new();
        dump.write_jsonl(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), text);

        // A headless file is rejected.
        let headless: String = text.lines().skip(1).map(|l| format!("{l}\n")).collect();
        assert!(FlightDump::from_jsonl(&headless)
            .unwrap_err()
            .contains("Meta"));
    }

    #[test]
    fn capture_without_clear_stacks_dumps() {
        let mut rec = FlightRecorder::new(8);
        rec.record(1.0, "idled", "until 2".to_string());
        rec.capture("watchdog-event-budget", 10);
        rec.record(2.0, "started", "job 0".to_string());
        rec.capture("watchdog-event-budget", 20);
        let dumps = rec.take_dumps();
        assert_eq!(dumps.len(), 2);
        assert_eq!(dumps[0].events.len(), 1);
        assert_eq!(dumps[1].events.len(), 2);
    }
}
