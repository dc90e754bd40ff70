//! Decided-cell outcomes, and the reader for legacy JSONL manifests.
//!
//! A fault campaign decides every cell either cleanly, with its
//! [`TrialSummary`], or by quarantine, with its [`CellFailure`]. The
//! pack store ([`crate::store::PackStore`]) checkpoints both kinds as
//! decided records, so a killed campaign resumes without re-simulating
//! finished cells. Quarantined cells count as decided: the simulator is
//! deterministic, so a cell that panicked or tripped the watchdog will
//! do so again — resuming re-reports it instead of re-failing.
//!
//! Campaigns once checkpointed into a JSONL manifest instead, one line
//! per decided cell keyed by the canonical
//! [`TrialKey`](crate::cache::TrialKey) text. [`parse_legacy_manifest`]
//! reads such a file's text so `exp store import` can move its cells
//! into a pack store; nothing writes the format any more.

use std::collections::BTreeMap;

use serde::Deserialize;

use crate::cache::TrialSummary;
use crate::parallel::CellFailure;

/// How a decided cell was decided.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// The cell simulated (or store-resolved) cleanly.
    Done(TrialSummary),
    /// The cell was quarantined: it panicked or returned a typed
    /// simulation error.
    Quarantined(CellFailure),
}

/// One legacy manifest line. `status` discriminates; exactly one of
/// `summary`/`failure` is populated.
#[derive(Debug, Deserialize)]
struct ManifestLine {
    key: String,
    status: String,
    summary: Option<TrialSummary>,
    failure: Option<CellFailure>,
}

impl ManifestLine {
    fn into_entry(self) -> Option<(String, CellOutcome)> {
        let outcome = match self.status.as_str() {
            "done" => CellOutcome::Done(self.summary?),
            "quarantined" => CellOutcome::Quarantined(self.failure?),
            _ => return None,
        };
        Some((self.key, outcome))
    }
}

/// The decided cells of a legacy JSONL manifest, sorted by key text.
/// A torn, unparseable, or unknown-status line is skipped; a key
/// decided twice keeps its last line, as the manifest itself did.
pub fn parse_legacy_manifest(text: &str) -> Vec<(String, CellOutcome)> {
    let mut cells = BTreeMap::new();
    for line in text.lines() {
        if let Some((key, outcome)) = serde_json::from_str::<ManifestLine>(line.trim())
            .ok()
            .and_then(ManifestLine::into_entry)
        {
            cells.insert(key, outcome);
        }
    }
    cells.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(missed: u64) -> TrialSummary {
        TrialSummary {
            released: 10,
            completed_in_time: 10 - missed,
            missed,
            sample_level_bits: vec![0.5f64.to_bits()],
        }
    }

    fn done_line(key: &str, missed: u64) -> String {
        format!(
            "{{\"key\":\"{key}\",\"status\":\"done\",\"summary\":{},\"failure\":null}}",
            serde_json::to_string(&summary(missed)).unwrap()
        )
    }

    #[test]
    fn legacy_manifest_lines_parse_and_bad_lines_are_skipped() {
        let quarantined = "{\"key\":\"cell-b\",\"status\":\"quarantined\",\"summary\":null,\
             \"failure\":{\"message\":\"injected panic\",\"panicked\":true,\"worker\":2,\
             \"flight\":null}}";
        let text = [
            done_line("cell-a", 1),
            quarantined.to_owned(),
            "garbage not json".to_owned(),
            "{\"key\":\"cell-x\",\"status\":\"pending\",\"summary\":null,\"failure\":null}"
                .to_owned(),
            done_line("cell-c", 0),
            done_line("cell-a", 3),
            String::new(),
            // A kill mid-write tears the final line.
            done_line("cell-d", 2)[..30].to_owned(),
        ]
        .join("\n");
        let cells = parse_legacy_manifest(&text);
        let keys: Vec<&str> = cells.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["cell-a", "cell-b", "cell-c"],
            "sorted, bad lines gone"
        );
        assert_eq!(cells[0].1, CellOutcome::Done(summary(3)), "last line wins");
        match &cells[1].1 {
            CellOutcome::Quarantined(f) => {
                assert!(f.panicked);
                assert_eq!((f.worker, f.message.as_str()), (2, "injected panic"));
            }
            other => panic!("quarantine lost: {other:?}"),
        }
        assert_eq!(cells[2].1, CellOutcome::Done(summary(0)));
    }
}
