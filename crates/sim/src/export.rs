//! CSV export of simulation outcomes.
//!
//! Per-job records are written in a documented CSV schema so results
//! can be archived, diffed across code versions, and plotted by external
//! tooling without re-running simulations.

use crate::outcome::SimOutcome;

/// CSV header for per-job records.
pub const RECORDS_HEADER: &str =
    "job,submit,first_start,completion,dedicated,turnaround,stretch,preemptions,migrations,restarts";

/// Serialize the per-job records of an outcome to CSV (header included).
pub fn records_to_csv(outcome: &SimOutcome) -> String {
    let mut out = String::with_capacity(64 * (outcome.records.len() + 1));
    out.push_str(RECORDS_HEADER);
    out.push('\n');
    for r in &outcome.records {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{}\n",
            r.id.0,
            r.submit,
            r.first_start.map(|s| s.to_string()).unwrap_or_default(),
            r.completion,
            r.dedicated,
            r.turnaround,
            r.stretch,
            r.preemptions,
            r.migrations,
            r.restarts,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::make_record;
    use dfrs_core::ids::JobId;

    fn sample_outcome() -> SimOutcome {
        SimOutcome {
            algorithm: "test".into(),
            records: vec![
                make_record(JobId(0), 0.0, Some(5.0), 105.0, 100.0, 1, 2, 1),
                make_record(JobId(1), 10.0, None, 40.0, 25.0, 0, 0, 0),
            ],
            makespan: 105.0,
            jobs_completed: 2,
            ..SimOutcome::default()
        }
    }

    #[test]
    fn csv_round_trip() {
        // Every field in schema order; floats in Rust's shortest
        // round-trip form, so the text parses back to the same bits.
        assert_eq!(
            records_to_csv(&sample_outcome()),
            format!("{RECORDS_HEADER}\n0,0,5,105,100,105,1.05,1,2,1\n1,10,,40,25,30,1,0,0,0\n")
        );
    }

    #[test]
    fn none_first_start_round_trips() {
        // A job that never started leaves the `first_start` field empty.
        let csv = records_to_csv(&sample_outcome());
        let rows: Vec<Vec<&str>> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').collect())
            .collect();
        assert_eq!(rows[0][2], "5");
        assert_eq!(rows[1][2], "");
    }

    #[test]
    fn empty_outcome_round_trips() {
        assert_eq!(
            records_to_csv(&SimOutcome::default()),
            format!("{RECORDS_HEADER}\n")
        );
    }
}
