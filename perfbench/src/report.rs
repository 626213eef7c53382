//! What one run prints: human-readable lines as it goes, then one JSON
//! result line with exactly the metrics `BENCHMARK.json` names.

use imcat_obs::Json;

/// End-to-end metrics `--trace 0` reports in the result line, with their
/// units: the ones steady enough between identical runs to gate a change.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("train_s", "s"),
    ("peak_rss_mb", "MB"),
    ("read_p50_us", "us"),
    ("cold_recall_at_10", "frac"),
    ("test_recall_at_20", "frac"),
];

/// End-to-end metrics every `--trace 0` run prints by name and unit, which
/// the result line does not carry. The two wall times are `setup_s` and
/// `train_s` before scaling. For the others, on a shared 2-core machine
/// their spread between identical runs exceeded the largest bound the
/// benchmark may set (0.25); `perfbench/README.md` gives the measured
/// spreads. `fail_frac` is 0 on a healthy run, and the result line carries
/// its parts as `attempted` and `failed`.
pub const PRINTED_ONLY: [(&str, &str); 11] = [
    ("setup_wall_s", "s"),
    ("train_wall_s", "s"),
    ("read_qps", "1/s"),
    ("read_p99_us", "us"),
    ("open_p50_us", "us"),
    ("open_p99_us", "us"),
    ("slo_rate_qps", "1/s"),
    ("ingest_ack_p50_us", "us"),
    ("ingest_ack_p90_us", "us"),
    ("ingest_visible_p50_us", "us"),
    ("fail_frac", "frac"),
];

/// Per-layer metrics `--trace 1` reports, with their units.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("net.self_us.p50", "us"),
    ("net.rtt_us.p50", "us"),
    ("net.batch_size", "count"),
    ("net.refused", "count"),
    ("net.timeouts", "count"),
    ("serve.recommend_us.p50", "us"),
    ("serve.recommend_us.p99", "us"),
    ("serve.batch_us", "us"),
    ("serve.cache_hit_rate", "frac"),
    ("serve.ingest_us", "us"),
    ("serve.fold_us", "us"),
    ("serve.log_events", "count"),
    ("ann.probe_us.p50", "us"),
    ("ann.scan_frac", "frac"),
    ("ann.build_s", "s"),
    ("ann.insert_us", "us"),
    ("kernel.matmul_nt_rows_us", "us"),
    ("kernel.matmul_nt_rows_flops", "flop"),
    ("kernel.matmul_nt_rows_bytes", "B"),
    ("kernel.spmm_us", "us"),
    ("kernel.spmm_nnz", "count"),
    ("kernel.spmm_bytes", "B"),
    ("data.sample_s", "s"),
    ("core.phase_s.sampling", "s"),
    ("core.phase_s.forward", "s"),
    ("core.phase_s.backward", "s"),
    ("core.phase_s.optimizer", "s"),
    ("core.phase_s.refresh", "s"),
    ("core.kmeans_s", "s"),
    ("eval.validation_s", "s"),
    ("par.dispatch_us", "us"),
    ("ckpt.artifact_load_s", "s"),
    ("obs.overhead_us.p50", "us"),
];

/// One run's results.
#[derive(Default)]
pub struct Report {
    /// Requests sent over the wire.
    pub attempted: u64,
    /// Requests that failed, were refused or timed out, plus slices that
    /// never became visible.
    pub failed: u64,
    problems: Vec<String>,
    metrics: Vec<(String, f64)>,
}

impl Report {
    /// Records a failed check; the run then reports `correct: false` and
    /// exits nonzero.
    pub fn problem(&mut self, text: impl Into<String>) {
        let text = text.into();
        println!("CHECK FAILED: {text}");
        self.problems.push(text);
    }

    /// Records a metric value.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Prints `names` by name, value and unit, outside the result line.
    pub fn print_only(&self, names: &[(&str, &str)]) {
        for &(name, unit) in names {
            match self.metrics.iter().rev().find(|(n, _)| n == name) {
                Some(&(_, v)) => println!("{name:<28} {v:>16.6} {unit} (not gated)"),
                None => println!("{name:<28} {:>16} {unit} (not gated)", "not measured"),
            }
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The result line: `names` in order, each of which must have been
    /// recorded with a finite value (a missing or non-finite one is a
    /// failed check).
    pub fn result(&mut self, names: &[(&str, &str)]) -> String {
        let mut metrics = Vec::new();
        for &(name, unit) in names {
            let value = self.metrics.iter().rev().find(|(n, _)| n == name).map(|&(_, v)| v);
            match value {
                Some(v) if v.is_finite() => {
                    println!("{name:<28} {v:>16.6} {unit}");
                    metrics.push((
                        name,
                        Json::obj(vec![("value", Json::Num(v)), ("unit", Json::Str(unit.into()))]),
                    ));
                }
                _ => self.problem(format!("metric {name} was not measured")),
            }
        }
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_carries_exactly_the_named_metrics() {
        let mut r = Report { attempted: 10, failed: 1, ..Report::default() };
        r.metric("a", 1.5);
        r.metric("b", 2.0);
        r.metric("ignored", 3.0);
        let line = r.result(&[("a", "s"), ("b", "us")]);
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_f64), None);
        assert!(matches!(doc.get("correct"), Some(Json::Bool(true))));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(10.0));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(1.0));
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(metrics.get("a").and_then(|m| m.get("value")).and_then(Json::as_f64), Some(1.5));
        assert_eq!(metrics.get("b").and_then(|m| m.get("unit")).and_then(Json::as_str), Some("us"));
        assert!(metrics.get("ignored").is_none());
    }

    #[test]
    fn a_missing_or_nonfinite_metric_fails_the_run() {
        let mut r = Report::default();
        r.metric("nan", f64::NAN);
        let line = r.result(&[("nan", "s"), ("absent", "s")]);
        assert!(!r.correct());
        assert!(line.starts_with("{\"correct\":false"), "{line}");
    }
}
