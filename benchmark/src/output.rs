//! The metric catalogue and the result line the benchmark ends with.

use simkit::json::Object;

/// End-to-end metrics: `(name, unit)`, as `BENCHMARK.json` lists them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("host_requests_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("sim_write_gbps", "Gbps"),
    ("sim_write_p50_us", "us"),
    ("sim_write_p99_us", "us"),
    ("sim_write_p999_us", "us"),
    ("sim_read_p99_us", "us"),
    ("stored_bytes_per_user_byte", "ratio"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics from the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("simkit.events", "count"),
    ("simkit.rounds", "count"),
    ("simkit.messages", "count"),
    ("simkit.events_per_round", "events/round"),
    ("simkit.events_per_s", "1/s"),
    ("simkit.host_ns_per_event", "ns"),
    ("simkit.busy_threads", "threads"),
    ("simkit.fluid_ns_per_op", "ns"),
    ("lz4kit.compress_mib_s", "MiB/s"),
    ("lz4kit.decompress_mib_s", "MiB/s"),
    ("lz4kit.ratio", "ratio"),
    ("blockstore.crc32_mib_s", "MiB/s"),
    ("blockstore.disk_io_us", "us"),
    ("datakit.seal_mib_s", "MiB/s"),
    ("datakit.unseal_mib_s", "MiB/s"),
    ("datakit.cache_hit_rate", "ratio"),
    ("datakit.dedup_ratio", "ratio"),
    ("datakit.seal_ratio", "ratio"),
    ("datakit.bloom_fp_rate", "ratio"),
    ("hwmodel.port_tx_gbps", "Gbps"),
    ("hwmodel.hbm_gbps", "Gbps"),
    ("hwmodel.host_mem_gbps", "Gbps"),
    ("hwmodel.pcie_gbps", "Gbps"),
    ("hwmodel.engine_job_us", "us"),
    ("rocenet.wire_us", "us"),
    ("core.seg.ingress.mean_us", "us"),
    ("core.seg.ingress.p99_us", "us"),
    ("core.seg.parse.mean_us", "us"),
    ("core.seg.parse.p99_us", "us"),
    ("core.seg.compress.mean_us", "us"),
    ("core.seg.compress.p99_us", "us"),
    ("core.seg.replicate.mean_us", "us"),
    ("core.seg.replicate.p99_us", "us"),
    ("core.seg.ack.mean_us", "us"),
    ("core.seg.ack.p99_us", "us"),
    ("core.timeouts", "count"),
    ("core.retries", "count"),
    ("core.aborts", "count"),
    ("core.failovers", "count"),
    ("core.write_failures", "count"),
    ("core.admit_deferred", "count"),
    ("core.admit_rejected", "count"),
    ("core.shed", "count"),
    ("core.backlog_at_end", "count"),
    ("faultkit.events", "count"),
    ("corpus.pool_gen_s", "s"),
    ("tracekit.spans", "count"),
    ("tracekit.export_s", "s"),
    ("tracekit.overhead_ratio", "ratio"),
];

/// Correctness checks made during a run. Each failed check counts as one
/// failed operation in the result line.
#[derive(Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Records one check; a failure is reported on stderr.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// The metrics of one run, in catalogue order.
pub struct Report {
    catalogue: &'static [(&'static str, &'static str)],
    values: Vec<(&'static str, f64, String)>,
}

impl Report {
    /// An empty report for `catalogue`.
    pub fn new(catalogue: &'static [(&'static str, &'static str)]) -> Report {
        Report {
            catalogue,
            values: Vec::new(),
        }
    }

    /// Sets metric `name` to `value`; `note` says what it was measured on.
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.values.push((name, value, note.into()));
    }

    /// Prints one line per metric, then the result line, after checking
    /// that every catalogue metric was set once to a finite value.
    pub fn finish(self, mut checks: Checks) {
        for &(name, unit) in self.catalogue {
            let found: Vec<_> = self.values.iter().filter(|v| v.0 == name).collect();
            checks.record(found.len() == 1 && found[0].1.is_finite(), || {
                format!("metric {name} set {} times or not finite", found.len())
            });
            if let Some((_, value, note)) = found.first() {
                println!("  {name:<28} {value:>16.6} {unit:<12} {note}");
            }
        }
        checks.record(self.values.len() == self.catalogue.len(), || {
            "metric outside the catalogue".into()
        });
        let mut metrics = Object::new();
        for &(name, unit) in self.catalogue {
            if let Some((_, value, _)) = self.values.iter().find(|v| v.0 == name) {
                let m = Object::new().field("value", *value).field("unit", unit);
                metrics = metrics.field_raw(name, &m.finish());
            }
        }
        let line = Object::new()
            .field("correct", checks.failed == 0)
            .field("attempted", checks.attempted)
            .field("failed", checks.failed)
            .field_raw("metrics", &metrics.finish())
            .finish();
        println!("{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::json::{parse, Value};

    /// The catalogue here and `BENCHMARK.json` at the repository root
    /// must list the same metrics with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = parse(&text).expect("valid JSON");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let want: Vec<(String, String)> = catalogue
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, want, "{key}");
        }
    }
}
