//! One simulated run, timed from outside, and the simulated outcome the
//! end-to-end metrics are read from.

use crate::clock::{self, Stopwatch};
use crate::stats::{self, Quantile};
use crate::workloads::Spec;
use simkit::{EngineStats, Time};
use smartds::cluster::{self, Cluster};
use smartds::{RunConfig, RunReport};

/// A finished run with its host time.
pub struct Run {
    /// The program's report for the measurement window.
    pub report: RunReport,
    /// The finished cluster, for audits and counters.
    pub cluster: Cluster,
    /// Engine work counters.
    pub stats: EngineStats,
    /// CPU seconds of the whole run (all engine threads), set-up and
    /// warm-up included.
    pub cpu_s: f64,
    /// Wall seconds of the whole run.
    pub wall_s: f64,
}

/// Runs `cfg` (the workload's config, possibly traced) on `threads`
/// engine threads.
pub fn run(spec: &Spec, cfg: &RunConfig, threads: usize) -> Run {
    let wall = Stopwatch::start();
    let cpu = clock::cpu_secs();
    let (report, cluster, stats) = cluster::run_counted_stats(
        cfg,
        |c| c.set_read_fraction(spec.read_fraction),
        Some(threads),
    );
    let cpu_s = clock::cpu_secs() - cpu;
    let wall_s = wall.secs();
    Run {
        report,
        cluster,
        stats,
        cpu_s,
        wall_s,
    }
}

/// CPU seconds to set up a run of `spec` up to its first event: a run
/// whose warm-up and window are both empty. It builds the cluster, splits
/// it into shards, sets up the engine and schedules the faults and first
/// issues, stops at time zero and hands the shards back.
pub fn setup_s(spec: &Spec) -> f64 {
    let mut cfg = spec.cfg.clone();
    cfg.warmup = Time::ZERO;
    cfg.measure = Time::ZERO;
    run(spec, &cfg, spec.threads).cpu_s
}

/// The simulated outcome of one run: identical for every run of the same
/// workload and seed, at any engine thread count.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Requests (reads and writes) completed in the window.
    pub completed: u64,
    /// Requests refused or failed: write failures, admission rejections
    /// and open-loop sheds.
    pub refused: u64,
    /// Write throughput, Gbps.
    pub write_gbps: f64,
    /// Write latency quantiles.
    pub write_p50: Quantile,
    pub write_p99: Quantile,
    pub write_p999: Quantile,
    /// Read latency p99.
    pub read_p99: Quantile,
    /// Bytes written to storage (all replicas) per user byte written.
    pub stored_per_user: f64,
    /// Digest of every simulated output the program reports.
    pub digest: u64,
}

impl Outcome {
    /// Reads the outcome of `run`.
    pub fn of(run: &Run) -> Outcome {
        let cl = &run.cluster;
        let m = &cl.metrics;
        let scale = cl.scale_stats();
        let services = cl.service_stats().map(|s| s.to_json()).unwrap_or_default();
        let reads = &m.read_latency;
        let read_summary = format!(
            "{} {} {} {}",
            reads.count(),
            reads.mean().as_ps(),
            reads.quantile(0.99).as_ps(),
            reads.max().as_ps()
        );
        let digest = stats::digest([
            run.report.to_json().as_str(),
            format!("{:?}", run.stats).as_str(),
            scale.to_json().as_str(),
            services.as_str(),
            read_summary.as_str(),
        ]);
        let user = m.ingest.total();
        Outcome {
            completed: m.write_latency.count() + reads.count(),
            refused: m.write_failures + scale.rejected_total() + scale.shed,
            write_gbps: run.report.throughput_gbps,
            write_p50: stats::quantile(&m.write_latency, 0.50),
            write_p99: stats::quantile(&m.write_latency, 0.99),
            write_p999: stats::quantile(&m.write_latency, 0.999),
            read_p99: stats::quantile(reads, 0.99),
            stored_per_user: if user > 0.0 {
                m.stored.total() * cl.config().replication as f64 / user
            } else {
                0.0
            },
            digest,
        }
    }

    /// Completed requests over requests that reached a terminal outcome.
    pub fn ok_ratio(&self) -> f64 {
        let ended = self.completed + self.refused;
        if ended == 0 {
            0.0
        } else {
            self.completed as f64 / ended as f64
        }
    }
}
