//! The untraced measurement: repeated runs of one workload, reporting the
//! end-to-end metrics.
//!
//! Host metrics are medians over the repeats, in calibrated CPU time (see
//! [`calib`]): each run and each set-up sample is scaled by calibration
//! kernel passes timed right before and after it. Simulated metrics come
//! from the first run; every later run (and, for a multi-threaded
//! workload, one extra run on a single engine thread) must reproduce its
//! outputs exactly.

use crate::audit::Auditor;
use crate::calib::{self, Calibrator};
use crate::clock;
use crate::output::{Checks, Report, END_TO_END};
use crate::sim::{self, Outcome};
use crate::stats::{median, Quantile};
use crate::workloads::Spec;

/// Timed runs (after the first, untimed one) fewer than this are never
/// reported, however long each takes.
const MIN_RUNS: usize = 4;

/// Set-ups timed after each run, so the samples spread over the whole
/// invocation.
const SETUPS_PER_RUN: usize = 2;

/// Set-ups timed per invocation at least, since set-up is short and noisy.
const MIN_SETUPS: usize = 21;

/// Calibration kernel passes before and after each run.
const KERNEL_PASSES: usize = 3;

/// Fewest samples allowed beyond a reported tail percentile.
const MIN_BEYOND: u64 = 10;

/// Measures `spec` for at least `seconds` of wall time in runs.
pub fn run(spec: &Spec, seconds: f64) {
    let mut checks = Checks::default();
    let mut rates = Vec::new();
    let mut raw_rates = Vec::new();
    let mut passes = Vec::new();
    let mut setups = Vec::new();
    let mut measured = 0.0;
    let mut first: Option<Outcome> = None;
    let mut rss = None;
    let mut auditor: Option<Auditor> = None;
    let mut kernel: Option<Calibrator> = None;
    while rates.len() < MIN_RUNS || measured < seconds {
        // The first run is cold (its pages fault in) and runs before the
        // calibration kernel exists, so it is audited but not timed.
        let before = kernel.as_mut().map(|k| k.time_median(KERNEL_PASSES));
        let run = sim::run(spec, &spec.cfg, spec.threads);
        // Read the peak before the kernel and the audit allocate.
        rss = rss.or_else(clock::peak_rss_mib);
        let cal = kernel.get_or_insert_with(Calibrator::new);
        let after = cal.time_median(KERNEL_PASSES);
        let outcome = Outcome::of(&run);
        measured += run.wall_s;
        if let Some(before) = before {
            let pass_s = (before + after) / 2.0;
            let completed = outcome.completed as f64;
            rates.push(completed / calib::calibrated(run.cpu_s, pass_s));
            raw_rates.push(completed / run.cpu_s);
            passes.push(pass_s);
        }
        let auditor = auditor.get_or_insert_with(|| Auditor::new(spec, spec.pool()));
        auditor.record(&mut checks, &run, "run");
        match &first {
            None => first = Some(outcome),
            Some(f) => checks.record(f.digest == outcome.digest, || {
                format!(
                    "run {} simulated outputs differ from run 1",
                    rates.len() + 1
                )
            }),
        }
        time_setups(spec, cal, SETUPS_PER_RUN, &mut setups);
    }
    if let Some(cal) = kernel.as_mut() {
        time_setups(
            spec,
            cal,
            MIN_SETUPS.saturating_sub(setups.len()),
            &mut setups,
        );
    }
    let runs = rates.len();
    let first = first.expect("at least one run");
    if spec.threads > 1 {
        let run = sim::run(spec, &spec.cfg, 1);
        if let Some(a) = &auditor {
            a.record(&mut checks, &run, "single-thread run");
        }
        let same = Outcome::of(&run).digest == first.digest;
        checks.record(same, || {
            format!(
                "{} engine threads and 1 thread give different outputs",
                spec.threads
            )
        });
    }
    println!(
        "{} seed {}: {} runs, {:.2} s measured, {} engine thread(s)",
        spec.name,
        spec.cfg.seed,
        runs + 1,
        measured,
        spec.threads
    );
    let list = |xs: &[f64], scale: f64, digits: usize| {
        let each: Vec<String> = xs
            .iter()
            .map(|x| format!("{:.*}", digits, x * scale))
            .collect();
        each.join(" ")
    };
    println!(
        "  requests per calibrated CPU second, timed runs: {}",
        list(&rates, 1.0, 0)
    );
    println!(
        "  requests per CPU second, uncalibrated:          {}",
        list(&raw_rates, 1.0, 0)
    );
    println!(
        "  kernel pass around each run, ms:                {}",
        list(&passes, 1e3, 2)
    );
    if let Some((passes, pass_s)) = kernel.as_ref().map(Calibrator::summary) {
        println!(
            "  calibration kernel: median pass {:.3} ms over {passes} passes (reference {:.3} ms)",
            pass_s * 1e3,
            calib::REFERENCE_S * 1e3
        );
    }
    let mut report = Report::new(END_TO_END);
    report.set(
        "setup_s",
        median(&setups),
        format!("median of {} empty-window runs", setups.len()),
    );
    report.set(
        "host_requests_per_s",
        median(&rates),
        format!("median of {runs} runs after the first"),
    );
    checks.record(rss.is_some(), || "peak RSS unavailable".into());
    report.set("peak_rss_mib", rss.unwrap_or(0.0), "after the first run");
    report.set("sim_write_gbps", first.write_gbps, "simulated window");
    for (name, q, tail) in [
        ("sim_write_p50_us", first.write_p50, false),
        ("sim_write_p99_us", first.write_p99, true),
        ("sim_write_p999_us", first.write_p999, true),
        ("sim_read_p99_us", first.read_p99, true),
    ] {
        if tail {
            checks.record(q.beyond >= MIN_BEYOND, || {
                format!("{name}: only {} samples beyond it", q.beyond)
            });
        }
        report.set(name, q.us, samples(q));
    }
    report.set(
        "stored_bytes_per_user_byte",
        first.stored_per_user,
        "all replicas, simulated window",
    );
    report.set(
        "ok_ratio",
        first.ok_ratio(),
        format!(
            "{} completed, {} refused (fail ratio {:.6})",
            first.completed,
            first.refused,
            1.0 - first.ok_ratio()
        ),
    );
    report.finish(checks);
}

/// Times `n` set-ups of `spec`, each between two kernel passes, and adds
/// them to `setups` in calibrated seconds.
fn time_setups(spec: &Spec, kernel: &mut Calibrator, n: usize, setups: &mut Vec<f64>) {
    let mut before = kernel.time();
    for _ in 0..n {
        let cpu_s = sim::setup_s(spec);
        let after = kernel.time();
        setups.push(calib::calibrated(cpu_s, (before + after) / 2.0));
        before = after;
    }
}

fn samples(q: Quantile) -> String {
    format!("{} samples, {} beyond", q.samples, q.beyond)
}
