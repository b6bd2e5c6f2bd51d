//! The traced measurement: per-layer metrics for one workload.
//!
//! One untraced run gives the engine counters, host time per event and
//! the modelled resource rates; one run with every request traced gives
//! the stage table and the tracing overhead. Microbenchmarks then time
//! each layer's public functions on the workload's own inputs: its pool
//! blocks and its steady-state flow count. Every step runs inside a
//! host-time span, and the spans go into one Chrome trace file together
//! with the program's spans.

use crate::audit::Auditor;
use crate::clock::Stopwatch;
use crate::output::{Checks, Report, PER_LAYER};
use crate::sim::{self, Outcome};
use crate::spans::{self, HostSpans};
use crate::stats;
use crate::workloads::Spec;
use simkit::{FlowSpec, FluidResource, Rng, Time};
use smartds::fabric::FluidKey;
use smartds::{Services, ServicesConfig};
use std::hint::black_box;
use std::path::Path;
use tracekit::{StageKind, TraceConfig};

/// Closed spans the traced run keeps (the oldest are dropped beyond this),
/// which bounds the trace file to tens of MiB.
const TRACE_RING: usize = 1 << 16;

/// Each byte-path microbenchmark processes at least this many bytes,
/// passing over the pool as often as needed.
const MICRO_BYTES: usize = 32 << 20;

/// Work budget of the fluid-solver microbenchmark, in flow replacements
/// times flows carried: a replacement costs time linear in the flow
/// count, so this keeps the microbenchmark near a second at any count.
const FLUID_WORK: u64 = 30_000_000;

/// The note the program puts on spans it cut off at the end of a run.
const CUT_OFF: &str = "unclosed-at-run-end";

/// Measures `spec` layer by layer and writes its trace to `trace_path`.
pub fn run(spec: &Spec, trace_path: &Path) {
    let mut checks = Checks::default();
    let mut report = Report::new(PER_LAYER);
    let mut host = HostSpans::new();

    let (pool, pool_s) = host.time("corpus", "pool-gen", || spec.pool());
    report.set(
        "corpus.pool_gen_s",
        pool_s,
        format!("{} blocks", spec.cfg.pool_blocks),
    );
    let auditor = Auditor::new(spec, pool);

    let (plain, _) = host.time("core", "run-untraced", || {
        sim::run(spec, &spec.cfg, spec.threads)
    });
    host.time("audit", "audit-untraced", || {
        auditor.record(&mut checks, &plain, "untraced run")
    });
    let traced_cfg = spec.cfg.clone().with_trace(TraceConfig {
        sample_one_in: 1,
        capacity: TRACE_RING,
    });
    let (traced, _) = host.time("core", "run-traced", || {
        sim::run(spec, &traced_cfg, spec.threads)
    });
    host.time("audit", "audit-traced", || {
        auditor.record(&mut checks, &traced, "traced run")
    });

    checks.record(
        Outcome::of(&traced).digest == Outcome::of(&plain).digest,
        || "tracing changed the simulated outputs".into(),
    );

    engine_metrics(&mut report, &plain);
    resource_metrics(&mut report, &plain);
    counter_metrics(&mut report, spec, &plain);
    stage_metrics(&mut report, &traced);
    report.set(
        "tracekit.overhead_ratio",
        traced.cpu_s / plain.cpu_s - 1.0,
        format!(
            "traced {:.3} CPU s vs untraced {:.3} CPU s",
            traced.cpu_s, plain.cpu_s
        ),
    );
    let (fluid, flows) = busiest_fluid(&plain);
    drop(plain);

    let blocks: Vec<&[u8]> = (0..spec.cfg.pool_blocks)
        .map(|i| auditor.pool().payload(i))
        .collect();
    codec_metrics(&mut report, &mut checks, &mut host, &blocks);
    services_metrics(&mut report, &mut checks, &mut host, spec, &blocks);
    let (ns, _) = host.time("simkit", "fluid-churn", || {
        fluid_ns_per_op(spec.cfg.seed, flows)
    });
    report.set(
        "simkit.fluid_ns_per_op",
        ns,
        format!("{flows} flows, as on {fluid} at the end of the untraced run"),
    );

    let tracer = &traced.cluster.tracer;
    checks.record(
        tracer.open_count() == 0 && tracer.opened() == tracer.closed(),
        || {
            format!(
                "program spans unbalanced: {} opened, {} closed, {} open",
                tracer.opened(),
                tracer.closed(),
                tracer.open_count()
            )
        },
    );
    report.set(
        "tracekit.spans",
        tracer.opened() as f64,
        format!("{} dropped", tracer.dropped()),
    );
    let (export, export_s) = host.time("tracekit", "export", || tracer.export_chrome());
    report.set(
        "tracekit.export_s",
        export_s,
        format!("{} KiB", export.len() / 1024),
    );
    let retained = tracer.spans().count();
    let written = spans::write(trace_path, &host, &export);
    drop(export);
    let parsed = written.and_then(|()| spans::validate(trace_path));
    checks.record(parsed == Ok((host.len(), retained)), || {
        format!("trace {}: {parsed:?}", trace_path.display())
    });

    println!(
        "{} seed {}: traced run, trace written to {}",
        spec.name,
        spec.cfg.seed,
        trace_path.display()
    );
    report.finish(checks);
}

/// Engine counters, host cost per event and how many threads were busy,
/// from the untraced run.
fn engine_metrics(report: &mut Report, plain: &sim::Run) {
    let s = plain.stats;
    report.set("simkit.events", s.events as f64, "untraced run");
    report.set("simkit.rounds", s.rounds as f64, "untraced run");
    report.set("simkit.messages", s.messages as f64, "untraced run");
    report.set(
        "simkit.events_per_round",
        s.events as f64 / s.rounds.max(1) as f64,
        "untraced run",
    );
    report.set(
        "simkit.events_per_s",
        s.events as f64 / plain.cpu_s,
        "untraced run, per CPU second",
    );
    report.set(
        "simkit.host_ns_per_event",
        plain.cpu_s * 1e9 / s.events.max(1) as f64,
        "untraced run, CPU time",
    );
    report.set(
        "simkit.busy_threads",
        plain.cpu_s / plain.wall_s,
        format!(
            "untraced run: {:.3} CPU s over {:.3} wall s",
            plain.cpu_s, plain.wall_s
        ),
    );
}

/// Modelled resource rates over the measurement window.
fn resource_metrics(report: &mut Report, plain: &sim::Run) {
    let r = &plain.report;
    report.set("hwmodel.port_tx_gbps", r.port_tx_gbps, "simulated");
    report.set("hwmodel.hbm_gbps", r.hbm_gbps, "simulated");
    report.set(
        "hwmodel.host_mem_gbps",
        r.mem_read_gbps + r.mem_write_gbps,
        "simulated",
    );
    report.set(
        "hwmodel.pcie_gbps",
        r.nic_pcie_h2d_gbps + r.nic_pcie_d2h_gbps + r.dev_pcie_h2d_gbps + r.dev_pcie_d2h_gbps,
        "simulated, NIC and device links, both directions",
    );
}

/// Fault, retry, admission and data-service counters of the untraced run.
fn counter_metrics(report: &mut Report, spec: &Spec, plain: &sim::Run) {
    let r = &plain.report;
    let scale = plain.cluster.scale_stats();
    for (name, v) in [
        ("core.timeouts", r.timeouts),
        ("core.retries", r.retries),
        ("core.aborts", r.aborts),
        ("core.failovers", r.failovers),
        ("core.write_failures", r.write_failures),
        ("core.admit_deferred", scale.deferred_total()),
        ("core.admit_rejected", scale.rejected_total()),
        ("core.shed", scale.shed),
        ("core.backlog_at_end", scale.backlog_at_end),
    ] {
        report.set(name, v as f64, "untraced run");
    }
    let faults = spec.cfg.fault_plan.len() + spec.cfg.topo_faults.len();
    report.set("faultkit.events", faults as f64, "scheduled fault events");
    let svc = plain.cluster.service_stats();
    let note = if svc.is_some() {
        "untraced run"
    } else {
        "services off: 0"
    };
    let svc = svc.unwrap_or_default();
    let d = svc.dedup;
    let negatives = d.bloom_fp + d.bloom_negative;
    report.set("datakit.cache_hit_rate", svc.cache.hit_rate(), note);
    report.set(
        "datakit.dedup_ratio",
        if d.chunks > 0 { d.dedup_ratio() } else { 0.0 },
        note,
    );
    report.set(
        "datakit.seal_ratio",
        if svc.seals > 0 { svc.seal_ratio() } else { 0.0 },
        note,
    );
    report.set(
        "datakit.bloom_fp_rate",
        if negatives > 0 {
            d.bloom_fp as f64 / negatives as f64
        } else {
            0.0
        },
        note,
    );
}

/// The traced run's stage table: latency segments over every write, and
/// resource occupancy over the spans the ring kept.
fn stage_metrics(report: &mut Report, traced: &sim::Run) {
    let segments = &traced.cluster.metrics.breakdown;
    for (kind, mean, p99) in [
        (
            StageKind::Ingress,
            "core.seg.ingress.mean_us",
            "core.seg.ingress.p99_us",
        ),
        (
            StageKind::Parse,
            "core.seg.parse.mean_us",
            "core.seg.parse.p99_us",
        ),
        (
            StageKind::Compress,
            "core.seg.compress.mean_us",
            "core.seg.compress.p99_us",
        ),
        (
            StageKind::Replicate,
            "core.seg.replicate.mean_us",
            "core.seg.replicate.p99_us",
        ),
        (
            StageKind::Ack,
            "core.seg.ack.mean_us",
            "core.seg.ack.p99_us",
        ),
    ] {
        let h = segments.hist(kind);
        let note = format!("{} writes", h.count());
        report.set(mean, h.mean().as_us(), note.clone());
        report.set(p99, stats::quantile(h, 0.99).us, note);
    }
    let kept = tracekit::StageBreakdown::from_spans(
        traced
            .cluster
            .tracer
            .spans()
            .filter(|s| !s.notes.contains(&CUT_OFF)),
    );
    for (kind, name) in [
        (StageKind::Wire, "rocenet.wire_us"),
        (StageKind::EngineJob, "hwmodel.engine_job_us"),
        (StageKind::DiskIo, "blockstore.disk_io_us"),
    ] {
        let h = kept.hist(kind);
        report.set(
            name,
            h.mean().as_us(),
            format!("mean of {} kept spans", h.count()),
        );
    }
    println!("stage table of the kept spans (simulated us):");
    print!("{}", kept.render_table());
}

/// Passes over the pool that make up at least [`MICRO_BYTES`].
fn passes(blocks: &[&[u8]]) -> usize {
    let bytes: usize = blocks.iter().map(|b| b.len()).sum();
    MICRO_BYTES.div_ceil(bytes.max(1))
}

fn mib_s(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / (1 << 20) as f64 / secs
}

/// LZ4 and CRC32 throughput over the pool blocks.
fn codec_metrics(report: &mut Report, checks: &mut Checks, host: &mut HostSpans, blocks: &[&[u8]]) {
    let n = passes(blocks);
    let raw: usize = blocks.iter().map(|b| b.len()).sum::<usize>() * n;
    let (packed, secs) = host.time("lz4kit", "compress", || {
        let mut last = Vec::new();
        for _ in 0..n {
            last = blocks
                .iter()
                .map(|b| lz4kit::compress(b))
                .collect::<Vec<_>>();
        }
        last
    });
    report.set(
        "lz4kit.compress_mib_s",
        mib_s(raw, secs),
        format!("{n} passes"),
    );
    let packed_bytes: usize = packed.iter().map(Vec::len).sum();
    report.set(
        "lz4kit.ratio",
        (raw / n) as f64 / packed_bytes as f64,
        "pool bytes over compressed bytes",
    );
    let (exact, secs) = host.time("lz4kit", "decompress", || {
        let mut exact = true;
        for _ in 0..n {
            for (b, c) in blocks.iter().zip(&packed) {
                let out = lz4kit::decompress(c, b.len());
                exact &= out.as_deref().ok() == Some(*b);
            }
        }
        exact
    });
    checks.record(exact, || "lz4 round trip changed a pool block".into());
    report.set(
        "lz4kit.decompress_mib_s",
        mib_s(raw, secs),
        format!("{n} passes"),
    );
    let (_, secs) = host.time("blockstore", "crc32", || {
        let mut acc = 0u32;
        for _ in 0..n {
            for b in blocks {
                acc ^= blockstore::crc32(black_box(b));
            }
        }
        black_box(acc)
    });
    report.set(
        "blockstore.crc32_mib_s",
        mib_s(raw, secs),
        format!("{n} passes"),
    );
}

/// Seal and unseal throughput over the pool blocks, each pass on fresh
/// service state so every pass dedups the same way.
fn services_metrics(
    report: &mut Report,
    checks: &mut Checks,
    host: &mut HostSpans,
    spec: &Spec,
    blocks: &[&[u8]],
) {
    let cfg = spec
        .cfg
        .services
        .clone()
        .unwrap_or_else(ServicesConfig::paper);
    let n = passes(blocks);
    let raw: usize = blocks.iter().map(|b| b.len()).sum::<usize>() * n;
    let mut seal_s = 0.0;
    let mut sealed = None;
    for _ in 0..n {
        let mut svc = Services::new(&cfg);
        let (containers, secs) = host.time("datakit", "seal", || {
            blocks
                .iter()
                .enumerate()
                .map(|(i, b)| svc.seal(i as u64, b))
                .collect::<Vec<_>>()
        });
        seal_s += secs;
        sealed = Some((svc, containers));
    }
    report.set(
        "datakit.seal_mib_s",
        mib_s(raw, seal_s),
        format!("{n} passes"),
    );
    let Some((svc, containers)) = sealed else {
        return;
    };
    let (exact, secs) = host.time("datakit", "unseal", || {
        let mut exact = true;
        for _ in 0..n {
            for (i, (b, c)) in blocks.iter().zip(&containers).enumerate() {
                exact &= svc.unseal(i as u64, c).as_deref() == Some(*b);
            }
        }
        exact
    });
    checks.record(exact, || {
        "seal/unseal round trip changed a pool block".into()
    });
    report.set(
        "datakit.unseal_mib_s",
        mib_s(raw, secs),
        format!("{n} passes"),
    );
}

/// The middle tier's busiest fluid resource when the untraced run ends:
/// its name and the flows it carries. These are the resources the program
/// exposes; the rack links of a topology are private to it.
fn busiest_fluid(plain: &sim::Run) -> (&'static str, usize) {
    let fabric = &plain.cluster.fabric;
    (0..FluidKey::count(fabric.ports.len()))
        .map(|i| fabric.fluid(FluidKey::from_index(i)))
        .map(|f| (f.name(), f.active_flows()))
        .max_by_key(|&(_, flows)| flows)
        .unwrap_or(("no resource", 0))
}

/// Host nanoseconds per flow replaced in a `FluidResource` carrying
/// `flows` flows: each completion is synced, taken, and replaced by a new
/// flow of 2–8 KiB.
fn fluid_ns_per_op(seed: u64, flows: usize) -> f64 {
    let flows = flows.max(1);
    let mut rng = Rng::new(seed ^ 0xF1_0D);
    let mut size = move || 2048.0 + rng.gen_range(6 * 1024) as f64;
    let mut fluid = FluidResource::new("bench-fluid", 12.5e9);
    let mut now = Time::ZERO;
    for token in 0..flows as u64 {
        fluid.start_flow(now, size(), FlowSpec::new(), token);
    }
    let mut done = Vec::new();
    let target = FLUID_WORK / flows as u64;
    let mut ops = 0u64;
    let clock = Stopwatch::start();
    for _ in 0..target * 4 {
        let Some(at) = fluid.next_wake().filter(|_| ops < target) else {
            break;
        };
        now = at;
        fluid.sync(now);
        fluid.take_completed_into(&mut done);
        for end in done.drain(..) {
            fluid.start_flow(now, size(), FlowSpec::new(), end.token);
            ops += 1;
        }
    }
    clock.secs() * 1e9 / ops.max(1) as f64
}
