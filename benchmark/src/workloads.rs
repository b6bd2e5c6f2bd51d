//! The three benchmark workloads. Each is a pure function of its seed:
//! the seed picks the block pool's content, the request addresses, the
//! tenant arrival stream and the fault schedule. The README says why each
//! workload exists and which layers it loads.

use faultkit::{ChaosSpec, FaultPlan};
use simkit::Time;
use smartds::{
    AdmissionSpec, Design, LoadSpec, Placement, RunConfig, ServicesConfig, TopoLink, Topology,
};

/// Workload names, in the order the README lists them.
pub const NAMES: [&str; 3] = ["write_dense", "sealed_mix", "rack_chaos"];

/// One workload, ready to run.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload name (one of [`NAMES`]).
    pub name: &'static str,
    /// The simulated system and its inputs.
    pub cfg: RunConfig,
    /// Share of requests issued as reads.
    pub read_fraction: f64,
    /// Engine worker threads for the run.
    pub threads: usize,
}

impl Spec {
    /// The workload called `name` with inputs drawn from `seed`.
    pub fn new(name: &str, seed: u64) -> Option<Spec> {
        match name {
            "write_dense" => Some(write_dense(seed)),
            "sealed_mix" => Some(sealed_mix(seed)),
            "rack_chaos" => Some(rack_chaos(seed)),
            _ => None,
        }
    }

    /// The block pool the cluster builds for this workload (same size,
    /// seed and corpus profile), for audits and layer microbenchmarks.
    pub fn pool(&self) -> smartds::Workload {
        let block = hwmodel::consts::BLOCK_SIZE;
        match &self.cfg.corpus_profile {
            Some(p) => {
                smartds::Workload::with_profile(block, self.cfg.pool_blocks, self.cfg.seed, p)
            }
            None => smartds::Workload::new(block, self.cfg.pool_blocks, self.cfg.seed),
        }
    }
}

fn base(ports: usize, seed: u64, warmup_ms: f64, measure_ms: f64) -> RunConfig {
    let mut cfg = RunConfig::saturating(Design::SmartDs { ports });
    cfg.seed = seed;
    cfg.warmup = Time::from_ms(warmup_ms);
    cfg.measure = Time::from_ms(measure_ms);
    cfg
}

/// The paper's multi-port write path (Fig. 10): six ports saturated by a
/// closed loop of 256 outstanding requests per port over a small pool.
/// One request in six is a read (the production mix of §2.2.3), so the
/// read tail is defined on every workload.
fn write_dense(seed: u64) -> Spec {
    let mut cfg = base(6, seed, 0.5, 1.5);
    cfg.pool_blocks = 128;
    cfg.outstanding = 256 * 6;
    Spec {
        name: "write_dense",
        cfg: cfg.with_sync_matrix(),
        read_fraction: 1.0 / 6.0,
        threads: 2,
    }
}

/// The sealed byte path: one port with dedup, encryption and the hot-block
/// cache on fixed-function engines, a redundant corpus, and a 16 Ki-block
/// pool that outgrows the 256-block cache. Half the requests are reads
/// over a Zipf(0.99) address stream.
fn sealed_mix(seed: u64) -> Spec {
    let mut cfg = base(1, seed, 2.0, 18.0);
    cfg.pool_blocks = 16 * 1024;
    cfg.outstanding = 64;
    cfg.zipf_theta = Some(0.99);
    let cfg = cfg
        .with_cores(4)
        .with_corpus_profile(corpus::Profile::redundant())
        .with_services(ServicesConfig::paper().with_placement(Placement::Engine));
    Spec {
        name: "sealed_mix",
        cfg,
        read_fraction: 0.5,
        threads: 1,
    }
}

/// Open-loop Zipf tenants above the fabric knee of an oversubscribed 4×8
/// rack, with 1 ms request timeouts, under a seeded storm of server
/// crashes plus one rack downlink killed for 1.5 ms mid-window.
///
/// The tenant stream is `LoadSpec::rack_default` with its bursts (3× the
/// base load for about 7 % of the time) split into 96 short ones, and the
/// storm carries crashes only: with a few long bursts, stalls or port
/// flaps, one random episode decides whether p99 lands in its tail, and
/// p99 then varies several-fold from seed to seed. The 80 ms window holds
/// enough episodes that the read p99 of one seed lies within a few
/// percent of another's.
fn rack_chaos(seed: u64) -> Spec {
    const OFFERED_GBPS: f64 = 30.0;
    let cfg = base(1, seed, 4.0, 80.0);
    let end = cfg.warmup + cfg.measure;
    let mid = cfg.warmup + Time::from_ms(40.0);
    let storm = ChaosSpec::new(cfg.warmup, end)
        .with_servers(32)
        .with_ports(1)
        .with_crashes(8)
        .with_stalls(0)
        .with_link_flaps(0)
        .with_mean_outage(Time::from_us(300.0))
        .with_max_concurrent_down(1);
    let mut load = LoadSpec::rack_default(OFFERED_GBPS, end);
    load.bursts = 96;
    load.burst_len = Time::from_ns(62_500.0);
    let cfg = cfg
        .with_topology(Topology::new(4, 8).with_oversubscription(6.0, 3.0))
        .with_load(load)
        .with_admission(AdmissionSpec::new(48, 192))
        .with_fault_plan(FaultPlan::chaos(seed, &storm))
        .with_request_timeout(Time::from_ms(1.0))
        .with_topo_fault(mid, TopoLink::RackDown(2), 0.0)
        .with_topo_fault(mid + Time::from_us(1500.0), TopoLink::RackDown(2), 1.0);
    Spec {
        name: "rack_chaos",
        cfg,
        read_fraction: 0.5,
        threads: 1,
    }
}
