//! The benchmark's measuring process: one workload, one seed, one run.
//!
//! `run.py` starts a fresh process of this binary for every run, so each
//! run pays its own set-up and has its own peak RSS. A run describes the
//! workload's scenario through the public API, times `Scenario::build`
//! (set-up) and `Simulation::run`, times a fixed calibration kernel before
//! and after them, and prints its measurements as one JSON object on
//! stdout. `run.py` checks digests and combines the processes.
//!
//! ```text
//! perfbench run <workload> <seed> [--trace]
//! perfbench digest <workload> <first-seed> <last-seed>
//! ```
//!
//! `--trace` splits the run by layer from outside the simulator: every
//! host's GRO engine and edge policy is wrapped in a timing shim that
//! forwards each trait method, the telemetry queue profile is attached,
//! and public counters are read after the run. The traced digest must
//! equal the untraced one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::process::ExitCode;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use presto::endhost::{
    DirectPolicy, EdgePolicy, PathSignal, PathTag, ReceiveOffload, Segment, VSwitch,
};
use presto::gro::OfficialGro;
use presto::netsim::{FlowKey, HostId, LinkCounters, Mac, Packet};
use presto::prelude::*;
use presto::telemetry::{FlushReason, SharedSink};
use presto::testbed::sim::HostNode;
use presto_lab::Campaign;

const USAGE: &str = "usage: perfbench run <workload> <seed> [--trace]\n       \
                     perfbench digest <workload> <first-seed> <last-seed>\n\
                     workloads: stride, skew_prequal, threetier_8192";

/// Heap allocation calls (`alloc`, `alloc_zeroed`, `realloc`) so far.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting calls.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no memory
// handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The reference workloads; README.md says why each is in the set.
#[derive(Clone, Copy)]
enum Workload {
    Stride,
    SkewPrequal,
    ThreeTier8192,
}

impl Workload {
    fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "stride" => Ok(Workload::Stride),
            "skew_prequal" => Ok(Workload::SkewPrequal),
            "threetier_8192" => Ok(Workload::ThreeTier8192),
            other => Err(format!("unknown workload `{other}`")),
        }
    }

    /// The scenario one run of the workload simulates for `seed`.
    /// Describing it is not timed; building and running it are.
    fn scenario(self, seed: u64) -> Result<Scenario, String> {
        match self {
            Workload::Stride => lab_point("presto", "stride:8", seed),
            Workload::SkewPrequal => lab_point("prequal", "skew:8:32:1000:400:2", seed),
            Workload::ThreeTier8192 => {
                let mut flows = stride_elephants(8192, 256);
                flows.truncate(64);
                Ok(Scenario::builder(SchemeSpec::presto(), seed)
                    .three_tier(ThreeTierSpec {
                        pods: 32,
                        tors_per_pod: 16,
                        hosts_per_tor: 16,
                        aggs_per_pod: 16,
                        ..Default::default()
                    })
                    .duration(SimDuration::from_millis(10))
                    .warmup(SimDuration::from_millis(2))
                    .elephants(flows)
                    .name("threetier_8192")
                    .build())
            }
        }
    }

    /// `Scenario::build` calls per run; `setup_s` is their mean. A
    /// testbed16 build takes a fraction of a millisecond, so one would be
    /// mostly timer and cache noise; the 8192-host build takes half a
    /// second.
    fn setup_reps(self) -> usize {
        match self {
            Workload::Stride | Workload::SkewPrequal => 64,
            Workload::ThreeTier8192 => 1,
        }
    }
}

/// One testbed16 grid point, described as a lab campaign so the
/// benchmark runs exactly what `lab run` would. The 40 ms / 10 ms window
/// is the committed campaigns' own, so seed 1 of `stride` is the
/// paper-grid headline point and its digest is the one pinned in
/// `baselines/paper_grid.json`.
fn lab_point(scheme: &str, workload: &str, seed: u64) -> Result<Scenario, String> {
    let text = format!(
        "[campaign]\nname = \"perfbench\"\nduration_ms = 40\nwarmup_ms = 10\n\
         [axes]\nscheme = [\"{scheme}\"]\nworkload = [\"{workload}\"]\nseed = [{seed}]\n"
    );
    let points = Campaign::from_toml(&text)?.expand()?;
    match points.as_slice() {
        [point] => Ok(point.to_scenario()),
        _ => Err(format!("expected one grid point, got {}", points.len())),
    }
}

/// Named measurements of one run.
#[derive(Default)]
struct Tally(BTreeMap<String, f64>);

impl Tally {
    fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    fn json(&self, digest: u64) -> String {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{\"digest\":\"{digest:#018x}\",{}}}", fields.join(","))
    }
}

/// Wall seconds of a fixed workload that does not touch the simulator:
/// an event-queue-like heap, a flow-table-like hash map and short-lived
/// buffers, about 30 ms on a 2-core x86-64 VM. The host this benchmark
/// runs on changes speed by tens of percent over minutes; `run.py` divides
/// the simulator's times by this kernel's, timed in the same processes,
/// to take that drift out.
fn calibrate() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut queue = BinaryHeap::new();
    let mut table: HashMap<u64, u64> = HashMap::new();
    let mut acc = 0u64;
    for i in 0..400_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        queue.push(Reverse(x % 1_000_000));
        *table.entry(x % 50_000).or_insert(0) += i;
        if queue.len() > 2000 {
            acc = acc.wrapping_add(queue.pop().map_or(0, |r| r.0));
        }
        let buf = vec![0u8; (x % 256) as usize + 1];
        acc = acc.wrapping_add(std::hint::black_box(buf).len() as u64);
    }
    std::hint::black_box((acc, &table));
    t.elapsed().as_secs_f64()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Build and run one workload, returning its measurements as JSON.
fn run(workload: Workload, seed: u64, traced: bool) -> Result<String, String> {
    let scenario = workload.scenario(seed)?;
    let mut tally = Tally::default();
    let calibrate_before = calibrate();
    let digest = run_scenario(&scenario, workload.setup_reps(), traced, &mut tally);
    tally.set("calibrate_s", (calibrate_before + calibrate()) / 2.0);
    tally.set("peak_rss_mb", peak_rss_mb()?);
    Ok(tally.json(digest))
}

/// Build and run one scenario into `tally`, returning its report digest.
fn run_scenario(scenario: &Scenario, setup_reps: usize, traced: bool, tally: &mut Tally) -> u64 {
    // The fabric alone, timed apart from the rest of set-up.
    let t = Instant::now();
    let topology = match scenario.three_tier() {
        Some(spec) => Topology::three_tier(spec),
        None => Topology::clos(scenario.clos()),
    };
    let topology_s = t.elapsed().as_secs_f64();
    drop(topology);

    let mut setup_s = 0.0;
    let mut built = None;
    let mut alloc_setup = 0;
    for _ in 0..setup_reps {
        // Free the previous copy first, so peak RSS stays one simulation's.
        drop(built.take());
        let a = allocs();
        let t = Instant::now();
        let sim = scenario.build();
        setup_s += t.elapsed().as_secs_f64() / setup_reps as f64;
        alloc_setup = allocs() - a;
        built = Some(sim);
    }
    let mut sim = built.expect("setup_reps is at least 1");

    let layers = traced.then(|| Layers::attach(&mut sim));

    let a = allocs();
    let t = Instant::now();
    let report = sim.run();
    let run_s = t.elapsed().as_secs_f64();
    let alloc_run = allocs() - a;

    let t = Instant::now();
    let digest = std::hint::black_box(&report).digest();
    let digest_s = t.elapsed().as_secs_f64();

    tally.set("run_s", run_s);
    tally.set("setup_s", setup_s);
    tally.set("netsim.topology_s", topology_s);
    tally.set("testbed.build_rest_s", setup_s - topology_s);
    tally.set("metrics.digest_s", digest_s);
    tally.set("simcore.events", report.events_processed as f64);
    tally.set("alloc.setup", alloc_setup as f64);
    tally.set("alloc.run", alloc_run as f64);
    if let Some(layers) = layers {
        layers.report(&mut sim, &report, run_s, tally);
    }
    digest
}

/// Wall time, calls and heap allocations inside one layer's trait calls.
#[derive(Default)]
struct Span {
    ns: Cell<u64>,
    calls: Cell<u64>,
    allocs: Cell<u64>,
}

impl Span {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let a = allocs();
        let t = Instant::now();
        let r = f();
        self.ns.set(self.ns.get() + t.elapsed().as_nanos() as u64);
        self.allocs.set(self.allocs.get() + (allocs() - a));
        self.calls.set(self.calls.get() + 1);
        r
    }

    fn secs(&self) -> f64 {
        self.ns.get() as f64 * 1e-9
    }
}

/// Segments GRO pushed up, and the raw packets merged into them.
#[derive(Default)]
struct Merged {
    segments: Cell<u64>,
    packets: Cell<u64>,
}

impl Merged {
    fn count(&self, segs: &[Segment]) {
        let packets: u64 = segs.iter().map(|s| s.packets as u64).sum();
        self.segments.set(self.segments.get() + segs.len() as u64);
        self.packets.set(self.packets.get() + packets);
    }
}

/// A host's GRO engine behind a timing shim. The calls that do work are
/// timed; every method, defaulted ones included, forwards to the engine.
struct TimedGro {
    inner: Box<dyn ReceiveOffload>,
    span: Rc<Span>,
    merged: Rc<Merged>,
}

impl ReceiveOffload for TimedGro {
    fn on_packet(&mut self, now: SimTime, pkt: &Packet) {
        self.span.time(|| self.inner.on_packet(now, pkt))
    }

    fn flush(&mut self, now: SimTime) -> Vec<Segment> {
        let segs = self.span.time(|| self.inner.flush(now));
        self.merged.count(&segs);
        segs
    }

    fn flush_into(&mut self, now: SimTime, out: &mut Vec<Segment>) {
        let start = out.len();
        self.span.time(|| self.inner.flush_into(now, out));
        self.merged.count(&out[start..]);
    }

    fn next_deadline(&self) -> Option<SimTime> {
        self.span.time(|| self.inner.next_deadline())
    }

    fn flush_expired(&mut self, now: SimTime) -> Vec<Segment> {
        let segs = self.span.time(|| self.inner.flush_expired(now));
        self.merged.count(&segs);
        segs
    }

    fn flush_expired_into(&mut self, now: SimTime, out: &mut Vec<Segment>) {
        let start = out.len();
        self.span.time(|| self.inner.flush_expired_into(now, out));
        self.merged.count(&out[start..]);
    }

    fn reorder_stats(&self) -> (u64, u64) {
        self.inner.reorder_stats()
    }

    fn flush_reason_counts(&self) -> [u64; FlushReason::COUNT] {
        self.inner.flush_reason_counts()
    }

    fn set_telemetry(&mut self, host: u32, sink: SharedSink) {
        self.inner.set_telemetry(host, sink)
    }

    fn ce_merge_count(&self) -> u64 {
        self.inner.ce_merge_count()
    }
}

/// A host's original vSwitch serving as the policy of a fresh one. The
/// calls that do work are timed; every method, defaulted ones included,
/// forwards to the original policy.
struct TimedPolicy {
    inner: VSwitch,
    span: Rc<Span>,
}

impl EdgePolicy for TimedPolicy {
    fn assign(&mut self, now: SimTime, flow: FlowKey, len: u32, retx: bool) -> PathTag {
        self.span
            .time(|| self.inner.policy_mut().assign(now, flow, len, retx))
    }

    fn set_labels(&mut self, dst: HostId, labels: Vec<Mac>) {
        self.inner.policy_mut().set_labels(dst, labels)
    }

    fn current_labels(&self, dst: HostId) -> Vec<Mac> {
        self.inner.policy().current_labels(dst)
    }

    fn flowlet_sizes(&self) -> Vec<u64> {
        self.inner.policy().flowlet_sizes()
    }

    fn flowcells_created(&self) -> u64 {
        self.inner.policy().flowcells_created()
    }

    fn path_spray_counts(&self) -> Vec<u64> {
        self.inner.policy().path_spray_counts()
    }

    fn labels_updated(&mut self, now: SimTime) {
        self.inner.policy_mut().labels_updated(now)
    }

    fn flow_hint(&mut self, flow: FlowKey, bytes: Option<u64>) {
        self.inner.policy_mut().flow_hint(flow, bytes)
    }

    fn path_feedback(&mut self, now: SimTime, signals: &[PathSignal]) {
        self.span
            .time(|| self.inner.policy_mut().path_feedback(now, signals))
    }

    fn feedback_interval(&self) -> Option<SimDuration> {
        self.inner.policy().feedback_interval()
    }

    fn probe_params(&self) -> Option<ProbeParams> {
        self.inner.policy().probe_params()
    }

    fn probe_feedback(&mut self, now: SimTime, loads: &[HostLoad]) {
        self.span
            .time(|| self.inner.policy_mut().probe_feedback(now, loads))
    }

    fn select_replicas(
        &mut self,
        now: SimTime,
        candidates: &[HostId],
        k: usize,
    ) -> Option<Vec<HostId>> {
        self.span
            .time(|| self.inner.policy_mut().select_replicas(now, candidates, k))
    }

    fn probe_pool_stats(&self) -> Option<PoolStats> {
        self.inner.policy().probe_pool_stats()
    }
}

/// The traced run's instruments.
#[derive(Default)]
struct Layers {
    gro: Rc<Span>,
    lb: Rc<Span>,
    merged: Rc<Merged>,
}

impl Layers {
    /// Wrap every host's GRO engine and policy, and attach the event-queue
    /// profile. The sampler is pushed past the end of the run: only the
    /// profile and the counters are read.
    fn attach(sim: &mut Simulation) -> Layers {
        let layers = Layers::default();
        for host in &mut sim.hosts {
            let inner = std::mem::replace(&mut host.gro, Box::new(OfficialGro::new()));
            host.gro = Box::new(TimedGro {
                inner,
                span: Rc::clone(&layers.gro),
                merged: Rc::clone(&layers.merged),
            });
            let id = host.vswitch.host;
            let inner =
                std::mem::replace(&mut host.vswitch, VSwitch::new(id, Box::new(DirectPolicy)));
            host.vswitch = VSwitch::new(
                id,
                Box::new(TimedPolicy {
                    inner,
                    span: Rc::clone(&layers.lb),
                }),
            );
        }
        sim.enable_telemetry(TelemetryConfig {
            ring_capacity: 16,
            sample_every: SimDuration::from_secs(3600),
        });
        layers
    }

    fn report(&self, sim: &mut Simulation, report: &Report, run_s: f64, tally: &mut Tally) {
        let tel = sim
            .telemetry_report()
            .expect("Layers::attach enabled telemetry");
        tally.set("simcore.queue_high_water", tel.queue_high_water as f64);
        for kind in &tel.event_queue {
            tally.set(&format!("simcore.events.{}", kind.name), kind.count as f64);
        }
        let links = sim.topo.fabric.links();
        let sum =
            |f: fn(&LinkCounters) -> u64| links.iter().map(|l| f(&l.counters)).sum::<u64>() as f64;
        tally.set("netsim.tx_packets", sum(|c| c.tx_packets));
        tally.set("netsim.drops", sum(|c| c.dropped_packets));
        tally.set("netsim.max_queue_bytes", sum(|c| c.max_queue_bytes));
        let hosts = &sim.hosts;
        let sum = |f: fn(&HostNode) -> u64| hosts.iter().map(f).sum::<u64>() as f64;
        tally.set("endhost.tx_segments", sum(|h| h.vswitch.tx_segments));
        tally.set("endhost.egress_staged", sum(|h| h.egress.staged_total));
        tally.set("endhost.ring_drops", sum(|h| h.ring.overflow_drops));
        let split = tel.flush_split();
        tally.set("gro.flush.loss", split.loss as f64);
        tally.set("gro.flush.reorder", split.reordering as f64);
        tally.set("gro.reorders_masked", report.gro_reorders_masked as f64);
        tally.set("gro.timeout_fires", report.gro_timeout_fires as f64);
        tally.set("lb.flowcells", report.flowcells as f64);
        tally.set("probe.rounds", report.probe_rounds as f64);
        tally.set("transport.retransmissions", report.retransmissions as f64);
        tally.set("transport.timeouts", report.timeouts as f64);
        tally.set("transport.fast_retransmits", report.fast_retransmits as f64);
        for (name, span) in [("gro", &self.gro), ("lb", &self.lb)] {
            tally.set(&format!("{name}.s"), span.secs());
            tally.set(&format!("{name}.calls"), span.calls.get() as f64);
            tally.set(&format!("{name}.allocs"), span.allocs.get() as f64);
        }
        tally.set("engine.other_s", run_s - self.gro.secs() - self.lb.secs());
        tally.set("gro.segments_out", self.merged.segments.get() as f64);
        tally.set("gro.packets_in", self.merged.packets.get() as f64);
    }
}

fn parse_seed(s: &str) -> Result<u64, String> {
    s.parse().map_err(|e| format!("seed `{s}`: {e}"))
}

fn dispatch(args: &[String]) -> Result<(), String> {
    match args {
        [cmd, workload, seed, flags @ ..] if cmd == "run" => {
            let traced = match flags {
                [] => false,
                [flag] if flag == "--trace" => true,
                _ => return Err(format!("unknown flags {flags:?}")),
            };
            let line = run(Workload::parse(workload)?, parse_seed(seed)?, traced)?;
            println!("{line}");
            Ok(())
        }
        [cmd, workload, first, last] if cmd == "digest" => {
            let workload = Workload::parse(workload)?;
            for seed in parse_seed(first)?..=parse_seed(last)? {
                let digest = workload.scenario(seed)?.run().digest();
                println!("{seed} {digest:#018x}");
            }
            Ok(())
        }
        _ => Err("bad arguments".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
