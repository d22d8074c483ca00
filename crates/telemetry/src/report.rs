//! Assembled per-run telemetry: counter tables, flush-reason and spray
//! attribution, queue-depth summaries, event-queue profile and the
//! drained trace ring — plus the JSONL and Chrome `trace_event`
//! exporters and the text summary printed by the `trace` binary.
//!
//! Everything here is plain owned data (`Send`), assembled once after a
//! run from state the simulation accumulated; ordering of every table is
//! fixed (links ascending, switches ascending, hosts ascending, reasons
//! in taxonomy order) so exports are byte-identical across platforms and
//! `ParallelRunner` worker counts.

use std::fmt::Write as _;

use crate::json::{json_f64, json_str, json_u64, push_f64, push_str_field};
use crate::{DropReason, FlushReason, TraceEvent, TraceRecord};

/// How many drop sites the summary lists.
pub const TOP_DROP_SITES: usize = 5;

/// One named counter on one component. `component` is a stable id like
/// `"link:3"`, `"switch:1"`, `"host:7"`, `"gro:7"` or `"tcp"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterEntry {
    /// Component id, `"kind:index"` (or bare kind for aggregates).
    pub component: String,
    /// Counter name, stable across runs.
    pub name: String,
    /// Final value.
    pub value: u64,
}

/// Queue-depth and utilization summary for one link, computed from the
/// periodic sampler.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueDepthSummary {
    /// Link index.
    pub link: u32,
    /// Number of samples taken.
    pub samples: u64,
    /// Median queued bytes.
    pub p50: u64,
    /// 90th-percentile queued bytes.
    pub p90: u64,
    /// 99th-percentile queued bytes.
    pub p99: u64,
    /// Maximum queued bytes observed at a sample point.
    pub max: u64,
    /// Mean utilization (fraction of line rate) over the sampled window.
    pub mean_util: f64,
}

/// One stage of a failure-recovery timeline (the Fig 17 decomposition):
/// the window between two consecutive fault/notification boundaries,
/// with its own loss and goodput accounting.
///
/// Stage names follow the paper's stages — `pre-failure`,
/// `fast-failover` (hardware reroute only), `post-reweight` (controller
/// re-weighted the label multisets), `recovering` (capacity restored,
/// controller not yet told) and `post-recovery` — and may repeat when
/// the fault plan flaps more than once.
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverStage {
    /// Stage name (see above).
    pub name: String,
    /// Stage start, nanoseconds of simulated time.
    pub start_ns: u64,
    /// Stage end, nanoseconds of simulated time.
    pub end_ns: u64,
    /// Goodput over the stage: application bytes acked per second, in
    /// gigabits, summed over all measured flows.
    pub goodput_gbps: f64,
    /// Fabric loss rate over the stage (dropped / offered data packets).
    pub loss_rate: f64,
    /// Data packets dropped inside the fabric during the stage.
    pub drops: u64,
    /// Data packets offered to the fabric during the stage.
    pub tx_packets: u64,
}

/// GRO flush pushes bucketed by what they reveal — the Fig 5 split.
///
/// `loss` counts pushes caused by an in-flowcell sequence gap (a real
/// drop), `reordering` counts pushes at flowcell boundaries (spraying
/// artifacts Presto's GRO is designed to absorb), `other` is everything
/// else (in-order merges, timeouts, capacity flushes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushSplit {
    /// Pushes indicating genuine loss (in-flowcell gap).
    pub loss: u64,
    /// Pushes indicating spray-induced reordering (flowcell boundary).
    pub reordering: u64,
    /// All remaining pushes.
    pub other: u64,
}

impl FlushSplit {
    /// Total pushes across the three buckets.
    pub fn total(&self) -> u64 {
        self.loss + self.reordering + self.other
    }
}

/// Per-event-type profile of the simulator event queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueProfileEntry {
    /// Event type name.
    pub name: String,
    /// Events of this type pushed.
    pub count: u64,
    /// Total scheduled-ahead time (push-to-due), nanoseconds.
    pub dwell_ns: u64,
}

/// The full telemetry snapshot for one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryReport {
    /// Scheme name the run used (matches `Report::scheme`).
    pub scheme: String,
    /// Aggregate GRO flush pushes per cause, across all hosts, indexed by
    /// [`FlushReason::index`].
    pub flush_reasons: [u64; FlushReason::COUNT],
    /// Flowcells assigned per spanning-tree path, aggregated over all
    /// sending hosts; index is the path (tree) id.
    pub spray_counts: Vec<u64>,
    /// Per-component counters, in fixed component order.
    pub counters: Vec<CounterEntry>,
    /// Sampled queue-depth/utilization summaries, links ascending.
    pub queue_depths: Vec<QueueDepthSummary>,
    /// Event-queue profile, in event-type table order.
    pub event_queue: Vec<QueueProfileEntry>,
    /// Peak pending-event count of the simulator queue.
    pub queue_high_water: u64,
    /// Failure-recovery timeline (empty for fault-free runs), in stage
    /// order.
    pub failover_stages: Vec<FailoverStage>,
    /// Drained trace ring: the newest `ring_capacity` events of the run.
    pub events: Vec<TraceRecord>,
    /// Records evicted from the ring because it was full.
    pub events_dropped: u64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    // Nearest-rank on a sorted slice.
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl QueueDepthSummary {
    /// Summarize raw depth samples (bytes) for `link`. `samples` is
    /// consumed as scratch (sorted in place).
    pub fn from_samples(link: u32, mut samples: Vec<u64>, mean_util: f64) -> Self {
        samples.sort_unstable();
        QueueDepthSummary {
            link,
            samples: samples.len() as u64,
            p50: percentile(&samples, 50.0),
            p90: percentile(&samples, 90.0),
            p99: percentile(&samples, 99.0),
            max: samples.last().copied().unwrap_or(0),
            mean_util,
        }
    }
}

fn event_kind(ev: &TraceEvent) -> &'static str {
    match ev {
        TraceEvent::PacketEnqueued { .. } => "PacketEnqueued",
        TraceEvent::PacketDropped { .. } => "PacketDropped",
        TraceEvent::GroHold { .. } => "GroHold",
        TraceEvent::GroFlush { .. } => "GroFlush",
        TraceEvent::FlowcellEmitted { .. } => "FlowcellEmitted",
        TraceEvent::Retransmit { .. } => "Retransmit",
        TraceEvent::FaultApplied { .. } => "FaultApplied",
        TraceEvent::ControllerNotified { .. } => "ControllerNotified",
        TraceEvent::LinkOccupancySample { .. } => "LinkOccupancySample",
        TraceEvent::EventQueueSample { .. } => "EventQueueSample",
    }
}

fn write_event_fields(out: &mut String, ev: &TraceEvent) {
    match *ev {
        TraceEvent::PacketEnqueued { link, queue_bytes } => {
            let _ = write!(out, ",\"link\":{link},\"queue_bytes\":{queue_bytes}");
        }
        TraceEvent::PacketDropped { site, reason } => {
            let _ = write!(out, ",\"site\":{site},\"reason\":\"{}\"", reason.name());
        }
        TraceEvent::GroHold {
            host,
            seq,
            flowcell,
        } => {
            let _ = write!(
                out,
                ",\"host\":{host},\"seq\":{seq},\"flowcell\":{flowcell}"
            );
        }
        TraceEvent::GroFlush {
            host,
            seq,
            len,
            packets,
            reason,
        } => {
            let _ = write!(
                out,
                ",\"host\":{host},\"seq\":{seq},\"len\":{len},\"packets\":{packets},\"reason\":\"{}\"",
                reason.name()
            );
        }
        TraceEvent::FlowcellEmitted {
            host,
            flowcell,
            path,
        } => {
            let _ = write!(
                out,
                ",\"host\":{host},\"flowcell\":{flowcell},\"path\":{path}"
            );
        }
        TraceEvent::Retransmit { host, seq } => {
            let _ = write!(out, ",\"host\":{host},\"seq\":{seq}");
        }
        TraceEvent::FaultApplied { index, degrading } => {
            let _ = write!(out, ",\"index\":{index},\"degrading\":{}", degrading as u8);
        }
        TraceEvent::ControllerNotified { index } => {
            let _ = write!(out, ",\"index\":{index}");
        }
        TraceEvent::LinkOccupancySample { link, queue_bytes } => {
            let _ = write!(out, ",\"link\":{link},\"queue_bytes\":{queue_bytes}");
        }
        TraceEvent::EventQueueSample { len, high_water } => {
            let _ = write!(out, ",\"len\":{len},\"high_water\":{high_water}");
        }
    }
}

fn parse_event(line: &str) -> Option<TraceRecord> {
    let t_ns = json_u64(line, "t_ns")?;
    let kind = json_str(line, "kind")?;
    let ev = match kind.as_str() {
        "PacketEnqueued" => TraceEvent::PacketEnqueued {
            link: json_u64(line, "link")? as u32,
            queue_bytes: json_u64(line, "queue_bytes")?,
        },
        "PacketDropped" => TraceEvent::PacketDropped {
            site: json_u64(line, "site")? as u32,
            reason: DropReason::from_name(&json_str(line, "reason")?)?,
        },
        "GroHold" => TraceEvent::GroHold {
            host: json_u64(line, "host")? as u32,
            seq: json_u64(line, "seq")?,
            flowcell: json_u64(line, "flowcell")?,
        },
        "GroFlush" => TraceEvent::GroFlush {
            host: json_u64(line, "host")? as u32,
            seq: json_u64(line, "seq")?,
            len: json_u64(line, "len")? as u32,
            packets: json_u64(line, "packets")? as u32,
            reason: FlushReason::from_name(&json_str(line, "reason")?)?,
        },
        "FlowcellEmitted" => TraceEvent::FlowcellEmitted {
            host: json_u64(line, "host")? as u32,
            flowcell: json_u64(line, "flowcell")?,
            path: json_u64(line, "path")? as u32,
        },
        "Retransmit" => TraceEvent::Retransmit {
            host: json_u64(line, "host")? as u32,
            seq: json_u64(line, "seq")?,
        },
        "FaultApplied" => TraceEvent::FaultApplied {
            index: json_u64(line, "index")? as u32,
            degrading: json_u64(line, "degrading")? != 0,
        },
        "ControllerNotified" => TraceEvent::ControllerNotified {
            index: json_u64(line, "index")? as u32,
        },
        "LinkOccupancySample" => TraceEvent::LinkOccupancySample {
            link: json_u64(line, "link")? as u32,
            queue_bytes: json_u64(line, "queue_bytes")?,
        },
        "EventQueueSample" => TraceEvent::EventQueueSample {
            len: json_u64(line, "len")?,
            high_water: json_u64(line, "high_water")?,
        },
        _ => return None,
    };
    Some(TraceRecord { t_ns, ev })
}

impl TelemetryReport {
    /// Bucket the flush-reason taxonomy into the loss / reordering /
    /// other split the paper's Fig 5 plots. Figure extraction reads this
    /// instead of re-deriving the taxonomy per call site.
    pub fn flush_split(&self) -> FlushSplit {
        let mut split = FlushSplit::default();
        for r in FlushReason::ALL {
            let n = self.flush_reasons[r.index()];
            if r.indicates_loss() {
                split.loss += n;
            } else if r.indicates_reordering() {
                split.reordering += n;
            } else {
                split.other += n;
            }
        }
        split
    }

    /// Per-path share of sprayed flowcells (`spray_counts` normalized to
    /// sum 1). Empty when nothing was sprayed — callers can skip the
    /// figure instead of plotting a zero row.
    pub fn spray_shares(&self) -> Vec<f64> {
        let total: u64 = self.spray_counts.iter().sum();
        if total == 0 {
            return Vec::new();
        }
        self.spray_counts
            .iter()
            .map(|&n| n as f64 / total as f64)
            .collect()
    }

    /// Serialize to JSONL: one flat JSON object per line, fixed field and
    /// line order, byte-identical for identical reports.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(4096 + self.events.len() * 96);
        out.push_str("{\"type\":\"meta\",\"scheme\":");
        push_str_field(&mut out, &self.scheme);
        let _ = writeln!(
            out,
            ",\"queue_high_water\":{},\"events\":{},\"events_dropped\":{}}}",
            self.queue_high_water,
            self.events.len(),
            self.events_dropped
        );
        for c in &self.counters {
            out.push_str("{\"type\":\"counter\",\"component\":");
            push_str_field(&mut out, &c.component);
            out.push_str(",\"name\":");
            push_str_field(&mut out, &c.name);
            let _ = writeln!(out, ",\"value\":{}}}", c.value);
        }
        for r in FlushReason::ALL {
            let _ = writeln!(
                out,
                "{{\"type\":\"flush_reason\",\"reason\":\"{}\",\"count\":{}}}",
                r.name(),
                self.flush_reasons[r.index()]
            );
        }
        for (path, count) in self.spray_counts.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"type\":\"spray\",\"path\":{path},\"count\":{count}}}"
            );
        }
        for q in &self.queue_depths {
            let _ = write!(
                out,
                "{{\"type\":\"queue_depth\",\"link\":{},\"samples\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{},\"mean_util\":",
                q.link, q.samples, q.p50, q.p90, q.p99, q.max
            );
            push_f64(&mut out, q.mean_util);
            out.push_str("}\n");
        }
        for e in &self.event_queue {
            out.push_str("{\"type\":\"event_queue\",\"event\":");
            push_str_field(&mut out, &e.name);
            let _ = writeln!(out, ",\"count\":{},\"dwell_ns\":{}}}", e.count, e.dwell_ns);
        }
        for s in &self.failover_stages {
            out.push_str("{\"type\":\"failover_stage\",\"name\":");
            push_str_field(&mut out, &s.name);
            let _ = write!(
                out,
                ",\"start_ns\":{},\"end_ns\":{},\"drops\":{},\"tx_packets\":{},\"goodput_gbps\":",
                s.start_ns, s.end_ns, s.drops, s.tx_packets
            );
            push_f64(&mut out, s.goodput_gbps);
            out.push_str(",\"loss_rate\":");
            push_f64(&mut out, s.loss_rate);
            out.push_str("}\n");
        }
        for rec in &self.events {
            let _ = write!(
                out,
                "{{\"type\":\"event\",\"t_ns\":{},\"kind\":\"{}\"",
                rec.t_ns,
                event_kind(&rec.ev)
            );
            write_event_fields(&mut out, &rec.ev);
            out.push_str("}\n");
        }
        out
    }

    /// Best-effort inverse of [`TelemetryReport::to_jsonl`]. Unknown lines
    /// are skipped so newer traces stay readable by older inspectors.
    pub fn from_jsonl(text: &str) -> TelemetryReport {
        let mut rep = TelemetryReport::default();
        for line in text.lines() {
            let Some(ty) = json_str(line, "type") else {
                continue;
            };
            match ty.as_str() {
                "meta" => {
                    if let Some(s) = json_str(line, "scheme") {
                        rep.scheme = s;
                    }
                    rep.queue_high_water =
                        json_u64(line, "queue_high_water").unwrap_or(rep.queue_high_water);
                    rep.events_dropped =
                        json_u64(line, "events_dropped").unwrap_or(rep.events_dropped);
                }
                "counter" => {
                    if let (Some(component), Some(name), Some(value)) = (
                        json_str(line, "component"),
                        json_str(line, "name"),
                        json_u64(line, "value"),
                    ) {
                        rep.counters.push(CounterEntry {
                            component,
                            name,
                            value,
                        });
                    }
                }
                "flush_reason" => {
                    if let (Some(name), Some(count)) =
                        (json_str(line, "reason"), json_u64(line, "count"))
                    {
                        if let Some(r) = FlushReason::from_name(&name) {
                            rep.flush_reasons[r.index()] = count;
                        }
                    }
                }
                "spray" => {
                    if let (Some(path), Some(count)) =
                        (json_u64(line, "path"), json_u64(line, "count"))
                    {
                        let path = path as usize;
                        if rep.spray_counts.len() <= path {
                            rep.spray_counts.resize(path + 1, 0);
                        }
                        rep.spray_counts[path] = count;
                    }
                }
                "queue_depth" => {
                    if let Some(link) = json_u64(line, "link") {
                        rep.queue_depths.push(QueueDepthSummary {
                            link: link as u32,
                            samples: json_u64(line, "samples").unwrap_or(0),
                            p50: json_u64(line, "p50").unwrap_or(0),
                            p90: json_u64(line, "p90").unwrap_or(0),
                            p99: json_u64(line, "p99").unwrap_or(0),
                            max: json_u64(line, "max").unwrap_or(0),
                            mean_util: json_f64(line, "mean_util").unwrap_or(0.0),
                        });
                    }
                }
                "event_queue" => {
                    if let (Some(name), Some(count)) =
                        (json_str(line, "event"), json_u64(line, "count"))
                    {
                        rep.event_queue.push(QueueProfileEntry {
                            name,
                            count,
                            dwell_ns: json_u64(line, "dwell_ns").unwrap_or(0),
                        });
                    }
                }
                "failover_stage" => {
                    if let Some(name) = json_str(line, "name") {
                        rep.failover_stages.push(FailoverStage {
                            name,
                            start_ns: json_u64(line, "start_ns").unwrap_or(0),
                            end_ns: json_u64(line, "end_ns").unwrap_or(0),
                            goodput_gbps: json_f64(line, "goodput_gbps").unwrap_or(0.0),
                            loss_rate: json_f64(line, "loss_rate").unwrap_or(0.0),
                            drops: json_u64(line, "drops").unwrap_or(0),
                            tx_packets: json_u64(line, "tx_packets").unwrap_or(0),
                        });
                    }
                }
                "event" => {
                    if let Some(rec) = parse_event(line) {
                        rep.events.push(rec);
                    }
                }
                _ => {}
            }
        }
        rep
    }

    /// Export in Chrome `trace_event` JSON (load via `chrome://tracing` or
    /// Perfetto). Trace events become instants (`ph:"i"`); occupancy
    /// samples become counter tracks (`ph:"C"`). Timestamps are
    /// microseconds of simulated time.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(1024 + self.events.len() * 128);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        for rec in &self.events {
            if !first {
                out.push(',');
            }
            first = false;
            let ts = rec.t_ns as f64 / 1e3;
            match rec.ev {
                TraceEvent::LinkOccupancySample { link, queue_bytes } => {
                    let _ = write!(
                        out,
                        "\n{{\"name\":\"link{link} queue\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\"args\":{{\"bytes\":{queue_bytes}}}}}"
                    );
                }
                TraceEvent::EventQueueSample { len, high_water } => {
                    let _ = write!(
                        out,
                        "\n{{\"name\":\"event queue\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\"args\":{{\"len\":{len},\"high_water\":{high_water}}}}}"
                    );
                }
                ref ev => {
                    let _ = write!(
                        out,
                        "\n{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{ts},\"pid\":0,\"tid\":0,\"args\":{{",
                        event_kind(ev)
                    );
                    // Reuse the JSONL field writer, then strip its leading comma.
                    let mut fields = String::new();
                    write_event_fields(&mut fields, ev);
                    out.push_str(fields.trim_start_matches(','));
                    out.push_str("}}");
                }
            }
        }
        out.push_str("\n]}\n");
        out
    }

    /// Human-readable digest: top drop sites, flush-reason attribution,
    /// spray histogram, queue-depth percentiles and event-queue profile.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== telemetry: {} ===", self.scheme);

        // Top drop sites, from the always-on counter table.
        let mut drops: Vec<&CounterEntry> = self
            .counters
            .iter()
            .filter(|c| c.name.contains("drop") && c.value > 0)
            .collect();
        drops.sort_by(|a, b| {
            b.value
                .cmp(&a.value)
                .then_with(|| a.component.cmp(&b.component))
                .then_with(|| a.name.cmp(&b.name))
        });
        let _ = writeln!(out, "-- top drop sites (of {} with drops) --", drops.len());
        if drops.is_empty() {
            let _ = writeln!(out, "  (no drops)");
        }
        for c in drops.iter().take(TOP_DROP_SITES) {
            let _ = writeln!(out, "  {:<12} {:<24} {:>10}", c.component, c.name, c.value);
        }

        // GRO flush attribution: loss-indicating vs reordering-indicating.
        let total: u64 = self.flush_reasons.iter().sum();
        let _ = writeln!(out, "-- gro flush reasons ({total} pushes) --");
        for r in FlushReason::ALL {
            let n = self.flush_reasons[r.index()];
            if n == 0 {
                continue;
            }
            let tag = if r.indicates_loss() {
                "  [loss: in-flowcell gap]"
            } else if r.indicates_reordering() {
                "  [reordering: flowcell boundary]"
            } else {
                ""
            };
            let pct = 100.0 * n as f64 / total.max(1) as f64;
            let _ = writeln!(out, "  {:<18} {:>10}  {:>5.1}%{}", r.name(), n, pct, tag);
        }

        // Spray histogram.
        let spray_total: u64 = self.spray_counts.iter().sum();
        if spray_total > 0 {
            let _ = writeln!(
                out,
                "-- flowcell spray per path ({spray_total} flowcells) --"
            );
            let max = self.spray_counts.iter().copied().max().unwrap_or(1).max(1);
            for (path, &n) in self.spray_counts.iter().enumerate() {
                let bar = "#".repeat(((n * 40) / max) as usize);
                let _ = writeln!(out, "  path {path:<3} {n:>8}  {bar}");
            }
        }

        // Queue depth percentiles.
        if !self.queue_depths.is_empty() {
            let _ = writeln!(out, "-- queue depth (bytes) --");
            let _ = writeln!(
                out,
                "  {:<6} {:>8} {:>8} {:>8} {:>8} {:>7}",
                "link", "p50", "p90", "p99", "max", "util"
            );
            for q in &self.queue_depths {
                let _ = writeln!(
                    out,
                    "  {:<6} {:>8} {:>8} {:>8} {:>8} {:>6.1}%",
                    q.link,
                    q.p50,
                    q.p90,
                    q.p99,
                    q.max,
                    q.mean_util * 100.0
                );
            }
        }

        // Failure-recovery timeline (the Fig 17 table).
        if !self.failover_stages.is_empty() {
            let _ = writeln!(out, "-- failure timeline --");
            let _ = writeln!(
                out,
                "  {:<16} {:>10} {:>10} {:>10} {:>9}",
                "stage", "start", "end", "goodput", "loss"
            );
            for s in &self.failover_stages {
                let _ = writeln!(
                    out,
                    "  {:<16} {:>8.2}ms {:>8.2}ms {:>6.2}Gbps {:>8.3}%",
                    s.name,
                    s.start_ns as f64 / 1e6,
                    s.end_ns as f64 / 1e6,
                    s.goodput_gbps,
                    s.loss_rate * 100.0
                );
            }
        }

        // Event queue profile.
        if !self.event_queue.is_empty() {
            let _ = writeln!(
                out,
                "-- event queue (high water {}) --",
                self.queue_high_water
            );
            for e in &self.event_queue {
                if e.count == 0 {
                    continue;
                }
                let mean_dwell = e.dwell_ns as f64 / e.count as f64;
                let _ = writeln!(
                    out,
                    "  {:<16} {:>10}  mean dwell {:>9.0}ns",
                    e.name, e.count, mean_dwell
                );
            }
        }

        let _ = writeln!(
            out,
            "-- trace ring: {} records retained, {} evicted --",
            self.events.len(),
            self.events_dropped
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> TelemetryReport {
        let mut flush_reasons = [0u64; FlushReason::COUNT];
        flush_reasons[FlushReason::InOrder.index()] = 100;
        flush_reasons[FlushReason::InFlowcellGap.index()] = 3;
        flush_reasons[FlushReason::BoundaryGapFilled.index()] = 17;
        TelemetryReport {
            scheme: "Presto".into(),
            flush_reasons,
            spray_counts: vec![10, 12, 9, 11],
            counters: vec![
                CounterEntry {
                    component: "link:3".into(),
                    name: "dropped_packets".into(),
                    value: 7,
                },
                CounterEntry {
                    component: "host:1".into(),
                    name: "ring_overflow_drops".into(),
                    value: 2,
                },
            ],
            queue_depths: vec![QueueDepthSummary {
                link: 3,
                samples: 4,
                p50: 1500,
                p90: 3000,
                p99: 4500,
                max: 4500,
                mean_util: 0.625,
            }],
            event_queue: vec![QueueProfileEntry {
                name: "Net".into(),
                count: 1000,
                dwell_ns: 1_200_000,
            }],
            queue_high_water: 321,
            failover_stages: vec![
                FailoverStage {
                    name: "pre-failure".into(),
                    start_ns: 0,
                    end_ns: 2_000_000,
                    goodput_gbps: 9.1,
                    loss_rate: 0.0,
                    drops: 0,
                    tx_packets: 5_000,
                },
                FailoverStage {
                    name: "fast-failover".into(),
                    start_ns: 2_000_000,
                    end_ns: 3_000_000,
                    goodput_gbps: 5.5,
                    loss_rate: 0.01,
                    drops: 25,
                    tx_packets: 2_500,
                },
            ],
            events: vec![
                TraceRecord {
                    t_ns: 1_000,
                    ev: TraceEvent::PacketDropped {
                        site: 3,
                        reason: DropReason::QueueFull,
                    },
                },
                TraceRecord {
                    t_ns: 2_000_100,
                    ev: TraceEvent::FaultApplied {
                        index: 0,
                        degrading: true,
                    },
                },
                TraceRecord {
                    t_ns: 2_900_000,
                    ev: TraceEvent::ControllerNotified { index: 0 },
                },
                TraceRecord {
                    t_ns: 2_500,
                    ev: TraceEvent::GroFlush {
                        host: 1,
                        seq: 1460,
                        len: 2920,
                        packets: 2,
                        reason: FlushReason::BoundaryGapFilled,
                    },
                },
                TraceRecord {
                    t_ns: 3_000,
                    ev: TraceEvent::LinkOccupancySample {
                        link: 3,
                        queue_bytes: 4500,
                    },
                },
            ],
            events_dropped: 5,
        }
    }

    #[test]
    fn jsonl_roundtrip_is_lossless() {
        let rep = sample_report();
        let text = rep.to_jsonl();
        let back = TelemetryReport::from_jsonl(&text);
        assert_eq!(back, rep);
        // And re-serialization is byte-identical (determinism contract).
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn from_jsonl_skips_unknown_lines() {
        let rep = sample_report();
        let mut text = String::from("{\"type\":\"future_thing\",\"x\":1}\nnot json\n");
        text.push_str(&rep.to_jsonl());
        assert_eq!(TelemetryReport::from_jsonl(&text), rep);
    }

    #[test]
    fn chrome_trace_has_instants_and_counters() {
        let t = sample_report().to_chrome_trace();
        assert!(t.contains("\"traceEvents\""));
        assert!(t.contains("\"ph\":\"i\""), "instant events present");
        assert!(t.contains("\"ph\":\"C\""), "counter samples present");
        assert!(t.contains("link3 queue"));
        assert!(t.ends_with("]}\n"));
    }

    #[test]
    fn summary_lists_failover_stages() {
        let s = sample_report().summary();
        assert!(s.contains("-- failure timeline --"));
        assert!(s.contains("pre-failure"));
        assert!(s.contains("fast-failover"));
    }

    #[test]
    fn summary_attributes_loss_vs_reordering() {
        let s = sample_report().summary();
        assert!(s.contains("InFlowcellGap"));
        assert!(s.contains("[loss: in-flowcell gap]"));
        assert!(s.contains("BoundaryGapFilled"));
        assert!(s.contains("[reordering: flowcell boundary]"));
        assert!(s.contains("link:3"), "top drop site listed");
        assert!(s.contains("path 1"), "spray histogram listed");
    }

    #[test]
    fn flush_split_buckets_the_taxonomy() {
        let rep = sample_report();
        let split = rep.flush_split();
        assert_eq!(split.loss, 3, "InFlowcellGap pushes");
        assert_eq!(split.reordering, 17, "BoundaryGapFilled pushes");
        assert_eq!(split.other, 100, "InOrder pushes");
        assert_eq!(split.total(), rep.flush_reasons.iter().sum::<u64>());
    }

    #[test]
    fn spray_shares_normalize_or_vanish() {
        let rep = sample_report();
        let shares = rep.spray_shares();
        assert_eq!(shares.len(), 4);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(shares[1], 12.0 / 42.0);
        assert!(TelemetryReport::default().spray_shares().is_empty());
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
        assert_eq!(percentile(&v, 50.0), 5);
        assert_eq!(percentile(&v, 90.0), 9);
        assert_eq!(percentile(&v, 99.0), 10);
        assert_eq!(percentile(&[], 50.0), 0);
        let q = QueueDepthSummary::from_samples(0, vec![5, 1, 3], 0.5);
        assert_eq!((q.p50, q.max, q.samples), (3, 5, 3));
    }
}
