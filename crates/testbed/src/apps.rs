//! The application layer: the workloads that drive the hosts' edges.
//!
//! Presto's evaluation (§4–§5) drives the fabric with applications:
//! stride and random elephants, "mice every 100 ms", shuffle,
//! trace-driven flows and sockperf probes. This testbed adds
//! partition-aggregate incast and ring allreduce. [`Apps`] holds each
//! workload's scenario spec plus only its runtime state. It sits above
//! transport and the network: a handler says which connections to start
//! and how long until the workload's next event, and the simulation
//! starts them and schedules it.

use presto_metrics::{DeadlineTracker, Samples};
use presto_netsim::{FlowKey, HostId};
use presto_simcore::rng::DetRng;
use presto_simcore::{FxHashMap, SimDuration, SimTime};
use presto_workloads::{patterns, FlowSpec};

use crate::report::Report;
use crate::scenario::{AllreduceSpec, IncastSpec, MiceSpec, Scenario, ShuffleSpec};
use crate::scheme::PolicyKind;
use crate::sim::Event;

/// Which workload a connection belongs to, for completion bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlowTag {
    /// A one-shot flow or a mouse of a series. With `measure_fct` its FCT
    /// is recorded; without it, a bounded one of at least 1 MB is a bulk
    /// transfer whose goodput is recorded.
    Plain { measure_fct: bool },
    /// A shuffle transfer from source host `src`.
    Shuffle(usize),
    /// A worker's response to incast request `req`; its FCT is recorded.
    Incast(usize),
    /// One neighbor transfer of the current allreduce round.
    Allreduce,
}

/// A connection a workload asks the simulation to start.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Start {
    pub(crate) src: HostId,
    pub(crate) dst: HostId,
    /// `None`: an unbounded elephant.
    pub(crate) bytes: Option<u64>,
    pub(crate) tag: FlowTag,
}

impl Start {
    fn new(src: usize, dst: usize, bytes: Option<u64>, tag: FlowTag) -> Self {
        Start {
            src: HostId(src as u32),
            dst: HostId(dst as u32),
            bytes,
            tag,
        }
    }
}

/// A sockperf-style RTT prober: its probe flow (port 7) and the probes
/// awaiting their echo, by sequence number.
struct Pinger {
    flow: FlowKey,
    next_seq: u32,
    outstanding: FxHashMap<u32, SimTime>,
}

/// The id of pinger `pinger`'s probe `seq`: the pinger index in the high
/// half, so an echo finds its pinger even when pingers share a host pair
/// and hence a probe flow.
fn probe_id(pinger: usize, seq: u32) -> u64 {
    (pinger as u64) << 32 | seq as u64
}

/// A running [`ShuffleSpec`].
struct Shuffle {
    spec: ShuffleSpec,
    /// Destinations still to start, per source, in reverse start order.
    todo: Vec<Vec<usize>>,
    /// Transfers in flight, per source.
    active: Vec<usize>,
    /// Completed transfer goodputs (Gbps).
    tputs: Vec<f64>,
}

/// A running [`IncastSpec`]: every wave issues one request, and the
/// request completes when its last response lands.
struct Incast {
    spec: IncastSpec,
    /// The static responders: the first `fanout` servers other than the
    /// aggregator.
    senders: Vec<HostId>,
    /// Responders offered to the aggregator policy's
    /// `EdgePolicy::select_replicas` each wave. A load-oblivious policy
    /// declines to choose, and the wave goes to `senders`.
    candidates: Vec<HostId>,
    /// Per request, `(issued at, responses outstanding)`, indexed by the
    /// request id in [`FlowTag::Incast`].
    requests: Vec<(SimTime, usize)>,
    /// Deadline accounting for requests issued after warmup.
    tracker: DeadlineTracker,
}

/// A running [`AllreduceSpec`]: a round ends when its last transfer
/// completes, and the next starts at once.
struct Allreduce {
    spec: AllreduceSpec,
    /// Transfers outstanding in the current round.
    outstanding: usize,
    /// When the current round started.
    round_start: SimTime,
    /// Rounds completed over the whole run, warmup included.
    rounds_completed: u64,
    /// Post-warmup round durations, milliseconds.
    round_ms: Samples,
}

/// Every workload of one run.
pub(crate) struct Apps {
    flows: Vec<FlowSpec>,
    mice: Vec<MiceSpec>,
    probe_interval: SimDuration,
    pingers: Vec<Pinger>,
    shuffle: Option<Shuffle>,
    incast: Option<Incast>,
    allreduce: Option<Allreduce>,
    /// Probe RTTs (ms), post-warmup.
    rtt_ms: Samples,
    /// FCTs (ms) of measured flows started post-warmup.
    mice_fct_ms: Samples,
    /// Goodputs (Gbps) of bulk transfers started post-warmup.
    bulk_tputs: Vec<f64>,
}

impl Apps {
    /// The workloads of `sc`, none started yet.
    pub(crate) fn new(sc: &Scenario) -> Self {
        let n_servers = sc.n_servers();
        let host = |h: usize| HostId(h as u32);
        let pingers: Vec<Pinger> = sc
            .probes
            .iter()
            .map(|&(src, dst)| Pinger {
                flow: FlowKey::new(host(src), host(dst), 7, 7),
                next_seq: 0,
                outstanding: FxHashMap::default(),
            })
            .collect();
        let shuffle = sc.shuffle.map(|spec| {
            let mut todo = patterns::shuffle_orders(n_servers, &mut DetRng::new(sc.seed ^ 0x5F));
            todo.iter_mut().for_each(|t| t.reverse());
            Shuffle {
                spec,
                todo,
                active: vec![0; n_servers],
                tputs: Vec::new(),
            }
        });
        let incast = sc.incast.map(|spec| {
            let senders: Vec<HostId> =
                patterns::incast_senders(n_servers, spec.aggregator, spec.fanout)
                    .into_iter()
                    .map(host)
                    .collect();
            // A probing aggregator chooses its responders per request
            // from the whole server pool.
            let candidates = if matches!(sc.scheme.policy, PolicyKind::Prequal(_)) {
                (0..n_servers)
                    .filter(|&w| w != spec.aggregator)
                    .map(host)
                    .collect()
            } else {
                senders.clone()
            };
            Incast {
                spec,
                senders,
                candidates,
                requests: Vec::new(),
                tracker: DeadlineTracker::default(),
            }
        });
        Apps {
            flows: sc.flows.clone(),
            mice: sc.mice.clone(),
            probe_interval: sc.probe_interval,
            pingers,
            shuffle,
            incast,
            allreduce: sc.allreduce.map(|spec| Allreduce {
                spec,
                outstanding: 0,
                round_start: SimTime::ZERO,
                rounds_completed: 0,
                round_ms: Samples::default(),
            }),
            rtt_ms: Samples::default(),
            mice_fct_ms: Samples::default(),
            bulk_tputs: Vec::new(),
        }
    }

    /// Host pairs that exchange traffic, in either direction (WAN-remote
    /// indices follow the servers'), or `None` when every server talks to
    /// every other (a shuffle is all-to-all).
    pub(crate) fn talking_pairs(&self) -> Option<Vec<(usize, usize)>> {
        if self.shuffle.is_some() {
            return None;
        }
        let mut pairs: Vec<(usize, usize)> = self
            .flows
            .iter()
            .map(|f| (f.src, f.dst))
            .chain(self.mice.iter().map(|m| (m.src, m.dst)))
            .chain(
                self.pingers
                    .iter()
                    .map(|p| (p.flow.src.index(), p.flow.dst.index())),
            )
            .collect();
        if let Some(inc) = &self.incast {
            // The aggregator talks even with no workers (a self-pair marks
            // it without giving it a peer), and so does every candidate.
            let agg = inc.spec.aggregator;
            pairs.push((agg, agg));
            pairs.extend(inc.candidates.iter().map(|w| (w.index(), agg)));
        }
        if let Some(ar) = &self.allreduce {
            pairs.extend(patterns::ring(ar.spec.participants));
        }
        Some(pairs)
    }

    /// Each workload's first event, in scheduling order.
    pub(crate) fn first_events(&self) -> impl Iterator<Item = (SimTime, Event)> + '_ {
        // Mice series and pingers stagger their starts across an interval.
        let stagger = |every: SimDuration, i: usize| every.mul_f64((i % 16) as f64 / 16.0);
        let flows = self.flows.iter().enumerate();
        let mice = self.mice.iter().enumerate();
        let shuffle_srcs = self.shuffle.as_ref().map_or(0, |sh| sh.todo.len());
        let zero = |ev| (SimTime::ZERO, ev);
        flows
            .map(|(i, f)| (f.start, Event::FlowStart(i)))
            .chain(mice.map(move |(i, m)| {
                let at = SimTime::ZERO + m.interval + stagger(m.interval, i);
                (at, Event::MiceNext(i))
            }))
            .chain((0..self.pingers.len()).map(move |i| {
                let at = SimTime::ZERO + stagger(self.probe_interval, i);
                (at, Event::ProbeSend(i))
            }))
            .chain((0..shuffle_srcs).map(move |src| zero(Event::ShuffleMore(src))))
            .chain(self.incast.iter().map(move |_| zero(Event::IncastNext)))
            .chain(
                self.allreduce
                    .iter()
                    .map(move |_| zero(Event::AllreduceRound)),
            )
    }

    /// One-shot flow `i`.
    pub(crate) fn flow(&self, i: usize) -> Start {
        let f = &self.flows[i];
        let tag = FlowTag::Plain {
            measure_fct: f.measure_fct,
        };
        Start::new(f.src, f.dst, f.bytes, tag)
    }

    /// The next mouse of series `i`, and the series' interval.
    pub(crate) fn mouse(&self, i: usize) -> (Start, SimDuration) {
        let m = &self.mice[i];
        let tag = FlowTag::Plain { measure_fct: true };
        (Start::new(m.src, m.dst, Some(m.bytes), tag), m.interval)
    }

    /// Pinger `i` sends a probe at `now`: its flow, the probe id, and the
    /// probe interval.
    pub(crate) fn probe(&mut self, i: usize, now: SimTime) -> (FlowKey, u64, SimDuration) {
        let p = &mut self.pingers[i];
        let seq = p.next_seq;
        p.next_seq += 1;
        p.outstanding.insert(seq, now);
        (p.flow, probe_id(i, seq), self.probe_interval)
    }

    /// The echo of probe `id` came back at `now`.
    pub(crate) fn on_probe_echo(&mut self, id: u64, now: SimTime, warmup: SimTime) {
        let Some(p) = self.pingers.get_mut((id >> 32) as usize) else {
            return;
        };
        if let Some(sent) = p.outstanding.remove(&(id as u32)) {
            if now >= warmup {
                self.rtt_ms.add(now.saturating_since(sent).as_millis_f64());
            }
        }
    }

    /// The next shuffle transfer from `src`, unless it is at its
    /// concurrency limit or has sent to everyone.
    pub(crate) fn shuffle_next(&mut self, src: usize) -> Option<Start> {
        let sh = self.shuffle.as_mut()?;
        if sh.active[src] >= sh.spec.concurrency {
            return None;
        }
        let dst = sh.todo[src].pop()?;
        sh.active[src] += 1;
        Some(Start::new(
            src,
            dst,
            Some(sh.spec.bytes),
            FlowTag::Shuffle(src),
        ))
    }

    /// What the next incast request offers the aggregator's policy: the
    /// aggregator, the candidate responders, and how many it wants.
    pub(crate) fn incast_offer(&self) -> Option<(HostId, Vec<HostId>, usize)> {
        let inc = self.incast.as_ref()?;
        let aggregator = HostId(inc.spec.aggregator as u32);
        Some((aggregator, inc.candidates.clone(), inc.senders.len()))
    }

    /// Issue an incast request at `now` to the responders the policy
    /// `chose` (the static senders when it declined): one response each.
    /// Also yields the request interval.
    pub(crate) fn incast_wave(
        &mut self,
        now: SimTime,
        chose: Option<Vec<HostId>>,
    ) -> (impl Iterator<Item = Start>, SimDuration) {
        let inc = self.incast.as_mut().expect("an incast workload");
        let senders = chose.unwrap_or_else(|| inc.senders.clone());
        let req = inc.requests.len();
        inc.requests.push((now, senders.len()));
        let dst = HostId(inc.spec.aggregator as u32);
        let bytes = Some(inc.spec.bytes_per_worker);
        let tag = FlowTag::Incast(req);
        let wave = senders.into_iter().map(move |src| Start {
            src,
            dst,
            bytes,
            tag,
        });
        (wave, inc.spec.interval)
    }

    /// Start an allreduce round at `now`: every ring member streams its
    /// chunk to its clockwise neighbor.
    pub(crate) fn allreduce_round(&mut self, now: SimTime) -> impl Iterator<Item = Start> {
        let ar = self.allreduce.as_mut().expect("an allreduce workload");
        ar.round_start = now;
        ar.outstanding = ar.spec.participants;
        let bytes = Some(ar.spec.bytes);
        patterns::ring(ar.spec.participants)
            .into_iter()
            .map(move |(src, dst)| Start::new(src, dst, bytes, FlowTag::Allreduce))
    }

    /// A connection of workload `tag`, started at `start` with `bytes` to
    /// send (0 if unbounded), completed at `now`. Returns the event its
    /// workload wants next, due at `now`.
    pub(crate) fn on_flow_done(
        &mut self,
        tag: FlowTag,
        start: SimTime,
        bytes: u64,
        now: SimTime,
        warmup: SimTime,
        end: SimTime,
    ) -> Option<Event> {
        let elapsed = now.saturating_since(start);
        let secs = elapsed.as_secs_f64();
        let gbps = (secs > 0.0).then(|| bytes as f64 * 8.0 / secs / 1e9);
        let warm = start >= warmup;
        if warm
            && matches!(
                tag,
                FlowTag::Plain { measure_fct: true } | FlowTag::Incast(_)
            )
        {
            self.mice_fct_ms.add(elapsed.as_millis_f64());
        }
        match tag {
            FlowTag::Plain { measure_fct } => {
                if !measure_fct && bytes >= 1_000_000 && warm {
                    self.bulk_tputs.extend(gbps);
                }
                None
            }
            FlowTag::Shuffle(src) => {
                let sh = self.shuffle.as_mut()?;
                sh.tputs.extend(gbps);
                sh.active[src] -= 1;
                Some(Event::ShuffleMore(src))
            }
            FlowTag::Incast(req) => {
                let inc = self.incast.as_mut()?;
                let (issued, remaining) = &mut inc.requests[req];
                *remaining -= 1;
                if *remaining == 0 && *issued >= warmup {
                    let elapsed = now.saturating_since(*issued).as_millis_f64();
                    inc.tracker
                        .record(elapsed, inc.spec.deadline.as_millis_f64());
                }
                None
            }
            FlowTag::Allreduce => {
                let ar = self.allreduce.as_mut()?;
                ar.outstanding -= 1;
                if ar.outstanding != 0 {
                    return None;
                }
                ar.rounds_completed += 1;
                if ar.round_start >= warmup {
                    ar.round_ms
                        .add(now.saturating_since(ar.round_start).as_millis_f64());
                }
                (now < end).then_some(Event::AllreduceRound)
            }
        }
    }

    /// Move the workloads' results into `report`. The shuffle's and the
    /// bulk transfers' goodputs follow the unbounded elephants' already
    /// there, in that order.
    pub(crate) fn report(&mut self, report: &mut Report) {
        if let Some(sh) = &self.shuffle {
            report.elephant_tputs.extend(&sh.tputs);
        }
        report.elephant_tputs.extend(&self.bulk_tputs);
        report.rtt_ms = std::mem::take(&mut self.rtt_ms);
        report.mice_fct_ms = std::mem::take(&mut self.mice_fct_ms);
        if let Some(inc) = &self.incast {
            report.incast_requests = inc.tracker.total();
            report.incast_deadline_misses = inc.tracker.misses();
            for &v in inc.tracker.elapsed_ms() {
                report.incast_request_ms.add(v);
            }
        }
        if let Some(ar) = &mut self.allreduce {
            report.allreduce_rounds = ar.rounds_completed;
            report.allreduce_round_ms = std::mem::take(&mut ar.round_ms);
        }
    }
}
