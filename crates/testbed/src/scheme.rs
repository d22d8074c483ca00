//! Load-balancing scheme definitions.
//!
//! A scheme is the cross product of three orthogonal choices — the edge
//! path-selection policy, the receive-offload engine, and the transport —
//! plus fabric knobs (ECMP hash mode, single-switch "Optimal" topology).
//! The presets below are exactly the configurations the paper evaluates.

use presto_netsim::EcmpMode;
use presto_simcore::SimDuration;

/// Edge path-selection policy.
///
/// Marked `#[non_exhaustive]`: the arena grows (see `registry`), so
/// downstream matches must carry a wildcard arm. The canonical text form
/// of every variant lives in [`PolicyKind::name`] with [`PolicyKind::parse`]
/// as its inverse — `canon.rs` and the TOML axis parser both delegate
/// here, making this pair the single source of truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PolicyKind {
    /// Real destination MAC, no multipathing (the Optimal single switch).
    Direct,
    /// Presto's Algorithm 1: 64 KB flowcells round-robined over shadow-MAC
    /// spanning trees.
    Presto,
    /// Per-flow random path (the paper's ECMP implementation).
    Ecmp,
    /// Flowlet switching with the given inactivity timer.
    Flowlet(SimDuration),
    /// Rotate the path on every skb (RPS/DRB-style per-packet spraying).
    PerPacket,
    /// Presto's flowcell counter with a single real-MAC label: path choice
    /// is delegated to per-hop ECMP hashing on the flowcell ID (Fig 14).
    PrestoEcmp,
    /// Flowlet switching with a per-flow *dynamic* gap learned from the
    /// inter-arrival EWMA; the parameter is the threshold floor.
    FlowDyn(SimDuration),
    /// Spray mice per-skb, pin flows past the given byte threshold to one
    /// hashed path (DiffFlow).
    DiffFlow(u64),
    /// Randomized variable-size striping around the given mean stripe
    /// size in bytes (Sprinklers).
    Sprinklers(u64),
    /// Congestion/fault-aware flowcell weighting, sampling per-path
    /// feedback at the given period (CAFT).
    Caft(SimDuration),
    /// Receiver-load-aware spraying: probes requests-in-flight and queue
    /// latency on the given cadence and sprays toward probed-cold
    /// paths/replicas under the hot-cold lexicographic rule (Prequal).
    Prequal(presto_probe::ProbeParams),
}

impl PolicyKind {
    /// The canonical text form, stable across releases: this exact string
    /// is embedded in scenario fingerprints (`canon.rs`), so it must never
    /// change for an existing variant.
    pub fn name(&self) -> String {
        match self {
            PolicyKind::Direct => "direct".into(),
            PolicyKind::Presto => "presto".into(),
            PolicyKind::Ecmp => "ecmp".into(),
            PolicyKind::Flowlet(gap) => format!("flowlet:{}", gap.as_nanos()),
            PolicyKind::PerPacket => "perpacket".into(),
            PolicyKind::PrestoEcmp => "presto-ecmp".into(),
            PolicyKind::FlowDyn(gap) => format!("flowdyn:{}", gap.as_nanos()),
            PolicyKind::DiffFlow(bytes) => format!("diffflow:{bytes}"),
            PolicyKind::Sprinklers(bytes) => format!("sprinklers:{bytes}"),
            PolicyKind::Caft(period) => format!("caft:{}", period.as_nanos()),
            PolicyKind::Prequal(p) => format!(
                "prequal:{}:{}:{}",
                p.every.as_nanos(),
                p.pool,
                p.staleness.as_nanos()
            ),
        }
    }

    /// Parse the canonical text form back into a policy — the exact
    /// inverse of [`PolicyKind::name`].
    pub fn parse(s: &str) -> Option<PolicyKind> {
        let (head, arg) = match s.split_once(':') {
            Some((h, a)) => (h, Some(a)),
            None => (s, None),
        };
        let num = |a: Option<&str>| a.and_then(|a| a.parse::<u64>().ok());
        match (head, arg) {
            ("direct", None) => Some(PolicyKind::Direct),
            ("presto", None) => Some(PolicyKind::Presto),
            ("ecmp", None) => Some(PolicyKind::Ecmp),
            ("perpacket", None) => Some(PolicyKind::PerPacket),
            ("presto-ecmp", None) => Some(PolicyKind::PrestoEcmp),
            ("flowlet", a) => Some(PolicyKind::Flowlet(SimDuration::from_nanos(num(a)?))),
            ("flowdyn", a) => Some(PolicyKind::FlowDyn(SimDuration::from_nanos(num(a)?))),
            ("diffflow", a) => Some(PolicyKind::DiffFlow(num(a)?)),
            ("sprinklers", a) => Some(PolicyKind::Sprinklers(num(a)?)),
            // Periodic schemes reschedule themselves every interval, so a
            // zero interval (or an empty pool) is rejected, as the lab's
            // probe axis does.
            ("caft", a) => Some(PolicyKind::Caft(SimDuration::from_nanos(
                num(a).filter(|&p| p > 0)?,
            ))),
            ("prequal", a) => {
                let mut it = a?.splitn(3, ':');
                let mut field = || it.next()?.parse::<u64>().ok().filter(|&v| v > 0);
                let (every, pool, staleness) = (field()?, field()? as usize, field()?);
                Some(PolicyKind::Prequal(presto_probe::ProbeParams {
                    every: SimDuration::from_nanos(every),
                    pool,
                    staleness: SimDuration::from_nanos(staleness),
                }))
            }
            _ => None,
        }
    }
}

/// Receive-offload engine at every host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroKind {
    /// Stock Linux GRO.
    Official,
    /// Presto's Algorithm 2 with the adaptive α·EWMA timeout.
    Presto,
    /// Presto's multi-segment GRO but with a fixed hold timeout — the
    /// static-10 ms strawman of §3.2, used by the ablation bench.
    PrestoFixedTimeout(SimDuration),
}

/// Transport protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Single-path TCP; the congestion control comes from
    /// [`SchemeSpec::cc`].
    Tcp,
    /// MPTCP with `subflows` ECMP-hashed subflows and coupled congestion
    /// control (LIA — always, regardless of `cc`).
    Mptcp {
        /// Number of subflows (paper: 8).
        subflows: usize,
    },
}

impl TransportKind {
    /// Most subflows an MPTCP connection may have: the simulator's RTO
    /// timer events name the subflow in 8 bits.
    pub const MAX_SUBFLOWS: usize = 256;

    /// Canonical text form, pinned like [`PolicyKind::name`]: canonical
    /// scenario text embeds these strings, so they must never change for
    /// an existing variant.
    pub fn name(&self) -> String {
        match self {
            TransportKind::Tcp => "tcp".into(),
            TransportKind::Mptcp { subflows } => format!("mptcp:{subflows}"),
        }
    }

    /// Parse the canonical text form back — the exact inverse of
    /// [`TransportKind::name`]. An MPTCP subflow count outside
    /// `1..=MAX_SUBFLOWS` is rejected.
    pub fn parse(s: &str) -> Option<TransportKind> {
        match s.split_once(':') {
            None if s == "tcp" => Some(TransportKind::Tcp),
            Some(("mptcp", n)) => Some(TransportKind::Mptcp {
                subflows: n
                    .parse()
                    .ok()
                    .filter(|n| (1..=Self::MAX_SUBFLOWS).contains(n))?,
            }),
            _ => None,
        }
    }
}

/// A complete scheme configuration.
#[derive(Debug, Clone)]
pub struct SchemeSpec {
    /// Display name used in reports.
    pub name: &'static str,
    /// Edge policy.
    pub policy: PolicyKind,
    /// Receive offload engine.
    pub gro: GroKind,
    /// Transport.
    pub transport: TransportKind,
    /// Fabric ECMP hash mode (only PrestoEcmp uses `FlowcellHash`).
    pub ecmp_mode: EcmpMode,
    /// Run on the non-blocking single switch instead of the Clos fabric.
    pub single_switch: bool,
    /// Clamp on TSO segment size; per-packet spraying runs with TSO
    /// effectively disabled (one MSS per skb), as §2.1 discusses.
    pub max_tso: u32,
    /// Flowcell threshold for Algorithm 1 policies (64 KB in the paper;
    /// the flowcell-size ablation sweeps it).
    pub flowcell_bytes: u64,
    /// Congestion control for single-path TCP flows (from the transport
    /// registry; MPTCP subflows always run coupled LIA).
    pub cc: presto_transport::CcKind,
    /// ECN marking threshold in wire bytes installed on every
    /// switch-egress queue, or `None` (the default) for a plain drop-tail
    /// fabric — `None` keeps every pre-ECN digest byte-identical.
    pub ecn: Option<u64>,
}

/// Default ECN marking threshold when a scenario just says "ecn on":
/// DCTCP's K = 65 MSS-sized frames at 10 GbE (the paper's guideline),
/// in wire bytes.
pub const DEFAULT_ECN_THRESHOLD: u64 = 65 * 1538;

impl SchemeSpec {
    /// The neutral starting point every preset refines: stock GRO, TCP,
    /// flow-hash fabric, Clos topology, 64 KB TSO and flowcells.
    pub fn base(name: &'static str, policy: PolicyKind) -> Self {
        SchemeSpec {
            name,
            policy,
            gro: GroKind::Official,
            transport: TransportKind::Tcp,
            ecmp_mode: EcmpMode::FlowHash,
            single_switch: false,
            max_tso: 64 * 1024,
            flowcell_bytes: 64 * 1024,
            cc: presto_transport::CcKind::Cubic,
            ecn: None,
        }
    }

    /// Replace the display name.
    pub fn with_name(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    /// Replace the edge policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Replace the receive-offload engine.
    pub fn with_gro(mut self, gro: GroKind) -> Self {
        self.gro = gro;
        self
    }

    /// Replace the transport.
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Replace the fabric ECMP hash mode.
    pub fn with_ecmp_mode(mut self, mode: EcmpMode) -> Self {
        self.ecmp_mode = mode;
        self
    }

    /// Run on the non-blocking single switch instead of the Clos fabric.
    pub fn with_single_switch(mut self, single: bool) -> Self {
        self.single_switch = single;
        self
    }

    /// Clamp the TSO segment size.
    pub fn with_max_tso(mut self, max_tso: u32) -> Self {
        self.max_tso = max_tso;
        self
    }

    /// Replace the congestion control for single-path TCP flows.
    pub fn with_cc(mut self, cc: presto_transport::CcKind) -> Self {
        self.cc = cc;
        self
    }

    /// Enable ECN marking with the given threshold in wire bytes
    /// (`Some(DEFAULT_ECN_THRESHOLD)` for the DCTCP guideline), or disable
    /// it with `None`.
    pub fn with_ecn(mut self, threshold: Option<u64>) -> Self {
        self.ecn = threshold;
        self
    }

    /// Look a scheme up by its registry token (e.g. `"presto"`,
    /// `"flowdyn"`) — the same names the `scheme` campaign axis accepts.
    pub fn from_token(token: &str) -> Option<Self> {
        crate::registry::spec(token)
    }

    /// Presto: flowcell spraying + modified GRO (the paper's system).
    pub fn presto() -> Self {
        Self::base("Presto", PolicyKind::Presto).with_gro(GroKind::Presto)
    }

    /// ECMP: per-flow random path over the same label fabric, stock GRO.
    pub fn ecmp() -> Self {
        Self::base("ECMP", PolicyKind::Ecmp)
    }

    /// MPTCP: 8 ECMP-hashed subflows, coupled congestion control.
    pub fn mptcp() -> Self {
        Self::base("MPTCP", PolicyKind::Ecmp).with_transport(TransportKind::Mptcp { subflows: 8 })
    }

    /// Optimal: every host on one non-blocking switch.
    pub fn optimal() -> Self {
        Self::base("Optimal", PolicyKind::Direct).with_single_switch(true)
    }

    /// Flowlet switching with the given inactivity timer, stock GRO
    /// (the paper's comparison implementation, Fig 13).
    pub fn flowlet(gap: SimDuration) -> Self {
        let name = if gap >= SimDuration::from_micros(500) {
            "Flowlet-500us"
        } else {
            "Flowlet-100us"
        };
        Self::base(name, PolicyKind::Flowlet(gap))
    }

    /// Presto + per-hop ECMP on flowcell IDs (Fig 14's alternative).
    pub fn presto_ecmp() -> Self {
        Self::base("Presto+ECMP", PolicyKind::PrestoEcmp)
            .with_gro(GroKind::Presto)
            .with_ecmp_mode(EcmpMode::FlowcellHash)
    }

    /// Per-packet spraying with TSO disabled (RPS/DRB-style).
    pub fn per_packet() -> Self {
        Self::base("PerPacket", PolicyKind::PerPacket).with_max_tso(1460)
    }

    /// FlowDyn: flowlet switching whose gap threshold adapts per flow from
    /// the inter-arrival EWMA (floor 100 µs, ceiling 5×).
    pub fn flowdyn() -> Self {
        Self::base(
            "FlowDyn",
            PolicyKind::FlowDyn(SimDuration::from_micros(100)),
        )
    }

    /// DiffFlow: spray mice per-skb, pin elephants past 1 MiB. Pinned
    /// elephants stop churning headers, so the modified GRO pairs well
    /// with the sprayed (64 KB-grain) mouse phase.
    pub fn diffflow() -> Self {
        Self::base("DiffFlow", PolicyKind::DiffFlow(1024 * 1024)).with_gro(GroKind::Presto)
    }

    /// Sprinklers: randomized variable-size striping, mean 64 KB — the
    /// same grain as Presto's flowcells but jittered to avoid lock-step.
    pub fn sprinklers() -> Self {
        Self::base("Sprinklers", PolicyKind::Sprinklers(64 * 1024)).with_gro(GroKind::Presto)
    }

    /// CAFT: congestion/fault-aware flowcell weighting with 100 µs
    /// feedback sampling over the multi-tier controller's labels.
    pub fn caft() -> Self {
        Self::base("CAFT", PolicyKind::Caft(SimDuration::from_micros(100)))
            .with_gro(GroKind::Presto)
    }

    /// Prequal: receiver-load-aware spraying — Presto's flowcells and
    /// modified GRO, but path and replica choice follow probed
    /// requests-in-flight and queue latency (default probe cadence).
    pub fn prequal() -> Self {
        Self::base(
            "Prequal",
            PolicyKind::Prequal(presto_probe::ProbeParams::default()),
        )
        .with_gro(GroKind::Presto)
    }

    /// Whether this scheme needs the Presto controller's shadow-MAC trees.
    pub fn needs_controller(&self) -> bool {
        !self.single_switch && self.policy != PolicyKind::PrestoEcmp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_internally_consistent() {
        assert_eq!(SchemeSpec::presto().gro, GroKind::Presto);
        assert!(SchemeSpec::presto().needs_controller());
        assert!(!SchemeSpec::optimal().needs_controller());
        assert!(SchemeSpec::optimal().single_switch);
        assert_eq!(
            SchemeSpec::mptcp().transport,
            TransportKind::Mptcp { subflows: 8 }
        );
        assert_eq!(SchemeSpec::presto_ecmp().ecmp_mode, EcmpMode::FlowcellHash);
        assert!(!SchemeSpec::presto_ecmp().needs_controller());
        assert_eq!(SchemeSpec::per_packet().max_tso, 1460);
        assert_eq!(SchemeSpec::flowdyn().gro, GroKind::Official);
        assert_eq!(
            SchemeSpec::diffflow().policy,
            PolicyKind::DiffFlow(1024 * 1024)
        );
        assert_eq!(SchemeSpec::sprinklers().gro, GroKind::Presto);
        assert!(SchemeSpec::caft().needs_controller());
        assert_eq!(SchemeSpec::prequal().gro, GroKind::Presto);
        assert!(SchemeSpec::prequal().needs_controller());
        assert_eq!(
            SchemeSpec::prequal().policy,
            PolicyKind::Prequal(presto_probe::ProbeParams::default())
        );
    }

    #[test]
    fn flowlet_names_by_gap() {
        assert_eq!(
            SchemeSpec::flowlet(SimDuration::from_micros(100)).name,
            "Flowlet-100us"
        );
        assert_eq!(
            SchemeSpec::flowlet(SimDuration::from_micros(500)).name,
            "Flowlet-500us"
        );
    }

    #[test]
    fn policy_name_parse_round_trips() {
        let kinds = [
            PolicyKind::Direct,
            PolicyKind::Presto,
            PolicyKind::Ecmp,
            PolicyKind::Flowlet(SimDuration::from_micros(500)),
            PolicyKind::PerPacket,
            PolicyKind::PrestoEcmp,
            PolicyKind::FlowDyn(SimDuration::from_micros(100)),
            PolicyKind::DiffFlow(1024 * 1024),
            PolicyKind::Sprinklers(64 * 1024),
            PolicyKind::Caft(SimDuration::from_micros(100)),
            PolicyKind::Prequal(presto_probe::ProbeParams::default()),
            PolicyKind::Prequal(presto_probe::ProbeParams {
                every: SimDuration::from_micros(50),
                pool: 8,
                staleness: SimDuration::from_micros(400),
            }),
        ];
        for k in kinds {
            assert_eq!(PolicyKind::parse(&k.name()), Some(k), "{}", k.name());
        }
    }

    #[test]
    fn policy_names_are_pinned() {
        // These exact strings are baked into scenario fingerprints: any
        // change invalidates every cached result and committed baseline.
        assert_eq!(PolicyKind::Direct.name(), "direct");
        assert_eq!(PolicyKind::Presto.name(), "presto");
        assert_eq!(PolicyKind::Ecmp.name(), "ecmp");
        assert_eq!(
            PolicyKind::Flowlet(SimDuration::from_micros(500)).name(),
            "flowlet:500000"
        );
        assert_eq!(PolicyKind::PerPacket.name(), "perpacket");
        assert_eq!(PolicyKind::PrestoEcmp.name(), "presto-ecmp");
        assert_eq!(
            PolicyKind::FlowDyn(SimDuration::from_micros(100)).name(),
            "flowdyn:100000"
        );
        assert_eq!(PolicyKind::DiffFlow(1048576).name(), "diffflow:1048576");
        assert_eq!(PolicyKind::Sprinklers(65536).name(), "sprinklers:65536");
        assert_eq!(
            PolicyKind::Caft(SimDuration::from_micros(100)).name(),
            "caft:100000"
        );
        assert_eq!(
            PolicyKind::Prequal(presto_probe::ProbeParams::default()).name(),
            "prequal:100000:32:1000000"
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(PolicyKind::parse(""), None);
        assert_eq!(PolicyKind::parse("presto:1"), None);
        assert_eq!(PolicyKind::parse("flowlet"), None);
        assert_eq!(PolicyKind::parse("flowlet:abc"), None);
        assert_eq!(PolicyKind::parse("warp-drive"), None);
        assert_eq!(PolicyKind::parse("prequal"), None);
        assert_eq!(PolicyKind::parse("prequal:100000"), None);
        assert_eq!(PolicyKind::parse("prequal:100000:32"), None);
        assert_eq!(PolicyKind::parse("prequal:100000:32:1:9"), None);
        // Zero intervals would reschedule at one instant forever.
        assert_eq!(PolicyKind::parse("caft:0"), None);
        assert_eq!(PolicyKind::parse("prequal:0:32:1000000"), None);
        assert_eq!(PolicyKind::parse("prequal:100000:0:1000000"), None);
        assert_eq!(PolicyKind::parse("prequal:100000:32:0"), None);
    }

    #[test]
    fn transport_name_parse_round_trips() {
        for t in [
            TransportKind::Tcp,
            TransportKind::Mptcp { subflows: 8 },
            TransportKind::Mptcp { subflows: 2 },
            TransportKind::Mptcp { subflows: 1 },
            TransportKind::Mptcp {
                subflows: TransportKind::MAX_SUBFLOWS,
            },
        ] {
            assert_eq!(TransportKind::parse(&t.name()), Some(t), "{}", t.name());
        }
        // Pinned strings: canonical scenario text embeds them.
        assert_eq!(TransportKind::Tcp.name(), "tcp");
        assert_eq!(TransportKind::Mptcp { subflows: 8 }.name(), "mptcp:8");
        assert_eq!(TransportKind::parse("tcp:1"), None);
        assert_eq!(TransportKind::parse("mptcp"), None);
        assert_eq!(TransportKind::parse("sctp"), None);
        // A connection needs a subflow, and RTO timers name at most 256.
        assert_eq!(TransportKind::parse("mptcp:0"), None);
        assert_eq!(TransportKind::parse("mptcp:257"), None);
        assert_eq!(TransportKind::parse("mptcp:-1"), None);
    }

    #[test]
    fn base_is_ecn_off_cubic() {
        // Pre-ECN digests depend on these defaults staying put.
        let base = SchemeSpec::base("X", PolicyKind::Presto);
        assert_eq!(base.cc, presto_transport::CcKind::Cubic);
        assert_eq!(base.ecn, None);
        let dctcp = base
            .with_cc(presto_transport::CcKind::Dctcp)
            .with_ecn(Some(DEFAULT_ECN_THRESHOLD));
        assert_eq!(dctcp.cc, presto_transport::CcKind::Dctcp);
        assert_eq!(dctcp.ecn, Some(65 * 1538));
    }
}
