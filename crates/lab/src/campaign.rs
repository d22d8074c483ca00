//! Declarative campaigns: a named parameter grid over the testbed axes.
//!
//! A [`Campaign`] is the cross product of its axis lists (scheme ×
//! topology × workload × fault × flowcell size × seed), refined by
//! combinators:
//!
//! * `[[drop]]` removes matching grid points (e.g. the single-switch
//!   scheme crossed with fabric faults, which is meaningless),
//! * `[[override]]` rewrites fields of matching points (e.g. a longer
//!   duration for the shuffle workload),
//! * `[[trace]]` flags matching points for telemetry-trace artifacts.
//!
//! Expansion is fully deterministic: the same campaign text always yields
//! the same ordered list of [`PointSpec`]s, and each point's scenario
//! fingerprint is a pure function of its configuration. That property is
//! what lets the results store skip completed points across runs.

use std::str::FromStr;

use presto_simcore::{SimDuration, SimTime};
use presto_testbed::{
    bijection_elephants, random_elephants, stride_elephants, AllreduceSpec, IncastSpec, Scenario,
    ShuffleSpec,
};
use presto_workloads::{data_mining, patterns, poisson_flows, web_search, FlowSpec};

use crate::axes::{CcKind, EcnId, FaultId, ProbeId, SchemeId, TopoId, WorkloadId, MIX_CLAMP};
use crate::tomlmini::{self, Table, Value};

/// One fully resolved grid point — everything needed to build its
/// [`Scenario`].
#[derive(Debug, Clone, PartialEq)]
pub struct PointSpec {
    /// Load-balancing scheme.
    pub scheme: SchemeId,
    /// Fabric.
    pub topo: TopoId,
    /// Offered traffic.
    pub workload: WorkloadId,
    /// Fault timeline.
    pub fault: FaultId,
    /// Congestion control (the testbed default is CUBIC).
    pub cc: CcKind,
    /// ECN marking (off by default).
    pub ecn: EcnId,
    /// Receiver-load probe override (default = the scheme's own params).
    pub probe: ProbeId,
    /// Flowcell threshold in KiB (the paper default is 64).
    pub flowcell_kb: u64,
    /// Master seed.
    pub seed: u64,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Measurement-window start.
    pub warmup: SimDuration,
    /// Flagged by a `[[trace]]` combinator: the runner emits a telemetry
    /// trace artifact for this point. Tracing never changes the scenario
    /// fingerprint or the report digest.
    pub traced: bool,
}

impl PointSpec {
    /// Human-readable coordinate of this point in the grid; unique within
    /// a campaign and stable across runs. Also used as the scenario's run
    /// label.
    pub fn label(&self) -> String {
        let mut label = format!(
            "{}/{}/{}/{}/cell{}k/s{}",
            self.scheme, self.topo, self.workload, self.fault, self.flowcell_kb, self.seed
        );
        // The transport axes only suffix the label away from their
        // defaults, so every pre-ECN campaign label is unchanged.
        if self.cc != CcKind::default() {
            label.push_str(&format!("/cc:{}", self.cc));
        }
        if self.ecn != EcnId::Off {
            label.push_str(&format!("/ecn:{}", self.ecn));
        }
        if self.probe != ProbeId::Default {
            label.push_str(&format!("/probe:{}", self.probe));
        }
        label
    }

    /// Reject configurations the testbed cannot execute meaningfully.
    /// Campaign authors exclude these with `[[drop]]` combinators rather
    /// than having expansion skip them silently.
    pub fn validate(&self) -> Result<(), String> {
        let whine = |msg: &str| Err(format!("{}: {msg}", self.label()));
        if self.scheme.is_single_switch() && self.fault != FaultId::None {
            return whine("the single-switch scheme has no fabric to fault");
        }
        if self.topo == TopoId::ThreeTier && self.fault != FaultId::None {
            return whine("fault axes address 2-tier leaf\u{2013}spine links");
        }
        if self.fault != FaultId::None {
            if let TopoId::Scalability(spines) = self.topo {
                if spines < 2 {
                    return whine("faults target spine 1, which needs \u{2265} 2 spines");
                }
            }
            let last_ms = match self.fault {
                FaultId::None => 0,
                FaultId::LinkDown(ms) | FaultId::SpineDown(ms) => ms,
                FaultId::Flap(_, up) => up,
            };
            if SimTime::from_millis(last_ms).as_nanos() >= self.duration.as_nanos() {
                return whine("fault fires at or after the end of the run");
            }
        }
        if self.flowcell_kb == 0 {
            return whine("flowcell size must be \u{2265} 1 KiB");
        }
        if let WorkloadId::Stride(k) = self.workload {
            if k.is_multiple_of(self.topo.n_servers()) {
                return whine("stride must not map a server onto itself");
            }
        }
        if let WorkloadId::Incast { fanout, .. } = self.workload {
            if fanout >= self.topo.n_servers() {
                return whine("incast fanout must leave room for the aggregator");
            }
        }
        if let WorkloadId::Allreduce { participants, .. } = self.workload {
            if participants > self.topo.n_servers() {
                return whine("allreduce ring exceeds the server count");
            }
        }
        if let WorkloadId::Skew { fanout, hot, .. } = self.workload {
            if fanout >= self.topo.n_servers() {
                return whine("skew fanout must leave room for the aggregator");
            }
            if hot > fanout {
                return whine("skew hot senders must be a subset of the static fanout");
            }
        }
        if self.probe != ProbeId::Default
            && !matches!(
                self.scheme.to_spec().policy,
                presto_testbed::PolicyKind::Prequal(_)
            )
        {
            return whine("the probe axis only configures probing schemes (prequal)");
        }
        if self.warmup.as_nanos() >= self.duration.as_nanos() {
            return whine("warmup must end before the run does");
        }
        Ok(())
    }

    /// Build the scenario for this point. The run label is the point
    /// label, so results and narration self-identify.
    pub fn to_scenario(&self) -> Scenario {
        self.to_scenario_with(|b| b)
    }

    /// [`Self::to_scenario`] with a final hook over the builder, for
    /// callers that need to attach settings outside the grid axes (e.g.
    /// a custom [`presto_telemetry::TelemetryConfig`]).
    pub fn to_scenario_with(
        &self,
        customize: impl FnOnce(presto_testbed::ScenarioBuilder) -> presto_testbed::ScenarioBuilder,
    ) -> Scenario {
        let mut spec = self.scheme.to_spec();
        spec.flowcell_bytes = self.flowcell_kb * 1024;
        // Only non-default transport axes touch the scheme spec, so the
        // canonical text (and thus fingerprints) of existing points is
        // byte-identical.
        if self.cc != CcKind::default() {
            spec.cc = self.cc;
        }
        if let Some(k) = self.ecn.threshold() {
            spec.ecn = Some(k);
        }
        // The probe axis only rewrites probing schemes (validate() rejects
        // anything else), so default-probe points keep their fingerprints.
        if let Some(params) = self.probe.params() {
            spec.policy = presto_testbed::PolicyKind::Prequal(params);
        }
        let n = self.topo.n_servers();
        let hpp = self.topo.hosts_per_pod();
        let mut b = Scenario::builder(spec, self.seed)
            .duration(self.duration)
            .warmup(self.warmup)
            .faults(self.fault.to_plan());
        b = match self.topo.clos() {
            Some(clos) => b.topology(clos),
            None => b.three_tier(self.topo.three_tier().expect("3-tier topo")),
        };
        b = match self.workload {
            WorkloadId::Stride(k) => b.elephants(stride_elephants(n, k)),
            WorkloadId::Random => b.elephants(random_elephants(n, hpp, self.seed)),
            WorkloadId::Bijection => b.elephants(bijection_elephants(n, hpp, self.seed)),
            WorkloadId::Shuffle { bytes, concurrency } => {
                b.shuffle(ShuffleSpec { bytes, concurrency })
            }
            WorkloadId::WebSearch(gap_ms) => b.flows(poisson_flows(
                &web_search(),
                n,
                hpp,
                self.seed,
                SimTime::from_nanos(self.duration.as_nanos()),
                SimDuration::from_millis(gap_ms),
                MIX_CLAMP,
            )),
            WorkloadId::DataMining(gap_ms) => b.flows(poisson_flows(
                &data_mining(),
                n,
                hpp,
                self.seed,
                SimTime::from_nanos(self.duration.as_nanos()),
                SimDuration::from_millis(gap_ms),
                MIX_CLAMP,
            )),
            WorkloadId::Incast {
                fanout,
                kb,
                interval_us,
                deadline_us,
            } => b.incast(IncastSpec {
                aggregator: 0,
                fanout,
                bytes_per_worker: kb * 1024,
                interval: SimDuration::from_micros(interval_us),
                deadline: SimDuration::from_micros(deadline_us),
            }),
            WorkloadId::Allreduce { participants, kb } => b.allreduce(AllreduceSpec {
                participants,
                bytes: kb * 1024,
            }),
            WorkloadId::Skew {
                fanout,
                kb,
                interval_us,
                deadline_us,
                hot,
            } => {
                // The first `hot` static senders each source an unbounded
                // elephant cross-fabric, keeping their uplinks saturated:
                // a load-oblivious aggregator keeps asking them anyway, a
                // probing one routes requests around them.
                let elephants = patterns::incast_senders(n, 0, fanout)
                    .into_iter()
                    .take(hot)
                    .map(|src| {
                        let mut dst = (src + n / 2) % n;
                        while dst == 0 || dst == src {
                            dst = (dst + 1) % n;
                        }
                        FlowSpec::elephant(src, dst, SimTime::ZERO)
                    })
                    .collect();
                b.elephants(elephants).incast(IncastSpec {
                    aggregator: 0,
                    fanout,
                    bytes_per_worker: kb * 1024,
                    interval: SimDuration::from_micros(interval_us),
                    deadline: SimDuration::from_micros(deadline_us),
                })
            }
        };
        customize(b.name(self.label())).build()
    }

    /// The content address of this point: the fingerprint of its scenario.
    pub fn fingerprint(&self) -> String {
        self.to_scenario().fingerprint()
    }
}

/// A match pattern against one string-valued axis: exact text, a trailing
/// `*` prefix wildcard, and a leading `!` negation (`"!none"`,
/// `"stride:*"`).
#[derive(Debug, Clone, PartialEq)]
pub struct StrPat {
    negate: bool,
    prefix: bool,
    text: String,
}

impl StrPat {
    /// Parse a pattern; `check` validates a literal (non-wildcard) body so
    /// typos fail at campaign load instead of silently never matching.
    fn parse(raw: &str, check: &dyn Fn(&str) -> Result<(), String>) -> Result<Self, String> {
        let (negate, rest) = match raw.strip_prefix('!') {
            Some(r) => (true, r),
            None => (false, raw),
        };
        let (prefix, text) = match rest.strip_suffix('*') {
            Some(r) => (true, r),
            None => (false, rest),
        };
        if !prefix {
            check(text)?;
        }
        Ok(StrPat {
            negate,
            prefix,
            text: text.to_string(),
        })
    }

    /// True if the axis value (canonical string form) matches.
    pub fn matches(&self, value: &str) -> bool {
        let hit = if self.prefix {
            value.starts_with(&self.text)
        } else {
            value == self.text
        };
        hit != self.negate
    }
}

/// A conjunction of per-axis patterns; absent axes match anything.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PointMatch {
    /// Scheme pattern.
    pub scheme: Option<StrPat>,
    /// Topology pattern.
    pub topo: Option<StrPat>,
    /// Workload pattern.
    pub workload: Option<StrPat>,
    /// Fault pattern.
    pub fault: Option<StrPat>,
    /// Congestion-control pattern.
    pub cc: Option<StrPat>,
    /// ECN pattern.
    pub ecn: Option<StrPat>,
    /// Probe pattern.
    pub probe: Option<StrPat>,
    /// Exact flowcell size in KiB.
    pub flowcell_kb: Option<u64>,
    /// Exact seed.
    pub seed: Option<u64>,
}

impl PointMatch {
    /// True if every present pattern matches the point.
    pub fn matches(&self, p: &PointSpec) -> bool {
        let s = |pat: &Option<StrPat>, v: String| pat.as_ref().is_none_or(|p| p.matches(&v));
        s(&self.scheme, p.scheme.to_string())
            && s(&self.topo, p.topo.to_string())
            && s(&self.workload, p.workload.to_string())
            && s(&self.fault, p.fault.to_string())
            && s(&self.cc, p.cc.to_string())
            && s(&self.ecn, p.ecn.to_string())
            && s(&self.probe, p.probe.to_string())
            && self.flowcell_kb.is_none_or(|v| v == p.flowcell_kb)
            && self.seed.is_none_or(|v| v == p.seed)
    }
}

/// An `[[override]]` combinator: rewrite fields of matching points.
#[derive(Debug, Clone, PartialEq)]
pub struct PointOverride {
    /// Which points to rewrite.
    pub matcher: PointMatch,
    /// New duration, if set.
    pub duration: Option<SimDuration>,
    /// New warmup, if set.
    pub warmup: Option<SimDuration>,
    /// New flowcell size in KiB, if set.
    pub flowcell_kb: Option<u64>,
}

/// A named parameter grid plus its combinators.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Campaign name (also the results-store subdirectory name).
    pub name: String,
    /// Default simulated duration for every point.
    pub duration: SimDuration,
    /// Default measurement-window start.
    pub warmup: SimDuration,
    /// Scheme axis.
    pub schemes: Vec<SchemeId>,
    /// Topology axis.
    pub topos: Vec<TopoId>,
    /// Workload axis.
    pub workloads: Vec<WorkloadId>,
    /// Fault axis.
    pub faults: Vec<FaultId>,
    /// Congestion-control axis.
    pub ccs: Vec<CcKind>,
    /// ECN axis.
    pub ecns: Vec<EcnId>,
    /// Probe-override axis.
    pub probes: Vec<ProbeId>,
    /// Flowcell-size axis, in KiB.
    pub flowcells_kb: Vec<u64>,
    /// Seed axis.
    pub seeds: Vec<u64>,
    /// `[[drop]]` combinators, applied before overrides.
    pub drops: Vec<PointMatch>,
    /// `[[override]]` combinators, applied in file order.
    pub overrides: Vec<PointOverride>,
    /// `[[trace]]` combinators.
    pub traces: Vec<PointMatch>,
}

impl Campaign {
    /// A campaign with the given name, a 100 ms / 20 ms time window, and
    /// single-default axes (`presto` on `testbed16`, `stride:8`, healthy,
    /// CUBIC with ECN off, 64 KiB cells, seed 1). Push onto the axis
    /// vectors to widen the grid.
    pub fn new(name: impl Into<String>) -> Self {
        Campaign {
            name: name.into(),
            duration: SimDuration::from_millis(100),
            warmup: SimDuration::from_millis(20),
            schemes: vec![SchemeId::PRESTO],
            topos: vec![TopoId::Testbed16],
            workloads: vec![WorkloadId::Stride(8)],
            faults: vec![FaultId::None],
            ccs: vec![CcKind::default()],
            ecns: vec![EcnId::Off],
            probes: vec![ProbeId::Default],
            flowcells_kb: vec![64],
            seeds: vec![1],
            drops: Vec::new(),
            overrides: Vec::new(),
            traces: Vec::new(),
        }
    }

    /// Expand the grid into its ordered point list.
    ///
    /// Points iterate with the scheme axis outermost and the seed axis
    /// innermost, in the order the axis values were listed. Dropped points
    /// are removed, overrides applied in file order, and every surviving
    /// point validated — an unexecutable combination (e.g. `optimal`
    /// crossed with a fault) is an error naming the point, so the author
    /// adds a `[[drop]]` instead of getting silent holes in the grid.
    pub fn expand(&self) -> Result<Vec<PointSpec>, String> {
        for (axis, n) in [
            ("scheme", self.schemes.len()),
            ("topo", self.topos.len()),
            ("workload", self.workloads.len()),
            ("fault", self.faults.len()),
            ("cc", self.ccs.len()),
            ("ecn", self.ecns.len()),
            ("probe", self.probes.len()),
            ("flowcell_kb", self.flowcells_kb.len()),
            ("seed", self.seeds.len()),
        ] {
            if n == 0 {
                return Err(format!("campaign `{}`: empty `{axis}` axis", self.name));
            }
        }
        let mut points = Vec::new();
        for &scheme in &self.schemes {
            for &topo in &self.topos {
                for &workload in &self.workloads {
                    for &fault in &self.faults {
                        for &cc in &self.ccs {
                            for &ecn in &self.ecns {
                                for &probe in &self.probes {
                                    for &flowcell_kb in &self.flowcells_kb {
                                        for &seed in &self.seeds {
                                            let mut p = PointSpec {
                                                scheme,
                                                topo,
                                                workload,
                                                fault,
                                                cc,
                                                ecn,
                                                probe,
                                                flowcell_kb,
                                                seed,
                                                duration: self.duration,
                                                warmup: self.warmup,
                                                traced: false,
                                            };
                                            if self.drops.iter().any(|d| d.matches(&p)) {
                                                continue;
                                            }
                                            for o in &self.overrides {
                                                if o.matcher.matches(&p) {
                                                    if let Some(d) = o.duration {
                                                        p.duration = d;
                                                    }
                                                    if let Some(w) = o.warmup {
                                                        p.warmup = w;
                                                    }
                                                    if let Some(f) = o.flowcell_kb {
                                                        p.flowcell_kb = f;
                                                    }
                                                }
                                            }
                                            p.traced = self.traces.iter().any(|t| t.matches(&p));
                                            p.validate().map_err(|e| {
                                                format!(
                                                    "campaign `{}`: invalid grid point {e} \
                                                     (add a [[drop]] to exclude it)",
                                                    self.name
                                                )
                                            })?;
                                            points.push(p);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        if points.is_empty() {
            return Err(format!(
                "campaign `{}`: every grid point was dropped",
                self.name
            ));
        }
        let mut labels: Vec<String> = points.iter().map(PointSpec::label).collect();
        labels.sort();
        if let Some(dup) = labels.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!(
                "campaign `{}`: duplicate grid point {} (repeated axis value?)",
                self.name, dup[0]
            ));
        }
        Ok(points)
    }

    /// Parse a campaign file (the TOML subset of [`tomlmini`]).
    pub fn from_toml(text: &str) -> Result<Campaign, String> {
        let doc = tomlmini::parse(text)?;
        for (section, _) in &doc.sections {
            if !matches!(
                section.as_str(),
                "campaign" | "axes" | "drop" | "override" | "trace"
            ) {
                return Err(format!("unknown section `[{section}]`"));
            }
        }
        let head = doc.table("campaign").ok_or("missing [campaign] section")?;
        reject_unknown(head, "campaign", &["name", "duration_ms", "warmup_ms"])?;
        let name = head
            .get("name")
            .and_then(Value::as_str)
            .ok_or("campaign.name must be a string")?;
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(format!(
                "campaign.name `{name}` must be a nonempty [-_a-zA-Z0-9] token"
            ));
        }
        let mut campaign = Campaign::new(name);
        if let Some(ms) = head.get("duration_ms") {
            campaign.duration = SimDuration::from_millis(
                ms.as_u64()
                    .ok_or("campaign.duration_ms must be a positive integer")?,
            );
        }
        if let Some(ms) = head.get("warmup_ms") {
            campaign.warmup = SimDuration::from_millis(
                ms.as_u64()
                    .ok_or("campaign.warmup_ms must be a non-negative integer")?,
            );
        }
        if let Some(axes) = doc.table("axes") {
            reject_unknown(
                axes,
                "axes",
                &[
                    "scheme",
                    "topo",
                    "workload",
                    "fault",
                    "cc",
                    "ecn",
                    "probe",
                    "flowcell_kb",
                    "seed",
                ],
            )?;
            if let Some(v) = axes.get("scheme") {
                campaign.schemes = parse_axis(v, "scheme")?;
            }
            if let Some(v) = axes.get("topo") {
                campaign.topos = parse_axis(v, "topo")?;
            }
            if let Some(v) = axes.get("workload") {
                campaign.workloads = parse_axis(v, "workload")?;
            }
            if let Some(v) = axes.get("fault") {
                campaign.faults = parse_axis(v, "fault")?;
            }
            if let Some(v) = axes.get("cc") {
                campaign.ccs = parse_axis(v, "cc")?;
            }
            if let Some(v) = axes.get("ecn") {
                campaign.ecns = parse_axis(v, "ecn")?;
            }
            if let Some(v) = axes.get("probe") {
                campaign.probes = parse_axis(v, "probe")?;
            }
            if let Some(v) = axes.get("flowcell_kb") {
                campaign.flowcells_kb = parse_u64_axis(v, "flowcell_kb")?;
            }
            if let Some(v) = axes.get("seed") {
                campaign.seeds = parse_u64_axis(v, "seed")?;
            }
        }
        for t in doc.tables("drop") {
            campaign.drops.push(parse_match(t, "drop", &[])?);
        }
        for t in doc.tables("trace") {
            campaign.traces.push(parse_match(t, "trace", &[])?);
        }
        for t in doc.tables("override") {
            let matcher = parse_match(
                t,
                "override",
                &["set.duration_ms", "set.warmup_ms", "set.flowcell_kb"],
            )?;
            let get = |key: &str| -> Result<Option<u64>, String> {
                match t.get(key) {
                    None => Ok(None),
                    Some(v) => v
                        .as_u64()
                        .map(Some)
                        .ok_or_else(|| format!("override {key} must be a non-negative integer")),
                }
            };
            let o = PointOverride {
                matcher,
                duration: get("set.duration_ms")?.map(SimDuration::from_millis),
                warmup: get("set.warmup_ms")?.map(SimDuration::from_millis),
                flowcell_kb: get("set.flowcell_kb")?,
            };
            if o.duration.is_none() && o.warmup.is_none() && o.flowcell_kb.is_none() {
                return Err(
                    "[[override]] sets nothing (use set.duration_ms / set.warmup_ms / \
                            set.flowcell_kb)"
                        .into(),
                );
            }
            campaign.overrides.push(o);
        }
        Ok(campaign)
    }
}

fn reject_unknown(table: &Table, section: &str, allowed: &[&str]) -> Result<(), String> {
    for key in table.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(format!("unknown key `{key}` in [{section}]"));
        }
    }
    Ok(())
}

/// Parse an axis array whose elements are canonical axis strings.
fn parse_axis<T: FromStr<Err = String>>(value: &Value, axis: &str) -> Result<Vec<T>, String> {
    let arr = value
        .as_arr()
        .ok_or_else(|| format!("axes.{axis} must be an array"))?;
    arr.iter()
        .map(|v| {
            v.as_str()
                .ok_or_else(|| format!("axes.{axis} elements must be strings"))?
                .parse::<T>()
                .map_err(|e| format!("axes.{axis}: {e}"))
        })
        .collect()
}

fn parse_u64_axis(value: &Value, axis: &str) -> Result<Vec<u64>, String> {
    let arr = value
        .as_arr()
        .ok_or_else(|| format!("axes.{axis} must be an array"))?;
    arr.iter()
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| format!("axes.{axis} elements must be non-negative integers"))
        })
        .collect()
}

/// Parse the match half of a combinator table. `extra` lists additional
/// allowed keys (the `set.*` keys of overrides).
fn parse_match(table: &Table, section: &str, extra: &[&str]) -> Result<PointMatch, String> {
    let mut allowed = vec![
        "scheme",
        "topo",
        "workload",
        "fault",
        "cc",
        "ecn",
        "probe",
        "flowcell_kb",
        "seed",
    ];
    allowed.extend_from_slice(extra);
    reject_unknown(table, section, &allowed)?;
    let pat =
        |key: &str, check: &dyn Fn(&str) -> Result<(), String>| -> Result<Option<StrPat>, String> {
            match table.get(key) {
                None => Ok(None),
                Some(v) => {
                    let raw = v
                        .as_str()
                        .ok_or_else(|| format!("[[{section}]] {key} must be a string"))?;
                    StrPat::parse(raw, check)
                        .map(Some)
                        .map_err(|e| format!("[[{section}]] {key}: {e}"))
                }
            }
        };
    let int = |key: &str| -> Result<Option<u64>, String> {
        match table.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("[[{section}]] {key} must be a non-negative integer")),
        }
    };
    let m = PointMatch {
        scheme: pat("scheme", &|s| s.parse::<SchemeId>().map(|_| ()))?,
        topo: pat("topo", &|s| s.parse::<TopoId>().map(|_| ()))?,
        workload: pat("workload", &|s| s.parse::<WorkloadId>().map(|_| ()))?,
        fault: pat("fault", &|s| s.parse::<FaultId>().map(|_| ()))?,
        cc: pat("cc", &|s| s.parse::<CcKind>().map(|_| ()))?,
        ecn: pat("ecn", &|s| s.parse::<EcnId>().map(|_| ()))?,
        probe: pat("probe", &|s| s.parse::<ProbeId>().map(|_| ()))?,
        flowcell_kb: int("flowcell_kb")?,
        seed: int("seed")?,
    };
    if m == PointMatch::default() && extra.is_empty() {
        return Err(format!("[[{section}]] matches every point (no axis keys)"));
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: &str = r#"
[campaign]
name = "demo"
duration_ms = 60
warmup_ms = 15

[axes]
scheme = ["presto", "ecmp", "optimal"]
workload = ["stride:8", "random"]
fault = ["none", "linkdown:30"]
seed = [1, 2]

[[drop]]
scheme = "optimal"
fault = "!none"

[[override]]
workload = "random"
set.duration_ms = 40

[[trace]]
scheme = "presto"
fault = "linkdown:30"
seed = 1
"#;

    #[test]
    fn expansion_is_deterministic_and_ordered() {
        let c = Campaign::from_toml(DEMO).unwrap();
        let points = c.expand().unwrap();
        // 3 schemes × 2 workloads × 2 faults × 2 seeds = 24, minus the 4
        // dropped optimal+fault points.
        assert_eq!(points.len(), 20);
        assert_eq!(
            points[0].label(),
            "presto/testbed16/stride:8/none/cell64k/s1"
        );
        let again = Campaign::from_toml(DEMO).unwrap().expand().unwrap();
        assert_eq!(points, again);
        // Scheme axis is outermost.
        assert!(points[0].label().starts_with("presto/"));
        assert!(points.last().unwrap().label().starts_with("optimal/"));
    }

    #[test]
    fn overrides_rewrite_matching_points() {
        let points = Campaign::from_toml(DEMO).unwrap().expand().unwrap();
        for p in &points {
            let want = if p.workload == WorkloadId::Random {
                SimDuration::from_millis(40)
            } else {
                SimDuration::from_millis(60)
            };
            assert_eq!(p.duration, want, "{}", p.label());
        }
    }

    #[test]
    fn traces_flag_exactly_the_matching_points() {
        let points = Campaign::from_toml(DEMO).unwrap().expand().unwrap();
        let traced: Vec<String> = points
            .iter()
            .filter(|p| p.traced)
            .map(|p| p.label())
            .collect();
        assert_eq!(
            traced,
            [
                "presto/testbed16/stride:8/linkdown:30/cell64k/s1",
                "presto/testbed16/random/linkdown:30/cell64k/s1"
            ]
        );
    }

    #[test]
    fn invalid_grid_points_are_loud() {
        let text = DEMO.replace("[[drop]]\nscheme = \"optimal\"\nfault = \"!none\"\n", "");
        let err = Campaign::from_toml(&text).unwrap().expand().unwrap_err();
        assert!(err.contains("optimal"), "{err}");
        assert!(err.contains("[[drop]]"), "{err}");
    }

    #[test]
    fn typos_fail_at_load_time() {
        assert!(Campaign::from_toml(&DEMO.replace("\"ecmp\"", "\"ecpm\"")).is_err());
        assert!(Campaign::from_toml(&DEMO.replace("[[drop]]", "[[dorp]]")).is_err());
        assert!(
            Campaign::from_toml(&DEMO.replace("scheme = \"optimal\"", "schem = \"optimal\""))
                .is_err()
        );
        // A literal (non-wildcard) pattern must parse as the axis type.
        assert!(
            Campaign::from_toml(&DEMO.replace("scheme = \"optimal\"", "scheme = \"optiml\""))
                .is_err()
        );
        // Wildcards are exempt from literal validation.
        assert!(
            Campaign::from_toml(&DEMO.replace("fault = \"!none\"", "fault = \"linkdown:*\""))
                .is_ok()
        );
        // A retired axis key, which old campaign files may still carry,
        // is an unknown key like any other: the error names it.
        let err = Campaign::from_toml(&DEMO.replace("[axes]\n", "[axes]\nshards = [1, 8]\n"))
            .unwrap_err();
        assert!(err.contains("`shards`"), "{err}");
        let err =
            Campaign::from_toml(&DEMO.replace("[[drop]]\n", "[[drop]]\nshards = 8\n")).unwrap_err();
        assert!(err.contains("`shards`"), "{err}");
    }

    #[test]
    fn fingerprints_distinguish_every_point() {
        let points = Campaign::from_toml(DEMO).unwrap().expand().unwrap();
        let mut fps: Vec<String> = points.iter().map(PointSpec::fingerprint).collect();
        fps.sort();
        fps.dedup();
        assert_eq!(fps.len(), points.len(), "fingerprint collision in grid");
    }

    #[test]
    fn traced_flag_does_not_change_the_fingerprint() {
        let points = Campaign::from_toml(DEMO).unwrap().expand().unwrap();
        let mut p = points[0].clone();
        let before = p.fingerprint();
        p.traced = !p.traced;
        assert_eq!(p.fingerprint(), before);
    }

    #[test]
    fn scenarios_materialize_for_every_workload() {
        for w in [
            "stride:4",
            "random",
            "bijection",
            "shuffle:100000:2",
            "websearch:2",
            "datamining:2",
            "incast:8:32:1000:900",
            "allreduce:8:512",
            "skew:8:32:1000:900:2",
        ] {
            let p = PointSpec {
                scheme: SchemeId::PRESTO,
                topo: TopoId::Testbed16,
                workload: w.parse().unwrap(),
                fault: FaultId::None,
                cc: CcKind::default(),
                ecn: EcnId::Off,
                probe: ProbeId::Default,
                flowcell_kb: 64,
                seed: 3,
                duration: SimDuration::from_millis(50),
                warmup: SimDuration::from_millis(10),
                traced: false,
            };
            let s = p.to_scenario();
            assert_eq!(s.name(), p.label());
            assert_eq!(s.seed(), 3);
            let has_traffic = !s.flows().is_empty()
                || s.shuffle().is_some()
                || s.incast().is_some()
                || s.allreduce().is_some();
            assert!(has_traffic, "{w} generated no traffic");
        }
    }

    #[test]
    fn transport_axes_suffix_labels_and_reach_the_spec() {
        let mut c = Campaign::new("transport");
        c.ccs = vec![CcKind::Cubic, CcKind::Dctcp];
        c.ecns = vec![EcnId::Off, EcnId::On(presto_testbed::DEFAULT_ECN_THRESHOLD)];
        let points = c.expand().unwrap();
        assert_eq!(points.len(), 4);
        // Default cc/ecn keeps the historical label byte-identical…
        assert_eq!(
            points[0].label(),
            "presto/testbed16/stride:8/none/cell64k/s1"
        );
        // …and the historical fingerprint: the axes only touch the spec
        // away from their defaults.
        let baseline = PointSpec {
            cc: CcKind::default(),
            ecn: EcnId::Off,
            probe: ProbeId::Default,
            ..points[0].clone()
        };
        assert_eq!(points[0].fingerprint(), baseline.fingerprint());
        // Non-default values suffix in a fixed order.
        let labels: Vec<String> = points.iter().map(PointSpec::label).collect();
        assert!(labels.contains(&"presto/testbed16/stride:8/none/cell64k/s1/ecn:on".into()));
        assert!(
            labels.contains(&"presto/testbed16/stride:8/none/cell64k/s1/cc:dctcp/ecn:on".into())
        );
        for p in &points {
            let s = p.to_scenario();
            assert_eq!(s.scheme().cc, p.cc);
            assert_eq!(s.scheme().ecn, p.ecn.threshold());
        }
        // All four points are distinct configurations.
        let mut fps: Vec<String> = points.iter().map(PointSpec::fingerprint).collect();
        fps.sort();
        fps.dedup();
        assert_eq!(fps.len(), 4);
    }

    #[test]
    fn cc_and_ecn_work_in_toml_axes_and_combinators() {
        let text = r#"
[campaign]
name = "dctcp"

[axes]
scheme = ["presto", "ecmp"]
cc = ["cubic", "dctcp"]
ecn = ["off", "on"]

[[drop]]
cc = "dctcp"
ecn = "off"

[[trace]]
cc = "dctcp"
"#;
        let c = Campaign::from_toml(text).unwrap();
        assert_eq!(c.ccs, vec![CcKind::Cubic, CcKind::Dctcp]);
        assert_eq!(
            c.ecns,
            vec![EcnId::Off, EcnId::On(presto_testbed::DEFAULT_ECN_THRESHOLD)]
        );
        let points = c.expand().unwrap();
        // 2 schemes × (cubic×{off,on} + dctcp×on) = 6.
        assert_eq!(points.len(), 6);
        for p in &points {
            assert!(
                !(p.cc == CcKind::Dctcp && p.ecn == EcnId::Off),
                "dropped combination survived: {}",
                p.label()
            );
            assert_eq!(p.traced, p.cc == CcKind::Dctcp, "{}", p.label());
        }
        // Typos in the new axes fail at load time.
        assert!(Campaign::from_toml(&text.replace("\"dctcp\"", "\"dctpc\"")).is_err());
        assert!(
            Campaign::from_toml(&text.replace("ecn = [\"off\", \"on\"]", "ecn = [\"of\"]"))
                .is_err()
        );
    }

    #[test]
    fn probe_axis_rewrites_only_probing_schemes() {
        let mut c = Campaign::new("probing");
        c.schemes = vec!["prequal".parse().unwrap()];
        c.probes = vec![ProbeId::Default, "50:16:500".parse().unwrap()];
        let points = c.expand().unwrap();
        assert_eq!(points.len(), 2);
        // Default-probe points keep the historical label and fingerprint…
        assert_eq!(
            points[0].label(),
            "prequal/testbed16/stride:8/none/cell64k/s1"
        );
        // …and custom probes suffix the label with a distinct address.
        assert_eq!(
            points[1].label(),
            "prequal/testbed16/stride:8/none/cell64k/s1/probe:50:16:500"
        );
        assert_ne!(points[0].fingerprint(), points[1].fingerprint());
        match points[1].to_scenario().scheme().policy {
            presto_testbed::PolicyKind::Prequal(p) => {
                assert_eq!(p.pool, 16);
                assert_eq!(p.every, SimDuration::from_micros(50));
                assert_eq!(p.staleness, SimDuration::from_micros(500));
            }
            ref other => panic!("expected Prequal, got {other:?}"),
        }
        // A custom probe crossed with a non-probing scheme is an invalid
        // grid point, named loudly.
        let mut c = Campaign::new("oblivious");
        c.probes = vec!["50:16:500".parse().unwrap()];
        assert!(c.expand().unwrap_err().contains("probing"));
        // The probe key works in combinators and the axes table.
        let text = r#"
[campaign]
name = "probe-grid"

[axes]
scheme = ["presto", "prequal"]
probe = ["default", "50:16:500"]

[[drop]]
scheme = "presto"
probe = "!default"
"#;
        let points = Campaign::from_toml(text).unwrap().expand().unwrap();
        assert_eq!(points.len(), 3);
    }

    #[test]
    fn skew_workload_materializes_elephants_plus_incast() {
        let p = PointSpec {
            scheme: SchemeId::PRESTO,
            topo: TopoId::Testbed16,
            workload: "skew:6:64:2000:1500:2".parse().unwrap(),
            fault: FaultId::None,
            cc: CcKind::default(),
            ecn: EcnId::Off,
            probe: ProbeId::Default,
            flowcell_kb: 64,
            seed: 3,
            duration: SimDuration::from_millis(50),
            warmup: SimDuration::from_millis(10),
            traced: false,
        };
        let s = p.to_scenario();
        let inc = s.incast().expect("skew carries an incast workload");
        assert_eq!(inc.fanout, 6);
        assert_eq!(inc.bytes_per_worker, 64 * 1024);
        // Two hot senders, each an unbounded elephant avoiding the
        // aggregator (host 0) at both ends.
        assert_eq!(s.flows().len(), 2);
        for f in s.flows() {
            assert!(f.bytes.is_none(), "hot flows are unbounded");
            assert_ne!(f.src, 0);
            assert_ne!(f.dst, 0);
            assert_ne!(f.src, f.dst);
        }
    }

    #[test]
    fn incast_points_validate_against_the_topology() {
        let mut c = Campaign::new("incast-too-wide");
        c.workloads = vec!["incast:16:32:1000:900".parse().unwrap()];
        let err = c.expand().unwrap_err();
        assert!(err.contains("aggregator"), "{err}");
        let mut c = Campaign::new("ring-too-wide");
        c.workloads = vec!["allreduce:17:512".parse().unwrap()];
        assert!(c.expand().unwrap_err().contains("ring"), "{}", c.name);
    }

    #[test]
    fn stride_points_validate_against_the_topology() {
        for w in ["stride:16", "stride:32"] {
            let mut c = Campaign::new("self-stride");
            c.workloads = vec![w.parse().unwrap()];
            let err = c.expand().unwrap_err();
            assert!(err.contains("onto itself"), "{w}: {err}");
        }
        let mut c = Campaign::new("stride");
        c.workloads = vec!["stride:15".parse().unwrap()];
        assert!(c.expand().is_ok());
    }

    #[test]
    fn flowcell_axis_reaches_the_scheme_spec() {
        let mut c = Campaign::new("cells");
        c.flowcells_kb = vec![16, 64, 256];
        let points = c.expand().unwrap();
        for p in &points {
            assert_eq!(
                p.to_scenario().scheme().flowcell_bytes,
                p.flowcell_kb * 1024
            );
        }
    }

    #[test]
    fn empty_or_overdropped_grids_error() {
        let mut c = Campaign::new("empty");
        c.seeds.clear();
        assert!(c.expand().unwrap_err().contains("empty `seed` axis"));
        let mut c = Campaign::new("dropped");
        c.drops.push(PointMatch {
            scheme: Some(StrPat::parse("presto", &|_| Ok(())).unwrap()),
            ..PointMatch::default()
        });
        assert!(c
            .expand()
            .unwrap_err()
            .contains("every grid point was dropped"));
    }
}
