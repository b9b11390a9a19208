//! The RIC deployment: one platform terminating N gNB agents, the standard
//! xApp trio, and the one loop that drives it.
//!
//! [`ScaleDeployment`] is the only place the paper's Figure 3 is wired —
//! gNB agent(s) → E2 → platform → MobiWatch → LLM analyzer → mitigator →
//! E2 Control — and [`ScaleDeployment::step`] is the only place a report
//! bucket is sequenced through it. One agent is the paper's testbed shape;
//! N agents, one in-proc E2 connection *per cell*, is the shape the
//! readiness-driven reactor exists for. The same xApp set serves every
//! agent, a ring neighbour topology arms QuarantineCell broadcast fan-out,
//! and the per-agent ack-latency histograms land in the shared registry.
//!
//! ## One run, one outcome
//!
//! [`ScaleDeployment::drive`] is the only run entry: it runs buckets until
//! its [`RanFeed`] — where a bucket's records come from and where the
//! decoded Control Actions go — is exhausted, plus a few grace buckets, and
//! returns the run's one summary, [`ScaleOutcome`]. Three feeds cover every
//! run mode: [`Replay`] (a pre-extracted stream, open loop), [`LiveSim`] (a
//! live [`RanSimulator`], closed loop), and [`Streaming`] (a multi-cell
//! [`StreamingScenario`], closed loop). Scoring a run against ground truth
//! is [`Pipeline::evaluate`]'s.
//!
//! ## Determinism across agent counts
//!
//! Detections and incident traces must not depend on how many agents the
//! traffic is split over — a 1-agent and a 256-agent run of the same
//! records are the same experiment. The harness guarantees this by
//! construction: records buffer per report bucket and flush in *cell-major*
//! order (stable per-cell arrival order), so the concatenation of per-agent
//! indications the platform delivers is the identical global sequence at
//! every agent count. Per-UE scoring, trace allocation, and the
//! mitigator's virtual clock are all pure functions of that sequence.

use crate::analyzer::{AnalyzerFinding, AnalyzerState, LlmAnalyzer};
use crate::mitigator::{
    MitigationSummary, Mitigator, MitigatorState, A1_POLICY_STATUS_TOPIC, A1_POLICY_TOPIC,
    ANOMALIES_TOPIC, CONTROL_ACKS_TOPIC, FINDINGS_TOPIC,
};
use crate::mobiwatch::{MobiWatch, MobiWatchConfig, MobiWatchState};
use crate::pipeline::Pipeline;
use crate::smo::A1PolicyClient;
use parking_lot::Mutex;
use std::sync::Arc;
use xsec_control::{ControlAction, PolicyEngine};
use xsec_e2::{in_proc_pair, InProcTransport, RicAgent, RicAgentConfig};
use xsec_llm::SimulatedExpert;
use xsec_mobiflow::{extract_from_events_at, TelemetryStream, UeMobiFlow};
use xsec_obs::{Counter, Obs, Snapshot};
use xsec_ran::sim::RanSimulator;
use xsec_ran::stream::StreamingScenario;
use xsec_ric::{Grants, RicPlatform, RouterHandle, SubscriptionSpec, XApp, XAppIdentity};
use xsec_types::{CellId, Duration, GnbId, Timestamp};

/// Buckets a drive keeps running after its feed is exhausted, so in-flight
/// detections drain end to end (alert → finding → control → ack).
const GRACE_BUCKETS: usize = 4;

/// One platform, N agents (agent `i` serves `CellId(i + 1)`, matching the
/// streaming engine's cell-index layout), and the standard xApp trio.
pub struct ScaleDeployment {
    obs: Obs,
    agents: Vec<RicAgent<InProcTransport>>,
    platform: RicPlatform,
    pub(crate) watch_state: Arc<Mutex<MobiWatchState>>,
    analyzer_state: Arc<Mutex<AnalyzerState>>,
    mitigator_state: Arc<Mutex<MitigatorState>>,
    period: Duration,
    /// Records buffered for the current report bucket, flushed cell-major.
    bucket: Vec<UeMobiFlow>,
    records: usize,
    /// The SMO's registered identity.
    smo_scope: RouterHandle,
    /// Control Requests an agent acked as success but no RAN can enforce.
    control_undecodable: Counter,
}

/// What one run produced, as [`ScaleDeployment::drive`] ends it; scoring
/// against ground truth is [`Pipeline::evaluate`]'s.
#[derive(Debug)]
pub struct ScaleOutcome {
    /// Telemetry records replayed.
    pub records: usize,
    /// Windows the detector flagged.
    pub flagged_windows: usize,
    /// Alerts published to the analyzer (post-cooldown and incident gate).
    pub alerts: usize,
    /// The analyzer's findings.
    pub findings: Vec<AnalyzerFinding>,
    /// Findings queued for human supervision.
    pub human_review: usize,
    /// Closed-loop mitigation outcome.
    pub mitigation: MitigationSummary,
    /// End-of-run metrics snapshot (includes the per-agent
    /// `xsec_ric_control_ack_latency_us{agent="gnb-<id>"}` histograms).
    pub metrics: Snapshot,
    /// Control Actions this drive handed to its feed to enforce, with the
    /// bucket's virtual time, in arrival order.
    pub enforced: Vec<(Timestamp, ControlAction)>,
}

/// The RAN side of a drive: where a report bucket's records come from and
/// where the Control Actions the RIC ships in response go.
pub trait RanFeed {
    /// Called once before the first bucket so RAN-side enforcement records
    /// into the deployment's registry and incident traces.
    fn attach_obs(&mut self, _obs: &Obs) {}

    /// Advances the RAN to `bucket_end` and appends the bucket's records.
    /// Returns `false` once the feed has nothing further to offer.
    fn fill(&mut self, bucket_end: Timestamp, bucket: &mut Vec<UeMobiFlow>) -> bool;

    /// Enforces one decoded Control Action before the next bucket of
    /// traffic runs. Open-loop feeds drop it.
    fn enforce(&mut self, _at: Timestamp, _action: &ControlAction) {}

    /// Called at the end of every bucket with everything enforced so far.
    fn end_bucket(&mut self, _at: Timestamp, _enforced: &[(Timestamp, ControlAction)]) {}
}

/// Open-loop replay of pre-extracted records (what is left of them):
/// Control Requests still travel RIC → agent and are acked, but nothing
/// enforces them.
pub struct Replay<'a>(pub &'a [UeMobiFlow]);

impl RanFeed for Replay<'_> {
    fn fill(&mut self, bucket_end: Timestamp, bucket: &mut Vec<UeMobiFlow>) -> bool {
        let due = self.0.iter().take_while(|r| r.timestamp < bucket_end).count();
        let (now, later) = self.0.split_at(due);
        bucket.extend_from_slice(now);
        self.0 = later;
        !later.is_empty()
    }
}

/// A live [`RanSimulator`] stepped one report period at a time: every
/// Control Action is applied to the simulated gNB mid-run, so mitigation
/// changes the traffic the rest of the run produces.
pub struct LiveSim<H> {
    /// The simulator ([`RanSimulator::finish`] it for the RAN-side report).
    pub sim: RanSimulator,
    /// Everything extracted so far, labels included — equal to a one-shot
    /// extraction over the finished run, without re-walking the event log
    /// every bucket.
    pub seen: TelemetryStream,
    on_bucket: H,
}

impl<H: FnMut(Timestamp, &[(Timestamp, ControlAction)])> LiveSim<H> {
    /// Drives `sim` to its horizon, calling `on_bucket` at the end of every
    /// report bucket with the bucket's closing time and the actions
    /// enforced so far (the SMO-side hook).
    pub fn new(sim: RanSimulator, on_bucket: H) -> Self {
        LiveSim { sim, seen: TelemetryStream::default(), on_bucket }
    }
}

impl<H: FnMut(Timestamp, &[(Timestamp, ControlAction)])> RanFeed for LiveSim<H> {
    fn attach_obs(&mut self, obs: &Obs) {
        self.sim.attach_obs(obs);
    }

    fn fill(&mut self, bucket_end: Timestamp, bucket: &mut Vec<UeMobiFlow>) -> bool {
        self.sim.run_until(bucket_end);
        // Events only append and extraction is per event, so the unseen
        // suffix extracts to exactly the records a full pass would add.
        let cursor = self.seen.records.len();
        let chunk = extract_from_events_at(&self.sim.events()[cursor..], cursor as u64);
        bucket.extend_from_slice(&chunk.records);
        self.seen.records.extend(chunk.records);
        self.seen.labels.extend(chunk.labels);
        bucket_end <= Timestamp::ZERO + self.sim.config().horizon
    }

    fn enforce(&mut self, at: Timestamp, action: &ControlAction) {
        self.sim.apply_control(at, action);
    }

    fn end_bucket(&mut self, at: Timestamp, enforced: &[(Timestamp, ControlAction)]) {
        (self.on_bucket)(at, enforced);
    }
}

/// A streaming multi-cell scenario: the engine generates (and retires) UEs
/// lazily, and every Control Action is routed back to the cell(s) it
/// concerns. Exhausted when the engine drains or `max_virtual` elapses.
pub struct Streaming<'a> {
    engine: &'a mut StreamingScenario,
    hard_stop: Timestamp,
    cursor: u64,
}

impl<'a> Streaming<'a> {
    /// Streams `engine` for at most `max_virtual` of virtual time.
    pub fn new(engine: &'a mut StreamingScenario, max_virtual: Duration) -> Self {
        Streaming { engine, hard_stop: Timestamp::ZERO + max_virtual, cursor: 0 }
    }
}

impl RanFeed for Streaming<'_> {
    fn attach_obs(&mut self, obs: &Obs) {
        // Streaming cells keep their metrics local, but enforcement spans
        // must land in the deployment's incident traces.
        self.engine.attach_recorder(&obs.recorder);
    }

    fn fill(&mut self, bucket_end: Timestamp, bucket: &mut Vec<UeMobiFlow>) -> bool {
        if bucket_end > self.hard_stop {
            return false;
        }
        let events = self.engine.step(bucket_end);
        let chunk = extract_from_events_at(&events, self.cursor);
        self.cursor += chunk.records.len() as u64;
        bucket.extend(chunk.records);
        !self.engine.done()
    }

    fn enforce(&mut self, at: Timestamp, action: &ControlAction) {
        self.engine.apply_control(at, action);
    }
}

impl ScaleDeployment {
    /// Deploys `agents` connections with a ring topology (each cell's
    /// neighbours are the adjacent cells, wrapping). The trio runs under
    /// scoped identities on a sealed router.
    pub fn new(pipeline: &Pipeline, agents: usize) -> Self {
        Self::deploy(pipeline, agents, Vec::new())
    }

    /// A deployment hosting `extra` xApps alongside the standard
    /// trio, each under its own identity with the given grants. This is how
    /// the rogue-xApp scenario plants its attacker: registered like any
    /// tenant, holding only what it was granted, before the router seals.
    pub fn with_extra_xapps(
        pipeline: &Pipeline,
        agents: usize,
        extra: Vec<(Box<dyn XApp>, SubscriptionSpec, Grants)>,
    ) -> Self {
        Self::deploy(pipeline, agents, extra)
    }

    fn deploy(
        pipeline: &Pipeline,
        agents: usize,
        extra: Vec<(Box<dyn XApp>, SubscriptionSpec, Grants)>,
    ) -> Self {
        assert!(agents > 0, "at least one agent");
        let config = pipeline.config();
        // Fresh per deployment, so each run's snapshot stands alone.
        let obs = Obs::new();
        let mut platform = RicPlatform::with_obs(obs.clone());
        let cell = |i: usize| CellId((i % agents) as u32 + 1);
        let mut ric_agents = Vec::with_capacity(agents);
        for i in 0..agents {
            let (agent_end, ric_end) = in_proc_pair();
            let mut agent = RicAgent::new(
                RicAgentConfig { gnb_id: GnbId(i as u32 + 1), cell: cell(i) },
                agent_end,
            )
            .expect("agent starts");
            agent.attach_obs(&obs);
            platform.add_agent(Box::new(ric_end));
            ric_agents.push(agent);
            if agents > 1 {
                let mut neighbours = vec![cell(i + 1), cell(i + agents - 1)];
                neighbours.dedup(); // two agents: both sides are the same cell
                platform.set_neighbours(cell(i), neighbours);
            }
        }

        let watch_config = MobiWatchConfig {
            detector: config.detector,
            precision: config.precision,
            ..MobiWatchConfig::default()
        };
        let (mut watch, watch_state) =
            MobiWatch::keyed(pipeline.models().clone(), watch_config, pipeline.per_ue());
        watch.attach_obs(&obs);
        let (mut analyzer, analyzer_state) = LlmAnalyzer::new(
            Box::new(SimulatedExpert::new(config.personality)),
            ANOMALIES_TOPIC,
        );
        analyzer.attach_obs(&obs);
        let (mitigator, mitigator_state) =
            Mitigator::with_obs(PolicyEngine::default(), obs.clone());
        let watch_spec = SubscriptionSpec::telemetry(config.report_period_ms);
        let analyzer_spec = SubscriptionSpec::topics_only(&[ANOMALIES_TOPIC]);
        // The mitigator also subscribes to telemetry: the report windows are
        // its virtual clock for retry pacing and TTL expiry.
        let mitigator_spec = SubscriptionSpec::telemetry(config.report_period_ms)
            .with_topic(FINDINGS_TOPIC)
            .with_topic(CONTROL_ACKS_TOPIC)
            .with_topic(A1_POLICY_TOPIC);
        // Deny-by-default: each xApp runs under a registered identity
        // holding exactly the capabilities its role needs, and the router
        // is sealed once the deployment is wired (no identity can be
        // minted mid-run).
        platform
            .register_xapp_scoped(
                Box::new(watch),
                watch_spec,
                Grants::none().publish(ANOMALIES_TOPIC),
            )
            .expect("register mobiwatch");
        platform
            .register_xapp_scoped(
                Box::new(analyzer),
                analyzer_spec,
                Grants::none().subscribe(ANOMALIES_TOPIC).publish(FINDINGS_TOPIC),
            )
            .expect("register analyzer");
        // The control grants enumerate the five playbook kinds rather than
        // the wildcard, so a compromised playbook cannot smuggle a new kind.
        platform
            .register_xapp_scoped(
                Box::new(mitigator),
                mitigator_spec,
                Grants::none()
                    .subscribe(FINDINGS_TOPIC)
                    .subscribe(CONTROL_ACKS_TOPIC)
                    .subscribe(A1_POLICY_TOPIC)
                    .publish(A1_POLICY_STATUS_TOPIC)
                    .control("release-ue")
                    .control("blacklist-rnti")
                    .control("force-reauth")
                    .control("quarantine-cell")
                    .control("rate-limit-cause"),
            )
            .expect("register mitigator");
        for (app, spec, grants) in extra {
            platform.register_xapp_scoped(app, spec, grants).expect("register extra xapp");
        }
        let smo_scope = platform
            .register_identity(
                XAppIdentity::named("smo"),
                Grants::none().publish(A1_POLICY_TOPIC).subscribe(A1_POLICY_STATUS_TOPIC).a1_all(),
            )
            .expect("register smo");
        platform.seal();

        let period = Duration::from_millis(u64::from(config.report_period_ms));
        let control_undecodable = obs
            .counter("xsec_ran_dropped_total", &[("site", "control"), ("reason", "undecodable")]);
        let mut d = ScaleDeployment {
            obs,
            agents: ric_agents,
            platform,
            watch_state,
            analyzer_state,
            mitigator_state,
            period,
            bucket: Vec::new(),
            records: 0,
            smo_scope,
            control_undecodable,
        };
        // E2 setup + subscription handshake, all agents in lockstep.
        for _ in 0..3 {
            d.platform.pump().expect("pump");
            for agent in &mut d.agents {
                agent.poll(Timestamp::ZERO).expect("agent poll");
            }
        }
        assert!(d.agents.iter().all(|a| a.is_setup()), "handshake incomplete");
        d
    }

    /// The shared observability handle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The platform (for reactor counters: acks, drops, broadcast copies).
    pub fn platform(&self) -> &RicPlatform {
        &self.platform
    }

    /// Report period in force.
    pub fn period(&self) -> Duration {
        self.period
    }

    /// Frames dropped RAN-side across every agent's egress queue.
    pub fn agent_egress_dropped(&self) -> u64 {
        self.agents.iter().map(|a| a.egress_dropped()).sum()
    }

    /// An A1 client for this deployment, bound to the SMO's registered
    /// identity: operations go out as signed envelopes the mitigator
    /// verifies.
    pub fn a1_client(&self) -> A1PolicyClient {
        A1PolicyClient::scoped(self.smo_scope.clone())
    }

    /// Buffers one record for the current report bucket.
    pub fn push_record(&mut self, record: UeMobiFlow) {
        self.bucket.push(record);
    }

    /// Flushes the bucket to the owning agents in cell-major order — the
    /// invariant that makes delivered record order (and therefore every
    /// detection and trace) independent of the agent count.
    fn flush_bucket(&mut self) {
        self.bucket.sort_by_key(|r| r.cell.0);
        self.records += self.bucket.len();
        let agents = self.agents.len();
        for record in self.bucket.drain(..) {
            // Modulo, so any cell routes somewhere.
            let owner = record.cell.0.saturating_sub(1) as usize % agents;
            self.agents[owner].push_record(record);
        }
    }

    /// Closes one report bucket at `now`: ships buffered records, drives
    /// every agent and the platform through indication → detection →
    /// control → ack, and returns the decoded Control Requests each agent
    /// received (the RAN-enforcement feed for closed loops). A payload that
    /// does not decode is counted as
    /// `xsec_ran_dropped_total{site="control",reason="undecodable"}`.
    pub fn step(&mut self, now: Timestamp) -> Vec<ControlAction> {
        self.flush_bucket();
        for agent in &mut self.agents {
            agent.poll(now).expect("agent poll");
        }
        // Two pumps walk indication → alert → finding → control ship.
        self.platform.pump().expect("pump");
        self.platform.pump().expect("pump");
        let mut actions = Vec::new();
        for agent in &mut self.agents {
            // The agent receives (and acks) any Control Requests.
            agent.poll(now).expect("agent poll");
            for payload in agent.take_control_requests() {
                match ControlAction::decode(&payload) {
                    Ok(action) => actions.push(action),
                    Err(_) => self.control_undecodable.inc(),
                }
            }
        }
        // Relay the acks back onto the mitigator's topic.
        self.platform.pump().expect("pump");
        actions
    }

    /// The one run loop: report-period buckets of virtual time, each
    /// filled from `feed`, closed by [`ScaleDeployment::step`], and its
    /// Control Actions handed back to `feed` before the next bucket runs —
    /// until the feed is exhausted and a few grace buckets have drained the
    /// in-flight detections. Returns the run's summary.
    pub fn drive(&mut self, feed: &mut impl RanFeed) -> ScaleOutcome {
        feed.attach_obs(&self.obs);
        let mut bucket_end = Timestamp::ZERO + self.period;
        let mut enforced = Vec::new();
        let mut grace = 0;
        while grace < GRACE_BUCKETS {
            if !feed.fill(bucket_end, &mut self.bucket) {
                grace += 1;
            }
            for action in self.step(bucket_end) {
                feed.enforce(bucket_end, &action);
                enforced.push((bucket_end, action));
            }
            feed.end_bucket(bucket_end, &enforced);
            bucket_end += self.period;
        }
        let watch = self.watch_state.lock();
        let analyzer = self.analyzer_state.lock();
        ScaleOutcome {
            records: self.records,
            flagged_windows: watch.scores.iter().filter(|(_, _, f)| *f).count(),
            alerts: watch.alerts.len(),
            findings: analyzer.findings.clone(),
            human_review: analyzer.human_review.len(),
            mitigation: self.mitigator_state.lock().summary(),
            metrics: self.obs.snapshot(),
            enforced,
        }
    }

    /// A canonical rendering of every completed detector window:
    /// `index:score-bits:flag` per line. Byte-identical across agent
    /// counts for the same traffic.
    pub fn detections_digest(&self) -> String {
        let state = self.watch_state.lock();
        let mut out = String::new();
        for (index, score, flagged) in &state.scores {
            out.push_str(&format!("{}:{:08x}:{}\n", index, score.to_bits(), u8::from(*flagged)));
        }
        out
    }

    /// The run's incident traces as canonical JSONL (stable across
    /// replays and agent counts).
    pub fn incidents_digest(&self) -> String {
        self.obs.recorder.incidents_jsonl()
    }
}

/// Runs `engine` to completion with nothing in the loop and returns what it
/// emitted — how tests pre-extract a training or replay stream.
#[cfg(test)]
pub(crate) fn drained(engine: &mut StreamingScenario) -> TelemetryStream {
    let mut events = Vec::new();
    let mut deadline = Timestamp::ZERO;
    while !engine.done() {
        deadline += Duration::from_millis(100);
        events.extend(engine.step(deadline));
    }
    xsec_mobiflow::extract_from_events(&events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use xsec_mobiflow::extract_from_events;
    use xsec_ric::{ControlOut, XAppContext};
    use xsec_types::TrafficClass;
    use xsec_ran::stream::StreamConfig;

    fn benign_engine(seed: u64, cells: usize, ues: u64) -> StreamingScenario {
        StreamingScenario::new(StreamConfig {
            seed,
            cells,
            total_ues: ues,
            mean_inter_arrival: Duration::from_millis(6),
            mobility_fraction: 0.0,
            max_live: 64,
            ..StreamConfig::default()
        })
    }

    #[test]
    fn detections_and_traces_are_identical_across_agent_counts() {
        // The satellite guarantee: splitting the same traffic over 1 vs N
        // agents changes nothing observable — detector windows and incident
        // traces come out byte-identical.
        let mut config = PipelineConfig::small(31, 12);
        config.scoring_shards = 2;
        let pipeline = Pipeline::train_on(&config, &drained(&mut benign_engine(91, 4, 40)));
        let eval = {
            let mut engine = benign_engine(92, 4, 36);
            xsec_attacks::MigrationSchedule::tour(
                &[2],
                Timestamp::ZERO + Duration::from_millis(150),
                Duration::from_millis(600),
                xsec_attacks::MigrateConfig {
                    connections_per_visit: 30,
                    ..xsec_attacks::MigrateConfig::default()
                },
            )
            .install(&mut engine);
            drained(&mut engine)
        };

        let mut digests = Vec::new();
        let mut confusions = Vec::new();
        for agents in [1usize, 4] {
            let mut d = ScaleDeployment::new(&pipeline, agents);
            let outcome = d.drive(&mut Replay(&eval.records));
            assert!(outcome.flagged_windows > 0, "{agents}-agent run flagged nothing");
            // Per-UE truth lines up with the windows scored at any agent
            // count: a UE never spans cells and the cell-major sort is stable.
            let confusion = pipeline.evaluate(&eval, &d);
            assert_eq!(confusion.total(), d.detections_digest().lines().count() as u64);
            confusions.push(confusion);
            digests.push((d.detections_digest(), d.incidents_digest()));
        }
        assert!(!digests[0].0.is_empty(), "no detector windows recorded");
        assert!(!digests[0].1.is_empty(), "no incident traces recorded");
        assert_eq!(digests[0].0, digests[1].0, "detections diverge across agent counts");
        assert_eq!(digests[0].1, digests[1].1, "incident traces diverge across agent counts");
        assert_eq!(confusions[0], confusions[1], "evaluation diverges across agent counts");
    }

    /// A tenant granted only `control:release-ue` that ships one 2-byte
    /// payload, under an id the mitigator never issues.
    struct GarbageControl(bool);

    impl XApp for GarbageControl {
        fn name(&self) -> &str {
            "garbage-control"
        }

        fn on_records(&mut self, ctx: &mut XAppContext<'_>, _: &[UeMobiFlow], _: Timestamp) {
            if !self.0 {
                let out = ControlOut { id: u32::MAX, payload: vec![0xde, 0xad], ..Default::default() };
                self.0 = ctx.send_control("release-ue", out);
            }
        }
    }

    #[test]
    fn an_undecodable_control_request_is_counted_not_enforced() {
        let pipeline = Pipeline::train(&PipelineConfig::small(33, 10));
        let tenant = SubscriptionSpec::telemetry(pipeline.config().report_period_ms);
        let extra: Vec<(Box<dyn XApp>, _, _)> =
            vec![(Box::new(GarbageControl(false)), tenant, Grants::none().control("release-ue"))];
        let mut d = ScaleDeployment::with_extra_xapps(&pipeline, 1, extra);
        let outcome = d.drive(&mut Replay(&pipeline.eval_stream(TrafficClass::Benign).records));
        assert_eq!(outcome.metrics.counter_total("xsec_ran_dropped_total"), 1);
        assert!(outcome.enforced.iter().all(|(_, action)| action.id != u32::MAX));
    }

    /// A tenant whose second handler call queues a control and then panics.
    struct PanicsOnSecondCall(u32);

    impl XApp for PanicsOnSecondCall {
        fn name(&self) -> &str {
            "panics-on-second-call"
        }

        fn on_records(&mut self, ctx: &mut XAppContext<'_>, _: &[UeMobiFlow], _: Timestamp) {
            self.0 += 1;
            if self.0 == 2 {
                let out = ControlOut { id: u32::MAX, payload: vec![0xde, 0xad], ..Default::default() };
                assert!(ctx.send_control("release-ue", out));
                panic!("tenant handler fault");
            }
        }
    }

    #[test]
    fn a_panicking_tenant_handler_does_not_stop_the_pump() {
        let pipeline = Pipeline::train(&PipelineConfig::small(33, 10));
        let stream = pipeline.eval_stream(TrafficClass::Benign);
        let mut clean = ScaleDeployment::new(&pipeline, 1);
        clean.drive(&mut Replay(&stream.records));

        let tenant = SubscriptionSpec::telemetry(pipeline.config().report_period_ms);
        let extra: Vec<(Box<dyn XApp>, _, _)> =
            vec![(Box::new(PanicsOnSecondCall(0)), tenant, Grants::none().control("release-ue"))];
        let mut d = ScaleDeployment::with_extra_xapps(&pipeline, 1, extra);
        // `drive` pumps with `.expect("pump")`: finishing is the pump's `Ok`.
        let outcome = d.drive(&mut Replay(&stream.records));
        let panics = [("site", "handler"), ("reason", "panic")];
        assert_eq!(d.obs().counter("xsec_ric_dropped_total", &panics).get(), 1);
        // The control queued before the panic never left the platform.
        assert_eq!(outcome.metrics.counter_total("xsec_ran_dropped_total"), 0);
        assert!(outcome.enforced.iter().all(|(_, action)| action.id != u32::MAX));
        assert_eq!(d.detections_digest(), clean.detections_digest());
    }

    #[test]
    fn each_xapp_gets_one_call_per_pump_that_carried_telemetry() {
        const AGENTS: u64 = 8;
        let pipeline = Pipeline::train(&PipelineConfig::small(33, 10));
        let stream = pipeline.eval_stream(TrafficClass::Benign);
        let mut d = ScaleDeployment::new(&pipeline, AGENTS as usize);
        let mut feed = Replay(&stream.records);
        let mut bucket_end = Timestamp::ZERO + d.period();
        // Each step drains every agent's reports in its first pump only.
        let mut telemetry_pumps = 0;
        while feed.fill(bucket_end, &mut d.bucket) {
            d.step(bucket_end);
            telemetry_pumps += 1;
            bucket_end += d.period();
        }
        let metrics = d.obs().snapshot();
        // Two telemetry subscriptions per agent, every window reported.
        let indications = metrics.counter_total("xsec_ric_indications_total");
        assert_eq!(indications, telemetry_pumps * AGENTS * 2);
        assert!(metrics.counter_total("xsec_ric_records_delivered_total") > 0);
        // MobiWatch listens on no topic: its every handler call is one.
        let calls = metrics
            .histograms("xsec_ric_handler_latency_us")
            .into_iter()
            .find(|(series, _)| series.labels[0].1 == "mobiwatch")
            .map(|(_, h)| h.count);
        assert_eq!(calls, Some(telemetry_pumps));
    }

    #[test]
    fn live_sim_feed_extracts_incrementally_what_one_pass_would() {
        let mut scenario = xsec_ran::ScenarioConfig { benign_sessions: 10, ..Default::default() };
        scenario.sim.horizon = Duration::from_secs(3);
        let sim = xsec_attacks::attack_simulator(xsec_types::AttackKind::NullCipher, &scenario);
        let mut feed = LiveSim::new(sim, |_, _| {});
        let period = Duration::from_millis(100);
        let mut bucket_end = Timestamp::ZERO + period;
        let mut pushed = Vec::new();
        while feed.fill(bucket_end, &mut pushed) {
            bucket_end += period;
        }
        let one_shot = extract_from_events(feed.sim.events());
        assert!(one_shot.len() > 20, "run too short to mean anything");
        assert!(one_shot.attack_count() > 0, "labels must include attack traffic");
        assert_eq!(feed.seen.records, one_shot.records);
        assert_eq!(feed.seen.labels, one_shot.labels);
        assert_eq!(pushed, one_shot.records, "buckets must concatenate to the stream");
    }

    #[test]
    fn every_scale_agent_is_subscribed_and_routable() {
        let config = PipelineConfig::small(32, 10);
        let pipeline = Pipeline::train(&config);
        let d = ScaleDeployment::new(&pipeline, 6);
        assert_eq!(d.agents.len(), 6);
        assert_eq!(d.platform().agent_count(), 6);
        // MobiWatch + mitigator both subscribe on every agent.
        // (Subscription counts live agent-side.)
        assert_eq!(d.agents.iter().map(|a| a.subscription_count()).sum::<usize>(), 12);
        assert_eq!(d.platform().egress_dropped(), 0);
        assert_eq!(d.agent_egress_dropped(), 0);
    }
}
