//! The deployment under test, wired from public constructors only.
//!
//! This is `ScaleDeployment::deploy` rebuilt outside the crate so the driver
//! can hold the agents and the platform itself and time each call into them:
//! one `RicPlatform`, one `RicAgent` per cell (agent `i` serves
//! `CellId(i + 1)`), a ring topology of radius 1, and the standard secured
//! xApp trio under the same grant table. `check::wiring_matches_product`
//! proves the two wirings produce byte-identical digests.

use parking_lot::Mutex;
use sixg_xsec::analyzer::AnalyzerState;
use sixg_xsec::mitigator::{
    MitigatorState, A1_POLICY_STATUS_TOPIC, A1_POLICY_TOPIC, CONTROL_ACKS_TOPIC, FINDINGS_TOPIC,
};
use sixg_xsec::mobiwatch::{MobiWatchConfig, MobiWatchState};
use sixg_xsec::{A1PolicyClient, LlmAnalyzer, Mitigator, MobiWatch, Pipeline, ShardedMobiWatch};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use xsec_control::PolicyEngine;
use xsec_e2::{in_proc_pair, E2Transport, InProcTransport, RicAgent, RicAgentConfig, TcpTransport};
use xsec_llm::SimulatedExpert;
use xsec_mobiflow::UeMobiFlow;
use xsec_obs::Obs;
use xsec_ric::{Grants, RicPlatform, SubscriptionSpec, XApp, XAppContext, XAppIdentity};
use xsec_types::{AttackKind, CellId, Duration, GnbId, Timestamp};

/// Rounds the E2 setup + subscription handshake may take before the
/// deployment is declared broken (in-proc needs 3; loopback TCP a few more).
const HANDSHAKE_ROUNDS: usize = 1_000;

/// Telemetry subscriptions per agent in the standard trio (MobiWatch and the
/// mitigator, which subscribes only for the clock).
pub const TELEMETRY_SUBSCRIPTIONS: usize = 2;

/// Wall-clock time one xApp spent in its two handlers.
#[derive(Debug, Default)]
pub struct HandlerClock {
    records_ns: AtomicU64,
    message_ns: AtomicU64,
}

impl HandlerClock {
    /// Seconds spent in `on_records`.
    pub fn records_s(&self) -> f64 {
        self.records_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Seconds spent in `on_message`.
    pub fn message_s(&self) -> f64 {
        self.message_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Seconds spent in either handler.
    pub fn total_s(&self) -> f64 {
        self.records_s() + self.message_s()
    }
}

/// Decorates an xApp with a [`HandlerClock`]: same name, same behaviour,
/// every handler call timed. Only the traced run registers these.
pub struct Timed<X> {
    inner: X,
    clock: Arc<HandlerClock>,
}

impl<X: XApp> XApp for Timed<X> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_start(&mut self, ctx: &mut XAppContext<'_>) {
        self.inner.on_start(ctx);
    }

    fn on_records(
        &mut self,
        ctx: &mut XAppContext<'_>,
        records: &[UeMobiFlow],
        window_end: Timestamp,
    ) {
        let start = Instant::now();
        self.inner.on_records(ctx, records, window_end);
        self.clock.records_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn on_message(&mut self, ctx: &mut XAppContext<'_>, topic: &str, payload: &[u8]) {
        let start = Instant::now();
        self.inner.on_message(ctx, topic, payload);
        self.clock.message_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// The handler clocks of a traced deployment.
#[derive(Debug, Default, Clone)]
pub struct TrioClocks {
    /// MobiWatch (or the sharded pool standing in for it).
    pub mobiwatch: Arc<HandlerClock>,
    /// The LLM analyzer.
    pub analyzer: Arc<HandlerClock>,
    /// The mitigator.
    pub mitigator: Arc<HandlerClock>,
}

/// One wired deployment: N agents over transport `T`, the platform, and the
/// shared xApp states for post-run inspection.
pub struct Stack<T: E2Transport> {
    /// The registry and flight recorder every stage records into.
    pub obs: Obs,
    /// RAN-side agents, one per cell.
    pub agents: Vec<RicAgent<T>>,
    /// The near-RT RIC.
    pub platform: RicPlatform,
    /// Detector scores and alerts.
    pub watch: Arc<Mutex<MobiWatchState>>,
    /// Analyzer findings.
    pub analyzer: Arc<Mutex<AnalyzerState>>,
    /// Executor outcomes and the supervision queue.
    pub mitigator: Arc<Mutex<MitigatorState>>,
    /// Handler clocks (traced deployments only).
    pub clocks: Option<TrioClocks>,
}

/// `n` connected in-process transport pairs, `(agent end, RIC end)`.
pub fn inproc_links(n: usize) -> Vec<(InProcTransport, InProcTransport)> {
    (0..n).map(|_| in_proc_pair()).collect()
}

/// `n` loopback TCP connections, `(agent end, RIC end)`. The listener binds
/// an ephemeral port and is dropped once every connection is accepted.
pub fn tcp_links(n: usize) -> Vec<(TcpTransport, TcpTransport)> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("listener address").to_string();
    (0..n)
        .map(|_| {
            let agent_end = TcpTransport::connect(&addr).expect("connect loopback");
            let (stream, _) = listener.accept().expect("accept loopback");
            (agent_end, TcpTransport::new(stream).expect("wrap accepted stream"))
        })
        .collect()
}

fn boxed<X: XApp + 'static>(app: X, clock: Option<&Arc<HandlerClock>>) -> Box<dyn XApp> {
    match clock {
        Some(clock) => Box::new(Timed { inner: app, clock: clock.clone() }),
        None => Box::new(app),
    }
}

impl<T: E2Transport + 'static> Stack<T> {
    /// Deploys the trained `pipeline`'s models behind one agent per link and
    /// runs the E2 setup + subscription handshake. `traced` wraps the three
    /// xApps in [`Timed`].
    pub fn deploy(
        pipeline: &Pipeline,
        links: Vec<(T, T)>,
        quarantine_ttl: Option<Duration>,
        traced: bool,
    ) -> Self {
        let config = pipeline.config();
        let obs = Obs::new();
        let clocks = traced.then(TrioClocks::default);
        let mut platform = RicPlatform::with_obs(obs.clone());
        let cells = links.len();
        let mut agents = Vec::with_capacity(cells);
        for (i, (agent_end, ric_end)) in links.into_iter().enumerate() {
            let id = i as u32 + 1;
            let mut agent =
                RicAgent::new(RicAgentConfig { gnb_id: GnbId(id), cell: CellId(id) }, agent_end)
                    .expect("agent starts");
            agent.attach_obs(&obs);
            platform.add_agent(Box::new(ric_end));
            agents.push(agent);
        }
        if cells > 1 {
            for i in 0..cells {
                let mut neighbours = vec![
                    CellId(((i + 1) % cells) as u32 + 1),
                    CellId(((i + cells - 1) % cells) as u32 + 1),
                ];
                neighbours.dedup();
                platform.set_neighbours(CellId(i as u32 + 1), neighbours);
            }
        }

        let watch_config = MobiWatchConfig {
            detector: config.detector,
            precision: config.precision,
            ..MobiWatchConfig::default()
        };
        let watch_clock = clocks.as_ref().map(|c| &c.mobiwatch);
        let (watch, watch_state) = if config.scoring_shards > 0 {
            let (mut pool, state) = ShardedMobiWatch::new(
                pipeline.models().clone(),
                watch_config,
                config.scoring_shards,
            );
            pool.attach_obs(&obs);
            (boxed(pool, watch_clock), state)
        } else {
            let (mut watch, state) = MobiWatch::new(pipeline.models().clone(), watch_config);
            watch.attach_obs(&obs);
            (boxed(watch, watch_clock), state)
        };
        let (mut analyzer, analyzer_state) =
            LlmAnalyzer::new(Box::new(SimulatedExpert::new(config.personality)), "anomalies");
        analyzer.attach_obs(&obs);
        let (mitigator, mitigator_state) =
            Mitigator::with_obs(PolicyEngine::default(), obs.clone());

        // The grant table of `ScaleDeployment::deploy`, line for line.
        platform.harden();
        platform
            .register_xapp_scoped(
                watch,
                SubscriptionSpec::telemetry(config.report_period_ms),
                Grants::none().publish("anomalies"),
            )
            .expect("register mobiwatch");
        platform
            .register_xapp_scoped(
                boxed(analyzer, clocks.as_ref().map(|c| &c.analyzer)),
                SubscriptionSpec::topics_only(&["anomalies"]),
                Grants::none().subscribe("anomalies").publish(FINDINGS_TOPIC),
            )
            .expect("register analyzer");
        platform
            .register_xapp_scoped(
                boxed(mitigator, clocks.as_ref().map(|c| &c.mitigator)),
                SubscriptionSpec::telemetry(config.report_period_ms)
                    .with_topic(FINDINGS_TOPIC)
                    .with_topic(CONTROL_ACKS_TOPIC)
                    .with_topic(A1_POLICY_TOPIC),
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
        let smo = platform
            .register_identity(
                XAppIdentity::named("smo"),
                Grants::none().publish(A1_POLICY_TOPIC).subscribe(A1_POLICY_STATUS_TOPIC).a1_all(),
            )
            .expect("register smo");
        platform.seal();

        let mut stack = Stack {
            obs,
            agents,
            platform,
            watch: watch_state,
            analyzer: analyzer_state,
            mitigator: mitigator_state,
            clocks,
        };
        stack.handshake();
        if let Some(ttl) = quarantine_ttl {
            // The SMO retunes the playbooks over A1, as an operator would:
            // BTS DoS quarantines the flooded cell (and, via the ring, braces
            // its neighbours) for `ttl`; every other attack kind escalates to
            // the supervision queue instead of acting on its own. The
            // mitigator applies the operations on the next pump.
            let a1 = A1PolicyClient::scoped(smo);
            for mut rule in xsec_control::default_rules() {
                if rule.attack == AttackKind::BtsDos {
                    rule.ttl = ttl;
                    rule.templates = vec![xsec_control::ActionTemplate::QuarantineCell];
                    a1.update(rule).expect("A1 update reaches the mitigator");
                } else {
                    a1.set_enabled(&rule.id, false).expect("A1 disable reaches the mitigator");
                }
            }
            stack.platform.pump().expect("A1 pump");
        }
        stack
    }

    /// E2 setup + subscriptions, all agents in lockstep, until every agent
    /// holds both telemetry subscriptions.
    fn handshake(&mut self) {
        for _ in 0..HANDSHAKE_ROUNDS {
            self.platform.pump().expect("handshake pump");
            for agent in &mut self.agents {
                agent.poll(Timestamp::ZERO).expect("handshake poll");
            }
            if self
                .agents
                .iter()
                .all(|a| a.is_setup() && a.subscription_count() == TELEMETRY_SUBSCRIPTIONS)
            {
                return;
            }
        }
        panic!("E2 handshake incomplete after {HANDSHAKE_ROUNDS} rounds");
    }

    /// Writes `index:score-bits:flag` per completed detector window — the
    /// format of `ScaleDeployment::detections_digest` — and returns the
    /// window count. The sink is a `String` for in-process comparison or a
    /// hasher when the listing is tens of megabytes.
    pub fn write_detections(&self, out: &mut impl std::fmt::Write) -> usize {
        let state = self.watch.lock();
        for (index, score, flagged) in &state.scores {
            let _ = writeln!(out, "{}:{:08x}:{}", index, score.to_bits(), u8::from(*flagged));
        }
        state.scores.len()
    }

    /// [`Stack::write_detections`] into a `String`.
    pub fn detections_digest(&self) -> String {
        let mut out = String::new();
        self.write_detections(&mut out);
        out
    }

    /// The run's incident traces as canonical JSONL.
    pub fn incidents_digest(&self) -> String {
        self.obs.recorder.incidents_jsonl()
    }
}
