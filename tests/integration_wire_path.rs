//! The wire path, pinned from three sides: what the ingest path allocates,
//! the exact bytes every codec emits, and what every decoder does with bytes
//! it should never have been sent.
//!
//! The ingest path allocates per indication, never per record: from
//! `RicAgent::poll` through the in-proc transport and `RicPlatform::pump` to
//! `XApp::on_records`, an indication of 1 024 records makes as many heap
//! allocations as one of 16 (the `Workspace::grow_events` idiom, extended to
//! the wire). Only their sizes differ: the frame, the payload, the record
//! `Vec`. The detector behind it allocates per *nothing* once warm: the
//! featurization, the batched scoring pass, thresholding and the score log
//! all run in buffers sized by the largest indication seen. Past detection,
//! the incident hop (alert → verdict → decision) allocates per alert, under
//! a pinned count; its two binary frames go through the same golden and
//! totality harness as the E2 codecs, and the JSON document the A1 topic
//! carries through the same hostile inputs. Off the live path, the SMO's
//! refit is held to the same idiom: a training run allocates per run, never
//! per step.

use proptest::prelude::{any, prop_assert_eq, proptest};
use std::alloc::{GlobalAlloc, Layout, System};
use sixg_xsec::mitigator::{A1SignedRequest, FindingNotice};
use sixg_xsec::mobiwatch::{AnomalyAlert, MobiWatchConfig, MobiWatchState};
use sixg_xsec::mitigator::FINDINGS_TOPIC;
use sixg_xsec::{Detector, LlmAnalyzer, Mitigator, MobiWatch, Pipeline, PipelineConfig};
use std::cell::Cell;
use xsec_control::{A1Request, ControlAction, MitigationAction, PolicyEngine};
use xsec_e2::{
    in_proc_pair, E2apPdu, InProcTransport, KpmIndication, RicAction, RicAgent, RicAgentConfig,
    RicRequestId,
};
use xsec_llm::{CrossVerdict, ModelPersonality, SimulatedExpert};
use xsec_mobiflow::{decode_ue_record, encode_ue_record, UeMobiFlow};
use xsec_obs::Obs;
use xsec_proto::{Direction, MessageKind};
use xsec_ric::{
    Grants, RicPlatform, Router, SubscriptionSpec, XApp, XAppContext, XAppIdentity,
};
use xsec_types::{
    CellId, EstablishmentCause, GnbId, Plmn, ReleaseCause, Rnti, Supi, Timestamp, Tmsi,
};

thread_local! {
    /// Allocations (fresh and grown) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Largest single request this thread made since the cell was last zeroed.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting calls per thread so tests running on
/// other threads of this binary do not disturb the count.
struct Counting;

fn count_one(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|n| n.set(n.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state
// and does not allocate (a `const`-initialised `Cell` needs no lazy init).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller's obligations are passed through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// A handler that looks at every record and allocates nothing.
struct Summing {
    name: &'static str,
    records: u64,
    msg_ids: u64,
}

impl XApp for Summing {
    fn name(&self) -> &str {
        self.name
    }

    fn on_records(
        &mut self,
        _ctx: &mut XAppContext<'_>,
        records: &[UeMobiFlow],
        _window_end: Timestamp,
    ) {
        self.records += records.len() as u64;
        self.msg_ids += records.iter().map(|r| r.msg_id).sum::<u64>();
    }
}

fn record(id: u64, at: Timestamp) -> UeMobiFlow {
    UeMobiFlow {
        msg_id: id,
        timestamp: at,
        cell: CellId(1),
        rnti: Rnti(id as u16),
        du_ue_id: id as u32,
        direction: Direction::Uplink,
        msg: MessageKind::NasRegistrationRequest,
        // Optionals present, so the records are not the cheapest case.
        tmsi: Some(Tmsi(id as u32)),
        supi: Some(Supi::new(Plmn::TEST, id)),
        cipher_alg: None,
        integrity_alg: None,
        establishment_cause: None,
        release_cause: None,
    }
}

const PERIOD_US: u64 = 100_000;
const WARM_UP_PERIODS: u64 = 4;
const MEASURED_PERIODS: u64 = 32;
/// Every deployment registers two telemetry xApps (the detector, and the
/// mitigator for its clock), so a report period is two indications.
const TELEMETRY_XAPPS: u64 = 2;

/// Allocations made between `poll` and the handlers' return over
/// `MEASURED_PERIODS` report periods of `per_indication` records each.
fn ingest_allocations(per_indication: u64) -> u64 {
    let (agent_end, ric_end) = in_proc_pair();
    let mut agent: RicAgent<InProcTransport> =
        RicAgent::new(RicAgentConfig { gnb_id: GnbId(1), cell: CellId(1) }, agent_end).unwrap();
    let mut platform = RicPlatform::new();
    platform.add_agent(Box::new(ric_end));
    for name in ["summing", "clock"] {
        platform
            .register_xapp_scoped(
                Box::new(Summing { name, records: 0, msg_ids: 0 }),
                SubscriptionSpec::telemetry(100),
                Grants::none(),
            )
            .unwrap();
    }
    platform.seal();
    for _ in 0..3 {
        platform.pump().unwrap();
        agent.poll(Timestamp::ZERO).unwrap();
    }
    assert_eq!(agent.subscription_count() as u64, TELEMETRY_XAPPS);

    let mut next_id = 0;
    let mut counted = 0;
    let mut delivered = 0;
    for period in 1..=WARM_UP_PERIODS + MEASURED_PERIODS {
        let end = Timestamp(period * PERIOD_US);
        for _ in 0..per_indication {
            agent.push_record(record(next_id, Timestamp(end.as_micros() - 1)));
            next_id += 1;
        }
        let before = allocations();
        agent.poll(end).unwrap();
        let stats = platform.pump().unwrap();
        let spent = allocations() - before;
        assert_eq!(stats.pdus, TELEMETRY_XAPPS);
        assert_eq!(stats.records_delivered, TELEMETRY_XAPPS * per_indication);
        if period > WARM_UP_PERIODS {
            counted += spent;
            delivered += stats.records_delivered;
        }
    }
    assert_eq!(delivered, MEASURED_PERIODS * TELEMETRY_XAPPS * per_indication);
    counted
}

#[test]
fn ingest_allocates_per_indication_not_per_record() {
    let small = ingest_allocations(16);
    let large = ingest_allocations(1_024);
    let indications = MEASURED_PERIODS * TELEMETRY_XAPPS;
    let per_indication = small as f64 / indications as f64;
    println!(
        "allocations over {indications} indications: {small} at 16 records, \
         {large} at 1024 records ({per_indication:.1} per indication)"
    );
    // 64 times the records, not one allocation more.
    assert_eq!(large, small, "the ingest path allocated per record");
    // And an indication costs a handful: its payload and the channel's copy
    // of the frame at the agent, and the decoded payload at the RIC, whose
    // records land in the subscriber's reused batch (192 over 64
    // indications; 256 when each indication decoded into a `Vec` of its
    // own, 804 when the platform still kept each window in a store keyed by
    // `format!`).
    assert!(per_indication <= 3.0, "{per_indication} allocations per indication");
}

/// Allocations this thread makes inside `on_records` over `MEASURED_PERIODS`
/// warm indications of `per_indication` records each. The traffic cycles
/// over a fixed UE population (the featurizer's relational maps stay put),
/// nothing is flagged (an alert allocates its context lines, per alert), and
/// the score log is reserved up front — what is left is the per-record path.
fn detector_allocations(
    xapp: &mut dyn XApp,
    state: &parking_lot::Mutex<MobiWatchState>,
    per_indication: u64,
) -> u64 {
    let scope = Router::new().register(XAppIdentity::named("mobiwatch"), Grants::none()).unwrap();
    let mut control = Vec::new();
    let mut ctx = XAppContext { scope: &scope, control_out: &mut control };
    let periods = WARM_UP_PERIODS + MEASURED_PERIODS;
    state.lock().scores.reserve((periods * per_indication) as usize);
    let mut next_id = 0u64;
    let mut counted = 0;
    for period in 1..=periods {
        let end = Timestamp(period * PERIOD_US);
        let records: Vec<UeMobiFlow> = (0..per_indication)
            .map(|_| {
                next_id += 1;
                UeMobiFlow { msg_id: next_id, ..record(next_id % 8, Timestamp(end.as_micros() - 1)) }
            })
            .collect();
        let before = allocations();
        xapp.on_records(&mut ctx, &records, end);
        if period > WARM_UP_PERIODS {
            counted += allocations() - before;
        }
    }
    assert!(state.lock().alerts.is_empty(), "the quiet stream raised an alert");
    let scored = state.lock().scores.len() as u64;
    assert!(scored >= MEASURED_PERIODS * per_indication, "only {scored} windows were scored");
    counted
}

#[test]
fn detectors_allocate_nothing_per_record_once_warm() {
    let pipeline = Pipeline::train(&PipelineConfig::small(29, 10));
    let mut models = pipeline.models().clone();
    models.ae_threshold.value = f32::MAX;
    models.lstm_threshold.value = f32::MAX;
    let config = MobiWatchConfig::default();
    for per_indication in [16, 240, 1_024] {
        let (mut watch, state) = MobiWatch::new(models.clone(), config.clone());
        let global = detector_allocations(&mut watch, &state, per_indication);
        // One shard: the deployed shape, scored on the calling thread, so
        // this thread's count sees all of it.
        let (mut pool, state) = MobiWatch::per_ue(models.clone(), config.clone(), 1);
        let sharded = detector_allocations(&mut pool, &state, per_indication);
        println!("{per_indication} records/indication: MobiWatch {global}, 1-shard pool {sharded}");
        assert_eq!(global, 0, "MobiWatch allocated at {per_indication} records per indication");
        assert_eq!(sharded, 0, "the pool allocated at {per_indication} records per indication");
    }
    let lstm = MobiWatchConfig { detector: Detector::Lstm, ..config };
    for per_indication in [64, 240] {
        let (mut watch, state) = MobiWatch::new(models.clone(), lstm.clone());
        let allocated = detector_allocations(&mut watch, &state, per_indication);
        println!("{per_indication} records/indication: LSTM MobiWatch {allocated}");
        assert_eq!(allocated, 0, "LSTM MobiWatch allocated at {per_indication} records per indication");
    }
}

/// Allocations this thread makes inside `f`.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocations();
    let out = f();
    (allocations() - before, out)
}

/// Training allocates per run (the model, the shuffle order, scratch sized
/// by the first full batch or window, the training errors), never per step:
/// twice the epochs, not one allocation more. The deployed shapes, on the
/// detector fixture's benign windows, with a short last batch (n mod 32 ≠ 0).
#[test]
fn training_steps_allocate_nothing_once_warm() {
    use xsec_dl::{Autoencoder, AutoencoderConfig, FeatureConfig, Featurizer, Lstm, LstmConfig};
    let benign = xsec_attacks::DatasetBuilder::small(29, 10).benign();
    let stream = xsec_mobiflow::extract_from_events(&benign.events);
    let dataset = Featurizer::encode_stream(&FeatureConfig { window: 4 }, &stream);
    let flat = dataset.flat_windows();
    let (windows, nexts) = dataset.lstm_pairs();
    assert!(flat.rows() > 64 && !flat.rows().is_multiple_of(32), "{} windows", flat.rows());

    let ae = |epochs| {
        let config = AutoencoderConfig {
            hidden: vec![48, 12],
            epochs,
            ..AutoencoderConfig::for_input(flat.cols())
        };
        allocations_in(|| Autoencoder::train(config, &flat)).0
    };
    let lstm = |epochs| {
        let config = LstmConfig { hidden: 24, epochs, ..LstmConfig::for_input(windows[0].cols()) };
        allocations_in(|| Lstm::train(config, &windows, &nexts)).0
    };
    let (ae_short, ae_long, lstm_short, lstm_long) = (ae(2), ae(4), lstm(1), lstm(2));
    println!(
        "allocations per training run over {} windows: autoencoder {ae_short} at 2 epochs, \
         {ae_long} at 4; LSTM {lstm_short} at 1 epoch, {lstm_long} at 2",
        flat.rows()
    );
    assert_eq!(ae_long, ae_short, "the autoencoder allocated per training step");
    assert_eq!(lstm_long, lstm_short, "the LSTM allocated per training step");
}

/// The 52 evidence lines of one flood alert (the deployed context + window):
/// ten fabricated connections stalling after the challenge, on RNTIs and
/// connection ids no earlier alert used.
fn flood_alert(nth: u64) -> AnomalyAlert {
    use MessageKind as K;
    let ladder = [
        K::RrcSetupRequest,
        K::RrcSetup,
        K::RrcSetupComplete,
        K::NasRegistrationRequest,
        K::NasAuthenticationRequest,
    ];
    let records: Vec<UeMobiFlow> = (0..52)
        .map(|i| {
            let conn = nth * 16 + i / 5;
            let msg = ladder[(i % 5) as usize];
            UeMobiFlow {
                msg_id: nth * 52 + i,
                timestamp: Timestamp(nth * 1_000_000 + i * 500),
                cell: CellId(1),
                rnti: Rnti(0x4000 + conn as u16),
                du_ue_id: conn as u32,
                direction: msg.direction(),
                msg,
                tmsi: None,
                supi: None,
                cipher_alg: None,
                integrity_alg: None,
                establishment_cause: Some(EstablishmentCause::MoSignalling),
                release_cause: None,
            }
        })
        .collect();
    AnomalyAlert {
        trace: nth + 1,
        at_record: (nth + 1) * 52,
        at_time: records[51].timestamp,
        score: 0.5,
        threshold: 0.1,
        records: records.iter().map(encode_ue_record).collect(),
    }
}

/// The line codec allocates the line and nothing else, and the incident hop
/// — one alert frame through `LlmAnalyzer::on_message`, the notice frame it
/// publishes through `Mitigator::on_message` — stays within its pinned count.
#[test]
fn incident_hop_allocations_are_pinned() {
    let sample = record(7, Timestamp(123_456));
    let (encoding, line) = allocations_in(|| encode_ue_record(&sample));
    assert_eq!(encoding, 1, "encode_ue_record: the line");
    let (decoding, back) = allocations_in(|| decode_ue_record(&line));
    assert_eq!(decoding, 0, "decode_ue_record");
    assert_eq!(back.unwrap(), sample);

    let router = Router::new();
    let analyzer_scope = router
        .register(XAppIdentity::named("llm-analyzer"), Grants::none().publish(FINDINGS_TOPIC))
        .unwrap();
    let mitigator_scope = router
        .register(
            XAppIdentity::named("mitigator"),
            Grants::none()
                .subscribe(FINDINGS_TOPIC)
                .control("rate-limit-cause")
                .control("blacklist-rnti"),
        )
        .unwrap();
    let findings = mitigator_scope.subscribe(FINDINGS_TOPIC);
    let (mut analyzer, analyzed) = LlmAnalyzer::new(
        Box::new(SimulatedExpert::new(ModelPersonality::CHATGPT_4O)),
        "anomalies",
    );
    let (mut mitigator, mitigated) = Mitigator::with_obs(PolicyEngine::default(), Obs::new());
    let mut control = Vec::new();

    const WARM_UP: u64 = 4;
    const MEASURED: u64 = 32;
    let (mut in_analyzer, mut in_mitigator) = (0, 0);
    for nth in 0..WARM_UP + MEASURED {
        let alert = flood_alert(nth).encode();
        let mut ctx = XAppContext { scope: &analyzer_scope, control_out: &mut control };
        let (analyzing, ()) = allocations_in(|| analyzer.on_message(&mut ctx, "anomalies", &alert));
        let notice = findings.try_recv().expect("the analyzer publishes a notice per alert");
        let mut ctx = XAppContext { scope: &mitigator_scope, control_out: &mut control };
        let (mitigating, ()) =
            allocations_in(|| mitigator.on_message(&mut ctx, FINDINGS_TOPIC, &notice));
        if nth >= WARM_UP {
            in_analyzer += analyzing;
            in_mitigator += mitigating;
        }
    }
    let findings = &analyzed.lock().findings;
    assert_eq!(findings.len() as u64, WARM_UP + MEASURED);
    assert!(findings.iter().all(|f| f.verdict == CrossVerdict::ConfirmedAnomalous));
    assert!(mitigated.lock().summary().issued as u64 >= WARM_UP + MEASURED, "the mitigator acted");
    let per_alert = (in_analyzer + in_mitigator).div_ceil(MEASURED);
    println!(
        "allocations per 52-line alert: analyzer {}, mitigator {}, hop {per_alert}",
        in_analyzer.div_ceil(MEASURED),
        in_mitigator.div_ceil(MEASURED)
    );
    assert!(per_alert <= HOP_ALLOCATIONS_PER_ALERT, "the hop allocated {per_alert} times per alert");
}

/// Heap allocations for one 52-line alert across the analyzer's and the
/// mitigator's `on_message`, as measured: analyzer 123, mitigator 26. It was
/// 426 while both payloads were JSON and each side decoded the lines
/// (analyzer 268, mitigator 159), and 1 777 before that. 53 of what is
/// left are the decoded alert's 52 line strings and their vector.
const HOP_ALLOCATIONS_PER_ALERT: u64 = 148;

// --- golden bytes, decoder totality, codec allocations ----------------------

/// One codec under test, reduced to bytes: its sample set encoded, and
/// `recode` = decode then encode again.
struct Codec {
    name: &'static str,
    golden: &'static [&'static str],
    encoded: Vec<Vec<u8>>,
    recode: fn(&[u8]) -> xsec_types::Result<Vec<u8>>,
}

fn action_samples() -> Vec<ControlAction> {
    use xsec_types::Duration;
    vec![
        ControlAction {
            id: 1,
            ttl: Duration::from_secs(10),
            action: MitigationAction::ReleaseUe { conn: 7, cause: ReleaseCause::NetworkAbort },
            trace: None,
        },
        ControlAction {
            id: 2,
            ttl: Duration::from_secs(30),
            action: MitigationAction::BlacklistRnti { rnti: Rnti(0x4612) },
            trace: None,
        },
        ControlAction {
            id: 3,
            ttl: Duration::from_secs(5),
            action: MitigationAction::ForceReauth { conn: 12 },
            trace: Some(0x1122_3344_5566_7788),
        },
        ControlAction {
            id: 4,
            ttl: Duration::from_millis(2500),
            action: MitigationAction::QuarantineCell { cell: CellId(1) },
            trace: None,
        },
        ControlAction {
            id: 5,
            ttl: Duration::from_secs(60),
            action: MitigationAction::RateLimitCause {
                cause: EstablishmentCause::MoSignalling,
                max_setups: 3,
                window: Duration::from_millis(500),
            },
            trace: Some(7),
        },
    ]
}

fn e2ap_samples() -> Vec<E2apPdu> {
    use xsec_types::Duration;
    let rid = RicRequestId { requestor: 10, instance: 1 };
    let action = ControlAction {
        id: 77,
        ttl: Duration::from_secs(10),
        action: MitigationAction::RateLimitCause {
            cause: EstablishmentCause::MoSignalling,
            max_setups: 2,
            window: Duration::from_millis(400),
        },
        trace: Some(0xDEAD_BEEF),
    };
    vec![
        E2apPdu::SetupRequest {
            gnb_id: GnbId(7),
            ran_functions: vec![1, 142],
            cells: vec![CellId(1), CellId(2)],
        },
        E2apPdu::SetupResponse { accepted: vec![142] },
        E2apPdu::SubscriptionRequest {
            request_id: rid,
            ran_function: 142,
            report_period_ms: 100,
            actions: vec![RicAction::Report, RicAction::Policy],
        },
        E2apPdu::SubscriptionResponse { request_id: rid, accepted: true },
        E2apPdu::SubscriptionDeleteRequest { request_id: rid },
        E2apPdu::Indication {
            request_id: rid,
            ran_function: 142,
            sequence: 9,
            payload: vec![1, 2, 3],
        },
        E2apPdu::ControlRequest {
            ran_function: 142,
            control_id: 0x0102_0304,
            payload: action.encode(),
        },
        E2apPdu::ControlRequest { ran_function: 142, control_id: 0, payload: vec![] },
        E2apPdu::ControlAck { ran_function: 142, control_id: u32::MAX, success: false },
    ]
}

/// `e2sm`'s `full_payload`: records with and without optionals.
fn kpm_full_payload() -> Vec<u8> {
    let plain = |id: u64| UeMobiFlow {
        msg_id: id,
        timestamp: Timestamp(id * 100),
        cell: CellId(1),
        rnti: Rnti(0x4601),
        du_ue_id: 1,
        direction: Direction::Uplink,
        msg: MessageKind::RrcSetupRequest,
        tmsi: None,
        supi: None,
        cipher_alg: None,
        integrity_alg: None,
        establishment_cause: None,
        release_cause: None,
    };
    let mut records: Vec<_> = (0..3).map(plain).collect();
    records[1].tmsi = Some(Tmsi(0xAABB_CCDD));
    records[1].supi = Some(Supi::new(Plmn::TEST, 99));
    records[2].msg = MessageKind::RrcRelease;
    records[2].release_cause = Some(ReleaseCause::Congestion);
    KpmIndication::from_records(CellId(1), Timestamp(0), Timestamp(1), &records).encode()
}

fn codecs() -> Vec<Codec> {
    vec![
        Codec {
            name: "E2AP",
            golden: E2AP_GOLDEN,
            encoded: e2ap_samples().iter().map(E2apPdu::encode).collect(),
            recode: |b| E2apPdu::decode(b).map(|p| p.encode()),
        },
        Codec {
            name: "KPM",
            golden: KPM_GOLDEN,
            encoded: vec![kpm_full_payload()],
            recode: |b| KpmIndication::decode(b).map(|p| p.encode()),
        },
        Codec {
            name: "ControlAction",
            golden: ACTION_GOLDEN,
            encoded: action_samples().iter().map(ControlAction::encode).collect(),
            recode: |b| ControlAction::decode(b).map(|a| a.encode()),
        },
        Codec {
            name: "AnomalyAlert",
            golden: ALERT_GOLDEN,
            encoded: alert_samples().iter().map(AnomalyAlert::encode).collect(),
            recode: |b| AnomalyAlert::decode(b).map(|a| a.encode()),
        },
        Codec {
            name: "FindingNotice",
            golden: NOTICE_GOLDEN,
            encoded: notice_samples().iter().map(FindingNotice::encode).collect(),
            recode: |b| FindingNotice::decode(b).map(|n| n.encode()),
        },
    ]
}

/// Three records with their optionals present, as the incident hop carries
/// them: lines in the alert, 48-byte records in the notice.
fn evidence() -> Vec<UeMobiFlow> {
    (1..=3).map(|id| record(id, Timestamp(id * 1_000))).collect()
}

fn alert_samples() -> Vec<AnomalyAlert> {
    let alert = AnomalyAlert {
        trace: 7,
        at_record: 1_234,
        at_time: Timestamp(5_000_000),
        score: 0.25,
        threshold: 0.125,
        records: evidence().iter().map(encode_ue_record).collect(),
    };
    let empty = AnomalyAlert { trace: 0, score: f32::NAN, records: Vec::new(), ..alert.clone() };
    vec![alert, empty]
}

fn notice_samples() -> Vec<FindingNotice> {
    let notice = FindingNotice {
        trace: 7,
        at_record: 1_234,
        at_time: Timestamp(5_000_000),
        score: 0.25,
        threshold: 0.125,
        anomalous: true,
        confirmed: true,
        needs_human: false,
        attacks: vec!["Signaling storm / RRC flooding DoS (BTS DoS) — “é€😀”".to_string()],
        records: evidence(),
    };
    let benign = FindingNotice {
        anomalous: false,
        confirmed: false,
        needs_human: true,
        attacks: Vec::new(),
        records: Vec::new(),
        ..notice.clone()
    };
    vec![notice, benign]
}

const E2AP_GOLDEN: &[&str] = &[
    "00000000070002000000010000008e00020000000100000002",
    "0100010000008e",
    "02000a00010000008e00000064020002",
    "03000a000101",
    "04000a0001",
    "05000a00010000008e000000000000000900000003010203",
    concat!(
        "060000008e010203040000002b0100040000004d020008000000000098968014000b030002000000",
        "0000061a8003000800000000deadbeef",
    ),
    "060000008e0000000000000000",
    "070000008effffffff00",
];
// Re-pinned when the KPM layout lost its unused (key, value) entry list.
const KPM_GOLDEN: &[&str] = &[
    concat!(
        "00000001000000000000000000000000000000010000000300000000000000000000000000000000",
        "000000010000000146011400ffffffff000000000000000000000000000000000000000000000001",
        "0000000000000064000000010000000146011700ffffffffaabbccdd000100010000000000000063",
        "000000000000000200000000000000c8000000010000000146011408ffffff030000000000000000",
        "0000000000000000",
    ),
];
const ACTION_GOLDEN: &[&str] = &[
    "0100040000000102000800000000009896801000050000000702",
    "010004000000020200080000000001c9c3801100024612",
    "0100040000000302000800000000004c4b401200040000000c0300081122334455667788",
    "0100040000000402000800000000002625a013000400000001",
    "01000400000005020008000000000393870014000b030003000000000007a1200300080000000000000007",
];

proptest! {
    /// Both incident-hop frames carry every field — float bits, flags, any
    /// UTF-8 text, every record — and decode to exactly what was encoded.
    #[test]
    fn incident_hop_frames_round_trip(
        head in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u32>(), any::<u32>()),
        flags in (any::<bool>(), any::<bool>(), any::<bool>()),
        lines in proptest::collection::vec("[ -~é€😀]{0,90}", 0..60),
        ids in proptest::collection::vec(any::<u64>(), 0..60),
    ) {
        let (trace, at_record, at_us, score, threshold) = head;
        let (score, threshold) = (f32::from_bits(score), f32::from_bits(threshold));
        let alert = AnomalyAlert {
            trace,
            at_record,
            at_time: Timestamp(at_us),
            score,
            threshold,
            records: lines.clone(),
        };
        let frame = alert.encode();
        let back = AnomalyAlert::decode(&frame).unwrap();
        prop_assert_eq!((back.trace, back.at_record), (trace, at_record));
        prop_assert_eq!(back.at_time, Timestamp(at_us));
        prop_assert_eq!(back.score.to_bits(), score.to_bits());
        prop_assert_eq!(back.threshold.to_bits(), threshold.to_bits());
        prop_assert_eq!(&back.records, &lines);
        prop_assert_eq!(back.encode(), frame);

        let records: Vec<UeMobiFlow> =
            ids.iter().map(|&id| record(id, Timestamp(id / 3))).collect();
        let notice = FindingNotice {
            trace,
            at_record,
            at_time: Timestamp(at_us),
            score,
            threshold,
            anomalous: flags.0,
            confirmed: flags.1,
            needs_human: flags.2,
            attacks: lines,
            records,
        };
        let frame = notice.encode();
        let back = FindingNotice::decode(&frame).unwrap();
        prop_assert_eq!((back.anomalous, back.confirmed, back.needs_human), flags);
        prop_assert_eq!(&back.attacks, &notice.attacks);
        prop_assert_eq!(&back.records, &notice.records);
        prop_assert_eq!(back.score.to_bits(), score.to_bits());
        prop_assert_eq!(back.encode(), frame);
    }
}

const ALERT_GOLDEN: &[&str] = &[
    concat!(
        "01000000000000000700000000000004d200000000004c4b403e8000003e0000000003003f76323b",
        "55453b313b313030303b313b303030313b313b554c3b526567697374726174696f6e526571756573",
        "743b313b3030312e30312e313b2d3b2d3b2d3b2d003f76323b55453b323b323030303b313b303030",
        "323b323b554c3b526567697374726174696f6e526571756573743b323b3030312e30312e323b2d3b",
        "2d3b2d3b2d003f76323b55453b333b333030303b313b303030333b333b554c3b5265676973747261",
        "74696f6e526571756573743b333b3030312e30312e333b2d3b2d3b2d3b2d",
    ),
    "01000000000000000000000000000004d200000000004c4b407fc000003e0000000000",
];
const NOTICE_GOLDEN: &[&str] = &[
    concat!(
        "02000000000000000700000000000004d200000000004c4b403e8000003e00000001010000000001",
        "000000405369676e616c696e672073746f726d202f2052524320666c6f6f64696e6720446f532028",
        "42545320446f532920e2809420e2809cc3a9e282acf09f9880e2809d000300000000000000010000",
        "0000000003e8000000010000000100011720ffffffff000000010001000100000000000000010000",
        "00000000000200000000000007d0000000010000000200021720ffffffff00000002000100010000",
        "00000000000200000000000000030000000000000bb8000000010000000300031720ffffffff0000",
        "0003000100010000000000000003",
    ),
    "02000000000000000700000000000004d200000000004c4b403e8000003e000000000001000000000000",
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Every encoder's bytes, pinned at the commit before the codecs moved onto
/// the shared reader (the two incident-hop frames when they replaced the
/// bus's JSON): a codec refactor that changes one bit on the wire fails
/// here.
#[test]
fn sample_sets_encode_to_the_pinned_bytes() {
    for codec in codecs() {
        let now: Vec<String> = codec.encoded.iter().map(|b| hex(b)).collect();
        assert_eq!(now, codec.golden, "{} bytes changed", codec.name);
    }
}

/// The decoder's whole contract on one input: it returns (no panic), never
/// asks the allocator for more than a small multiple of the input (a
/// hostile length field is checked against the bytes present before
/// anything is sized by it), and an accepted input is the canonical
/// encoding of the value it decoded to.
fn assert_total(codec: &Codec, input: &[u8]) {
    LARGEST.with(|n| n.set(0));
    let recoded = (codec.recode)(input);
    let largest = LARGEST.with(Cell::get);
    // A decoded record is about twice its wire size; error text is short.
    assert!(
        largest <= 4 * input.len() + 512,
        "{}: a {largest}-byte allocation decoding {} bytes ({})",
        codec.name,
        input.len(),
        hex(input)
    );
    if let Ok(bytes) = recoded {
        assert_eq!(hex(&bytes), hex(input), "{}: accepted a non-canonical input", codec.name);
    }
}

/// What a peer that holds one valid message can do to it: every truncation,
/// every single-bit flip, a saturated field (for text, invalid UTF-8) at
/// every offset, and a valid head with an arbitrary tail.
fn hostile_variants(sample: &[u8], next: &mut impl FnMut() -> u64, mut check: impl FnMut(&[u8])) {
    for cut in 0..sample.len() {
        check(&sample[..cut]);
    }
    for bit in 0..sample.len() * 8 {
        let mut flipped = sample.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        check(&flipped);
    }
    // Whatever field sits at `at` — a count, a length — claims its maximum.
    for width in [1, 2, 4] {
        for at in 0..sample.len().saturating_sub(width - 1) {
            let mut hostile = sample.to_vec();
            hostile[at..at + width].fill(0xFF);
            check(&hostile);
        }
    }
    // A valid head with an arbitrary tail reaches the inner decoders.
    for _ in 0..64 {
        let keep = next() as usize % (sample.len() + 1);
        let mut spliced = sample[..keep].to_vec();
        spliced.extend((0..next() % 24).map(|_| next() as u8));
        check(&spliced);
    }
}

/// One JSON document type the xApp bus carries (the A1 topic's), reduced to
/// bytes: a valid sample and the decode its subscriber runs on whatever
/// arrives.
struct BusDecoder {
    name: &'static str,
    sample: Vec<u8>,
    decodes: fn(&[u8]) -> bool,
}

/// Decodes as `on_message` does; a value that decodes must also encode.
fn decodes<T: serde::Serialize + serde::Deserialize>(bytes: &[u8]) -> bool {
    serde_json::from_slice::<T>(bytes)
        .map(|value| serde_json::to_vec(&value).expect("a decoded value encodes"))
        .is_ok()
}

fn bus_decoders() -> Vec<BusDecoder> {
    let rule = xsec_control::default_rules().remove(0);
    let request = A1SignedRequest {
        xapp: "smo".to_string(),
        token: u64::MAX,
        request: A1Request::UpdatePolicy { rule },
    };
    vec![
        BusDecoder {
            name: "A1SignedRequest",
            sample: serde_json::to_vec(&request).unwrap(),
            decodes: decodes::<A1SignedRequest>,
        },
    ]
}

/// One harness for every decoder on the wire path and on the xApp bus:
/// arbitrary bytes, every truncation, every single-bit flip and a saturated
/// field at every offset give an error or a value, never a panic — for the
/// binary codecs a canonical value and no large allocation, for the JSON
/// document also under lone surrogates and nesting deep enough to exhaust
/// a recursive parser's stack.
#[test]
fn every_decoder_is_total() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for codec in codecs() {
        for sample in &codec.encoded {
            assert_eq!(
                (codec.recode)(sample).as_deref().map(hex),
                Ok(hex(sample)),
                "{}: a sample does not survive decode and encode",
                codec.name
            );
            hostile_variants(sample, &mut next, |input| assert_total(&codec, input));
        }
        for _ in 0..4096 {
            let arbitrary: Vec<u8> = (0..next() % 96).map(|_| next() as u8).collect();
            assert_total(&codec, &arbitrary);
        }
    }
    const DEEP: usize = 200_000;
    for decoder in bus_decoders() {
        let sample = &decoder.sample;
        assert!((decoder.decodes)(sample), "{}: the sample does not decode", decoder.name);
        hostile_variants(sample, &mut next, |input| {
            (decoder.decodes)(input);
        });
        for at in 0..sample.len() {
            match sample[at] {
                // A string that opens (or a document that goes on) with half
                // a surrogate pair, escaped and raw.
                b'"' => {
                    for half in [&b"\\ud800"[..], b"\\udc00", b"\\ud83d\\u0041", b"\xED\xA0\x80"] {
                        let mut lone = sample[..=at].to_vec();
                        lone.extend_from_slice(half);
                        lone.extend_from_slice(&sample[at + 1..]);
                        assert!(!(decoder.decodes)(&lone), "{}: lone surrogate", decoder.name);
                    }
                }
                // Every value position taken by nesting a recursive parser
                // would follow to the bottom of its stack.
                b':' => {
                    for open in ["[", "{\"a\":", "[{\"a\":"] {
                        let mut nested = sample[..=at].to_vec();
                        nested.extend(open.bytes().cycle().take(DEEP * open.len()));
                        assert!(!(decoder.decodes)(&nested), "{}: hostile nesting", decoder.name);
                    }
                }
                _ => {}
            }
        }
        for _ in 0..4096 {
            let arbitrary: Vec<u8> = (0..next() % 96).map(|_| next() as u8).collect();
            (decoder.decodes)(&arbitrary);
        }
    }
}

/// The control path's per-message codec allocates for what it returns and
/// nothing else: no staging buffer on either side.
#[test]
fn per_message_codecs_allocate_only_what_they_return() {
    for action in action_samples() {
        let (encoding, bytes) = allocations_in(|| action.encode());
        assert_eq!(encoding, 1, "ControlAction::encode of {action:?}: the payload");
        let (decoding, back) = allocations_in(|| ControlAction::decode(&bytes));
        assert_eq!(decoding, 0, "ControlAction::decode of {action:?}");
        assert_eq!(back.unwrap(), action);
    }
}
