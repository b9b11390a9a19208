//! The ingest path allocates per indication, never per record: from
//! `RicAgent::poll` through the in-proc transport and `RicPlatform::pump` to
//! `XApp::on_records`, an indication of 1 024 records makes as many heap
//! allocations as one of 16 (the `Workspace::grow_events` idiom, extended to
//! the wire). Only their sizes differ: the frame, the payload, the record
//! `Vec`. The detection xApps behind it allocate per *nothing* once warm:
//! featurization, the batched scoring pass, thresholding and the score log
//! all run in buffers sized by the largest indication seen.

use std::alloc::{GlobalAlloc, Layout, System};
use sixg_xsec::mobiwatch::{MobiWatchConfig, MobiWatchState};
use sixg_xsec::{Detector, MobiWatch, Pipeline, PipelineConfig, ShardedMobiWatch};
use std::cell::Cell;
use xsec_e2::{in_proc_pair, InProcTransport, RicAgent, RicAgentConfig};
use xsec_mobiflow::UeMobiFlow;
use xsec_proto::{Direction, MessageKind};
use xsec_ric::{
    Grants, RicPlatform, Router, SharedDataLayer, SubscriptionSpec, XApp, XAppContext, XAppIdentity,
};
use xsec_types::{CellId, GnbId, Plmn, Rnti, Supi, Timestamp, Tmsi};

thread_local! {
    /// Allocations (fresh and grown) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting calls per thread so tests running on
/// other threads of this binary do not disturb the count.
struct Counting;

fn count_one() {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state
// and does not allocate (a `const`-initialised `Cell` needs no lazy init).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations are passed through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
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
    records: u64,
    msg_ids: u64,
}

impl XApp for Summing {
    fn name(&self) -> &str {
        "summing"
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

/// Allocations made between `poll` and the handler's return over
/// `MEASURED_PERIODS` report periods of `per_indication` records each.
fn ingest_allocations(per_indication: u64) -> u64 {
    let (agent_end, ric_end) = in_proc_pair();
    let mut agent: RicAgent<InProcTransport> =
        RicAgent::new(RicAgentConfig { gnb_id: GnbId(1), cell: CellId(1) }, agent_end).unwrap();
    let mut platform = RicPlatform::new();
    platform.add_agent(Box::new(ric_end));
    platform
        .register_xapp_scoped(
            Box::new(Summing { records: 0, msg_ids: 0 }),
            SubscriptionSpec::telemetry(100),
            Grants::none(),
        )
        .unwrap();
    platform.seal();
    for _ in 0..3 {
        platform.pump().unwrap();
        agent.poll(Timestamp::ZERO).unwrap();
    }
    assert_eq!(agent.subscription_count(), 1);

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
        assert_eq!(stats.records_delivered, per_indication);
        if period > WARM_UP_PERIODS {
            counted += spent;
            delivered += stats.records_delivered;
        }
    }
    assert_eq!(delivered, MEASURED_PERIODS * per_indication);
    counted
}

#[test]
fn ingest_allocates_per_indication_not_per_record() {
    let small = ingest_allocations(16);
    let large = ingest_allocations(1_024);
    let per_indication = small as f64 / MEASURED_PERIODS as f64;
    println!(
        "allocations over {MEASURED_PERIODS} indications: {small} at 16 records, \
         {large} at 1024 records ({per_indication:.1} per indication)"
    );
    // 64 times the records, not one allocation more.
    assert_eq!(large, small, "the ingest path allocated per record");
    // And an indication costs a handful: frame, payload, records, SDL entry.
    assert!(per_indication <= 16.0, "{per_indication} allocations per indication");
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
    let sdl = SharedDataLayer::new();
    let scope = Router::new().register(XAppIdentity::named("mobiwatch"), Grants::none()).unwrap();
    let mut control = Vec::new();
    let mut ctx = XAppContext { sdl: &sdl, scope: &scope, control_out: &mut control };
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
        let (mut pool, state) = ShardedMobiWatch::new(models.clone(), config.clone(), 1);
        let sharded = detector_allocations(&mut pool, &state, per_indication);
        println!("{per_indication} records/indication: MobiWatch {global}, 1-shard pool {sharded}");
        assert_eq!(global, 0, "MobiWatch allocated at {per_indication} records per indication");
        assert_eq!(sharded, 0, "the pool allocated at {per_indication} records per indication");
    }
    let lstm = MobiWatchConfig { detector: Detector::Lstm, ..config };
    let (mut watch, state) = MobiWatch::new(models, lstm);
    assert_eq!(detector_allocations(&mut watch, &state, 64), 0, "LSTM MobiWatch allocated");
}
