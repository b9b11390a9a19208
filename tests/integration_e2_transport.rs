//! Integration across process boundaries: the RIC agent and the RIC
//! platform speaking real E2AP over a real TCP socket on loopback, carrying
//! real MobiFlow telemetry extracted from a simulated attack run.

use std::net::TcpListener;
use std::sync::Arc;
use parking_lot::Mutex;
use xsec_attacks::DatasetBuilder;
use xsec_e2::{KpmIndication, RicAgent, RicAgentConfig, TcpTransport};
use xsec_mobiflow::{extract_from_events, UeMobiFlow};
use xsec_ric::{
    Grants, RicPlatform, SubscriptionSpec, XApp, XAppContext, SDL_WINDOWS_PER_AGENT,
};
use xsec_types::{AttackKind, CellId, GnbId, Timestamp};

struct Collector {
    records: Arc<Mutex<Vec<UeMobiFlow>>>,
}

impl XApp for Collector {
    fn name(&self) -> &str {
        "collector"
    }

    fn on_records(
        &mut self,
        _ctx: &mut XAppContext<'_>,
        records: &[UeMobiFlow],
        _window_end: Timestamp,
    ) {
        self.records.lock().extend_from_slice(records);
    }
}

#[test]
fn telemetry_flows_over_real_tcp_loopback() {
    // Produce a labeled attack stream to ship.
    let ds = DatasetBuilder::small(300, 8).attack(AttackKind::NullCipher);
    let stream = extract_from_events(&ds.report.events);
    assert!(stream.len() > 100);

    // RIC side: listen, accept, pump in a thread until all records arrive.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let expected = stream.len();
    let received = Arc::new(Mutex::new(Vec::new()));
    let received_clone = received.clone();

    let ric_thread = std::thread::spawn(move || {
        let (socket, _) = listener.accept().unwrap();
        let transport = TcpTransport::new(socket).unwrap();
        let mut platform = RicPlatform::new();
        platform.add_agent(Box::new(transport));
        platform
            .register_xapp_scoped(
                Box::new(Collector { records: received_clone }),
                SubscriptionSpec::telemetry(50),
                Grants::none(),
            )
            .expect("register collector");
        platform.seal();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while received.lock().len() < expected {
            platform.pump().expect("platform pump");
            assert!(std::time::Instant::now() < deadline, "timed out receiving telemetry");
            std::thread::yield_now();
        }
        // Telemetry was also persisted to the SDL, one entry per report
        // window: decoding the windows it still holds (keys sort by time)
        // recovers exactly the newest records that were delivered.
        let windows = platform.sdl().scan("mobiflow");
        assert!(!windows.is_empty() && windows.len() <= SDL_WINDOWS_PER_AGENT);
        let stored: Vec<UeMobiFlow> = windows
            .iter()
            .flat_map(|(_, value)| KpmIndication::decode(value).unwrap().into_records())
            .collect();
        let received = received.lock().clone();
        assert!(!stored.is_empty());
        assert_eq!(stored, received[received.len() - stored.len()..]);
        received
    });

    // RAN side: connect, handshake, stream the records in 50ms buckets.
    let transport = TcpTransport::connect(&addr.to_string()).unwrap();
    let mut agent =
        RicAgent::new(RicAgentConfig { gnb_id: GnbId(1), cell: CellId(1) }, transport).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !agent.is_setup() || agent.subscription_count() == 0 {
        agent.poll(Timestamp::ZERO).unwrap();
        assert!(std::time::Instant::now() < deadline, "handshake timed out");
        std::thread::yield_now();
    }
    let mut bucket_end = Timestamp(50_000);
    for record in &stream.records {
        while record.timestamp >= bucket_end {
            agent.poll(bucket_end).unwrap();
            bucket_end = Timestamp(bucket_end.as_micros() + 50_000);
        }
        agent.push_record(record.clone());
    }
    // Flush the tail until everything is shipped.
    while agent.backlog() > 0 {
        agent.poll(bucket_end).unwrap();
        bucket_end = Timestamp(bucket_end.as_micros() + 50_000);
    }

    let received = ric_thread.join().unwrap();
    assert_eq!(received.len(), stream.len());
    // Byte-exact delivery, in order.
    for (sent, got) in stream.records.iter().zip(&received) {
        assert_eq!(sent, got);
    }
    // The downgraded session's telemetry survived the wire: null algorithms
    // are visible at the RIC.
    assert!(received.iter().any(|r| r.null_security()));
}
