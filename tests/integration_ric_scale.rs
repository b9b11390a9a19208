//! Scale integration: one readiness-driven platform terminating a hundred
//! plus gNB agents, driven closed-loop through a coordinated flood.
//!
//! Covers the reactor's headline guarantees end to end: every agent
//! completes its handshake and subscription, a coordinated BTS DoS across
//! every cell is detected, quarantined (with neighbour-cell broadcast
//! fan-out), enforced on the RAN, and fully acknowledged — with zero
//! egress drops and the per-agent ack-latency histograms exported — and
//! the whole pipeline's outputs are invariant in the agent count.

use sixg_xsec::pipeline::{Pipeline, PipelineConfig};
use sixg_xsec::scale::{Replay, ScaleDeployment, Streaming};
use xsec_attacks::{MigrateConfig, MigrationSchedule};
use xsec_control::{ActionTemplate, MitigationAction, PolicyRule};
use xsec_mobiflow::{extract_from_events, TelemetryStream};
use xsec_ran::stream::{StreamConfig, StreamingScenario};
use xsec_types::{AttackKind, Duration, Timestamp};

/// Drains a streaming engine offline into one telemetry stream.
fn drain(mut engine: StreamingScenario) -> TelemetryStream {
    let mut events = Vec::new();
    let mut deadline = Timestamp::ZERO + Duration::from_millis(100);
    while !engine.done() {
        events.extend(engine.step(deadline));
        deadline += Duration::from_millis(100);
    }
    extract_from_events(&events)
}

fn stream_config(seed: u64, cells: usize, total_ues: u64) -> StreamConfig {
    StreamConfig {
        seed,
        cells,
        total_ues,
        mean_inter_arrival: Duration::from_millis(4),
        mobility_fraction: 0.0,
        max_live: 512,
        ..StreamConfig::default()
    }
}

#[test]
fn coordinated_flood_across_120_cells_is_contained_end_to_end() {
    const CELLS: usize = 120;
    let mut config = PipelineConfig::small(41, 12);
    config.scoring_shards = 2;
    let training = drain(StreamingScenario::new(stream_config(71, CELLS, 240)));
    let pipeline = Pipeline::train_on(&config, &training);

    // The same flood powers on in *every* cell at the same instant. The
    // 25 ms connection cadence keeps each cell's flood alive past the gNB's
    // 600 ms setup-guard timer, so the reaped stalled connections are scored
    // while the storm is still visible in the alert context.
    let mut engine = StreamingScenario::new(stream_config(72, CELLS, 240));
    for cell in 0..CELLS {
        MigrationSchedule::tour(
            &[cell],
            Timestamp::ZERO + Duration::from_millis(200),
            Duration::from_millis(500),
            MigrateConfig {
                attacker_msin: 999_100 + cell as u64,
                inter_connection: Duration::from_millis(25),
                ..MigrateConfig::default()
            },
        )
        .install(&mut engine);
    }

    let mut d = ScaleDeployment::new(&pipeline, CELLS);
    assert_eq!(d.platform().agent_count(), CELLS);

    // Harden the BTS DoS response over A1: quarantine the flooded cell
    // (and, via the ring topology, brace both neighbours).
    let a1 = d.a1_client();
    a1.update(PolicyRule {
        id: "bts-dos".into(),
        attack: AttackKind::BtsDos,
        min_confidence: 0.6,
        require_llm_confirmation: true,
        ttl: Duration::from_secs(10),
        templates: vec![ActionTemplate::QuarantineCell],
    })
    .expect("a1 update");
    d.step(Timestamp::ZERO);

    let outcome = d.drive(&mut Streaming::new(&mut engine, Duration::from_secs(60)));

    assert!(outcome.records > 1_000, "only {} records streamed", outcome.records);
    assert!(outcome.flagged_windows > 0, "flood not flagged");
    assert!(!outcome.findings.is_empty(), "analyzer saw nothing");
    assert!(outcome.mitigation.issued > 0, "no actions issued");
    assert!(!outcome.enforced.is_empty(), "no actions reached the RAN");

    // The flood is contained in a majority of the cells: distinct
    // quarantine targets across the enforced actions.
    let mut quarantined: Vec<u32> = outcome
        .enforced
        .iter()
        .filter_map(|(_, a)| match a.action {
            MitigationAction::QuarantineCell { cell } => Some(cell.0),
            _ => None,
        })
        .collect();
    quarantined.sort_unstable();
    quarantined.dedup();
    assert!(
        quarantined.len() >= CELLS / 2,
        "only {} of {CELLS} cells were quarantined",
        quarantined.len()
    );

    // Quarantines fanned out to ring neighbours.
    assert!(d.platform().controls_broadcast() > 0, "no broadcast copies shipped");

    // The detection → control → ack chain is complete for every copy, and
    // nothing was dropped on either side's egress queue at this scale.
    let sent = outcome.metrics.counter_total("xsec_ric_controls_sent_total");
    assert!(sent > 0);
    assert_eq!(d.platform().controls_acked(), sent, "unacked controls at drain");
    assert_eq!(d.platform().controls_failed(), 0);
    assert_eq!(d.platform().egress_dropped(), 0, "RIC-side egress drops");
    assert_eq!(d.agent_egress_dropped(), 0, "agent-side egress drops");

    // Per-agent ack-latency histograms are exported for every gNB.
    let per_agent = outcome.metrics.histograms("xsec_ric_control_ack_latency_us");
    assert_eq!(per_agent.len(), CELLS, "missing per-agent ack histograms");
    let acked_agents =
        per_agent.iter().filter(|(_, h)| h.count > 0).count();
    assert!(
        acked_agents >= CELLS / 2,
        "only {acked_agents} agents recorded an ack latency"
    );
}

#[test]
fn detections_and_traces_match_between_1_and_256_agents() {
    // The streaming engine caps at 255 cells (cell bits in the conn id);
    // 200 traffic cells against a 256-agent deployment still exercises the
    // agents-exceed-traffic case the invariant must survive.
    const CELLS: usize = 200;
    const AGENTS: usize = 256;
    let mut config = PipelineConfig::small(42, 10);
    config.scoring_shards = 2;
    let training = drain(StreamingScenario::new(stream_config(81, CELLS, 128)));
    let pipeline = Pipeline::train_on(&config, &training);

    let eval = {
        let mut engine = StreamingScenario::new(stream_config(82, CELLS, 128));
        // One flooded cell mid-range roots the incident traces.
        MigrationSchedule::tour(
            &[57],
            Timestamp::ZERO + Duration::from_millis(150),
            Duration::from_millis(600),
            MigrateConfig::default(),
        )
        .install(&mut engine);
        drain(engine)
    };

    let mut digests = Vec::new();
    for agents in [1usize, AGENTS] {
        let mut d = ScaleDeployment::new(&pipeline, agents);
        let outcome = d.drive(&mut Replay(&eval.records));
        assert!(outcome.flagged_windows > 0, "{agents}-agent run flagged nothing");
        digests.push((d.detections_digest(), d.incidents_digest()));
    }
    assert!(!digests[0].0.is_empty() && !digests[0].1.is_empty());
    assert_eq!(digests[0].0, digests[1].0, "detections diverge between 1 and 256 agents");
    assert_eq!(digests[0].1, digests[1].1, "traces diverge between 1 and 256 agents");
}
