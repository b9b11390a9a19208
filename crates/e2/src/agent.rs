//! The RAN-side RIC agent.
//!
//! The paper extends the OAI CU with "an E2 RIC agent that extracts security
//! telemetry and handles communication with the nRT-RIC's E2 interface"
//! (§4). This is that component: the instrumented CU pushes MobiFlow records
//! in; the agent answers E2 setup/subscription traffic and ships buffered
//! records as periodic `RIC Indication`s, one report per subscription per
//! elapsed period.

use crate::e2ap::{E2apPdu, RicRequestId};
use crate::e2sm::{KpmIndication, RAN_FUNCTION_MOBIFLOW};
use crate::transport::{E2Transport, SendOutcome};
use std::collections::BTreeMap;
use xsec_mobiflow::UeMobiFlow;
use xsec_obs::{Counter, Obs};
use xsec_types::{CellId, Duration, GnbId, Result, Timestamp};

/// Agent identity/configuration.
#[derive(Debug, Clone)]
pub struct RicAgentConfig {
    /// The gNB this agent instruments.
    pub gnb_id: GnbId,
    /// The reporting cell.
    pub cell: CellId,
}

#[derive(Debug)]
struct Subscription {
    period: Duration,
    next_report_at: Timestamp,
    cursor: usize,
    sequence: u64,
}

/// Registry-backed agent counters (metric names `xsec_e2_*_total`).
#[derive(Debug, Clone)]
struct AgentMetrics {
    records_pushed: Counter,
    indications_sent: Counter,
    controls_received: Counter,
    egress_dropped: Counter,
    frames_undecodable: Counter,
    pdus_unexpected: Counter,
    setups_refused: Counter,
    unsubscribed: Counter,
}

impl AgentMetrics {
    fn register(obs: &Obs) -> Self {
        AgentMetrics {
            records_pushed: obs.counter("xsec_e2_records_pushed_total", &[]),
            indications_sent: obs.counter("xsec_e2_indications_sent_total", &[]),
            controls_received: obs.counter("xsec_e2_controls_received_total", &[]),
            egress_dropped: obs.counter("xsec_e2_egress_dropped_total", &[]),
            frames_undecodable: dropped(obs, "frame", "undecodable"),
            pdus_unexpected: dropped(obs, "pdu", "unexpected"),
            setups_refused: dropped(obs, "setup", "refused"),
            unsubscribed: dropped(obs, "log", "no_subscription"),
        }
    }
}

/// One series of `xsec_e2_agent_dropped_total`: what the agent received and
/// threw away, by where and why.
fn dropped(obs: &Obs, site: &str, reason: &str) -> Counter {
    obs.counter("xsec_e2_agent_dropped_total", &[("site", site), ("reason", reason)])
}

/// The agent state machine over a transport.
pub struct RicAgent<T: E2Transport> {
    config: RicAgentConfig,
    transport: T,
    setup_complete: bool,
    subscriptions: BTreeMap<RicRequestId, Subscription>,
    log: Vec<UeMobiFlow>,
    /// The indication being framed; reused, so a report costs its payload
    /// and the copy the transport keeps.
    frame: Vec<u8>,
    control_inbox: Vec<Vec<u8>>,
    metrics: AgentMetrics,
}

impl<T: E2Transport> RicAgent<T> {
    /// Creates the agent and immediately sends the E2 Setup Request, which
    /// announces both the supported RAN functions and the served cell.
    pub fn new(config: RicAgentConfig, mut transport: T) -> Result<Self> {
        let setup = E2apPdu::SetupRequest {
            gnb_id: config.gnb_id,
            ran_functions: vec![RAN_FUNCTION_MOBIFLOW],
            cells: vec![config.cell],
        };
        transport.send(&setup.encode())?;
        Ok(RicAgent {
            config,
            transport,
            setup_complete: false,
            subscriptions: BTreeMap::new(),
            log: Vec::new(),
            frame: Vec::new(),
            control_inbox: Vec::new(),
            metrics: AgentMetrics::register(&Obs::new()),
        })
    }

    /// Re-homes the agent's counters into `obs` (accumulated counts are
    /// carried over). The agent records no flight events: an incident is
    /// opened by the detector that publishes its alert.
    pub fn attach_obs(&mut self, obs: &Obs) {
        let metrics = AgentMetrics::register(obs);
        metrics.records_pushed.add(self.metrics.records_pushed.get());
        metrics.indications_sent.add(self.metrics.indications_sent.get());
        metrics.controls_received.add(self.metrics.controls_received.get());
        metrics.egress_dropped.add(self.metrics.egress_dropped.get());
        metrics.frames_undecodable.add(self.metrics.frames_undecodable.get());
        metrics.pdus_unexpected.add(self.metrics.pdus_unexpected.get());
        metrics.setups_refused.add(self.metrics.setups_refused.get());
        metrics.unsubscribed.add(self.metrics.unsubscribed.get());
        self.metrics = metrics;
    }

    /// Whether the RIC accepted our function.
    pub fn is_setup(&self) -> bool {
        self.setup_complete
    }

    /// Frames this agent dropped on a full egress queue (also counted in
    /// `xsec_e2_egress_dropped_total`).
    pub fn egress_dropped(&self) -> u64 {
        self.transport.dropped_frames()
    }

    /// Sends one frame, counting (never blocking on) an egress drop. Takes
    /// the fields it needs so a caller can hold the subscriptions meanwhile.
    fn send_counted(transport: &mut T, metrics: &AgentMetrics, frame: &[u8]) -> Result<()> {
        if transport.send(frame)? == SendOutcome::Dropped {
            metrics.egress_dropped.inc();
        }
        Ok(())
    }

    /// Number of active subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.subscriptions.len()
    }

    /// Buffered records not yet shipped to every subscriber.
    pub fn backlog(&self) -> usize {
        let min_cursor =
            self.subscriptions.values().map(|s| s.cursor).min().unwrap_or(self.log.len());
        self.log.len() - min_cursor
    }

    /// The CU instrumentation hook: one record per observed message. It
    /// costs a counter and a log push; a record is traced only if the
    /// detector publishes an alert on it, which opens its incident. A
    /// subscription starts at the log's end, so a record pushed while there
    /// is none is owed to nobody: it is counted under
    /// `xsec_e2_agent_dropped_total{site="log",reason="no_subscription"}`
    /// and not kept.
    pub fn push_record(&mut self, record: UeMobiFlow) {
        self.metrics.records_pushed.inc();
        if self.subscriptions.is_empty() {
            self.metrics.unsubscribed.inc();
        } else {
            self.log.push(record);
        }
    }

    /// Control payloads received from the RIC (closed-loop actions), drained.
    pub fn take_control_requests(&mut self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.control_inbox)
    }

    /// Drives the agent: handles incoming PDUs and flushes due reports. A
    /// frame that is not an E2AP PDU, a PDU only the RIC should receive, or
    /// a Setup Response refusing the MobiFlow function is counted under
    /// `xsec_e2_agent_dropped_total` and skipped; after a refusal the agent
    /// is not set up and reports nothing until a Setup Response accepts the
    /// function. Only a transport error is an `Err`.
    pub fn poll(&mut self, now: Timestamp) -> Result<()> {
        while let Some(frame) = self.transport.try_recv()? {
            match E2apPdu::decode(&frame) {
                Ok(pdu) => self.handle(now, pdu)?,
                Err(_) => self.metrics.frames_undecodable.inc(),
            }
        }
        if self.setup_complete {
            self.flush_reports(now)?;
        }
        Ok(())
    }

    fn handle(&mut self, now: Timestamp, pdu: E2apPdu) -> Result<()> {
        match pdu {
            E2apPdu::SetupResponse { accepted } => {
                self.setup_complete = accepted.contains(&RAN_FUNCTION_MOBIFLOW);
                if !self.setup_complete {
                    self.metrics.setups_refused.inc();
                }
                Ok(())
            }
            E2apPdu::SubscriptionRequest { request_id, ran_function, report_period_ms, .. } => {
                let accepted = ran_function == RAN_FUNCTION_MOBIFLOW && report_period_ms > 0;
                if accepted {
                    let period = Duration::from_millis(u64::from(report_period_ms));
                    self.subscriptions.insert(
                        request_id,
                        Subscription {
                            period,
                            next_report_at: now + period,
                            // New subscribers start from "now": they see
                            // records logged after the subscription.
                            cursor: self.log.len(),
                            sequence: 0,
                        },
                    );
                }
                let response = E2apPdu::SubscriptionResponse { request_id, accepted }.encode();
                Self::send_counted(&mut self.transport, &self.metrics, &response)
            }
            E2apPdu::SubscriptionDeleteRequest { request_id } => {
                self.subscriptions.remove(&request_id);
                Ok(())
            }
            E2apPdu::ControlRequest { ran_function, control_id, payload } => {
                let success = ran_function == RAN_FUNCTION_MOBIFLOW;
                if success {
                    self.metrics.controls_received.inc();
                    self.control_inbox.push(payload);
                }
                let ack = E2apPdu::ControlAck { ran_function, control_id, success }.encode();
                Self::send_counted(&mut self.transport, &self.metrics, &ack)
            }
            // PDUs that only the RIC side should receive are protocol noise.
            _ => {
                self.metrics.pdus_unexpected.inc();
                Ok(())
            }
        }
    }

    fn flush_reports(&mut self, now: Timestamp) -> Result<()> {
        let cell = self.config.cell;
        let log_len = self.log.len();
        for (request_id, sub) in self.subscriptions.iter_mut() {
            while sub.next_report_at <= now {
                let window_start =
                    sub.next_report_at.as_micros().saturating_sub(sub.period.as_micros());
                let payload = KpmIndication::encode_records(
                    cell,
                    Timestamp(window_start),
                    sub.next_report_at,
                    &self.log[sub.cursor..log_len],
                );
                E2apPdu::Indication {
                    request_id: *request_id,
                    ran_function: RAN_FUNCTION_MOBIFLOW,
                    sequence: sub.sequence,
                    payload,
                }
                .encode_into(&mut self.frame);
                sub.sequence += 1;
                sub.cursor = log_len;
                sub.next_report_at += sub.period;
                self.metrics.indications_sent.inc();
                Self::send_counted(&mut self.transport, &self.metrics, &self.frame)?;
            }
        }
        self.trim_log();
        Ok(())
    }

    /// Drops every record all subscribers have been sent and rebases their
    /// cursors, so the log holds one report period, not the whole run.
    /// Without a subscriber nobody is owed anything: the log empties.
    fn trim_log(&mut self) {
        let shipped =
            self.subscriptions.values().map(|s| s.cursor).min().unwrap_or(self.log.len());
        self.log.drain(..shipped);
        for sub in self.subscriptions.values_mut() {
            sub.cursor -= shipped;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{in_proc_pair, InProcTransport};
    use xsec_proto::{Direction, MessageKind};
    use xsec_types::Rnti;

    fn record(id: u64, ts: u64) -> UeMobiFlow {
        UeMobiFlow {
            msg_id: id,
            timestamp: Timestamp(ts),
            cell: CellId(1),
            rnti: Rnti(1),
            du_ue_id: 1,
            direction: Direction::Uplink,
            msg: MessageKind::RrcSetupRequest,
            tmsi: None,
            supi: None,
            cipher_alg: None,
            integrity_alg: None,
            establishment_cause: None,
            release_cause: None,
        }
    }

    fn agent() -> (RicAgent<InProcTransport>, InProcTransport) {
        let (agent_end, mut ric_end) = in_proc_pair();
        let agent = RicAgent::new(
            RicAgentConfig { gnb_id: GnbId(7), cell: CellId(1) },
            agent_end,
        )
        .unwrap();
        // The setup request is already on the wire.
        let frame = ric_end.try_recv().unwrap().unwrap();
        assert!(matches!(
            E2apPdu::decode(&frame).unwrap(),
            E2apPdu::SetupRequest { gnb_id: GnbId(7), .. }
        ));
        (agent, ric_end)
    }

    fn complete_setup(agent: &mut RicAgent<InProcTransport>, ric: &mut InProcTransport) {
        ric.send(&E2apPdu::SetupResponse { accepted: vec![RAN_FUNCTION_MOBIFLOW] }.encode())
            .unwrap();
        agent.poll(Timestamp(0)).unwrap();
        assert!(agent.is_setup());
    }

    fn subscribe(
        agent: &mut RicAgent<InProcTransport>,
        ric: &mut InProcTransport,
        period_ms: u32,
    ) -> RicRequestId {
        let request_id = RicRequestId { requestor: 1, instance: 1 };
        ric.send(
            &E2apPdu::SubscriptionRequest {
                request_id,
                ran_function: RAN_FUNCTION_MOBIFLOW,
                report_period_ms: period_ms,
                actions: vec![crate::e2ap::RicAction::Report],
            }
            .encode(),
        )
        .unwrap();
        agent.poll(Timestamp(0)).unwrap();
        let frame = ric.try_recv().unwrap().unwrap();
        assert_eq!(
            E2apPdu::decode(&frame).unwrap(),
            E2apPdu::SubscriptionResponse { request_id, accepted: true }
        );
        request_id
    }

    /// Drains the RIC end: every pending indication's subscription and
    /// decoded records.
    fn drain_indications(ric: &mut InProcTransport) -> Vec<(RicRequestId, Vec<UeMobiFlow>)> {
        let mut got = Vec::new();
        while let Some(frame) = ric.try_recv().unwrap() {
            let E2apPdu::Indication { request_id, payload, .. } = E2apPdu::decode(&frame).unwrap()
            else {
                panic!("expected indication");
            };
            got.push((request_id, KpmIndication::decode(&payload).unwrap().records));
        }
        got
    }

    #[test]
    fn setup_handshake() {
        let (mut agent, mut ric) = agent();
        complete_setup(&mut agent, &mut ric);
    }

    #[test]
    fn a_bad_frame_is_counted_and_skipped() {
        let (mut agent, mut ric) = agent();
        complete_setup(&mut agent, &mut ric);
        let obs = Obs::new();
        agent.attach_obs(&obs);
        ric.send(&[0xff, 0x00, 0x13]).unwrap();
        ric.send(
            &E2apPdu::ControlAck {
                ran_function: RAN_FUNCTION_MOBIFLOW,
                control_id: 1,
                success: true,
            }
            .encode(),
        )
        .unwrap();
        let request_id = RicRequestId { requestor: 1, instance: 1 };
        ric.send(
            &E2apPdu::SubscriptionRequest {
                request_id,
                ran_function: RAN_FUNCTION_MOBIFLOW,
                report_period_ms: 100,
                actions: vec![crate::e2ap::RicAction::Report],
            }
            .encode(),
        )
        .unwrap();
        agent.poll(Timestamp(0)).unwrap();
        let frame = ric.try_recv().unwrap().unwrap();
        assert_eq!(
            E2apPdu::decode(&frame).unwrap(),
            E2apPdu::SubscriptionResponse { request_id, accepted: true }
        );
        assert_eq!(agent.subscription_count(), 1);
        assert_eq!(dropped(&obs, "frame", "undecodable").get(), 1);
        assert_eq!(dropped(&obs, "pdu", "unexpected").get(), 1);
    }

    #[test]
    fn a_refused_setup_is_counted_and_a_later_one_completes() {
        let (mut agent, mut ric) = agent();
        let obs = Obs::new();
        agent.attach_obs(&obs);
        let series = "xsec_e2_agent_dropped_total{reason=\"refused\",site=\"setup\"} 0\n";
        assert!(obs.metrics.render_prometheus().contains(series));
        ric.send(&E2apPdu::SetupResponse { accepted: vec![] }.encode()).unwrap();
        agent.poll(Timestamp(0)).unwrap();
        assert_eq!(dropped(&obs, "setup", "refused").get(), 1);
        assert!(!agent.is_setup());

        // Not set up, the agent reports nothing, even to a subscriber.
        subscribe(&mut agent, &mut ric, 100);
        agent.push_record(record(0, 10_000));
        agent.poll(Timestamp(100_000)).unwrap();
        assert_eq!(ric.try_recv().unwrap(), None);

        // An accepted Setup completes it, and the windows owed go out.
        complete_setup(&mut agent, &mut ric);
        agent.poll(Timestamp(100_000)).unwrap();
        let owed = drain_indications(&mut ric);
        assert_eq!(owed.len(), 1);
        assert_eq!(owed[0].1, [record(0, 10_000)]);
        assert_eq!(dropped(&obs, "setup", "refused").get(), 1);
    }

    #[test]
    fn periodic_reports_carry_the_buffered_records() {
        let (mut agent, mut ric) = agent();
        complete_setup(&mut agent, &mut ric);
        let request_id = subscribe(&mut agent, &mut ric, 100);

        agent.push_record(record(0, 10_000));
        agent.push_record(record(1, 20_000));
        // Before the period elapses: nothing.
        agent.poll(Timestamp(50_000)).unwrap();
        assert_eq!(ric.try_recv().unwrap(), None);
        // Period elapsed: one indication with both records.
        agent.poll(Timestamp(100_000)).unwrap();
        let frame = ric.try_recv().unwrap().unwrap();
        let E2apPdu::Indication { request_id: rid, sequence, payload, .. } =
            E2apPdu::decode(&frame).unwrap()
        else {
            panic!("expected indication");
        };
        assert_eq!(rid, request_id);
        assert_eq!(sequence, 0);
        let kpm = KpmIndication::decode(&payload).unwrap();
        assert_eq!(kpm.mobiflow_records().unwrap().len(), 2);
        assert_eq!(agent.backlog(), 0);
    }

    #[test]
    fn records_are_not_resent() {
        let (mut agent, mut ric) = agent();
        complete_setup(&mut agent, &mut ric);
        subscribe(&mut agent, &mut ric, 100);
        agent.push_record(record(0, 10_000));
        agent.poll(Timestamp(100_000)).unwrap();
        let _ = ric.try_recv().unwrap().unwrap();
        // Next period with no new records: an empty indication.
        agent.poll(Timestamp(200_000)).unwrap();
        let frame = ric.try_recv().unwrap().unwrap();
        let E2apPdu::Indication { payload, sequence, .. } = E2apPdu::decode(&frame).unwrap()
        else {
            panic!("expected indication");
        };
        assert_eq!(sequence, 1);
        assert!(KpmIndication::decode(&payload).unwrap().mobiflow_records().unwrap().is_empty());
    }

    #[test]
    fn subscription_delete_stops_reports() {
        let (mut agent, mut ric) = agent();
        complete_setup(&mut agent, &mut ric);
        let request_id = subscribe(&mut agent, &mut ric, 100);
        ric.send(&E2apPdu::SubscriptionDeleteRequest { request_id }.encode()).unwrap();
        agent.poll(Timestamp(0)).unwrap();
        assert_eq!(agent.subscription_count(), 0);
        agent.push_record(record(0, 10));
        agent.poll(Timestamp(500_000)).unwrap();
        assert_eq!(ric.try_recv().unwrap(), None);
    }

    #[test]
    fn records_after_the_last_subscription_is_deleted_are_not_kept() {
        let (mut agent, mut ric) = agent();
        complete_setup(&mut agent, &mut ric);
        let obs = Obs::new();
        agent.attach_obs(&obs);
        let series = "xsec_e2_agent_dropped_total{reason=\"no_subscription\",site=\"log\"} 0\n";
        assert!(obs.metrics.render_prometheus().contains(series));
        let request_id = subscribe(&mut agent, &mut ric, 100);
        agent.push_record(record(0, 10));
        assert_eq!(agent.log.len(), 1);
        ric.send(&E2apPdu::SubscriptionDeleteRequest { request_id }.encode()).unwrap();
        agent.poll(Timestamp(0)).unwrap();
        assert_eq!(agent.subscription_count(), 0);
        for period in 1..=10u64 {
            for i in 0..100 {
                agent.push_record(record(period * 100 + i, period * 100_000 - 1));
            }
            agent.poll(Timestamp(period * 100_000)).unwrap();
            assert!(agent.log.is_empty(), "period {period} kept {} records", agent.log.len());
        }
        assert_eq!(dropped(&obs, "log", "no_subscription").get(), 1_000);
        assert_eq!(ric.try_recv().unwrap(), None);
    }

    #[test]
    fn wrong_function_subscription_is_refused() {
        let (mut agent, mut ric) = agent();
        complete_setup(&mut agent, &mut ric);
        let request_id = RicRequestId { requestor: 9, instance: 9 };
        ric.send(
            &E2apPdu::SubscriptionRequest {
                request_id,
                ran_function: 999,
                report_period_ms: 100,
                actions: vec![],
            }
            .encode(),
        )
        .unwrap();
        agent.poll(Timestamp(0)).unwrap();
        let frame = ric.try_recv().unwrap().unwrap();
        assert_eq!(
            E2apPdu::decode(&frame).unwrap(),
            E2apPdu::SubscriptionResponse { request_id, accepted: false }
        );
    }

    #[test]
    fn control_requests_reach_the_inbox_and_are_acked() {
        let (mut agent, mut ric) = agent();
        complete_setup(&mut agent, &mut ric);
        ric.send(
            &E2apPdu::ControlRequest {
                ran_function: RAN_FUNCTION_MOBIFLOW,
                control_id: 41,
                payload: vec![9, 9],
            }
            .encode(),
        )
        .unwrap();
        agent.poll(Timestamp(0)).unwrap();
        assert_eq!(agent.take_control_requests(), vec![vec![9, 9]]);
        let frame = ric.try_recv().unwrap().unwrap();
        assert_eq!(
            E2apPdu::decode(&frame).unwrap(),
            E2apPdu::ControlAck { ran_function: RAN_FUNCTION_MOBIFLOW, control_id: 41, success: true }
        );
    }

    #[test]
    fn the_log_holds_one_report_period() {
        let (mut agent, mut ric) = agent();
        complete_setup(&mut agent, &mut ric);
        // No subscriber yet: nobody is owed these records, so none is kept.
        for i in 0..10 {
            agent.push_record(record(i, 1));
        }
        agent.poll(Timestamp(50_000)).unwrap();
        assert!(agent.log.is_empty(), "kept {} unowed records", agent.log.len());
        assert_eq!(agent.backlog(), 0);
        // The count survives re-homing the agent's metrics.
        let obs = Obs::new();
        agent.attach_obs(&obs);
        assert_eq!(dropped(&obs, "log", "no_subscription").get(), 10);

        subscribe(&mut agent, &mut ric, 100);
        let mut delivered = 0;
        for period in 1..=100u64 {
            for i in 0..1_000 {
                agent.push_record(record(period * 1_000 + i, period * 100_000 - 1));
            }
            assert_eq!(agent.backlog(), 1_000);
            agent.poll(Timestamp(period * 100_000)).unwrap();
            assert_eq!(agent.backlog(), 0);
            assert!(agent.log.is_empty(), "period {period} left {} records", agent.log.len());
            delivered +=
                drain_indications(&mut ric).iter().map(|(_, records)| records.len()).sum::<usize>();
        }
        assert_eq!(delivered, 100 * 1_000);
        assert!(
            agent.log.capacity() <= 2 * 1_024,
            "capacity {} grew past one period",
            agent.log.capacity()
        );
    }

    #[test]
    fn a_slow_subscriber_keeps_its_unsent_records() {
        let (mut agent, mut ric) = agent();
        complete_setup(&mut agent, &mut ric);
        subscribe(&mut agent, &mut ric, 100);
        let slow = RicRequestId { requestor: 2, instance: 1 };
        ric.send(
            &E2apPdu::SubscriptionRequest {
                request_id: slow,
                ran_function: RAN_FUNCTION_MOBIFLOW,
                report_period_ms: 300,
                actions: vec![crate::e2ap::RicAction::Report],
            }
            .encode(),
        )
        .unwrap();
        agent.poll(Timestamp(0)).unwrap();
        let _ = ric.try_recv().unwrap().unwrap(); // sub response

        // Three fast periods of two records each: the fast subscriber is
        // sent each pair as it lands, the slow one all six at once.
        let mut slow_got = Vec::new();
        for period in 1..=3u64 {
            agent.push_record(record(period * 2, 1));
            agent.push_record(record(period * 2 + 1, 1));
            agent.poll(Timestamp(period * 100_000)).unwrap();
            assert_eq!(agent.backlog(), if period < 3 { 2 * period as usize } else { 0 });
            for (request_id, records) in drain_indications(&mut ric) {
                if request_id == slow {
                    slow_got.extend(records);
                }
            }
        }
        let ids: Vec<u64> = slow_got.iter().map(|r| r.msg_id).collect();
        assert_eq!(ids, vec![2, 3, 4, 5, 6, 7]);
        assert!(agent.log.is_empty());
    }

    #[test]
    fn multiple_subscribers_get_independent_streams() {
        let (mut agent, mut ric) = agent();
        complete_setup(&mut agent, &mut ric);
        subscribe(&mut agent, &mut ric, 100);
        // Second subscriber with a different id and period.
        let rid2 = RicRequestId { requestor: 2, instance: 1 };
        ric.send(
            &E2apPdu::SubscriptionRequest {
                request_id: rid2,
                ran_function: RAN_FUNCTION_MOBIFLOW,
                report_period_ms: 200,
                actions: vec![crate::e2ap::RicAction::Report],
            }
            .encode(),
        )
        .unwrap();
        agent.poll(Timestamp(0)).unwrap();
        let _ = ric.try_recv().unwrap().unwrap(); // sub response

        agent.push_record(record(0, 1));
        agent.poll(Timestamp(200_000)).unwrap();
        // Subscriber 1 gets two reports (t=100ms, t=200ms), subscriber 2 one.
        let mut indications = Vec::new();
        while let Some(frame) = ric.try_recv().unwrap() {
            indications.push(E2apPdu::decode(&frame).unwrap());
        }
        let count = indications
            .iter()
            .filter(|p| matches!(p, E2apPdu::Indication { .. }))
            .count();
        assert_eq!(count, 3, "got {indications:?}");
    }
}
