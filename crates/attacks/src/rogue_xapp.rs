//! A rogue xApp mounted *inside* the RIC: the platform-level attacker of
//! the O-RAN threat model (arXiv:2212.11465, arXiv:2406.12299), as opposed
//! to the radio-layer adversaries in the rest of this crate.
//!
//! The rogue is deployed like any tenant — registered with the platform,
//! invoked on the telemetry it subscribes to — but tries to act far beyond
//! its station on every window:
//!
//! 1. **Spoofed finding**: publishes a hand-crafted `FindingNotice` on the
//!    `findings` topic, trying to trick the Mitigator into issuing control
//!    actions against victims the rogue picked.
//! 2. **Unauthorized A1 ops**: publishes both a bare `A1Request` and a
//!    forged signed envelope (claiming the SMO's identity with a guessed
//!    token) on `a1-policies`, trying to disable the null-cipher playbook.
//! 3. **Direct control injection**: queues a `QuarantineCell` Control
//!    Request — a full cell outage if it ever reaches the RAN.
//!
//! Against a hardened deployment every attempt must die at a choke point
//! (router topic ACL, Mitigator envelope verification, per-kind control
//! gate), each denial counted in `xsec_authz_denied_total{xapp,capability}`
//! and flight-recorded. [`RogueReport`] tallies what actually got through,
//! so tests can assert the blast radius was zero.

use std::sync::{Arc, Mutex};
use xsec_control::{A1Request, ControlAction, MitigationAction};
use xsec_ric::{ControlOut, XApp, XAppContext};
use xsec_types::{CellId, Duration, Timestamp};

/// What the rogue managed to do — every counter other than `attempts`
/// should stay zero on a hardened deployment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RogueReport {
    /// Attack rounds mounted (one per telemetry window).
    pub attempts: u64,
    /// Spoofed findings that reached at least one mailbox.
    pub findings_delivered: u64,
    /// A1 operations (bare or forged-envelope) that reached a mailbox.
    /// Delivery is necessary but not sufficient — the Mitigator still
    /// verifies the envelope — so pair this with the policy-op tally.
    pub a1_delivered: u64,
    /// QuarantineCell control actions the platform queued for shipping.
    pub controls_queued: u64,
}

/// The rogue xApp. See the module docs for the attack repertoire.
pub struct RogueXApp {
    report: Arc<Mutex<RogueReport>>,
    /// Token the forged SMO envelope claims (a guess — the real token is
    /// never observable from another xApp's scope).
    forged_token: u64,
    /// Cell targeted by the quarantine injection.
    target_cell: CellId,
}

impl RogueXApp {
    /// Creates the rogue and the report handle the test asserts on.
    pub fn new(forged_token: u64, target_cell: CellId) -> (Self, Arc<Mutex<RogueReport>>) {
        let report = Arc::new(Mutex::new(RogueReport::default()));
        (RogueXApp { report: report.clone(), forged_token, target_cell }, report)
    }

    fn mount(&self, ctx: &mut XAppContext<'_>, now: Timestamp) {
        let mut report = self.report.lock().expect("rogue report lock");
        report.attempts += 1;

        // 1. Spoof a confirmed BTS-DoS finding naming no records — enough
        // to read as "confirmed, act now" if it ever reaches the Mitigator.
        let finding = format!(
            concat!(
                r#"{{"trace":0,"at_record":0,"at_time":{},"score":9.0,"threshold":0.1,"#,
                r#""anomalous":true,"confirmed":true,"needs_human":false,"#,
                r#""attacks":["Signaling storm / RRC flooding DoS (BTS DoS)"],"records":[]}}"#
            ),
            now.as_micros()
        );
        if ctx.scope.try_publish("findings", finding.as_bytes()).is_ok() {
            report.findings_delivered += 1;
        }

        // 2a. Bare A1 request: disable the null-cipher playbook.
        let disarm = A1Request::SetEnabled { id: "null-cipher".to_string(), enabled: false };
        let bare = serde_json::to_vec(&disarm).expect("A1 requests serialize");
        if ctx.scope.try_publish("a1-policies", &bare).is_ok() {
            report.a1_delivered += 1;
        }

        // 2b. Forged envelope claiming the SMO's identity with a guessed
        // token (the mitigator checks it against the router registry).
        let forged = format!(
            r#"{{"xapp":"smo","token":{},"request":{}}}"#,
            self.forged_token,
            serde_json::to_string(&disarm).expect("A1 requests serialize"),
        );
        if ctx.scope.try_publish("a1-policies", forged.as_bytes()).is_ok() {
            report.a1_delivered += 1;
        }

        // 3. Inject a cell-wide quarantine straight into the control path.
        let outage = ControlAction {
            id: 0xDEAD,
            ttl: Duration::from_secs(60),
            action: MitigationAction::QuarantineCell { cell: self.target_cell },
            trace: None,
        };
        if ctx.send_control(
            "quarantine-cell",
            ControlOut {
                cell: Some(self.target_cell),
                id: outage.id,
                payload: outage.encode(),
                broadcast: true,
            },
        ) {
            report.controls_queued += 1;
        }
    }
}

impl XApp for RogueXApp {
    fn name(&self) -> &str {
        "rogue"
    }

    fn on_records(
        &mut self,
        ctx: &mut XAppContext<'_>,
        _records: &[xsec_ric::UeMobiFlow],
        window_end: Timestamp,
    ) {
        self.mount(ctx, window_end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsec_ric::{Grants, Router, XAppIdentity};

    /// One attack round by a rogue holding `grants`, next to a mitigator
    /// whose mailboxes on both sensitive topics make any leak observable.
    /// Returns the rogue's report, the messages that reached the mitigator,
    /// the controls queued, and the denials counted.
    fn one_round(grants: Grants) -> (RogueReport, usize, usize, u64) {
        let router = Router::new();
        let mitigator = router
            .register(
                XAppIdentity::named("mitigator"),
                Grants::none().subscribe("findings").subscribe("a1-policies"),
            )
            .unwrap();
        let findings_rx = mitigator.subscribe("findings");
        let a1_rx = mitigator.subscribe("a1-policies");
        let handle = router.register(XAppIdentity::named("rogue"), grants).unwrap();
        router.seal();

        let (mut rogue, report) = RogueXApp::new(42, CellId(1));
        let mut control = Vec::new();
        let mut ctx = XAppContext { scope: &handle, control_out: &mut control };
        rogue.on_records(&mut ctx, &[], Timestamp(1_000));

        let report = *report.lock().unwrap();
        let leaked = findings_rx.try_iter().count() + a1_rx.try_iter().count();
        (report, leaked, control.len(), router.denied())
    }

    #[test]
    fn rogue_is_fully_contained_by_a_scoped_context() {
        let (report, leaked, controls, denied) = one_round(Grants::none());
        assert_eq!(
            report,
            RogueReport { attempts: 1, findings_delivered: 0, a1_delivered: 0, controls_queued: 0 }
        );
        assert_eq!((leaked, controls), (0, 0));
        // findings + 2 × a1-policies + quarantine-cell.
        assert_eq!(denied, 4);
    }

    #[test]
    fn rogue_lands_exactly_what_it_is_granted() {
        // The repertoire is live ammunition: hand the rogue the grants and
        // every move lands, so the zeros above are the grants' doing.
        let (report, leaked, controls, denied) = one_round(
            Grants::none().publish("findings").publish("a1-policies").control("quarantine-cell"),
        );
        assert_eq!(
            report,
            RogueReport { attempts: 1, findings_delivered: 1, a1_delivered: 2, controls_queued: 1 }
        );
        assert_eq!((leaked, controls, denied), (3, 1, 0));
    }
}
