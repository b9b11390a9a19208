//! The xApp framework: what a control-plane application implements to run
//! on the platform.

use crate::authz::Capability;
use crate::router::RouterHandle;
use xsec_mobiflow::{SharedDataLayer, UeMobiFlow};
use xsec_types::{CellId, Timestamp};

/// A queued closed-loop control action, optionally pinned to the cell whose
/// owning agent must enforce it. The platform routes by cell using the
/// served-cell lists announced in E2 Setup; `cell: None` goes to the first
/// connected agent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ControlOut {
    /// The cell the action targets, when known.
    pub cell: Option<CellId>,
    /// Causal trace id of the detection behind the action, when traced.
    /// The pump remembers it per in-flight Control Request so the FIFO ack
    /// can be correlated back to its incident trace.
    pub trace: Option<u64>,
    /// Encoded control payload (mitigation TLV).
    pub payload: Vec<u8>,
    /// Fan the action out to every agent serving a declared neighbour of
    /// `cell` (see `RicPlatform::set_neighbours`), in addition to the
    /// owning agent. Used for containment actions like QuarantineCell
    /// where adjacent cells should brace for the displaced attacker.
    pub broadcast: bool,
}

/// Everything an xApp may touch while handling an event.
pub struct XAppContext<'a> {
    /// The shared data layer.
    pub sdl: &'a SharedDataLayer,
    /// The app's authorization scope: the identity it was registered under
    /// ([`crate::platform::RicPlatform::register_xapp_scoped`]) and the only
    /// way it can reach the message router.
    pub scope: &'a RouterHandle,
    /// Control payloads the xApp wants sent back to the RAN over E2
    /// (closed-loop feedback); the platform drains and ships them.
    pub control_out: &'a mut Vec<ControlOut>,
}

impl XAppContext<'_> {
    /// Publishes a message to other xApps, checked against the identity's
    /// publish grants; a denial is counted and the message goes nowhere.
    pub fn publish(&self, topic: &str, payload: &[u8]) {
        self.scope.publish(topic, payload);
    }

    /// Queues a closed-loop control action of a declared `kind` (a
    /// `MitigationAction::name()` string, or `"*"` for "any") toward the
    /// RAN — the platform-side actuation gate. The identity must hold
    /// `Capability::Control(kind)`; a denial is counted against it and
    /// queues nothing. Returns whether the action was queued. The kind is
    /// the caller's declaration: the check is only as honest as the sender,
    /// which is why deployments grant the Mitigator exactly the kinds its
    /// playbooks instantiate and nothing else holds any control grant.
    pub fn send_control(&mut self, kind: &str, out: ControlOut) -> bool {
        let cap = Capability::control(kind);
        if !self.scope.allows(&cap) {
            self.scope.deny(&cap.label());
            return false;
        }
        self.control_out.push(out);
        true
    }
}

/// A control-plane application hosted by the nRT-RIC.
pub trait XApp: Send {
    /// Stable application name (used for routing and reports).
    fn name(&self) -> &str;

    /// Called once when the platform starts the app.
    fn on_start(&mut self, ctx: &mut XAppContext<'_>) {
        let _ = ctx;
    }

    /// Called with each batch of telemetry records delivered by an E2
    /// indication this app subscribed to. `window_end` is the report
    /// window's closing timestamp (virtual network time).
    fn on_records(
        &mut self,
        ctx: &mut XAppContext<'_>,
        records: &[UeMobiFlow],
        window_end: Timestamp,
    );

    /// Called for messages published to topics this app registered for via
    /// [`crate::platform::SubscriptionSpec::topics`].
    fn on_message(&mut self, ctx: &mut XAppContext<'_>, topic: &str, payload: &[u8]) {
        let _ = (ctx, topic, payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authz::{Grants, XAppIdentity};
    use crate::router::Router;

    struct Recorder {
        seen: usize,
    }

    impl XApp for Recorder {
        fn name(&self) -> &str {
            "recorder"
        }

        fn on_records(
            &mut self,
            ctx: &mut XAppContext<'_>,
            records: &[UeMobiFlow],
            _window_end: Timestamp,
        ) {
            self.seen += records.len();
            ctx.publish("seen", &(self.seen as u32).to_be_bytes());
            ctx.send_control("*", ControlOut { payload: b"act".to_vec(), ..Default::default() });
        }
    }

    #[test]
    fn context_plumbing_works() {
        let sdl = SharedDataLayer::new();
        let router = Router::new();
        let scope = router
            .register(XAppIdentity::named("recorder"), Grants::none().publish("seen").control_all())
            .unwrap();
        let rx = router
            .register(XAppIdentity::named("sink"), Grants::none().subscribe("seen"))
            .unwrap()
            .subscribe("seen");
        let mut control = Vec::new();
        let mut ctx = XAppContext { sdl: &sdl, scope: &scope, control_out: &mut control };
        let mut app = Recorder { seen: 0 };
        app.on_records(&mut ctx, &[], Timestamp(0));
        assert_eq!(rx.try_recv().unwrap(), 0u32.to_be_bytes().to_vec());
        assert_eq!(
            control,
            vec![ControlOut { cell: None, trace: None, payload: b"act".to_vec(), broadcast: false }]
        );
    }

    #[test]
    fn send_control_to_pins_the_cell() {
        let sdl = SharedDataLayer::new();
        let scope = Router::new()
            .register(XAppIdentity::named("controller"), Grants::none().control_all())
            .unwrap();
        let mut control = Vec::new();
        let mut ctx = XAppContext { sdl: &sdl, scope: &scope, control_out: &mut control };
        let outs = [
            ControlOut { cell: Some(CellId(7)), payload: b"act".to_vec(), ..Default::default() },
            ControlOut {
                cell: Some(CellId(7)),
                trace: Some(42),
                payload: b"act".to_vec(),
                broadcast: false,
            },
            ControlOut {
                cell: Some(CellId(7)),
                trace: Some(43),
                payload: b"act".to_vec(),
                broadcast: true,
            },
        ];
        for out in &outs {
            assert!(ctx.send_control("*", out.clone()));
        }
        // Routing context rides through untouched, in send order.
        assert_eq!(control, outs);
    }

    #[test]
    fn scoped_context_gates_publish_and_control_by_grant() {
        let sdl = SharedDataLayer::new();
        let router = Router::new();
        let handle = router
            .register(
                XAppIdentity::named("partial"),
                Grants::none().publish("anomalies").control("release-ue"),
            )
            .unwrap();
        let anomalies = router
            .register(XAppIdentity::named("sink"), Grants::none().subscribe("anomalies"))
            .unwrap()
            .subscribe("anomalies");
        let mut control = Vec::new();
        let mut ctx = XAppContext { sdl: &sdl, scope: &handle, control_out: &mut control };
        // Granted topic goes through; ungranted one is dropped + counted.
        ctx.publish("anomalies", b"ok");
        ctx.publish("findings", b"spoof");
        assert_eq!(anomalies.try_recv().unwrap(), b"ok");
        // Per-kind control: granted kind queues, ungranted kind and the
        // wildcard kind are denied.
        let to_cell_1 = |payload: &[u8], broadcast| ControlOut {
            cell: Some(CellId(1)),
            trace: None,
            payload: payload.to_vec(),
            broadcast,
        };
        assert!(ctx.send_control("release-ue", to_cell_1(b"a", false)));
        assert!(!ctx.send_control("quarantine-cell", to_cell_1(b"q", true)));
        assert!(!ctx.send_control("*", ControlOut { payload: b"any".to_vec(), ..Default::default() }));
        assert_eq!(control.len(), 1);
        assert_eq!(router.denied(), 3);
    }
}
