//! The action executor: turns policy decisions into E2 Control Request
//! payloads, ships and retries them, and hands back each action's fate —
//! acked, failed, expired or exhausted — exactly once, as it lets the
//! action go. Counting those fates is the caller's (the mitigator keeps
//! them in the metrics registry); the executor holds only what is in flight.
//!
//! An ack names the action it settles by the action's id (the RIC matches
//! each E2 Control Ack to its request and relays that id), so a lost,
//! repeated or stray ack settles nothing but its own action. Latency is
//! measured in *virtual* time — from the detection timestamp carried by the
//! finding to the xApp-clock time the ack is observed — which is the paper's
//! detection→mitigation budget.

use crate::action::ControlAction;
use xsec_types::{CellId, Duration, Timestamp};

/// Retry/backoff tuning for the executor.
#[derive(Debug, Clone)]
struct ExecutorConfig {
    /// Transmissions attempted per action before giving up.
    max_attempts: u32,
    /// Re-send an unacked action after this long.
    retry_after: Duration,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig { max_attempts: 3, retry_after: Duration::from_millis(200) }
    }
}

/// Delivery state of one in-flight action.
#[derive(Debug, Clone, Copy)]
enum ActionState {
    /// Submitted but not yet handed to the transport.
    Pending,
    /// On the wire, awaiting an ack.
    Sent {
        /// Transmissions so far.
        attempts: u32,
        /// Virtual time of the latest transmission.
        last_sent: Timestamp,
    },
}

/// One in-flight action plus its delivery bookkeeping.
#[derive(Debug, Clone)]
pub struct TrackedAction {
    /// The action under delivery.
    pub action: ControlAction,
    /// The cell whose owning agent must enforce it, when known (the RIC
    /// routes the Control Request by this).
    pub cell: Option<CellId>,
    /// Virtual time of the detection that produced it.
    detected_at: Timestamp,
    /// Virtual time the policy engine submitted it.
    submitted_at: Timestamp,
    /// Current delivery state.
    state: ActionState,
}

/// How an action left the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// The agent enforced it.
    Acked {
        /// Virtual detection→ack latency.
        detection_to_ack: Duration,
    },
    /// The agent refused it.
    Failed,
    /// Its TTL elapsed before any ack arrived.
    Expired,
    /// Every attempt went unacked.
    Exhausted,
}

impl Fate {
    /// Stable metric-name form: `xsec_control_actions_{label}_total`.
    pub fn label(self) -> &'static str {
        match self {
            Fate::Acked { .. } => "acked",
            Fate::Failed => "failed",
            Fate::Expired => "expired",
            Fate::Exhausted => "exhausted",
        }
    }
}

/// One action's terminal fate, reported exactly once, as it leaves the
/// executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolution {
    /// The mitigation kind (see [`crate::MitigationAction::name`]).
    pub kind: &'static str,
    /// Causal trace id of the detection the action mitigated, if traced.
    pub trace: Option<u64>,
    /// How it ended.
    pub fate: Fate,
}

impl TrackedAction {
    fn resolve(&self, fate: Fate) -> Resolution {
        Resolution { kind: self.action.action.name(), trace: self.action.trace, fate }
    }
}

/// Encodes, ships and retries control actions. It holds only the actions
/// still pending or on the wire: each leaves the moment it resolves, and
/// its [`Resolution`] is the caller's to count.
#[derive(Debug, Default)]
pub struct ActionExecutor {
    config: ExecutorConfig,
    /// Unresolved actions in submission order — the order `take_due` ships
    /// in, which resolution keeps by removing in place.
    in_flight: Vec<TrackedAction>,
}

impl ActionExecutor {
    /// Registers an action for delivery. `cell` pins the action to the agent
    /// serving that cell (None = any agent).
    pub fn submit(
        &mut self,
        action: ControlAction,
        cell: Option<CellId>,
        detected_at: Timestamp,
        now: Timestamp,
    ) {
        self.in_flight.push(TrackedAction {
            action,
            cell,
            detected_at,
            submitted_at: now,
            state: ActionState::Pending,
        });
    }

    /// Returns every action due on the wire now — first transmissions for
    /// pending actions plus retries for overdue unacked ones — each with its
    /// encoded payload.
    pub fn take_due(&mut self, now: Timestamp) -> Vec<(&TrackedAction, Vec<u8>)> {
        let config = &self.config;
        self.in_flight
            .iter_mut()
            .filter_map(|tracked| {
                let attempts = match tracked.state {
                    ActionState::Pending => 0,
                    ActionState::Sent { attempts, last_sent }
                        if now.saturating_since(last_sent) >= config.retry_after
                            && attempts < config.max_attempts =>
                    {
                        attempts
                    }
                    ActionState::Sent { .. } => return None,
                };
                tracked.state = ActionState::Sent { attempts: attempts + 1, last_sent: now };
                let payload = tracked.action.encode();
                Some((&*tracked, payload))
            })
            .collect()
    }

    /// Settles the action `id` on the wire with one incoming ack and reports
    /// what it resolved. An ack for an action that is not on the wire —
    /// already resolved (a retry or a broadcast copy acked first, or the TTL
    /// expired) or never issued — is dropped and returns `None`.
    pub fn on_ack(&mut self, id: u32, success: bool, now: Timestamp) -> Option<Resolution> {
        let idx = self.in_flight.iter().position(|tracked| {
            tracked.action.id == id && matches!(tracked.state, ActionState::Sent { .. })
        })?;
        let tracked = self.in_flight.remove(idx);
        let fate = if success {
            Fate::Acked { detection_to_ack: now.saturating_since(tracked.detected_at) }
        } else {
            Fate::Failed
        };
        Some(tracked.resolve(fate))
    }

    /// Advances TTL expiry and attempt exhaustion, returning what resolved.
    pub fn tick(&mut self, now: Timestamp) -> Vec<Resolution> {
        let mut resolved = Vec::new();
        let config = &self.config;
        self.in_flight.retain(|tracked| {
            let fate = if now.saturating_since(tracked.submitted_at) >= tracked.action.ttl {
                Fate::Expired
            } else if matches!(tracked.state, ActionState::Sent { attempts, last_sent }
                if attempts >= config.max_attempts
                    && now.saturating_since(last_sent) >= config.retry_after)
            {
                Fate::Exhausted
            } else {
                return true;
            };
            resolved.push(tracked.resolve(fate));
            false
        });
        resolved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::MitigationAction;
    use proptest::prelude::*;
    use xsec_types::Rnti;

    /// Every state an action passes through, terminal ones included.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum ModelState {
        Pending,
        Sent { attempts: u32, last_sent: Timestamp },
        Acked { success: bool },
        Expired,
        Exhausted,
    }

    struct ModelAction {
        action: ControlAction,
        detected_at: Timestamp,
        submitted_at: Timestamp,
        state: ModelState,
    }

    /// The reference the executor must match step for step: the full-scan
    /// executor it replaced, which keeps every action ever submitted with
    /// its terminal state and visits all of them on every call.
    #[derive(Default)]
    struct FullScan {
        config: ExecutorConfig,
        actions: Vec<ModelAction>,
    }

    impl FullScan {
        fn submit(&mut self, action: ControlAction, detected_at: Timestamp, now: Timestamp) {
            self.actions.push(ModelAction {
                action,
                detected_at,
                submitted_at: now,
                state: ModelState::Pending,
            });
        }

        /// `(id, payload)` of every action due now.
        fn take_due(&mut self, now: Timestamp) -> Vec<(u32, Vec<u8>)> {
            let mut due = Vec::new();
            for model in &mut self.actions {
                let attempts = match model.state {
                    ModelState::Pending => 0,
                    ModelState::Sent { attempts, last_sent }
                        if now.saturating_since(last_sent) >= self.config.retry_after
                            && attempts < self.config.max_attempts =>
                    {
                        attempts
                    }
                    _ => continue,
                };
                model.state = ModelState::Sent { attempts: attempts + 1, last_sent: now };
                due.push((model.action.id, model.action.encode()));
            }
            due
        }

        fn on_ack(&mut self, id: u32, success: bool, now: Timestamp) -> Option<Resolution> {
            let model = self.actions.iter_mut().find(|model| {
                model.action.id == id && matches!(model.state, ModelState::Sent { .. })
            })?;
            model.state = ModelState::Acked { success };
            let fate = if success {
                Fate::Acked { detection_to_ack: now.saturating_since(model.detected_at) }
            } else {
                Fate::Failed
            };
            Some(model.resolution(fate))
        }

        /// The resolutions of the actions this tick moved to Expired or
        /// Exhausted, in submission order.
        fn tick(&mut self, now: Timestamp) -> Vec<Resolution> {
            let mut resolved = Vec::new();
            for model in &mut self.actions {
                if !matches!(model.state, ModelState::Pending | ModelState::Sent { .. }) {
                    continue;
                }
                if now.saturating_since(model.submitted_at) >= model.action.ttl {
                    model.state = ModelState::Expired;
                    resolved.push(model.resolution(Fate::Expired));
                } else if let ModelState::Sent { attempts, last_sent } = model.state {
                    if attempts >= self.config.max_attempts
                        && now.saturating_since(last_sent) >= self.config.retry_after
                    {
                        model.state = ModelState::Exhausted;
                        resolved.push(model.resolution(Fate::Exhausted));
                    }
                }
            }
            resolved
        }

        fn ids_in(&self, states: impl Fn(ModelState) -> bool) -> Vec<u32> {
            self.actions.iter().filter(|m| states(m.state)).map(|m| m.action.id).collect()
        }

        /// Every terminal state as its fate label, sorted.
        fn terminal_labels(&self) -> Vec<&'static str> {
            let mut labels: Vec<_> = self
                .actions
                .iter()
                .filter_map(|m| match m.state {
                    ModelState::Acked { success: true } => Some("acked"),
                    ModelState::Acked { success: false } => Some("failed"),
                    ModelState::Expired => Some("expired"),
                    ModelState::Exhausted => Some("exhausted"),
                    ModelState::Pending | ModelState::Sent { .. } => None,
                })
                .collect();
            labels.sort_unstable();
            labels
        }
    }

    impl ModelAction {
        fn resolution(&self, fate: Fate) -> Resolution {
            Resolution { kind: self.action.action.name(), trace: self.action.trace, fate }
        }
    }

    fn unresolved(state: ModelState) -> bool {
        matches!(state, ModelState::Pending | ModelState::Sent { .. })
    }

    /// Ids the executor still holds, in order.
    fn held(ex: &ActionExecutor) -> Vec<u32> {
        ex.in_flight.iter().map(|t| t.action.id).collect()
    }

    fn ms(v: u64) -> Timestamp {
        Timestamp(v * 1_000)
    }

    fn action(id: u32) -> ControlAction {
        ControlAction {
            id,
            ttl: Duration::from_secs(10),
            action: MitigationAction::BlacklistRnti { rnti: Rnti(id as u16) },
            trace: Some(id as u64 + 100),
        }
    }

    fn resolution(id: u32, fate: Fate) -> Resolution {
        Resolution { kind: "blacklist-rnti", trace: Some(id as u64 + 100), fate }
    }

    #[test]
    fn submit_send_ack_measures_detection_latency() {
        let mut ex = ActionExecutor::default();
        let detected = ms(100);
        ex.submit(action(1), Some(CellId(3)), detected, ms(150));
        let due = ex.take_due(ms(150));
        assert_eq!(due.len(), 1);
        let (tracked, payload) = &due[0];
        assert_eq!(tracked.cell, Some(CellId(3)), "routing cell rides along");
        assert_eq!(tracked.action, action(1));
        assert_eq!(ControlAction::decode(payload).unwrap(), action(1));
        // Nothing further due before the retry deadline.
        assert!(ex.take_due(ms(200)).is_empty());
        let res = ex.on_ack(1, true, ms(230)).expect("ack resolves the send");
        assert_eq!(res.trace, Some(101), "resolution names the trace it closes");
        assert_eq!(
            res,
            resolution(1, Fate::Acked { detection_to_ack: Duration::from_millis(130) })
        );
        assert_eq!(res.fate.label(), "acked");
        assert!(held(&ex).is_empty(), "the acked action is let go");
        assert!(ex.tick(ms(10_000)).is_empty(), "and never resolves again");
    }

    #[test]
    fn unacked_actions_retry_then_exhaust() {
        let mut ex = ActionExecutor {
            config: ExecutorConfig { max_attempts: 2, retry_after: Duration::from_millis(100) },
            ..Default::default()
        };
        let t0 = ms(0);
        ex.submit(action(1), None, t0, t0);
        assert_eq!(ex.take_due(t0).len(), 1);
        assert_eq!(ex.take_due(ms(120)).len(), 1, "retry due");
        assert!(ex.take_due(ms(240)).is_empty(), "attempts spent");
        assert_eq!(ex.tick(ms(240)), [resolution(1, Fate::Exhausted)]);
        assert!(held(&ex).is_empty());
        assert!(ex.tick(ms(20_000)).is_empty(), "reported once, not expired later");
    }

    #[test]
    fn ttl_expiry_beats_retries() {
        let mut ex = ActionExecutor::default();
        let mut short = action(1);
        short.ttl = Duration::from_millis(50);
        let t0 = ms(0);
        ex.submit(short, None, t0, t0);
        assert_eq!(ex.take_due(t0).len(), 1);
        assert_eq!(ex.tick(ms(60)), [resolution(1, Fate::Expired)]);
        assert!(held(&ex).is_empty());
        // A late ack for the expired action resolves nothing, and a fresh
        // action settles on its own id.
        ex.submit(action(2), None, t0, ms(70));
        assert_eq!(ex.take_due(ms(70)).len(), 1);
        assert_eq!(ex.on_ack(1, true, ms(80)), None, "action 1 expired");
        assert_eq!(
            ex.on_ack(2, true, ms(90)),
            Some(resolution(2, Fate::Acked { detection_to_ack: Duration::from_millis(90) })),
            "ack settles action 2"
        );
        assert!(held(&ex).is_empty());
    }

    #[test]
    fn acks_settle_the_action_they_name() {
        let mut ex = ActionExecutor::default();
        let t0 = ms(0);
        ex.submit(action(1), None, t0, t0);
        ex.submit(action(2), None, t0, t0);
        assert_eq!(ex.take_due(t0).len(), 2);
        // Out of send order, then a repeat and an id never issued.
        let failed = ex.on_ack(2, false, ms(10)).unwrap();
        assert_eq!(failed, resolution(2, Fate::Failed), "failed acks carry no latency");
        assert_eq!(held(&ex), [1]);
        assert_eq!(ex.on_ack(2, true, ms(15)), None, "action 2 already resolved");
        assert_eq!(ex.on_ack(9, true, ms(15)), None, "no action 9");
        assert_eq!(
            ex.on_ack(1, true, ms(20)),
            Some(resolution(1, Fate::Acked { detection_to_ack: Duration::from_millis(20) }))
        );
        assert!(held(&ex).is_empty());
    }

    proptest! {
        /// Random submit / take_due / ack / tick schedules: the executor
        /// ships the same payloads in the same order, resolves the same
        /// actions the same way, and holds exactly the unresolved ones, as
        /// the full-scan model that keeps every action forever — and every
        /// action the model left in a terminal state was reported once.
        #[test]
        fn prop_live_list_matches_the_full_scan(
            ops in proptest::collection::vec((0u8..6, 1u64..400, any::<u16>()), 1..120),
        ) {
            let mut live = ActionExecutor::default();
            let mut full = FullScan::default();
            let mut now = Timestamp(0);
            let mut next_id = 0u32;
            let mut reported = Vec::new();
            for (op, step_ms, word) in ops {
                now += Duration::from_millis(step_ms);
                match op {
                    0 | 1 => {
                        next_id += 1;
                        let mut a = action(next_id);
                        a.ttl = Duration::from_millis(u64::from(word % 2_000) + 1);
                        if word % 3 == 0 {
                            a.trace = None;
                        }
                        live.submit(a.clone(), None, now, now);
                        full.submit(a, now, now);
                    }
                    2 => {
                        let due: Vec<(u32, Vec<u8>)> = live
                            .take_due(now)
                            .into_iter()
                            .map(|(tracked, payload)| (tracked.action.id, payload))
                            .collect();
                        prop_assert_eq!(due, full.take_due(now));
                    }
                    3 | 4 => {
                        let success = word / 3 % 2 == 0;
                        // Ack an action on the wire, any issued one (often
                        // already resolved), or one never issued.
                        let on_wire = full.ids_in(|s| matches!(s, ModelState::Sent { .. }));
                        let id = match word % 3 {
                            0 => next_id + 1,
                            1 => u32::from(word) % next_id.max(1) + 1,
                            _ => on_wire
                                .get(usize::from(word) % on_wire.len().max(1))
                                .map_or(0, |&id| id),
                        };
                        let res = live.on_ack(id, success, now);
                        prop_assert_eq!(res, full.on_ack(id, success, now));
                        reported.extend(res.map(|r| r.fate.label()));
                    }
                    _ => {
                        let resolved = live.tick(now);
                        prop_assert_eq!(&resolved, &full.tick(now));
                        reported.extend(resolved.iter().map(|r| r.fate.label()));
                    }
                }
                prop_assert_eq!(held(&live), full.ids_in(unresolved));
            }
            reported.sort_unstable();
            prop_assert_eq!(reported, full.terminal_labels());
        }
    }
}
