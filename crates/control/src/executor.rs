//! The action executor: turns policy decisions into E2 Control Request
//! payloads and tracks each action's fate — sent, acked, retried, expired.
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

/// Delivery state of one tracked action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionState {
    /// Submitted but not yet handed to the transport.
    Pending,
    /// On the wire, awaiting an ack.
    Sent {
        /// Transmissions so far.
        attempts: u32,
        /// Virtual time of the latest transmission.
        last_sent: Timestamp,
    },
    /// Acknowledged by the RAN agent.
    Acked {
        /// Virtual time the ack was observed.
        at: Timestamp,
        /// Whether the agent accepted the request.
        success: bool,
    },
    /// TTL elapsed before any ack arrived.
    Expired,
    /// All attempts used without an ack.
    Exhausted,
}

/// One action plus its delivery bookkeeping.
#[derive(Debug, Clone)]
pub struct TrackedAction {
    /// The action under delivery.
    pub action: ControlAction,
    /// The cell whose owning agent must enforce it, when known (the RIC
    /// routes the Control Request by this).
    pub cell: Option<CellId>,
    /// Virtual time of the detection that produced it.
    pub detected_at: Timestamp,
    /// Virtual time the policy engine submitted it.
    submitted_at: Timestamp,
    /// Current delivery state.
    pub state: ActionState,
}

/// What one Control Ack resolved to, for metrics attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckResolution {
    /// The mitigation kind (see [`crate::MitigationAction::name`]).
    pub kind: &'static str,
    /// Whether the agent accepted the request.
    pub success: bool,
    /// Virtual detection→ack latency (set only on success).
    pub detection_to_ack: Option<Duration>,
    /// Causal trace id of the detection the action mitigated, if traced.
    pub trace: Option<u64>,
}

impl TrackedAction {
    /// Detection→ack latency, once acked as enforced.
    pub fn detection_to_ack(&self) -> Option<Duration> {
        match self.state {
            ActionState::Acked { at, success: true } => {
                Some(at.saturating_since(self.detected_at))
            }
            _ => None,
        }
    }
}

/// Encodes, ships, retries, and accounts for control actions.
#[derive(Debug, Default)]
pub struct ActionExecutor {
    config: ExecutorConfig,
    tracked: Vec<TrackedAction>,
    /// `tracked` indices of the actions still pending or on the wire, in
    /// submission order — all `take_due`, `on_ack` and `tick` ever need to
    /// visit, so they cost O(unresolved), not O(ever issued). An action an
    /// ack resolves stays listed until the next `tick` prunes it.
    live: Vec<usize>,
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
        self.live.push(self.tracked.len());
        self.tracked.push(TrackedAction {
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
        let mut due = Vec::new();
        for &idx in &self.live {
            let tracked = &mut self.tracked[idx];
            let attempts = match tracked.state {
                ActionState::Pending => 0,
                ActionState::Sent { attempts, last_sent }
                    if now.saturating_since(last_sent) >= self.config.retry_after
                        && attempts < self.config.max_attempts =>
                {
                    attempts
                }
                _ => continue,
            };
            tracked.state = ActionState::Sent { attempts: attempts + 1, last_sent: now };
            due.push(idx);
        }
        due.into_iter()
            .map(|idx| {
                let tracked = &self.tracked[idx];
                (tracked, tracked.action.encode())
            })
            .collect()
    }

    /// Settles the action `id` on the wire with one incoming ack and reports
    /// what it resolved. An ack for an action that is not on the wire —
    /// already resolved (a retry or a broadcast copy acked first, or the TTL
    /// expired) or never issued — is dropped and returns `None`.
    pub fn on_ack(&mut self, id: u32, success: bool, now: Timestamp) -> Option<AckResolution> {
        let idx = *self.live.iter().find(|&&idx| {
            let tracked = &self.tracked[idx];
            tracked.action.id == id && matches!(tracked.state, ActionState::Sent { .. })
        })?;
        let tracked = &mut self.tracked[idx];
        tracked.state = ActionState::Acked { at: now, success };
        Some(AckResolution {
            kind: tracked.action.action.name(),
            success,
            detection_to_ack: tracked.detection_to_ack(),
            trace: tracked.action.trace,
        })
    }

    /// Advances TTL expiry and attempt exhaustion.
    pub fn tick(&mut self, now: Timestamp) {
        let (tracked, config) = (&mut self.tracked, &self.config);
        self.live.retain(|&idx| {
            let tracked = &mut tracked[idx];
            if !matches!(tracked.state, ActionState::Pending | ActionState::Sent { .. }) {
                return false;
            }
            if now.saturating_since(tracked.submitted_at) >= tracked.action.ttl {
                tracked.state = ActionState::Expired;
                return false;
            }
            if let ActionState::Sent { attempts, last_sent } = tracked.state {
                if attempts >= config.max_attempts
                    && now.saturating_since(last_sent) >= config.retry_after
                {
                    tracked.state = ActionState::Exhausted;
                    return false;
                }
            }
            true
        });
    }

    /// Every tracked action with its current state.
    pub fn outcomes(&self) -> &[TrackedAction] {
        &self.tracked
    }

    /// Detection→ack latencies for every successfully acked action.
    pub fn detection_to_ack_latencies(&self) -> Vec<Duration> {
        self.tracked.iter().filter_map(|t| t.detection_to_ack()).collect()
    }

    /// Count of actions in each terminal bucket: (acked-ok, acked-failed,
    /// expired, exhausted).
    pub fn tally(&self) -> (usize, usize, usize, usize) {
        let mut acked = 0;
        let mut failed = 0;
        let mut expired = 0;
        let mut exhausted = 0;
        for t in &self.tracked {
            match t.state {
                ActionState::Acked { success: true, .. } => acked += 1,
                ActionState::Acked { success: false, .. } => failed += 1,
                ActionState::Expired => expired += 1,
                ActionState::Exhausted => exhausted += 1,
                _ => {}
            }
        }
        (acked, failed, expired, exhausted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::MitigationAction;
    use proptest::prelude::*;
    use xsec_types::Rnti;

    /// `take_due` as it was before the live list — a scan of every action
    /// ever tracked, as `(id, payload)`. With [`full_scan_tick`], the
    /// reference the live-list executor must match step for step.
    fn full_scan_take_due(ex: &mut ActionExecutor, now: Timestamp) -> Vec<(u32, Vec<u8>)> {
        let mut due = Vec::new();
        for tracked in &mut ex.tracked {
            let attempts = match tracked.state {
                ActionState::Pending => 0,
                ActionState::Sent { attempts, last_sent }
                    if now.saturating_since(last_sent) >= ex.config.retry_after
                        && attempts < ex.config.max_attempts =>
                {
                    attempts
                }
                _ => continue,
            };
            tracked.state = ActionState::Sent { attempts: attempts + 1, last_sent: now };
            due.push((tracked.action.id, tracked.action.encode()));
        }
        due
    }

    /// `tick` as it was before the live list.
    fn full_scan_tick(ex: &mut ActionExecutor, now: Timestamp) {
        for tracked in &mut ex.tracked {
            match tracked.state {
                ActionState::Pending | ActionState::Sent { .. } => {
                    if now.saturating_since(tracked.submitted_at) >= tracked.action.ttl {
                        tracked.state = ActionState::Expired;
                    } else if let ActionState::Sent { attempts, last_sent } = tracked.state {
                        if attempts >= ex.config.max_attempts
                            && now.saturating_since(last_sent) >= ex.config.retry_after
                        {
                            tracked.state = ActionState::Exhausted;
                        }
                    }
                }
                _ => {}
            }
        }
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
        assert_eq!(res.kind, "blacklist-rnti");
        assert!(res.success);
        assert_eq!(res.trace, Some(101), "resolution names the trace it closes");
        assert_eq!(res.detection_to_ack, Some(Duration::from_millis(130)));
        assert_eq!(ex.tally(), (1, 0, 0, 0));
        assert_eq!(ex.detection_to_ack_latencies(), vec![Duration::from_millis(130)]);
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
        ex.tick(ms(240));
        assert_eq!(ex.tally(), (0, 0, 0, 1));
    }

    #[test]
    fn ttl_expiry_beats_retries() {
        let mut ex = ActionExecutor::default();
        let mut short = action(1);
        short.ttl = Duration::from_millis(50);
        let t0 = ms(0);
        ex.submit(short, None, t0, t0);
        assert_eq!(ex.take_due(t0).len(), 1);
        ex.tick(ms(60));
        assert_eq!(ex.tally(), (0, 0, 1, 0));
        // A late ack for the expired action resolves nothing, and a fresh
        // action settles on its own id.
        ex.submit(action(2), None, t0, ms(70));
        assert_eq!(ex.take_due(ms(70)).len(), 1);
        assert_eq!(ex.on_ack(1, true, ms(80)), None, "action 1 expired");
        assert!(ex.on_ack(2, true, ms(90)).is_some(), "ack settles action 2");
        assert_eq!(ex.tally(), (1, 0, 1, 0));
        assert_eq!(ex.outcomes()[0].state, ActionState::Expired);
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
        assert!(!failed.success);
        assert_eq!(failed.detection_to_ack, None, "failed acks carry no latency");
        assert_eq!(ex.on_ack(2, true, ms(15)), None, "action 2 already resolved");
        assert_eq!(ex.on_ack(9, true, ms(15)), None, "no action 9");
        assert!(ex.on_ack(1, true, ms(20)).is_some());
        let states: Vec<_> = ex.outcomes().iter().map(|t| (t.action.id, t.state)).collect();
        assert!(matches!(states[0], (1, ActionState::Acked { success: true, .. })));
        assert!(matches!(states[1], (2, ActionState::Acked { success: false, .. })));
    }

    proptest! {
        /// Random submit / take_due / ack / tick schedules: the live-list
        /// executor ships the same payloads in the same order and leaves
        /// every action in the same state as the full scans it replaced.
        /// (`full` never prunes its `live`, so its `on_ack` scans every
        /// action ever tracked.)
        #[test]
        fn prop_live_list_matches_the_full_scan(
            ops in proptest::collection::vec((0u8..6, 1u64..400, any::<u16>()), 1..120),
        ) {
            let mut live = ActionExecutor::default();
            let mut full = ActionExecutor::default();
            let mut now = Timestamp(0);
            let mut next_id = 0u32;
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
                        full.submit(a, None, now, now);
                    }
                    2 => {
                        let due: Vec<(u32, Vec<u8>)> = live
                            .take_due(now)
                            .into_iter()
                            .map(|(tracked, payload)| (tracked.action.id, payload))
                            .collect();
                        prop_assert_eq!(due, full_scan_take_due(&mut full, now));
                    }
                    3 | 4 => {
                        let success = word / 3 % 2 == 0;
                        // Ack an action on the wire, any issued one (often
                        // already resolved), or one never issued.
                        let on_wire: Vec<u32> = live
                            .outcomes()
                            .iter()
                            .filter(|t| matches!(t.state, ActionState::Sent { .. }))
                            .map(|t| t.action.id)
                            .collect();
                        let id = match word % 3 {
                            0 => next_id + 1,
                            1 => u32::from(word) % next_id.max(1) + 1,
                            _ => on_wire
                                .get(usize::from(word) % on_wire.len().max(1))
                                .map_or(0, |&id| id),
                        };
                        prop_assert_eq!(
                            live.on_ack(id, success, now),
                            full.on_ack(id, success, now)
                        );
                    }
                    _ => {
                        live.tick(now);
                        full_scan_tick(&mut full, now);
                    }
                }
                let states = |ex: &ActionExecutor| -> Vec<(u32, ActionState)> {
                    ex.outcomes().iter().map(|t| (t.action.id, t.state)).collect()
                };
                prop_assert_eq!(states(&live), states(&full));
                prop_assert_eq!(live.tally(), full.tally());
            }
            // A tick leaves exactly the unresolved actions listed.
            live.tick(now);
            let unresolved: Vec<usize> = (0..live.tracked.len())
                .filter(|&idx| matches!(
                    live.tracked[idx].state,
                    ActionState::Pending | ActionState::Sent { .. }
                ))
                .collect();
            prop_assert_eq!(&live.live, &unresolved);
        }
    }
}
