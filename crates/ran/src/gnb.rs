//! The simulated gNodeB: O-DU MAC functions (RNTI allocation, admission
//! control) and O-CU RRC handling (connection management, AS security, NAS
//! relay toward the AMF).
//!
//! Like the [`crate::amf::Amf`], the gNB is a pure state machine: the
//! simulator feeds it uplink messages and AMF actions, it returns
//! [`GnbAction`]s. Resource management is the part that makes the DoS
//! attacks *mean* something:
//!
//! * every RRC connection holds a C-RNTI and a UE context until it is
//!   released or its guard timer expires;
//! * when the context table is full, new `RRCSetupRequest`s get `RRCReject`
//!   — the observable denial of service the BTS DoS flood causes.

use crate::amf::AmfAction;
use std::collections::{HashMap, VecDeque};
use xsec_control::{ControlAction, MitigationAction};
use xsec_obs::{Counter, Obs};
use xsec_proto::{L3Message, MobileIdentity, NasMessage, RrcMessage};
use xsec_types::{
    CellId, CipherAlg, Duration, EstablishmentCause, IntegrityAlg, ReleaseCause, Rnti, Timestamp,
    Tmsi,
};

/// Maximum simultaneous UE contexts (admission control).
const MAX_CONTEXTS: usize = 48;
/// How long an un-registered context may live before the CU garbage
/// collects it (stalled handshakes — the resource the BTS DoS burns).
const SETUP_GUARD: Duration = Duration::from_millis(600);
/// First C-RNTI to hand out (OAI starts around 0x4601).
const FIRST_RNTI: u16 = 0x4601;

/// Where a gNB sits in a deployment: its cell and its connection ids.
#[derive(Debug, Clone)]
pub struct GnbConfig {
    /// Serving cell id.
    pub cell: CellId,
    /// First DU-local connection id. Multi-cell deployments give each cell a
    /// disjoint range so `du_ue_id` stays globally unique across gNBs.
    pub first_conn: u32,
}

impl Default for GnbConfig {
    fn default() -> Self {
        GnbConfig {
            cell: CellId(1),
            first_conn: 1,
        }
    }
}

/// Something the gNB wants the simulator to do.
#[derive(Debug, Clone, PartialEq)]
pub enum GnbAction {
    /// Transmit a downlink L3 message on connection `conn`.
    Downlink {
        /// DU-local UE association.
        conn: u32,
        /// The message.
        msg: L3Message,
    },
    /// Forward an uplink NAS message to the AMF.
    ToAmf {
        /// DU-local UE association.
        conn: u32,
        /// The NAS message.
        msg: NasMessage,
    },
    /// The context was freed (after release/expiry) — the AMF should be told.
    ContextFreed {
        /// DU-local UE association.
        conn: u32,
    },
}

/// Per-connection CU context (the resource under attack).
#[derive(Debug, Clone)]
pub struct UeContext {
    /// Assigned C-RNTI.
    pub rnti: Rnti,
    /// When the context was admitted.
    created_at: Timestamp,
    /// Establishment cause from the setup request.
    pub cause: EstablishmentCause,
    /// Negotiated ciphering algorithm, once NAS security ran.
    pub cipher: Option<CipherAlg>,
    /// Negotiated integrity algorithm, once NAS security ran.
    pub integrity: Option<IntegrityAlg>,
    /// Temporary identity bound to this context, if known.
    pub tmsi: Option<Tmsi>,
    /// Whether registration completed.
    registered: bool,
    /// Whether AS (RRC-level) security was activated.
    as_secured: bool,
}

/// Why admission failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// Context table full.
    Congestion,
    /// No free C-RNTI.
    RntiExhausted,
    /// A RIC rate-limit on this establishment cause is saturated; the MAC
    /// drops the setup request silently (no reject, no context).
    RateLimited,
    /// The cell is under a RIC admission quarantine.
    Quarantined,
}

/// A RIC-installed cap on admissions carrying one establishment cause.
#[derive(Debug, Clone)]
struct RateLimit {
    max_setups: u16,
    window: Duration,
    until: Timestamp,
    recent: VecDeque<Timestamp>,
}

/// Point-in-time counter snapshot for reports and the DoS experiments. The
/// counters themselves live in the `xsec-obs` registry (metric names
/// `xsec_ran_gnb_*_total`); this struct is a read-out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GnbStats {
    /// Connections admitted.
    pub admitted: u64,
    /// Setup requests rejected by admission control.
    pub rejected: u64,
    /// Contexts garbage-collected by the setup guard timer.
    pub guard_expired: u64,
    /// Connections released normally.
    pub released: u64,
    /// Setup requests silently dropped by RIC mitigations (rate limits and
    /// cell quarantine).
    pub mitigation_dropped: u64,
    /// Uplink messages dropped because their C-RNTI is blacklisted.
    pub blacklist_dropped: u64,
    /// Connections detached by a RIC force-reauth action.
    pub forced_reauth: u64,
}

/// Registry-backed gNB counters (the single observability path).
#[derive(Debug, Clone)]
struct GnbMetrics {
    admitted: Counter,
    rejected: Counter,
    guard_expired: Counter,
    released: Counter,
    mitigation_dropped: Counter,
    blacklist_dropped: Counter,
    forced_reauth: Counter,
}

impl GnbMetrics {
    fn register(obs: &Obs) -> Self {
        GnbMetrics {
            admitted: obs.counter("xsec_ran_gnb_admitted_total", &[]),
            rejected: obs.counter("xsec_ran_gnb_rejected_total", &[]),
            guard_expired: obs.counter("xsec_ran_gnb_guard_expired_total", &[]),
            released: obs.counter("xsec_ran_gnb_released_total", &[]),
            mitigation_dropped: obs.counter("xsec_ran_gnb_mitigation_dropped_total", &[]),
            blacklist_dropped: obs.counter("xsec_ran_gnb_blacklist_dropped_total", &[]),
            forced_reauth: obs.counter("xsec_ran_gnb_forced_reauth_total", &[]),
        }
    }
}

/// The gNB state machine (DU + CU).
#[derive(Debug)]
pub struct Gnb {
    config: GnbConfig,
    contexts: HashMap<u32, UeContext>,
    rnti_cursor: u16,
    next_conn: u32,
    metrics: GnbMetrics,
    /// RIC-blacklisted C-RNTIs → enforcement deadline.
    blacklist: HashMap<u16, Timestamp>,
    /// RIC-installed per-cause admission caps.
    rate_limits: HashMap<EstablishmentCause, RateLimit>,
    /// RIC admission quarantine deadline, if one is active.
    quarantine_until: Option<Timestamp>,
}

impl Gnb {
    /// Creates a gNB with the given configuration.
    pub fn new(config: GnbConfig) -> Self {
        let next_conn = config.first_conn;
        Gnb {
            config,
            contexts: HashMap::new(),
            rnti_cursor: FIRST_RNTI,
            next_conn,
            metrics: GnbMetrics::register(&Obs::new()),
            blacklist: HashMap::new(),
            rate_limits: HashMap::new(),
            quarantine_until: None,
        }
    }

    /// Re-homes the gNB's counters into `obs` (accumulated counts are
    /// carried over), so a simulation attached to a pipeline's registry
    /// reports through it.
    pub fn attach_obs(&mut self, obs: &Obs) {
        let stats = self.stats();
        let metrics = GnbMetrics::register(obs);
        metrics.admitted.add(stats.admitted);
        metrics.rejected.add(stats.rejected);
        metrics.guard_expired.add(stats.guard_expired);
        metrics.released.add(stats.released);
        metrics.mitigation_dropped.add(stats.mitigation_dropped);
        metrics.blacklist_dropped.add(stats.blacklist_dropped);
        metrics.forced_reauth.add(stats.forced_reauth);
        self.metrics = metrics;
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> GnbStats {
        GnbStats {
            admitted: self.metrics.admitted.get(),
            rejected: self.metrics.rejected.get(),
            guard_expired: self.metrics.guard_expired.get(),
            released: self.metrics.released.get(),
            mitigation_dropped: self.metrics.mitigation_dropped.get(),
            blacklist_dropped: self.metrics.blacklist_dropped.get(),
            forced_reauth: self.metrics.forced_reauth.get(),
        }
    }

    /// Live context count.
    pub fn active_contexts(&self) -> usize {
        self.contexts.len()
    }

    /// Read access to a context (for telemetry snapshots).
    pub fn context(&self, conn: u32) -> Option<&UeContext> {
        self.contexts.get(&conn)
    }

    fn alloc_rnti(&mut self, now: Timestamp) -> Option<Rnti> {
        let in_use: std::collections::HashSet<u16> =
            self.contexts.values().map(|c| c.rnti.0).collect();
        // Walk the C-RNTI space from the cursor; bounded scan.
        for _ in 0..=(Rnti::MAX.0 - Rnti::MIN.0) {
            let candidate = self.rnti_cursor;
            self.rnti_cursor = if self.rnti_cursor >= Rnti::MAX.0 {
                Rnti::MIN.0
            } else {
                self.rnti_cursor + 1
            };
            if !in_use.contains(&candidate)
                && Rnti(candidate).is_valid_c_rnti()
                && !self.is_blacklisted(Rnti(candidate), now)
            {
                return Some(Rnti(candidate));
            }
        }
        None
    }

    fn is_blacklisted(&self, rnti: Rnti, now: Timestamp) -> bool {
        self.blacklist.get(&rnti.0).is_some_and(|until| now < *until)
    }

    /// Admission control + RNTI allocation for a new `RRCSetupRequest`.
    pub fn admit(&mut self, now: Timestamp, cause: EstablishmentCause) -> Result<u32, AdmitError> {
        if self.quarantine_until.is_some_and(|until| now < until) {
            self.metrics.mitigation_dropped.inc();
            return Err(AdmitError::Quarantined);
        }
        if let Some(limit) = self.rate_limits.get_mut(&cause) {
            if now < limit.until {
                while limit
                    .recent
                    .front()
                    .is_some_and(|&at| now.saturating_since(at) >= limit.window)
                {
                    limit.recent.pop_front();
                }
                if limit.recent.len() >= limit.max_setups as usize {
                    self.metrics.mitigation_dropped.inc();
                    return Err(AdmitError::RateLimited);
                }
                limit.recent.push_back(now);
            }
        }
        if self.contexts.len() >= MAX_CONTEXTS {
            self.metrics.rejected.inc();
            return Err(AdmitError::Congestion);
        }
        let Some(rnti) = self.alloc_rnti(now) else {
            self.metrics.rejected.inc();
            return Err(AdmitError::RntiExhausted);
        };
        let conn = self.next_conn;
        self.next_conn += 1;
        self.contexts.insert(
            conn,
            UeContext {
                rnti,
                created_at: now,
                cause,
                cipher: None,
                integrity: None,
                tmsi: None,
                registered: false,
                as_secured: false,
            },
        );
        self.metrics.admitted.inc();
        Ok(conn)
    }

    /// Handles an uplink L3 message on an admitted connection.
    ///
    /// `RRCSetupRequest` is *not* handled here — the simulator calls
    /// [`Gnb::admit`] first and replies `RRCSetup`/`RRCReject` itself, since
    /// the request arrives before any context exists.
    pub fn handle_uplink(&mut self, conn: u32, msg: &L3Message) -> Vec<GnbAction> {
        let Some(ctx) = self.contexts.get_mut(&conn) else {
            return Vec::new(); // stale message for a freed context
        };
        match msg {
            L3Message::Rrc(rrc) => match rrc {
                RrcMessage::SetupComplete { nas } | RrcMessage::UlInformationTransfer { nas } => {
                    Self::relay_uplink_nas(ctx, conn, nas)
                }
                RrcMessage::SecurityModeComplete => {
                    ctx.as_secured = true;
                    // AS security done → finish the ladder with an RRC
                    // reconfiguration (bearer setup).
                    vec![GnbAction::Downlink {
                        conn,
                        msg: L3Message::Rrc(RrcMessage::Reconfiguration),
                    }]
                }
                RrcMessage::ReconfigurationComplete => Vec::new(),
                RrcMessage::ReestablishmentRequest { .. } => vec![GnbAction::Downlink {
                    conn,
                    msg: L3Message::Rrc(RrcMessage::Reestablishment),
                }],
                _ => Vec::new(),
            },
            // NAS sent bare (the simulator's shorthand for
            // ULInformationTransfer) — relay to the AMF.
            L3Message::Nas(nas) => Self::relay_uplink_nas(ctx, conn, nas),
        }
    }

    /// Relays one uplink NAS message to the AMF, bare or piggybacked alike,
    /// and binds the 5G-S-TMSI it presents (service request, or a
    /// registration by temporary identity) to the context.
    fn relay_uplink_nas(ctx: &mut UeContext, conn: u32, nas: &NasMessage) -> Vec<GnbAction> {
        if let NasMessage::ServiceRequest { tmsi }
        | NasMessage::RegistrationRequest {
            identity: MobileIdentity::FiveGSTmsi(tmsi), ..
        } = nas
        {
            ctx.tmsi = Some(*tmsi);
        }
        vec![GnbAction::ToAmf { conn, msg: nas.clone() }]
    }

    /// Applies an AMF action, producing downlink transmissions.
    pub fn handle_amf(&mut self, action: &AmfAction) -> Vec<GnbAction> {
        match action {
            AmfAction::SendNas { conn, msg } => {
                let conn = *conn as u32;
                let Some(ctx) = self.contexts.get_mut(&conn) else {
                    return Vec::new();
                };
                let mut out = Vec::new();
                // The CU snoops NAS to keep its context in sync (exactly the
                // instrumentation point the MobiFlow agent hooks).
                match msg {
                    NasMessage::SecurityModeCommand { cipher, integrity, .. } => {
                        ctx.cipher = Some(*cipher);
                        ctx.integrity = Some(*integrity);
                    }
                    NasMessage::RegistrationAccept { new_tmsi } => {
                        ctx.tmsi = Some(*new_tmsi);
                        ctx.registered = true;
                    }
                    _ => {}
                }
                out.push(GnbAction::Downlink { conn, msg: L3Message::Nas(msg.clone()) });
                // After registration accept, activate AS security.
                if matches!(msg, NasMessage::RegistrationAccept { .. }) && !ctx.as_secured {
                    let cipher = ctx.cipher.unwrap_or(CipherAlg::Nea2);
                    let integrity = ctx.integrity.unwrap_or(IntegrityAlg::Nia2);
                    out.push(GnbAction::Downlink {
                        conn,
                        msg: L3Message::Rrc(RrcMessage::SecurityModeCommand { cipher, integrity }),
                    });
                }
                out
            }
            AmfAction::ReleaseConnection { conn, cause } => self.release(*conn as u32, *cause),
        }
    }

    /// Releases a connection: sends `RRCRelease` and frees the context.
    pub fn release(&mut self, conn: u32, cause: ReleaseCause) -> Vec<GnbAction> {
        if self.contexts.remove(&conn).is_none() {
            return Vec::new();
        }
        self.metrics.released.inc();
        vec![
            GnbAction::Downlink { conn, msg: L3Message::Rrc(RrcMessage::Release { cause }) },
            GnbAction::ContextFreed { conn },
        ]
    }

    /// Garbage-collects contexts that stalled before registering.
    pub fn expire_stale(&mut self, now: Timestamp) -> Vec<GnbAction> {
        let mut stale: Vec<u32> = self
            .contexts
            .iter()
            .filter(|(_, ctx)| {
                !ctx.registered && now.saturating_since(ctx.created_at) > SETUP_GUARD
            })
            .map(|(conn, _)| *conn)
            .collect();
        // HashMap iteration order is unstable; sort so expiry processing (and
        // thus the whole run) stays deterministic.
        stale.sort_unstable();
        let mut actions = Vec::new();
        for conn in stale {
            self.metrics.guard_expired.inc();
            self.contexts.remove(&conn);
            self.metrics.released.inc();
            actions.push(GnbAction::Downlink {
                conn,
                msg: L3Message::Rrc(RrcMessage::Release { cause: ReleaseCause::RadioLinkFailure }),
            });
            actions.push(GnbAction::ContextFreed { conn });
        }
        actions
    }

    /// MAC-level filter: true when the connection's C-RNTI is blacklisted
    /// and its uplink traffic must be dropped before any processing (or
    /// telemetry tap — a dropped frame never reaches the network).
    pub fn uplink_blocked(&mut self, conn: u32, now: Timestamp) -> bool {
        let Some(ctx) = self.contexts.get(&conn) else {
            return false;
        };
        if self.is_blacklisted(ctx.rnti, now) {
            self.metrics.blacklist_dropped.inc();
            true
        } else {
            false
        }
    }

    /// Enforces one RIC control action. This is the actuation endpoint of
    /// the closed loop: decoded `ControlRequest` payloads land here.
    pub fn apply_control(&mut self, now: Timestamp, control: &ControlAction) -> Vec<GnbAction> {
        match &control.action {
            MitigationAction::ReleaseUe { conn, cause } => self.release(*conn, *cause),
            MitigationAction::BlacklistRnti { rnti } => {
                let until = now + control.ttl;
                let entry = self.blacklist.entry(rnti.0).or_insert(until);
                *entry = (*entry).max(until);
                Vec::new()
            }
            MitigationAction::ForceReauth { conn } => {
                // The simulated AMF challenges every fresh SUCI registration,
                // so a network-abort detach forces the subscriber through the
                // full authentication ladder on its next attach.
                let actions = self.release(*conn, ReleaseCause::NetworkAbort);
                if !actions.is_empty() {
                    self.metrics.forced_reauth.inc();
                }
                actions
            }
            MitigationAction::QuarantineCell { cell } => {
                if *cell == self.config.cell {
                    let until = now + control.ttl;
                    self.quarantine_until =
                        Some(self.quarantine_until.map_or(until, |u| u.max(until)));
                }
                Vec::new()
            }
            MitigationAction::RateLimitCause { cause, max_setups, window } => {
                self.rate_limits.insert(
                    *cause,
                    RateLimit {
                        max_setups: *max_setups,
                        window: *window,
                        until: now + control.ttl,
                        recent: VecDeque::new(),
                    },
                );
                Vec::new()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gnb() -> Gnb {
        Gnb::new(GnbConfig::default())
    }

    #[test]
    fn admission_allocates_distinct_rntis() {
        let mut gnb = gnb();
        let a = gnb.admit(Timestamp::ZERO, EstablishmentCause::MoData).unwrap();
        let b = gnb.admit(Timestamp::ZERO, EstablishmentCause::MoData).unwrap();
        assert_ne!(a, b);
        assert_ne!(gnb.context(a).unwrap().rnti, gnb.context(b).unwrap().rnti);
        assert_eq!(gnb.stats().admitted, 2);
    }

    #[test]
    fn admission_rejects_when_full() {
        let mut gnb = gnb();
        for _ in 0..MAX_CONTEXTS {
            gnb.admit(Timestamp::ZERO, EstablishmentCause::MoData).unwrap();
        }
        assert_eq!(
            gnb.admit(Timestamp::ZERO, EstablishmentCause::MoData),
            Err(AdmitError::Congestion)
        );
        assert_eq!(gnb.stats().rejected, 1);
    }

    #[test]
    fn setup_complete_relays_nas_to_amf() {
        let mut gnb = gnb();
        let conn = gnb.admit(Timestamp::ZERO, EstablishmentCause::MoSignalling).unwrap();
        let nas = NasMessage::RegistrationComplete;
        let actions = gnb.handle_uplink(
            conn,
            &L3Message::Rrc(RrcMessage::SetupComplete { nas: Box::new(nas.clone()) }),
        );
        assert_eq!(actions, vec![GnbAction::ToAmf { conn, msg: nas }]);
    }

    #[test]
    fn bare_and_piggybacked_nas_bind_the_same_tmsi() {
        let registration = NasMessage::RegistrationRequest {
            identity: MobileIdentity::FiveGSTmsi(Tmsi(5)),
            capabilities: xsec_types::SecurityCapabilities::full(),
        };
        let service = NasMessage::ServiceRequest { tmsi: Tmsi(6) };
        for nas in [registration, service] {
            let carriers = [
                L3Message::Nas(nas.clone()),
                L3Message::Rrc(RrcMessage::SetupComplete { nas: Box::new(nas.clone()) }),
                L3Message::Rrc(RrcMessage::UlInformationTransfer { nas: Box::new(nas.clone()) }),
            ];
            let mut bound = Vec::new();
            for msg in &carriers {
                let mut gnb = gnb();
                let conn = gnb.admit(Timestamp::ZERO, EstablishmentCause::MoData).unwrap();
                let actions = gnb.handle_uplink(conn, msg);
                assert_eq!(actions, vec![GnbAction::ToAmf { conn, msg: nas.clone() }]);
                bound.push(gnb.context(conn).unwrap().tmsi);
            }
            assert!(bound.iter().all(|t| t.is_some() && *t == bound[0]), "{nas}: {bound:?}");
        }
    }

    #[test]
    fn amf_smc_updates_context_algorithms() {
        let mut gnb = gnb();
        let conn = gnb.admit(Timestamp::ZERO, EstablishmentCause::MoData).unwrap();
        let action = AmfAction::SendNas {
            conn: conn as u64,
            msg: NasMessage::SecurityModeCommand {
                cipher: CipherAlg::Nea0,
                integrity: IntegrityAlg::Nia0,
                replayed_capabilities: xsec_types::SecurityCapabilities::null_only(),
            },
        };
        gnb.handle_amf(&action);
        let ctx = gnb.context(conn).unwrap();
        assert_eq!(ctx.cipher, Some(CipherAlg::Nea0));
        assert_eq!(ctx.integrity, Some(IntegrityAlg::Nia0));
    }

    #[test]
    fn registration_accept_triggers_as_security() {
        let mut gnb = gnb();
        let conn = gnb.admit(Timestamp::ZERO, EstablishmentCause::MoData).unwrap();
        let actions = gnb.handle_amf(&AmfAction::SendNas {
            conn: conn as u64,
            msg: NasMessage::RegistrationAccept { new_tmsi: Tmsi(42) },
        });
        assert_eq!(actions.len(), 2);
        assert!(matches!(
            actions[1],
            GnbAction::Downlink {
                msg: L3Message::Rrc(RrcMessage::SecurityModeCommand { .. }),
                ..
            }
        ));
        let ctx = gnb.context(conn).unwrap();
        assert!(ctx.registered);
        assert_eq!(ctx.tmsi, Some(Tmsi(42)));
    }

    #[test]
    fn as_security_complete_triggers_reconfiguration() {
        let mut gnb = gnb();
        let conn = gnb.admit(Timestamp::ZERO, EstablishmentCause::MoData).unwrap();
        let actions =
            gnb.handle_uplink(conn, &L3Message::Rrc(RrcMessage::SecurityModeComplete));
        assert!(matches!(
            actions[0],
            GnbAction::Downlink { msg: L3Message::Rrc(RrcMessage::Reconfiguration), .. }
        ));
        assert!(gnb.context(conn).unwrap().as_secured);
    }

    #[test]
    fn release_frees_context_and_rnti() {
        let mut gnb = gnb();
        let conn = gnb.admit(Timestamp::ZERO, EstablishmentCause::MoData).unwrap();
        let actions = gnb.release(conn, ReleaseCause::Normal);
        assert_eq!(actions.len(), 2);
        assert!(gnb.context(conn).is_none());
        assert_eq!(gnb.active_contexts(), 0);
        // Releasing again is a no-op.
        assert!(gnb.release(conn, ReleaseCause::Normal).is_empty());
    }

    #[test]
    fn guard_timer_collects_stalled_handshakes() {
        let mut gnb = gnb();
        let conn = gnb.admit(Timestamp::ZERO, EstablishmentCause::MoData).unwrap();
        // Not yet expired: the guard is strict.
        assert!(gnb.expire_stale(Timestamp::ZERO + SETUP_GUARD).is_empty());
        // Expired.
        let actions = gnb.expire_stale(Timestamp::ZERO + SETUP_GUARD + Duration::from_millis(1));
        assert_eq!(actions.len(), 2);
        assert!(gnb.context(conn).is_none());
        assert_eq!(gnb.stats().guard_expired, 1);
    }

    #[test]
    fn registered_contexts_survive_the_guard() {
        let mut gnb = gnb();
        let conn = gnb.admit(Timestamp::ZERO, EstablishmentCause::MoData).unwrap();
        gnb.handle_amf(&AmfAction::SendNas {
            conn: conn as u64,
            msg: NasMessage::RegistrationAccept { new_tmsi: Tmsi(1) },
        });
        assert!(gnb.expire_stale(Timestamp(10_000_000)).is_empty());
        assert!(gnb.context(conn).is_some());
    }

    #[test]
    fn rnti_reuse_after_release() {
        let mut gnb = gnb();
        let conn = gnb.admit(Timestamp::ZERO, EstablishmentCause::MoData).unwrap();
        let rnti = gnb.context(conn).unwrap().rnti;
        gnb.release(conn, ReleaseCause::Normal);
        // Cursor walks forward, so the freed RNTI comes back only after the
        // space wraps — but allocation must keep succeeding far beyond the
        // context cap, proving RNTIs are recycled.
        for _ in 0..25 * MAX_CONTEXTS {
            let c = gnb.admit(Timestamp::ZERO, EstablishmentCause::MoData).unwrap();
            gnb.release(c, ReleaseCause::Normal);
        }
        assert_eq!(gnb.active_contexts(), 0);
        let _ = rnti;
    }

    #[test]
    fn uplink_on_unknown_connection_is_dropped() {
        let mut gnb = gnb();
        assert!(gnb
            .handle_uplink(99, &L3Message::Rrc(RrcMessage::SecurityModeComplete))
            .is_empty());
    }

    fn control(ttl: Duration, action: MitigationAction) -> ControlAction {
        ControlAction { id: 1, ttl, action, trace: None }
    }

    #[test]
    fn blacklist_drops_uplinks_until_ttl_and_skips_allocation() {
        let mut gnb = gnb();
        let conn = gnb.admit(Timestamp::ZERO, EstablishmentCause::MoData).unwrap();
        let rnti = gnb.context(conn).unwrap().rnti;
        gnb.apply_control(
            Timestamp::ZERO,
            &control(Duration::from_secs(1), MitigationAction::BlacklistRnti { rnti }),
        );
        assert!(gnb.uplink_blocked(conn, Timestamp(500_000)));
        assert_eq!(gnb.stats().blacklist_dropped, 1);
        // Past the TTL the RNTI is usable again.
        assert!(!gnb.uplink_blocked(conn, Timestamp(1_500_000)));
        // While blacklisted, a release + wrap-around never re-allocates it.
        gnb.release(conn, ReleaseCause::Normal);
        let next = gnb.admit(Timestamp(500_000), EstablishmentCause::MoData).unwrap();
        assert_ne!(gnb.context(next).unwrap().rnti, rnti);
    }

    #[test]
    fn rate_limit_caps_admissions_per_window() {
        let mut gnb = gnb();
        gnb.apply_control(
            Timestamp::ZERO,
            &control(
                Duration::from_secs(10),
                MitigationAction::RateLimitCause {
                    cause: EstablishmentCause::MoSignalling,
                    max_setups: 2,
                    window: Duration::from_millis(100),
                },
            ),
        );
        assert!(gnb.admit(Timestamp(1_000), EstablishmentCause::MoSignalling).is_ok());
        assert!(gnb.admit(Timestamp(2_000), EstablishmentCause::MoSignalling).is_ok());
        assert_eq!(
            gnb.admit(Timestamp(3_000), EstablishmentCause::MoSignalling),
            Err(AdmitError::RateLimited)
        );
        // Other causes are unaffected; the window eventually drains.
        assert!(gnb.admit(Timestamp(3_000), EstablishmentCause::MoData).is_ok());
        assert!(gnb.admit(Timestamp(200_000), EstablishmentCause::MoSignalling).is_ok());
        // Past the TTL the limit stops applying entirely.
        for i in 0..5 {
            assert!(gnb
                .admit(Timestamp(11_000_000 + i), EstablishmentCause::MoSignalling)
                .is_ok());
        }
        assert_eq!(gnb.stats().mitigation_dropped, 1);
    }

    #[test]
    fn quarantine_freezes_admission_for_matching_cell_only() {
        let mut gnb = gnb();
        // A quarantine for some other cell is ignored.
        gnb.apply_control(
            Timestamp::ZERO,
            &control(
                Duration::from_secs(1),
                MitigationAction::QuarantineCell { cell: CellId(99) },
            ),
        );
        assert!(gnb.admit(Timestamp(1_000), EstablishmentCause::MoData).is_ok());
        gnb.apply_control(
            Timestamp::ZERO,
            &control(
                Duration::from_secs(1),
                MitigationAction::QuarantineCell { cell: GnbConfig::default().cell },
            ),
        );
        assert_eq!(
            gnb.admit(Timestamp(2_000), EstablishmentCause::MoData),
            Err(AdmitError::Quarantined)
        );
        assert!(gnb.admit(Timestamp(1_500_000), EstablishmentCause::MoData).is_ok());
    }

    #[test]
    fn force_reauth_detaches_with_network_abort() {
        let mut gnb = gnb();
        let conn = gnb.admit(Timestamp::ZERO, EstablishmentCause::MoData).unwrap();
        let actions = gnb.apply_control(
            Timestamp::ZERO,
            &control(Duration::from_secs(1), MitigationAction::ForceReauth { conn }),
        );
        assert!(matches!(
            &actions[0],
            GnbAction::Downlink {
                msg: L3Message::Rrc(RrcMessage::Release { cause: ReleaseCause::NetworkAbort }),
                ..
            }
        ));
        assert_eq!(gnb.stats().forced_reauth, 1);
        assert!(gnb.context(conn).is_none());
        // Re-applying against the freed context is a counted no-op.
        let again = gnb.apply_control(
            Timestamp::ZERO,
            &control(Duration::from_secs(1), MitigationAction::ForceReauth { conn }),
        );
        assert!(again.is_empty());
        assert_eq!(gnb.stats().forced_reauth, 1);
    }
}
