//! RMR-style topic router for xApp↔xApp messaging, with capability-scoped
//! authorization.
//!
//! The OSC platform routes messages between xApps by message type through
//! RMR. Ours is a topic-keyed fan-out over crossbeam channels: publishers
//! never block (the channel is bounded; a slow subscriber drops oldest-first
//! is *not* implemented — instead sends to a full mailbox count as drops,
//! which `xsec_router_dropped_total{topic}` exposes, because silently
//! blocking the near-RT loop would violate its budget).
//!
//! ## Authorization
//!
//! There is no anonymous API. The only thing that can move a message is a
//! [`RouterHandle`] obtained from [`Router::register`], and every
//! `subscribe`/`publish` on it is checked against the [`Grants`] fixed at
//! registration. [`Router::seal`] closes registration once the deployment
//! is wired, so a rogue xApp that reaches the router through its own handle
//! mid-run cannot mint itself a second identity. Every denial is counted
//! (`xsec_authz_denied_total{xapp,capability}`) and recorded in the flight
//! recorder via the [`xsec_obs::Obs`] attached with [`Router::attach_obs`].
//!
//! Publishes that reach zero live subscribers are counted separately
//! (`xsec_router_unrouted_total{topic}`) and surfaced as a typed
//! [`PublishError::Unrouted`] through [`RouterHandle::try_publish`], so a
//! policy op posted before the Mitigator subscribes is an error, not a
//! silent drop. Messages shed on a full mailbox are counted per topic as
//! `xsec_router_dropped_total{topic}`.

use crate::authz::{Capability, Grants, XAppIdentity};
use crossbeam_channel::{bounded, Receiver, Sender, TrySendError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use xsec_obs::Obs;

const MAILBOX_DEPTH: usize = 1024;

/// Why a publish could not be completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PublishError {
    /// The caller's grants do not cover the topic.
    Denied {
        /// The denied principal.
        xapp: String,
        /// The missing capability label, e.g. `"publish:a1-policies"`.
        capability: String,
    },
    /// No live subscriber exists on the topic — the message reached
    /// nobody and was counted in `xsec_router_unrouted_total{topic}`.
    Unrouted {
        /// The topic that had no subscribers.
        topic: String,
    },
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublishError::Denied { xapp, capability } => {
                write!(f, "publish denied: {xapp} lacks {capability}")
            }
            PublishError::Unrouted { topic } => {
                write!(f, "no live subscriber on topic {topic:?}")
            }
        }
    }
}

impl std::error::Error for PublishError {}

/// Why [`Router::register`] refused an identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegisterError {
    /// Registration is closed ([`Router::seal`] was called).
    Sealed,
    /// The name is already taken — re-registration would let a rogue
    /// shadow an existing principal.
    Duplicate {
        /// The contested principal name.
        name: String,
    },
}

impl std::fmt::Display for RegisterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegisterError::Sealed => write!(f, "router registration is sealed"),
            RegisterError::Duplicate { name } => {
                write!(f, "identity {name:?} is already registered")
            }
        }
    }
}

impl std::error::Error for RegisterError {}

struct Registration {
    token: u64,
    grants: Grants,
}

/// One topic's subscriber list: `(subscription id, mailbox sender)` pairs.
type Subscribers = Vec<(u64, Sender<Vec<u8>>)>;

#[derive(Default)]
struct Inner {
    topics: HashMap<String, Subscribers>,
    next_sub_id: u64,
    unrouted: HashMap<String, u64>,
    sealed: bool,
    registry: HashMap<String, Registration>,
    next_registration: u64,
    denied: u64,
    obs: Option<Obs>,
}

/// A cloneable router handle.
#[derive(Clone, Default)]
pub struct Router {
    inner: Arc<Mutex<Inner>>,
}

/// Deterministic splitmix64-style mix — the registration token must not
/// depend on wall clock or OS randomness (deployments are replayable), but
/// must be unguessable-enough that forging an envelope requires actually
/// holding the handle, which is the thing capability tokens model.
fn mix_token(counter: u64, name: &str) -> u64 {
    let mut z = counter.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for b in name.bytes() {
        z = (z ^ u64::from(b)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    }
    z ^= z >> 27;
    z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Router {
    /// An empty router: no identities, no topics.
    pub fn new() -> Self {
        Router::default()
    }

    /// Attaches the observability handle denials and unrouted publishes
    /// are counted into.
    pub fn attach_obs(&self, obs: &Obs) {
        self.inner.lock().obs = Some(obs.clone());
    }

    /// Closes registration. Call once the deployment is wired so no rogue
    /// can mint an identity mid-run.
    pub fn seal(&self) {
        self.inner.lock().sealed = true;
    }

    /// Registers `identity` with `grants`, returning the scoped handle all
    /// of its traffic must flow through. Fails once the router is sealed
    /// or if the name is already taken (both failures are recorded as
    /// `register` denials, since they are what a rogue registration
    /// attempt looks like).
    pub fn register(
        &self,
        identity: XAppIdentity,
        grants: Grants,
    ) -> Result<RouterHandle, RegisterError> {
        let outcome = {
            let mut inner = self.inner.lock();
            if inner.sealed {
                Err(RegisterError::Sealed)
            } else if inner.registry.contains_key(&identity.name) {
                Err(RegisterError::Duplicate { name: identity.name.clone() })
            } else {
                inner.next_registration += 1;
                let token = mix_token(inner.next_registration, &identity.name);
                inner
                    .registry
                    .insert(identity.name.clone(), Registration { token, grants: grants.clone() });
                Ok(token)
            }
        };
        match outcome {
            Ok(token) => Ok(RouterHandle {
                router: self.clone(),
                name: identity.name,
                token,
                grants,
            }),
            Err(err) => {
                self.deny(&identity.name, "register");
                Err(err)
            }
        }
    }

    /// Verifies that `name` is registered with `token` and its grants
    /// cover `cap` — the check the Mitigator runs on signed A1 envelopes
    /// before touching the `PolicyStore`. Pure: records nothing; callers
    /// pair a `false` with [`Router::deny`].
    pub fn verify(&self, name: &str, token: u64, cap: &Capability) -> bool {
        let inner = self.inner.lock();
        inner
            .registry
            .get(name)
            .is_some_and(|reg| reg.token == token && reg.grants.allows(cap))
    }

    /// Records one authorization denial: bumps
    /// `xsec_authz_denied_total{xapp,capability}` and writes an
    /// `authz_deny` record into the flight recorder so the denial shows up
    /// in `incidents.jsonl`.
    pub fn deny(&self, xapp: &str, capability: &str) {
        let obs = {
            let mut inner = self.inner.lock();
            inner.denied += 1;
            inner.obs.clone()
        };
        if let Some(obs) = obs {
            obs.counter("xsec_authz_denied_total", &[("xapp", xapp), ("capability", capability)])
                .inc();
            obs.recorder.record_denial(xapp, capability);
        }
    }

    /// Total authorization denials recorded by this router.
    pub fn denied(&self) -> u64 {
        self.inner.lock().denied
    }

    /// How many publishes on `topic` found zero live subscribers.
    pub fn unrouted(&self, topic: &str) -> u64 {
        self.inner.lock().unrouted.get(topic).copied().unwrap_or(0)
    }

    fn subscribe_inner(&self, topic: &str) -> Receiver<Vec<u8>> {
        let (tx, rx) = bounded(MAILBOX_DEPTH);
        let mut inner = self.inner.lock();
        inner.next_sub_id += 1;
        let id = inner.next_sub_id;
        inner.topics.entry(topic.to_string()).or_default().push((id, tx));
        rx
    }

    /// The fan-out itself: snapshot the subscriber list under the lock,
    /// run every `try_send` (and its payload clone) outside it so slow
    /// fan-out never serializes other publishers, then re-lock once to
    /// prune disconnected mailboxes and fold in the counters. Returns
    /// `(delivered, live)` where `live` counts subscribers that still had
    /// a connected mailbox (full counts as live; that is backpressure,
    /// not absence).
    fn publish_inner(&self, topic: &str, payload: &[u8]) -> (usize, usize) {
        let snapshot: Subscribers =
            self.inner.lock().topics.get(topic).cloned().unwrap_or_default();
        let mut delivered = 0usize;
        let mut dropped = 0u64;
        let mut dead: Vec<u64> = Vec::new();
        for (id, tx) in &snapshot {
            match tx.try_send(payload.to_vec()) {
                Ok(()) => delivered += 1,
                Err(TrySendError::Full(_)) => dropped += 1,
                Err(TrySendError::Disconnected(_)) => dead.push(*id),
            }
        }
        let live = snapshot.len() - dead.len();
        let obs = {
            let mut inner = self.inner.lock();
            if !dead.is_empty() {
                if let Some(subs) = inner.topics.get_mut(topic) {
                    subs.retain(|(id, _)| !dead.contains(id));
                }
            }
            if live == 0 {
                *inner.unrouted.entry(topic.to_string()).or_insert(0) += 1;
            }
            // The clean publish (everything delivered) touches no metric.
            if live == 0 || dropped > 0 { inner.obs.clone() } else { None }
        };
        if let Some(obs) = obs {
            if live == 0 {
                obs.counter("xsec_router_unrouted_total", &[("topic", topic)]).inc();
            }
            if dropped > 0 {
                obs.counter("xsec_router_dropped_total", &[("topic", topic)]).add(dropped);
            }
        }
        (delivered, live)
    }
}

/// A disconnected mailbox: what a denied subscriber gets, so denial is
/// indistinguishable from an empty topic to the rogue but costs nothing.
fn dead_receiver() -> Receiver<Vec<u8>> {
    let (tx, rx) = bounded(0);
    drop(tx);
    rx
}

/// The scoped handle [`Router::register`] returns: every operation is
/// checked against the grants fixed at registration, and every denial is
/// counted against the identity's name.
#[derive(Clone)]
pub struct RouterHandle {
    router: Router,
    name: String,
    token: u64,
    grants: Grants,
}

impl std::fmt::Debug for RouterHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The token is the credential — keep it out of Debug output.
        f.debug_struct("RouterHandle")
            .field("name", &self.name)
            .field("grants", &self.grants)
            .finish_non_exhaustive()
    }
}

impl RouterHandle {
    /// The principal name this handle acts as.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The registration token — proof of identity for out-of-band
    /// envelopes (the signed A1 request carries it so the Mitigator can
    /// verify the op against the sender's registered grants).
    pub fn token(&self) -> u64 {
        self.token
    }

    /// The router this handle is registered with.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Whether this handle's grants cover `cap`.
    pub fn allows(&self, cap: &Capability) -> bool {
        self.grants.allows(cap)
    }

    /// Records a denial against this identity (used by enforcement points
    /// that check capabilities out-of-band, like the per-kind control
    /// gate).
    pub fn deny(&self, capability: &str) {
        self.router.deny(&self.name, capability);
    }

    /// Subscribes to `topic` if granted; a denied subscription yields an
    /// already-disconnected mailbox and a counted denial.
    pub fn subscribe(&self, topic: &str) -> Receiver<Vec<u8>> {
        let cap = Capability::subscribe(topic);
        if !self.grants.allows(&cap) {
            self.router.deny(&self.name, &cap.label());
            return dead_receiver();
        }
        self.router.subscribe_inner(topic)
    }

    /// Publishes to `topic` if granted; returns mailboxes reached (0 when
    /// denied, with the denial counted).
    pub fn publish(&self, topic: &str, payload: &[u8]) -> usize {
        self.try_publish(topic, payload).unwrap_or_default()
    }

    /// Publishes to `topic`, surfacing denial and zero-subscriber routing
    /// as typed errors.
    pub fn try_publish(&self, topic: &str, payload: &[u8]) -> Result<usize, PublishError> {
        let cap = Capability::publish(topic);
        if !self.grants.allows(&cap) {
            let capability = cap.label();
            self.router.deny(&self.name, &capability);
            return Err(PublishError::Denied { xapp: self.name.clone(), capability });
        }
        let (delivered, live) = self.router.publish_inner(topic, payload);
        if live == 0 {
            Err(PublishError::Unrouted { topic: topic.to_string() })
        } else {
            Ok(delivered)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh router plus one identity, `"tenant"`, holding `grants`.
    fn router_with(grants: Grants) -> (Router, RouterHandle) {
        let router = Router::new();
        let handle = router.register(XAppIdentity::named("tenant"), grants).unwrap();
        (router, handle)
    }

    #[test]
    fn publish_reaches_all_subscribers() {
        let (_router, tenant) =
            router_with(Grants::none().subscribe("anomalies").publish("anomalies"));
        let a = tenant.subscribe("anomalies");
        let b = tenant.subscribe("anomalies");
        let delivered = tenant.publish("anomalies", b"alert");
        assert_eq!(delivered, 2);
        assert_eq!(a.try_recv().unwrap(), b"alert");
        assert_eq!(b.try_recv().unwrap(), b"alert");
    }

    #[test]
    fn topics_are_isolated() {
        let (_router, tenant) =
            router_with(Grants::none().subscribe("a").publish("b").publish("nobody-listens"));
        let a = tenant.subscribe("a");
        tenant.publish("b", b"x");
        assert!(a.try_recv().is_err());
        assert_eq!(tenant.publish("nobody-listens", b"x"), 0);
    }

    #[test]
    fn disconnected_subscribers_are_pruned() {
        let (_router, tenant) = router_with(Grants::none().subscribe("t").publish("t"));
        let rx = tenant.subscribe("t");
        drop(rx);
        assert_eq!(tenant.publish("t", b"x"), 0);
    }

    #[test]
    fn full_mailboxes_count_as_drops() {
        let obs = xsec_obs::Obs::new();
        let (router, tenant) = router_with(Grants::none().subscribe("t").publish("t"));
        router.attach_obs(&obs);
        let _rx = tenant.subscribe("t");
        for _ in 0..MAILBOX_DEPTH {
            tenant.publish("t", b"fill");
        }
        let delivered = tenant.publish("t", b"overflow");
        assert_eq!(delivered, 0);
        let snapshot = obs.snapshot();
        assert_eq!(snapshot.counter_total("xsec_router_dropped_total"), 1);
        assert_eq!(snapshot.counter_total("xsec_router_unrouted_total"), 0);
    }

    #[test]
    fn unrouted_publishes_are_counted_and_typed() {
        let (router, tenant) = router_with(Grants::none().subscribe("*").publish("*"));
        assert_eq!(
            tenant.try_publish("nobody", b"x"),
            Err(PublishError::Unrouted { topic: "nobody".to_string() })
        );
        assert_eq!(router.unrouted("nobody"), 1);
        // Full-mailbox 0 is NOT unrouted: the subscriber exists.
        let _rx = tenant.subscribe("t");
        for _ in 0..MAILBOX_DEPTH {
            tenant.publish("t", b"fill");
        }
        assert_eq!(tenant.try_publish("t", b"overflow"), Ok(0));
        assert_eq!(router.unrouted("t"), 0);
        // A topic whose only subscriber disconnected routes to nobody.
        let rx = tenant.subscribe("gone");
        drop(rx);
        assert!(matches!(tenant.try_publish("gone", b"x"), Err(PublishError::Unrouted { .. })));
        assert_eq!(router.unrouted("gone"), 1);
    }

    #[test]
    fn scoped_handles_enforce_their_grants() {
        let router = Router::new();
        let producer = router
            .register(XAppIdentity::named("producer"), Grants::none().publish("anomalies"))
            .unwrap();
        let consumer = router
            .register(XAppIdentity::named("consumer"), Grants::none().subscribe("anomalies"))
            .unwrap();
        let rx = consumer.subscribe("anomalies");
        assert_eq!(producer.publish("anomalies", b"alert"), 1);
        assert_eq!(rx.try_recv().unwrap(), b"alert");
        // Ungranted directions are denied and counted.
        assert_eq!(producer.publish("findings", b"spoof"), 0);
        let denied_rx = producer.subscribe("anomalies");
        assert!(denied_rx.try_recv().is_err());
        assert!(matches!(
            consumer.try_publish("anomalies", b"up"),
            Err(PublishError::Denied { .. })
        ));
        assert_eq!(router.denied(), 3);
    }

    #[test]
    fn sealed_router_refuses_new_identities() {
        let router = Router::new();
        let _ok = router.register(XAppIdentity::named("early"), Grants::none()).unwrap();
        router.seal();
        let err = router
            .register(XAppIdentity::named("rogue"), Grants::none().publish("a1-policies"))
            .unwrap_err();
        assert_eq!(err, RegisterError::Sealed);
        assert_eq!(router.denied(), 1);
    }

    #[test]
    fn duplicate_identities_are_refused() {
        let router = Router::new();
        let _mit = router
            .register(XAppIdentity::named("mitigator"), Grants::none().control_all())
            .unwrap();
        let err = router.register(XAppIdentity::named("mitigator"), Grants::none()).unwrap_err();
        assert_eq!(err, RegisterError::Duplicate { name: "mitigator".to_string() });
    }

    #[test]
    fn verify_checks_name_token_and_grants() {
        let router = Router::new();
        let smo = router
            .register(XAppIdentity::named("smo"), Grants::none().a1("create"))
            .unwrap();
        assert!(router.verify("smo", smo.token(), &Capability::a1("create")));
        assert!(!router.verify("smo", smo.token(), &Capability::a1("delete")));
        assert!(!router.verify("smo", smo.token().wrapping_add(1), &Capability::a1("create")));
        assert!(!router.verify("ghost", smo.token(), &Capability::a1("create")));
    }

    #[test]
    fn denials_land_in_metrics_and_flight_recorder() {
        let obs = xsec_obs::Obs::new();
        let (router, tenant) = router_with(Grants::none());
        router.attach_obs(&obs);
        tenant.publish("a1-policies", b"rogue-op");
        let snapshot = obs.snapshot();
        assert_eq!(snapshot.counter_total("xsec_authz_denied_total"), 1);
        let denials = obs.recorder.denials();
        assert_eq!(denials.len(), 1);
        assert_eq!(denials[0].xapp, "tenant");
        assert_eq!(denials[0].capability, "publish:a1-policies");
    }

    #[test]
    fn tokens_are_deterministic_per_registration_order() {
        let mint = |n: &str| {
            let router = Router::new();
            router.register(XAppIdentity::named(n), Grants::none()).unwrap().token()
        };
        assert_eq!(mint("mobiwatch"), mint("mobiwatch"));
        assert_ne!(mint("mobiwatch"), mint("mitigator"));
    }
}
