//! The typed mitigation-action vocabulary and its TLV wire codec.
//!
//! Actions ride inside `E2AP Control Request` payloads (the control
//! primitive), so they need a deterministic binary form the RAN agent can
//! decode without any shared in-process state. The payload is a flat TLV
//! sequence — tag byte, `u16` length, value — with one header TLV for the
//! correlation id, one for the TTL, and exactly one action-body TLV. TLV
//! (rather than a fixed struct layout) keeps the control sub-codec
//! forward-extensible the way E2SM payloads are.

use xsec_types::{
    CellId, Duration, EstablishmentCause, Put, Reader, ReleaseCause, Result, Rnti, XsecError,
};

/// One enforcement primitive the RIC can ask the RAN to apply.
///
/// Scopes differ per action: a single connection (`ReleaseUe`,
/// `ForceReauth`), a single radio identity (`BlacklistRnti`), one
/// establishment cause (`RateLimitCause`), or the whole cell
/// (`QuarantineCell`). Every action is bounded by the TTL carried in its
/// [`ControlAction`] envelope — mitigations decay instead of accreting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MitigationAction {
    /// Release one RRC connection with the given cause.
    ReleaseUe {
        /// DU-local UE association to tear down.
        conn: u32,
        /// Release cause sent to the UE.
        cause: ReleaseCause,
    },
    /// Drop all uplink traffic from a C-RNTI at the MAC and refuse to
    /// re-allocate it while the TTL lasts.
    BlacklistRnti {
        /// The radio identity to silence.
        rnti: Rnti,
    },
    /// Detach one connection with a network abort so the subscriber's next
    /// attach runs the full authentication ladder again (the simulated AMF
    /// always challenges a fresh SUCI registration).
    ForceReauth {
        /// DU-local UE association to detach.
        conn: u32,
    },
    /// Stop admitting *any* new RRC connection on the cell while the TTL
    /// lasts (existing sessions continue).
    QuarantineCell {
        /// The cell to quarantine.
        cell: CellId,
    },
    /// Cap new admissions carrying one establishment cause to
    /// `max_setups` per sliding `window`; excess setup requests are
    /// silently dropped at the MAC.
    RateLimitCause {
        /// The establishment cause under rate control.
        cause: EstablishmentCause,
        /// Admissions allowed per window.
        max_setups: u16,
        /// Sliding window length.
        window: Duration,
    },
}

impl MitigationAction {
    /// A short stable name for reports and logs.
    pub fn name(&self) -> &'static str {
        match self {
            MitigationAction::ReleaseUe { .. } => "release-ue",
            MitigationAction::BlacklistRnti { .. } => "blacklist-rnti",
            MitigationAction::ForceReauth { .. } => "force-reauth",
            MitigationAction::QuarantineCell { .. } => "quarantine-cell",
            MitigationAction::RateLimitCause { .. } => "rate-limit-cause",
        }
    }
}

/// A mitigation action plus its control-plane envelope: a correlation id
/// (unique per policy engine) and the TTL bounding the enforcement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlAction {
    /// Correlation id assigned by the policy engine.
    pub id: u32,
    /// How long the RAN should keep enforcing the action.
    pub ttl: Duration,
    /// The enforcement primitive itself.
    pub action: MitigationAction,
    /// Causal trace id linking this action back to the detection that
    /// produced it. Optional on the wire (a trailing TLV, emitted only
    /// when set) so payloads from older encoders — and decoders that
    /// predate tracing — interoperate unchanged.
    pub trace: Option<u64>,
}

// TLV tags. Header TLVs first, then one body tag per action variant.
const TAG_ACTION_ID: u8 = 0x01;
const TAG_TTL: u8 = 0x02;
const TAG_TRACE_ID: u8 = 0x03;
const TAG_RELEASE_UE: u8 = 0x10;
const TAG_BLACKLIST_RNTI: u8 = 0x11;
const TAG_FORCE_REAUTH: u8 = 0x12;
const TAG_QUARANTINE_CELL: u8 = 0x13;
const TAG_RATE_LIMIT_CAUSE: u8 = 0x14;

/// Longest value one TLV can carry: its length field is a `u16`.
pub const MAX_TLV_VALUE_LEN: usize = u16::MAX as usize;

/// Appends one TLV whose value is `parts` back to back. A value longer than
/// the length field can express would corrupt the frame for every following
/// TLV, so it is refused.
fn put_tlv(buf: &mut Vec<u8>, tag: u8, parts: &[&[u8]]) -> Result<()> {
    buf.put_u8(tag);
    buf.put_len::<2>(parts.iter().map(|p| p.len()).sum())?;
    parts.iter().for_each(|p| buf.extend_from_slice(p));
    Ok(())
}

impl ControlAction {
    /// Encodes the action into a Control Request payload (TLV sequence).
    ///
    /// Infallible for every [`MitigationAction`] variant (their bodies are
    /// tiny fixed layouts); kept as the ergonomic entry point.
    /// [`ControlAction::try_encode`] is the checked form.
    pub fn encode(&self) -> Vec<u8> {
        self.try_encode().expect("fixed-layout action bodies fit a u16 TLV length")
    }

    /// Encodes the action, reporting a typed error if any TLV value would
    /// overflow the `u16` length field.
    pub fn try_encode(&self) -> Result<Vec<u8>> {
        // The longest payload (rate limit, traced) is 43 bytes.
        let mut buf = Vec::with_capacity(48);
        put_tlv(&mut buf, TAG_ACTION_ID, &[&self.id.to_be_bytes()])?;
        put_tlv(&mut buf, TAG_TTL, &[&self.ttl.as_micros().to_be_bytes()])?;
        match &self.action {
            MitigationAction::ReleaseUe { conn, cause } => {
                put_tlv(&mut buf, TAG_RELEASE_UE, &[&conn.to_be_bytes(), &[cause.code()]])
            }
            MitigationAction::BlacklistRnti { rnti } => {
                put_tlv(&mut buf, TAG_BLACKLIST_RNTI, &[&rnti.0.to_be_bytes()])
            }
            MitigationAction::ForceReauth { conn } => {
                put_tlv(&mut buf, TAG_FORCE_REAUTH, &[&conn.to_be_bytes()])
            }
            MitigationAction::QuarantineCell { cell } => {
                put_tlv(&mut buf, TAG_QUARANTINE_CELL, &[&cell.0.to_be_bytes()])
            }
            MitigationAction::RateLimitCause { cause, max_setups, window } => put_tlv(
                &mut buf,
                TAG_RATE_LIMIT_CAUSE,
                &[&[cause.code()], &max_setups.to_be_bytes(), &window.as_micros().to_be_bytes()],
            ),
        }?;
        // The trace id trails the body so fixed `[id, ttl, body]` payload
        // prefixes (and their consumers) are byte-identical with tracing
        // off — the TLV is additive, never reordering.
        if let Some(trace) = self.trace {
            put_tlv(&mut buf, TAG_TRACE_ID, &[&trace.to_be_bytes()])?;
        }
        Ok(buf)
    }

    /// Decodes a Control Request payload back into an action.
    ///
    /// Strict: unknown tags, duplicated TLVs, truncation, trailing bytes,
    /// a value longer or shorter than its tag's layout, and missing header
    /// fields are all errors — a control channel is the wrong place for
    /// silent tolerance.
    pub fn decode(payload: &[u8]) -> Result<Self> {
        let mut r = Reader::new(payload);
        let mut id: Option<u32> = None;
        let mut ttl: Option<Duration> = None;
        let mut action: Option<MitigationAction> = None;
        let mut trace: Option<u64> = None;
        while !r.is_empty() {
            let tag = r.u8()?;
            let mut v = Reader::new(r.prefixed::<2>()?);
            match tag {
                TAG_ACTION_ID => set_once(&mut id, v.u32()?, "action id")?,
                TAG_TTL => set_once(&mut ttl, Duration::from_micros(v.u64()?), "ttl")?,
                TAG_TRACE_ID => set_once(&mut trace, v.u64()?, "trace id")?,
                TAG_RELEASE_UE => {
                    let conn = v.u32()?;
                    let cause = v.code("release cause", ReleaseCause::from_code)?;
                    set_once(&mut action, MitigationAction::ReleaseUe { conn, cause }, "body")?;
                }
                TAG_BLACKLIST_RNTI => {
                    let rnti = Rnti(v.u16()?);
                    set_once(&mut action, MitigationAction::BlacklistRnti { rnti }, "body")?;
                }
                TAG_FORCE_REAUTH => {
                    let conn = v.u32()?;
                    set_once(&mut action, MitigationAction::ForceReauth { conn }, "body")?;
                }
                TAG_QUARANTINE_CELL => {
                    let cell = CellId(v.u32()?);
                    set_once(&mut action, MitigationAction::QuarantineCell { cell }, "body")?;
                }
                TAG_RATE_LIMIT_CAUSE => {
                    let cause = v.code("establishment cause", EstablishmentCause::from_code)?;
                    let max_setups = v.u16()?;
                    let window = Duration::from_micros(v.u64()?);
                    set_once(
                        &mut action,
                        MitigationAction::RateLimitCause { cause, max_setups, window },
                        "body",
                    )?;
                }
                other => {
                    return Err(XsecError::Codec(format!("unknown control TLV tag {other:#04x}")))
                }
            }
            v.finish()?;
        }
        let missing = |what| XsecError::Codec(format!("missing {what} TLV"));
        Ok(ControlAction {
            id: id.ok_or_else(|| missing("action id"))?,
            ttl: ttl.ok_or_else(|| missing("ttl"))?,
            action: action.ok_or_else(|| missing("action body"))?,
            // Absent is fine: the trace TLV is optional by design.
            trace,
        })
    }
}

fn set_once<T>(slot: &mut Option<T>, value: T, what: &str) -> Result<()> {
    if slot.is_some() {
        Err(XsecError::Codec(format!("duplicate {what} TLV")))
    } else {
        *slot = Some(value);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn samples() -> Vec<ControlAction> {
        vec![
            ControlAction {
                id: 1,
                ttl: Duration::from_secs(10),
                action: MitigationAction::ReleaseUe { conn: 7, cause: ReleaseCause::NetworkAbort },
                trace: None,
            },
            ControlAction {
                id: 2,
                ttl: Duration::from_secs(30),
                action: MitigationAction::BlacklistRnti { rnti: Rnti(0x4612) },
                trace: None,
            },
            ControlAction {
                id: 3,
                ttl: Duration::from_secs(5),
                action: MitigationAction::ForceReauth { conn: 12 },
                trace: Some(0x1122_3344_5566_7788),
            },
            ControlAction {
                id: 4,
                ttl: Duration::from_millis(2500),
                action: MitigationAction::QuarantineCell { cell: CellId(1) },
                trace: None,
            },
            ControlAction {
                id: 5,
                ttl: Duration::from_secs(60),
                action: MitigationAction::RateLimitCause {
                    cause: EstablishmentCause::MoSignalling,
                    max_setups: 3,
                    window: Duration::from_millis(500),
                },
                trace: Some(7),
            },
        ]
    }

    #[test]
    fn round_trip_all_samples() {
        for action in samples() {
            let bytes = action.encode();
            assert_eq!(ControlAction::decode(&bytes).unwrap(), action, "failed: {action:?}");
        }
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        for action in samples() {
            let bytes = action.encode();
            // A traced payload cut exactly before its trailing trace TLV is
            // a complete untraced frame by design; every other cut is torn.
            let optional_boundary = action.trace.map(|_| bytes.len() - (3 + 8));
            for cut in 0..bytes.len() {
                if Some(cut) == optional_boundary {
                    let decoded = ControlAction::decode(&bytes[..cut]).unwrap();
                    assert_eq!(decoded, ControlAction { trace: None, ..action.clone() });
                    continue;
                }
                assert!(
                    ControlAction::decode(&bytes[..cut]).is_err(),
                    "{action:?} cut at {cut} decoded"
                );
            }
        }
    }

    #[test]
    fn decode_rejects_duplicates_unknown_tags_and_missing_fields() {
        let action = &samples()[0];
        let mut doubled = action.encode();
        doubled.extend_from_slice(&action.encode());
        assert!(ControlAction::decode(&doubled).is_err(), "duplicate TLVs accepted");

        let mut unknown = action.encode();
        unknown.extend_from_slice(&[0x7F, 0x00, 0x00]);
        assert!(ControlAction::decode(&unknown).is_err(), "unknown tag accepted");

        // Strip the body TLV: header-only payloads are incomplete.
        let header_only = &action.encode()[..7 + 11]; // id TLV (7) + ttl TLV (11)
        assert!(ControlAction::decode(header_only).is_err(), "missing body accepted");
    }

    #[test]
    fn trace_tlv_is_optional_and_trailing() {
        // Tolerated-as-absent: a payload with no trace TLV decodes to
        // `trace: None` — exactly what pre-tracing encoders emit.
        let untraced = &samples()[0];
        assert_eq!(untraced.trace, None);
        let decoded = ControlAction::decode(&untraced.encode()).unwrap();
        assert_eq!(decoded.trace, None);

        // And the converse: stripping the trailing trace TLV off a traced
        // payload yields the same action minus the trace — old decoders
        // that reject tag 0x03 see a frame they already understand.
        let traced = &samples()[2];
        let bytes = traced.encode();
        let stripped = &bytes[..bytes.len() - (3 + 8)]; // tag + len + u64
        let decoded = ControlAction::decode(stripped).unwrap();
        assert_eq!(decoded, ControlAction { trace: None, ..traced.clone() });

        // Duplicated trace TLVs stay errors — optional, not lax.
        let mut doubled = bytes.clone();
        doubled.extend_from_slice(&bytes[bytes.len() - (3 + 8)..]);
        assert!(ControlAction::decode(&doubled).is_err(), "duplicate trace TLV accepted");
    }

    #[test]
    fn tlv_length_boundary_is_exact() {
        // Regression: `value.len() as u16` used to truncate silently, so a
        // 65536-byte value encoded a zero length and corrupted the frame.
        let mut buf = Vec::new();
        let max = vec![0xAB; MAX_TLV_VALUE_LEN];
        put_tlv(&mut buf, 0x55, &[&max]).unwrap();
        assert_eq!(buf.len(), 3 + MAX_TLV_VALUE_LEN);
        assert_eq!(&buf[..3], &[0x55, 0xFF, 0xFF], "length field must be 0xFFFF");

        let mut buf = Vec::new();
        let over = vec![0xAB; MAX_TLV_VALUE_LEN + 1];
        let e = put_tlv(&mut buf, 0x55, &[&over]).unwrap_err();
        assert_eq!(e.category(), "codec");
        assert_eq!(buf, [0x55], "a refused length must not be written, truncated or not");
    }

    #[test]
    fn try_encode_succeeds_for_every_action_shape() {
        for action in samples() {
            let bytes = action.try_encode().unwrap();
            assert_eq!(bytes, action.encode());
            assert_eq!(ControlAction::decode(&bytes).unwrap(), action);
        }
    }

    #[test]
    fn cause_codes_cover_every_variant() {
        for cause in EstablishmentCause::ALL {
            assert_eq!(EstablishmentCause::from_code(cause.code()), Some(cause));
        }
        for cause in [
            ReleaseCause::Normal,
            ReleaseCause::RadioLinkFailure,
            ReleaseCause::NetworkAbort,
            ReleaseCause::Congestion,
        ] {
            assert_eq!(ReleaseCause::from_code(cause.code()), Some(cause));
        }
    }
}
