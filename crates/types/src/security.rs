//! 5G AS/NAS security algorithm enumerations (3GPP 33.501).
//!
//! The null algorithms (`NEA0` / `NIA0`) are legitimate only in narrow cases
//! (e.g. emergency calls). A network that *negotiates down* to them for a
//! normal session is the signature of the null-cipher downgrade attack the
//! paper evaluates (5GReasoner's "NAS security mode downgrade").

use serde::{Deserialize, Serialize};
use std::fmt;

/// NR Encryption Algorithm selected for a UE's AS/NAS security context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CipherAlg {
    /// Null ciphering — traffic is sent in plaintext.
    Nea0,
    /// 128-NEA1, SNOW 3G based.
    Nea1,
    /// 128-NEA2, AES-CTR based.
    Nea2,
    /// 128-NEA3, ZUC based.
    Nea3,
}

impl CipherAlg {
    /// Returns `true` for the null algorithm, i.e. no confidentiality at all.
    pub fn is_null(self) -> bool {
        matches!(self, CipherAlg::Nea0)
    }

    /// All algorithms in preference order (strongest first), as a gNB security
    /// policy would rank them.
    const PREFERENCE: [CipherAlg; 4] =
        [CipherAlg::Nea2, CipherAlg::Nea1, CipherAlg::Nea3, CipherAlg::Nea0];

    /// Stable numeric code used by the wire codec and the featurizer.
    pub fn code(self) -> u8 {
        match self {
            CipherAlg::Nea0 => 0,
            CipherAlg::Nea1 => 1,
            CipherAlg::Nea2 => 2,
            CipherAlg::Nea3 => 3,
        }
    }

    /// Inverse of [`CipherAlg::code`].
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(CipherAlg::Nea0),
            1 => Some(CipherAlg::Nea1),
            2 => Some(CipherAlg::Nea2),
            3 => Some(CipherAlg::Nea3),
            _ => None,
        }
    }
}

impl fmt::Display for CipherAlg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NEA{}", self.code())
    }
}

/// NR Integrity Algorithm selected for a UE's AS/NAS security context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum IntegrityAlg {
    /// Null integrity — messages are unauthenticated.
    Nia0,
    /// 128-NIA1, SNOW 3G based.
    Nia1,
    /// 128-NIA2, AES-CMAC based.
    Nia2,
    /// 128-NIA3, ZUC based.
    Nia3,
}

impl IntegrityAlg {
    /// Returns `true` for the null algorithm, i.e. no integrity protection.
    pub fn is_null(self) -> bool {
        matches!(self, IntegrityAlg::Nia0)
    }

    /// All algorithms in preference order (strongest first).
    const PREFERENCE: [IntegrityAlg; 4] =
        [IntegrityAlg::Nia2, IntegrityAlg::Nia1, IntegrityAlg::Nia3, IntegrityAlg::Nia0];

    /// Stable numeric code used by the wire codec and the featurizer.
    pub fn code(self) -> u8 {
        match self {
            IntegrityAlg::Nia0 => 0,
            IntegrityAlg::Nia1 => 1,
            IntegrityAlg::Nia2 => 2,
            IntegrityAlg::Nia3 => 3,
        }
    }

    /// Inverse of [`IntegrityAlg::code`].
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(IntegrityAlg::Nia0),
            1 => Some(IntegrityAlg::Nia1),
            2 => Some(IntegrityAlg::Nia2),
            3 => Some(IntegrityAlg::Nia3),
            _ => None,
        }
    }
}

impl fmt::Display for IntegrityAlg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NIA{}", self.code())
    }
}

/// The set of algorithms a UE advertises during registration.
///
/// The AMF/gNB intersect these with their own policy to pick the session
/// algorithms. A man-in-the-middle that strips the strong algorithms from this
/// bitmap forces the downgrade to `NEA0`/`NIA0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SecurityCapabilities {
    /// Supported ciphering algorithms.
    ciphers: [bool; 4],
    /// Supported integrity algorithms.
    pub integrity: [bool; 4],
}

impl SecurityCapabilities {
    /// Capabilities of a normal commodity handset: everything supported.
    pub fn full() -> Self {
        SecurityCapabilities { ciphers: [true; 4], integrity: [true; 4] }
    }

    /// Capabilities stripped down to the null algorithms only — the bitmap a
    /// downgrade MiTM substitutes in flight.
    pub fn null_only() -> Self {
        let mut caps = SecurityCapabilities { ciphers: [false; 4], integrity: [false; 4] };
        caps.ciphers[0] = true;
        caps.integrity[0] = true;
        caps
    }

    /// Returns `true` if the given cipher is advertised.
    fn supports_cipher(&self, alg: CipherAlg) -> bool {
        self.ciphers[alg.code() as usize]
    }

    /// Returns `true` if the given integrity algorithm is advertised.
    fn supports_integrity(&self, alg: IntegrityAlg) -> bool {
        self.integrity[alg.code() as usize]
    }

    /// Selects the session algorithms: the strongest pair (by network
    /// preference order) that both sides support. Always succeeds because
    /// `NEA0`/`NIA0` are mandatory-to-implement.
    pub fn negotiate(&self) -> (CipherAlg, IntegrityAlg) {
        let cipher = CipherAlg::PREFERENCE
            .into_iter()
            .find(|c| self.supports_cipher(*c))
            .unwrap_or(CipherAlg::Nea0);
        let integrity = IntegrityAlg::PREFERENCE
            .into_iter()
            .find(|i| self.supports_integrity(*i))
            .unwrap_or(IntegrityAlg::Nia0);
        (cipher, integrity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_detection() {
        assert!(CipherAlg::Nea0.is_null());
        assert!(!CipherAlg::Nea2.is_null());
        assert!(IntegrityAlg::Nia0.is_null());
        assert!(!IntegrityAlg::Nia2.is_null());
    }

    #[test]
    fn code_round_trip() {
        for alg in [CipherAlg::Nea0, CipherAlg::Nea1, CipherAlg::Nea2, CipherAlg::Nea3] {
            assert_eq!(CipherAlg::from_code(alg.code()), Some(alg));
        }
        for alg in [IntegrityAlg::Nia0, IntegrityAlg::Nia1, IntegrityAlg::Nia2, IntegrityAlg::Nia3]
        {
            assert_eq!(IntegrityAlg::from_code(alg.code()), Some(alg));
        }
        assert_eq!(CipherAlg::from_code(7), None);
        assert_eq!(IntegrityAlg::from_code(255), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(CipherAlg::Nea2.to_string(), "NEA2");
        assert_eq!(IntegrityAlg::Nia0.to_string(), "NIA0");
    }

    #[test]
    fn full_capabilities_negotiate_strongest() {
        let caps = SecurityCapabilities::full();
        assert_eq!(caps.negotiate(), (CipherAlg::Nea2, IntegrityAlg::Nia2));
    }

    #[test]
    fn null_only_capabilities_negotiate_null() {
        let caps = SecurityCapabilities::null_only();
        assert_eq!(caps.negotiate(), (CipherAlg::Nea0, IntegrityAlg::Nia0));
    }

    #[test]
    fn partial_capabilities_follow_preference_order() {
        let mut caps = SecurityCapabilities::full();
        caps.ciphers[CipherAlg::Nea2.code() as usize] = false;
        // NEA1 is next in the network preference list.
        assert_eq!(caps.negotiate().0, CipherAlg::Nea1);
        caps.ciphers[CipherAlg::Nea1.code() as usize] = false;
        assert_eq!(caps.negotiate().0, CipherAlg::Nea3);
    }
}
