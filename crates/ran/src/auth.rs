//! Stand-in cryptography for 5G-AKA and SUCI concealment.
//!
//! The paper's threat model assumes attackers "adhere to cryptographic
//! assumptions" — they never break AKA or SUCI encryption, they only abuse
//! *unprotected* messages. We therefore do not need real cryptography, only
//! functions with the right *interface properties*:
//!
//! * [`aka_response`] is deterministic in `(key, rand)` and infeasible to
//!   produce without the key (we use a 64-bit mixer; adversarial behaviors in
//!   `xsec-attacks` simply never call it without a key, honoring the model);
//! * [`conceal_supi`]/[`reveal_supi`] hide the MSIN from an observer without
//!   the network secret and produce a different concealed value per nonce,
//!   exactly like ECIES-based SUCI does from the telemetry's point of view.

/// The home-network "private key" shared by UE SIM profiles and the AMF in
/// this simulation (stands in for the ECIES key pair).
const NETWORK_SECRET: u64 = 0x6A5F_3C21_9E84_D7B3;

/// SplitMix64 — a well-distributed 64-bit mixer; our stand-in PRF.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Computes the UE's RES* for a 5G-AKA challenge.
pub fn aka_response(key: u64, rand: u64) -> u64 {
    mix(key ^ mix(rand))
}

/// Conceals an MSIN under a fresh nonce: the top 32 bits carry the nonce in
/// clear (like the ECIES ephemeral public key), the bottom 32 bits carry the
/// MSIN XOR-masked with a PRF of the nonce and the network secret.
///
/// MSINs in the simulation fit in 32 bits.
pub fn conceal_supi(msin: u64, nonce: u32) -> u64 {
    let mask = (mix(u64::from(nonce) ^ NETWORK_SECRET) & 0xFFFF_FFFF) as u32;
    (u64::from(nonce) << 32) | u64::from((msin as u32) ^ mask)
}

/// Recovers the MSIN from a concealed identity (home network side).
pub fn reveal_supi(concealed: u64) -> u64 {
    let nonce = (concealed >> 32) as u32;
    let mask = (mix(u64::from(nonce) ^ NETWORK_SECRET) & 0xFFFF_FFFF) as u32;
    u64::from(((concealed & 0xFFFF_FFFF) as u32) ^ mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aka_round_trip() {
        let key = 0xC0FFEE;
        let res = aka_response(key, 42);
        assert_eq!(aka_response(key, 42), res);
        assert_ne!(aka_response(key, 43), res);
        assert_ne!(aka_response(key + 1, 42), res);
    }

    #[test]
    fn aka_differs_across_challenges() {
        let key = 7;
        assert_ne!(aka_response(key, 1), aka_response(key, 2));
    }

    #[test]
    fn suci_conceal_reveal_round_trip() {
        for msin in [0u64, 1, 0xDEAD, 0xFFFF_FFFF] {
            for nonce in [0u32, 1, 0xABCD_EF01] {
                assert_eq!(reveal_supi(conceal_supi(msin, nonce)), msin);
            }
        }
    }

    #[test]
    fn same_msin_different_nonce_looks_different() {
        let a = conceal_supi(1234, 1);
        let b = conceal_supi(1234, 2);
        assert_ne!(a, b);
        // ... and even the masked low words differ.
        assert_ne!(a & 0xFFFF_FFFF, b & 0xFFFF_FFFF);
    }

    #[test]
    fn concealed_value_does_not_leak_msin() {
        let concealed = conceal_supi(0x1234_5678, 99);
        assert_ne!(concealed & 0xFFFF_FFFF, 0x1234_5678);
    }
}
