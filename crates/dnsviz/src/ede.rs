//! RFC 8914 Extended DNS Errors: the resolver-facing error signals the
//! paper's related work measures at scale (Nosyk et al., IMC '23). Every
//! internal [`ErrorCode`] maps to the EDE a validating resolver would
//! attach to its SERVFAIL (or to a warning code for tolerated violations).

use ddx_json::ToJson;

use crate::codes::ErrorCode;

/// An RFC 8914 info-code (the subset DNSSEC validation produces).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, ToJson)]
pub enum Ede {
    /// 1 — Unsupported DNSKEY Algorithm.
    UnsupportedDnskeyAlgorithm,
    /// 2 — Unsupported DS Digest Type.
    UnsupportedDsDigestType,
    /// 6 — DNSSEC Bogus.
    DnssecBogus,
    /// 7 — Signature Expired.
    SignatureExpired,
    /// 8 — Signature Not Yet Valid.
    SignatureNotYetValid,
    /// 9 — DNSKEY Missing.
    DnskeyMissing,
    /// 10 — RRSIGs Missing.
    RrsigsMissing,
    /// 11 — No Zone Key Bit Set.
    NoZoneKeyBitSet,
    /// 12 — NSEC Missing.
    NsecMissing,
    /// 27 — Unsupported NSEC3 Iterations Value.
    UnsupportedNsec3Iterations,
}

impl Ede {
    /// IANA info-code.
    pub fn code(self) -> u16 {
        match self {
            Ede::UnsupportedDnskeyAlgorithm => 1,
            Ede::UnsupportedDsDigestType => 2,
            Ede::DnssecBogus => 6,
            Ede::SignatureExpired => 7,
            Ede::SignatureNotYetValid => 8,
            Ede::DnskeyMissing => 9,
            Ede::RrsigsMissing => 10,
            Ede::NoZoneKeyBitSet => 11,
            Ede::NsecMissing => 12,
            Ede::UnsupportedNsec3Iterations => 27,
        }
    }

    /// RFC 8914 "Purpose" text.
    pub fn purpose(self) -> &'static str {
        match self {
            Ede::UnsupportedDnskeyAlgorithm => "Unsupported DNSKEY Algorithm",
            Ede::UnsupportedDsDigestType => "Unsupported DS Digest Type",
            Ede::DnssecBogus => "DNSSEC Bogus",
            Ede::SignatureExpired => "Signature Expired",
            Ede::SignatureNotYetValid => "Signature Not Yet Valid",
            Ede::DnskeyMissing => "DNSKEY Missing",
            Ede::RrsigsMissing => "RRSIGs Missing",
            Ede::NoZoneKeyBitSet => "No Zone Key Bit Set",
            Ede::NsecMissing => "NSEC Missing",
            Ede::UnsupportedNsec3Iterations => "Unsupported NSEC3 Iterations Value",
        }
    }
}

/// The EDE a validating resolver would emit for an internal error code.
pub(crate) fn ede_for(code: ErrorCode) -> Ede {
    use ErrorCode::*;
    match code {
        RrsigExpired => Ede::SignatureExpired,
        RrsigNotYetValid => Ede::SignatureNotYetValid,
        DnskeyMissingForDs | DnskeyMissingFromServers | DnskeyInconsistentRrset => {
            Ede::DnskeyMissing
        }
        RrsigMissing
        | RrsigMissingFromServers
        | RrsigMissingForDnskey
        | DnskeyAlgorithmWithoutRrsig
        | DsAlgorithmWithoutRrsig => Ede::RrsigsMissing,
        RrsigInvalidRdata => Ede::NoZoneKeyBitSet,
        NsecProofMissing
        | Nsec3ProofMissing
        | NsecCoverageBroken
        | Nsec3CoverageBroken
        | NsecMissingWildcardProof
        | Nsec3MissingWildcardProof
        | Nsec3NoClosestEncloser
        | LastNsecNotApex => Ede::NsecMissing,
        Nsec3IterationsNonzero => Ede::UnsupportedNsec3Iterations,
        Nsec3UnsupportedAlgorithm => Ede::UnsupportedDnskeyAlgorithm,
        DsUnknownDigestType => Ede::UnsupportedDsDigestType,
        // Everything else surfaces as generic DNSSEC Bogus.
        _ => Ede::DnssecBogus,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specific_mappings() {
        assert_eq!(ede_for(ErrorCode::RrsigExpired).code(), 7);
        assert_eq!(ede_for(ErrorCode::RrsigNotYetValid).code(), 8);
        assert_eq!(ede_for(ErrorCode::RrsigMissing).code(), 10);
        assert_eq!(ede_for(ErrorCode::DnskeyMissingForDs).code(), 9);
        assert_eq!(ede_for(ErrorCode::Nsec3IterationsNonzero).code(), 27);
        assert_eq!(ede_for(ErrorCode::NsecProofMissing).code(), 12);
        assert_eq!(ede_for(ErrorCode::DsDigestInvalid).code(), 6);
        assert_eq!(ede_for(ErrorCode::DsUnknownDigestType).code(), 2);
    }

    #[test]
    fn every_code_maps() {
        for c in ErrorCode::ALL {
            let e = ede_for(c);
            assert!(!e.purpose().is_empty());
            assert!(e.code() <= 27);
        }
    }
}
