//! Snapshot status categories (paper §3.2.1).

use std::fmt;

use ddx_json::{FromJson, ToJson};

/// The six snapshot categories a DNSViz run assigns to a query domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, ToJson, FromJson)]
pub enum SnapshotStatus {
    /// Signed and valid: no DNSSEC errors at all.
    Sv,
    /// Signed and valid with misconfiguration: a violation exists but a
    /// valid authentication path can still be built.
    Svm,
    /// Signed and bogus: at least one query fails validation → SERVFAIL.
    Sb,
    /// Insecure: explicitly unsigned with a valid proof of no DS.
    Is,
    /// Lame: the zone's nameservers don't respond or can't be resolved.
    Lm,
    /// Incomplete: the delegation is missing on the parent side.
    Ic,
}

impl SnapshotStatus {
    /// The paper's lowercase labels.
    pub fn label(self) -> &'static str {
        match self {
            SnapshotStatus::Sv => "sv",
            SnapshotStatus::Svm => "svm",
            SnapshotStatus::Sb => "sb",
            SnapshotStatus::Is => "is",
            SnapshotStatus::Lm => "lm",
            SnapshotStatus::Ic => "ic",
        }
    }

    pub const ALL: [SnapshotStatus; 6] = [
        SnapshotStatus::Sv,
        SnapshotStatus::Svm,
        SnapshotStatus::Sb,
        SnapshotStatus::Is,
        SnapshotStatus::Lm,
        SnapshotStatus::Ic,
    ];
}

impl fmt::Display for SnapshotStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(SnapshotStatus::Sv.label(), "sv");
        assert_eq!(SnapshotStatus::Svm.label(), "svm");
        assert_eq!(SnapshotStatus::Sb.label(), "sb");
        assert_eq!(SnapshotStatus::Is.label(), "is");
        assert_eq!(SnapshotStatus::Lm.label(), "lm");
        assert_eq!(SnapshotStatus::Ic.label(), "ic");
    }
}
