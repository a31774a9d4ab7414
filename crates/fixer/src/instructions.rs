//! High-level remediation instructions — the vocabulary of DFixer plans
//! (paper Table 7) — and the zone context used to populate their
//! parameters.

use std::fmt;

use ddx_json::{FromJson, ToJson};

use ddx_dns::{Ds, Name, RrType};
use ddx_dnssec::{Algorithm, DigestType, Nsec3Config};

/// The instruction kinds DFixer issues, matching the rows of Table 7 plus
/// the two auxiliary steps from the sample workflow (Fig 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, ToJson, FromJson)]
pub enum InstructionKind {
    SignZone,
    RemoveIncorrectDs,
    UploadDs,
    GenerateKsk,
    SyncAuthServers,
    GenerateZsk,
    ReduceTtl,
    RemoveRevokedKey,
    /// Auxiliary: remove a non-revoked but invalid key (e.g. bad length).
    RemoveInvalidKey,
    /// Auxiliary: wait out a TTL before the next step (Fig 8 step 5).
    WaitTtl,
    /// Extension (paper §5.5.2): publish CDS/CDNSKEY so the parent updates
    /// the DS set automatically (RFC 7344/8078) instead of a registrar
    /// round trip.
    PublishCds,
}

impl InstructionKind {
    /// Table 7 row label.
    pub fn label(self) -> &'static str {
        match self {
            InstructionKind::SignZone => "Sign the zone",
            InstructionKind::RemoveIncorrectDs => "Remove the incorrect DS record",
            InstructionKind::UploadDs => "Upload the DS record",
            InstructionKind::GenerateKsk => "Generate a KSK",
            InstructionKind::SyncAuthServers => "Synchronize the DNS authoritative server",
            InstructionKind::GenerateZsk => "Generate ZSK",
            InstructionKind::ReduceTtl => "Reduce TTL of a specific record",
            InstructionKind::RemoveRevokedKey => "Remove the revoked key",
            InstructionKind::RemoveInvalidKey => "Remove the invalid key",
            InstructionKind::WaitTtl => "Wait for TTL expiry",
            InstructionKind::PublishCds => "Publish CDS/CDNSKEY records",
        }
    }
}

impl fmt::Display for InstructionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// One concrete, parameterized remediation step.
#[derive(Debug, Clone, PartialEq, Eq, ToJson)]
pub enum Instruction {
    /// Re-sign the zone, optionally switching denial parameters (e.g. to
    /// RFC 9276-compliant NSEC3 or plain NSEC).
    SignZone { nsec3: Option<Nsec3Config> },
    /// Remove one DS record at the registrar.
    RemoveIncorrectDs { ds: Ds },
    /// Generate and upload DS records for the zone's KSK(s).
    UploadDs { digest_type: DigestType },
    /// Generate a new key-signing key.
    GenerateKsk { algorithm: Algorithm, bits: u16 },
    /// Generate a new zone-signing key.
    GenerateZsk { algorithm: Algorithm, bits: u16 },
    /// Push the canonical signed zone to every authoritative server.
    SyncAuthServers,
    /// Lower the TTL of one RRset to `ttl`.
    ReduceTtl { name: Name, rtype: RrType, ttl: u32 },
    /// Deactivate and delete a revoked key (`dnssec-settime -D`).
    RemoveRevokedKey { key_tag: u16 },
    /// Deactivate and delete an invalid (non-revoked) key.
    RemoveInvalidKey { key_tag: u16 },
    /// Wait for caches to expire before continuing.
    WaitTtl { seconds: u32 },
    /// Publish CDS/CDNSKEY describing the desired DS set; a compliant
    /// parent installs it and drops everything else (RFC 7344/8078).
    PublishCds { digest_type: DigestType },
}

impl Instruction {
    pub fn kind(&self) -> InstructionKind {
        match self {
            Instruction::SignZone { .. } => InstructionKind::SignZone,
            Instruction::RemoveIncorrectDs { .. } => InstructionKind::RemoveIncorrectDs,
            Instruction::UploadDs { .. } => InstructionKind::UploadDs,
            Instruction::GenerateKsk { .. } => InstructionKind::GenerateKsk,
            Instruction::GenerateZsk { .. } => InstructionKind::GenerateZsk,
            Instruction::SyncAuthServers => InstructionKind::SyncAuthServers,
            Instruction::ReduceTtl { .. } => InstructionKind::ReduceTtl,
            Instruction::RemoveRevokedKey { .. } => InstructionKind::RemoveRevokedKey,
            Instruction::RemoveInvalidKey { .. } => InstructionKind::RemoveInvalidKey,
            Instruction::WaitTtl { .. } => InstructionKind::WaitTtl,
            Instruction::PublishCds { .. } => InstructionKind::PublishCds,
        }
    }

    /// Human-readable description (the "high-level instructions" DFixer
    /// prints above the concrete commands).
    pub fn describe(&self) -> String {
        match self {
            Instruction::SignZone { nsec3: None } => "Re-sign the zone (NSEC)".into(),
            Instruction::SignZone { nsec3: Some(cfg) } => format!(
                "Re-sign the zone with NSEC3 (iterations={}, salt {}, opt-out={})",
                cfg.iterations,
                if cfg.salt.is_empty() { "empty" } else { "set" },
                cfg.opt_out
            ),
            Instruction::RemoveIncorrectDs { ds } => format!(
                "Remove the incorrect DS record (key_tag={}, algorithm={}) at the registrar",
                ds.key_tag, ds.algorithm
            ),
            Instruction::UploadDs { digest_type } => format!(
                "Generate the DS record from the KSK (digest type {}) and upload it via the registrar",
                digest_type.code()
            ),
            Instruction::GenerateKsk { algorithm, bits } => {
                format!("Generate a new KSK key pair ({algorithm}, {bits} bits)")
            }
            Instruction::GenerateZsk { algorithm, bits } => {
                format!("Generate a new ZSK key pair ({algorithm}, {bits} bits)")
            }
            Instruction::SyncAuthServers => {
                "Synchronize the signed zone across all authoritative servers".into()
            }
            Instruction::ReduceTtl { name, rtype, ttl } => {
                format!("Reduce the TTL of {name} {rtype} to {ttl}")
            }
            Instruction::RemoveRevokedKey { key_tag } => {
                format!("Deactivate and delete the revoked DNSKEY (key_tag={key_tag})")
            }
            Instruction::RemoveInvalidKey { key_tag } => {
                format!("Deactivate and delete the invalid DNSKEY (key_tag={key_tag})")
            }
            Instruction::WaitTtl { seconds } => {
                format!("Wait at least {seconds}s for the removed records to expire from caches")
            }
            Instruction::PublishCds { digest_type } => format!(
                "Publish CDS/CDNSKEY records (digest type {}) and let the parent's scanner update the DS set",
                digest_type.code()
            ),
        }
    }
}

/// Zone context used to populate command parameters (paths, names,
/// algorithms) when rendering plans into shell commands.
#[derive(Debug, Clone)]
pub(crate) struct ZoneContext {
    pub zone: Name,
    /// Directory holding key files.
    pub(crate) key_dir: String,
    /// Path of the unsigned zone file.
    pub(crate) zone_file: String,
    /// Key file stems by tag, for `dnssec-settime`/`dnssec-dsfromkey`.
    pub(crate) key_files: Vec<(u16, String)>,
}

impl ZoneContext {
    pub(crate) fn new(zone: Name) -> Self {
        let stem = zone.to_string().trim_end_matches('.').replace('.', "_");
        ZoneContext {
            key_dir: format!("/etc/bind/keys/{stem}"),
            zone_file: format!("/etc/bind/zones/{stem}.db"),
            zone,
            key_files: Vec::new(),
        }
    }

    /// The key file stem for a tag, or a placeholder.
    pub(crate) fn key_file(&self, tag: u16) -> String {
        self.key_files
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, f)| f.clone())
            .unwrap_or_else(|| format!("K{}+XXX+{tag:05}", self.zone))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddx_dns::name;

    #[test]
    fn kinds_cover_table7() {
        assert_eq!(InstructionKind::SignZone.label(), "Sign the zone");
        assert_eq!(
            InstructionKind::SyncAuthServers.label(),
            "Synchronize the DNS authoritative server"
        );
    }

    #[test]
    fn instruction_kind_mapping() {
        let i = Instruction::GenerateKsk {
            algorithm: Algorithm::EcdsaP256Sha256,
            bits: 256,
        };
        assert_eq!(i.kind(), InstructionKind::GenerateKsk);
        assert!(i.describe().contains("KSK"));
        let i = Instruction::SignZone {
            nsec3: Some(Nsec3Config::default()),
        };
        assert!(i.describe().contains("iterations=0"));
    }

    #[test]
    fn zone_context_paths() {
        let ctx = ZoneContext::new(name("inv-chd.par.a.com"));
        assert!(ctx.key_dir.contains("inv-chd_par_a_com"));
        assert!(ctx.key_file(12345).contains("12345"));
        let mut ctx = ctx;
        ctx.key_files
            .push((7, "Kinv-chd.par.a.com.+013+00007".into()));
        assert_eq!(ctx.key_file(7), "Kinv-chd.par.a.com.+013+00007");
    }
}
