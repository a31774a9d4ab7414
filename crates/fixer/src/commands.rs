//! Rendering instructions into concrete shell commands for each supported
//! authoritative implementation (paper §4.3 step 3 and §5.6): BIND is the
//! primary target; NSD (ldns utilities), Knot (`keymgr`), and PowerDNS
//! (`pdnsutil` + pre-signed import workaround) are thin translation layers
//! over the same plan.

use std::fmt;

use ddx_json::ToJson;

use crate::instructions::{Instruction, ZoneContext};

/// The server software a plan is rendered for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, ToJson)]
pub enum ServerFlavor {
    Bind,
    Nsd,
    Knot,
    PowerDns,
}

impl ServerFlavor {
    pub const ALL: [ServerFlavor; 4] = [
        ServerFlavor::Bind,
        ServerFlavor::Nsd,
        ServerFlavor::Knot,
        ServerFlavor::PowerDns,
    ];

    pub fn label(self) -> &'static str {
        match self {
            ServerFlavor::Bind => "BIND 9",
            ServerFlavor::Nsd => "NSD (ldns)",
            ServerFlavor::Knot => "Knot DNS",
            ServerFlavor::PowerDns => "PowerDNS",
        }
    }
}

/// One rendered shell command (or manual step).
#[derive(Debug, Clone, PartialEq, Eq, ToJson)]
pub struct ShellCommand {
    /// The full command line; empty for purely manual steps.
    pub line: String,
    /// True when the operator must act outside the shell (registrar UI).
    pub manual: bool,
    /// Explanation shown to the operator.
    pub note: String,
}

impl ShellCommand {
    fn run(line: impl Into<String>, note: impl Into<String>) -> Self {
        ShellCommand {
            line: line.into(),
            manual: false,
            note: note.into(),
        }
    }

    fn manual(note: impl Into<String>) -> Self {
        ShellCommand {
            line: String::new(),
            manual: true,
            note: note.into(),
        }
    }
}

impl fmt::Display for ShellCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.manual {
            write!(f, "# MANUAL: {}", self.note)
        } else {
            write!(f, "{}  # {}", self.line, self.note)
        }
    }
}

/// Renders one instruction into the command sequence for `flavor`.
pub(crate) fn render(
    instr: &Instruction,
    ctx: &ZoneContext,
    flavor: ServerFlavor,
) -> Vec<ShellCommand> {
    match flavor {
        ServerFlavor::Bind => render_bind(instr, ctx),
        ServerFlavor::Nsd => render_nsd(instr, ctx),
        ServerFlavor::Knot => render_knot(instr, ctx),
        ServerFlavor::PowerDns => render_pdns(instr, ctx),
    }
}

/// Renders a whole plan.
pub(crate) fn render_plan(
    plan: &[Instruction],
    ctx: &ZoneContext,
    flavor: ServerFlavor,
) -> Vec<ShellCommand> {
    plan.iter().flat_map(|i| render(i, ctx, flavor)).collect()
}

fn render_bind(instr: &Instruction, ctx: &ZoneContext) -> Vec<ShellCommand> {
    let zone = ctx.zone.to_string();
    match instr {
        Instruction::SignZone { nsec3 } => {
            let mut line = format!("cd {} && dnssec-signzone -N INCREMENT -S", ctx.key_dir);
            if let Some(cfg) = nsec3 {
                let salt = if cfg.salt.is_empty() {
                    "-".to_string()
                } else {
                    cfg.salt.iter().map(|b| format!("{b:02x}")).collect()
                };
                line.push_str(&format!(" -3 {salt} -H {}", cfg.iterations));
                if cfg.opt_out {
                    line.push_str(" -A");
                }
            }
            line.push_str(&format!(" -o {zone} -t {}", ctx.zone_file));
            vec![
                ShellCommand::run(line, "sign the zone with the keys in the key directory"),
                ShellCommand::run(
                    format!("rndc reload {zone}"),
                    "load the freshly signed zone",
                ),
            ]
        }
        Instruction::RemoveIncorrectDs { ds } => vec![ShellCommand::manual(format!(
            "remove the DS record with key_tag={} algorithm={} digest_type={} from the parent zone via your registrar",
            ds.key_tag, ds.algorithm, ds.digest_type
        ))],
        Instruction::UploadDs { digest_type } => vec![
            ShellCommand::run(
                format!(
                    "cd {} && dnssec-dsfromkey {} <public_key_file>",
                    ctx.key_dir,
                    digest_type.dsfromkey_flag()
                ),
                "print the DS record for the KSK public key file",
            ),
            ShellCommand::manual(
                "upload the printed DS record to the parent zone via your registrar",
            ),
        ],
        Instruction::GenerateKsk { algorithm, bits } => vec![ShellCommand::run(
            format!(
                "cd {} && dnssec-keygen -f KSK -a {} -b {} -n ZONE {zone}",
                ctx.key_dir,
                algorithm.mnemonic(),
                bits
            ),
            "generate a new KSK key pair; note the .key file name",
        )],
        Instruction::GenerateZsk { algorithm, bits } => vec![ShellCommand::run(
            format!(
                "cd {} && dnssec-keygen -a {} -b {} -n ZONE {zone}",
                ctx.key_dir,
                algorithm.mnemonic(),
                bits
            ),
            "generate a new ZSK key pair",
        )],
        Instruction::SyncAuthServers => vec![
            ShellCommand::run(
                format!("rsync -a {} secondary:{}", ctx.zone_file, ctx.zone_file),
                "copy the signed zone to every secondary",
            ),
            ShellCommand::run("rndc reload".to_string(), "reload all instances"),
        ],
        Instruction::ReduceTtl { name, rtype, ttl } => vec![ShellCommand::run(
            format!(
                "sed -i 's/^{name}\\([[:space:]]\\+\\)[0-9]\\+\\([[:space:]]\\+IN[[:space:]]\\+{rtype}\\)/{name}\\1{ttl}\\2/' {}",
                ctx.zone_file
            ),
            "lower the RRset TTL in the zone file",
        )],
        Instruction::RemoveRevokedKey { key_tag } => vec![ShellCommand::run(
            format!(
                "dnssec-settime -D now {}/{}",
                ctx.key_dir,
                ctx.key_file(*key_tag)
            ),
            "schedule the revoked key for deletion",
        )],
        Instruction::RemoveInvalidKey { key_tag } => vec![ShellCommand::run(
            format!(
                "dnssec-settime -D now {}/{}",
                ctx.key_dir,
                ctx.key_file(*key_tag)
            ),
            "schedule the invalid key for deletion",
        )],
        Instruction::WaitTtl { seconds } => vec![ShellCommand::manual(format!(
            "wait at least {seconds}s (one full TTL) before the next step; auto-apply waits automatically"
        ))],
        Instruction::PublishCds { .. } => vec![
            ShellCommand::run(
                format!("dnssec-settime -P sync now {}/<ksk_key_file>", ctx.key_dir),
                "schedule CDS/CDNSKEY publication for the KSK",
            ),
            ShellCommand::run(
                format!(
                    "cd {} && dnssec-signzone -N INCREMENT -S -o {zone} -t {}",
                    ctx.key_dir, ctx.zone_file
                ),
                "re-sign so the CDS/CDNSKEY RRsets appear, signed",
            ),
            ShellCommand::manual(
                "the parent's CDS scanner (RFC 7344/8078) picks up the change; no registrar action needed",
            ),
        ],
    }
}

fn render_nsd(instr: &Instruction, ctx: &ZoneContext) -> Vec<ShellCommand> {
    let zone = ctx.zone.to_string();
    match instr {
        Instruction::SignZone { nsec3 } => {
            let mut line = format!("cd {} && ldns-signzone", ctx.key_dir);
            if let Some(cfg) = nsec3 {
                line.push_str(" -n");
                if !cfg.salt.is_empty() {
                    let salt: String = cfg.salt.iter().map(|b| format!("{b:02x}")).collect();
                    line.push_str(&format!(" -s {salt}"));
                }
                line.push_str(&format!(" -t {}", cfg.iterations));
                if cfg.opt_out {
                    line.push_str(" -p");
                }
            }
            line.push_str(&format!(" {} <key_base_names>", ctx.zone_file));
            vec![
                ShellCommand::run(line, "sign the zone with ldns-signzone"),
                ShellCommand::run(
                    format!("nsd-control reload {zone}"),
                    "reload the signed zone into NSD",
                ),
            ]
        }
        Instruction::GenerateKsk { algorithm, bits } => vec![ShellCommand::run(
            format!(
                "cd {} && ldns-keygen -k -a {} -b {} {zone}",
                ctx.key_dir,
                algorithm.mnemonic(),
                bits
            ),
            "generate a new KSK with ldns-keygen",
        )],
        Instruction::GenerateZsk { algorithm, bits } => vec![ShellCommand::run(
            format!(
                "cd {} && ldns-keygen -a {} -b {} {zone}",
                ctx.key_dir,
                algorithm.mnemonic(),
                bits
            ),
            "generate a new ZSK with ldns-keygen",
        )],
        Instruction::UploadDs { digest_type } => vec![
            ShellCommand::run(
                format!(
                    "cd {} && ldns-key2ds -n {} <key_file>",
                    ctx.key_dir,
                    if *digest_type == ddx_dnssec::DigestType::Sha1 {
                        "-1"
                    } else {
                        "-2"
                    }
                ),
                "derive the DS record with ldns-key2ds",
            ),
            ShellCommand::manual("upload the DS record via your registrar"),
        ],
        Instruction::RemoveRevokedKey { key_tag } | Instruction::RemoveInvalidKey { key_tag } => {
            vec![ShellCommand::run(
                format!("rm {}/{}.*", ctx.key_dir, ctx.key_file(*key_tag)),
                "delete the key files; the next ldns-signzone run drops the key",
            )]
        }
        Instruction::SyncAuthServers => vec![ShellCommand::run(
            format!(
                "nsd-control write {zone} && rsync -a {} secondary:",
                ctx.zone_file
            ),
            "distribute the zone and reload secondaries",
        )],
        Instruction::PublishCds { digest_type } => vec![
            ShellCommand::run(
                format!(
                    "cd {} && ldns-key2ds -n {} <key_file> >> {}",
                    ctx.key_dir,
                    if *digest_type == ddx_dnssec::DigestType::Sha1 {
                        "-1"
                    } else {
                        "-2"
                    },
                    ctx.zone_file
                ),
                "append CDS records to the zone file (edit type to CDS)",
            ),
            ShellCommand::manual("re-sign and reload; the parent's CDS scanner applies the change"),
        ],
        other => render_bind(other, ctx)
            .into_iter()
            .map(|mut c| {
                c.note = format!("{} (shared with BIND workflow)", c.note);
                c
            })
            .collect(),
    }
}

fn render_knot(instr: &Instruction, ctx: &ZoneContext) -> Vec<ShellCommand> {
    let zone = ctx.zone.to_string();
    match instr {
        Instruction::SignZone { nsec3 } => {
            let mut cmds = Vec::new();
            if let Some(cfg) = nsec3 {
                cmds.push(ShellCommand::run(
                    format!(
                        "knotc conf-set 'policy[default].nsec3' on && knotc conf-set 'policy[default].nsec3-iterations' {}",
                        cfg.iterations
                    ),
                    "configure NSEC3 in the signing policy",
                ));
            }
            cmds.push(ShellCommand::run(
                format!("knotc zone-sign {zone}"),
                "trigger a full re-sign",
            ));
            cmds
        }
        Instruction::GenerateKsk { algorithm, bits } => vec![ShellCommand::run(
            format!(
                "keymgr {zone} generate ksk=yes algorithm={} size={}",
                algorithm.mnemonic(),
                bits
            ),
            "generate a new KSK with keymgr",
        )],
        Instruction::GenerateZsk { algorithm, bits } => vec![ShellCommand::run(
            format!(
                "keymgr {zone} generate algorithm={} size={}",
                algorithm.mnemonic(),
                bits
            ),
            "generate a new ZSK with keymgr",
        )],
        Instruction::RemoveRevokedKey { key_tag } | Instruction::RemoveInvalidKey { key_tag } => {
            vec![ShellCommand::run(
                format!("keymgr {zone} set {key_tag} retire=now remove=now"),
                "retire and remove the key",
            )]
        }
        Instruction::UploadDs { .. } => vec![
            ShellCommand::run(format!("keymgr {zone} ds"), "print the DS record"),
            ShellCommand::manual("upload the DS record via your registrar"),
        ],
        Instruction::PublishCds { .. } => vec![ShellCommand::run(
            format!("knotc conf-set 'policy[default].cds-cdnskey-publish' always && knotc zone-sign {zone}"),
            "Knot publishes CDS/CDNSKEY automatically under this policy",
        )],
        other => render_bind(other, ctx),
    }
}

fn render_pdns(instr: &Instruction, ctx: &ZoneContext) -> Vec<ShellCommand> {
    let zone = ctx.zone.to_string();
    match instr {
        Instruction::SignZone { .. } => vec![
            ShellCommand::manual(
                "PowerDNS cannot re-sign a pre-signed zone with pdnsutil (pdns#8892): fix the zone with the BIND commands, then re-import",
            ),
            ShellCommand::run(
                format!("pdnsutil load-zone {zone} {}", ctx.zone_file),
                "import the repaired, signed zone file",
            ),
            ShellCommand::run(format!("pdnsutil rectify-zone {zone}"), "rectify ordering"),
        ],
        Instruction::GenerateKsk { algorithm, bits } => vec![ShellCommand::run(
            format!(
                "pdnsutil add-zone-key {zone} ksk {bits} active {}",
                algorithm.mnemonic().to_lowercase()
            ),
            "add a new KSK",
        )],
        Instruction::GenerateZsk { algorithm, bits } => vec![ShellCommand::run(
            format!(
                "pdnsutil add-zone-key {zone} zsk {bits} active {}",
                algorithm.mnemonic().to_lowercase()
            ),
            "add a new ZSK",
        )],
        Instruction::RemoveRevokedKey { key_tag } | Instruction::RemoveInvalidKey { key_tag } => {
            vec![ShellCommand::run(
                format!("pdnsutil remove-zone-key {zone} {key_tag}"),
                "remove the key by id",
            )]
        }
        Instruction::UploadDs { .. } => vec![
            ShellCommand::run(format!("pdnsutil show-zone {zone}"), "print DS records"),
            ShellCommand::manual("upload the DS record via your registrar"),
        ],
        Instruction::PublishCds { .. } => vec![ShellCommand::run(
            format!("pdnsutil set-publish-cds {zone} && pdnsutil set-publish-cdnskey {zone}"),
            "PowerDNS serves CDS/CDNSKEY for the active keys",
        )],
        other => render_bind(other, ctx),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddx_dns::name;
    use ddx_dnssec::{Algorithm, DigestType, Nsec3Config};

    fn ctx() -> ZoneContext {
        ZoneContext::new(name("inv-chd.par.a.com"))
    }

    #[test]
    fn bind_keygen_matches_paper_fig8() {
        let cmds = render(
            &Instruction::GenerateKsk {
                algorithm: Algorithm::EcdsaP256Sha256,
                bits: 256,
            },
            &ctx(),
            ServerFlavor::Bind,
        );
        assert_eq!(cmds.len(), 1);
        assert!(cmds[0]
            .line
            .contains("dnssec-keygen -f KSK -a ECDSAP256SHA256 -b 256 -n ZONE"));
    }

    #[test]
    fn bind_signzone_nsec3_flags() {
        let cmds = render(
            &Instruction::SignZone {
                nsec3: Some(Nsec3Config::default()),
            },
            &ctx(),
            ServerFlavor::Bind,
        );
        assert!(cmds[0]
            .line
            .contains("dnssec-signzone -N INCREMENT -S -3 - -H 0"));
        assert!(cmds[1].line.starts_with("rndc reload"));
    }

    #[test]
    fn ds_upload_is_partly_manual() {
        let cmds = render(
            &Instruction::UploadDs {
                digest_type: DigestType::Sha256,
            },
            &ctx(),
            ServerFlavor::Bind,
        );
        assert!(cmds[0].line.contains("dnssec-dsfromkey -2"));
        assert!(cmds[1].manual);
    }

    #[test]
    fn every_flavor_renders_every_instruction() {
        let instructions = [
            Instruction::SignZone { nsec3: None },
            Instruction::SignZone {
                nsec3: Some(Nsec3Config::default()),
            },
            Instruction::RemoveIncorrectDs {
                ds: ddx_dns::Ds {
                    key_tag: 1,
                    algorithm: 13,
                    digest_type: 2,
                    digest: vec![0; 32],
                },
            },
            Instruction::UploadDs {
                digest_type: DigestType::Sha256,
            },
            Instruction::GenerateKsk {
                algorithm: Algorithm::RsaSha256,
                bits: 2048,
            },
            Instruction::GenerateZsk {
                algorithm: Algorithm::RsaSha256,
                bits: 2048,
            },
            Instruction::SyncAuthServers,
            Instruction::ReduceTtl {
                name: name("www.inv-chd.par.a.com"),
                rtype: ddx_dns::RrType::A,
                ttl: 300,
            },
            Instruction::RemoveRevokedKey { key_tag: 7 },
            Instruction::RemoveInvalidKey { key_tag: 8 },
            Instruction::WaitTtl { seconds: 3600 },
            Instruction::PublishCds {
                digest_type: DigestType::Sha256,
            },
        ];
        for flavor in ServerFlavor::ALL {
            for instr in &instructions {
                let cmds = render(instr, &ctx(), flavor);
                assert!(!cmds.is_empty(), "{flavor:?} renders nothing for {instr:?}");
                for c in cmds {
                    assert!(c.manual || !c.line.is_empty());
                    assert!(!c.note.is_empty());
                }
            }
        }
    }

    #[test]
    fn pdns_signzone_uses_import_workaround() {
        let cmds = render(
            &Instruction::SignZone { nsec3: None },
            &ctx(),
            ServerFlavor::PowerDns,
        );
        assert!(cmds[0].manual);
        assert!(cmds.iter().any(|c| c.line.contains("pdnsutil load-zone")));
    }

    #[test]
    fn knot_uses_keymgr() {
        let cmds = render(
            &Instruction::GenerateKsk {
                algorithm: Algorithm::EcdsaP256Sha256,
                bits: 256,
            },
            &ctx(),
            ServerFlavor::Knot,
        );
        assert!(cmds[0].line.contains("keymgr"));
        assert!(cmds[0].line.contains("ksk=yes"));
    }
}
