//! NDJSON result shards: one line per zone, one self-validating footer
//! per shard.
//!
//! A shard file is complete iff its last line is a footer whose zone
//! count, campaign seed, shard index, and FNV-1a-64 checksum (over the
//! record lines, newline included) all match. Shards are written to a
//! `.tmp` sibling and renamed into place on completion, so a killed run
//! never leaves a plausible-looking partial shard — `--resume` re-checks
//! the footer anyway, making truncation detectable even if a stray rename
//! happened.

use std::collections::BTreeSet;
use std::fs;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use ddx_json::{FromJson, ToJson};

use ddx_dnsviz::ErrorCode;
use ddx_fixer::InstructionKind;
use ddx_obs::{fnv1a, FNV_OFFSET};

/// Terminal outcome of one synthetic zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, ToJson, FromJson)]
#[json(rename_all = "snake_case")]
pub enum Outcome {
    /// Zone meta-parameters were unreplicable (e.g. an unsupported
    /// algorithm with no substitution) — no sandbox was built.
    MetaError,
    /// The sandbox was built but grok did not reproduce every intended
    /// error code, so the fixer never ran (mirrors the pipeline's
    /// replication gate).
    Unreplicated,
    /// DFixer converged: the final re-verification found no errors.
    Fixed,
    /// DFixer exhausted its iteration cap with errors remaining.
    Unfixed,
}

impl Outcome {
    pub fn label(self) -> &'static str {
        match self {
            Outcome::MetaError => "meta_error",
            Outcome::Unreplicated => "unreplicated",
            Outcome::Fixed => "fixed",
            Outcome::Unfixed => "unfixed",
        }
    }
}

/// One zone's evaluation, as serialized into its shard. Field order is
/// the serialization order; nothing here may depend on wall-clock or
/// iteration order of unordered containers — byte-identical NDJSON across
/// runs and worker counts is a tested invariant.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct ZoneRecord {
    pub shard: u32,
    pub index: u64,
    pub seed: u64,
    /// `"benign"` or `"attack"`.
    pub population: String,
    /// Attack family label for hostile zones.
    pub attack: Option<String>,
    pub intended: BTreeSet<ErrorCode>,
    /// `(code ident, reason)` for intended codes the injector skipped.
    pub skipped: Vec<(String, String)>,
    pub generated: BTreeSet<ErrorCode>,
    pub outcome: Outcome,
    pub(crate) meta_error: Option<String>,
    pub iterations: u64,
    /// Flattened DFixer plan: `(iteration, instruction kind)`.
    pub instructions: Vec<(u64, InstructionKind)>,
    /// Instructions deferred on absence evidence, summed over iterations.
    pub deferred: u64,
    pub final_errors: BTreeSet<ErrorCode>,
}

/// The trailing self-validation line of a complete shard.
#[derive(Debug, Clone, PartialEq, Eq, ToJson, FromJson)]
pub(crate) struct ShardFooter {
    pub shard: u32,
    pub zones: u64,
    pub campaign_seed: u64,
    /// FNV-1a-64 over the record lines (newlines included), lowercase hex.
    pub(crate) checksum: String,
}

/// Wire shape of the footer line: `{"shard_footer":{...}}` — cannot be
/// confused with a [`ZoneRecord`] line.
#[derive(ToJson, FromJson)]
struct FooterLine {
    shard_footer: ShardFooter,
}

/// `shard-00042.ndjson` under `dir`.
pub fn shard_path(dir: &Path, shard: u32) -> PathBuf {
    dir.join(format!("shard-{shard:05}.ndjson"))
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Streaming shard writer: records go straight to disk (via `BufWriter`),
/// never accumulated in memory; [`ShardWriter::finish`] appends the
/// footer and renames the temp file into place.
pub(crate) struct ShardWriter {
    tmp: PathBuf,
    path: PathBuf,
    out: BufWriter<fs::File>,
    shard: u32,
    campaign_seed: u64,
    zones: u64,
    checksum: u64,
}

impl ShardWriter {
    pub(crate) fn create(dir: &Path, shard: u32, campaign_seed: u64) -> io::Result<Self> {
        let path = shard_path(dir, shard);
        let tmp = path.with_extension("ndjson.tmp");
        let out = BufWriter::new(fs::File::create(&tmp)?);
        Ok(ShardWriter {
            tmp,
            path,
            out,
            shard,
            campaign_seed,
            zones: 0,
            checksum: FNV_OFFSET,
        })
    }

    pub(crate) fn write(&mut self, record: &ZoneRecord) -> io::Result<()> {
        let mut line = ddx_json::to_string(record);
        line.push('\n');
        self.checksum = fnv1a(self.checksum, line.as_bytes());
        self.out.write_all(line.as_bytes())?;
        self.zones += 1;
        Ok(())
    }

    /// Writes the footer, flushes, and renames the shard into place.
    pub(crate) fn finish(mut self) -> io::Result<ShardFooter> {
        let footer = ShardFooter {
            shard: self.shard,
            zones: self.zones,
            campaign_seed: self.campaign_seed,
            checksum: format!("{:016x}", self.checksum),
        };
        let line = ddx_json::to_string(&FooterLine {
            shard_footer: footer.clone(),
        });
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\n")?;
        self.out.flush()?;
        drop(self.out);
        fs::rename(&self.tmp, &self.path)?;
        Ok(footer)
    }
}

/// Reads and fully validates one shard: every record parses, the footer
/// is present and last, and count + checksum match the record lines.
pub(crate) fn read_shard(path: &Path) -> io::Result<(Vec<ZoneRecord>, ShardFooter)> {
    let reader = BufReader::new(fs::File::open(path)?);
    let mut records = Vec::new();
    let mut footer: Option<ShardFooter> = None;
    let mut checksum = FNV_OFFSET;
    for line in reader.lines() {
        let line = line?;
        if footer.is_some() {
            return Err(invalid(format!(
                "{}: content after the shard footer",
                path.display()
            )));
        }
        if line.starts_with("{\"shard_footer\"") {
            let parsed: FooterLine = ddx_json::from_str(&line)
                .map_err(|e| invalid(format!("{}: bad footer: {e}", path.display())))?;
            footer = Some(parsed.shard_footer);
        } else {
            checksum = fnv1a(checksum, line.as_bytes());
            checksum = fnv1a(checksum, b"\n");
            let record: ZoneRecord = ddx_json::from_str(&line)
                .map_err(|e| invalid(format!("{}: bad record: {e}", path.display())))?;
            records.push(record);
        }
    }
    let footer =
        footer.ok_or_else(|| invalid(format!("{}: missing shard footer", path.display())))?;
    if footer.zones != records.len() as u64 {
        return Err(invalid(format!(
            "{}: footer claims {} zones, file has {}",
            path.display(),
            footer.zones,
            records.len()
        )));
    }
    let computed = format!("{checksum:016x}");
    if footer.checksum != computed {
        return Err(invalid(format!(
            "{}: checksum mismatch (footer {}, computed {computed})",
            path.display(),
            footer.checksum
        )));
    }
    Ok((records, footer))
}

/// Is `path` a complete, valid shard for exactly this campaign slot?
/// Used by `--resume` to decide whether a shard can be skipped.
pub(crate) fn validate_shard(
    path: &Path,
    shard: u32,
    campaign_seed: u64,
    expected_zones: u64,
) -> bool {
    match read_shard(path) {
        Ok((_, footer)) => {
            footer.shard == shard
                && footer.campaign_seed == campaign_seed
                && footer.zones == expected_zones
        }
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(shard: u32, index: u64) -> ZoneRecord {
        ZoneRecord {
            shard,
            index,
            seed: 0xABCD + index,
            population: "benign".into(),
            attack: None,
            intended: BTreeSet::from([ErrorCode::RrsigExpired]),
            skipped: Vec::new(),
            generated: BTreeSet::from([ErrorCode::RrsigExpired]),
            outcome: Outcome::Fixed,
            meta_error: None,
            iterations: 1,
            instructions: Vec::new(),
            deferred: 0,
            final_errors: BTreeSet::new(),
        }
    }

    #[test]
    fn roundtrip_and_validation() {
        let dir = std::env::temp_dir().join(format!("ddx-shard-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let mut w = ShardWriter::create(&dir, 3, 77).unwrap();
        for i in 0..5 {
            w.write(&record(3, i)).unwrap();
        }
        let footer = w.finish().unwrap();
        assert_eq!(footer.zones, 5);

        let path = shard_path(&dir, 3);
        let (records, read_footer) = read_shard(&path).unwrap();
        assert_eq!(records, (0..5).map(|i| record(3, i)).collect::<Vec<_>>());
        assert_eq!(read_footer, footer);
        assert!(validate_shard(&path, 3, 77, 5));
        // Wrong slot, seed, or count → not resumable.
        assert!(!validate_shard(&path, 4, 77, 5));
        assert!(!validate_shard(&path, 3, 78, 5));
        assert!(!validate_shard(&path, 3, 77, 6));

        // Truncation is caught by the missing footer / checksum.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(!validate_shard(&path, 3, 77, 5));
        fs::remove_dir_all(&dir).unwrap();
    }
}
