//! The checksummed run manifest, `MANIFEST.pgc`, and its schema.
//!
//! A tiny ordered key=value text format so recovery can rebuild the exact
//! run configuration without out-of-band knowledge:
//!
//! ```text
//! pgc-manifest v1
//! <key> = <value>
//! ...
//! crc = <crc32 of everything above, lowercase hex>
//! ```
//!
//! Values that must round-trip exactly (the workload's probability knobs)
//! are stored as `f64::to_bits` hex, never as decimal floats. The keys are
//! [`manifest_for`]'s, and [`config_from_manifest`] reads them back.

use super::crc::crc32;
use super::{bad, io_err};
use crate::run::RunConfig;
use crate::telemetry::TelemetryLevel;
use pgc_odb::{PolicyKind, Trigger};
use pgc_types::{Bytes, PgcError, PlacementPolicy, Result};
use std::fmt::Display;
use std::fs;
use std::path::Path;

/// File name of the manifest inside a data directory.
pub(super) const MANIFEST_FILE: &str = "MANIFEST.pgc";

const HEADER: &str = "pgc-manifest v1";

/// An ordered key=value manifest with a whole-file checksum.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    entries: Vec<(String, String)>,
}

impl Manifest {
    /// Appends (or replaces) `key` with `value`'s display form.
    pub fn set(&mut self, key: &str, value: impl Display) {
        let value = value.to_string();
        debug_assert!(!key.contains('=') && !key.contains('\n'));
        debug_assert!(!value.contains('\n'));
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.entries.push((key.to_string(), value));
        }
    }

    /// Stores an `f64` by bit pattern (exact round-trip).
    fn set_f64(&mut self, key: &str, value: f64) {
        self.set(key, format!("{:016x}", value.to_bits()));
    }

    /// Looks up `key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Looks up `key` or fails with a format error naming it.
    fn require(&self, key: &str) -> Result<&str> {
        self.get(key)
            .ok_or_else(|| PgcError::TraceFormat(format!("manifest: missing key `{key}`")))
    }

    /// Parses `key` as an integer of the field's width. A value the field
    /// cannot hold is refused, not truncated into another run's setting.
    fn require_int<T: TryFrom<u64>>(&self, key: &str) -> Result<T> {
        let value: u64 = self
            .require(key)?
            .parse()
            .map_err(|_| PgcError::TraceFormat(format!("manifest: `{key}` is not an integer")))?;
        T::try_from(value).map_err(|_| {
            PgcError::TraceFormat(format!("manifest: `{key} = {value}` is out of range"))
        })
    }

    /// Parses `key` as an `f64` stored by bit pattern.
    fn require_f64(&self, key: &str) -> Result<f64> {
        let bits = u64::from_str_radix(self.require(key)?, 16)
            .map_err(|_| PgcError::TraceFormat(format!("manifest: `{key}` is not f64 bits")))?;
        Ok(f64::from_bits(bits))
    }

    /// Serializes to the checksummed text form.
    fn to_bytes(&self) -> Vec<u8> {
        let mut body = String::from(HEADER);
        body.push('\n');
        for (k, v) in &self.entries {
            body.push_str(k);
            body.push_str(" = ");
            body.push_str(v);
            body.push('\n');
        }
        let crc = crc32(body.as_bytes());
        body.push_str(&format!("crc = {crc:08x}\n"));
        body.into_bytes()
    }

    /// Parses the checksummed text form.
    fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| PgcError::TraceFormat("manifest: not utf-8".into()))?;
        let body_end = text
            .rfind("crc = ")
            .ok_or_else(|| PgcError::TraceFormat("manifest: missing checksum line".into()))?;
        let (body, crc_line) = text.split_at(body_end);
        let stated = crc_line
            .trim()
            .strip_prefix("crc = ")
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| PgcError::TraceFormat("manifest: bad checksum line".into()))?;
        if crc32(body.as_bytes()) != stated {
            return Err(PgcError::TraceFormat("manifest: checksum mismatch".into()));
        }
        let mut lines = body.lines();
        if lines.next() != Some(HEADER) {
            return Err(PgcError::TraceFormat("manifest: bad header".into()));
        }
        let mut entries = Vec::new();
        for line in lines {
            let (k, v) = line
                .split_once(" = ")
                .ok_or_else(|| PgcError::TraceFormat("manifest: malformed entry".into()))?;
            entries.push((k.to_string(), v.to_string()));
        }
        Ok(Self { entries })
    }

    /// Writes `MANIFEST.pgc` into `dir` (temp file + rename).
    pub fn write_to(&self, dir: &Path) -> Result<()> {
        let tmp = dir.join("MANIFEST.pgc.tmp");
        let path = dir.join(MANIFEST_FILE);
        fs::write(&tmp, self.to_bytes()).map_err(io_err)?;
        fs::rename(&tmp, &path).map_err(io_err)?;
        Ok(())
    }

    /// Reads and verifies `MANIFEST.pgc` from `dir`.
    pub(super) fn read_from(dir: &Path) -> Result<Self> {
        let bytes = fs::read(dir.join(MANIFEST_FILE)).map_err(io_err)?;
        Self::from_bytes(&bytes)
    }
}

/// Builds the manifest describing `cfg` + `telemetry` (everything
/// [`super::recover`] needs to rebuild the run).
pub fn manifest_for(cfg: &RunConfig, telemetry: TelemetryLevel) -> Manifest {
    let mut m = Manifest::default();
    m.set("policy", cfg.policy.name());
    m.set("db.page_size", cfg.db.page_size);
    m.set("db.partition_pages", cfg.db.partition_pages);
    m.set("db.buffer_pages", cfg.db.buffer_pages);
    m.set("db.gc_overwrite_threshold", cfg.db.gc_overwrite_threshold);
    m.set("db.max_weight", cfg.db.max_weight);
    m.set(
        "db.placement",
        match cfg.db.placement {
            PlacementPolicy::NearParent => "near-parent",
            PlacementPolicy::FirstFit => "first-fit",
            PlacementPolicy::Spread => "spread",
        },
    );
    let wl = &cfg.workload;
    m.set("wl.seed", wl.seed);
    m.set("wl.target_allocated", wl.target_allocated.get());
    m.set("wl.tree_nodes_min", wl.tree_nodes_min);
    m.set("wl.tree_nodes_max", wl.tree_nodes_max);
    m.set("wl.object_size_min", wl.object_size_min);
    m.set("wl.object_size_max", wl.object_size_max);
    m.set("wl.large_object_size", wl.large_object_size);
    m.set_f64(
        "wl.large_object_byte_fraction",
        wl.large_object_byte_fraction,
    );
    m.set_f64("wl.dense_edge_fraction", wl.dense_edge_fraction);
    m.set_f64("wl.p_no_traversal", wl.p_no_traversal);
    m.set_f64("wl.p_depth_first", wl.p_depth_first);
    m.set_f64("wl.p_skip_edge", wl.p_skip_edge);
    m.set_f64("wl.p_modify_on_visit", wl.p_modify_on_visit);
    m.set("wl.traversals_per_round", wl.traversals_per_round);
    m.set("wl.deletions_per_round", wl.deletions_per_round);
    match cfg.sample_every {
        Some(every) => m.set("sample_every", every),
        None => m.set("sample_every", "none"),
    }
    match cfg.trigger {
        None => m.set("trigger", "default"),
        Some(Trigger::OverwriteCount(n)) => m.set("trigger", format!("overwrites:{n}")),
        Some(Trigger::AllocationBytes(b)) => m.set("trigger", format!("alloc-bytes:{}", b.get())),
        Some(Trigger::PartitionGrowth) => m.set("trigger", "partition-growth"),
    }
    m.set(
        "telemetry",
        match telemetry {
            TelemetryLevel::Off => "off",
            TelemetryLevel::Metrics => "metrics",
            TelemetryLevel::Full => "full",
        },
    );
    m
}

/// Keys this build no longer writes, each with the one value that named
/// the model it still has (the single page buffer; one partition per
/// activation). Any other value means the directory's I/O counts or
/// victim sequence came from a model that is gone, and replaying it here
/// would "recover" a different run.
const RETIRED_KEYS: [(&str, &str); 2] = [("db.client_cache_pages", "none"), ("collect_batch", "1")];

/// Rebuilds the [`RunConfig`] + telemetry level a manifest describes.
/// Durability comes back `Off`: recovery replays, it does not re-persist.
pub(super) fn config_from_manifest(m: &Manifest) -> Result<(RunConfig, TelemetryLevel)> {
    for (key, kept) in RETIRED_KEYS {
        if let Some(value) = m.get(key).filter(|v| *v != kept) {
            return Err(bad(format!(
                "manifest: `{key} = {value}` names a model this build no longer has \
                 (only `{kept}` replays)"
            )));
        }
    }
    let policy: PolicyKind = m
        .require("policy")?
        .parse()
        .map_err(|e: String| bad(format!("manifest: {e}")))?;
    let mut cfg = RunConfig::paper(policy, m.require_int("wl.seed")?);
    cfg.db.page_size = m.require_int("db.page_size")?;
    cfg.db.partition_pages = m.require_int("db.partition_pages")?;
    cfg.db.buffer_pages = m.require_int("db.buffer_pages")?;
    cfg.db.gc_overwrite_threshold = m.require_int("db.gc_overwrite_threshold")?;
    cfg.db.max_weight = m.require_int("db.max_weight")?;
    cfg.db.placement = match m.require("db.placement")? {
        "near-parent" => PlacementPolicy::NearParent,
        "first-fit" => PlacementPolicy::FirstFit,
        "spread" => PlacementPolicy::Spread,
        other => return Err(bad(format!("manifest: unknown placement `{other}`"))),
    };
    let wl = &mut cfg.workload;
    wl.target_allocated = Bytes(m.require_int("wl.target_allocated")?);
    wl.tree_nodes_min = m.require_int("wl.tree_nodes_min")?;
    wl.tree_nodes_max = m.require_int("wl.tree_nodes_max")?;
    wl.object_size_min = m.require_int("wl.object_size_min")?;
    wl.object_size_max = m.require_int("wl.object_size_max")?;
    wl.large_object_size = m.require_int("wl.large_object_size")?;
    wl.large_object_byte_fraction = m.require_f64("wl.large_object_byte_fraction")?;
    wl.dense_edge_fraction = m.require_f64("wl.dense_edge_fraction")?;
    wl.p_no_traversal = m.require_f64("wl.p_no_traversal")?;
    wl.p_depth_first = m.require_f64("wl.p_depth_first")?;
    wl.p_skip_edge = m.require_f64("wl.p_skip_edge")?;
    wl.p_modify_on_visit = m.require_f64("wl.p_modify_on_visit")?;
    wl.traversals_per_round = m.require_int("wl.traversals_per_round")?;
    wl.deletions_per_round = m.require_int("wl.deletions_per_round")?;
    cfg.sample_every = match m.require("sample_every")? {
        "none" => None,
        _ => Some(m.require_int("sample_every")?),
    };
    cfg.trigger = match m.require("trigger")? {
        "default" => None,
        "partition-growth" => Some(Trigger::PartitionGrowth),
        spec => {
            let (kind, value) = spec
                .split_once(':')
                .ok_or_else(|| bad(format!("manifest: unknown trigger `{spec}`")))?;
            let value: u64 = value
                .parse()
                .map_err(|_| bad(format!("manifest: bad trigger value `{spec}`")))?;
            match kind {
                "overwrites" => Some(Trigger::OverwriteCount(value)),
                "alloc-bytes" => Some(Trigger::AllocationBytes(Bytes(value))),
                other => return Err(bad(format!("manifest: unknown trigger `{other}`"))),
            }
        }
    };
    let telemetry = match m.require("telemetry")? {
        "off" => TelemetryLevel::Off,
        "metrics" => TelemetryLevel::Metrics,
        "full" => TelemetryLevel::Full,
        other => return Err(bad(format!("manifest: unknown telemetry level `{other}`"))),
    };
    Ok((cfg, telemetry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::ScratchDir;

    #[test]
    fn round_trips_entries_and_float_bits() {
        let mut m = Manifest::default();
        m.set("policy", "MostGarbage");
        m.set("seed", 7u64);
        m.set_f64("p_delete", 0.1234567890123_f64);
        let back = Manifest::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.require("policy").unwrap(), "MostGarbage");
        assert_eq!(back.require_int::<u64>("seed").unwrap(), 7);
        assert_eq!(
            back.require_f64("p_delete").unwrap().to_bits(),
            0.1234567890123_f64.to_bits()
        );
    }

    #[test]
    fn set_replaces_in_place() {
        let mut m = Manifest::default();
        m.set("k", 1u32);
        m.set("k", 2u32);
        assert_eq!(m.get("k"), Some("2"));
    }

    #[test]
    fn corruption_is_detected() {
        let mut m = Manifest::default();
        m.set("seed", 7u64);
        let mut bytes = m.to_bytes();
        let flip = bytes.iter().position(|&b| b == b'7').unwrap();
        bytes[flip] = b'8';
        assert!(Manifest::from_bytes(&bytes).is_err());
    }

    #[test]
    fn file_round_trip() {
        let dir = ScratchDir::new("manifest");
        let mut m = Manifest::default();
        m.set("seed", 3u64);
        m.write_to(dir.path()).unwrap();
        assert_eq!(Manifest::read_from(dir.path()).unwrap(), m);
    }
}
