//! The JSONL sink: one schema-versioned line per activation record.
//!
//! The workspace carries no serde, so the writer is hand-rolled against
//! the fixed, flat schema below; nothing in the tree reads a file back.
//! Every line is self-describing — schema tag, run identity (policy +
//! seed), and trigger configuration ride on each record — so files from
//! different runs can be concatenated and still consumed line by line.
//!
//! Schema `pgc-telemetry/v2`, keys in fixed order:
//!
//! ```json
//! {"schema":"pgc-telemetry/v2","policy":"UpdatedPointer","seed":3,
//!  "trigger":"overwrites:200","activation":1,"clock":5321,"gap":5321,
//!  "victim":4,"victim_score":12.0,"victim_score_bits":4622945017495814144,
//!  "collections":1,"live_objects":10,"live_bytes":1000,
//!  "garbage_objects":5,"garbage_bytes":500,"forwarded_pointers":2,
//!  "gc_reads":3,"gc_writes":4,"app_ios_before":100,"app_ios_delta":42}
//! ```
//!
//! `victim`, `victim_score`, and `victim_score_bits` are `null` when
//! absent. `victim_score` is human-readable only (and `null` for a
//! non-finite score); `victim_score_bits` (`f64::to_bits`) is the exact
//! value. Version 2 dropped v1's `policy_switches` and `shadow_picks`
//! arrays with the meta-policy and the race annotation that filled them.

use super::record::{ActivationRecord, TriggerReason};
use super::snapshot::TelemetrySnapshot;
use std::fmt::Write as _;
use std::io;

/// The schema tag written on every line.
pub const SCHEMA: &str = "pgc-telemetry/v2";

fn push_opt_u64(out: &mut String, key: &str, v: Option<u64>) {
    match v {
        Some(v) => {
            let _ = write!(out, "\"{key}\":{v},");
        }
        None => {
            let _ = write!(out, "\"{key}\":null,");
        }
    }
}

/// Renders one record as a single JSONL line (no trailing newline).
pub fn record_line(
    policy: &str,
    seed: u64,
    trigger: TriggerReason,
    rec: &ActivationRecord,
) -> String {
    let mut out = String::with_capacity(384);
    let _ = write!(
        out,
        "{{\"schema\":\"{SCHEMA}\",\"policy\":\"{policy}\",\"seed\":{seed},\
         \"trigger\":\"{}\",\"activation\":{},\"clock\":{},\"gap\":{},",
        trigger.token(),
        rec.activation,
        rec.event_clock,
        rec.gap_events
    );
    push_opt_u64(&mut out, "victim", rec.victim.map(|p| u64::from(p.0)));
    match rec.victim_score {
        // The human-readable field is valid JSON only for finite scores;
        // the bits field is always the authoritative value.
        Some(score) if score.is_finite() => {
            let _ = write!(
                out,
                "\"victim_score\":{score},\"victim_score_bits\":{},",
                score.to_bits()
            );
        }
        Some(score) => {
            let _ = write!(
                out,
                "\"victim_score\":null,\"victim_score_bits\":{},",
                score.to_bits()
            );
        }
        None => out.push_str("\"victim_score\":null,\"victim_score_bits\":null,"),
    }
    let _ = write!(
        out,
        "\"collections\":{},\"live_objects\":{},\"live_bytes\":{},\
         \"garbage_objects\":{},\"garbage_bytes\":{},\"forwarded_pointers\":{},\
         \"gc_reads\":{},\"gc_writes\":{},\"app_ios_before\":{},\"app_ios_delta\":{}}}",
        rec.collections,
        rec.live_objects,
        rec.live_bytes.get(),
        rec.garbage_objects,
        rec.garbage_bytes.get(),
        rec.forwarded_pointers,
        rec.gc_reads,
        rec.gc_writes,
        rec.app_ios_before,
        rec.app_ios_delta,
    );
    out
}

/// Writes every record of `snapshot` to `w`, one line per activation.
/// Snapshots recorded below [`super::TelemetryLevel::Full`] carry no
/// records and write nothing.
pub fn write_snapshot<W: io::Write>(
    w: &mut W,
    policy: &str,
    seed: u64,
    snapshot: &TelemetrySnapshot,
) -> io::Result<()> {
    for rec in &snapshot.records {
        writeln!(w, "{}", record_line(policy, seed, snapshot.trigger, rec))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgc_types::{Bytes, PartitionId};

    /// The writer's pin: every key in schema order, a distinct value under
    /// each (so two swapped fields cannot cancel).
    #[test]
    fn a_full_record_renders_the_golden_line() {
        let mut rec = ActivationRecord::open(7, 12_345, 900);
        rec.victim = Some(PartitionId(4));
        rec.victim_score = Some(12.5);
        rec.collections = 1;
        rec.live_objects = 10;
        rec.live_bytes = Bytes(1000);
        rec.garbage_objects = 5;
        rec.garbage_bytes = Bytes(512);
        rec.forwarded_pointers = 2;
        rec.gc_reads = 6;
        rec.gc_writes = 8;
        rec.app_ios_before = 100;
        rec.app_ios_delta = 42;
        assert_eq!(
            record_line(
                "UpdatedPointer",
                3,
                TriggerReason::OverwriteCount(200),
                &rec
            ),
            "{\"schema\":\"pgc-telemetry/v2\",\"policy\":\"UpdatedPointer\",\"seed\":3,\
             \"trigger\":\"overwrites:200\",\"activation\":7,\"clock\":12345,\"gap\":900,\
             \"victim\":4,\"victim_score\":12.5,\"victim_score_bits\":4623226492472524800,\
             \"collections\":1,\"live_objects\":10,\"live_bytes\":1000,\
             \"garbage_objects\":5,\"garbage_bytes\":512,\"forwarded_pointers\":2,\
             \"gc_reads\":6,\"gc_writes\":8,\"app_ios_before\":100,\"app_ios_delta\":42}"
        );
    }

    #[test]
    fn absent_values_render_as_null() {
        let mut rec = ActivationRecord::open(1, 10, 10);
        let declined = record_line("NoCollection", 1, TriggerReason::PartitionGrowth, &rec);
        assert_eq!(
            declined,
            "{\"schema\":\"pgc-telemetry/v2\",\"policy\":\"NoCollection\",\"seed\":1,\
             \"trigger\":\"partition-growth\",\"activation\":1,\"clock\":10,\"gap\":10,\
             \"victim\":null,\"victim_score\":null,\"victim_score_bits\":null,\
             \"collections\":0,\"live_objects\":0,\"live_bytes\":0,\
             \"garbage_objects\":0,\"garbage_bytes\":0,\"forwarded_pointers\":0,\
             \"gc_reads\":0,\"gc_writes\":0,\"app_ios_before\":0,\"app_ios_delta\":0}"
        );
        // A non-finite score has no JSON number: the readable field goes
        // null, the bits keep the value.
        rec.victim_score = Some(f64::NAN);
        let nan = record_line("NoCollection", 1, TriggerReason::PartitionGrowth, &rec);
        let bits = format!(
            "\"victim_score\":null,\"victim_score_bits\":{},",
            f64::NAN.to_bits()
        );
        assert_eq!(
            nan,
            declined.replace("\"victim_score\":null,\"victim_score_bits\":null,", &bits)
        );
    }
}
