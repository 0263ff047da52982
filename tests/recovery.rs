//! Crash-recovery bit-identity for the durable storage backend.
//!
//! The contract under test: a run persisted with
//! [`DurabilityConfig::snapshot_and_log`] can be rebuilt from its data
//! directory alone — manifest → config, change log → replay, snapshots →
//! verification checkpoints — and the recovered [`RunOutcome`] is
//! *bit-identical* to the uninterrupted run: same totals, same victim
//! sequence, same telemetry counters and records. A torn log tail
//! (truncated or corrupted final frame) is detected by checksum and
//! dropped, and recovery then matches a fresh run over the surviving
//! event prefix. The same holds per stream for a persisted server fleet.

use pgc::durable::{read_log, read_snapshot, scan_snapshots, PartitionSnapshot, ScratchDir};
use pgc::prelude::*;
use pgc::sim::durable::manifest_for;
use pgc::workload::generator::GenStats;
use pgc::workload::{EncodedTrace, Event, SyntheticWorkload};
use std::fs;

/// Policies covering the paper's winner, the oracle, and the baseline —
/// distinct victim sequences, so digest collisions can't hide a mix-up.
const POLICIES: [PolicyKind; 3] = [
    PolicyKind::UpdatedPointer,
    PolicyKind::MostGarbage,
    PolicyKind::Random,
];

fn durable_cfg(dir: &ScratchDir) -> DurabilityConfig {
    // Tight snapshot cadence and small segments so even a small run
    // exercises multiple generations and log rotation.
    DurabilityConfig::snapshot_and_log(dir.path())
        .with_snapshot_every(2)
        .with_segment_bytes(64 << 10)
}

fn run_durable(policy: PolicyKind, seed: u64, dir: &ScratchDir) -> RunOutcome {
    let cfg = RunConfig::small().with_policy(policy).with_seed(seed);
    Simulation::builder(&cfg)
        .telemetry(TelemetryLevel::Full)
        .durability(durable_cfg(dir))
        .run()
        .expect("durable run")
}

#[test]
fn recovery_is_bit_identical_across_policies_and_seeds() {
    for policy in POLICIES {
        for seed in 0..5 {
            let dir = ScratchDir::new("recover");
            let original = run_durable(policy, seed, &dir);
            let recovered = recover(dir.path()).expect("recover");

            assert_eq!(
                outcome_digest(&recovered.outcome),
                outcome_digest(&original),
                "{policy} seed {seed}: recovered digest diverges"
            );
            // The digest covers these, but spell the headline fields out
            // so a failure names what broke.
            assert_eq!(
                recovered.outcome.totals, original.totals,
                "{policy} seed {seed}"
            );
            let victims =
                |out: &RunOutcome| out.collections.iter().map(|c| c.victim).collect::<Vec<_>>();
            assert_eq!(
                victims(&recovered.outcome),
                victims(&original),
                "{policy} seed {seed}: victim sequence"
            );
            assert_eq!(
                recovered.torn_tail, None,
                "{policy} seed {seed}: clean shutdown"
            );
            assert_eq!(recovered.events_replayed, original.totals.events);
            assert!(
                recovered.snapshots_verified > 0,
                "{policy} seed {seed}: the final generation must be verified"
            );
            assert_eq!(recovered.snapshot_files_skipped, 0);
            assert_eq!(recovered.cfg.policy, policy);
            assert_eq!(recovered.telemetry_level, TelemetryLevel::Full);

            let (orig_tel, rec_tel) = (
                original.telemetry.as_ref().expect("telemetry on"),
                recovered
                    .outcome
                    .telemetry
                    .as_ref()
                    .expect("telemetry replayed"),
            );
            assert_eq!(rec_tel.counters.events, orig_tel.counters.events);
            assert_eq!(rec_tel.counters.collections, orig_tel.counters.collections);
            assert_eq!(
                rec_tel.counters.reclaimed_bytes,
                orig_tel.counters.reclaimed_bytes
            );
            assert_eq!(rec_tel.records.len(), orig_tel.records.len());
        }
    }
}

#[test]
fn persisting_a_run_does_not_change_it() {
    // The store stays off the bus and reads the database only at
    // safepoints: bare, log-only and snapshot + log runs of one config
    // must be one run — and each persisted one must recover to it.
    for policy in POLICIES {
        let cfg = RunConfig::small().with_policy(policy).with_seed(3);
        let run = |durability: Option<DurabilityConfig>| {
            let mut builder = Simulation::builder(&cfg).telemetry(TelemetryLevel::Full);
            if let Some(d) = durability {
                builder = builder.durability(d);
            }
            outcome_digest(&builder.run().expect("run"))
        };
        let bare = run(None);
        let (log_dir, snap_dir) = (ScratchDir::new("log-only"), ScratchDir::new("snap"));
        let logged = run(Some(
            DurabilityConfig::log_only(log_dir.path()).with_segment_bytes(64 << 10),
        ));
        let snapshotted = run(Some(durable_cfg(&snap_dir)));
        assert_eq!(logged, bare, "{policy}: log-only perturbs the run");
        assert_eq!(snapshotted, bare, "{policy}: snapshots perturb the run");
        for dir in [&log_dir, &snap_dir] {
            let recovered = recover(dir.path()).expect("recover");
            assert_eq!(outcome_digest(&recovered.outcome), bare, "{policy}");
        }
    }
}

#[test]
fn a_safepoint_follows_every_step_that_completed_a_collection() {
    // Nothing but `Shard` decides when a safepoint frame is written: after
    // each step (one event, or one block) during which a collection
    // completed, plus the closing frame at shutdown.
    let cfg = RunConfig::small()
        .with_policy(PolicyKind::UpdatedPointer)
        .with_seed(6);
    let run = |trace: Option<&EncodedTrace>| {
        let dir = ScratchDir::new("schedule");
        let mut builder = Simulation::builder(&cfg).durability(durable_cfg(&dir));
        if let Some(trace) = trace {
            builder = builder.trace(trace);
        }
        let totals = builder.run().expect("durable run").totals;
        (totals, read_log(dir.path()).expect("read log").safepoints)
    };

    // Fed per event: one frame per collection, in order.
    let (totals, per_event) = run(None);
    let n = totals.collections;
    assert!(n > 1, "need several collections to see a schedule");
    assert_eq!(
        per_event.len() as u64,
        n + 1,
        "one per collection + closing"
    );
    for (i, frame) in per_event.iter().enumerate() {
        assert_eq!(frame.collections, (i as u64 + 1).min(n), "frame {i}");
    }
    assert!(per_event
        .windows(2)
        .all(|w| w[0].events_applied <= w[1].events_applied));
    assert_eq!(per_event[n as usize].events_applied, totals.events);

    // Fed as blocks: a frame may cover several collections, and each one
    // says how many had completed by its event count in the run above.
    let trace = EncodedTrace::record(cfg.workload.clone()).expect("record");
    let (block_totals, per_block) = run(Some(&trace));
    assert_eq!(block_totals, totals);
    assert!(
        per_block.len() < per_event.len(),
        "blocks batch collections"
    );
    assert!(per_block
        .windows(2)
        .all(|w| w[0].collections <= w[1].collections));
    for frame in &per_block {
        let completed_by = per_event[..n as usize]
            .iter()
            .filter(|f| f.events_applied <= frame.events_applied)
            .count() as u64;
        assert_eq!(frame.collections, completed_by, "{frame:?}");
    }
    let closing = per_block.last().expect("closing frame");
    assert_eq!(
        (closing.collections, closing.events_applied),
        (n, totals.events)
    );
}

#[test]
fn a_manifest_with_the_retired_parallelism_key_still_recovers() {
    // Data directories written before intra-run parallelism was removed
    // carry a `parallelism` key; a `Deterministic(4)` run wrote 4. The
    // reader ignores keys it does not ask for.
    let dir = ScratchDir::new("old-manifest");
    let original = run_durable(PolicyKind::MostGarbage, 2, &dir);
    let cfg = RunConfig::small()
        .with_policy(PolicyKind::MostGarbage)
        .with_seed(2);
    let mut old = manifest_for(&cfg, TelemetryLevel::Full);
    assert_eq!(old.get("parallelism"), None, "no longer written");
    old.set("parallelism", 4);
    old.write_to(dir.path()).expect("rewrite the manifest");

    let recovered = recover(dir.path()).expect("recover under the old manifest");
    assert_eq!(
        outcome_digest(&recovered.outcome),
        outcome_digest(&original)
    );
}

#[test]
fn retired_model_keys_recover_at_their_kept_value_and_are_refused_otherwise() {
    // Data directories written while the client/server page model and
    // batched activations existed carry `db.client_cache_pages` and
    // `collect_batch`. `none` / `1` named the model this build still has;
    // anything else produced I/O counts or a victim sequence no replay
    // here can reproduce, so it is an error and not a different digest.
    let dir = ScratchDir::new("retired-keys");
    let original = run_durable(PolicyKind::UpdatedPointer, 3, &dir);
    let cfg = RunConfig::small()
        .with_policy(PolicyKind::UpdatedPointer)
        .with_seed(3);
    let current = manifest_for(&cfg, TelemetryLevel::Full);
    for key in ["db.client_cache_pages", "collect_batch"] {
        assert_eq!(current.get(key), None, "{key} is no longer written");
    }

    let mut old = current.clone();
    old.set("db.client_cache_pages", "none");
    old.set("collect_batch", 1);
    old.write_to(dir.path()).expect("rewrite the manifest");
    let recovered = recover(dir.path()).expect("recover under the old manifest");
    assert_eq!(
        outcome_digest(&recovered.outcome),
        outcome_digest(&original)
    );

    for (key, value) in [("db.client_cache_pages", "16"), ("collect_batch", "2")] {
        let mut gone = current.clone();
        gone.set(key, value);
        gone.write_to(dir.path()).expect("rewrite the manifest");
        let err = recover(dir.path()).expect_err("a model this build no longer has");
        let msg = err.to_string();
        assert!(
            msg.contains(key) && msg.contains(value),
            "the error names the key and its value: {msg}"
        );
    }
}

#[test]
fn a_manifest_with_hostile_geometry_is_refused_not_allocated() {
    // A MANIFEST is bytes from outside: a frame count or partition width
    // nothing could back must come back as an error, never as a capacity
    // overflow or a failed terabyte allocation inside `Database::new`.
    let dir = ScratchDir::new("hostile-geometry");
    run_durable(PolicyKind::UpdatedPointer, 1, &dir);
    let cfg = RunConfig::small().with_seed(1);
    let current = manifest_for(&cfg, TelemetryLevel::Full);
    for (key, value) in [
        ("db.buffer_pages", u64::MAX),
        ("db.buffer_pages", 1 << 40),
        ("db.partition_pages", 1 << 40),
        ("db.page_size", 1 << 61),
        ("db.page_size", u64::MAX),
    ] {
        assert!(current.get(key).is_some(), "{key} is a manifest key");
        let mut hostile = current.clone();
        hostile.set(key, value);
        hostile.write_to(dir.path()).expect("rewrite the manifest");
        let err = recover(dir.path()).expect_err("geometry out of bounds");
        assert!(err.to_string().contains(&key[3..]), "{key}: {err}");
    }
}

/// The newest log segment in `dir`, by sequence number.
fn newest_log_segment(dir: &ScratchDir) -> std::path::PathBuf {
    let mut segments: Vec<_> = fs::read_dir(dir.path())
        .expect("read data dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("log-") && n.ends_with(".pgcl"))
        })
        .collect();
    segments.sort();
    segments.pop().expect("at least one log segment")
}

/// Replays `dir`'s surviving log prefix through a bare [`Shard`] — the
/// ground truth a torn-tail recovery must match.
fn replay_prefix_baseline(dir: &ScratchDir, recovered: &RecoveredRun) -> RunOutcome {
    let log = read_log(dir.path()).expect("read log");
    let mut shard = Shard::new(&recovered.cfg).expect("shard");
    shard.enable_telemetry(recovered.telemetry_level);
    let events: Vec<Event> = log.trace.decode_all().expect("decode the log");
    shard.step_batch(&events).expect("replay prefix");
    shard.finish(GenStats::default()).expect("finish")
}

#[test]
fn torn_tail_is_dropped_and_recovery_matches_the_surviving_prefix() {
    let dir = ScratchDir::new("torn");
    run_durable(PolicyKind::UpdatedPointer, 7, &dir);

    // Tear the tail: chop bytes off the newest segment so its final frame
    // is truncated mid-payload.
    let tail = newest_log_segment(&dir);
    let len = fs::metadata(&tail).expect("stat").len();
    let file = fs::OpenOptions::new()
        .write(true)
        .open(&tail)
        .expect("open tail");
    file.set_len(len - 9).expect("truncate");
    drop(file);

    let recovered = recover(dir.path()).expect("recovery survives a torn tail");
    assert!(
        recovered.torn_tail.is_some(),
        "the torn frame must be detected"
    );
    let baseline = replay_prefix_baseline(&dir, &recovered);
    assert_eq!(
        outcome_digest(&recovered.outcome),
        outcome_digest(&baseline),
        "torn-tail recovery must equal a fresh run over the surviving prefix"
    );
    assert_eq!(recovered.outcome.totals, baseline.totals);
}

#[test]
fn corrupted_tail_frame_fails_its_checksum_and_is_dropped() {
    let dir = ScratchDir::new("corrupt");
    run_durable(PolicyKind::MostGarbage, 3, &dir);

    // Flip one byte inside the final frame: the length prefix still reads,
    // the CRC no longer matches.
    let tail = newest_log_segment(&dir);
    let mut bytes = fs::read(&tail).expect("read tail");
    let at = bytes.len() - 6;
    bytes[at] ^= 0xA5;
    fs::write(&tail, &bytes).expect("write corrupted tail");

    let recovered = recover(dir.path()).expect("recovery survives a corrupt frame");
    assert!(
        recovered.torn_tail.is_some(),
        "the corrupt frame must be detected"
    );
    let baseline = replay_prefix_baseline(&dir, &recovered);
    assert_eq!(
        outcome_digest(&recovered.outcome),
        outcome_digest(&baseline)
    );
}

/// A generation lands on a background thread after `safepoint()` has
/// returned: one `.tmp` written, fsynced, renamed. A kill in that window
/// leaves one of three states behind; each is made by hand here, in the
/// reverse of the order a landing passes through them.
#[test]
fn a_kill_during_landing_falls_back_to_the_older_generation() {
    let dir = ScratchDir::new("landing");
    // A seed whose heap stopped growing before the last two generations:
    // the older one has an image for every partition of the newest.
    let original = run_durable(PolicyKind::UpdatedPointer, 3, &dir);
    let clean = recover(dir.path()).expect("recover the clean directory");

    let files = scan_snapshots(dir.path()).expect("scan");
    let [older, newest] = &files[..] else {
        panic!("two generations are kept, found {files:?}");
    };
    assert_eq!(
        read_snapshot(&older.path).len(),
        clean.snapshots_verified,
        "the older generation must cover every partition"
    );
    let tmp = {
        let mut name = newest.path.file_name().expect("file name").to_os_string();
        name.push(".tmp");
        newest.path.with_file_name(name)
    };
    let bytes = fs::read(&newest.path).expect("read");
    let falls_back = |state: &str| {
        let recovered = recover(dir.path()).expect("recover the damaged directory");
        assert_eq!(
            outcome_digest(&recovered.outcome),
            outcome_digest(&original),
            "{state}"
        );
        assert_eq!(recovered.torn_tail, None, "{state}: the log is whole");
        assert_eq!(
            recovered.snapshot_files_skipped, 0,
            "{state}: a .tmp file is never read, so nothing can be found corrupt"
        );
        assert_eq!(
            recovered.snapshots_verified, clean.snapshots_verified,
            "{state}: the older generation stands in for every partition"
        );
    };
    fs::rename(&newest.path, &tmp).expect("rename back");
    falls_back("written and fsynced, not renamed");
    fs::write(&tmp, &bytes[..bytes.len() / 2]).expect("tear");
    falls_back("torn mid-write");
    fs::remove_file(&tmp).expect("remove");
    falls_back("not started");
}

/// What one file per partition gave for free and one file per generation
/// must still give: damage inside one image costs that partition only.
#[test]
fn a_damaged_image_falls_back_for_its_partition_only() {
    let dir = ScratchDir::new("one-image");
    let original = run_durable(PolicyKind::UpdatedPointer, 3, &dir);
    let clean = recover(dir.path()).expect("recover the clean directory");

    let newest = scan_snapshots(dir.path())
        .expect("scan")
        .pop()
        .expect("one");
    let images: Vec<PartitionSnapshot> = read_snapshot(&newest.path)
        .into_iter()
        .map(|image| image.expect("a landed image reads"))
        .collect();
    assert_eq!(images.len(), clean.snapshots_verified);
    let middle = images.len() / 2;
    assert!(middle > 0 && middle + 1 < images.len());
    // Flip a byte of the middle image's first oid: no length is touched, so
    // the reader still finds where the image ends.
    let start: usize = images[..middle].iter().map(|i| i.to_bytes().len()).sum();
    let mut bytes = fs::read(&newest.path).expect("read");
    assert_eq!(bytes[start..start + 4], *b"PGCS");
    bytes[start + 48 + 4] ^= 0x01;
    fs::write(&newest.path, &bytes).expect("write the damaged file");

    let reread = read_snapshot(&newest.path);
    assert_eq!(reread.len(), images.len(), "every image is still found");
    for (i, (image, landed)) in reread.iter().zip(&images).enumerate() {
        match image {
            Ok(image) => assert_eq!(image, landed, "image {i}"),
            Err(_) => assert_eq!(i, middle, "only the damaged image fails"),
        }
    }
    assert!(reread[middle].is_err());

    let recovered = recover(dir.path()).expect("recover the damaged directory");
    assert_eq!(
        outcome_digest(&recovered.outcome),
        outcome_digest(&original)
    );
    assert_eq!(recovered.snapshot_files_skipped, 1, "exactly one image");
    assert_eq!(
        recovered.snapshots_verified, clean.snapshots_verified,
        "the older generation stands in for the damaged partition"
    );
}

/// Builds before the one-file layout wrote `snap-G-pN.pgcs`, one image
/// each. There is no second reader: such a directory recovers by replay.
#[test]
fn a_directory_in_the_per_partition_layout_recovers_by_replay_alone() {
    let dir = ScratchDir::new("old-layout");
    let original = run_durable(PolicyKind::MostGarbage, 1, &dir);
    for file in scan_snapshots(dir.path()).expect("scan") {
        for image in read_snapshot(&file.path) {
            let image = image.expect("a landed image reads");
            let name = format!("snap-{:08}-p{:06}.pgcs", image.generation, image.partition);
            fs::write(dir.join(name), image.to_bytes()).expect("split");
        }
        fs::remove_file(&file.path).expect("remove the generation file");
    }
    assert_eq!(scan_snapshots(dir.path()).expect("scan"), []);

    let recovered = recover(dir.path()).expect("recover the old directory");
    assert_eq!(
        outcome_digest(&recovered.outcome),
        outcome_digest(&original)
    );
    assert_eq!(recovered.snapshots_verified, 0);
    assert_eq!(recovered.snapshot_files_skipped, 0);
}

#[test]
fn server_streams_persist_and_recover_independently() {
    let root = ScratchDir::new("fleet");
    let configs: Vec<(StreamId, RunConfig)> = (0..3u64)
        .map(|i| {
            let cfg = RunConfig::small()
                .with_policy(POLICIES[i as usize % POLICIES.len()])
                .with_seed(i + 1);
            (StreamId(i), cfg)
        })
        .collect();

    let mut server = Server::start(
        ServerConfig::new(2)
            .with_telemetry(TelemetryLevel::Full)
            .with_data_dir(root.path()),
    );
    let mut handles = Vec::new();
    for (stream, cfg) in &configs {
        handles.push(server.open_stream(*stream, cfg.clone()).expect("open"));
    }
    for ((_, cfg), handle) in configs.iter().zip(&handles) {
        let events: Vec<_> = SyntheticWorkload::new(cfg.workload.clone())
            .expect("workload")
            .collect();
        server
            .submit_segment(handle, TraceSegment::encode(&events))
            .expect("submit");
    }
    let fleet = server.shutdown().expect("shutdown");

    assert_eq!(fleet.outcomes.len(), configs.len());
    for (stream, outcome) in &fleet.outcomes {
        let dir = root.join(format!("stream-{:06}", stream.0));
        let recovered =
            recover(&dir).unwrap_or_else(|e| panic!("recover stream {}: {e}", stream.0));
        assert_eq!(
            outcome_digest(&recovered.outcome),
            outcome_digest(outcome),
            "stream {} recovery diverges from the fleet outcome",
            stream.0
        );
        assert_eq!(
            recovered.outcome.totals, outcome.totals,
            "stream {}",
            stream.0
        );
    }
}
