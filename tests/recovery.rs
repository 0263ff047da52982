//! Crash-recovery bit-identity for the durable storage backend.
//!
//! The contract under test: a run persisted with
//! [`DurabilityConfig::snapshot_and_log`] can be rebuilt from its data
//! directory alone — manifest → config, the newest usable snapshot
//! generation → the run at that safepoint, the change log after it → the
//! tail replayed — and the recovered [`RunOutcome`] is *bit-identical* to
//! the uninterrupted run: same totals, same victim sequence, same series,
//! same telemetry counters and records. A generation that cannot be used
//! costs the older one's tail; with none usable the log is replayed from
//! event 0. A corrupted final frame is detected by checksum and dropped,
//! and recovery then matches a fresh run over the surviving event prefix.
//! The same holds per stream for a persisted server fleet. `verify`, which
//! replays from event 0, holds every generation to its capture byte for
//! byte and then recovers as `recover` does, is held to the same digest
//! and the same restore point throughout.
//!
//! What a process kill leaves is not staged here: the crash-point matrix
//! in `pgc-sim`'s `durable/store.rs` rebuilds every directory state a kill
//! can leave from the store's recorded writes (a torn log tail, a `.tmp`
//! mid-landing, a generation pruned) and recovers each.

mod common;

use common::InvariantSweep;
use pgc::durable::{
    manifest_for, read_generation, read_log, restore, scan_snapshots, verify, Manifest, ScratchDir,
};
use pgc::prelude::*;
use pgc::workload::generator::GenStats;
use pgc::workload::{EncodedTrace, EventBlock, SyntheticWorkload, BLOCK_EVENTS};
use std::cell::Cell;
use std::fs;
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Policies covering the paper's winner, the oracle, and the baseline —
/// distinct victim sequences, so digest collisions can't hide a mix-up.
const POLICIES: [PolicyKind; 3] = [
    PolicyKind::UpdatedPointer,
    PolicyKind::MostGarbage,
    PolicyKind::Random,
];

fn durable_cfg(dir: &ScratchDir) -> DurabilityConfig {
    // A generation at every safepoint and small segments, so even a small
    // run (two `BLOCK_EVENTS` boundaries) lands generations on both, prunes
    // one, and rotates its log.
    DurabilityConfig::snapshot_and_log(dir.path())
        .with_snapshot_every(1)
        .with_segment_bytes(64 << 10)
}

fn run_durable(policy: PolicyKind, seed: u64, dir: &ScratchDir) -> RunOutcome {
    let cfg = RunConfig::small()
        .with_policy(policy)
        .with_seed(seed)
        .with_durability(durable_cfg(dir));
    Simulation::builder(&cfg)
        .telemetry(TelemetryLevel::Full)
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
                "{policy} seed {seed}: the final generation must be restored"
            );
            assert_eq!(recovered.snapshot_files_skipped, 0);
            let files = scan_snapshots(dir.path()).expect("scan");
            let newest = files.last().expect("one").generation;
            assert_eq!(recovered.restored_from, Some(newest));
            assert_eq!(recovered.tail_events, 0, "a clean shutdown replays nothing");
            let verified = verify(dir.path()).expect("verify");
            assert_eq!(
                (verified.snapshots_verified, verified.snapshot_files_skipped),
                (files.len(), 0),
                "{policy} seed {seed}: every generation round-trips"
            );
            assert_eq!(
                (verified.restored_from, verified.tail_events),
                (Some(newest), 0),
                "{policy} seed {seed}: verify's recovery is recover's"
            );
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
        let run = |durability: DurabilityConfig| {
            let cfg = cfg.clone().with_durability(durability);
            let builder = Simulation::builder(&cfg).telemetry(TelemetryLevel::Full);
            outcome_digest(&builder.run().expect("run"))
        };
        let bare = run(DurabilityConfig::off());
        let (log_dir, snap_dir) = (ScratchDir::new("log-only"), ScratchDir::new("snap"));
        let logged = run(DurabilityConfig::log_only(log_dir.path()).with_segment_bytes(64 << 10));
        let snapshotted = run(durable_cfg(&snap_dir));
        assert_eq!(logged, bare, "{policy}: log-only perturbs the run");
        assert_eq!(snapshotted, bare, "{policy}: snapshots perturb the run");
        for dir in [&log_dir, &snap_dir] {
            let recovered = recover(dir.path()).expect("recover");
            assert_eq!(outcome_digest(&recovered.outcome), bare, "{policy}");
        }
    }
}

/// Every file of `dir`, by name: what `cmp` holds two directories to.
fn files_of(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = fs::read_dir(dir)
        .expect("list")
        .map(|entry| {
            let path = entry.expect("entry").path();
            let name = path
                .file_name()
                .expect("name")
                .to_string_lossy()
                .into_owned();
            (name, fs::read(&path).expect("read"))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn a_run_writes_one_directory_however_its_events_are_cut() {
    // Nothing but `Shard` decides when a safepoint frame is written: at
    // each `BLOCK_EVENTS` boundary of the events applied after which a
    // collection completed, and the closing frame at shutdown. So one run
    // fed as any blocks, by the generator or through a server's segments,
    // writes the same bytes. Sampling puts series points inside blocks,
    // so every run image carries a series cut at the same events.
    let cfg = RunConfig::small()
        .with_policy(PolicyKind::UpdatedPointer)
        .with_seed(6)
        .with_heap_growth(Bytes::from_kib(1536))
        .with_sampling(1_500);
    let trace = Arc::new(EncodedTrace::record(cfg.workload.clone()).expect("record"));
    // Each schedule with the server mode that writes it; `None`, a
    // generation at every safepoint, is one no server stream is configured
    // for.
    let modes = [DurabilityMode::LogOnly, DurabilityMode::SnapshotAndLog];
    for server_mode in modes.map(Some).into_iter().chain([None]) {
        let durability = |dir: &Path| match server_mode {
            Some(DurabilityMode::LogOnly) => DurabilityConfig::log_only(dir),
            Some(_) => DurabilityConfig::snapshot_and_log(dir),
            None => DurabilityConfig::snapshot_and_log(dir).with_snapshot_every(1),
        };
        let blocks = |cut: usize| {
            let dir = ScratchDir::new("cut");
            let mut shard =
                Shard::new(&cfg.clone().with_durability(durability(dir.path()))).expect("shard");
            let (mut cursor, mut block) = (trace.cursor(), EventBlock::new());
            while cursor.next_block_of(&mut block, cut).expect("decode") > 0 {
                shard.step_block(&block).expect("step");
            }
            shard.finish(trace.stats()).expect("finish");
            files_of(dir.path())
        };
        let segments = |mode: DurabilityMode, cut: u64| {
            let root = ScratchDir::new("cut-server");
            let mut server = Server::start(
                ServerConfig::new(1)
                    .with_data_dir(root.path())
                    .with_durability_mode(mode),
            );
            let stream = server.open_stream(StreamId(0), cfg.clone()).expect("open");
            for segment in EncodedTrace::segments(&trace, cut).expect("segments") {
                server.submit_segment(stream, segment).expect("submit");
            }
            server.shutdown().expect("shutdown");
            files_of(&root.join("stream-000000"))
        };
        let dir = ScratchDir::new("cut-synthetic");
        let persisted = cfg.clone().with_durability(durability(dir.path()));
        let outcome = Simulation::builder(&persisted).run().expect("run");
        let (totals, series) = (outcome.totals, outcome.series.points().len());
        let what = format!("{:?}", persisted.durability);
        assert!(series > 10, "{what}: {series} sample points");

        let reference = files_of(dir.path());
        let mut feeds = vec![
            ("1-event blocks", blocks(1)),
            ("97-event blocks", blocks(97)),
            ("BLOCK_EVENTS blocks", blocks(BLOCK_EVENTS)),
        ];
        if let Some(mode) = server_mode {
            feeds.push(("97-event server segments", segments(mode, 97)));
            feeds.push(("4096-event server segments", segments(mode, 4096)));
        }
        let names = |files: &[(String, Vec<u8>)]| -> Vec<String> {
            files.iter().map(|(name, _)| name.clone()).collect()
        };
        for (feed, files) in feeds {
            assert_eq!(names(&files), names(&reference), "{what}, {feed}");
            for ((name, bytes), (_, want)) in files.iter().zip(&reference) {
                assert!(bytes == want, "{what}, {feed}: {name} differs");
            }
        }

        let frames = read_log(dir.path()).expect("read log").safepoints;
        let (closing, mid_run) = frames.split_last().expect("a closing frame");
        assert_eq!(
            (closing.events_applied, closing.collections),
            (trace.events(), totals.collections),
            "{what}"
        );
        assert!(
            mid_run.len() > 4,
            "{what}: {} mid-run frames",
            mid_run.len()
        );
        for frame in mid_run {
            assert_eq!(
                frame.events_applied % BLOCK_EVENTS as u64,
                0,
                "{what}: {frame:?}"
            );
            if server_mode.is_none() {
                assert!(frame.generation > 0, "{what}: {frame:?} took no generation");
            }
        }
        // A mid-run frame only where a collection completed since the last.
        assert!(mid_run
            .windows(2)
            .all(|w| w[0].collections < w[1].collections));
    }
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
fn a_manifest_naming_a_retired_policy_is_an_error_that_names_it() {
    // The `Composite` blend and the adaptive meta-policy are gone, so a
    // directory either one wrote has no replay here. The reader parses a
    // name as the command line does: `adaptive-meta` is the same token as
    // the display name such a build wrote.
    let dir = ScratchDir::new("retired-policy");
    run_durable(PolicyKind::UpdatedPointer, 1, &dir);
    let cfg = RunConfig::small()
        .with_policy(PolicyKind::UpdatedPointer)
        .with_seed(1);
    for retired in ["Composite", "adaptive-meta"] {
        let mut old = manifest_for(&cfg, TelemetryLevel::Full);
        old.set("policy", retired);
        old.write_to(dir.path()).expect("rewrite the manifest");
        for (what, err) in [
            ("recover", recover(dir.path()).err()),
            ("verify", verify(dir.path()).err()),
        ] {
            let err = err.unwrap_or_else(|| panic!("{what} accepted {retired}"));
            assert!(err.to_string().contains(retired), "{what}: {err}");
        }
    }
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
    // overflow or a failed terabyte allocation inside `Database::new`; a
    // value wider than its field, never as the truncated value's run.
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
        ("db.max_weight", 288),
        ("wl.traversals_per_round", (1 << 32) + 22),
    ] {
        assert!(current.get(key).is_some(), "{key} is a manifest key");
        let mut hostile = current.clone();
        hostile.set(key, value);
        hostile.write_to(dir.path()).expect("rewrite the manifest");
        let err = recover(dir.path()).expect_err("geometry out of bounds");
        assert!(err.to_string().contains(&key[3..]), "{key}: {err}");
    }
}

#[test]
fn every_manifest_key_takes_hostile_values_without_a_panic() {
    // Every key a real run's MANIFEST holds, read from the file's
    // `key = value` lines, set in turn to each value below and resealed:
    // `recover` answers `Ok` or `Err`, and never panics or sizes an
    // allocation by the value.
    let dir = ScratchDir::new("hostile-manifest");
    let run = run_durable(PolicyKind::UpdatedPointer, 1, &dir);
    let text = fs::read_to_string(dir.join("MANIFEST.pgc")).expect("read the manifest");
    let entries: Vec<(&str, &str)> = text
        .lines()
        .filter_map(|line| line.split_once(" = "))
        .filter(|(key, _)| *key != "crc")
        .collect();
    assert!(entries.len() >= 25, "{entries:?}");
    let mut real = Manifest::default();
    for (key, value) in &entries {
        real.set(key, value);
    }
    let hostile = [
        String::new(),
        "x".into(),
        "-1".into(),
        "0".into(),
        u64::MAX.to_string(),
        (u128::from(u64::MAX) + 1).to_string(),
        // A zero trigger once tripped the scheduler's assertion.
        "overwrites:0".into(),
        "alloc-bytes:0".into(),
    ];
    for (key, _) in entries {
        for value in &hostile {
            let mut edited = real.clone();
            edited.set(key, value);
            edited.write_to(dir.path()).expect("rewrite the manifest");
            // Either answer is fine; a panic fails the test.
            let _ = recover(dir.path());
        }
    }
    real.write_to(dir.path()).expect("restore the manifest");
    let recovered = recover(dir.path()).expect("the resealed original recovers");
    assert_eq!(outcome_digest(&recovered.outcome), outcome_digest(&run));
}

/// Replays `dir`'s surviving log prefix through a bare [`Shard`] — the
/// ground truth a torn-tail recovery must match.
fn replay_prefix_baseline(dir: &ScratchDir, recovered: &RecoveredRun) -> RunOutcome {
    let log = read_log(dir.path()).expect("read log");
    let mut shard = Shard::new(&recovered.cfg).expect("shard");
    shard.enable_telemetry(recovered.telemetry_level);
    let events = log.trace.cursor().decode_all().expect("decode the log");
    shard
        .step_block(&events.into_iter().collect())
        .expect("replay prefix");
    shard.finish(GenStats::default()).expect("finish")
}

#[test]
fn corrupted_tail_frame_fails_its_checksum_and_is_dropped() {
    let dir = ScratchDir::new("corrupt");
    run_durable(PolicyKind::MostGarbage, 3, &dir);

    // Flip one byte inside the final frame: the length prefix still reads,
    // the CRC no longer matches.
    let segments = read_log(dir.path()).expect("read log").segments;
    let tail = dir.join(format!("log-{:08}.pgcl", segments - 1));
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

/// Builds before the one-file layout wrote `snap-G-pN.pgcs`, one image
/// each. There is no second reader: such a directory recovers by replay.
#[test]
fn a_directory_in_the_per_partition_layout_recovers_by_replay_alone() {
    let dir = ScratchDir::new("old-layout");
    let original = run_durable(PolicyKind::MostGarbage, 1, &dir);
    for file in scan_snapshots(dir.path()).expect("scan") {
        let bytes = fs::read(&file.path).expect("read");
        for (p, image) in partition_images(&bytes).into_iter().enumerate() {
            let name = format!("snap-{:08}-p{p:06}.pgcs", file.generation);
            fs::write(dir.join(name), &bytes[image]).expect("split");
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
    assert_eq!(recovered.restored_from, None, "a fresh start");
    assert_eq!(recovered.tail_events, original.totals.events);
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
    for ((_, cfg), &handle) in configs.iter().zip(&handles) {
        let events: Vec<_> = SyntheticWorkload::new(cfg.workload.clone())
            .expect("workload")
            .collect();
        let trace = EncodedTrace::from_events(WorkloadParams::default(), &events);
        server
            .submit_segment(handle, TraceSegment::whole(Arc::new(trace)))
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

/// Waits for the background writer to land `path`.
fn landed(path: &Path) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !path.exists() {
        assert!(Instant::now() < deadline, "{} never landed", path.display());
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A copy of `dir` as it stands, holding generation `generation` only:
/// what a kill right after that generation landed would leave.
fn copy_at(dir: &ScratchDir, generation: u64) -> ScratchDir {
    let snap = format!("snap-{generation:08}.pgcs");
    landed(&dir.join(&snap));
    let copy = ScratchDir::new("landed");
    for entry in fs::read_dir(dir.path()).expect("list") {
        let name = entry.expect("entry").file_name();
        let name = name.to_string_lossy();
        if name == "MANIFEST.pgc" || name.starts_with("log-") || *name == snap {
            fs::copy(dir.join(&*name), copy.join(&*name)).expect("copy");
        }
    }
    copy
}

#[test]
fn restore_is_the_run_from_every_generation_it_lands() {
    for policy in PolicyKind::ALL {
        for seed in 0..3 {
            // Twice small()'s heap: 18,000–21,600 events, four
            // `BLOCK_EVENTS` boundaries or five, so a collecting run lands
            // at least four mid-run generations.
            let cfg = RunConfig::small()
                .with_policy(policy)
                .with_seed(seed)
                .with_heap_growth(Bytes::from_kib(1024))
                .with_sampling(1_500);
            let trace = EncodedTrace::record(cfg.workload.clone()).expect("record");
            let events = trace.cursor().decode_all().expect("decode");
            let dir = ScratchDir::new("every-generation");
            let durable = cfg.clone().with_durability(
                DurabilityConfig::snapshot_and_log(dir.path())
                    .with_snapshot_every(1)
                    .with_segment_bytes(16 << 10),
            );
            // Step the run a frame at a time; after each safepoint (one per
            // boundary after which a collection completed, each taking a
            // generation) copy the directory once the generation has landed.
            let mut shard = Shard::new(&durable).expect("shard");
            shard.enable_telemetry(TelemetryLevel::Full);
            let (mut copies, mut safepointed) = (Vec::new(), 0);
            let (mut cursor, mut block) = (trace.cursor(), EventBlock::new());
            while cursor.next_block(&mut block).expect("decode") > 0 {
                shard.step_block(&block).expect("step");
                let collections = shard.db().stats().collections;
                let at = shard.events_applied();
                if at.is_multiple_of(BLOCK_EVENTS as u64) && collections > safepointed {
                    safepointed = collections;
                    let generation = copies.len() as u64 + 1;
                    copies.push((copy_at(&dir, generation), at));
                }
            }
            let original = shard.finish(GenStats::default()).expect("finish");
            if original.totals.collections > 0 {
                assert!(
                    copies.len() >= 4,
                    "{policy} seed {seed}: {} mid-run generations",
                    copies.len()
                );
            }
            let closing = copies.len() as u64 + 1;
            copies.push((copy_at(&dir, closing), original.totals.events));

            for (i, (copy, at)) in copies.iter().enumerate() {
                let what = format!("{policy} seed {seed} generation {}", i + 1);
                let (mut restored, tail) = restore(copy.path()).expect("restore");
                assert_eq!(tail.restored_from, Some(i as u64 + 1), "{what}");
                assert_eq!(tail.log.trace.events(), 0, "{what}: the copy ends there");
                assert_eq!(restored.events_applied(), *at, "{what}");
                // The structures as loaded, then at the first activation
                // after the restore: what the mutator made of them.
                restored.db().check_invariants();
                let activations = Rc::new(Cell::new(0));
                restored.add_observer(Box::new(InvariantSweep {
                    activations: Rc::clone(&activations),
                    checks: 1,
                }));
                let before = restored.db().stats().collections;
                restored
                    .step_block(&events[*at as usize..].iter().copied().collect())
                    .expect("step the rest");
                let out = restored.finish(GenStats::default()).expect("finish");
                if out.totals.collections > before {
                    assert!(activations.get() > 0, "{what}: no sweep after the restore");
                }
                assert_eq!(out.totals, original.totals, "{what}");
                assert_eq!(out.collections, original.collections, "{what}");
                assert_eq!(out.db_stats, original.db_stats, "{what}");
                assert_eq!(out.series.points(), original.series.points(), "{what}");
                assert_eq!(out.telemetry, original.telemetry, "{what}");
                assert_eq!(outcome_digest(&out), outcome_digest(&original), "{what}");
                verify(copy.path()).unwrap_or_else(|e| panic!("{what}: {e}"));
            }
        }
    }
}

/// The newest generation's bytes with one byte flipped `from_end` bytes
/// before the end (the run image's words) or `from_start` after the
/// start (the first partition image's records).
fn flipped(bytes: &[u8], at: usize) -> Vec<u8> {
    let mut damaged = bytes.to_vec();
    damaged[at] ^= 0x10;
    damaged
}

#[test]
fn a_damaged_newest_generation_falls_back_to_the_older_one_whole() {
    let dir = ScratchDir::new("damaged-newest");
    let original = run_durable(PolicyKind::MostGarbage, 4, &dir);
    let files = scan_snapshots(dir.path()).expect("scan");
    let [older, newest] = &files[..] else {
        panic!("two generations are kept, found {files:?}");
    };
    let older_at = read_generation(&older.path).expect("read").events_applied;
    let bytes = fs::read(&newest.path).expect("read");
    for (damage, what) in [
        (flipped(&bytes, 60), "a partition image's record"),
        (flipped(&bytes, bytes.len() - 12), "the run image's words"),
    ] {
        fs::write(&newest.path, &damage).expect("plant");
        let recovered = recover(dir.path()).expect("recover");
        assert_eq!(
            outcome_digest(&recovered.outcome),
            outcome_digest(&original),
            "{what}"
        );
        assert_eq!(recovered.restored_from, Some(older.generation), "{what}");
        assert_eq!(recovered.snapshot_files_skipped, 1, "{what}");
        assert_eq!(
            recovered.tail_events,
            original.totals.events - older_at,
            "{what}"
        );
        assert!(recovered.tail_events > 0, "{what}: a generation's worth");
        // `verify` passes over the damaged file as `restore` does, the
        // older generation still round-trips, and its recovery is
        // `recover`'s: restored from the older one, the same tail replayed.
        let verified = verify(dir.path()).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(
            outcome_digest(&verified.outcome),
            outcome_digest(&recovered.outcome),
            "{what}"
        );
        assert_eq!(
            (verified.restored_from, verified.tail_events),
            (recovered.restored_from, recovered.tail_events),
            "{what}"
        );
        assert_eq!(
            (verified.snapshots_verified, verified.snapshot_files_skipped),
            (1, 1),
            "{what}"
        );
    }
    fs::write(&newest.path, &bytes).expect("restore the file");
}

/// `verify` reads the run image too. A checksum-valid edit to one score of
/// the older generation's policy table is one the restore takes and the
/// newest generation hides from `recover`; `verify` refuses it and names
/// the generation.
#[test]
fn verify_refuses_an_older_run_image_that_no_run_wrote() {
    let dir = ScratchDir::new("older-run-image");
    let original = run_durable(PolicyKind::UpdatedPointer, 3, &dir);
    let files = scan_snapshots(dir.path()).expect("scan");
    let [older, _] = &files[..] else {
        panic!("two generations are kept, found {files:?}");
    };
    let (shard, _) = restore(copy_at(&dir, older.generation).path()).expect("restore");
    let mut policy = Vec::new();
    shard.collector().save(&mut policy);
    let words = read_generation(&older.path).expect("read").run;
    let at = words
        .windows(policy.len())
        .position(|w| w == policy)
        .expect("the policy's words are in the run image");
    // The overwrite table's length, then its scores.
    assert!(words[at] > 0, "a score to edit");
    let mut bytes = fs::read(&older.path).expect("read");
    let footer = bytes.len() - 4;
    let run_words = footer - 8 * words.len();
    bytes[run_words + 8 * (at + 1)] ^= 1;
    let run_image = partition_images(&bytes).last().expect("images").end;
    let crc = crc32(&bytes[run_image..footer]);
    bytes[footer..].copy_from_slice(&crc.to_le_bytes());
    fs::write(&older.path, &bytes).expect("plant");

    assert!(restore(copy_at(&dir, older.generation).path()).is_ok());
    let recovered = recover(dir.path()).expect("recover restores the newest");
    assert_eq!(
        outcome_digest(&recovered.outcome),
        outcome_digest(&original)
    );
    let err = verify(dir.path()).expect_err("a generation no run wrote");
    assert!(
        err.to_string()
            .contains(&format!("generation {}", older.generation)),
        "{err}"
    );
}

/// CRC-32 (IEEE), bit by bit: reseals hand-edited images.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

/// Where each partition image of a generation file lies (the run image
/// follows the last): walked over each header's body length.
fn partition_images(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let mut images = Vec::new();
    let mut start = 0;
    while bytes[start..].starts_with(b"PGCS") {
        let end = start + 56 + u64_at(start + 48) + 4;
        images.push(start..end);
        start = end;
    }
    images
}

#[test]
fn with_no_usable_generation_recovery_starts_fresh() {
    let dir = ScratchDir::new("none-usable");
    let original = run_durable(PolicyKind::Random, 2, &dir);
    let files = scan_snapshots(dir.path()).expect("scan");
    let landed: Vec<Vec<u8>> = files.iter().map(|f| fs::read(&f.path).unwrap()).collect();
    let fresh = |what: &str, skipped: usize| {
        let recovered = recover(dir.path()).expect("recover");
        assert_eq!(
            outcome_digest(&recovered.outcome),
            outcome_digest(&original),
            "{what}"
        );
        assert_eq!(recovered.restored_from, None, "{what}");
        assert_eq!(recovered.tail_events, original.totals.events, "{what}");
        assert_eq!(recovered.snapshot_files_skipped, skipped, "{what}");
        let verified = verify(dir.path()).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(
            (verified.restored_from, verified.tail_events),
            (None, original.totals.events),
            "{what}: the replay from event 0 is the recovery"
        );
    };
    for (file, bytes) in files.iter().zip(&landed) {
        fs::write(&file.path, flipped(bytes, bytes.len() / 2)).expect("damage");
    }
    fresh("both generations damaged", 2);

    // A directory a version-1, -2 or -3 build wrote: its images are
    // refused on the version word, before any walk, so a version-4 body
    // can stand in for the old layout behind it (version 3's run image,
    // which also held the allocation clock and the switch words; version
    // 2's fixed-width records; version 1's, and no run image, which
    // version 1 lacks).
    for version in [1u32, 2, 3] {
        for (file, bytes) in files.iter().zip(&landed) {
            let mut images = partition_images(bytes);
            if version >= 2 {
                images.push(images.last().expect("images").end..bytes.len());
            }
            let mut old = Vec::new();
            for image in images {
                let mut image = bytes[image].to_vec();
                image[4..8].copy_from_slice(&version.to_le_bytes());
                let footer = image.len() - 4;
                let crc = crc32(&image[..footer]);
                image[footer..].copy_from_slice(&crc.to_le_bytes());
                old.extend(image);
            }
            fs::write(&file.path, old).expect("downgrade");
            let err = read_generation(&file.path).expect_err("an older version");
            let msg = err.to_string();
            let want = format!("malformed bytes: snapshot: unsupported version {version}");
            assert_eq!(msg, want);
            assert!(!msg.contains("trace"), "{msg}");
        }
        fresh(&format!("a version-{version} directory"), 2);
    }
}
