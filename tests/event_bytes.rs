//! One byte form of an event, one hostile-input surface.
//!
//! Every place an event is bytes — a PGCT trace file, an `EncodedTrace`,
//! a change-log frame — shares `pgc::workload::codec`, so these tests
//! cover all of them: a size too wide for the narrow form survives every
//! layer, and mutated files (bit flips, truncations, splices) come back as
//! an error or a clean prefix, never a panic and never an allocation sized
//! by a length field (a forged 4-billion-event frame is rejected, not
//! provisioned for).

use pgc::durable::{manifest_for, read_log, DurableStore, ScratchDir};
use pgc::odb::Database;
use pgc::prelude::*;
use pgc::types::{PgcError, SimRng};
use pgc::workload::{Event, EventBlock, NodeId, SyntheticWorkload, TraceSegment};
use std::fs;
use std::sync::Arc;

#[test]
fn a_wide_size_survives_every_layer() {
    let events = [
        Event::CreateRoot {
            node: NodeId(0),
            size: Bytes(u32::MAX as u64 + 7),
            slots: 2,
        },
        Event::Visit { node: NodeId(0) },
    ];
    let trace = EncodedTrace::from_events(WorkloadParams::default(), &events);
    assert_eq!(trace.cursor().decode_all().unwrap(), events);

    let block: EventBlock = events.into_iter().collect();
    assert_eq!(block.iter().collect::<Vec<_>>(), events);

    // `append_block` and `append_events` write the same log bytes, and the
    // log reads back as the events that went in.
    let db = Database::new(DbConfig::default()).unwrap();
    let logged = |by_block: bool| {
        let dir = ScratchDir::new("wide");
        let mut store = DurableStore::create(&DurabilityConfig::log_only(dir.path())).unwrap();
        if by_block {
            store.append_block(&block, 0..block.len()).unwrap();
        } else {
            store.append_events(&events).unwrap();
        }
        store.finish(&db, events.len() as u64, 0).unwrap();
        let read_back = read_log(dir.path())
            .unwrap()
            .trace
            .cursor()
            .decode_all()
            .unwrap();
        assert_eq!(read_back, events);
        fs::read(dir.join("log-00000000.pgcl")).unwrap()
    };
    assert_eq!(logged(true), logged(false));
}

/// One seeded mutation of `bytes`: a bit flip, a truncation, or a splice
/// of one of its own byte ranges over another position.
fn mutate(rng: &mut SimRng, bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match rng.below(3) {
        0 => {
            let bit = rng.below(out.len() as u64 * 8) as usize;
            out[bit / 8] ^= 1 << (bit % 8);
        }
        1 => out.truncate(rng.pick_index(out.len())),
        _ => {
            let from = rng.pick_index(out.len());
            let len = rng.pick_index(out.len() - from) + 1;
            let at = rng.pick_index(out.len());
            out.splice(at..at, bytes[from..from + len].iter().copied());
        }
    }
    out
}

#[test]
fn hostile_trace_files_are_errors_or_clean_prefixes() {
    let mut events: Vec<Event> = SyntheticWorkload::new(WorkloadParams::small().with_seed(4))
        .unwrap()
        .take(150)
        .collect();
    events.push(Event::Visit {
        node: NodeId(u64::MAX), // one wide form in the mix
    });
    let mut file = Vec::new();
    EncodedTrace::from_events(WorkloadParams::default(), &events)
        .write_to(&mut file)
        .unwrap();
    // A file that reads is validated: its cursor decodes it without error.
    let read = |bytes: &[u8]| {
        EncodedTrace::read_from(bytes).map(|t| t.cursor().decode_all().expect("validated"))
    };

    for cut in 0..file.len() {
        match read(&file[..cut]) {
            Ok(prefix) => assert_eq!(prefix[..], events[..prefix.len()], "cut {cut}"),
            Err(PgcError::TraceIo(_) | PgcError::TraceFormat(_)) => {}
            Err(other) => panic!("unexpected error at cut {cut}: {other}"),
        }
    }
    let mut rng = SimRng::new(0xB17E5);
    for _ in 0..4_000 {
        let bytes = mutate(&mut rng, &file);
        if let Ok(decoded) = read(bytes.as_slice()) {
            // No field states a count: a stream cannot decode to more
            // events than its bytes hold (5 is the shortest event).
            assert!(decoded.len() * 5 <= bytes.len());
        }
    }
}

/// Each segment's events and byte length, in order.
fn carved(trace: &Arc<EncodedTrace>, max_events: u64) -> Vec<(Vec<Event>, usize)> {
    let segments = EncodedTrace::segments(trace, max_events).unwrap();
    let carve = |s: &TraceSegment| (s.cursor().decode_all().unwrap(), s.byte_len());
    segments.iter().map(carve).collect()
}

#[test]
fn a_trace_file_read_back_is_the_trace_that_wrote_it() {
    let recorded = EncodedTrace::record(WorkloadParams::small().with_seed(2)).unwrap();
    let blocks = recorded.events() as usize / 4096;
    assert!(blocks > 0 && !recorded.events().is_multiple_of(4096));
    // Cut to a whole number of blocks: the last byte mark is the end of
    // the buffer.
    let events = recorded.cursor().decode_all().unwrap();
    let aligned = EncodedTrace::from_events(WorkloadParams::default(), &events[..blocks * 4096]);
    for original in [recorded, aligned] {
        let mut file = Vec::new();
        original.write_to(&mut file).unwrap();
        let back = EncodedTrace::read_from(file.as_slice()).unwrap();
        let mut again = Vec::new();
        back.write_to(&mut again).unwrap();
        assert_eq!(again, file, "the buffer is byte-equal");
        assert_eq!(back.byte_len(), original.byte_len());
        assert_eq!(back.events(), original.events());
        let (original, back) = (Arc::new(original), Arc::new(back));
        for max_events in [4096, 97] {
            assert_eq!(
                carved(&back, max_events),
                carved(&original, max_events),
                "{max_events}-event segments"
            );
        }
    }
}

#[test]
fn a_duplicated_first_block_is_an_error_not_a_remapping() {
    // A run of events spliced in twice keeps every checksum a trace file
    // or a log frame would carry, and each event in it decodes. Its create
    // events repeat node ids, though, and a replayer that accepted them
    // would bind every later node id to the wrong object.
    let cfg = RunConfig::small().with_seed(4);
    let events: Vec<Event> = SyntheticWorkload::new(cfg.workload.clone())
        .unwrap()
        .collect();
    let doubled = [&events[..64], &events[..]].concat();

    let trace = EncodedTrace::from_events(cfg.workload.clone(), &doubled);
    let err = Simulation::builder(&cfg)
        .trace(&trace)
        .run()
        .expect_err("a repeated create id");
    assert!(matches!(err, PgcError::TraceFormat(_)), "{err}");

    let dir = ScratchDir::new("doubled");
    let mut store = DurableStore::create(&DurabilityConfig::log_only(dir.path())).unwrap();
    store
        .write_manifest(&manifest_for(&cfg, TelemetryLevel::Off))
        .unwrap();
    store.append_events(&doubled).unwrap();
    let db = Database::new(cfg.db.clone()).unwrap();
    store.finish(&db, doubled.len() as u64, 0).unwrap();
    assert_eq!(
        read_log(dir.path()).unwrap().trace.events(),
        doubled.len() as u64
    );
    let err = recover(dir.path()).expect_err("a log holding those bytes");
    assert!(matches!(err, PgcError::TraceFormat(_)), "{err}");
}

#[test]
fn an_add_slot_past_the_last_slot_id_is_an_error_not_a_wrapped_id() {
    // 65,535 five-byte `AddSlot` events on one two-slot object all decode
    // and any checksum over them holds; the last asks for a 65,537th slot,
    // and a 16-bit `SlotId` for it would name slot 0 again.
    let mut events = vec![Event::CreateRoot {
        node: NodeId(0),
        size: Bytes(100),
        slots: 2,
    }];
    events.resize(65_536, Event::AddSlot { owner: NodeId(0) });
    let trace = EncodedTrace::from_events(WorkloadParams::default(), &events);
    let events = trace.cursor().decode_all().unwrap();
    let (last, before) = events.split_last().unwrap();

    let mut shard = Shard::new(&RunConfig::paper(PolicyKind::UpdatedPointer, 1)).unwrap();
    shard
        .step_block(&before.iter().copied().collect())
        .expect("65,536 slots have ids");
    shard.db().check_invariants();
    let err = shard
        .step_block(&[*last].into_iter().collect())
        .expect_err("no id is left");
    assert!(
        matches!(err, PgcError::SlotOutOfRange { len: 65_536, .. }),
        "{err}"
    );
}

/// CRC-32 (IEEE), bit by bit: forges valid checksums for hostile frames.
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

/// A log frame around `payload` with a checksum the reader accepts.
fn frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut body = vec![kind];
    body.extend_from_slice(payload);
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out
}

#[test]
fn hostile_log_segments_are_errors_or_clean_prefixes() {
    let dir = ScratchDir::new("hostile");
    // Safepoints land only at `BLOCK_EVENTS` boundaries, and segments
    // rotate only there: a run 51 events past two of them, whose whole
    // frames outgrow a segment and whose short last one does not, leaves
    // three, the newest a few hundred bytes to cut at every length.
    let cfg = RunConfig::small()
        .with_seed(5)
        .with_heap_growth(Bytes::from_kib(372))
        .with_gc_overwrite_threshold(8)
        .with_durability(
            DurabilityConfig::snapshot_and_log(dir.path())
                .with_snapshot_every(2)
                .with_segment_bytes(16 << 10),
        );
    Simulation::builder(&cfg).run().expect("durable run");
    let clean = read_log(dir.path()).expect("clean log");
    let events = clean
        .trace
        .cursor()
        .decode_all()
        .expect("clean log decodes");
    assert!(
        clean.segments >= 3,
        "rotation gives older segments to damage"
    );
    let paths: Vec<_> = (0..clean.segments)
        .map(|seq| dir.join(format!("log-{seq:08}.pgcl")))
        .collect();
    let originals: Vec<Vec<u8>> = paths.iter().map(|p| fs::read(p).unwrap()).collect();
    let newest = paths.len() - 1;
    // More than a header (24 bytes) and the closing frame (33).
    assert!(
        originals[newest].len() > 24 + 33,
        "the newest segment holds the last events frame too"
    );
    let clean_digest = outcome_digest(&recover(dir.path()).expect("clean recovery").outcome);

    // With segment `seq` replaced by `bytes`: the log reads back as a
    // prefix of the clean one or not at all, and recovery (run when
    // `replay` is set; it is the slow part) replays exactly what read back.
    // Recovery reads the log from its restore point on, so damage wholly
    // before that point is not read: such a recovery restores the
    // undamaged run.
    let damaged = |seq: usize, bytes: &[u8], replay: bool, what: &str| {
        fs::write(&paths[seq], bytes).unwrap();
        let log = read_log(dir.path());
        let recovered = replay.then(|| recover(dir.path()));
        fs::write(&paths[seq], &originals[seq]).unwrap();
        match (log, recovered) {
            (Ok(log), recovered) => {
                let prefix = log
                    .trace
                    .cursor()
                    .decode_all()
                    .expect("a log that reads decodes");
                assert_eq!(prefix[..], events[..prefix.len()], "{what}");
                if let Some(recovered) = recovered {
                    let recovered = recovered.unwrap_or_else(|e| panic!("{what}: {e}"));
                    assert_eq!(recovered.events_replayed, log.trace.events(), "{what}");
                    assert_eq!(recovered.torn_tail, log.torn, "{what}");
                }
            }
            (Err(e), recovered) => {
                assert!(matches!(e, PgcError::TraceFormat(_)), "{what}: {e}");
                if let Some(Ok(recovered)) = recovered {
                    assert!(
                        seq < newest && recovered.restored_from.is_some(),
                        "{what}: recovered past {e}"
                    );
                    assert_eq!(outcome_digest(&recovered.outcome), clean_digest, "{what}");
                }
            }
        }
    };
    for cut in 0..originals[newest].len() {
        let bytes = &originals[newest][..cut];
        damaged(newest, bytes, cut % 16 == 0, &format!("cut {cut}"));
    }
    let mut rng = SimRng::new(0x5EED);
    for i in 0..400 {
        let seq = rng.pick_index(paths.len());
        let bytes = mutate(&mut rng, &originals[seq]);
        damaged(seq, &bytes, true, &format!("mutation {i} of segment {seq}"));
    }

    // Frames whose checksums hold but whose fields lie: the reader's part
    // is to refuse them, not to provision for a stated count or length.
    let forged = |frames: &[u8]| [&originals[newest][..24], frames].concat();
    let mut count_lies = u32::MAX.to_le_bytes().to_vec();
    count_lies.extend_from_slice(&[5, 0, 0, 0, 0]);
    for (frames, what) in [
        (frame(1, &count_lies), "a frame stating 4 billion events"),
        (frame(1, &[1, 0]), "an events frame too short for its count"),
        (frame(1, &[1, 0, 0, 0, 250]), "an unknown event tag"),
        (frame(2, &[0; 23]), "a short safepoint frame"),
        (frame(9, &[]), "an unknown frame kind"),
    ] {
        fs::write(&paths[newest], forged(&frames)).unwrap();
        let err = read_log(dir.path()).expect_err(what);
        assert!(matches!(err, PgcError::TraceFormat(_)), "{what}: {err}");
        assert!(recover(dir.path()).is_err(), "{what}");
    }
    // A stated length that overruns the file is a torn tail like any other.
    let mut length_lies = frame(1, &[0; 9]);
    length_lies[..4].copy_from_slice(&u32::MAX.to_le_bytes());
    damaged(newest, &forged(&length_lies), true, "a 4 GiB frame");
    // A whole frame spliced in twice keeps its checksum, so the log reads
    // back as well-formed events that are not the run's; what the replayer
    // makes of those is its own contract, so this stops at the reader.
    let first = u32::from_le_bytes(originals[newest][24..28].try_into().unwrap()) as usize + 9;
    let first_frame = &originals[newest][24..24 + first];
    fs::write(&paths[newest], forged(&[first_frame, first_frame].concat())).unwrap();
    let log = read_log(dir.path()).expect("every checksum holds");
    log.trace
        .cursor()
        .decode_all()
        .expect("validated when read");
}
