//! The object records of a partition image's body, in the layout the
//! module docs of `snapshot.rs` give: each record delta-encoded against the
//! one before it in the image, in LEB128 varints. The previous oid and end
//! (`offset + size`) start at zero in each image, and every difference
//! wraps, so any `u64` field encodes; in member-list order, which is mostly
//! allocation order, each delta is small and so is each slot's distance to
//! its owner.
//!
//! The reader ([`records`]) takes hostile bytes and checks them in the pass
//! that decodes them: a varint longer than ten bytes or past `u64`, a slot
//! count past the bytes left, a record cut short, sizes that miss the
//! header's `live_bytes` and bytes after the last record are each an `Err`.
//! No record is shorter than [`MIN_RECORD_BYTES`], the framing's bound on
//! a record count before anything is sized by it.

use super::bad;
use pgc_odb::storage::{ObjAddr, ObjectRecord, Slot, Slots};
use pgc_types::{Bytes, Oid, PartitionId, Result};

/// The shortest record: three one-byte varints, the weight and a zero slot
/// count.
pub(super) const MIN_RECORD_BYTES: usize = 5;
/// The longest varint: ten bytes of seven bits hold a `u64`.
const VARINT_MAX: usize = 10;
/// The stack window a record is staged in: its fields and two slots at
/// their widest.
const WINDOW: usize = 4 * VARINT_MAX + 1 + 2 * VARINT_MAX;

/// `delta` as a signed difference, small either side of zero.
fn zigzag(delta: u64) -> u64 {
    (delta << 1) ^ ((delta as i64 >> 63) as u64)
}

fn unzigzag(word: u64) -> u64 {
    (word >> 1) ^ (word & 1).wrapping_neg()
}

/// Writes `value` as a varint at `window[at..]`; returns where it ends.
#[inline]
fn put_varint(window: &mut [u8; WINDOW], mut at: usize, mut value: u64) -> usize {
    while value >= 0x80 {
        window[at] = value as u8 | 0x80;
        value >>= 7;
        at += 1;
    }
    window[at] = value as u8;
    at + 1
}

/// Appends one record, encoded against `prev` (the previous record's oid
/// and end in this image, zeros before its first), and moves `prev` on to
/// it. The record is staged in one stack window, flushed early only when
/// it has more than two slots. A slot naming the oid `2^63` away from its
/// owner's has no encoding and is an `Err`; no run's oids get that far.
#[inline]
pub(super) fn put_record(
    buf: &mut Vec<u8>,
    prev: &mut [u64; 2],
    [oid, offset, size]: [u64; 3],
    weight: u8,
    slots: impl ExactSizeIterator<Item = Option<u64>>,
) -> Result<()> {
    let mut window = [0u8; WINDOW];
    let mut at = put_varint(&mut window, 0, zigzag(oid.wrapping_sub(prev[0])));
    at = put_varint(&mut window, at, zigzag(offset.wrapping_sub(prev[1])));
    at = put_varint(&mut window, at, size);
    window[at] = weight;
    at = put_varint(&mut window, at + 1, slots.len() as u64);
    for slot in slots {
        if at > WINDOW - VARINT_MAX {
            buf.extend_from_slice(&window[..at]);
            at = 0;
        }
        let word = match slot {
            None => 0,
            Some(target) => zigzag(target.wrapping_sub(oid))
                .checked_add(1)
                .ok_or_else(|| bad("a slot 2^63 oids from its owner"))?,
        };
        at = put_varint(&mut window, at, word);
    }
    buf.extend_from_slice(&window[..at]);
    *prev = [oid, offset.wrapping_add(size)];
    Ok(())
}

/// The varint at `body[*at..]`; moves `at` past it. Most are one or two
/// bytes.
#[inline(always)]
fn varint(body: &[u8], at: &mut usize) -> Result<u64> {
    let (value, len) = match *body.get(*at..).unwrap_or_default() {
        [low, ..] if low < 0x80 => (u64::from(low), 1),
        [low, high, ..] if high < 0x80 => (u64::from(low & 0x7f) | u64::from(high) << 7, 2),
        ref bytes => long_varint(bytes)?,
    };
    *at += len;
    Ok(value)
}

/// The varint at the front of `bytes` past two bytes, and its length, or
/// why it is malformed.
#[inline(never)]
fn long_varint(bytes: &[u8]) -> Result<(u64, usize)> {
    let mut value = 0;
    for (i, &byte) in bytes.iter().take(VARINT_MAX).enumerate() {
        value |= u64::from(byte & 0x7f) << (7 * i);
        if byte < 0x80 {
            if i == VARINT_MAX - 1 && byte > 1 {
                return Err(bad("a varint past u64"));
            }
            return Ok((value, i + 1));
        }
    }
    Err(bad(if bytes.len() < VARINT_MAX {
        "truncated record"
    } else {
        "a varint longer than ten bytes"
    }))
}

/// The `count` records of a partition image's `body`, in `partition`,
/// decoded front to back as the database holds them: the one pass over the
/// bytes, checking as it goes. A record cut short, a slot count past the
/// bytes left, sizes that do not sum to `live` (the header's `live_bytes`)
/// and bytes after the last record are each an `Err` item, and the last.
pub(super) fn records(
    body: &[u8],
    count: u32,
    mut live: u64,
    partition: PartitionId,
) -> impl Iterator<Item = Result<(Oid, ObjectRecord)>> + '_ {
    let (mut at, mut prev, mut left) = (0, [0; 2], Some(count));
    std::iter::from_fn(move || {
        let n = left?;
        let item = if n > 0 {
            record(body, &mut at, &mut prev, &mut live, partition).map(Some)
        } else if at != body.len() {
            Err(bad("bytes after the last record"))
        } else if live != 0 {
            Err(bad("live_bytes disagrees with the records"))
        } else {
            Ok(None)
        };
        left = n.checked_sub(1).filter(|_| matches!(item, Ok(Some(_))));
        item.transpose()
    })
}

/// The record at `body[*at..]`, encoded against `prev` (the previous
/// record's oid and end); moves `at` and `prev` past it and takes its size
/// off `live`. Allocates nothing for a record of up to two slots.
#[inline(always)]
fn record(
    body: &[u8],
    at: &mut usize,
    prev: &mut [u64; 2],
    live: &mut u64,
    partition: PartitionId,
) -> Result<(Oid, ObjectRecord)> {
    let mut pos = *at;
    let oid = prev[0].wrapping_add(unzigzag(varint(body, &mut pos)?));
    let offset = prev[1].wrapping_add(unzigzag(varint(body, &mut pos)?));
    let size = varint(body, &mut pos)?;
    let &weight = body.get(pos).ok_or_else(|| bad("truncated record"))?;
    pos += 1;
    let slots = varint(body, &mut pos)?;
    // Each slot takes a byte at least, and no body holds 2^32 of them.
    if slots > (body.len() - pos).min(u32::MAX as usize) as u64 {
        return Err(bad("slot count exceeds the bytes left"));
    }
    let slots = Slots::read(slots as u32, || {
        let target = varint(body, &mut pos)?.checked_sub(1);
        Ok(Slot::from(
            target.map(|z| Oid(oid.wrapping_add(unzigzag(z)))),
        ))
    })?;
    *live = live
        .checked_sub(size)
        .ok_or_else(|| bad("live_bytes disagrees with the records"))?;
    *at = pos;
    *prev = [oid, offset.wrapping_add(size)];
    let record = ObjectRecord {
        addr: ObjAddr::new(partition, offset),
        size: Bytes(size),
        slots,
        weight,
    };
    Ok((Oid(oid), record))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::super::{parse_generation, Generation};
    use super::*;
    use pgc_types::SimRng;

    /// Zero, `u64::MAX`, or a random value of a random width.
    fn any_u64(rng: &mut SimRng) -> u64 {
        match rng.below(8) {
            0 => 0,
            1 => u64::MAX,
            _ => rng
                .next_u64()
                .checked_shr(rng.below(64) as u32)
                .unwrap_or(0),
        }
    }

    /// A record's oid, partition, offset, size, weight and slots.
    type Row = (u64, u32, u64, u64, u8, Vec<Option<Oid>>);

    /// `records` with the fields compared.
    fn fields(records: &[(Oid, ObjectRecord)]) -> Vec<Row> {
        let slots = |r: &ObjectRecord| r.slots.iter().map(|s| s.get()).collect();
        let row = |(oid, r): &(Oid, ObjectRecord)| {
            let (partition, offset) = (r.addr.partition.0, r.addr.offset);
            (
                oid.index(),
                partition,
                offset,
                r.size.get(),
                r.weight,
                slots(r),
            )
        };
        records.iter().map(row).collect()
    }

    /// Random records, partition by partition: full-range oids, offsets
    /// and sizes (deltas that wrap, offsets before the previous end), 0-40
    /// slots with empty ones among them, each image's sizes summing inside
    /// its `u64` `live_bytes`.
    fn random_partitions(rng: &mut SimRng) -> Vec<Vec<(Oid, ObjectRecord)>> {
        let partitions = 1 + rng.below(4) as u32;
        let partition = |p: u32, rng: &mut SimRng| {
            let (mut live, mut end) = (0u64, 0u64);
            let records = (0..rng.below(30)).map(|_| {
                let oid = any_u64(rng);
                let offset = match rng.below(3) {
                    0 => end,
                    1 => end.wrapping_sub(1 + rng.below(64)),
                    _ => any_u64(rng),
                };
                let size = any_u64(rng).min(u64::MAX - live);
                (live, end) = (live + size, offset.wrapping_add(size));
                let slot = |rng: &mut SimRng| match rng.below(3) {
                    0 => None,
                    1 => Some(oid.wrapping_add(rng.below(200)).wrapping_sub(100)),
                    _ => Some(any_u64(rng)),
                };
                // No slot holds `u64::MAX` (the null) or the oid 2^63 away.
                let slots = Slots::read(rng.below(41) as u32, || {
                    let target = slot(rng).filter(|&t| t != u64::MAX && t != oid ^ 1 << 63);
                    Ok::<_, ()>(Slot::from(target.map(Oid)))
                });
                let record = ObjectRecord {
                    addr: ObjAddr::new(PartitionId(p), offset),
                    size: Bytes(size),
                    slots: slots.expect("infallible"),
                    weight: rng.below(256) as u8,
                };
                (Oid(oid), record)
            });
            records.collect()
        };
        (0..partitions).map(|p| partition(p, rng)).collect()
    }

    #[test]
    fn random_records_round_trip_through_capture_parse_and_records() {
        for seed in 0..200 {
            let mut rng = SimRng::new(seed);
            let partitions = random_partitions(&mut rng);
            let stamp = [1 + rng.below(9), any_u64(&mut rng), any_u64(&mut rng)];
            let words: Vec<u64> = (0..rng.below(5)).map(|_| any_u64(&mut rng)).collect();
            let mut generation = Generation::default();
            let images = partitions.iter().map(|records| {
                let each = records.iter().map(|(oid, r)| Ok((*oid, r)));
                (records.len() as u32, each)
            });
            generation
                .capture_records(stamp, images, |out| out.extend(&words))
                .expect("capture");
            let image = parse_generation(generation.seal().to_vec()).expect("parse");
            assert_eq!(image.run, words, "seed {seed}");
            let read: Vec<_> = image.records().collect::<Result<_>>().expect("decodes");
            assert_eq!(fields(&read), fields(&partitions.concat()), "seed {seed}");
        }

        // The one slot with no encoding is refused, not written wrong.
        let mut buf = Vec::new();
        let far = put_record(
            &mut buf,
            &mut [0; 2],
            [5, 0, 1],
            1,
            [Some(5 ^ 1 << 63)].into_iter(),
        );
        assert!(far.is_err());
    }

    /// Record bodies no capture writes, each with its stated record count
    /// and `live_bytes`, and what its refusal says.
    pub(crate) fn hostile_bodies() -> [(&'static str, Vec<u8>, u32, u64, &'static str); 9] {
        // Oid 1 at offset 0, 100 bytes, weight 1, then `slots`.
        let record = |slots: &[u8]| [&[2, 0, 100, 1][..], slots].concat();
        [
            (
                "an 11-byte varint",
                [&[0x80; 10][..], &[0, 0, 0, 1, 0]].concat(),
                1,
                100,
                "longer",
            ),
            (
                "a 10th byte of 2",
                [&[0xff; 9][..], &[2, 0, 0, 1, 0]].concat(),
                1,
                100,
                "past u64",
            ),
            (
                "a cut inside a varint",
                vec![0, 0, 0x80, 0x80, 0x80],
                1,
                100,
                "truncated",
            ),
            (
                "a cut inside a slot",
                record(&[1, 0x81]),
                1,
                100,
                "truncated",
            ),
            (
                "a slot count past the bytes left",
                record(&[3, 1, 1]),
                1,
                100,
                "slot count",
            ),
            (
                "a record count past body/5",
                record(&[0; 5]),
                2,
                100,
                "record count",
            ),
            (
                "bytes after the last record",
                record(&[1, 1, 0]),
                1,
                100,
                "after the last",
            ),
            (
                "sizes past live_bytes",
                [record(&[0]), record(&[0])].concat(),
                2,
                100,
                "live_bytes",
            ),
            (
                "sizes short of live_bytes",
                record(&[0]),
                1,
                101,
                "live_bytes",
            ),
        ]
    }

    /// `body` read as a partition image's body stating `count` records of
    /// `live` bytes, as a restore reads it: the framing's bound on the
    /// count, then the records.
    fn read(body: &[u8], count: u32, live: u64) -> Result<Vec<(Oid, ObjectRecord)>> {
        if count as usize > body.len() / MIN_RECORD_BYTES {
            return Err(bad("record count exceeds the bytes present"));
        }
        records(body, count, live, PartitionId(3)).collect()
    }

    #[test]
    fn hostile_varints_and_counts_are_errors() {
        for (what, body, count, live, why) in hostile_bodies() {
            let err = read(&body, count, live).expect_err(what).to_string();
            assert!(err.contains(why), "{what}: {err}");
            // The records before the refusal read, and nothing after it.
            let items = records(&body, count, live, PartitionId(3));
            assert!(items.skip_while(Result::is_ok).nth(1).is_none(), "{what}");
        }

        // Ten bytes reach `u64::MAX` exactly; the bodies above, cut one byte
        // short, are just as much errors.
        let widest = [&[0xff; 9][..], &[1, 0, 0, 7, 1, 1]].concat();
        let read = read(&widest, 1, 0).expect("ten bytes");
        let [(oid, rec)] = &read[..] else {
            panic!("one record, read {read:?}")
        };
        assert_eq!(
            (oid.index(), rec.addr.offset, rec.weight),
            (u64::MAX >> 1 ^ u64::MAX, 0, 7)
        );
    }
}
