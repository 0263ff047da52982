//! The object records of a partition image's body, in the layout the
//! module docs of `snapshot.rs` give: each record delta-encoded against the
//! one before it in the image, in LEB128 varints. The previous oid and end
//! (`offset + size`) start at zero in each image, and every difference
//! wraps, so any `u64` field encodes; in member-list order, which is mostly
//! allocation order, each delta is small and so is each slot's distance to
//! its owner.
//!
//! The reader takes hostile bytes. A varint longer than ten bytes or past
//! `u64`, a record count the body cannot hold (no record is shorter than
//! [`MIN_RECORD_BYTES`]), a slot count past the bytes left, a record cut
//! short and bytes after the last record are each an `Err`, found before
//! anything is sized by them.

use super::bad;
use pgc_odb::storage::{ObjAddr, ObjectRecord, Slot};
use pgc_types::{Bytes, Oid, PartitionId, Result};

/// The shortest record: three one-byte varints, the weight and a zero slot
/// count.
const MIN_RECORD_BYTES: usize = 5;
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

/// The varint at the front of `bytes`, and its length. Most are one or two
/// bytes.
#[inline(always)]
fn read_varint(bytes: &[u8]) -> Result<(u64, usize)> {
    match *bytes {
        [low, ..] if low < 0x80 => Ok((u64::from(low), 1)),
        [low, high, ..] if high < 0x80 => Ok((u64::from(low & 0x7f) | u64::from(high) << 7, 2)),
        _ => long_varint(bytes),
    }
}

/// [`read_varint`] past two bytes, or malformed.
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

/// The records of one image body, read front to back.
struct Reader<'a> {
    body: &'a [u8],
    at: usize,
    /// The previous record's oid and end.
    prev: [u64; 2],
}

impl<'a> Reader<'a> {
    fn new(body: &'a [u8]) -> Self {
        Reader {
            body,
            at: 0,
            prev: [0; 2],
        }
    }

    #[inline(always)]
    fn varint(&mut self) -> Result<u64> {
        let (value, len) = read_varint(self.body.get(self.at..).unwrap_or_default())?;
        self.at += len;
        Ok(value)
    }

    /// The next record's oid, offset and size, its weight and its slot
    /// count, checked against the bytes left; one [`Reader::slot`] reads
    /// each slot after it.
    #[inline(always)]
    fn head(&mut self) -> Result<([u64; 3], u8, usize)> {
        let oid = self.prev[0].wrapping_add(unzigzag(self.varint()?));
        let offset = self.prev[1].wrapping_add(unzigzag(self.varint()?));
        let size = self.varint()?;
        let &weight = self
            .body
            .get(self.at)
            .ok_or_else(|| bad("truncated record"))?;
        self.at += 1;
        let slots = self.varint()?;
        if slots > (self.body.len() - self.at) as u64 {
            return Err(bad("slot count exceeds the bytes left"));
        }
        self.prev = [oid, offset.wrapping_add(size)];
        Ok(([oid, offset, size], weight, slots as usize))
    }

    /// The next slot of the record [`Reader::head`] read last, in a body
    /// [`check`] passed, where every slot reads.
    #[inline]
    fn slot(&mut self) -> Slot {
        let word = self.varint().unwrap_or(0);
        let target = word
            .checked_sub(1)
            .map(|z| self.prev[0].wrapping_add(unzigzag(z)));
        Slot::from(target.map(Oid))
    }
}

/// Checks that `body` is `count` records and nothing else; returns the sum
/// of their sizes, for the header's `live_bytes`.
pub(super) fn check(body: &[u8], count: u32) -> Result<u128> {
    if count as usize > body.len() / MIN_RECORD_BYTES {
        return Err(bad("record count exceeds the bytes present"));
    }
    let mut reader = Reader::new(body);
    let mut live = 0u128;
    for _ in 0..count {
        let ([_, _, size], _, slots) = reader.head()?;
        live += u128::from(size);
        for _ in 0..slots {
            reader.varint()?;
        }
    }
    if reader.at != body.len() {
        return Err(bad("bytes after the last record"));
    }
    Ok(live)
}

/// The `count` records of `body`, a body [`check`] passed, as the database
/// holds them in `partition`. Allocates nothing for a record of up to two
/// slots.
pub(super) fn decode(
    body: &[u8],
    count: u32,
    partition: PartitionId,
) -> impl Iterator<Item = (Oid, ObjectRecord)> + '_ {
    let mut reader = Reader::new(body);
    (0..count).map_while(move |_| {
        let ([oid, offset, size], weight, slots) = reader.head().ok()?;
        let record = ObjectRecord {
            addr: ObjAddr::new(partition, offset),
            size: Bytes(size),
            slots: (0..slots).map(|_| reader.slot()).collect(),
            weight,
        };
        Some((Oid(oid), record))
    })
}

#[cfg(test)]
mod tests {
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
                let slots = (0..rng.below(41)).map(|_| slot(rng));
                // No slot holds `u64::MAX` (the null) or the oid 2^63 away.
                let slots = slots.map(|s| s.filter(|&t| t != u64::MAX && t != oid ^ 1 << 63));
                let record = ObjectRecord {
                    addr: ObjAddr::new(PartitionId(p), offset),
                    size: Bytes(size),
                    slots: slots.map(|s| Slot::from(s.map(Oid))).collect(),
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
            let read: Vec<_> = image.records().collect();
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

    #[test]
    fn hostile_varints_and_counts_are_errors() {
        let record = |slots: &[u8]| [&[2, 0, 100, 1][..], slots].concat();
        let cases: [(&str, Vec<u8>, u32, &str); 7] = [
            (
                "an 11-byte varint",
                [&[0x80; 10][..], &[0, 0, 0, 1, 0]].concat(),
                1,
                "longer",
            ),
            (
                "a 10th byte of 2",
                [&[0xff; 9][..], &[2, 0, 0, 1, 0]].concat(),
                1,
                "past u64",
            ),
            (
                "a cut inside a varint",
                vec![0, 0, 0x80, 0x80, 0x80],
                1,
                "truncated",
            ),
            ("a cut inside a slot", record(&[1, 0x81]), 1, "truncated"),
            (
                "a slot count past the bytes left",
                record(&[3, 1, 1]),
                1,
                "slot count",
            ),
            (
                "a record count past body/5",
                record(&[0; 5]),
                2,
                "record count",
            ),
            (
                "bytes after the last record",
                record(&[1, 1, 0]),
                1,
                "after the last",
            ),
        ];
        for (what, body, count, why) in cases {
            let err = check(&body, count).expect_err(what).to_string();
            assert!(err.contains(why), "{what}: {err}");
        }

        // Ten bytes reach `u64::MAX` exactly; the bodies above, cut one byte
        // short, are just as much errors.
        let widest = [&[0xff; 9][..], &[1, 0, 0, 7, 1, 1]].concat();
        assert_eq!(check(&widest, 1).expect("ten bytes"), 0);
        let read: Vec<_> = decode(&widest, 1, PartitionId(3)).collect();
        let [(oid, rec)] = &read[..] else {
            panic!("one record, read {read:?}")
        };
        assert_eq!(
            (oid.index(), rec.addr.offset, rec.weight),
            (u64::MAX >> 1 ^ u64::MAX, 0, 7)
        );
    }
}
