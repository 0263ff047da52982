//! CRC-32 (IEEE 802.3 polynomial, the zlib/pippin checksum) in four
//! interleaved slice-by-8 lanes.
//!
//! Slice-by-8 folds eight bytes into the register per step through eight
//! derived tables, but each step waits for the register of the last one.
//! [`Crc32::update`] therefore cuts its input into rounds of four
//! consecutive `LANE`-byte stretches `A‖B‖C‖D` and runs one independent
//! chain per stretch, `a` from the running register and `b`, `c`, `d` from
//! zero, so the core overlaps them. CRC is linear: four more table rows,
//! which advance a register over `LANE` zero bytes (multiply it by
//! x^(8·LANE) mod P), join the chains as
//! `crc(A‖B‖C‖D) = adv(adv(adv(a) ^ b) ^ c) ^ d`. Bytes after the last
//! whole round take the plain slice-by-8 step.
//!
//! It is the same function as a bytewise chain, so every stored checksum is
//! what it always was.

/// Bytes per lane: a round checksums four lanes, `4 * LANE` bytes.
const LANE: usize = 256;

/// Row `k < 8` takes the register `b` over `k + 1` zero bytes: the
/// slice-by-8 tables. Row `8 + k` takes the register `b << 8k` over `LANE`
/// zero bytes, which is `b` over `LANE - k` of them: the lane joins.
const fn make_tables() -> [[u32; 256]; 12] {
    let mut tables = [[0u32; 256]; 12];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut b = 0;
    while b < 256 {
        let mut crc = tables[0][b];
        let mut n = 2;
        while n <= LANE {
            // `b` over `n` zero bytes.
            crc = (crc >> 8) ^ tables[0][(crc & 0xFF) as usize];
            if n <= 8 {
                tables[n - 1][b] = crc;
            }
            if n + 4 > LANE {
                tables[8 + LANE - n][b] = crc;
            }
            n += 1;
        }
        b += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 12] = make_tables();

/// One slice-by-8 step: `crc` over the eight bytes `c`.
#[inline(always)]
fn step(crc: u32, c: &[u8]) -> u32 {
    let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
    let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
    TABLES[7][(lo & 0xFF) as usize]
        ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
        ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
        ^ TABLES[4][(lo >> 24) as usize]
        ^ TABLES[3][(hi & 0xFF) as usize]
        ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
        ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
        ^ TABLES[0][(hi >> 24) as usize]
}

/// `crc` moved over `LANE` zero bytes.
fn advance(crc: u32) -> u32 {
    let [b0, b1, b2, b3] = crc.to_le_bytes().map(usize::from);
    TABLES[8][b0] ^ TABLES[9][b1] ^ TABLES[10][b2] ^ TABLES[11][b3]
}

/// Streaming CRC-32 state: feed bytes with [`Crc32::update`], close with
/// [`Crc32::finish`]. Lets the log writer checksum a frame scattered
/// across several slices without assembling a contiguous copy.
pub(crate) struct Crc32(u32);

impl Crc32 {
    pub(crate) fn new() -> Self {
        Self(0xFFFF_FFFF)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.0;
        let mut rounds = bytes.chunks_exact(4 * LANE);
        for round in &mut rounds {
            let (ab, cd) = round.split_at(2 * LANE);
            let ((a, b), (c, d)) = (ab.split_at(LANE), cd.split_at(LANE));
            let [mut a_crc, mut b_crc, mut c_crc, mut d_crc] = [crc, 0, 0, 0];
            let words = a.chunks_exact(8).zip(b.chunks_exact(8));
            for ((a, b), (c, d)) in words.zip(c.chunks_exact(8).zip(d.chunks_exact(8))) {
                (a_crc, b_crc) = (step(a_crc, a), step(b_crc, b));
                (c_crc, d_crc) = (step(c_crc, c), step(d_crc, d));
            }
            crc = advance(advance(advance(a_crc) ^ b_crc) ^ c_crc) ^ d_crc;
        }
        let mut words = rounds.remainder().chunks_exact(8);
        for c in &mut words {
            crc = step(crc, c);
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.0 = crc;
    }

    pub(crate) fn finish(self) -> u32 {
        !self.0
    }
}

/// CRC-32 of `bytes` in one shot.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition: one table, one byte at a time.
    fn bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(0xFFFF_FFFF, |crc: u32, &b| {
            (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize]
        })
    }

    /// `len` bytes of a xorshift64 stream.
    fn xorshift(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            out.extend_from_slice(&x.to_le_bytes());
        }
        out.truncate(len);
        out
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn equals_the_bytewise_definition_at_every_length_and_boundary() {
        let data = xorshift(3 * 4 * LANE + 7);
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "length {len}");
        }
        // Around every lane and round boundary of a longer buffer.
        let data = xorshift(8 * 4 * LANE + 16);
        for edge in (LANE..data.len()).step_by(LANE) {
            for len in [edge - 1, edge, edge + 1] {
                assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "length {len}");
            }
        }
    }

    /// The CRC of a fixed 1 MiB buffer, taken from the slice-by-8 kernel
    /// before the lanes: a kernel that changes any stored checksum fails
    /// here, not in a recovery.
    #[test]
    fn pinned_one_mib_value() {
        assert_eq!(crc32(&xorshift(1 << 20)), PINNED);
    }
    const PINNED: u32 = 0x6653_10DF;

    #[test]
    fn sensitive_to_single_bit_flips() {
        let a = crc32(b"partition snapshot");
        let mut flipped = b"partition snapshot".to_vec();
        flipped[3] ^= 0x01;
        assert_ne!(a, crc32(&flipped));
    }

    #[test]
    fn streaming_matches_one_shot_at_every_split() {
        let data = xorshift(2 * 4 * LANE + 203);
        let whole = crc32(&data);
        for split in 0..=data.len() {
            let mut crc = Crc32::new();
            crc.update(&data[..split]);
            crc.update(&data[split..]);
            assert_eq!(crc.finish(), whole, "split at {split}");
        }
    }
}
