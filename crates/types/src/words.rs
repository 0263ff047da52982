//! Saved state as `u64` words: the run image's vocabulary.
//!
//! Every layer that holds state a snapshot generation must carry (the
//! database's bookkeeping, a policy's score tables, the telemetry
//! accumulators) appends it to a `Vec<u64>` with plain `push`es and the
//! two helpers here, and reads it back through [`Words`]. The words come
//! from a file, so every read is bounds-checked and every count is held
//! against the words left before anything is sized by it: a lie is an
//! `Err`, never a panic or an allocation.

use crate::error::{PgcError, Result};

/// Appends `value` as a presence flag and, when present, the value.
pub fn put_opt(out: &mut Vec<u64>, value: Option<u64>) {
    match value {
        Some(v) => out.extend([1, v]),
        None => out.push(0),
    }
}

/// Appends `s` as its byte length and its bytes, eight to a word.
pub fn put_str(out: &mut Vec<u64>, s: &str) {
    out.push(s.len() as u64);
    out.extend(s.as_bytes().chunks(8).map(|chunk| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        u64::from_le_bytes(word)
    }));
}

/// A bounds-checked cursor over saved words.
#[derive(Debug, Clone)]
pub struct Words<'a> {
    words: &'a [u64],
}

fn bad(what: &str) -> PgcError {
    PgcError::TraceFormat(format!("run image: {what}"))
}

impl<'a> Words<'a> {
    /// A cursor at the first of `words`.
    pub fn new(words: &'a [u64]) -> Self {
        Self { words }
    }

    /// The next word.
    pub fn word(&mut self) -> Result<u64> {
        let (&first, rest) = self.words.split_first().ok_or_else(|| bad("truncated"))?;
        self.words = rest;
        Ok(first)
    }

    /// The next word, which must fit a `u32`.
    pub fn word_u32(&mut self) -> Result<u32> {
        u32::try_from(self.word()?).map_err(|_| bad("a 32-bit field out of range"))
    }

    /// The next word, which must not exceed `bound`: a counter the caller
    /// knows the most a run could have taken it to.
    pub fn at_most(&mut self, bound: u64) -> Result<u64> {
        let n = self.word()?;
        if n > bound {
            return Err(bad("a counter past what the run could reach"));
        }
        Ok(n)
    }

    /// The next word, which must be 0 or 1.
    pub fn flag(&mut self) -> Result<bool> {
        match self.word()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(bad("a flag is neither 0 nor 1")),
        }
    }

    /// A count of items that take at least one word each: never more than
    /// the words left, so a `Vec` sized by it is bounded by the image.
    pub fn count(&mut self) -> Result<usize> {
        let n = self.word()?;
        if n > self.words.len() as u64 {
            return Err(bad("a count exceeds the words present"));
        }
        Ok(n as usize)
    }

    /// The next `n` words.
    pub fn take(&mut self, n: usize) -> Result<&'a [u64]> {
        if n > self.words.len() {
            return Err(bad("truncated"));
        }
        let (taken, rest) = self.words.split_at(n);
        self.words = rest;
        Ok(taken)
    }

    /// What [`put_opt`] wrote.
    pub fn opt(&mut self) -> Result<Option<u64>> {
        Ok(if self.flag()? {
            Some(self.word()?)
        } else {
            None
        })
    }

    /// What [`put_str`] wrote.
    pub fn string(&mut self) -> Result<String> {
        let len = self.word()?;
        let words = self.take(len.div_ceil(8).try_into().map_err(|_| bad("truncated"))?)?;
        let bytes: Vec<u8> = words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .take(len as usize)
            .collect();
        String::from_utf8(bytes).map_err(|_| bad("a name is not UTF-8"))
    }

    /// Succeeds only when every word has been read: state that outlasts
    /// its reader was written by some other layout.
    pub fn finish(self) -> Result<()> {
        if self.words.is_empty() {
            Ok(())
        } else {
            Err(bad("trailing words"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn what_is_put_reads_back_and_nothing_more() {
        let mut out = vec![7];
        put_opt(&mut out, Some(9));
        put_opt(&mut out, None);
        put_str(&mut out, "UpdatedPointer");
        put_str(&mut out, "");
        let mut words = Words::new(&out);
        assert_eq!(words.word().unwrap(), 7);
        assert_eq!(words.opt().unwrap(), Some(9));
        assert_eq!(words.opt().unwrap(), None);
        assert_eq!(words.string().unwrap(), "UpdatedPointer");
        assert_eq!(words.string().unwrap(), "");
        words.clone().finish().unwrap();
        assert!(words.word().is_err());
    }

    #[test]
    fn lies_are_errors() {
        assert!(Words::new(&[u64::MAX]).count().is_err());
        assert!(Words::new(&[2, 0]).count().is_err());
        assert_eq!(Words::new(&[1, 0]).count().unwrap(), 1);
        assert!(Words::new(&[u64::MAX]).string().is_err());
        assert!(Words::new(&[2]).flag().is_err());
        assert!(Words::new(&[1 << 32]).word_u32().is_err());
        assert!(Words::new(&[1]).take(2).is_err());
        assert!(Words::new(&[1]).finish().is_err());
        let mut bad_utf8 = Vec::new();
        bad_utf8.extend([1, 0xFF]);
        assert!(Words::new(&bad_utf8).string().is_err());
    }
}
