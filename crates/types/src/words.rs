//! Saved state as `u64` words: the run image's vocabulary.
//!
//! Every layer that holds state a snapshot generation must carry (the
//! database's bookkeeping, a policy's score tables, the telemetry
//! accumulators) appends it to a `Vec<u64>` with plain `push`es and
//! [`put_opt`], and reads it back through [`Words`]. The words come
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
        let mut words = Words::new(&out);
        assert_eq!(words.word().unwrap(), 7);
        assert_eq!(words.opt().unwrap(), Some(9));
        assert_eq!(words.opt().unwrap(), None);
        words.clone().finish().unwrap();
        assert!(words.word().is_err());
    }

    #[test]
    fn lies_are_errors() {
        assert!(Words::new(&[u64::MAX]).count().is_err());
        assert!(Words::new(&[2, 0]).count().is_err());
        assert_eq!(Words::new(&[1, 0]).count().unwrap(), 1);
        assert!(Words::new(&[2]).flag().is_err());
        assert!(Words::new(&[1 << 32]).word_u32().is_err());
        assert!(Words::new(&[1]).take(2).is_err());
        assert!(Words::new(&[1]).finish().is_err());
    }
}
