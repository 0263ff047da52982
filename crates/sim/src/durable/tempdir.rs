//! A self-cleaning scratch directory (no external `tempfile` dependency),
//! outside the `fs` seam: it writes no data directory's files.

#![allow(clippy::disallowed_methods)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::{env, fs, process};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A directory under the system temp root that is removed (recursively) on
/// drop. Used by tests, benches, and the recovery smoke tooling so no run
/// leaves litter behind.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `"$TMPDIR/pgc-<label>-<pid>-<seq>"`.
    ///
    /// # Panics
    /// Panics if the directory cannot be created (tests want loud failure,
    /// not a silently shared path).
    pub fn new(label: &str) -> Self {
        let seq = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = env::temp_dir().join(format!("pgc-{label}-{}-{seq}", process::id()));
        fs::create_dir_all(&path).expect("create scratch dir");
        Self { path }
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A path inside the directory.
    pub fn join(&self, rel: impl AsRef<Path>) -> PathBuf {
        self.path.join(rel)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dirs_are_distinct_and_cleaned_up() {
        let a = ScratchDir::new("t");
        let b = ScratchDir::new("t");
        assert_ne!(a.path(), b.path());
        let kept = a.path().to_path_buf();
        fs::write(a.join("f"), b"x").unwrap();
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().exists());
    }
}
