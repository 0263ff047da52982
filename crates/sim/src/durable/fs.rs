//! The one module in `durable` that writes the disk: every file a data
//! directory holds is created, written, flushed, synced, renamed or removed
//! here (`crates/sim/clippy.toml` refuses std's write-side calls elsewhere).
//! Reads stay with the parsers. [`replace`] is the one temp-sync-rename,
//! by which the manifest and every generation land; an [`Appender`] writes
//! a log segment, and [`sync`] syncs one from the I/O thread.
//!
//! In unit tests every operation also appends its thread, kind, path and
//! bytes to one op log (`tests::ops`): a test asserts the write order on it
//! and rebuilds every state a process kill can leave (`tests::state_at`).

#![allow(clippy::disallowed_methods)]

use super::io_err;
use pgc_types::Result;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Appends `_op` on `_path` with the calling thread and `_bytes` (a write's
/// buffer, a rename's source) to the op log tests read; else nothing.
fn note(_op: &'static str, _path: &Path, _bytes: &[u8]) {
    #[cfg(test)]
    tests::push(_op, _path, _bytes);
}

/// Creates `dir` and any parent it lacks.
pub(super) fn create_dir_all(dir: &Path) -> Result<()> {
    note("create_dir", dir, &[]);
    fs::create_dir_all(dir).map_err(io_err(dir))
}

/// Replaces `dir/name` with `bytes`: writes them to `name.tmp`, syncs it
/// and renames it into place, so the name only ever holds a whole file
/// whose bytes reached the disk first.
pub(super) fn replace(dir: &Path, name: &str, bytes: &[u8]) -> Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    let mut file = Appender::create(tmp.clone(), 0)?;
    file.write(bytes)?;
    file.sync()?;
    drop(file);
    let path = dir.join(name);
    note("rename", &path, tmp.as_os_str().as_encoded_bytes());
    fs::rename(&tmp, &path).map_err(io_err(&path))
}

/// Removes the file at `path`.
pub(super) fn remove(path: &Path) -> Result<()> {
    note("remove", path, &[]);
    fs::remove_file(path).map_err(io_err(path))
}

/// Syncs the file at `path`: a segment the run thread appends to, synced
/// from another thread. Opened for writing, because Windows refuses to
/// flush a read-only handle.
pub(super) fn sync(path: &Path) -> Result<()> {
    note("sync", path, &[]);
    let file = OpenOptions::new().write(true).open(path);
    file.and_then(|f| f.sync_data()).map_err(io_err(path))
}

/// A file written front to back, through a write buffer when it has one.
pub(super) struct Appender {
    path: PathBuf,
    out: BufWriter<File>,
}

impl Appender {
    /// Creates the file at `path`, truncating any file there, behind a
    /// write buffer of `buffer` bytes (none for 0).
    pub(super) fn create(path: PathBuf, buffer: usize) -> Result<Self> {
        note("create", &path, &[]);
        let file = File::create(&path).map_err(io_err(&path))?;
        let out = BufWriter::with_capacity(buffer, file);
        Ok(Self { path, out })
    }

    pub(super) fn path(&self) -> &Path {
        &self.path
    }

    /// Appends `bytes` to the buffer (which writes to the OS when full).
    pub(super) fn write(&mut self, bytes: &[u8]) -> Result<()> {
        note("write", &self.path, bytes);
        self.out.write_all(bytes).map_err(io_err(&self.path))
    }

    /// Hands everything buffered to the OS: from here on it survives a
    /// process kill.
    pub(super) fn flush(&mut self) -> Result<()> {
        note("flush", &self.path, &[]);
        self.out.flush().map_err(io_err(&self.path))
    }

    /// Flushes, then syncs the file's bytes to the disk.
    pub(super) fn sync(&mut self) -> Result<()> {
        self.flush()?;
        note("sync", &self.path, &[]);
        self.out.get_ref().sync_data().map_err(io_err(&self.path))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use crate::durable::ScratchDir;
    use pgc_types::fast_hash_u64;
    use std::collections::BTreeMap;
    use std::fs;
    use std::path::{Path, PathBuf};
    use std::sync::Mutex;
    use std::thread;

    /// One operation of [`super`], as the op log holds it.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub(crate) struct Op {
        /// Issued on the store's `pgc-durable-io` thread, not the run's.
        pub(crate) io: bool,
        /// `create_dir`, `create`, `write`, `flush`, `sync`, `rename` (the
        /// path is the new name) or `remove`.
        pub(crate) kind: &'static str,
        pub(crate) path: PathBuf,
        /// A `write`'s bytes, a `rename`'s source path
        /// (`OsStr::as_encoded_bytes`); empty for every other kind.
        pub(crate) bytes: Vec<u8>,
    }

    /// Every operation of every test, in the order they were issued.
    static OPS: Mutex<Vec<Op>> = Mutex::new(Vec::new());

    pub(super) fn push(kind: &'static str, path: &Path, bytes: &[u8]) {
        let io = thread::current().name() == Some("pgc-durable-io");
        let op = Op {
            io,
            kind,
            path: path.to_path_buf(),
            bytes: bytes.to_vec(),
        };
        OPS.lock().unwrap_or_else(|e| e.into_inner()).push(op);
    }

    /// The operations on files directly under `dir`, in order.
    pub(crate) fn ops(dir: &Path) -> Vec<Op> {
        let ops = OPS.lock().unwrap_or_else(|e| e.into_inner());
        let under = |op: &&Op| op.path.parent() == Some(dir);
        ops.iter().filter(under).cloned().collect()
    }

    /// A fresh directory holding what a process kill right after `ops[..k]`
    /// can leave of their files. `create` starts an empty file, `write`
    /// appends to its write buffer, `flush` hands the buffer to the OS,
    /// `rename` moves the file and `remove` drops it; a `sync` changes
    /// nothing a kill can see (`Appender::sync` notes its flush first).
    /// Each file keeps what reached the OS and, when `tear`, a prefix of
    /// its buffer cut by `seed`: a buffer that spilled before its flush.
    /// Every op is noted before its syscall, so these states are a superset
    /// of what a kill leaves.
    pub(crate) fn state_at(ops: &[Op], k: usize, tear: bool, seed: u64) -> ScratchDir {
        // Each file by path: the op that named it last, every byte written
        // to it, and how many of them reached the OS.
        let mut files = BTreeMap::new();
        for op in &ops[..k] {
            let key = op.path.as_os_str().as_encoded_bytes();
            match op.kind {
                "create" => drop(files.insert(key, (op, Vec::new(), 0))),
                "write" => files.get_mut(key).unwrap().1.extend(&op.bytes),
                "flush" => {
                    let (_, bytes, flushed) = files.get_mut(key).unwrap();
                    *flushed = bytes.len();
                }
                "rename" => {
                    let (_, bytes, flushed) = files.remove(&op.bytes[..]).unwrap();
                    files.insert(key, (op, bytes, flushed));
                }
                "remove" => drop(files.remove(key)),
                _ => {}
            }
        }
        let state = ScratchDir::new("state");
        for (i, (named, bytes, flushed)) in files.into_values().enumerate() {
            let buffered = bytes.len() - flushed;
            let spill = fast_hash_u64(seed ^ fast_hash_u64(i as u64)) as usize % (buffered + 1);
            let kept = flushed + if tear { spill } else { 0 };
            let name = named.path.file_name().unwrap();
            fs::write(state.join(name), &bytes[..kept]).unwrap();
        }
        state
    }
}
