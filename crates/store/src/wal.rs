//! Crash-aware file plumbing: the append-only log file and the atomic
//! (write-temp → fsync → rename) snapshot protocol.
//!
//! Every byte headed for disk passes through a
//! [`jitise_faults::CrashSwitch`]: when the configured write budget runs
//! dry the write is cut at that exact byte boundary and the file marked
//! dead — precisely the state a killed process leaves behind. The
//! recovery scanner in `lib.rs` then has to cope with whatever prefix
//! made it to the platters, which is the property the `pipeline` bench
//! topic's crash section sweeps.

use jitise_base::{Error, Result};
use jitise_faults::CrashSwitch;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Writes as much of `bytes` as the crash switch admits, with one write.
/// Returns how many bytes were admitted; a short count is the simulated
/// crash, whose admitted prefix the caller still syncs.
fn write_admitted(file: &mut File, bytes: &[u8], crash: &CrashSwitch) -> Result<usize> {
    let admitted = crash.admit(bytes.len());
    if admitted > 0 {
        file.write_all(&bytes[..admitted])
            .map_err(|e| Error::Store(format!("write failed: {e}")))?;
    }
    Ok(admitted)
}

/// The error of a write the crash switch cut after `admitted` of `len`
/// bytes.
pub(crate) fn crashed(admitted: usize, len: usize) -> Error {
    Error::Store(format!("simulated crash after {admitted} of {len} bytes"))
}

/// The append-only log file.
#[derive(Debug)]
pub(crate) struct LogFile {
    file: File,
    /// Bytes written and synced.
    len: u64,
    /// Once a write was cut short the file is dead: the real process
    /// would be gone, so no further bytes may land.
    dead: bool,
}

impl LogFile {
    /// Opens `path` for appending, truncating it to `committed` bytes
    /// first (recovery discards any torn/corrupt tail it scanned past).
    pub fn open_at(path: &Path, committed: u64) -> Result<LogFile> {
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)
            .map_err(|e| Error::Store(format!("open {}: {e}", path.display())))?;
        file.set_len(committed)
            .map_err(|e| Error::Store(format!("truncate {}: {e}", path.display())))?;
        Ok(LogFile {
            file,
            len: committed,
            dead: false,
        })
    }

    /// Appends `bytes` (a group of framed records) with one write and one
    /// sync, honoring the crash switch. Returns how many bytes the switch
    /// admitted: a short count is a crash, and the log is dead from then
    /// on.
    pub fn append(&mut self, bytes: &[u8], crash: &CrashSwitch, syncs: &mut u64) -> Result<usize> {
        if self.dead {
            return Err(Error::Store("store is dead after a crash".into()));
        }
        let admitted = write_admitted(&mut self.file, bytes, crash).and_then(|n| {
            *syncs += 1;
            self.file
                .sync_data()
                .map_err(|e| Error::Store(format!("fsync failed: {e}")))?;
            Ok(n)
        });
        self.dead = !matches!(admitted, Ok(n) if n == bytes.len());
        if let Ok(n) = admitted {
            self.len += n as u64;
        }
        admitted
    }

    /// [`LogFile::append`] of bytes that commit only whole (a header
    /// frame): a short write is an error.
    pub fn append_whole(
        &mut self,
        bytes: &[u8],
        crash: &CrashSwitch,
        syncs: &mut u64,
    ) -> Result<()> {
        match self.append(bytes, crash, syncs)? {
            n if n < bytes.len() => Err(crashed(n, bytes.len())),
            _ => Ok(()),
        }
    }

    /// Bytes in the log.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True once a crash killed this file.
    pub fn is_dead(&self) -> bool {
        self.dead
    }
}

/// Atomically replaces `dir/name` with `bytes`: write `name.tmp`, sync it
/// once, rename over the target, sync the directory. A crash at any byte
/// boundary leaves either the old file (tmp torn or complete but not yet
/// renamed) or the new one — never a half-written target. Every sync
/// issued is counted in `syncs`.
pub(crate) fn write_atomic(
    dir: &Path,
    name: &str,
    bytes: &[u8],
    crash: &CrashSwitch,
    syncs: &mut u64,
) -> Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    let target = dir.join(name);
    let mut file =
        File::create(&tmp).map_err(|e| Error::Store(format!("create {}: {e}", tmp.display())))?;
    let admitted = write_admitted(&mut file, bytes, crash)?;
    *syncs += 1;
    file.sync_all()
        .map_err(|e| Error::Store(format!("fsync {}: {e}", tmp.display())))?;
    if admitted < bytes.len() {
        return Err(crashed(admitted, bytes.len()));
    }
    drop(file);
    // The rename is the commit point. Model it as a one-byte "write" so a
    // crash budget landing between the data and the rename leaves the old
    // file in place, exactly like a kill between write() and rename().
    if crash.admit(1) < 1 {
        return Err(Error::Store("simulated crash before rename".into()));
    }
    std::fs::rename(&tmp, &target)
        .map_err(|e| Error::Store(format!("rename {}: {e}", target.display())))?;
    if let Ok(d) = File::open(dir) {
        *syncs += 1;
        let _ = d.sync_all(); // best-effort directory durability
    }
    Ok(())
}

/// Removes leftover `.tmp` files from a previous crashed compaction.
pub(crate) fn sweep_tmp(dir: &Path) {
    let Ok(read) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in read.flatten() {
        let path: PathBuf = entry.path();
        if path.extension().map(|e| e == "tmp").unwrap_or(false) {
            let _ = std::fs::remove_file(&path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;
    use jitise_faults::StoreCrash;

    #[test]
    fn log_append_accumulates_and_survives_reopen() {
        let dir = TempDir::new("wal-append");
        let path = dir.path().join("log");
        let mut log = LogFile::open_at(&path, 0).unwrap();
        let mut syncs = 0;
        log.append(b"hello", &CrashSwitch::disabled(), &mut syncs)
            .unwrap();
        log.append(b" world", &CrashSwitch::disabled(), &mut syncs)
            .unwrap();
        assert_eq!(log.len(), 11);
        assert_eq!(syncs, 2, "one sync per append");
        drop(log);
        assert_eq!(std::fs::read(&path).unwrap(), b"hello world");
        // Reopen at a shorter committed length: the tail is discarded.
        let log = LogFile::open_at(&path, 5).unwrap();
        assert_eq!(log.len(), 5);
        drop(log);
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
    }

    #[test]
    fn crashed_append_persists_exact_prefix_and_kills_the_log() {
        let dir = TempDir::new("wal-crash");
        let path = dir.path().join("log");
        let mut log = LogFile::open_at(&path, 0).unwrap();
        let crash = CrashSwitch::armed(StoreCrash { after_bytes: 7 });
        let mut syncs = 0;
        assert_eq!(log.append(b"0123", &crash, &mut syncs).unwrap(), 4);
        assert_eq!(
            log.append(b"456789", &crash, &mut syncs).unwrap(),
            3,
            "the switch reports the admitted prefix"
        );
        assert!(log.is_dead());
        assert!(
            log.append(b"x", &crash, &mut syncs).is_err(),
            "dead log stays dead"
        );
        assert_eq!(syncs, 2, "a dead log issues no sync");
        drop(log);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"0123456",
            "exactly the 7-byte budget reached the file"
        );
    }

    #[test]
    fn write_atomic_is_all_or_nothing_at_every_crash_point() {
        let dir = TempDir::new("wal-atomic");
        std::fs::write(dir.path().join("snap"), b"OLD").unwrap();
        let payload = b"NEW-SNAPSHOT-BYTES";
        // +1 for the modeled rename commit byte.
        for budget in 0..=payload.len() as u64 + 1 {
            let crash = CrashSwitch::armed(StoreCrash {
                after_bytes: budget,
            });
            let mut syncs = 0;
            let result = write_atomic(dir.path(), "snap", payload, &crash, &mut syncs);
            let on_disk = std::fs::read(dir.path().join("snap")).unwrap();
            if result.is_ok() {
                assert_eq!(on_disk, payload, "budget {budget}");
                assert_eq!(
                    syncs, 2,
                    "one sync for the temp file, one for the directory"
                );
                // Restore the old file for the next sweep point.
                std::fs::write(dir.path().join("snap"), b"OLD").unwrap();
            } else {
                assert_eq!(on_disk, b"OLD", "budget {budget}: old file intact");
            }
        }
        sweep_tmp(dir.path());
        assert!(!dir.path().join("snap.tmp").exists());
    }
}
