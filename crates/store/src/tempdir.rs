//! A tiny scoped temporary-directory helper for tests, property tests,
//! and the `bench` topics' stores, such as the `pipeline` topic's chaos
//! and crash sections (kept here so no external `tempfile` dependency is
//! needed). Directories live under the OS temp dir — never
//! inside the repository — and are removed on drop, which is what the CI
//! tmpdir-hygiene check relies on.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A uniquely named directory under [`std::env::temp_dir`], deleted when
/// the value drops.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `jitise-store-<tag>-<pid>-<n>` under the OS temp dir,
    /// clearing any stale leftover of the same name first.
    pub fn new(tag: &str) -> TempDir {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "jitise-store-{tag}-{pid}-{n}",
            pid = std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
