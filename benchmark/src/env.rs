//! Process clocks, peak memory and machine description, read through
//! libc calls that `std` already links (no extra crate, no file reads).
//! Linux on a 64-bit target: the struct layouts below are those of the
//! x86_64 and aarch64 Linux ABIs.

use crate::report::Env;
use std::ffi::{c_char, c_int, c_long, CStr};
use std::path::Path;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

/// `struct rusage`: two `timeval`s then fourteen `long`s, the first of
/// which is `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: c_long,
    rest: [c_long; 13],
}

/// `struct utsname`: six 65-byte fields.
#[repr(C)]
struct Utsname {
    fields: [[c_char; 65]; 6],
}

/// `struct statfs` is 120 bytes on 64-bit Linux with `f_type` first;
/// the buffer is rounded up.
#[repr(C)]
struct Statfs {
    f_type: c_long,
    rest: [c_long; 15],
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn uname(buf: *mut Utsname) -> c_int;
    fn statfs(path: *const c_char, buf: *mut Statfs) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const RUSAGE_SELF: c_int = 0;

/// CPU time consumed by every thread of this process, in seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let mut ru = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` has the size and layout of `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    ru.maxrss as f64 / 1024.0
}

fn kernel() -> String {
    let mut u = Utsname {
        fields: [[0; 65]; 6],
    };
    // SAFETY: `u` has the size and layout of `struct utsname`.
    if unsafe { uname(&mut u) } != 0 {
        return "unknown".into();
    }
    let field = |i: usize| {
        // SAFETY: uname NUL-terminates every field within its 65 bytes.
        unsafe { CStr::from_ptr(u.fields[i].as_ptr()) }
            .to_string_lossy()
            .into_owned()
    };
    format!("{} {}", field(0), field(2))
}

/// File system type of `dir` (where the stores' WALs are fsynced).
fn fs_type(dir: &Path) -> String {
    let Ok(path) = std::ffi::CString::new(dir.as_os_str().as_encoded_bytes()) else {
        return "unknown".into();
    };
    let mut buf = Statfs {
        f_type: 0,
        rest: [0; 15],
    };
    // SAFETY: `path` is NUL-terminated and `buf` is at least as large as
    // `struct statfs`.
    if unsafe { statfs(path.as_ptr(), &mut buf) } != 0 {
        return "unknown".into();
    }
    match buf.f_type as u32 {
        0x0102_1994 => "tmpfs".into(),
        0xEF53 => "ext4".into(),
        0x5846_5342 => "xfs".into(),
        0x9123_683E => "btrfs".into(),
        0x794C_7630 => "overlayfs".into(),
        0x6969 => "nfs".into(),
        other => format!("0x{other:x}"),
    }
}

#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // SAFETY: `cpuid` exists on every x86_64 CPU; the brand-string leaves
    // are only queried when the extended maximum leaf reports them.
    #[allow(unused_unsafe)]
    let brand = unsafe {
        if __cpuid(0x8000_0000).eax < 0x8000_0004 {
            return "unknown x86_64".into();
        }
        let mut bytes = Vec::with_capacity(48);
        for leaf in 0x8000_0002u32..=0x8000_0004 {
            let r = __cpuid(leaf);
            for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                bytes.extend_from_slice(&reg.to_le_bytes());
            }
        }
        bytes
    };
    let end = brand.iter().position(|&b| b == 0).unwrap_or(brand.len());
    String::from_utf8_lossy(&brand[..end]).trim().to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    std::env::consts::ARCH.to_string()
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Describes the machine; `store_dir` must exist.
pub fn capture(store_dir: &Path) -> Env {
    Env {
        nproc: nproc(),
        cpu: cpu_model(),
        kernel: kernel(),
        store_fs: fs_type(store_dir),
    }
}
