//! Raw Linux bindings the benchmark needs and `std` does not offer: CPU
//! affinity, process/thread CPU clocks, `getrusage`, and a counting
//! global allocator. There is no `libc` crate offline, so the symbols are
//! declared by hand (as `psc-service::reactor::sys` does); all unsafe code
//! of the benchmark lives in this file.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const RUSAGE_SELF: i32 = 0;
/// Words in the kernel's `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// The kernel's `struct rusage` on 64-bit Linux: two `timeval`s followed
/// by fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    ru_ixrss: i64,
    ru_idrss: i64,
    ru_isrss: i64,
    ru_minflt: i64,
    ru_majflt: i64,
    ru_nswap: i64,
    ru_inblock: i64,
    ru_oublock: i64,
    ru_msgsnd: i64,
    ru_msgrcv: i64,
    ru_nsignals: i64,
    ru_nvcsw: i64,
    ru_nivcsw: i64,
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Pins the calling thread — and every thread it later spawns, which
/// inherit the mask — to the highest-numbered CPU it is allowed to run
/// on. Must be called before any server thread starts. Returns that CPU.
pub fn pin_to_last_allowed_cpu() -> io::Result<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a valid, writable buffer of the size passed; pid 0
    // names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or_else(|| io::Error::other("empty CPU affinity mask"))?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a valid buffer of the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

fn clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec; both clock ids exist on
    // every Linux this program builds for.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by every thread of this process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// `(voluntary, involuntary)` context switches of the whole process.
pub fn context_switches() -> (u64, u64) {
    // SAFETY: an all-zero `Rusage` is a valid value of the plain-integer
    // struct, and the pointer passed is valid and writable.
    let usage = unsafe {
        let mut usage: Rusage = std::mem::zeroed();
        let rc = getrusage(RUSAGE_SELF, &mut usage);
        assert_eq!(rc, 0, "getrusage failed");
        usage
    };
    (usage.ru_nvcsw as u64, usage.ru_nivcsw as u64)
}

/// The process's peak resident set in MB (`ru_maxrss` is in KiB).
pub fn peak_rss_mb() -> f64 {
    // SAFETY: as in `context_switches`.
    let usage = unsafe {
        let mut usage: Rusage = std::mem::zeroed();
        let rc = getrusage(RUSAGE_SELF, &mut usage);
        assert_eq!(rc, 0, "getrusage failed");
        usage
    };
    usage.ru_maxrss as f64 * 1024.0 / 1e6
}

/// The system allocator plus a live-byte gauge with its high-water mark
/// (always on: two relaxed read-modify-writes per allocation, one per
/// free) and call/byte counters (on only while [`count_allocations`] says
/// so, i.e. in the traced run).
pub struct CountingAllocator;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

impl CountingAllocator {
    fn note_alloc(size: usize) {
        let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the counters are statistics
// that publish no other data, so relaxed atomics suffice.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Self::note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
            Self::note_alloc(new_size);
        }
        q
    }
}

/// Bytes currently allocated and not yet freed, process-wide.
pub fn live_heap_bytes() -> usize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// The most bytes ever live at once since [`reset_peak_heap`].
pub fn peak_heap_bytes() -> usize {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Restarts the high-water mark from what is live now.
pub fn reset_peak_heap() {
    PEAK_BYTES.store(live_heap_bytes(), Ordering::Relaxed);
}

/// Switches the allocation call/byte counters on or off.
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(calls, bytes)` allocated while counting was on, process-wide.
pub fn allocation_counters() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}
