//! Process-level probes: the live-heap high-water mark (a counting global
//! allocator, as in the repository's scale test tier) and process CPU time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and drop-free, so reading it never allocates.
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

fn counted() -> bool {
    !UNCOUNTED.try_with(Cell::get).unwrap_or(false)
}

/// Runs `f` with this thread's heap traffic left out of the counts. Used
/// for the benchmark's own sample and span buffers, which grow with the run
/// length; every allocation made here must also be freed here.
pub fn uncounted<T>(f: impl FnOnce() -> T) -> T {
    let outer = UNCOUNTED.replace(true);
    let out = f();
    UNCOUNTED.set(outer);
    out
}

/// A growable buffer the benchmark keeps for itself (samples, spans): its
/// heap traffic is left out of the counts, so the high-water mark does not
/// depend on how many samples a run happened to take.
#[derive(Debug)]
pub struct Series<T>(Vec<T>);

impl<T> Default for Series<T> {
    fn default() -> Self {
        Series(Vec::new())
    }
}

impl<T> Series<T> {
    pub fn push(&mut self, value: T) {
        uncounted(|| self.0.push(value));
    }
}

impl<T> std::ops::Deref for Series<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.0
    }
}

impl<T> std::ops::DerefMut for Series<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.0
    }
}

impl<T> Drop for Series<T> {
    fn drop(&mut self) {
        let buffer = std::mem::take(&mut self.0);
        uncounted(|| drop(buffer));
    }
}

fn note_alloc(size: usize) {
    if counted() {
        let live = LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

fn note_dealloc(size: usize) {
    if counted() {
        LIVE_BYTES.fetch_sub(size as u64, Ordering::Relaxed);
    }
}

/// Delegates to the system allocator, adding relaxed live/peak counters
/// (statistics only: they publish no other data).
pub struct HighWaterAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is bookkeeping on
// atomics that never touches the returned memory.
unsafe impl GlobalAlloc for HighWaterAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout obligations pass through unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_dealloc(layout.size());
        // SAFETY: `ptr` was returned by `System` for this same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout obligations pass through unchanged.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` is the
        // caller's, passed through unchanged.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            if new_size >= layout.size() {
                note_alloc(new_size - layout.size());
            } else {
                note_dealloc(layout.size() - new_size);
            }
        }
        new_ptr
    }
}

/// Restarts the high-water mark from the bytes live now.
pub fn reset_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Highest live heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Linux reports `utime`/`stime` in clock ticks of `USER_HZ`, which is 100
/// on every mainstream architecture.
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds (user + system) the whole process has used, every thread
/// included: exited threads are folded into the process totals, so the
/// engine's per-station threads count once they are joined.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, so the 12th and 13th after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    let (utime, stime) = (tick(), tick());
    (utime + stime) as f64 / TICKS_PER_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncounted_buffers_leave_the_live_bytes_alone() {
        // Single-threaded view: other test threads only add noise the
        // assertion tolerates, since only this buffer is large.
        let before = LIVE_BYTES.load(Ordering::Relaxed);
        let mut series = Series::default();
        for _ in 0..(8 << 20) {
            series.push(0u64);
        }
        let during = LIVE_BYTES.load(Ordering::Relaxed);
        drop(series);
        assert!(during < before + (32 << 20));
        let counted = vec![0u8; 64 << 20];
        assert!(LIVE_BYTES.load(Ordering::Relaxed) >= before + (32 << 20));
        drop(counted);
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let before = process_cpu_s();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 200 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_s() - before >= 0.1, "{x}");
    }
}
