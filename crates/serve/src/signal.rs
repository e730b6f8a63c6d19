//! SIGINT/SIGTERM → a shared stop flag.
//!
//! The daemon's shutdown path is the drive loop's own end-of-stream path: a
//! [`StopGate`](flowrank_monitor::StopGate)-wrapped source checks the flag
//! on every poll and reports a clean end when it is raised, so
//! [`Monitor::try_drive`](flowrank_monitor::Monitor::try_drive) flushes the
//! final bin and returns its stats — no state is torn down mid-bin.
//!
//! The workspace carries no `libc` dependency, so registration goes through
//! raw FFI calls to `signal(2)` and `siginterrupt(3)`. The handler does the
//! only async-signal-safe thing a handler can: a relaxed atomic store.
//!
//! glibc's `signal` installs handlers with `SA_RESTART`, which would restart
//! a read blocked on idle stdin and leave the flag unseen until a record
//! arrived; `siginterrupt(signum, 1)` clears it, so the read fails with
//! `EINTR` and the ndjson source answers an idle poll the drive loop stops
//! on — also while it holds half a line, which it carries to the next poll.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn siginterrupt(signum: i32, flag: i32) -> i32;
}

#[cfg(unix)]
const SIGINT: i32 = 2;
#[cfg(unix)]
const SIGTERM: i32 = 15;

/// The installed flag, as a leaked `Arc<AtomicBool>` pointer the handler
/// can reach. Zero until [`install`] runs.
static STOP_FLAG: AtomicUsize = AtomicUsize::new(0);

extern "C" fn on_signal(_signum: i32) {
    let ptr = STOP_FLAG.load(Ordering::Acquire) as *const AtomicBool;
    if !ptr.is_null() {
        // SAFETY: the pointer came from `Arc::into_raw` in `install` and is
        // deliberately never released, so it stays valid for the process
        // lifetime. An atomic store is async-signal-safe.
        unsafe { (*ptr).store(true, Ordering::Release) };
    }
}

/// Routes SIGINT and SIGTERM to `stop`. The flag is leaked (the handler
/// may fire at any point for the rest of the process); installing twice
/// replaces the target and leaks the previous flag too. On non-unix
/// platforms this only registers the flag — nothing raises it.
pub fn install(stop: Arc<AtomicBool>) {
    let ptr = Arc::into_raw(stop) as usize;
    STOP_FLAG.store(ptr, Ordering::Release);
    #[cfg(unix)]
    // SAFETY: `on_signal` is an `extern "C" fn(i32)` as `signal(2)`
    // requires, and touches only async-signal-safe state; `siginterrupt`
    // takes two integers and changes only the kernel's flags for `signum`.
    unsafe {
        for signum in [SIGINT, SIGTERM] {
            signal(signum, on_signal as *const () as usize);
            siginterrupt(signum, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_handler_raises_the_installed_flag() {
        let stop = Arc::new(AtomicBool::new(false));
        install(Arc::clone(&stop));
        // Call the handler directly instead of raising a real signal: the
        // test harness shares the process, and the handler body is the
        // part this pins.
        on_signal(SIGINT_LIKE);
        assert!(stop.load(Ordering::Acquire));
    }

    const SIGINT_LIKE: i32 = 2;
}
