//! Process CPU time, the clock every host cost is measured on.
//!
//! On a shared virtual machine the hypervisor takes the vCPU away for
//! other guests (steal time) in bursts that stretch wall time by tens of
//! percent while the simulator does the same work. The process CPU clock
//! counts only the time the process actually ran, so it leaves steal
//! out. It is read with one `clock_gettime` call, so it suits intervals
//! of a few microseconds and up.

use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the Linux process CPU clock and /proc");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time this process has run so far, over all its threads.
pub fn now() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C layout
    // of 64-bit Linux (two 64-bit fields), and `clock_gettime` writes only
    // through that pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock exists on every Linux");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_with_work() {
        // (Other tests run in this process at the same time and add to
        // its CPU clock, so only growth is checked.)
        let t0 = now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let busy = now() - t0;
        assert!(busy > Duration::from_millis(1), "{busy:?}");
    }
}
