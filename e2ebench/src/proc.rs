//! Child processes reaped with `wait4(2)`, which reports the peak resident
//! set of exactly that child (`getrusage(RUSAGE_CHILDREN)` would mix in
//! every earlier child, the build included).

use std::process::Child;
use std::sync::mpsc;
use std::time::Duration;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;

/// How a reaped child ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reaped {
    /// Exit code, or `None` when a signal ended it.
    pub code: Option<i32>,
    /// Peak resident set, KiB.
    pub peak_rss_kb: u64,
    /// CPU time in user mode, ms.
    pub user_ms: f64,
    /// CPU time in the kernel, ms.
    pub sys_ms: f64,
}

impl Reaped {
    /// Whether the child exited with code 0.
    pub fn success(&self) -> bool {
        self.code == Some(0)
    }
}

/// Waits for `child`, killing it if it outlives `limit`. The caller must
/// not wait for the child through `std` as well.
///
/// # Errors
///
/// The OS error of `wait4`.
pub fn reap(child: &Child, limit: Duration) -> std::io::Result<Reaped> {
    let pid = i32::try_from(child.id()).expect("pids fit in i32");
    let (done, timer) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if timer.recv_timeout(limit) == Err(mpsc::RecvTimeoutError::Timeout) {
            // SAFETY: `kill` takes two integers and has no memory-safety
            // preconditions.
            unsafe { kill(pid, SIGKILL) };
        }
    });
    let mut status = 0i32;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    let result = loop {
        // SAFETY: both pointers are to live, writable locals of the types
        // `wait4` expects (`int` and the 64-bit Linux `struct rusage`).
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break Ok(());
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            break Err(err);
        }
    };
    let _ = done.send(());
    watchdog.join().expect("watchdog thread does not panic");
    result?;
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    let ms = |tv: [i64; 2]| tv[0] as f64 * 1e3 + tv[1] as f64 / 1e3;
    Ok(Reaped {
        code,
        peak_rss_kb: u64::try_from(usage.maxrss).unwrap_or(0),
        user_ms: ms(usage.utime),
        sys_ms: ms(usage.stime),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::{Command, Stdio};

    #[test]
    #[allow(clippy::zombie_processes, reason = "reap waits for the child")]
    fn reports_exit_code_and_peak_rss() {
        let child = Command::new("sh")
            .args(["-c", "exit 3"])
            .stdout(Stdio::null())
            .spawn()
            .expect("sh");
        let reaped = reap(&child, Duration::from_secs(30)).expect("reaped");
        assert_eq!(reaped.code, Some(3));
        assert!(reaped.peak_rss_kb > 0);
    }

    #[test]
    #[allow(clippy::zombie_processes, reason = "reap waits for the child")]
    fn kills_a_child_past_its_limit() {
        let child = Command::new("sleep").arg("30").spawn().expect("sleep");
        let reaped = reap(&child, Duration::from_millis(50)).expect("reaped");
        assert_eq!(reaped.code, None);
    }
}
