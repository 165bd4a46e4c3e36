//! One child process at a time: spawn, wait, and read what the kernel
//! accounted for it.
//!
//! `std::process::Child::wait` discards the resource usage `wait4(2)`
//! returns, and no `libc` crate resolves offline, so [`wait4`] is declared
//! here by hand. The declaration is for Linux on a 64-bit target, where
//! `struct rusage` is two `timeval`s of two `long`s followed by fourteen
//! `long`s and `ru_maxrss` is in KiB.

use std::ffi::{c_int, c_long};
use std::fs::File;
use std::io;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the wait4 shim in child.rs is laid out for 64-bit Linux");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    // ixrss, idrss, isrss, minflt, majflt, nswap, inblock, oublock,
    // msgsnd, msgrcv, nsignals, nvcsw, nivcsw — unread, but wait4 writes
    // them, so the space must be there.
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
}

/// How a child ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    Code(i32),
    Signal(i32),
    /// Killed by the watchdog after the timeout.
    TimedOut,
}

/// One finished child.
#[derive(Debug)]
pub struct Outcome {
    /// Seconds from just before `spawn` to `wait4` returning.
    pub wall_s: f64,
    pub user_s: f64,
    pub sys_s: f64,
    pub max_rss_kib: u64,
    pub exit: Exit,
    pub stdout: String,
    /// The last lines of stderr (a panic message and backtrace fit).
    pub stderr_tail: String,
}

/// Runs `cmd` to completion with stdout and stderr sent to files under
/// `scratch` (files, not pipes: nothing has to drain them while the child
/// runs, so the driver stays one sleeping thread). A child still alive
/// after `timeout` is killed and reported as [`Exit::TimedOut`].
pub fn run(cmd: &mut Command, scratch: &Path, timeout: Duration) -> io::Result<Outcome> {
    let out_path = scratch.join("child.stdout");
    let err_path = scratch.join("child.stderr");
    // A backtrace would push the panic message out of the stderr tail.
    cmd.env("RUST_BACKTRACE", "0")
        .stdin(Stdio::null())
        .stdout(File::create(&out_path)?)
        .stderr(File::create(&err_path)?);

    let start = Instant::now();
    let mut child = cmd.spawn()?;
    let pid = c_int::try_from(child.id()).map_err(io::Error::other)?;

    // The watchdog owns the `Child` handle so that it can kill it; it sleeps
    // in `recv_timeout` until the main thread reports the child reaped.
    let (done, reaped) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        let timed_out = reaped.recv_timeout(timeout).is_err();
        if timed_out {
            // Already-exited is the only error; wait4 below reaps either way.
            let _ = child.kill();
            let _ = reaped.recv();
        }
        timed_out
    });

    let mut status: c_int = 0;
    let mut usage = Rusage::default();
    let waited = loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // wait4(2) expects (see the module docs); `pid` is our own child,
        // which nothing else waits for — the watchdog only ever kills it.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == -1 && io::Error::last_os_error().kind() == io::ErrorKind::Interrupted {
            continue;
        }
        break r;
    };
    let wall_s = start.elapsed().as_secs_f64();
    let wait_err = (waited != pid).then(io::Error::last_os_error);
    let _ = done.send(());
    let timed_out = watchdog.join().expect("watchdog thread does not panic");
    if let Some(e) = wait_err {
        return Err(e);
    }

    let exit = if timed_out {
        Exit::TimedOut
    } else if status & 0x7f == 0 {
        Exit::Code((status >> 8) & 0xff)
    } else {
        Exit::Signal(status & 0x7f)
    };
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    let stderr = String::from_utf8_lossy(&std::fs::read(&err_path)?).into_owned();
    Ok(Outcome {
        wall_s,
        user_s: secs(&usage.utime),
        sys_s: secs(&usage.stime),
        max_rss_kib: u64::try_from(usage.maxrss).unwrap_or(0),
        exit,
        stdout: String::from_utf8_lossy(&std::fs::read(&out_path)?).into_owned(),
        stderr_tail: tail(&stderr, 12),
    })
}

/// The last `lines` lines of `text`.
pub fn tail(text: &str, lines: usize) -> String {
    let all: Vec<&str> = text.lines().collect();
    all[all.len().saturating_sub(lines)..].join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("msc_bench_child_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn trivial_child_has_sane_accounting() {
        let dir = scratch("ok");
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "echo out; echo err >&2; exit 3"]);
        let o = run(&mut cmd, &dir, Duration::from_secs(20)).unwrap();
        assert_eq!(o.exit, Exit::Code(3));
        assert_eq!(o.stdout, "out\n");
        assert_eq!(o.stderr_tail, "err");
        assert!(o.wall_s > 0.0 && o.wall_s < 10.0, "{o:?}");
        assert!(o.user_s >= 0.0 && o.sys_s >= 0.0, "{o:?}");
        assert!(o.user_s + o.sys_s <= o.wall_s + 0.05, "{o:?}");
        // A shell needs some memory, and far less than a gigabyte.
        assert!(o.max_rss_kib > 100 && o.max_rss_kib < (1 << 20), "{o:?}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn hung_child_is_killed_and_counted() {
        let dir = scratch("hang");
        let mut cmd = Command::new("sleep");
        cmd.arg("30");
        let o = run(&mut cmd, &dir, Duration::from_millis(200)).unwrap();
        assert_eq!(o.exit, Exit::TimedOut);
        assert!(o.wall_s < 10.0, "{o:?}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn signalled_child_is_reported() {
        let dir = scratch("sig");
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "kill -9 $$"]);
        let o = run(&mut cmd, &dir, Duration::from_secs(20)).unwrap();
        assert_eq!(o.exit, Exit::Signal(9));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn tail_keeps_last_lines() {
        assert_eq!(tail("a\nb\nc\n", 2), "b\nc");
        assert_eq!(tail("a", 5), "a");
        assert_eq!(tail("", 5), "");
    }
}
