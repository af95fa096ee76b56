//! The system under test for the serve-type workloads: the real
//! `tdmatch serve` binary as a child process on a Unix socket, plus the
//! `/proc` readings taken of it.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use tdmatch_serve::client::Client;
use tdmatch_serve::protocol::StatsSnapshot;

const START_DEADLINE: Duration = Duration::from_secs(20);
const STOP_DEADLINE: Duration = Duration::from_secs(20);

/// A scratch directory under `benchmark/out/`, removed on drop. Paths
/// stay relative to the checkout root: a Unix socket path must fit in
/// ~100 bytes, and the checkout may sit anywhere.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(workload: &str) -> Result<WorkDir, String> {
        let dir = PathBuf::from(format!("benchmark/out/{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The daemon binary, built next to the harness by `run.sh`.
fn daemon_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the harness: {e}"))?;
    let path = exe.with_file_name("tdmatch");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} not built; run benchmark/run.sh",
            path.display()
        ))
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins this process — and with it every thread and child it starts
/// from here on, the daemon included — to one CPU: the highest-numbered
/// one it may run on (the lowest takes most of a host's interrupts).
///
/// A request passes from thread to thread with one of them runnable at
/// a time, so one CPU is all a workload can use; left free, the kernel
/// spreads those threads over both CPUs of the reference host and every
/// hand-off wakes an idle virtual CPU, which costs more than the request
/// itself (38 µs pinned, 120 µs free on `serve-small`) and as much more
/// as the host's other tenants make it: the benchmark then reads the
/// hypervisor. Returns the CPU, or `None` where the call is refused.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: both calls read or write `size` bytes of `mask`, which
    // lives across them; pid 0 is the calling thread, before any other
    // is started.
    unsafe {
        if sched_getaffinity(0, size, mask.as_mut_ptr()) != 0 {
            return None;
        }
        let cpu = (0..size * 8)
            .rev()
            .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        (sched_setaffinity(0, size, one.as_ptr()) == 0).then_some(cpu)
    }
}

/// Counters read from `/proc/<pid>` across all the daemon's threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    pub cpu_us: f64,
    pub context_switches: f64,
}

pub struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Starts `tdmatch serve` with CLI defaults (1 worker, 500 µs window,
    /// batches ≤ 8) and waits until it accepts connections.
    pub fn spawn(
        artifact: &Path,
        socket: &Path,
        ann_pool: Option<usize>,
    ) -> Result<Daemon, String> {
        let mut command = Command::new(daemon_binary()?);
        command
            .arg("serve")
            .arg("--artifact")
            .arg(artifact)
            .arg("--socket")
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some(pool) = ann_pool {
            command.arg("--ann").arg("--ann-pool").arg(pool.to_string());
        }
        let child = command
            .spawn()
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        let mut daemon = Daemon {
            child,
            socket: socket.to_path_buf(),
        };
        let started = Instant::now();
        loop {
            if let Ok(mut client) = Client::connect(socket) {
                if client.ping().is_ok() {
                    return Ok(daemon);
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("the daemon exited at start-up: {status}"));
            }
            if started.elapsed() > START_DEADLINE {
                return Err("the daemon did not accept connections in time".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.socket).map_err(|e| format!("connecting to the daemon: {e}"))
    }

    fn proc_path(&self, rest: &str) -> String {
        format!("/proc/{}/{rest}", self.child.id())
    }

    /// `VmHWM`, the daemon's peak resident set, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&self.proc_path("status"))
    }

    /// CPU time and context switches summed over the daemon's threads.
    pub fn sample(&self) -> Result<ProcSample, String> {
        let tasks = self.proc_path("task");
        let mut sample = ProcSample::default();
        for entry in std::fs::read_dir(&tasks).map_err(|e| format!("{tasks}: {e}"))? {
            let task = entry.map_err(|e| format!("{tasks}: {e}"))?.path();
            // A thread may exit between the listing and the read.
            let Ok(schedstat) = std::fs::read_to_string(task.join("schedstat")) else {
                continue;
            };
            let Ok(status) = std::fs::read_to_string(task.join("status")) else {
                continue;
            };
            let run_ns: f64 = schedstat
                .split_whitespace()
                .next()
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| format!("unreadable schedstat in {}", task.display()))?;
            sample.cpu_us += run_ns / 1e3;
            sample.context_switches += status_field(&status, "voluntary_ctxt_switches:")
                .unwrap_or(0.0)
                + status_field(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0.0);
        }
        Ok(sample)
    }

    /// Drains and stops the daemon. Returns its final counters, taken
    /// after every client of the run has its answers: the `inflight` and
    /// `queue_depth` gauges must read 0 there.
    pub fn stop(mut self, client: &mut Client) -> Result<StatsSnapshot, String> {
        let stats = client.stats().map_err(|e| format!("final stats: {e}"))?;
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        let started = Instant::now();
        while started.elapsed() < STOP_DEADLINE {
            if let Some(status) = self
                .child
                .try_wait()
                .map_err(|e| format!("waiting for the daemon: {e}"))?
            {
                return if status.success() {
                    Ok(stats)
                } else {
                    Err(format!("the daemon exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("the daemon did not exit after shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Reached with a live child only on an error path.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn status_field(status: &str, key: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    status_field(&status, "VmHWM:")
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{status_path}: no VmHWM"))
}

/// Peak resident set of this process, in MB.
pub fn own_peak_rss_mb() -> Result<f64, String> {
    peak_rss_mb("/proc/self/status")
}
