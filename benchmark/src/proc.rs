//! Child processes: every `dpopt` the benchmark starts goes through here, so
//! that each one is measured (CPU and peak memory from `wait4`), and none
//! outlives the benchmark — [`Cleanup`] kills what is still running, on
//! panic too.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("dpbench reads /proc and declares the 64-bit Linux layout of `struct rusage`");

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs of
/// which only `ru_maxrss` (kilobytes) is read.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

// No `libc` crate offline; std already links the C library these live in.
extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RawRusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn sysconf(name: i32) -> i64;
}
const SIGKILL: i32 = 9;
const SC_CLK_TCK: i32 = 2;

/// What a finished child cost.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub max_rss_kb: u64,
}

impl Usage {
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Pids started and not yet reaped.
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

fn live() -> std::sync::MutexGuard<'static, Vec<u32>> {
    // A panic elsewhere must not stop the clean-up from seeing the list.
    LIVE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Reaps `pid`, returning whether it exited with code 0 and what it used.
fn reap(pid: u32) -> std::io::Result<(bool, Usage)> {
    let mut status = 0i32;
    let mut raw = RawRusage::default();
    // SAFETY: `status` and `raw` are live, writable and of the types wait4
    // fills in; `pid` is a child this process spawned and has not reaped
    // (it is removed from `LIVE` only here).
    let rc = unsafe { wait4(pid as i32, &mut status, 0, &mut raw) };
    live().retain(|p| *p != pid);
    if rc < 0 {
        return Err(std::io::Error::last_os_error());
    }
    let seconds = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    let usage = Usage {
        user_s: seconds(raw.utime),
        sys_s: seconds(raw.stime),
        max_rss_kb: raw.maxrss.max(0) as u64,
    };
    // WIFEXITED && WEXITSTATUS == 0.
    Ok(((status & 0x7f) == 0 && ((status >> 8) & 0xff) == 0, usage))
}

/// A running child. It must be [`Proc::wait`]ed; if it is dropped instead
/// (an error path), [`Cleanup`] kills and reaps it.
pub struct Proc {
    child: Child,
}

impl Proc {
    pub fn spawn(command: &mut Command) -> std::io::Result<Proc> {
        let child = command.spawn()?;
        live().push(child.id());
        Ok(Proc { child })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits for the child to exit: `(exited with 0, usage)`.
    pub fn wait(self) -> std::io::Result<(bool, Usage)> {
        reap(self.child.id())
    }
}

/// Kills and reaps every child still alive, then removes `tmp`. Hold one in
/// `main` for the length of the run.
pub struct Cleanup {
    pub tmp: PathBuf,
}

impl Drop for Cleanup {
    fn drop(&mut self) {
        let pids: Vec<u32> = live().clone();
        for pid in pids {
            // SAFETY: `pid` is an unreaped child of this process, so the
            // number cannot have been reused by an unrelated process.
            unsafe { kill(pid as i32, SIGKILL) };
            let _ = reap(pid);
        }
        let _ = std::fs::remove_dir_all(&self.tmp);
    }
}

/// `dpopt` with a hermetic environment: nothing of the caller's `DPOPT_*`
/// settings reaches the program, only what the workload sets.
pub fn dpopt(binary: &Path) -> Command {
    let mut command = Command::new(binary);
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("DPOPT_") {
            command.env_remove(name);
        }
    }
    command
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    command
}

/// Runs one `dpopt` invocation to completion: `(wall seconds, usage)`, or an
/// error naming the arguments when it does not exit with 0.
pub fn run(command: &mut Command) -> Result<(f64, Usage), String> {
    let started = Instant::now();
    let (ok, usage) = Proc::spawn(command)
        .and_then(Proc::wait)
        .map_err(|e| format!("cannot run {command:?}: {e}"))?;
    let wall = started.elapsed().as_secs_f64();
    if !ok {
        return Err(format!("{command:?} did not exit with 0"));
    }
    Ok((wall, usage))
}

/// A `dpopt serve` daemon on a port the kernel chose.
pub struct Daemon {
    proc: Proc,
    pub addr: String,
    drain: std::thread::JoinHandle<()>,
}

impl Daemon {
    /// Starts `dpopt serve --listen 127.0.0.1:0 <args>` and returns once it
    /// has printed the address it listens on (on stderr).
    pub fn spawn(binary: &Path, args: &[&str], env: &[(&str, &str)]) -> Result<Daemon, String> {
        let mut command = dpopt(binary);
        command
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(args)
            .envs(env.iter().copied())
            .stderr(Stdio::piped());
        let mut proc =
            Proc::spawn(&mut command).map_err(|e| format!("cannot start daemon: {e}"))?;
        let mut stderr = BufReader::new(proc.child.stderr.take().expect("stderr is piped"));
        let mut seen = String::new();
        let addr = loop {
            let mut line = String::new();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => return Err(format!("daemon exited before listening: {seen}")),
                Ok(_) => {}
            }
            if let Some(addr) = parse_listening(&line) {
                break addr.to_string();
            }
            seen.push_str(&line);
        };
        // Keep reading so a chatty daemon never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let _ = std::io::copy(&mut stderr, &mut std::io::sink());
        });
        Ok(Daemon { proc, addr, drain })
    }

    pub fn pid(&self) -> u32 {
        self.proc.pid()
    }

    /// One request on a connection of its own; the response line.
    pub fn request(&self, line: &str) -> Result<String, String> {
        let io = |e: std::io::Error| format!("daemon {}: {e}", self.addr);
        let mut stream = TcpStream::connect(&self.addr).map_err(io)?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(io)?;
        stream.write_all(line.as_bytes()).map_err(io)?;
        stream.write_all(b"\n").map_err(io)?;
        let mut response = String::new();
        BufReader::new(stream)
            .read_line(&mut response)
            .map_err(io)?;
        Ok(response)
    }

    /// Asks the daemon to drain and stop, and waits until it has.
    pub fn shutdown(self) -> Result<Usage, String> {
        let response = self.request(r#"{"op":"shutdown"}"#)?;
        let (ok, usage) = self.proc.wait().map_err(|e| e.to_string())?;
        self.drain.join().expect("stderr drain thread");
        if !ok || !response.contains(r#""drained":true"#) {
            return Err(format!("daemon did not drain cleanly: {response}"));
        }
        Ok(usage)
    }
}

/// The address in a `dp-serve listening on <addr>` line.
pub fn parse_listening(line: &str) -> Option<&str> {
    line.trim().strip_prefix("dp-serve listening on ")
}

/// Clock ticks per second, the unit of `/proc/<pid>/stat` CPU times.
fn ticks_per_second() -> f64 {
    // SAFETY: sysconf takes a plain integer and has no preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

/// `(utime, stime)` in ticks from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may itself hold spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<(u64, u64)> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_ascii_whitespace();
    // `after` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime = fields.nth(11)?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// The number after `name` (such as `Threads:` or `VmHWM:`) in the text of
/// `/proc/<pid>/status`.
pub fn parse_status_field(status: &str, name: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(name))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU seconds `(user, sys)` a live process has used so far; `pid` 0 is
/// this process.
pub fn cpu_seconds(pid: u32) -> Option<(f64, f64)> {
    let path = match pid {
        0 => "/proc/self/stat".to_string(),
        pid => format!("/proc/{pid}/stat"),
    };
    let mut stat = String::new();
    std::fs::File::open(path)
        .ok()?
        .read_to_string(&mut stat)
        .ok()?;
    let (utime, stime) = parse_stat_ticks(&stat)?;
    let hz = ticks_per_second();
    Some((utime as f64 / hz, stime as f64 / hz))
}

/// Threads a live process has right now.
pub fn thread_count(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_status_field(&status, "Threads:")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_stat_with_awkward_command_names() {
        let stat = "4242 (dp opt) x) S 1 4242 4242 0 -1 4194560 1033 0 0 0 \
                    731 209 5 6 20 0 3 0 8730 12345 100 18446744073709551615";
        assert_eq!(parse_stat_ticks(stat), Some((731, 209)));
        assert_eq!(parse_stat_ticks("garbage"), None);
        assert_eq!(parse_stat_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn parses_proc_status_fields() {
        let status = "Name:\tdpopt\nVmHWM:\t   10240 kB\nThreads:\t67\n";
        assert_eq!(parse_status_field(status, "Threads:"), Some(67));
        assert_eq!(parse_status_field(status, "VmHWM:"), Some(10240));
        assert_eq!(parse_status_field(status, "VmSwap:"), None);
    }

    #[test]
    fn parses_the_listening_line() {
        assert_eq!(
            parse_listening("dp-serve listening on 127.0.0.1:38259\n"),
            Some("127.0.0.1:38259")
        );
        assert_eq!(parse_listening("dp-serve: fault injection armed"), None);
    }

    /// One test, because both halves use the process-wide list of live
    /// children and the clean-up kills everything on it.
    #[test]
    fn children_are_measured_and_none_survives_cleanup() {
        let (ok, usage) = Proc::spawn(Command::new("true").stdin(Stdio::null()))
            .and_then(Proc::wait)
            .unwrap();
        assert!(ok);
        assert!(usage.max_rss_kb > 0);
        let (ok, _) = Proc::spawn(Command::new("false").stdin(Stdio::null()))
            .and_then(Proc::wait)
            .unwrap();
        assert!(!ok);
        assert!(cpu_seconds(0).is_some());
        assert!(thread_count(std::process::id()).is_some());

        let tmp = std::env::temp_dir().join(format!("dpbench-cleanup-{}", std::process::id()));
        std::fs::create_dir_all(tmp.join("inner")).unwrap();
        let sleeper = Proc::spawn(Command::new("sleep").arg("600").stdin(Stdio::null())).unwrap();
        let pid = sleeper.pid();
        drop(sleeper);
        drop(Cleanup { tmp: tmp.clone() });
        assert!(!tmp.exists());
        assert!(!Path::new(&format!("/proc/{pid}")).exists());
    }
}
