//! Confines the run to one processor, keeps that processor awake while a
//! workload runs, and reads how much of it the host took away.
//!
//! The benchmark runs in a virtual machine on a shared host, and what it
//! measures there is as much the host as the program (README.md,
//! "Steadiness"). Two things the harness can do about it are here.
//!
//! One processor. A request that crosses processors wakes a thread on the
//! other one, which in a virtual machine is an interrupt the host delivers
//! when it gets round to it: a daemon and its client on two processors
//! answered in 150 to 200 µs, differently from run to run; on one processor,
//! where a wake-up is a context switch, in 55 µs every time. So the harness
//! confines itself, and with it every thread and child it starts, to one
//! processor, and passes `--jobs 1`.
//!
//! Awake. Whenever a virtual processor has nothing to run it halts and the
//! host gives the core to someone else; getting it back takes as long as the
//! host's other work lets it, and the guest sees that wait as *steal* time.
//! So, for as long as a workload runs, a thread spins at `SCHED_IDLE` on the
//! processor: the kernel runs it only when nothing else wants the processor
//! and takes the processor from it the moment anything does, but the virtual
//! processor never halts. With that, steal is under 1 %. The spinner is the
//! harness's thread; its CPU time is in no metric.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

// No `libc` crate offline; std already links the C library these live in.
extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const SCHED_IDLE: i32 = 5;

fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is live, writable and of the layout clock_gettime fills.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID)");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Words of a processor mask: room for 1024 processors.
const MASK_WORDS: usize = 16;

/// Confines the calling thread, and so every thread and child started from
/// it from now on, to one processor: the last one it may run on (the first
/// takes most of the machine's interrupts). `main` calls it before it starts
/// anything. Returns the processor's number, or `None` where the kernel
/// refuses and the run goes on unconfined.
pub fn pin_to_one_processor() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: pid 0 is the calling thread; `mask` is live, writable and
    // `size` bytes long.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().rposition(|w| *w != 0)?;
    let bit = 63 - mask[word].leading_zeros() as usize;
    let mut one = [0u64; MASK_WORDS];
    one[word] = 1 << bit;
    // SAFETY: as above; `one` is only read.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(word * 64 + bit)
}

/// The spinning threads. Dropping it stops and joins them.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    /// CPU time each spinner has used, as it last published it.
    cpu_ns: Arc<Vec<AtomicU64>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    /// Starts one spinner per processor the run may use. Where the kernel refuses
    /// `SCHED_IDLE` a spinner would compete with the program, so it ends at
    /// once and the run goes on without it.
    pub fn start(processors: usize) -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let cpu_ns: Arc<Vec<AtomicU64>> =
            Arc::new((0..processors).map(|_| AtomicU64::new(0)).collect());
        let threads = (0..processors)
            .map(|slot| {
                let (stop, cpu_ns) = (Arc::clone(&stop), Arc::clone(&cpu_ns));
                std::thread::spawn(move || {
                    let priority = 0i32;
                    // SAFETY: pid 0 is the calling thread; `priority` is a
                    // live `struct sched_param`, which is one int.
                    if unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) } != 0 {
                        eprintln!(
                            "dpbench: no SCHED_IDLE here; processors may halt between requests"
                        );
                        return;
                    }
                    let mut x = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        // Plain arithmetic, not `spin_loop`: a virtual
                        // machine may take PAUSE as leave to deschedule.
                        for i in 0..20_000u64 {
                            x = black_box(x.wrapping_add(i));
                        }
                        cpu_ns[slot].store(thread_cpu_ns(), Ordering::Relaxed);
                    }
                })
            })
            .collect();
        KeepAwake {
            stop,
            cpu_ns,
            threads,
        }
    }

    /// CPU seconds the spinners have used so far.
    pub fn cpu_seconds(&self) -> f64 {
        let ns: u64 = self.cpu_ns.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        ns as f64 / 1e9
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// `(stolen, all)` processor time so far, in ticks, from the text of
/// `/proc/stat`: its first line holds user, nice, system, idle, iowait, irq,
/// softirq and steal.
pub fn parse_steal(stat: &str) -> Option<(u64, u64)> {
    let mut fields = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_ascii_whitespace();
    let times: Vec<u64> = fields
        .by_ref()
        .take(8)
        .map_while(|f| f.parse().ok())
        .collect();
    (times.len() == 8).then(|| (times[7], times.iter().sum()))
}

pub fn steal_ticks() -> Option<(u64, u64)> {
    parse_steal(&std::fs::read_to_string("/proc/stat").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_steal_column() {
        let stat =
            "cpu  1135079 0 216774 1061433 13760 0 14720 22343 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        assert_eq!(
            parse_steal(stat),
            Some((22343, 1135079 + 216774 + 1061433 + 13760 + 14720 + 22343))
        );
        assert_eq!(parse_steal("cpu  1 2 3\n"), None);
        assert_eq!(parse_steal("intr 5\n"), None);
    }

    #[test]
    fn spinners_use_idle_processors_and_stop() {
        let awake = KeepAwake::start(1);
        std::thread::sleep(std::time::Duration::from_millis(100));
        let used = awake.cpu_seconds();
        drop(awake);
        // Either the spinner ran, or this kernel has no SCHED_IDLE.
        assert!((0.0..=0.2).contains(&used));
    }
}
