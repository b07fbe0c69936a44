//! Host steal time, read from `/proc/stat`. On a shared virtual machine,
//! time the hypervisor gives to other guests (steal) stretches wall time
//! without any change in the program.

/// Clock ticks per second of `/proc` times (`USER_HZ`, 100 on Linux).
const TICKS_PER_SEC: f64 = 100.0;

/// Steal seconds summed over all CPUs of the machine since boot.
pub fn steal_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |t| t / TICKS_PER_SEC)
}

/// Measures an interval in wall seconds and in *active* seconds: wall time
/// minus the host steal that accrued meanwhile.
///
/// A vCPU accrues steal only while it has work to run, and on this
/// benchmark's two-thread pool a stolen vCPU stalls every parallel kernel
/// at its join, so the steal over an interval is the wall time the program
/// lost to other guests. `/proc/stat` counts it in 10 ms ticks, so intervals
/// shorter than about a second are not corrected reliably.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: std::time::Instant,
    steal: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Self {
            start: std::time::Instant::now(),
            steal: steal_secs(),
        }
    }

    pub fn wall_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Steal seconds since the start.
    pub fn steal(&self) -> f64 {
        steal_secs() - self.steal
    }

    /// Wall seconds minus steal seconds, floored at a tenth of the wall
    /// time (two vCPUs stolen at once count twice in `/proc/stat`).
    pub fn active_secs(&self) -> f64 {
        let wall = self.wall_secs();
        (wall - self.steal()).max(0.1 * wall)
    }
}
