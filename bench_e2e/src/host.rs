//! Host probes: core count, commit, process CPU time and peak RSS from
//! procfs (Linux), and a fixed speed probe that does not use the program,
//! so a run that landed in a slow phase of the machine shows and timings
//! can be normalized to one host speed.

use std::hint::black_box;
use std::time::Instant;

/// `available_parallelism`, or 1 when it cannot be read.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker count of tiled and batch calls: at most two threads.
pub fn jobs() -> usize {
    nproc().min(2)
}

/// `git rev-parse HEAD` when the working directory is a git checkout,
/// else `unknown` (git would otherwise report an enclosing repository).
pub fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100 on
/// every mainstream Linux architecture).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of the whole process, all threads included.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok((tick(11)? + tick(12)?) / USER_HZ)
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Table words of the speed probe: 1 MiB, half the L2 of the recording
/// host. The calls between walks evict it from L2, so a walk measures
/// misses to L3; smaller than the L2 TLB reach, so not page walks.
const PROBE_WORDS: usize = 1 << 18;
/// Read-modify-write steps of one probe walk (about 0.55 ms on that host).
const PROBE_STEPS: usize = 1 << 17;

/// A host-speed probe that does not use the program: a xorshift walk of
/// read-modify-writes at random slots of a table the preceding work has
/// evicted from L2, on as many threads as the calls it brackets use. On
/// the recording host the program's speed follows the latency of these
/// misses (README.md, "Host noise").
pub struct Probe {
    tables: Vec<Vec<u32>>,
}

impl Probe {
    pub fn new(threads: usize) -> Self {
        Self {
            tables: (0..threads.max(1))
                .map(|_| (0..PROBE_WORDS as u32).collect())
                .collect(),
        }
    }

    /// Seconds one walk takes, averaged over the probe's threads, which
    /// walk at the same time.
    pub fn time(&mut self) -> f64 {
        if let [table] = &mut self.tables[..] {
            return walk(table);
        }
        let times: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .tables
                .iter_mut()
                .map(|t| s.spawn(move || walk(t)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe walk does not panic"))
                .collect()
        });
        times.iter().sum::<f64>() / times.len() as f64
    }
}

fn walk(table: &mut [u32]) -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9u32;
    for _ in 0..PROBE_STEPS {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        let slot = &mut table[x as usize % PROBE_WORDS];
        *slot = slot.wrapping_add(x);
    }
    black_box(&table);
    t0.elapsed().as_secs_f64()
}

/// Milliseconds of one single-thread probe walk after an L2-sized sweep
/// evicted its table: the median of 21.
pub fn calibrate() -> f64 {
    let mut probe = Probe::new(1);
    let mut sweep = vec![0u8; 4 * PROBE_WORDS * 4];
    let mut times: Vec<f64> = (0..21)
        .map(|i| {
            sweep.fill(i as u8);
            black_box(&sweep);
            probe.time() * 1e3
        })
        .collect();
    crate::stats::median(&mut times)
}
