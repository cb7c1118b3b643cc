//! Process and host probes: peak resident memory, process CPU time, and
//! the host record written next to every result.

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Resets `VmHWM` to the current resident size, so the next
/// [`peak_rss_mib`] covers only what runs after this call.
pub fn reset_peak_rss() {
    // Without the kernel interface the next reading is the process
    // lifetime peak, which still bounds the measured phase from above.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc `M_MMAP_THRESHOLD`.
const M_MMAP_THRESHOLD: i32 = -3;

/// Pins glibc malloc's mmap threshold at its default of 128 KiB. Left
/// alone, glibc raises the threshold after large frees, by amounts that
/// depend on which thread freed what, so the page faults an operation pays
/// changed from run to run of one seed by a factor of four. Pinned, every
/// large buffer is freshly mapped, as in a process that solves one graph.
pub fn pin_malloc_mmap_threshold() {
    // SAFETY: `mallopt` takes two plain integers and only adjusts
    // allocator parameters; it is called before any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds consumed by every thread of this process so far, including
/// threads that have already exited.
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // `clock_gettime` writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// One instance of a run's input, for the host and input record.
#[derive(Debug, Clone)]
pub struct InstanceInfo {
    /// Instance name (the suite row its recipe comes from).
    pub name: String,
    /// Vertices.
    pub vertices: u64,
    /// Undirected input edges (update ops for the churn script).
    pub edges: u64,
}

/// Host facts and the run's inputs, as one JSON object.
pub fn host_record(workload: &str, seed: u64, instances: &[InstanceInfo]) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = ecl_graph::par::max_threads();
    let list: Vec<String> = instances
        .iter()
        .map(|i| {
            format!(
                "{{\"name\": \"{}\", \"vertices\": {}, \"edges\": {}}}",
                i.name, i.vertices, i.edges
            )
        })
        .collect();
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"nproc\": {nproc}, \
         \"threads\": {threads}, \"rayon_num_threads\": \"{}\", \"cpu_model\": \"{}\", \
         \"l2\": \"{}\", \"l3\": \"{}\", \"rustc\": \"{}\", \"instances\": {}, \
         \"vertices_total\": {}, \"edges_total\": {}, \"instance_list\": [{}]}}",
        escape(&std::env::var("RAYON_NUM_THREADS").unwrap_or_default()),
        escape(&cpu_model()),
        escape(&cache_size(2)),
        escape(&cache_size(3)),
        escape(&rustc_version()),
        instances.len(),
        instances.iter().map(|i| i.vertices).sum::<u64>(),
        instances.iter().map(|i| i.edges).sum::<u64>(),
        list.join(", ")
    )
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size of CPU 0's cache at `level` as the kernel prints it (`4096K`).
fn cache_size(level: u32) -> String {
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let Some(l) = read("level") else { break };
        let unified = read("type").is_some_and(|t| t.trim() != "Instruction");
        if l.trim() == level.to_string() && unified {
            return read("size").map_or_else(|| "unknown".into(), |s| s.trim().to_string());
        }
    }
    "unknown".into()
}

fn rustc_version() -> String {
    std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Escapes `s` for a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let t0 = process_cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_cpu_seconds() > t0);
    }
}
