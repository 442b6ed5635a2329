//! Output: the metric table, the result line, and the record of the
//! environment every result was measured in.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Metrics in report order, each with its unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64) {
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        let value = if value.is_finite() {
            value + 0.0
        } else {
            eprintln!("perfbench: warning: {name} is not finite; reported as 0");
            0.0
        };
        self.0.push((name.to_string(), value, unit_of(name)));
    }
}

/// A metric's unit, from its name.
pub fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_MB_per_cpu_s") {
        "MB/cpu_s"
    } else if name.ends_with("_MBps") {
        "MB/s"
    } else if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_s") || name.ends_with(".s") {
        "s"
    } else if name.ends_with("_MB") {
        "MB"
    } else if name.ends_with("bytes") {
        "B"
    } else if name.ends_with(".calls")
        || name.ends_with(".shares")
        || name.ends_with(".fingerprints")
    {
        "count"
    } else {
        "ratio"
    }
}

/// The result of one run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// Prints one `name value unit` line per metric (plus
    /// `failed_op_ratio`), then the JSON result as the last line.
    pub fn print(&self) {
        let failed_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        println!("{:<40} {:>18} ratio", "failed_op_ratio", failed_ratio);
        for (name, value, unit) in &self.metrics.0 {
            println!("{name:<40} {value:>18.6} {unit}");
        }
        let mut json = String::new();
        for (name, value, unit) in &self.metrics.0 {
            if !json.is_empty() {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        );
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn cpu_has(feature: &str) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        match feature {
            "aes" => std::arch::is_x86_feature_detected!("aes"),
            "sha" => std::arch::is_x86_feature_detected!("sha"),
            "avx2" => std::arch::is_x86_feature_detected!("avx2"),
            _ => false,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = feature;
        false
    }
}

/// The commit checked out in the current directory, read from `.git`
/// (`"unknown"` outside a git checkout).
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(reference) {
        return id.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if name == "target" || name.to_string_lossy().starts_with('.') {
            continue;
        }
        if path.is_dir() {
            collect_files(&path, out);
        } else if path.is_file() {
            out.push(path);
        }
    }
}

/// SHA-256 over the source tree the benchmark was built from (every file
/// under `crates`, `src`, `vendor` and `perfbench`, plus the root
/// manifests), so results from checkouts without git still name their code.
fn source_digest() -> String {
    let mut files = Vec::new();
    for dir in ["crates", "src", "vendor", "perfbench"] {
        collect_files(Path::new(dir), &mut files);
    }
    files.extend(["Cargo.toml", "Cargo.lock"].map(PathBuf::from));
    files.sort();
    let mut hasher = cdstore_crypto::sha256::Sha256::new();
    for file in files {
        if let Ok(bytes) = std::fs::read(&file) {
            hasher.update(file.to_string_lossy().as_bytes());
            hasher.update(&(bytes.len() as u64).to_le_bytes());
            hasher.update(&bytes);
        }
    }
    hasher.finalize()[..8]
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// One JSON line recording what the result depends on besides the code:
/// workload, seed, cores, CPU features, the kernel backends dispatch chose,
/// and whether `CDSTORE_FORCE_SCALAR` was set.
pub fn environment(workload: &str, seed: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let force_scalar = std::env::var("CDSTORE_FORCE_SCALAR").ok();
    let fields = [
        ("workload", json_str(workload)),
        ("seed", seed.to_string()),
        ("trace", trace.to_string()),
        ("nproc", nproc.to_string()),
        ("cpu_aes_ni", cpu_has("aes").to_string()),
        ("cpu_sha_ni", cpu_has("sha").to_string()),
        ("cpu_avx2", cpu_has("avx2").to_string()),
        (
            "gf_region_backend",
            json_str(cdstore_gf::region::Backend::active().name()),
        ),
        (
            "sha256_backend",
            json_str(cdstore_crypto::sha256::Backend::active().name()),
        ),
        (
            "force_scalar",
            force_scalar.map_or("null".into(), |v| json_str(&v)),
        ),
        ("commit", json_str(&commit())),
        ("source_sha256", json_str(&source_digest())),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{\"env\": {{{}}}}}", body.join(", "))
}

/// CPU seconds this process (every thread) has run so far, from
/// `CLOCK_PROCESS_CPUTIME_ID`. On a KVM guest with paravirt steal accounting
/// this excludes time the host gave the vCPU to other guests, and it never
/// counts time a thread spent waiting to be woken.
pub fn process_cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and the
    // clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_follow_metric_names() {
        assert_eq!(unit_of("backup_MB_per_cpu_s"), "MB/cpu_s");
        assert_eq!(unit_of("restore_cpu_p90_ms"), "ms");
        assert_eq!(unit_of("wall.backup_MBps"), "MB/s");
        assert_eq!(unit_of("setup_s"), "s");
        assert_eq!(unit_of("rpc.gc.s"), "s");
    }

    #[test]
    fn process_cpu_clock_counts_work_not_sleep() {
        let start = process_cpu_seconds();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = process_cpu_seconds() - start;
        let mut x = 1u64;
        let busy = std::time::Instant::now();
        while busy.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let worked = process_cpu_seconds() - start - slept;
        assert!(slept < 0.025, "sleeping cost {slept} CPU seconds");
        assert!(worked > 0.0, "50 ms of work cost no CPU time");
    }
}
