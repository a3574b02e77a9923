//! The host record, with a probe of whether the host runs both vCPUs at once.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// Host record: CPU model, nproc, sockets, cache sizes, git rev and date.
pub fn record() -> Vec<(&'static str, String)> {
    let cpuinfo = read("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .filter(|l| l.starts_with(key))
            .filter_map(|l| l.split_once(':').map(|(_, v)| v.trim().to_string()))
            .collect::<Vec<_>>()
    };
    let model = field("model name").into_iter().next().unwrap_or_else(|| "unknown".into());
    let mut sockets = field("physical id");
    sockets.sort();
    sockets.dedup();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cache = |level: &str| {
        (0..8)
            .filter_map(|i| {
                let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
                let lvl = read(&format!("{dir}/level"))?;
                let kind = read(&format!("{dir}/type"))?;
                (lvl.trim() == level && kind.trim() != "Instruction")
                    .then(|| read(&format!("{dir}/size")).map(|s| s.trim().to_string()))
                    .flatten()
            })
            .next()
            .unwrap_or_else(|| "unknown".into())
    };
    vec![
        ("host.cpu_model", model),
        ("host.handoff_ns", format!("{:.0} (see `host::handoff_ns`)", handoff_ns())),
        ("host.nproc", nproc.to_string()),
        ("host.sockets", sockets.len().max(1).to_string()),
        ("host.l2_per_core", cache("2")),
        ("host.llc", cache("3")),
        ("host.git_rev", git_rev()),
        ("host.date_utc", utc_date()),
    ]
}

/// Nanoseconds two spinning threads take to pass a token to each other, per
/// pass over 20 ms (the median of three tries). A few hundred while the
/// host runs this VM's two vCPUs at once; many thousands in the stretches,
/// minutes long, when it does not, in which every 2-core solve slows by 2x
/// or more while single-thread work keeps its speed.
pub fn handoff_ns() -> f64 {
    const WINDOW: Duration = Duration::from_millis(20);
    let once = || {
        let token = AtomicU64::new(0);
        let deadline = Instant::now() + WINDOW;
        let pass = |parity: u64| {
            while Instant::now() < deadline {
                if token.load(Ordering::Acquire) % 2 == parity {
                    token.fetch_add(1, Ordering::AcqRel);
                } else {
                    std::hint::spin_loop();
                }
            }
        };
        std::thread::scope(|s| {
            s.spawn(|| pass(1));
            pass(0);
        });
        WINDOW.as_nanos() as f64 / token.load(Ordering::Relaxed).max(1) as f64
    };
    crate::stats::median(&[once(), once(), once()])
}

/// CPU time of this process (every thread), in seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`). The guest kernel leaves out the time the
/// host ran another tenant on a vCPU (the steal time of `/proc/stat`),
/// which wall time includes.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    t.sec as f64 + t.nsec as f64 * 1e-9
}

/// Seconds of steal time so far, summed over this VM's vCPUs: time the
/// host ran something else while a vCPU had work (`/proc/stat`, in
/// 1/100 s).
pub fn steal_s() -> f64 {
    let stat = read("/proc/stat").unwrap_or_default();
    let steal = stat.lines().next().and_then(|cpu| cpu.split_whitespace().nth(8));
    steal.and_then(|s| s.parse::<f64>().ok()).map_or(f64::NAN, |ticks| ticks / 100.0)
}

/// The checked-out commit, read from `.git` when the run is inside a git
/// working tree.
fn git_rev() -> String {
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(&format!(".git/{r}")).map_or_else(
            || {
                read(".git/packed-refs")
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .map(|l| l[..l.len() - r.len()].trim().into())
                    })
                    .unwrap_or_else(|| format!("unknown ({r})"))
            },
            |s| s.trim().to_string(),
        ),
    }
}

fn utc_date() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs()) as i64;
    // Civil date from days since 1970-01-01 (H. Hinnant's algorithm).
    let z = secs.div_euclid(86_400) + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    let tod = secs.rem_euclid(86_400);
    format!("{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z", tod / 3600, tod / 60 % 60, tod % 60)
}
