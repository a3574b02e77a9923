//! In-memory span recording around the benchmark's calls into each layer,
//! written out as Chrome Trace Event JSON at the end of a traced run.
//!
//! Spans are recorded only while enabled; the disabled path is one relaxed
//! atomic load, so untraced runs time the same code.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The span open on the same thread when this one started (0: none).
    pub parent: u64,
    pub name: String,
    /// The matrix, plan or request the call worked on.
    pub arg: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub tid: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Records a span from creation until drop, if tracing is enabled.
pub struct Guard {
    open: Option<(u64, u64, String, u64, u64)>,
}

pub fn span(name: impl Into<String>, arg: u64) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied().unwrap_or(0);
        open.push(id);
        parent
    });
    Guard { open: Some((id, parent, name.into(), arg, now_ns())) }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((id, parent, name, arg, start_ns)) = self.open.take() {
            let end_ns = now_ns();
            OPEN.with(|open| open.borrow_mut().retain(|&o| o != id));
            let tid = TID.with(|t| *t);
            let span = Span { id, parent, name, arg, start_ns, end_ns, tid };
            if let Ok(mut spans) = SPANS.lock() {
                spans.push(span);
            }
        }
    }
}

/// Runs `f` inside a span and returns its result with its wall time in
/// seconds (timed whether or not tracing is on).
pub fn timed<R>(name: &str, arg: u64, f: impl FnOnce() -> R) -> (R, f64) {
    let guard = span(name, arg);
    let start = Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    drop(guard);
    (out, secs)
}

/// Removes and returns every recorded span, in start order.
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *SPANS.lock().expect("span recorder poisoned"));
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Self time of each span: its duration minus the part of its interval
/// covered by its child spans.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            let mut cursor = s.start_ns;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per layer: (spans, total ns, self ns).
pub fn layer_table(spans: &[Span]) -> BTreeMap<String, (u64, u64, u64)> {
    let mut table: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let entry = table.entry(s.layer().to_string()).or_default();
        entry.0 += 1;
        entry.1 += s.end_ns - s.start_ns;
        entry.2 += self_ns;
    }
    table
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Writes `spans` as Chrome Trace Event JSON (complete `X` events).
pub fn write_chrome(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    for (i, (s, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
             \"args\":{{\"span\":{},\"parent\":{},\"id\":{},\"self_us\":{:.3}}}}}{sep}",
            json_str(&s.name),
            json_str(s.layer()),
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.tid,
            s.id,
            s.parent,
            s.arg,
            self_ns as f64 / 1e3,
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            name: "exec.build".into(),
            arg: 0,
            start_ns,
            end_ns,
            tid: 1,
        };
        let spans = vec![span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 50, 60)];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
        assert_eq!(layer_table(&spans)["exec"], (3, 130, 100));
    }
}
