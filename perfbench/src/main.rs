//! End-to-end benchmark of the sptrsv workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload pcg|onboard|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run prints a host record, every metric by name with its unit, the
//! operations attempted and failed, and as its last line one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`). `--trace 0` reports the
//! end-to-end metrics; `--trace 1` replays the plan builds layer by layer,
//! records spans (written to `perfbench/out/`) and reports the per-layer
//! metrics. See `perfbench/README.md` for what each workload and metric is.
//!
//! `host.rs` declares `clock_gettime` itself, the one `unsafe` call: the
//! benchmark depends on nothing but the workspace crates.

// Comparisons are written `!(err <= tol)` on purpose: a NaN must fail them.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

mod check;
mod common;
mod host;
mod onboard;
mod pcg;
mod serve;
mod stats;
mod trace;

use check::Tally;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Problem sizes: the measured configuration, or a smoke scale that runs
/// every check in seconds (the benchmark's own tests use it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// State of one benchmark run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub size: Size,
    pub tally: Tally,
    /// End-to-end metrics (the JSON of an untraced run).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics every workload reports (the JSON of a traced run).
    pub layer: Vec<Metric>,
    /// Workload-specific figures, printed by name but kept out of the JSON
    /// (whose metric set is the same on every workload).
    pub notes: Vec<Metric>,
    /// Wall time of each measured round, and whether it was traced.
    pub rounds: Vec<(bool, f64)>,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, traced: bool, size: Size) -> Ctx {
        Ctx {
            seed,
            seconds,
            traced,
            size,
            tally: Tally::default(),
            e2e: Vec::new(),
            layer: Vec::new(),
            notes: Vec::new(),
            rounds: Vec::new(),
        }
    }

    pub fn smoke(&self) -> bool {
        self.size == Size::Smoke
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric { name: name.into(), value, unit });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layer.push(Metric { name: name.into(), value, unit });
    }

    pub fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        self.notes.push(Metric { name: name.into(), value, unit });
    }

    /// Runs measured rounds until `seconds` have passed (at least
    /// `min_rounds`). A traced run alternates untraced and traced rounds so
    /// it can report its own overhead (at least two of each).
    pub fn run_rounds(&mut self, min_rounds: usize, mut round: impl FnMut(&mut Ctx, usize)) {
        let start = Instant::now();
        let mut r = 0;
        let min_rounds = if self.traced { min_rounds.max(4) } else { min_rounds };
        while r < min_rounds || start.elapsed().as_secs_f64() < self.seconds {
            let traced = self.traced && r % 2 == 1;
            trace::set_enabled(traced);
            let t = Instant::now();
            let span = trace::span("bench.round", r as u64);
            round(self, r);
            drop(span);
            self.rounds.push((traced, t.elapsed().as_secs_f64()));
            r += 1;
        }
        trace::set_enabled(self.traced);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Pcg,
    Onboard,
    Serve,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "pcg" => Some(Workload::Pcg),
            "onboard" => Some(Workload::Onboard),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Pcg => "pcg",
            Workload::Onboard => "onboard",
            Workload::Serve => "serve",
        }
    }
}

/// Runs one workload to its end and returns the finished context.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool, size: Size) -> Ctx {
    let mut ctx = Ctx::new(seed, seconds, traced, size);
    trace::set_enabled(traced);
    match workload {
        Workload::Pcg => pcg::run(&mut ctx),
        Workload::Onboard => onboard::run(&mut ctx),
        Workload::Serve => serve::run(&mut ctx),
    }
    trace::set_enabled(false);
    ctx
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} outside 0..=3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        traced,
    })
}

fn json_result(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for m in metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload pcg|onboard|serve --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    for (key, value) in host::record() {
        println!("{key} = {value}");
    }
    println!("workload = {}", args.workload.name());
    println!("seed = {} (workload seed)", args.seed);
    println!("seconds = {} s (measured phase)", args.seconds);
    println!("trace = {}", u8::from(args.traced));
    let (started, steal) = (Instant::now(), host::steal_s());
    let ctx = run(args.workload, args.seed, args.seconds, args.traced, Size::Full);
    println!("wall = {} s", started.elapsed().as_secs_f64());
    println!("rounds = {} measured rounds", ctx.rounds.len());
    println!(
        "host.steal_s = {} s (steal time of both vCPUs during the run)",
        host::steal_s() - steal
    );
    println!("host.handoff_ns.end = {:.0} (after the run)", host::handoff_ns());
    print_metrics("end-to-end", &ctx.e2e);
    print_metrics("workload figures", &ctx.notes);
    if args.traced {
        println!("# end-to-end figures above come from a traced run and are not for comparison");
        print_metrics("per-layer", &ctx.layer);
        let spans = trace::take();
        println!("# self time by layer (spans, total ms, self ms)");
        for (layer, (count, total, own)) in trace::layer_table(&spans) {
            println!(
                "self.{layer} = {count} spans, {} ms, {} ms",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        let path = PathBuf::from(format!(
            "perfbench/out/trace_{}_{}.json",
            args.workload.name(),
            args.seed
        ));
        match trace::write_chrome(&path, &spans) {
            Ok(()) => println!("trace_file = {} ({} spans)", path.display(), spans.len()),
            Err(e) => eprintln!("writing {}: {e}", path.display()),
        }
    }
    println!("attempted = {} operations", ctx.tally.attempted);
    println!("failed = {} operations", ctx.tally.failed);
    let metrics = if args.traced { &ctx.layer } else { &ctx.e2e };
    let correct = ctx.tally.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    println!("{}", json_result(correct, &ctx.tally, metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

    /// Every workload at smoke scale, untraced and traced: no operation
    /// fails, every metric is finite, and both runs report the same metric
    /// names on every workload.
    #[test]
    fn smoke_runs_every_check() {
        let mut e2e_names: Option<Vec<String>> = None;
        let mut layer_names: Option<Vec<String>> = None;
        for workload in [Workload::Pcg, Workload::Onboard, Workload::Serve] {
            for traced in [false, true] {
                let ctx = run(workload, 7, 0.0, traced, Size::Smoke);
                let _ = trace::take();
                assert!(ctx.tally.attempted > 0, "{workload:?} attempted nothing");
                assert_eq!(ctx.tally.failed, 0, "{workload:?} traced={traced} had failures");
                let metrics = if traced { &ctx.layer } else { &ctx.e2e };
                for m in metrics.iter().chain(&ctx.notes) {
                    assert!(m.value.is_finite(), "{workload:?} {} = {}", m.name, m.value);
                }
                let names: Vec<String> = metrics.iter().map(|m| m.name.clone()).collect();
                for m in metrics {
                    let at = BENCHMARK.find(&format!("\"name\": \"{}\"", m.name));
                    let entry =
                        at.map(|at| &BENCHMARK[at..at + BENCHMARK[at..].find('}').unwrap()]);
                    let unit = format!("\"unit\": \"{}\"", m.unit);
                    assert!(
                        entry.is_some_and(|e| e.contains(&unit)),
                        "{} ({}) not in BENCHMARK.json",
                        m.name,
                        m.unit
                    );
                }
                let expected = if traced { &mut layer_names } else { &mut e2e_names };
                match expected {
                    None => *expected = Some(names),
                    Some(e) => assert_eq!(e, &names, "{workload:?} metric set differs"),
                }
            }
        }
        let listed = BENCHMARK.matches("\"name\":").count();
        let reported = 3 + e2e_names.map_or(0, |n| n.len()) + layer_names.map_or(0, |n| n.len());
        assert_eq!(listed, reported, "BENCHMARK.json lists metrics the benchmark does not report");
    }

    #[test]
    fn result_line_is_json_shaped() {
        let tally = Tally { attempted: 3, failed: 0 };
        let m = [Metric { name: "setup_s".into(), value: 0.5, unit: "s" }];
        assert_eq!(
            json_result(true, &tally, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
