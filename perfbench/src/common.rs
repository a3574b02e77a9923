//! What every workload shares: operands with their reference solutions,
//! checked plan builds, the layer-by-layer replay of a build, the solve
//! sweep, the warm / re-factorization / auto phases, and the metric set.

use crate::check::{self, Csr, SOLVE_TOL};
use crate::stats::{geomean, median, Samples, Stat};
use crate::trace::{self, timed};
use crate::Ctx;
use rand::rngs::SmallRng;
use rand::Rng;
use sptrsv_core::registry::{self, ExecModel, SchedulerSpec};
use sptrsv_core::{reorder_for_locality, CompiledSchedule, KernelPlan};
use sptrsv_dag::{approximate_transitive_reduction, wavefronts, SolveDag};
use sptrsv_exec::{CacheOutcome, MachineProfile, Orientation, PlanBuilder, PlanCache, SolvePlan};
use sptrsv_sparse::{CsrMatrix, Permutation};
use sptrsv_tune::Tuner;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Cores every plan targets (this host has two).
pub const CORES: usize = 2;

/// The paper's comparison: every operand is built with each of these.
pub const SPECS: [&str; 6] = ["growlocal", "funnel-gl", "hdagg", "spmp", "wavefront", SERIAL];

/// The single-thread plan every operand is also built with: the plan
/// behind the end-to-end solve metrics (see [`crate::stats`] for why the
/// 2-core plans' solve times are per-layer metrics).
pub const SERIAL: &str = "growlocal@serial";

/// 2-core specs with per-layer `exec.solve_ms.*` metrics.
pub const PARALLEL_TIMED: [&str; 3] = ["growlocal", "hdagg", "spmp"];

/// Set-ups at the end of each measured round of `pcg` and `serve`: one takes
/// tens of milliseconds, so their `setup_s` is a median over many.
pub const SETUPS_PER_ROUND: usize = 3;

/// Right-hand sides of one multi-RHS solve: the `serve` workload's batch.
pub const MULTI_RHS: usize = 8;

/// Parallel schedulers with per-layer schedule-time, barrier and imbalance
/// metrics.
pub const SCHEDULERS: [&str; 5] = ["growlocal", "funnel-gl", "hdagg", "spmp", "wavefront"];

pub fn random_vec(n: usize, rng: &mut SmallRng) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// One triangular operand as a user would hand it to the planner, with a
/// right-hand side and the benchmark's own solution for it.
pub struct Operand {
    pub id: u64,
    pub name: String,
    pub family: &'static str,
    pub matrix: CsrMatrix,
    pub orientation: Orientation,
    pub b: Vec<f64>,
    pub x_ref: Vec<f64>,
}

impl Operand {
    pub fn new(
        id: u64,
        name: impl Into<String>,
        family: &'static str,
        matrix: CsrMatrix,
        orientation: Orientation,
        rng: &mut SmallRng,
    ) -> Operand {
        let b = random_vec(matrix.n_rows(), rng);
        let x_ref = reference(&matrix, orientation, &b).expect("generated operands are triangular");
        Operand { id, name: name.into(), family, matrix, orientation, b, x_ref }
    }

    pub fn builder(&self) -> PlanBuilder<'_> {
        PlanBuilder::new(&self.matrix).orientation(self.orientation).cores(CORES)
    }

    /// The lower-triangular operand the planner schedules (an upper operand
    /// is conjugated with the index reversal), built here for the replay.
    fn lower(&self) -> CsrMatrix {
        match self.orientation {
            Orientation::Lower => self.matrix.clone(),
            Orientation::Upper => {
                let n = self.matrix.n_rows();
                let reverse =
                    Permutation::from_old_of_new((0..n).rev().collect()).expect("reversal");
                self.matrix.symmetric_permute(&reverse).expect("square")
            }
        }
    }
}

/// Prints the make-up of each operand: rows, non-zeros, wavefronts, DAG
/// sources and the working set of one solve (CSR arrays plus the right-hand
/// side, the solution and the plan's two internal buffers).
pub fn describe(ops: &[Operand]) {
    for op in ops {
        let dag = SolveDag::from_lower_triangular(&op.lower());
        let (n, nnz) = (op.matrix.n_rows(), op.matrix.nnz());
        let bytes = 8 * (n + 1) + 16 * nnz + 4 * 8 * n;
        println!(
            "input {} ({}): rows {n}, nnz {nnz}, wavefronts {}, sources {}, working set {:.0} KiB",
            op.name,
            op.family,
            wavefronts(&dag).n_fronts(),
            dag.sources().len(),
            bytes as f64 / 1024.0
        );
    }
}

/// The benchmark's own substitution for `matrix` in `orientation`.
pub fn reference(
    matrix: &CsrMatrix,
    orientation: Orientation,
    b: &[f64],
) -> Result<Vec<f64>, String> {
    match orientation {
        Orientation::Lower => check::forward_subst(Csr::of(matrix), b),
        Orientation::Upper => check::backward_subst(Csr::of(matrix), b),
    }
}

/// A cold plan with its build time and the latency of its first solve.
pub struct Built {
    pub spec: &'static str,
    pub plan: SolvePlan,
    /// Wall time of the build, and the process CPU time it took (what
    /// `setup_s` sums: see [`crate::host::process_cpu_s`]).
    pub build_s: f64,
    pub build_cpu_s: f64,
    pub first_solve_s: f64,
}

/// Builds `spec` on `op` cold for `cores` cores, checks the schedule's
/// precedence and the first solve against the benchmark's substitution.
pub fn build(ctx: &mut Ctx, op: &Operand, spec: &'static str, cores: usize) -> Option<Built> {
    let cpu = crate::host::process_cpu_s();
    let (plan, build_s) =
        timed("exec.build", op.id, || op.builder().cores(cores).scheduler(spec).build());
    let build_cpu_s = crate::host::process_cpu_s() - cpu;
    let what = || format!("{} {spec} build", op.name);
    let plan = match plan {
        Ok(plan) => plan,
        Err(e) => {
            ctx.tally.record(what, Err(e.to_string()));
            return None;
        }
    };
    let schedule = plan.schedule();
    let prec = check::precedence(
        Csr::of(plan.internal_matrix()),
        schedule.n_cores(),
        schedule.cores(),
        schedule.steps(),
    );
    if !ctx.tally.record(what, prec) {
        return None;
    }
    let mut x = vec![0.0; op.b.len()];
    let mut ws = plan.workspace();
    let ((), first_solve_s) =
        timed("exec.solve", op.id, || plan.solve_into(&op.b, &mut x, &mut ws));
    let ok = ctx.tally.record(
        || format!("{} {spec} first solve", op.name),
        check::agree(&x, &op.x_ref, SOLVE_TOL),
    );
    ok.then_some(Built { spec, plan, build_s, build_cpu_s, first_solve_s })
}

/// Per-layer data gathered by the replays of a traced run.
#[derive(Default)]
pub struct Layers {
    /// Set-ups replayed; the set-up sums below are over all of them.
    pub setups: u32,
    /// Set-up builds: `PlanBuilder::build` time and its replayed share.
    pub build_s: f64,
    pub covered_s: f64,
    pub dag_s: f64,
    pub reorder_s: f64,
    pub compile_s: f64,
    pub kernel_s: f64,
    /// Every build of a scheduler, one per operand.
    pub schedule_s: BTreeMap<&'static str, f64>,
    pub reduce_s: f64,
    pub wavefronts: Vec<f64>,
    pub barriers: BTreeMap<&'static str, Vec<f64>>,
    pub imbalance: BTreeMap<&'static str, Vec<f64>>,
}

/// What a replay adds to [`Layers`]: the split of a `setup_s` build, the
/// per-operand schedule figures, or both.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Record {
    Setup,
    Operand,
    Both,
}

/// Replays a plan build for `cores` cores through the public layer
/// functions, beside the `PlanBuilder::build` that took `build_s`.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    ctx: &mut Ctx,
    layers: &mut Layers,
    op: &Operand,
    spec: &'static str,
    cores: usize,
    build_s: f64,
    record: Record,
) {
    let lower = op.lower();
    let parsed: SchedulerSpec = spec.parse().expect("benchmark specs parse");
    let model = registry::resolve_model(&parsed).expect("benchmark specs resolve");
    let (dag, dag_s) = timed("dag.build", op.id, || SolveDag::from_lower_triangular(&lower));
    let name = parsed.name().to_string();
    let (schedule, schedule_s) = timed(&format!("core.schedule.{name}"), op.id, || {
        registry::build(&parsed, &dag, cores).map(|s| s.schedule(&dag, cores))
    });
    let schedule = match schedule {
        Ok(s) => s,
        Err(e) => {
            ctx.tally.record(|| format!("{} {spec} replay", op.name), Err(e.to_string()));
            return;
        }
    };
    let prec =
        check::precedence(Csr::of(&lower), schedule.n_cores(), schedule.cores(), schedule.steps());
    if !ctx.tally.record(|| format!("{} {spec} replayed schedule", op.name), prec) {
        return;
    }
    let (reordered, reorder_s) =
        timed("core.reorder", op.id, || reorder_for_locality(&lower, &schedule));
    let reordered = reordered.expect("a valid schedule's order is topological");
    let (compiled, compile_s) =
        timed("core.compile", op.id, || CompiledSchedule::from_schedule(&reordered.schedule));
    let (_, kernel_s) =
        timed("core.kernel_detect", op.id, || KernelPlan::detect(&reordered.matrix, &compiled));
    let (final_dag, final_dag_s) =
        timed("dag.build", op.id, || SolveDag::from_lower_triangular(&reordered.matrix));
    let mut covered = dag_s + schedule_s + reorder_s + compile_s + final_dag_s;
    if model == ExecModel::Async {
        let (_, reduce_s) =
            timed("dag.reduce", op.id, || approximate_transitive_reduction(&final_dag));
        if record != Record::Setup {
            layers.reduce_s += reduce_s;
        }
        covered += reduce_s;
    }
    if record != Record::Operand {
        layers.build_s += build_s;
        layers.covered_s += covered;
        layers.dag_s += dag_s + final_dag_s;
        layers.reorder_s += reorder_s;
        layers.compile_s += compile_s;
        layers.kernel_s += kernel_s;
    }
    if model == ExecModel::Serial || record == Record::Setup {
        return;
    }
    let key = SCHEDULERS.iter().copied().find(|s| *s == name).expect("a compared scheduler");
    *layers.schedule_s.entry(key).or_default() += schedule_s;
    // Shifted by one: single-superstep schedules have no barrier.
    layers.barriers.entry(key).or_default().push(schedule.n_barriers() as f64 + 1.0);
    layers.imbalance.entry(key).or_default().push(schedule.stats(&dag).average_imbalance());
    if key == "growlocal" {
        layers.wavefronts.push(wavefronts(&dag).n_fronts() as f64);
    }
}

/// Consecutive solves of one plan per sweep: the steady-state solve time is
/// a statistic of all of them over the run, never the first (cache-cold)
/// one alone.
const SWEEP_REPS: usize = 4;

/// `MULTI_RHS` right-hand sides of one operand, interleaved row by row as
/// `SolvePlan::solve_multi` takes them, with the benchmark's solution of
/// each.
struct Multi {
    b: Vec<f64>,
    want: Vec<Vec<f64>>,
}

impl Multi {
    fn new(op: &Operand, rng: &mut SmallRng) -> Multi {
        let n = op.b.len();
        let b = random_vec(n * MULTI_RHS, rng);
        let want = (0..MULTI_RHS)
            .map(|k| {
                let column: Vec<f64> = (0..n).map(|i| b[i * MULTI_RHS + k]).collect();
                reference(&op.matrix, op.orientation, &column).expect("triangular")
            })
            .collect();
        Multi { b, want }
    }

    /// Every column of `x` against the benchmark's solution.
    fn check(&self, x: &[f64]) -> Result<(), String> {
        if x.len() != self.b.len() {
            return Err(format!("{} values for {}", x.len(), self.b.len()));
        }
        self.want.iter().enumerate().try_for_each(|(k, want)| {
            let column: Vec<f64> = (0..want.len()).map(|i| x[i * MULTI_RHS + k]).collect();
            check::agree(&column, want, SOLVE_TOL).map_err(|e| format!("column {k}: {e}"))
        })
    }
}

/// Solve timings of every plan on every operand.
pub struct Sweep {
    /// `times[op][plan]`: single-RHS `solve_into` wall times.
    pub times: Vec<Vec<Samples>>,
    /// `multi[op]`: `MULTI_RHS`-wide `solve_multi` wall times of the 2-core
    /// growlocal plan, the leased multi-RHS executor path.
    multi: Vec<Samples>,
    inputs: Vec<Multi>,
}

impl Sweep {
    pub fn new(ops: &[Operand], plans: &[Vec<Built>], rng: &mut SmallRng) -> Sweep {
        Sweep {
            times: plans.iter().map(|p| vec![Samples::default(); p.len()]).collect(),
            multi: vec![Samples::default(); ops.len()],
            inputs: ops.iter().map(|op| Multi::new(op, rng)).collect(),
        }
    }

    /// `SWEEP_REPS` back-to-back timed solves of every plan, and as many
    /// multi-RHS solves of the growlocal plan, the last of each checked.
    pub fn run(&mut self, ctx: &mut Ctx, ops: &[Operand], plans: &[Vec<Built>]) {
        for (oi, op) in ops.iter().enumerate() {
            let mut x = vec![0.0; op.b.len()];
            for (pi, built) in plans[oi].iter().enumerate() {
                let mut ws = built.plan.workspace();
                let mut times = [0.0; SWEEP_REPS];
                for t in times.iter_mut() {
                    *t = timed("exec.solve", op.id, || {
                        built.plan.solve_into(&op.b, &mut x, &mut ws)
                    })
                    .1;
                }
                let ok = check::agree(&x, &op.x_ref, SOLVE_TOL);
                if ctx.tally.record(|| format!("{} {} solve", op.name, built.spec), ok) {
                    times.iter().for_each(|&t| self.times[oi][pi].push(t));
                }
                if built.spec != "growlocal" {
                    continue;
                }
                let input = &self.inputs[oi];
                let mut xs = Vec::new();
                let mut times = [0.0; SWEEP_REPS];
                for t in times.iter_mut() {
                    (xs, *t) = timed("exec.solve_multi", op.id, || {
                        built.plan.solve_multi(&input.b, MULTI_RHS)
                    });
                }
                if ctx.tally.record(|| format!("{} multi-RHS solve", op.name), input.check(&xs)) {
                    times.iter().for_each(|&t| self.multi[oi].push(t));
                }
            }
        }
    }

    /// Geometric mean over operands of the low multi-RHS solve time, in ms.
    pub fn multi_ms(&self) -> f64 {
        let lows: Vec<f64> =
            self.multi.iter().filter(|t| !t.is_empty()).map(|t| t.low() * 1e3).collect();
        geomean(&lows)
    }

    /// Geometric mean over operands of the `stat` solve time of `spec`, in ms.
    pub fn solve_ms(&self, plans: &[Vec<Built>], spec: &str, stat: Stat) -> f64 {
        geomean(&self.each(plans, spec, stat)) * 1e3
    }

    /// The `stat` solve time of every operand's plan of `spec`, in s.
    pub fn each(&self, plans: &[Vec<Built>], spec: &str, stat: Stat) -> Vec<f64> {
        plans
            .iter()
            .zip(&self.times)
            .filter_map(|(p, t)| p.iter().position(|b| b.spec == spec).map(|i| stat(&t[i])))
            .collect()
    }
}

/// A growlocal plan that is rebuilt warm from a `PlanCache`, re-bound to new
/// values, and (for lower operands) resolved by the auto-tuner.
pub struct Rebind {
    op: usize,
    cache: Arc<PlanCache>,
    cold: SolvePlan,
    cold_x: Vec<f64>,
    values: CsrMatrix,
    values_ref: Vec<f64>,
    warm_s: Samples,
    refactor_s: Samples,
    /// CPU time of each auto resolution, and its wall time: one takes
    /// 0.2–0.6 s, long enough that the host's steal time moved its wall
    /// time by ±20 % between runs.
    tune_s: Samples,
    tune_wall_s: Samples,
    /// Candidates scored by one auto resolution, and the spec it picked.
    candidates: usize,
    winner: String,
}

impl Rebind {
    /// Sets up (untimed) the cold cached plan, checked against the
    /// benchmark's substitution, and the re-valued operand.
    pub fn new(ctx: &mut Ctx, ops: &[Operand], op: usize, rng: &mut SmallRng) -> Option<Rebind> {
        let o = &ops[op];
        let cache = Arc::new(PlanCache::new(4));
        let cold = match o.builder().cached(&cache).build() {
            Ok(p) => p,
            Err(e) => {
                ctx.tally.record(|| format!("{} cached build", o.name), Err(e.to_string()));
                return None;
            }
        };
        let cold_x = cold.solve(&o.b);
        let ok = check::agree(&cold_x, &o.x_ref, SOLVE_TOL);
        if !ctx.tally.record(|| format!("{} cached cold solve", o.name), ok) {
            return None;
        }
        let m = &o.matrix;
        let new_values: Vec<f64> =
            m.values().iter().map(|v| v * (1.0 + rng.gen_range(-0.05..0.05))).collect();
        let values = CsrMatrix::from_raw(
            m.n_rows(),
            m.n_cols(),
            m.row_ptr().to_vec(),
            m.col_idx().to_vec(),
            new_values,
        )
        .expect("same structure");
        let values_ref = reference(&values, o.orientation, &o.b).expect("triangular");
        let mut rebind = Rebind {
            op,
            cache,
            cold,
            cold_x,
            values,
            values_ref,
            warm_s: Samples::default(),
            refactor_s: Samples::default(),
            tune_s: Samples::default(),
            tune_wall_s: Samples::default(),
            candidates: 0,
            winner: String::new(),
        };
        // The auto-tuner resolves lower operands; its pick is checked once.
        if o.orientation == Orientation::Lower {
            let report = Tuner::new(&o.matrix).cores(CORES).run().map_err(|e| e.to_string());
            let ok = report.and_then(|r| {
                rebind.candidates = r.ranked.len();
                rebind.winner = r.winner.to_string();
                let winner = &rebind.winner;
                let plan = o
                    .builder()
                    .scheduler(winner.as_str())
                    .build()
                    .map_err(|e| format!("{winner}: {e}"))?;
                check::agree(&plan.solve(&o.b), &o.x_ref, SOLVE_TOL)
                    .map_err(|e| format!("{winner}: {e}"))
            });
            ctx.tally.record(|| format!("{} auto pick", o.name), ok);
        }
        Some(rebind)
    }

    /// One warm rebuild and one re-factorization, each checked.
    pub fn round(&mut self, ctx: &mut Ctx, ops: &[Operand]) {
        let op = &ops[self.op];
        let (warm, s) =
            timed("exec.build_warm", op.id, || op.builder().cached(&self.cache).build());
        let ok = warm.map_err(|e| e.to_string()).and_then(|p| {
            if p.cache_outcome() != CacheOutcome::MemoryHit {
                return Err(format!("cache outcome {}", p.cache_outcome()));
            }
            check::bit_identical(&p.solve(&op.b), &self.cold_x)
        });
        if ctx.tally.record(|| format!("{} warm rebuild", op.name), ok) {
            self.warm_s.push(s);
        }
        let (plan, s) =
            timed("exec.with_new_values", op.id, || self.cold.with_new_values(&self.values));
        let ok = plan
            .map_err(|e| e.to_string())
            .and_then(|p| check::agree(&p.solve(&op.b), &self.values_ref, SOLVE_TOL));
        if ctx.tally.record(|| format!("{} re-factorization", op.name), ok) {
            self.refactor_s.push(s);
        }
    }

    /// Whether this operand takes part in the auto resolutions.
    pub fn tunes(&self) -> bool {
        self.candidates > 0
    }

    /// One auto resolution (`Tuner::run`, measure off), checked to score as
    /// many candidates and pick the same spec as at set-up.
    pub fn tune(&mut self, ctx: &mut Ctx, ops: &[Operand]) {
        let op = &ops[self.op];
        let cpu = crate::host::process_cpu_s();
        let (report, s) = timed("tune.run", op.id, || Tuner::new(&op.matrix).cores(CORES).run());
        let cpu = crate::host::process_cpu_s() - cpu;
        let ok = report.map_err(|e| e.to_string()).and_then(|r| {
            let winner = r.winner.to_string();
            if r.ranked.len() != self.candidates || winner != self.winner {
                return Err(format!(
                    "{} candidates scored, picked {winner}; at set-up {}, picked {}",
                    r.ranked.len(),
                    self.candidates,
                    self.winner
                ));
            }
            Ok(())
        });
        if ctx.tally.record(|| format!("{} auto", op.name), ok) {
            self.tune_s.push(cpu);
            self.tune_wall_s.push(s);
        }
    }
}

/// Everything a workload measured, turned into the common metric set.
pub struct Summary<'a> {
    pub setup_s: Samples,
    /// The workload's right-hand-side sequence, and one right-hand side's
    /// latency in ms (medians, single-thread).
    pub rhs_s: f64,
    pub rhs_ms: f64,
    pub plans: &'a [Vec<Built>],
    pub sweep: &'a Sweep,
    pub rebinds: &'a [Rebind],
    /// Low single-RHS forward 2-core growlocal solve, in ms.
    pub fwd_ms: f64,
    pub layers: &'a Layers,
}

/// Sum over operands of the median of each operand's samples, in ms.
fn total_ms<'r>(rebinds: &'r [Rebind], samples: impl Fn(&'r Rebind) -> &'r Samples) -> f64 {
    rebinds.iter().map(samples).filter(|s| !s.is_empty()).map(Samples::median).sum::<f64>() * 1e3
}

impl Summary<'_> {
    pub fn emit(&self, ctx: &mut Ctx) {
        ctx.e2e("setup_s", self.setup_s.median(), "s");
        ctx.e2e("rhs_s", self.rhs_s, "s");
        ctx.e2e("rhs_ms", self.rhs_ms, "ms");
        ctx.e2e("solve_ms.serial", self.sweep.solve_ms(self.plans, SERIAL, Samples::median), "ms");
        ctx.e2e("warm_setup_ms", total_ms(self.rebinds, |r| &r.warm_s), "ms");
        ctx.e2e("refactor_ms", total_ms(self.rebinds, |r| &r.refactor_s), "ms");
        let tune_ms = total_ms(self.rebinds, |r| &r.tune_s);
        ctx.e2e("tune_s", tune_ms / 1e3, "s");
        ctx.note("tune_wall_s", total_ms(self.rebinds, |r| &r.tune_wall_s) / 1e3, "s");
        if !ctx.traced {
            return;
        }
        let l = self.layers;
        // Set-up figures are per set-up: averaged over the replayed ones.
        let per_setup = 1e3 / f64::from(l.setups.max(1));
        ctx.layer("dag.build_ms", l.dag_s * per_setup, "ms");
        ctx.layer("dag.reduce_ms", l.reduce_s * 1e3, "ms");
        ctx.layer("dag.wavefronts", geomean(&l.wavefronts), "count");
        for s in SCHEDULERS {
            ctx.layer(
                &format!("core.schedule_ms.{s}"),
                l.schedule_s.get(s).copied().unwrap_or(f64::NAN) * 1e3,
                "ms",
            );
        }
        ctx.layer("core.reorder_ms", l.reorder_s * per_setup, "ms");
        ctx.layer("core.compile_ms", l.compile_s * per_setup, "ms");
        ctx.layer("core.kernel_detect_ms", l.kernel_s * per_setup, "ms");
        for s in SCHEDULERS {
            let b = l.barriers.get(s).map_or(f64::NAN, |v| geomean(v) - 1.0);
            ctx.layer(&format!("core.barriers.{s}"), b, "count");
        }
        for s in SCHEDULERS {
            let i = l.imbalance.get(s).map_or(f64::NAN, |v| geomean(v));
            ctx.layer(&format!("core.imbalance.{s}"), i, "ratio");
        }
        ctx.layer("exec.build_ms", l.build_s * per_setup, "ms");
        ctx.layer("exec.build_other_ms", (l.build_s - l.covered_s) * per_setup, "ms");
        ctx.layer("exec.fwd_ms", self.fwd_ms, "ms");
        for spec in PARALLEL_TIMED {
            let ms = self.sweep.solve_ms(self.plans, spec, Samples::low);
            ctx.layer(&format!("exec.solve_ms.{spec}"), ms, "ms");
        }
        ctx.layer("exec.solve_multi_ms.growlocal", self.sweep.multi_ms(), "ms");
        let candidates: usize = self.rebinds.iter().map(|r| r.candidates).sum();
        ctx.layer("tune.candidates", candidates as f64, "count");
        ctx.layer("tune.ms_per_candidate", tune_ms / candidates as f64, "ms");
        // Traced against untraced rounds of the same run (same operations).
        let split = |on: bool| -> Vec<f64> {
            ctx.rounds.iter().filter(|r| r.0 == on).map(|r| r.1).collect()
        };
        let overhead = median(&split(true)) / median(&split(false)) - 1.0;
        ctx.layer("trace.overhead_pct", overhead * 100.0, "%");
        self.reference_figures(ctx);
    }

    /// Measured speed-up over the serial plan beside the machine model's,
    /// and growlocal's barrier reduction against the baselines.
    fn reference_figures(&self, ctx: &mut Ctx) {
        let profile = MachineProfile::intel_xeon_22();
        for spec in SCHEDULERS {
            let (mut measured, mut modeled) = (Vec::new(), Vec::new());
            for (plans, times) in self.plans.iter().zip(&self.sweep.times) {
                let find = |s: &str| plans.iter().position(|b| b.spec == s);
                let (Some(p), Some(serial)) = (find(spec), find(SERIAL)) else {
                    continue;
                };
                measured.push(times[serial].low() / times[p].low());
                let sim = |i: usize| {
                    trace::timed("exec.simulate", 0, || plans[i].plan.simulate(&profile)).0
                };
                modeled.push(sim(p).speedup_over(&sim(serial)));
            }
            let (measured, modeled) = (geomean(&measured), geomean(&modeled));
            ctx.note(&format!("ref.speedup_measured.{spec}"), measured, "x");
            ctx.note(&format!("ref.speedup_modeled.{spec}"), modeled, "x");
            ctx.note(
                &format!("ref.model_error_pct.{spec}"),
                (modeled / measured - 1.0) * 100.0,
                "%",
            );
        }
        // Supersteps (barriers + 1), so single-superstep schedules count.
        let steps = |s: &str| self.layers.barriers.get(s).map_or(f64::NAN, |v| geomean(v));
        for base in ["hdagg", "wavefront"] {
            ctx.note(
                &format!("ref.superstep_reduction.growlocal_vs_{base}"),
                steps(base) / steps("growlocal"),
                "x",
            );
        }
    }
}
