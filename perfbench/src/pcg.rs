//! `pcg`: IC(0)-preconditioned CG on a block-shuffled 3D 7-point Laplacian.
//!
//! The paper's motivating use: the forward plan over `L` and the backward
//! plan over `Lᵀ` are built once and reused for every preconditioner
//! application of a sequence of single-RHS solves, so the executor and
//! kernel layers do almost all the work. Every right-hand side is solved
//! with the 2-core growlocal preconditioner and with its
//! `growlocal@serial` twin: the serial one gives the end-to-end figures,
//! the 2-core one is printed beside them (see [`crate::stats`] for why).

use crate::check::{self, Csr, PCG_TOL, SOLVE_TOL};
use crate::common::{
    self, Built, Layers, Operand, Rebind, Record, Summary, Sweep, CORES, SERIAL, SETUPS_PER_ROUND,
    SPECS,
};
use crate::stats::{Samples, Stat};
use crate::trace::{span, timed};
use crate::Ctx;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sptrsv_exec::{Orientation, SolvePlan, SolveWorkspace};
use sptrsv_sparse::factor::{ichol0, IcholOptions};
use sptrsv_sparse::gen::block_shuffle_permutation;
use sptrsv_sparse::gen::grid::{grid3d_laplacian, Stencil3D};
use sptrsv_sparse::linalg::{axpy, dot, norm2, spmv};
use sptrsv_sparse::CsrMatrix;
use std::time::Instant;

const MAX_ITERATIONS: usize = 2000;

/// Seed of the block shuffle: the matrix is fixed, and the workload seed
/// draws the right-hand sides and the re-factorization values. Shuffled
/// anew, the structure moved `tune_s` by ±12 % between seeds.
const MATRIX_SEED: u64 = 0x9C7;

/// Right-hand sides solved between two auto resolutions.
const RHS_PER_ROUND: usize = 4;

struct Sizes {
    dim: usize,
    block: usize,
    n_rhs: usize,
}

/// The two sweeps of `M⁻¹ = L⁻ᵀ L⁻¹`, with their reusable buffers.
struct Preconditioner<'p> {
    fwd: &'p SolvePlan,
    bwd: &'p SolvePlan,
    fwd_ws: SolveWorkspace,
    bwd_ws: SolveWorkspace,
    y: Vec<f64>,
    /// Wall time of each application, and of each sweep.
    apply_s: Samples,
    fwd_s: Samples,
    bwd_s: Samples,
}

impl Preconditioner<'_> {
    fn apply(&mut self, r: &[f64], z: &mut [f64], id: u64) {
        let start = Instant::now();
        let ((), f) =
            timed("exec.solve.fwd", id, || self.fwd.solve_into(r, &mut self.y, &mut self.fwd_ws));
        let ((), b) =
            timed("exec.solve.bwd", id, || self.bwd.solve_into(&self.y, z, &mut self.bwd_ws));
        self.apply_s.push(start.elapsed().as_secs_f64());
        self.fwd_s.push(f);
        self.bwd_s.push(b);
    }
}

/// Time spent in the sparse layer's Krylov kernels.
#[derive(Default)]
struct Krylov {
    secs: f64,
}

impl Krylov {
    fn run<R>(&mut self, name: &str, id: u64, f: impl FnOnce() -> R) -> R {
        let (out, s) = timed(name, id, f);
        self.secs += s;
        out
    }
}

/// PCG's vectors, allocated once so the timed loop does not allocate.
struct Vectors {
    x: Vec<f64>,
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
    /// Wall time of each whole iteration of the solve in progress.
    iter_s: Vec<f64>,
}

impl Vectors {
    fn new(n: usize) -> Vectors {
        let zero = || vec![0.0; n];
        Vectors { x: zero(), r: zero(), z: zero(), p: zero(), ap: zero(), iter_s: Vec::new() }
    }
}

/// PCG with one preconditioner over the right-hand-side sequence, and what
/// its checked solves measured.
struct Solver<'p> {
    m: Preconditioner<'p>,
    /// Per right-hand side: PCG wall times and iterations; per solve, its
    /// Krylov-kernel time; per whole iteration, its wall time.
    pcg_s: Vec<Samples>,
    iterations: Vec<usize>,
    krylov_s: Samples,
    iter_s: Samples,
}

impl<'p> Solver<'p> {
    fn new(fwd: &'p SolvePlan, bwd: &'p SolvePlan, n_rhs: usize) -> Solver<'p> {
        Solver {
            m: Preconditioner {
                fwd,
                bwd,
                fwd_ws: fwd.workspace(),
                bwd_ws: bwd.workspace(),
                y: vec![0.0; fwd.internal_matrix().n_rows()],
                apply_s: Samples::default(),
                fwd_s: Samples::default(),
                bwd_s: Samples::default(),
            },
            pcg_s: vec![Samples::default(); n_rhs],
            iterations: vec![0; n_rhs],
            krylov_s: Samples::default(),
            iter_s: Samples::default(),
        }
    }

    /// One checked PCG solve of right-hand side `j`.
    fn solve(
        &mut self,
        ctx: &mut Ctx,
        a: &CsrMatrix,
        a_csr: Csr<'_>,
        b: &[f64],
        j: usize,
        v: &mut Vectors,
    ) {
        let id = 100 + j as u64;
        let mut k = Krylov::default();
        let (its, secs) = timed("bench.pcg", id, || pcg(a, b, v, &mut self.m, &mut k, id));
        let ok = match its {
            None => Err(format!("no convergence in {MAX_ITERATIONS} iterations")),
            Some(its) => {
                check::residual_within(a_csr, &v.x, b, PCG_TOL).map(|()| self.iterations[j] = its)
            }
        };
        if ctx.tally.record(|| format!("pcg rhs {j}"), ok) {
            self.pcg_s[j].push(secs);
            self.krylov_s.push(k.secs);
            v.iter_s.iter().for_each(|&t| self.iter_s.push(t));
        }
    }

    /// Time to solution of the sequence: its iterations at the `stat`
    /// iteration time. A whole PCG solve takes tens of milliseconds and
    /// each right-hand side is solved only once or twice a round; pooled,
    /// the iterations give the statistic thousands of samples.
    fn sequence_s(&self, stat: Stat) -> f64 {
        self.iterations.iter().sum::<usize>() as f64 * stat(&self.iter_s)
    }

    fn note(&self, ctx: &mut Ctx, suffix: &str, stat: Stat) {
        ctx.note(&format!("pcg_s{suffix}"), self.sequence_s(stat), "s");
        ctx.note(&format!("pcg.wall_s{suffix}"), self.pcg_s.iter().map(stat).sum(), "s");
        ctx.note(&format!("pcg.iteration_ms{suffix}"), stat(&self.iter_s) * 1e3, "ms");
        ctx.note(&format!("pcg.iteration_samples{suffix}"), self.iter_s.len() as f64, "count");
        ctx.note(
            &format!("pcg.iterations{suffix}"),
            self.iterations.iter().sum::<usize>() as f64,
            "count",
        );
        ctx.note(&format!("precond_ms{suffix}"), stat(&self.m.apply_s) * 1e3, "ms");
        ctx.note(&format!("sparse.krylov_ms{suffix}"), stat(&self.krylov_s) * 1e3, "ms");
        ctx.note(&format!("exec.bwd_ms{suffix}"), stat(&self.m.bwd_s) * 1e3, "ms");
    }
}

/// PCG on `A x = b` from `x = 0` to a relative residual of `PCG_TOL`;
/// returns the iteration count, or `None` without convergence. The wall
/// time of every whole iteration (all but the last, which stops at the
/// residual test) goes to `v.iter_s`.
fn pcg(
    a: &CsrMatrix,
    b: &[f64],
    v: &mut Vectors,
    m: &mut Preconditioner<'_>,
    k: &mut Krylov,
    id: u64,
) -> Option<usize> {
    let Vectors { x, r, z, p, ap, iter_s } = v;
    iter_s.clear();
    x.fill(0.0);
    r.copy_from_slice(b);
    m.apply(r, z, id);
    p.copy_from_slice(z);
    let mut rz = k.run("sparse.dot", id, || dot(r, z));
    let nb = k.run("sparse.norm2", id, || norm2(b));
    for it in 1..=MAX_ITERATIONS {
        let start = Instant::now();
        k.run("sparse.spmv", id, || spmv(a, p, ap));
        let alpha = rz / k.run("sparse.dot", id, || dot(p, ap));
        k.run("sparse.axpy", id, || axpy(alpha, p, x));
        k.run("sparse.axpy", id, || axpy(-alpha, ap, r));
        if !(k.run("sparse.norm2", id, || norm2(r)) / nb >= PCG_TOL) {
            return Some(it);
        }
        m.apply(r, z, id);
        let rz_new = k.run("sparse.dot", id, || dot(r, z));
        let beta = rz_new / rz;
        rz = rz_new;
        for (pi, zi) in p.iter_mut().zip(z.iter()) {
            *pi = zi + beta * *pi;
        }
        iter_s.push(start.elapsed().as_secs_f64());
    }
    None
}

/// The result of one set-up and its process CPU time: `ichol0`, the
/// transpose and both growlocal plan builds (the benchmark's checks
/// excluded).
struct SetUp {
    ops: Vec<Operand>,
    fwd: Built,
    bwd: Built,
    secs: f64,
    ichol: f64,
}

fn set_up(ctx: &mut Ctx, a: &CsrMatrix, rng: &mut SmallRng) -> Option<SetUp> {
    let _span = span("bench.setup", 0);
    let cpu = crate::host::process_cpu_s();
    let (l, ichol) = timed("sparse.ichol0", 0, || ichol0(a, &IcholOptions::default()));
    let l = match l {
        Ok(l) => l,
        Err(e) => {
            ctx.tally.record(|| "ichol0".into(), Err(e.to_string()));
            return None;
        }
    };
    let (lt, _) = timed("sparse.transpose", 0, || l.transpose());
    let factor_cpu_s = crate::host::process_cpu_s() - cpu;
    let ops = vec![
        Operand::new(1, "L", "pcg", l, Orientation::Lower, rng),
        Operand::new(2, "Lt", "pcg", lt, Orientation::Upper, rng),
    ];
    let fwd = common::build(ctx, &ops[0], "growlocal", CORES)?;
    let bwd = common::build(ctx, &ops[1], "growlocal", CORES)?;
    let secs = factor_cpu_s + fwd.build_cpu_s + bwd.build_cpu_s;
    Some(SetUp { ops, fwd, bwd, secs, ichol })
}

pub fn run(ctx: &mut Ctx) {
    let s = if ctx.smoke() {
        Sizes { dim: 10, block: 8, n_rhs: 4 }
    } else {
        Sizes { dim: 24, block: 32, n_rhs: 8 }
    };
    let a = grid3d_laplacian(s.dim, s.dim, s.dim, Stencil3D::SevenPoint, 0.05);
    let mut matrix_rng = SmallRng::seed_from_u64(MATRIX_SEED);
    let shuffle = block_shuffle_permutation(a.n_rows(), s.block, &mut matrix_rng);
    let mut rng = SmallRng::seed_from_u64(ctx.seed ^ 0x9C6);
    let a = a.symmetric_permute(&shuffle).expect("square");
    let n = a.n_rows();
    let rhs: Vec<Vec<f64>> = (0..s.n_rhs).map(|_| common::random_vec(n, &mut rng)).collect();

    // Set-up: once here, then `SETUPS_PER_ROUND` more times in every
    // measured round, so the median covers the whole run.
    let mut layers = Layers::default();
    let (mut setup_s, mut ichol_s) = (Samples::default(), Samples::default());
    let Some(SetUp { ops, fwd, bwd, secs, ichol }) = set_up(ctx, &a, &mut rng) else { return };
    setup_s.push(secs);
    ichol_s.push(ichol);
    if ctx.traced {
        common::replay(ctx, &mut layers, &ops[0], "growlocal", CORES, fwd.build_s, Record::Both);
        common::replay(ctx, &mut layers, &ops[1], "growlocal", CORES, bwd.build_s, Record::Both);
        layers.setups += 1;
    }

    // Reference plans of the other specs (outside `setup_s`).
    let mut plans: Vec<Vec<Built>> = vec![vec![fwd], vec![bwd]];
    for (oi, op) in ops.iter().enumerate() {
        for spec in SPECS.iter().copied().filter(|s| *s != "growlocal") {
            if let Some(built) = common::build(ctx, op, spec, CORES) {
                if ctx.traced {
                    common::replay(
                        ctx,
                        &mut layers,
                        op,
                        spec,
                        CORES,
                        built.build_s,
                        Record::Operand,
                    );
                }
                plans[oi].push(built);
            }
        }
    }
    if ctx.traced {
        common::describe(&ops);
    }
    let mut rebinds: Vec<Rebind> =
        (0..ops.len()).filter_map(|i| Rebind::new(ctx, &ops, i, &mut rng)).collect();

    let a_csr = Csr::of(&a);
    let serial_at =
        |oi: usize| plans[oi].iter().position(|b| b.spec == SERIAL).expect("serial plan built");
    let (fs, bs) = (serial_at(0), serial_at(1));
    // The serial preconditioner sets the end-to-end figures; the 2-core
    // one is the paper's use, reported beside them (see `stats`).
    let mut serial = Solver::new(&plans[0][fs].plan, &plans[1][bs].plan, rhs.len());
    let mut parallel = Solver::new(&plans[0][0].plan, &plans[1][0].plan, rhs.len());
    let mut sweep = Sweep::new(&ops, &plans, &mut rng);
    let mut next = 0;
    let mut v = Vectors::new(n);
    ctx.run_rounds(2, |ctx, _| {
        for _ in 0..RHS_PER_ROUND {
            let j = next % rhs.len();
            next += 1;
            for solver in [&mut serial, &mut parallel] {
                solver.solve(ctx, &a, a_csr, &rhs[j], j, &mut v);
                // A sampled preconditioner application against the
                // benchmark's own forward and backward substitution.
                solver.m.apply(&rhs[j], &mut v.z, 100 + j as u64);
                let ok = common::reference(&ops[0].matrix, Orientation::Lower, &rhs[j])
                    .and_then(|y| common::reference(&ops[1].matrix, Orientation::Upper, &y))
                    .and_then(|want| check::agree(&v.z, &want, SOLVE_TOL));
                ctx.tally.record(|| format!("preconditioner rhs {j}"), ok);
            }
            sweep.run(ctx, &ops, &plans);
            for rebind in rebinds.iter_mut() {
                rebind.round(ctx, &ops);
            }
        }
        for rebind in rebinds.iter_mut().filter(|r| r.tunes()) {
            rebind.tune(ctx, &ops);
        }
        for _ in 0..SETUPS_PER_ROUND {
            let Some(again) = set_up(ctx, &a, &mut rng) else { continue };
            setup_s.push(again.secs);
            ichol_s.push(again.ichol);
            if ctx.traced {
                let ops = &again.ops;
                common::replay(
                    ctx,
                    &mut layers,
                    &ops[0],
                    "growlocal",
                    CORES,
                    again.fwd.build_s,
                    Record::Setup,
                );
                common::replay(
                    ctx,
                    &mut layers,
                    &ops[1],
                    "growlocal",
                    CORES,
                    again.bwd.build_s,
                    Record::Setup,
                );
                layers.setups += 1;
            }
        }
    });

    serial.note(ctx, "", Samples::median);
    parallel.note(ctx, ".2core", Samples::low);
    ctx.note("sparse.ichol_ms", ichol_s.median() * 1e3, "ms");
    ctx.note("input.rows", n as f64, "count");
    ctx.note("input.nnz_l", ops[0].matrix.nnz() as f64, "count");
    let summary = Summary {
        setup_s,
        rhs_s: serial.sequence_s(Samples::median),
        rhs_ms: serial.m.apply_s.median() * 1e3,
        plans: &plans,
        sweep: &sweep,
        rebinds: &rebinds,
        fwd_ms: parallel.m.fwd_s.low() * 1e3,
        layers: &layers,
    };
    summary.emit(ctx);
}
