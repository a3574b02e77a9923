//! `onboard`: cold plan builds across the paper's matrix families.
//!
//! Every matrix of the SuiteSparse, METIS, Erdős–Rényi and narrow-band
//! suites at `Scale::Medium`, plus natural-order 2D/3D grid lower
//! triangles (single-source DAGs), is built with each spec of the paper's
//! comparison. The DAG, scheduler, reorder and compile layers do most of
//! the work; the plan cache, value re-binding and the auto-tuner run on
//! one matrix per family.

use crate::common::{
    self, Built, Layers, Operand, Rebind, Record, Summary, Sweep, CORES, SERIAL, SPECS,
};
use crate::stats::{median, Samples};
use crate::trace::span;
use crate::Ctx;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sptrsv_datasets::{load_suite, Scale, SuiteKind};
use sptrsv_exec::Orientation;
use sptrsv_sparse::gen::grid::{grid2d_laplacian, grid3d_laplacian, Stencil2D, Stencil3D};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Warm rebuilds and re-factorizations of each family's matrix per auto
/// resolution: each takes a millisecond or two against the resolution's
/// half second, and a run has only two or three rounds.
const REBIND_REPS: usize = 4;

/// The matrix collection is fixed, like the paper's; the workload seed
/// draws the right-hand sides and the re-factorization values. Drawn
/// anew, the random families alone moved `tune_s` by ±25 % between seeds.
const SUITE_SEED: u64 = 1;

/// The matrices, each tagged with its family.
fn inputs(ctx: &Ctx, rng: &mut SmallRng) -> Vec<Operand> {
    let (scale, grid2, grid3) =
        if ctx.smoke() { (Scale::Test, 24, 8) } else { (Scale::Medium, 160, 24) };
    let mut mats = Vec::new();
    for (kind, family) in [
        (SuiteKind::SuiteSparse, "suitesparse"),
        (SuiteKind::Metis, "metis"),
        (SuiteKind::ErdosRenyi, "erdos-renyi"),
        (SuiteKind::NarrowBandwidth, "narrow-band"),
    ] {
        for d in load_suite(kind, scale, SUITE_SEED) {
            mats.push((d.name, family, d.lower));
        }
    }
    let g2 = grid2d_laplacian(grid2, grid2, Stencil2D::FivePoint, 0.5);
    mats.push((format!("grid2d_{grid2}"), "grid", g2.lower_triangle().expect("square")));
    let g3 = grid3d_laplacian(grid3, grid3, grid3, Stencil3D::SevenPoint, 0.5);
    mats.push((format!("grid3d_{grid3}"), "grid", g3.lower_triangle().expect("square")));
    mats.into_iter()
        .enumerate()
        .map(|(i, (name, family, m))| {
            Operand::new(i as u64 + 1, name, family, m, Orientation::Lower, rng)
        })
        .collect()
}

pub fn run(ctx: &mut Ctx) {
    let mut rng = SmallRng::seed_from_u64(ctx.seed ^ 0x0B0A);
    let ops = inputs(ctx, &mut rng);

    // Set-up: every cold build, repeated; the last repetition's plans stay.
    let mut layers = Layers::default();
    let (mut setup_s, mut first_solve_s) = (Samples::default(), Samples::default());
    let mut plans: Vec<Vec<Built>> = Vec::new();
    for rep in 0..SETUP_REPS {
        let _span = span("bench.setup", rep as u64);
        plans.clear();
        let mut total = 0.0;
        for op in &ops {
            let mut built = Vec::new();
            for spec in SPECS {
                let Some(b) = common::build(ctx, op, spec, CORES) else { continue };
                total += b.build_cpu_s;
                first_solve_s.push(b.first_solve_s);
                if ctx.traced && rep == 0 {
                    common::replay(ctx, &mut layers, op, spec, CORES, b.build_s, Record::Both);
                }
                built.push(b);
            }
            plans.push(built);
        }
        setup_s.push(total);
        if ctx.traced && rep == 0 {
            layers.setups += 1;
        }
    }

    if ctx.traced {
        common::describe(&ops);
    }
    // One matrix per family for the warm, re-valued and auto phases.
    let mut rebinds = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if i == 0 || ops[i - 1].family != op.family {
            rebinds.extend(Rebind::new(ctx, &ops, i, &mut rng));
        }
    }

    let mut sweep = Sweep::new(&ops, &plans, &mut rng);
    ctx.run_rounds(2, |ctx, _| {
        for rebind in rebinds.iter_mut() {
            sweep.run(ctx, &ops, &plans);
            for _ in 0..REBIND_REPS {
                rebind.round(ctx, &ops);
            }
            rebind.tune(ctx, &ops);
        }
    });

    ctx.note("input.matrices", ops.len() as f64, "count");
    ctx.note("first_solve_ms", first_solve_s.median() * 1e3, "ms");
    let serial = sweep.each(&plans, SERIAL, Samples::median);
    let summary = Summary {
        setup_s,
        rhs_s: serial.iter().sum(),
        rhs_ms: median(&serial) * 1e3,
        plans: &plans,
        sweep: &sweep,
        rebinds: &rebinds,
        fwd_ms: sweep.solve_ms(&plans, "growlocal", Samples::low),
        layers: &layers,
    };
    summary.emit(ctx);
}
