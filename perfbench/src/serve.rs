//! `serve`: a batching `SolveServer` over a narrow-band matrix, driven by
//! one closed-loop client thread that recycles its buffers.
//!
//! The only workload through the serve layer's queue and batcher. The
//! saturated phase keeps two batches of requests outstanding; the light
//! phase keeps one. The served plan has one core, so its batches take the
//! serial multi-RHS sweep; the leased 2-core multi-RHS path is timed by the
//! sweep's `solve_multi` of the 2-core growlocal plan, `BATCH` wide.
//!
//! The end-to-end figures come from the light phase, whose requests pass
//! one at a time between the client and the batcher. The saturated phase's
//! throughput (`serve_rps`) needs both threads running at once, so it reads
//! 45 % lower while the host runs this VM's two vCPUs one after the other;
//! it is printed beside them, like the 2-core solve times.

use crate::check::{self, SOLVE_TOL};
use crate::common::{
    self, Built, Layers, Operand, Rebind, Record, Summary, Sweep, CORES, MULTI_RHS,
    SETUPS_PER_ROUND, SPECS,
};
use crate::stats::{percentile, Samples};
use crate::trace::{span, timed};
use crate::Ctx;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sptrsv_exec::Orientation;
use sptrsv_serve::{Admission, SolveHandle, SolveResponse, SolveServer};
use sptrsv_sparse::gen::narrow_band_lower;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

const BATCH: usize = MULTI_RHS;
const LINGER: Duration = Duration::from_micros(100);
/// Cores of the served plan: its batcher thread solves alone, so with the
/// client thread the workload never runs more threads than this host has
/// cores (with a 2-core plan, three threads contended for two cores and
/// the saturated throughput varied ±30 % between runs).
const SERVED_CORES: usize = 1;
/// Seed of the served matrix's structure and values.
const SERVED_MATRIX_SEED: u64 = 0x5E2E;
/// Distinct right-hand sides the client cycles through.
const POOL: usize = 16;

/// Saturated and light bursts between two auto resolutions.
const BURSTS_PER_ROUND: usize = 8;

struct Sizes {
    n: usize,
    /// Requests per saturated burst, and per light burst.
    burst: usize,
    light: usize,
}

/// What the client saw of one phase.
#[derive(Default)]
struct Phase {
    latency_s: Samples,
    queued_s: Samples,
    fused_s: Samples,
}

impl Phase {
    fn record(&mut self, latency: f64, response: &SolveResponse) {
        self.latency_s.push(latency);
        self.queued_s.push(response.timing.queued.as_secs_f64());
        self.fused_s.push(response.timing.solve.as_secs_f64());
    }
}

struct Client<'a> {
    server: &'a SolveServer,
    pool: &'a [Vec<f64>],
    solo: &'a [Vec<f64>],
    next: usize,
}

impl Client<'_> {
    /// Submits the next pool right-hand side in `buf`; a refused buffer
    /// comes back.
    fn submit(
        &mut self,
        ctx: &mut Ctx,
        mut buf: Vec<f64>,
    ) -> Result<(SolveHandle, usize, Instant), Vec<f64>> {
        let j = self.next % POOL;
        self.next += 1;
        buf.copy_from_slice(&self.pool[j]);
        let _g = span("serve.submit", self.next as u64);
        let start = Instant::now();
        self.server.submit(buf).map(|handle| (handle, j, start)).map_err(|e| {
            ctx.tally.record(|| format!("submit {j}"), Err(e.to_string()));
            e.into_buffer()
        })
    }

    /// Waits for a response and checks it bit for bit against the solo solve.
    fn complete(
        &mut self,
        ctx: &mut Ctx,
        (handle, j, start): (SolveHandle, usize, Instant),
        phase: &mut Phase,
    ) -> Vec<f64> {
        let (response, _) = timed("serve.wait", j as u64, || handle.wait());
        let latency = start.elapsed().as_secs_f64();
        if ctx
            .tally
            .record(|| format!("response {j}"), check::bit_identical(&response.x, &self.solo[j]))
        {
            phase.record(latency, &response);
        }
        response.x
    }
}

/// One set-up: the growlocal plan build and the server start, with the
/// build's wall time and the process CPU time of both.
fn set_up(ctx: &mut Ctx, op: &Operand) -> Option<(SolveServer, f64, f64)> {
    let _span = span("bench.setup", op.id);
    let Built { plan, build_s, build_cpu_s, .. } =
        common::build(ctx, op, "growlocal", SERVED_CORES)?;
    let cpu = crate::host::process_cpu_s();
    let (server, _) = timed("serve.start", op.id, || {
        SolveServer::builder(plan)
            .max_batch(BATCH)
            .batch_wait(LINGER)
            .admission(Admission::Block)
            .start()
    });
    Some((server, build_s, build_cpu_s + crate::host::process_cpu_s() - cpu))
}

pub fn run(ctx: &mut Ctx) {
    let s = if ctx.smoke() {
        Sizes { n: 2_000, burst: 32, light: 4 }
    } else {
        Sizes { n: 20_000, burst: 128, light: 16 }
    };
    // The served operand is one fixed matrix, as a service hosts it; the
    // workload seed draws the traffic (right-hand sides) and new values.
    // A narrow-band matrix's random structure moves its scheduling and
    // solve times by up to ±25 % from one draw to the next.
    let nb = narrow_band_lower(s.n, 0.05, 20.0, &mut SmallRng::seed_from_u64(SERVED_MATRIX_SEED));
    let mut rng = SmallRng::seed_from_u64(ctx.seed ^ 0x5E2E);
    let op =
        Operand::new(1, format!("NB_{}", s.n), "narrow-band", nb, Orientation::Lower, &mut rng);
    let pool: Vec<Vec<f64>> = (0..POOL).map(|_| common::random_vec(s.n, &mut rng)).collect();

    // Set-up: once here, then `SETUPS_PER_ROUND` more times in every
    // measured round, so the median covers the whole run.
    let mut layers = Layers::default();
    let Some((server, build_s, cpu_s)) = set_up(ctx, &op) else { return };
    let mut setup_s = Samples::default();
    setup_s.push(cpu_s);
    if ctx.traced {
        common::replay(ctx, &mut layers, &op, "growlocal", SERVED_CORES, build_s, Record::Setup);
        layers.setups += 1;
    }

    // Solo solves of the pool, each checked against the substitution.
    let solo: Vec<Vec<f64>> = pool.iter().map(|b| server.plan().solve(b)).collect();
    for (j, (b, x)) in pool.iter().zip(&solo).enumerate() {
        let ok = common::reference(&op.matrix, Orientation::Lower, b)
            .and_then(|want| check::agree(x, &want, SOLVE_TOL));
        ctx.tally.record(|| format!("solo solve {j}"), ok);
    }

    // Reference plans of every spec (outside `setup_s`).
    let ops = vec![op];
    let mut plans: Vec<Vec<Built>> = vec![Vec::new()];
    for spec in SPECS {
        if let Some(built) = common::build(ctx, &ops[0], spec, CORES) {
            if ctx.traced {
                common::replay(
                    ctx,
                    &mut layers,
                    &ops[0],
                    spec,
                    CORES,
                    built.build_s,
                    Record::Operand,
                );
            }
            plans[0].push(built);
        }
    }
    if ctx.traced {
        common::describe(&ops);
    }
    let mut rebinds: Vec<Rebind> = Rebind::new(ctx, &ops, 0, &mut rng).into_iter().collect();

    let mut buffers: Vec<Vec<f64>> = (0..2 * BATCH).map(|_| vec![0.0; s.n]).collect();
    let mut client = Client { server: &server, pool: &pool, solo: &solo, next: 0 };
    let (mut saturated, mut light) = (Phase::default(), Phase::default());
    let mut burst_s = Samples::default();
    let mut sweep = Sweep::new(&ops, &plans, &mut rng);
    ctx.run_rounds(2, |ctx, _| {
        for _ in 0..BURSTS_PER_ROUND {
            // Saturated: two batches outstanding, closed loop.
            let burst = span("bench.burst", 0);
            let start = Instant::now();
            let mut inflight = VecDeque::new();
            let mut submitted = 0;
            let mut idle = Vec::new();
            for buf in buffers.drain(..) {
                match client.submit(ctx, buf) {
                    Ok(req) => inflight.push_back(req),
                    Err(buf) => idle.push(buf),
                }
                submitted += 1;
            }
            while let Some(req) = inflight.pop_front() {
                let buf = client.complete(ctx, req, &mut saturated);
                if submitted < s.burst {
                    match client.submit(ctx, buf) {
                        Ok(req) => inflight.push_back(req),
                        Err(buf) => idle.push(buf),
                    }
                    submitted += 1;
                } else {
                    idle.push(buf);
                }
            }
            buffers = idle;
            burst_s.push(start.elapsed().as_secs_f64());
            drop(burst);
            // Light: one request outstanding.
            for _ in 0..s.light {
                let buf = buffers.pop().expect("buffers are recycled");
                let buf = match client.submit(ctx, buf) {
                    Ok(req) => client.complete(ctx, req, &mut light),
                    Err(buf) => buf,
                };
                buffers.push(buf);
            }
            sweep.run(ctx, &ops, &plans);
            for rebind in rebinds.iter_mut() {
                rebind.round(ctx, &ops);
            }
        }
        for rebind in rebinds.iter_mut() {
            rebind.tune(ctx, &ops);
        }
        for _ in 0..SETUPS_PER_ROUND {
            let Some((again, build_s, cpu_s)) = set_up(ctx, &ops[0]) else { continue };
            setup_s.push(cpu_s);
            again.shutdown();
            if ctx.traced {
                common::replay(
                    ctx,
                    &mut layers,
                    &ops[0],
                    "growlocal",
                    SERVED_CORES,
                    build_s,
                    Record::Setup,
                );
                layers.setups += 1;
            }
        }
    });
    let stats = server.shutdown();

    let burst = burst_s.median();
    let latency_s = light.latency_s.values();
    ctx.note("serve_rps", s.burst as f64 / burst, "req/s");
    ctx.note("serve_p50_ms", light.latency_s.median() * 1e3, "ms");
    ctx.note("serve.p99_ms", percentile(latency_s, 99.0) * 1e3, "ms");
    ctx.note("serve.batch_width", stats.mean_width(), "count");
    ctx.note("serve.fused_solve_ms", saturated.fused_s.median() * 1e3, "ms");
    ctx.note("serve.queued_ms", light.queued_s.median() * 1e3, "ms");
    ctx.note("serve.light_samples", latency_s.len() as f64, "count");
    ctx.note("input.rows", s.n as f64, "count");
    ctx.note("input.nnz", ops[0].matrix.nnz() as f64, "count");
    let summary = Summary {
        setup_s,
        // One client's light sequence at the median latency: timed whole,
        // a sequence of 16 requests spread 20 % between runs.
        rhs_s: s.light as f64 * light.latency_s.median(),
        rhs_ms: light.latency_s.median() * 1e3,
        plans: &plans,
        sweep: &sweep,
        rebinds: &rebinds,
        fwd_ms: sweep.solve_ms(&plans, "growlocal", Samples::low),
        layers: &layers,
    };
    summary.emit(ctx);
}
