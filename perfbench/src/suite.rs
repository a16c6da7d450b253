//! `suite_oneshot`: the 15 paper kernels through the one-shot pipeline —
//! parse → lower → `optimize_module` with the training profile → print —
//! on one thread, for a fixed number of seeded rounds.

use crate::{cpu_seconds, repeated_setup, Layers, OpTimer, Quality, Run, Stages};
use abcd::{ModuleReport, Optimizer, OptimizerOptions};
use abcd_benchsuite::BENCHMARKS;
use abcd_ir::Module;
use abcd_perfbench::{suite_order, Tracer};
use abcd_vm::{ExecStats, Profile, RtVal, Vm};
use std::time::Instant;

/// Rounds (each kernel once) per `--seconds`: a whole run, set-up
/// included, then takes about `--seconds` on a 2-vCPU host.
const ROUNDS_PER_SECOND: u64 = 72;

struct Kernel {
    source: &'static str,
    profile: Profile,
    /// The printed optimized module every timed round must reproduce.
    reference: String,
}

fn options() -> OptimizerOptions {
    OptimizerOptions::default()
}

/// The paper's Jalapeño baseline: basic cleanup, every check intact.
fn baseline_options() -> OptimizerOptions {
    OptimizerOptions {
        upper: false,
        lower: false,
        pre: false,
        merge_checks: false,
        ..options()
    }
}

fn optimize(
    module: &mut Module,
    opts: OptimizerOptions,
    profile: Option<&Profile>,
) -> ModuleReport {
    Optimizer::with_options(opts)
        .with_threads(1)
        .optimize_module(module, profile)
}

fn run_main(module: &Module) -> Result<(Option<RtVal>, Vec<i64>, ExecStats), String> {
    let mut vm = Vm::new(module);
    let ret = vm.call_by_name("main", &[]).map_err(|t| t.to_string())?;
    Ok((ret, vm.output().to_vec(), *vm.stats()))
}

/// Compiles every kernel, runs the VM training and baseline runs, and
/// builds the reference outputs the timed rounds are checked against.
fn setup() -> Result<(Vec<Kernel>, Quality), String> {
    let mut kernels = Vec::with_capacity(BENCHMARKS.len());
    let mut q = Quality::default();
    for b in BENCHMARKS {
        let compile = || b.compile().map_err(|e| format!("{}: {e}", b.name));
        let (want_ret, want_out, _) = run_main(&compile()?)?;
        // Training run on the baseline build: its profile drives the
        // optimizer, its stats are the cycle baseline.
        let mut baseline = compile()?;
        optimize(&mut baseline, baseline_options(), None);
        let mut vm = Vm::new(&baseline);
        vm.call_by_name("main", &[])
            .map_err(|t| format!("{} baseline: {t}", b.name))?;
        let baseline_stats = *vm.stats();
        let profile = vm.into_profile();

        let mut optimized = compile()?;
        let report = optimize(&mut optimized, options(), Some(&profile));
        q.add_report(&report);
        let started = Instant::now();
        let (ret, out, stats) = run_main(&optimized)?;
        q.add_run(baseline_stats, stats, started.elapsed().as_secs_f64());
        if ret != want_ret || out != want_out {
            eprintln!(
                "perfbench: {}: optimized main disagrees with the unoptimized run",
                b.name
            );
            q.failures += 1;
        }
        kernels.push(Kernel {
            source: b.source,
            profile,
            reference: optimized.to_string(),
        });
    }
    Ok((kernels, q))
}

/// One module through the pipeline; `None` on a front-end error.
fn one_shot(k: &Kernel) -> Option<String> {
    let ast = abcd_frontend::parse(k.source).ok()?;
    let mut module = abcd_frontend::lower(&ast).ok()?;
    optimize(&mut module, options(), Some(&k.profile));
    Some(module.to_string())
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Run, String> {
    let mut run = Run::default();
    let (kernels, q) = repeated_setup(&mut run, setup)?;
    let rounds = (seconds * ROUNDS_PER_SECOND) as usize;
    let order = suite_order(seed, rounds, kernels.len());

    run.quality = q;
    run.info = format!(
        ",\"threads\":{{\"optimizer_jobs\":1,\"client\":1}},\"kernels\":{},\"rounds\":{rounds}",
        kernels.len()
    );

    // Untraced timed phase: the end-to-end numbers.
    let mut timer = OpTimer::start();
    for &k in &order {
        let out = timer.time(&mut run, || one_shot(&kernels[k]));
        if out.as_deref() != Some(kernels[k].reference.as_str()) {
            run.failed += 1;
        }
    }
    timer.finish(&mut run);
    run.attempted = order.len() as u64;
    if trace {
        traced(&mut run, &kernels, &order);
    }
    Ok(run)
}

/// The traced phase: the same rounds again with a span around each layer
/// call, then a replay of the preparation stages on clones.
fn traced(run: &mut Run, kernels: &[Kernel], order: &[usize]) {
    let mut tr = Tracer::new();
    let mut stages = Stages::default();
    let mut bytes = 0usize;
    let ((), traced_cpu_s) = cpu_seconds(|| {
        for (op, &k) in order.iter().enumerate() {
            let op = op as u32;
            let kernel = &kernels[k];
            let root = tr.open(op, None, "suite.module");
            let ast = tr.span(op, Some(root), "frontend.parse", || {
                abcd_frontend::parse(kernel.source)
            });
            let lowered = ast.ok().and_then(|ast| {
                tr.span(op, Some(root), "frontend.lower", || {
                    abcd_frontend::lower(&ast).ok()
                })
            });
            let Some(mut module) = lowered else {
                tr.close(root);
                run.failed += 1;
                continue;
            };
            let report = tr.span(op, Some(root), "core.optimize", || {
                optimize(&mut module, options(), Some(&kernel.profile))
            });
            let text = tr.span(op, Some(root), "ir.print", || module.to_string());
            tr.close(root);
            if text != kernel.reference {
                run.failed += 1;
            }
            bytes += text.len();
            stages.add(&report);
        }
    });
    run.attempted += order.len() as u64;

    // Replay: the preparation stages `optimize_module` runs internally,
    // timed one by one on a clone of each lowered function.
    for (op, &k) in order.iter().enumerate() {
        let Ok(module) = abcd_frontend::compile(kernels[k].source) else {
            continue;
        };
        crate::replay_prepare(&mut tr, op as u32, &module);
    }

    let n = order.len();
    let mut l = Layers::new(&tr, n);
    l.stage_metrics(&stages);
    l.set("ir.reply_bytes", bytes as f64 / n as f64);
    l.vm(&run.quality);
    let op_us = l.span_us("suite.module");
    l.set("total.op_us", op_us);
    l.throughputs(run.throughput_per_cpu_s(), n as f64 / traced_cpu_s);
    run.layers = l.finish();
    run.tracer = Some(tr);
}
