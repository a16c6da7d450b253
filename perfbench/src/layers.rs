//! Per-layer metrics of a traced run: the fixed metric list, span self
//! times turned into per-operation values, the optimizer's own stage
//! figures, and the replay of the preparation stages.

use crate::Quality;
use abcd_perfbench::Tracer;

/// Every per-layer metric a workload fills, in report order, with its
/// unit (the run-wide `wall.*` and `host.steal_pct` follow them). A `…_us`
/// metric defaults to the per-operation self time of the span with the
/// same name minus the suffix; a layer that does no work on a workload
/// reports 0.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("total.op_us", "us"),
    ("frontend.parse_us", "us"),
    ("frontend.lower_us", "us"),
    ("ssa.split_us", "us"),
    ("ssa.mem2reg_us", "us"),
    ("ssa.pi_us", "us"),
    ("analysis.cleanup_us", "us"),
    ("core.optimize_us", "us"),
    ("core.prepare_us", "us"),
    ("core.graph_build_us", "us"),
    ("core.solve_us", "us"),
    ("core.pre_us", "us"),
    ("core.transform_us", "us"),
    ("core.bookkeeping_us", "us"),
    ("core.solver_steps", "count"),
    ("core.pre_steps", "count"),
    ("core.memo_hit_ratio", "ratio"),
    ("core.graph_edges", "count"),
    ("core.cache_key_us", "us"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.cache_misses", "count"),
    ("core.cache_stores", "count"),
    ("core.misses_per_work_fn", "ratio"),
    ("ir.print_us", "us"),
    ("ir.reply_bytes", "bytes"),
    ("server.request_encode_us", "us"),
    ("server.request_decode_us", "us"),
    ("server.reply_encode_us", "us"),
    ("server.reply_decode_us", "us"),
    ("server.handle_us", "us"),
    ("server.transport_us", "us"),
    ("vm.baseline_cycles", "count"),
    ("vm.optimized_cycles", "count"),
    ("vm.upper_checks_executed", "count"),
    ("vm.run_us", "us"),
    ("trace.throughput_per_cpu_s", "1/s"),
    ("trace.overhead_pct", "%"),
];

/// The per-layer metrics of one traced run.
pub struct Layers {
    values: Vec<f64>,
    spans: Vec<(&'static str, f64)>,
}

impl Layers {
    /// Seeds every `…_us` metric with its span's self time per operation.
    pub fn new(tr: &Tracer, ops: usize) -> Layers {
        let per_op = |ns: u64| ns as f64 / 1e3 / ops.max(1) as f64;
        let self_us: Vec<(&'static str, f64)> = tr
            .self_times()
            .into_iter()
            .map(|(n, ns)| (n, per_op(ns)))
            .collect();
        let mut total: Vec<(&'static str, f64)> = Vec::new();
        for s in tr.spans() {
            let us = (s.end_ns - s.start_ns) as f64 / 1e3 / ops.max(1) as f64;
            match total.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += us,
                None => total.push((s.name, us)),
            }
        }
        let values = LAYER_METRICS
            .iter()
            .map(|(name, _)| {
                name.strip_suffix("_us")
                    .and_then(|span| self_us.iter().find(|(n, _)| *n == span))
                    .map_or(0.0, |(_, us)| *us)
            })
            .collect();
        Layers {
            values,
            spans: total,
        }
    }

    fn index(name: &str) -> usize {
        LAYER_METRICS
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown layer metric {name}"))
    }

    /// Sets one metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values[Layers::index(name)] = value;
    }

    /// Reads one metric.
    pub fn get(&self, name: &str) -> f64 {
        self.values[Layers::index(name)]
    }

    /// Mean whole duration (self + children) of spans named `name`, per
    /// operation, microseconds.
    pub fn span_us(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, us)| *us)
    }

    /// The optimizer's own stage times and counts, per operation.
    pub fn stage_metrics(&mut self, s: &Stages) {
        let n = s.ops.max(1) as f64;
        let names = [
            "core.prepare_us",
            "core.graph_build_us",
            "core.solve_us",
            "core.pre_us",
            "core.transform_us",
        ];
        for (name, secs) in names.into_iter().zip(s.times_s) {
            self.set(name, secs * 1e6 / n);
        }
        let optimize = self.get("core.optimize_us");
        self.set(
            "core.bookkeeping_us",
            optimize - s.times_s.iter().sum::<f64>() * 1e6 / n,
        );
        self.set("core.solver_steps", s.steps as f64 / n);
        self.set("core.pre_steps", s.pre_steps as f64 / n);
        let lookups = (s.memo_hits + s.memo_misses).max(1) as f64;
        self.set("core.memo_hit_ratio", s.memo_hits as f64 / lookups);
        self.set("core.graph_edges", s.edges as f64 / n);
    }

    /// The VM figures of the quality runs.
    pub fn vm(&mut self, q: &Quality) {
        self.set("vm.baseline_cycles", q.sum(|s| s.0.cycles) as f64);
        self.set("vm.optimized_cycles", q.sum(|s| s.1.cycles) as f64);
        let upper = q.sum(|s| s.1.dynamic_upper_checks());
        self.set("vm.upper_checks_executed", upper as f64);
        self.set("vm.run_us", q.run_s * 1e6 / q.stats.len().max(1) as f64);
    }

    /// Records the traced phase's operations per CPU-second and their
    /// overhead against the untraced phase of the same run.
    pub fn throughputs(&mut self, untraced: f64, traced: f64) {
        self.set("trace.throughput_per_cpu_s", traced);
        self.set(
            "trace.overhead_pct",
            100.0 * (untraced - traced) / untraced.max(1e-9),
        );
    }

    /// The metrics in report order.
    pub fn finish(self) -> Vec<(&'static str, f64, &'static str)> {
        LAYER_METRICS
            .iter()
            .zip(self.values)
            .map(|((name, unit), v)| (*name, v, *unit))
            .collect()
    }
}

/// Running sums of what `FunctionReport`s say about the optimizer's own
/// stages, so a traced run need not keep every report.
#[derive(Default)]
pub struct Stages {
    ops: usize,
    /// prepare, graph build, solve, PRE, transform.
    times_s: [f64; 5],
    steps: u64,
    pre_steps: u64,
    memo_hits: u64,
    memo_misses: u64,
    edges: u64,
}

impl Stages {
    /// Adds one operation's report.
    pub fn add(&mut self, report: &abcd::ModuleReport) {
        self.ops += 1;
        for f in &report.functions {
            let m = &f.metrics;
            let times = [
                m.prepare_time,
                m.graph_build_time,
                m.solve_time,
                m.pre_time,
                m.transform_time,
            ];
            for (sum, t) in self.times_s.iter_mut().zip(times) {
                *sum += t.as_secs_f64();
            }
            self.steps += f.steps;
            self.pre_steps += f.pre_steps;
            self.memo_hits += m.memo_hits;
            self.memo_misses += m.memo_misses;
            self.edges += (m.upper_edges + m.lower_edges) as u64;
        }
    }
}

/// Replays the preparation stages `optimize_module` runs first — critical
/// edge split, mem2reg, cleanup/GVN, π insertion — one span each, on a
/// clone of every function of a freshly lowered `module`.
pub fn replay_prepare(tr: &mut Tracer, op: u32, module: &abcd_ir::Module) {
    let root = tr.open(op, None, "replay.prepare");
    for (_, func) in module.functions() {
        let mut f = func.clone();
        tr.span(op, Some(root), "ssa.split", || {
            abcd_ssa::split_critical_edges(&mut f)
        });
        let promoted = tr.span(op, Some(root), "ssa.mem2reg", || {
            abcd_ssa::promote_locals(&mut f)
        });
        if promoted.is_err() {
            continue;
        }
        tr.span(op, Some(root), "analysis.cleanup", || {
            abcd_analysis::cleanup(&mut f)
        });
        tr.span(op, Some(root), "ssa.pi", || {
            abcd_ssa::insert_pi_nodes(&mut f)
        });
    }
    tr.close(root);
}
