//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload suite_oneshot|serve_zipf|serve_unique \
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run replays a fixed, seeded input sequence whose length is set by
//! `--seconds` (a count calibrated to take about that long on a 2-vCPU
//! host), checks every output, and prints one JSON result object as its
//! last stdout line: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The line before it records the host
//! and thread configuration the run saw. `NOTES.md` explains the choices.

#![forbid(unsafe_code)]

mod layers;
mod serve;
mod suite;

pub use layers::{replay_prepare, Layers, Stages};

use abcd_perfbench::{geomean, median, percentile, CpuClock, Tracer};
use abcd_vm::ExecStats;
use std::fmt::Write as _;
use std::time::Instant;

/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// What a workload measured, in the units the metrics are reported in.
#[derive(Default)]
pub struct Run {
    /// Process CPU time of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of each set-up repetition, seconds.
    pub setup_wall_s: Vec<f64>,
    /// Process CPU time of every timed operation of the untraced phase, ms.
    pub cpu_ms: Vec<f64>,
    /// Wall-clock latency of the same operations, ms.
    pub latency_ms: Vec<f64>,
    /// Wall time of the untraced timed phase, seconds.
    pub timed_s: f64,
    /// Operations attempted (both phases of a traced run).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned wrong bytes.
    pub failed: u64,
    /// The generated code's quality, measured at set-up.
    pub quality: Quality,
    /// Per-layer metrics of a traced run, `(name, value, unit)`.
    pub layers: Vec<(&'static str, f64, &'static str)>,
    /// Spans of a traced run, written to disk when the run ends.
    pub tracer: Option<Tracer>,
    /// Extra facts about the run's configuration for the info line.
    pub info: String,
}

impl Run {
    /// Untraced operations completed per CPU-second of the process.
    pub fn throughput_per_cpu_s(&self) -> f64 {
        self.cpu_ms.len() as f64 / (self.cpu_ms.iter().sum::<f64>() / 1e3).max(1e-9)
    }
}

/// The generated code's quality, measured at set-up: static check
/// removal from the optimizer's reports, and VM runs of the measured code
/// before and after optimization.
#[derive(Default)]
pub struct Quality {
    checks_total: usize,
    checks_removed: usize,
    /// Per measured unit: (baseline, optimized) VM statistics.
    pub(crate) stats: Vec<(ExecStats, ExecStats)>,
    /// Wall time of the optimized VM runs, seconds.
    pub(crate) run_s: f64,
    /// Optimized runs whose result differed from the baseline's.
    pub failures: u64,
}

impl Quality {
    /// Counts one optimized module's static checks.
    pub fn add_report(&mut self, report: &abcd::ModuleReport) {
        self.checks_total += report.checks_total();
        self.checks_removed += report.checks_removed_fully() + report.checks_hoisted();
    }

    /// Records one measured unit: its baseline and optimized statistics
    /// and how long the optimized run took.
    pub fn add_run(&mut self, baseline: ExecStats, optimized: ExecStats, run_s: f64) {
        self.stats.push((baseline, optimized));
        self.run_s += run_s;
    }

    fn checks_removed_pct(&self) -> f64 {
        100.0 * self.checks_removed as f64 / self.checks_total.max(1) as f64
    }

    pub(crate) fn sum(&self, f: impl Fn(&(ExecStats, ExecStats)) -> u64) -> u64 {
        self.stats.iter().map(f).sum()
    }

    fn upper_removed_pct(&self) -> f64 {
        let before = self.sum(|s| s.0.dynamic_upper_checks());
        let after = self.sum(|s| s.1.dynamic_upper_checks());
        100.0 * (1.0 - after as f64 / before.max(1) as f64)
    }

    fn opt_cycles_ratio(&self) -> f64 {
        let ratios: Vec<f64> = self
            .stats
            .iter()
            .map(|(b, o)| o.cycles as f64 / b.cycles.max(1) as f64)
            .collect();
        geomean(&ratios)
    }
}

/// Times operations one after another: the wall-clock latency and the
/// process CPU time of each.
pub struct OpTimer {
    clock: CpuClock,
    last_cpu: u64,
    started: Instant,
}

impl OpTimer {
    /// Starts timing; create it after every thread of the run exists.
    pub fn start() -> OpTimer {
        let mut clock = CpuClock::process();
        OpTimer {
            last_cpu: clock.now_ns(),
            clock,
            started: Instant::now(),
        }
    }

    /// Runs and times one operation.
    pub fn time<T>(&mut self, run: &mut Run, op: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = op();
        run.latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let cpu = self.clock.now_ns();
        run.cpu_ms
            .push(cpu.saturating_sub(self.last_cpu) as f64 / 1e6);
        self.last_cpu = cpu;
        out
    }

    /// Ends the timed phase.
    pub fn finish(self, run: &mut Run) {
        run.timed_s = self.started.elapsed().as_secs_f64();
    }
}

/// Process CPU seconds spent in `f`, for a phase whose threads all exist
/// when it starts.
pub fn cpu_seconds<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let mut clock = CpuClock::process();
    let c0 = clock.now_ns();
    let out = f();
    (out, clock.now_ns().saturating_sub(c0) as f64 / 1e9)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

/// Times `SETUP_REPEATS` set-ups and keeps the last one's state.
pub fn repeated_setup<T>(
    run: &mut Run,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous repetition's state (and join its threads)
        // first, so each set-up starts from the same process state.
        drop(last.take());
        let cpu0 = CpuClock::process().now_ns();
        let started = Instant::now();
        let state = setup()?;
        run.setup_wall_s.push(started.elapsed().as_secs_f64());
        // Threads the set-up started count from zero, so read them too.
        run.setup_s
            .push(CpuClock::process().now_ns().saturating_sub(cpu0) as f64 / 1e9);
        last = Some(state);
    }
    Ok(last.expect("at least one set-up"))
}

/// CPU time counters of the whole host from `/proc/stat`: (steal, total).
fn host_cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// The process's resident-set high-water mark, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    let value = if value.is_finite() { value } else { 0.0 };
    let _ = write!(out, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
}

/// Writes the traced run's spans next to the benchmark binary.
fn write_spans(tracer: &Tracer, args: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("binary has no directory")?
        .join("perfbench-spans");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, tracer.jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload suite_oneshot|serve_zipf|serve_unique \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let (steal0, total0) = host_cpu_ticks();
    let result = match args.workload.as_str() {
        "suite_oneshot" => suite::run(args.seed, args.seconds, args.trace),
        "serve_zipf" => serve::run(serve::Mix::Zipf, args.seed, args.seconds, args.trace),
        "serve_unique" => serve::run(serve::Mix::Unique, args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload `{other}`")),
    };
    let mut run = match result {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let (steal1, total1) = host_cpu_ticks();
    let steal_pct = 100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    let sorted = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        v
    };
    let (cpu, wall) = (sorted(&run.cpu_ms), sorted(&run.latency_ms));
    let (Some(p50), Some(p90)) = (percentile(&cpu, 50.0), percentile(&cpu, 90.0)) else {
        eprintln!(
            "perfbench: {} timed samples leave fewer than 10 beyond p90",
            cpu.len()
        );
        std::process::exit(1);
    };
    // Wall-clock figures are recorded with every run but not gated: on a
    // shared host they follow the neighbours' load (see NOTES.md).
    let wall_pct = |p: f64| percentile(&wall, p).unwrap_or(0.0);
    let wall_tput = wall.len() as f64 / run.timed_s.max(1e-9);

    let spans_file = match run.tracer.take() {
        Some(t) => match write_spans(&t, &args) {
            Ok(path) => format!(",\"spans_file\":\"{}\"", abcd::json_escape(&path)),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        },
        None => String::new(),
    };
    println!(
        "{{\"info\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"nproc\":{nproc},\"host_steal_pct\":{steal_pct},\"samples\":{},\"p99_cpu_ms\":{},\
         \"wall_p50_ms\":{},\"wall_p90_ms\":{},\"wall_p99_ms\":{},\
         \"wall_throughput_per_s\":{wall_tput},\"timed_s\":{},\
         \"setup_cpu_s\":{:?},\"setup_wall_s\":{:?},\"run_wall_s\":{}{}{spans_file}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cpu.len(),
        percentile(&cpu, 99.0).unwrap_or(0.0),
        wall_pct(50.0),
        wall_pct(90.0),
        wall_pct(99.0),
        run.timed_s,
        run.setup_s,
        run.setup_wall_s,
        process_start.elapsed().as_secs_f64(),
        run.info,
    );

    let mut metrics = String::from("{");
    if args.trace {
        for (name, value, unit) in &run.layers {
            metric(&mut metrics, name, *value, unit);
        }
        metric(&mut metrics, "wall.p50_ms", wall_pct(50.0), "ms");
        metric(&mut metrics, "wall.p90_ms", wall_pct(90.0), "ms");
        metric(&mut metrics, "wall.p99_ms", wall_pct(99.0), "ms");
        metric(&mut metrics, "wall.throughput_per_s", wall_tput, "1/s");
        metric(&mut metrics, "host.steal_pct", steal_pct, "%");
    } else {
        let attempted = run.attempted.max(1) as f64;
        let q = &run.quality;
        for (name, value, unit) in [
            ("setup_s", median(&run.setup_s), "s"),
            ("p50_cpu_ms", p50, "ms"),
            ("p90_cpu_ms", p90, "ms"),
            ("throughput_per_cpu_s", run.throughput_per_cpu_s(), "1/s"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
            (
                "ok_pct",
                100.0 * (attempted - run.failed as f64) / attempted,
                "%",
            ),
            ("checks_removed_pct", q.checks_removed_pct(), "%"),
            ("upper_removed_pct", q.upper_removed_pct(), "%"),
            ("opt_cycles_ratio", q.opt_cycles_ratio(), "ratio"),
        ] {
            metric(&mut metrics, name, value, unit);
        }
    }
    metrics.push('}');
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        run.failed == 0 && run.quality.failures == 0,
        run.attempted.max(1),
        run.failed,
    );
}
