//! Building blocks of the repository benchmark: seeded input sequences,
//! order statistics, the in-memory span recorder, and the process CPU
//! clock. The workloads themselves live in the `perfbench` binary; all
//! but the clock are deterministic, so the self-test can pin them.

#![forbid(unsafe_code)]

use abcd_loadgen::SplitMix64;
use std::collections::HashSet;
use std::time::Instant;

/// Zipf skew of the `serve_zipf` request sequence.
pub const ZIPF_S: f64 = 1.2;

/// Modules in the `serve_zipf` corpus (`abcd_loadgen::corpus`).
pub const ZIPF_CORPUS: usize = 24;

/// The fewest samples a reported percentile may leave above itself.
pub const TAIL_SAMPLES: usize = 10;

/// `rounds` seeded permutations of `0..kernels`, concatenated: every
/// round optimizes each kernel exactly once, so the mix never changes and
/// only the order follows the seed.
pub fn suite_order(seed: u64, rounds: usize, kernels: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ 0x5017_E5EE);
    let mut out = Vec::with_capacity(rounds * kernels);
    for _ in 0..rounds {
        let mut round: Vec<usize> = (0..kernels).collect();
        for i in (1..round.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            round.swap(i, j);
        }
        out.extend(round);
    }
    out
}

/// `n` corpus indices drawn zipf(`ZIPF_S`) over `ZIPF_CORPUS` ranks; index
/// 0 is the most popular (and cheapest) module.
pub fn zipf_sequence(seed: u64, n: usize) -> Vec<usize> {
    let cdf = abcd_loadgen::zipf_cdf(ZIPF_CORPUS, ZIPF_S);
    let mut rng = SplitMix64::new(seed ^ 0x21BF_0071);
    (0..n)
        .map(|_| abcd_loadgen::sample_zipf(&cdf, rng.next_f64()))
        .collect()
}

/// `n` pairwise-distinct one-helper modules: the generator's cheapest
/// corpus shape (`abcd_loadgen::corpus` index 0), each with a fresh
/// seeded salt. Salts that repeat an earlier module (or one in `taken`)
/// are skipped, so every `work0` is new to the analysis cache.
pub fn unique_sources(seed: u64, n: usize, taken: &mut HashSet<String>) -> Vec<String> {
    let mut rng = SplitMix64::new(seed ^ 0x0417_C0DE);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let src = abcd_loadgen::corpus(rng.next_u64(), 1).remove(0);
        if taken.insert(src.clone()) {
            out.push(src);
        }
    }
    out
}

/// Nearest-rank percentile `p` (0–100) of ascending `sorted`, or `None`
/// when fewer than [`TAIL_SAMPLES`] samples lie above the chosen rank.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    // Rank = ceil(p/100 · n); the epsilon keeps float noise from bumping it.
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil().max(1.0) as usize;
    let rank = rank.min(sorted.len());
    (sorted.len() - rank >= TAIL_SAMPLES).then(|| sorted[rank - 1])
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The geometric mean of positive `values`.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// One recorded span: a named interval inside one operation.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The operation (module or request) this span belongs to.
    pub op: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Layer name, e.g. `frontend.parse`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Spans kept in memory for the whole run and written when it ends.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id; close it with [`Tracer::close`].
    pub fn open(&mut self, op: u32, parent: Option<u32>, name: &'static str) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: u32) {
        let end = self.now_ns();
        self.spans[id as usize].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        op: u32,
        parent: Option<u32>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(op, parent, name);
        let out = f();
        self.close(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, in nanoseconds: each span's duration
    /// minus the part its direct children cover.
    pub fn self_times(&self) -> Vec<(&'static str, u64)> {
        self.self_times_of(|_| true)
    }

    /// [`Tracer::self_times`] over the spans of the operations `keep`
    /// selects.
    pub fn self_times_of(&self, keep: impl Fn(u32) -> bool) -> Vec<(&'static str, u64)> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        for (s, c) in self.spans.iter().zip(child).filter(|(s, _)| keep(s.op)) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            match totals.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += own,
                None => totals.push((s.name, own)),
            }
        }
        totals
    }

    /// The spans as JSON lines, one span per line.
    pub fn jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"op\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// CPU time run by the threads of this process, from each thread's
/// `/proc/self/task/*/schedstat`. Time the hypervisor stole and time spent
/// waiting for a CPU are not counted, so on a shared host this measures
/// the program rather than its neighbours.
pub struct CpuClock {
    tasks: Vec<std::fs::File>,
    buf: String,
}

impl CpuClock {
    /// A clock over the threads alive now.
    pub fn process() -> CpuClock {
        let tasks = std::fs::read_dir("/proc/self/task")
            .map(|dir| {
                dir.flatten()
                    .filter_map(|t| std::fs::File::open(t.path().join("schedstat")).ok())
                    .collect()
            })
            .unwrap_or_default();
        CpuClock {
            tasks,
            buf: String::with_capacity(64),
        }
    }

    /// Total CPU time of the clock's threads, nanoseconds.
    pub fn now_ns(&mut self) -> u64 {
        use std::io::{Read, Seek};
        // A running thread's own total is brought up to date only when it
        // passes through the scheduler.
        std::thread::yield_now();
        let mut total = 0;
        for f in &mut self.tasks {
            self.buf.clear();
            if f.rewind().is_ok() && f.read_to_string(&mut self.buf).is_ok() {
                total += self
                    .buf
                    .split_whitespace()
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
        total
    }
}
