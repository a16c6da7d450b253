//! `serve_zipf` and `serve_unique`: one closed-loop client on one UDS
//! connection at a time against an in-process `abcdd` (1 shard, 1 worker,
//! `jobs: 1`, in-memory analysis cache), every reply byte-compared with
//! the one-shot pipeline.

use crate::{cpu_seconds, repeated_setup, Layers, OpTimer, Quality, Run, Stages};
use abcd::{AnalysisCache, ModuleReport, Optimizer, OptimizerOptions};
use abcd_loadgen::Expected;
use abcd_perfbench::{unique_sources, zipf_sequence, Tracer, ZIPF_CORPUS};
use abcd_server::json::Json;
use abcd_server::{CallOptions, Endpoint, RetryPolicy, ServerConfig, ServerHandle};
use abcd_vm::Vm;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Requests per `--seconds`: a whole run, set-up included, then takes
/// about `--seconds` on a 2-vCPU host. `serve_unique` builds a reference
/// for every request during set-up, so it times fewer.
const ZIPF_PER_SECOND: u64 = 340;
const UNIQUE_PER_SECOND: u64 = 350;

/// Enough requests that p99 leaves at least ten above it.
const MIN_REQUESTS: u64 = 1010;

/// Distinct modules sent before timing on `serve_unique` (server and
/// cache warm-up; every one of them differs from the timed modules).
const UNIQUE_WARMUP: usize = 16;

/// Served modules whose code quality the VM measures.
const QUALITY_MODULES: usize = ZIPF_CORPUS;

/// Which request mix the client replays.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Zipf(1.2) over the 24-module cost-imbalanced corpus, warm cache.
    Zipf,
    /// Every request a distinct one-helper module: every `work0` misses.
    Unique,
}

/// The inputs of one run: distinct module sources and the index
/// sequences into them.
struct Inputs {
    sources: Vec<String>,
    warmup: Vec<usize>,
    timed: Vec<usize>,
    /// The traced phase's sequence (`serve_unique`: fresh modules, so the
    /// traced requests miss the cache too).
    traced: Vec<usize>,
    quality: Vec<usize>,
}

fn inputs(mix: Mix, seed: u64, n: usize, trace: bool) -> Inputs {
    match mix {
        Mix::Zipf => {
            let timed = zipf_sequence(seed, n);
            Inputs {
                sources: abcd_loadgen::corpus(seed, ZIPF_CORPUS),
                warmup: (0..ZIPF_CORPUS).collect(),
                traced: if trace { timed.clone() } else { Vec::new() },
                timed,
                quality: (0..QUALITY_MODULES).collect(),
            }
        }
        Mix::Unique => {
            let mut taken = HashSet::new();
            let mut sources = unique_sources(seed ^ 0x3A3A, UNIQUE_WARMUP, &mut taken);
            let traced_n = if trace { n } else { 0 };
            sources.extend(unique_sources(seed, n + traced_n, &mut taken));
            let first = UNIQUE_WARMUP;
            Inputs {
                warmup: (0..first).collect(),
                timed: (first..first + n).collect(),
                traced: (first + n..first + n + traced_n).collect(),
                quality: (first..first + QUALITY_MODULES.min(n)).collect(),
                sources,
            }
        }
    }
}

fn options() -> OptimizerOptions {
    OptimizerOptions::default()
}

/// Dynamic behaviour of the served code: every `work*` function of the
/// quality modules run on fixed arrays, unoptimized vs. optimized.
fn quality(sources: &[String], picks: &[usize]) -> Result<Quality, String> {
    // `b` is at least as long as `a`, so no `work*` call traps.
    let a: Vec<i64> = (0..16).map(|i| (i * 7 + 3) % 13 - 4).collect();
    let b: Vec<i64> = (0..24).map(|i| (i * 5 + 1) % 11 - 3).collect();
    let mut q = Quality::default();
    for &i in picks {
        let plain = abcd_frontend::compile(&sources[i]).map_err(|e| format!("module {i}: {e}"))?;
        let mut opt = plain.clone();
        let report = Optimizer::with_options(options())
            .with_threads(1)
            .optimize_module(&mut opt, None);
        q.add_report(&report);
        let mut vm_plain = Vm::new(&plain);
        let mut vm_opt = Vm::new(&opt);
        let mut run_s = 0.0;
        for (_, f) in plain.functions() {
            let name = f.name().to_string();
            if !name.starts_with("work") {
                continue;
            }
            let args = |vm: &mut Vm| [vm.alloc_int_array(&a), vm.alloc_int_array(&b)];
            let plain_args = args(&mut vm_plain);
            let want = vm_plain
                .call_by_name(&name, &plain_args)
                .map_err(|t| t.to_string());
            let opt_args = args(&mut vm_opt);
            let started = Instant::now();
            let got = vm_opt
                .call_by_name(&name, &opt_args)
                .map_err(|t| t.to_string());
            run_s += started.elapsed().as_secs_f64();
            if want.is_err() || want != got {
                eprintln!("perfbench: module {i} {name}: optimized result differs");
                q.failures += 1;
            }
        }
        q.add_run(*vm_plain.stats(), *vm_opt.stats(), run_s);
    }
    Ok(q)
}

/// The in-process daemon and the client's view of it.
struct Service {
    handle: Option<ServerHandle>,
    endpoint: Endpoint,
}

impl Service {
    fn start(tag: usize) -> Result<Service, String> {
        // A short relative path: UDS paths are limited to ~100 bytes.
        let socket = PathBuf::from(format!("perfbench-{}-{tag}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let config = ServerConfig {
            shards: 1,
            workers: 1,
            jobs: 1,
            cache: Some(Arc::new(AnalysisCache::in_memory(
                abcd::cache::DEFAULT_CACHE_BYTES,
            ))),
            ..ServerConfig::new(&socket)
        };
        let handle = abcd_server::start(config).map_err(|e| format!("start abcdd: {e}"))?;
        Ok(Service {
            handle: Some(handle),
            endpoint: Endpoint::uds(&socket),
        })
    }

    /// Sends one optimize request; `Ok` only for verified bytes.
    fn call(&self, source: &str, want: &str) -> Result<abcd_server::Optimized, String> {
        let reply = abcd_server::optimize_at(
            &self.endpoint,
            (source, false),
            &options(),
            None,
            &CallOptions::default(),
            &RetryPolicy::default(),
        )?;
        if reply.deadline_exceeded || reply.ir != want {
            return Err("served IR differs from the one-shot pipeline".to_string());
        }
        Ok(reply)
    }

    fn cache_counters(&self) -> (u64, u64, u64) {
        let stats = abcd_server::stats_at(&self.endpoint).ok();
        let n = |key: &str| {
            stats
                .as_ref()
                .and_then(|s| s.get("cache"))
                .and_then(|c| c.get(key))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        (n("hits"), n("misses"), n("stores"))
    }

    /// `abcdd_request_latency_us` (sum, count) from the exposition.
    fn handle_latency(&self) -> (f64, f64) {
        let text = abcd_server::metrics_at(&self.endpoint, false).unwrap_or_default();
        let read = |key: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        (
            read("abcdd_request_latency_us_sum "),
            read("abcdd_request_latency_us_count "),
        )
    }
}

impl Drop for Service {
    /// Drains the server and waits for its threads; the handle removes
    /// the socket file.
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = abcd_server::shutdown_at(&self.endpoint);
            handle.join();
        }
    }
}

struct State {
    inputs: Inputs,
    expected: Expected,
    quality: Quality,
    service: Service,
}

pub fn run(mix: Mix, seed: u64, seconds: u64, trace: bool) -> Result<Run, String> {
    let per_second = match mix {
        Mix::Zipf => ZIPF_PER_SECOND,
        Mix::Unique => UNIQUE_PER_SECOND,
    };
    let n = (seconds * per_second).max(MIN_REQUESTS) as usize;
    let mut run = Run::default();
    let mut tag = 0;
    let state = repeated_setup(&mut run, || {
        tag += 1;
        let inputs = inputs(mix, seed, n, trace);
        let expected = abcd_loadgen::expected_outputs(&inputs.sources, options())?;
        let quality = quality(&inputs.sources, &inputs.quality)?;
        let service = Service::start(tag)?;
        for &i in &inputs.warmup {
            service
                .call(&inputs.sources[i], &expected.optimized[i])
                .map_err(|e| format!("warm-up module {i}: {e}"))?;
        }
        Ok(State {
            inputs,
            expected,
            quality,
            service,
        })
    })?;
    let State {
        inputs,
        expected,
        quality: q,
        service,
    } = state;

    run.quality = q;
    run.info = format!(
        ",\"threads\":{{\"server_shards\":1,\"server_workers\":1,\"server_jobs\":1,\
         \"client_threads\":1,\"client_connections\":1}},\"requests\":{n},\"distinct_modules\":{}",
        inputs.sources.len()
    );

    // Untraced timed phase: closed loop, send → verified reply.
    let mut timer = OpTimer::start();
    for &i in &inputs.timed {
        let ok = timer.time(&mut run, || {
            service
                .call(&inputs.sources[i], &expected.optimized[i])
                .is_ok()
        });
        run.failed += u64::from(!ok);
    }
    timer.finish(&mut run);
    run.attempted = n as u64;

    if trace {
        traced(&mut run, &inputs, &expected, &service);
    }
    Ok(run)
}

/// The traced phase: the live requests again with spans around the
/// client call, then a replay of the server's pipeline on each request,
/// one span per layer call.
fn traced(run: &mut Run, inputs: &Inputs, expected: &Expected, service: &Service) {
    let mut tr = Tracer::new();
    let seq = &inputs.traced;
    let (hits0, misses0, stores0) = service.cache_counters();
    let (sum0, count0) = service.handle_latency();
    let mut served_from_cache = 0u64;
    let mut work_fns = 0u64;
    let ((), traced_cpu_s) = cpu_seconds(|| {
        for (op, &i) in seq.iter().enumerate() {
            let op = op as u32;
            let root = tr.open(op, None, "serve.request");
            let reply = tr.span(op, Some(root), "client.call", || {
                service.call(&inputs.sources[i], &expected.optimized[i])
            });
            tr.close(root);
            match reply {
                Ok(r) => served_from_cache += r.functions_from_cache,
                Err(_) => run.failed += 1,
            }
            work_fns += inputs.sources[i].matches("fn work").count() as u64;
        }
    });
    let (sum1, count1) = service.handle_latency();
    let (hits1, misses1, stores1) = service.cache_counters();
    run.attempted += seq.len() as u64;

    // Replay the server's request path, mirroring `handle_optimize`, with
    // a local cache warmed like the server's.
    let cache = Arc::new(AnalysisCache::in_memory(abcd::cache::DEFAULT_CACHE_BYTES));
    for &i in &inputs.warmup {
        let _ = replay(&mut Tracer::new(), 0, &inputs.sources[i], &cache);
    }
    let mut stages = Stages::default();
    let mut bytes = 0usize;
    for (op, &i) in seq.iter().enumerate() {
        match replay(&mut tr, op as u32, &inputs.sources[i], &cache) {
            Some((report, ir)) if ir == expected.optimized[i] => {
                bytes += ir.len();
                stages.add(&report);
            }
            _ => run.failed += 1,
        }
    }

    let n = seq.len();
    let mut l = Layers::new(&tr, n);
    l.stage_metrics(&stages);
    let handle_us = (sum1 - sum0) / (count1 - count0).max(1.0);
    l.set("server.handle_us", handle_us);
    let client_side = l.get("server.request_encode_us") + l.get("server.reply_decode_us");
    l.set(
        "server.transport_us",
        l.span_us("client.call") - handle_us - client_side,
    );
    let (hits, misses) = ((hits1 - hits0) as f64, (misses1 - misses0) as f64);
    l.set("core.cache_hit_ratio", hits / (hits + misses).max(1.0));
    l.set("core.cache_misses", misses);
    l.set("core.cache_stores", (stores1 - stores0) as f64);
    l.set(
        "core.misses_per_work_fn",
        misses / (work_fns as f64).max(1.0),
    );
    l.set("ir.reply_bytes", bytes as f64 / n.max(1) as f64);
    l.vm(&run.quality);
    let op_us = l.span_us("serve.request");
    l.set("total.op_us", op_us);
    l.throughputs(run.throughput_per_cpu_s(), n as f64 / traced_cpu_s);
    run.layers = l.finish();
    run.info.push_str(&format!(
        ",\"traced_work_fns\":{work_fns},\"traced_functions_from_cache\":{served_from_cache}"
    ));
    if inputs.sources.len() == ZIPF_CORPUS {
        // The largest corpus module on its own: its reply is the biggest
        // frame, so it shows the wire layers' size dependence.
        let largest = ZIPF_CORPUS - 1;
        let ops = seq.iter().filter(|&&i| i == largest).count().max(1) as f64;
        let times = tr.self_times_of(|op| seq[op as usize] == largest);
        let mut layers = String::new();
        for (name, ns) in times {
            let sep = if layers.is_empty() { "" } else { "," };
            layers.push_str(&format!("{sep}\"{name}\":{}", ns as f64 / 1e3 / ops));
        }
        run.info.push_str(&format!(
            ",\"largest_module\":{{\"index\":{largest},\"requests\":{ops},\"self_us\":{{{layers}}}}}"
        ));
    }
    run.tracer = Some(tr);
}

/// One request through the layers the server runs, each timed by a span:
/// client encode, request decode, front end, cache key, optimize, print,
/// reply encode, and the client's reply decode. The preparation stages are
/// replayed on clones as well.
fn replay(
    tr: &mut Tracer,
    op: u32,
    source: &str,
    cache: &Arc<AnalysisCache>,
) -> Option<(ModuleReport, String)> {
    let opts = options();
    let root = tr.open(op, None, "replay.request");
    let request = tr.span(op, Some(root), "server.request_encode", || {
        abcd_server::proto::optimize_request_json(
            (source, false),
            &opts,
            None,
            false,
            false,
            false,
            None,
        )
    });
    let decoded = tr.span(op, Some(root), "server.request_decode", || {
        abcd_server::proto::parse_request(request.as_bytes())
    });
    let ast = tr.span(op, Some(root), "frontend.parse", || {
        abcd_frontend::parse(source)
    });
    let lowered = ast.ok().and_then(|ast| {
        tr.span(op, Some(root), "frontend.lower", || {
            abcd_frontend::lower(&ast).ok()
        })
    });
    let (Ok(_), Some(mut module)) = (decoded, lowered) else {
        tr.close(root);
        return None;
    };
    tr.span(op, Some(root), "core.cache_key", || {
        module
            .functions()
            .map(|(_, f)| abcd_ir::canonicalize(f).to_string().len())
            .sum::<usize>()
    });
    tr.close(root);
    crate::replay_prepare(tr, op, &module);
    let root = tr.open(op, None, "replay.request");
    let report = tr.span(op, Some(root), "core.optimize", || {
        Optimizer::with_options(opts)
            .with_threads(1)
            .with_cache(Arc::clone(cache))
            .optimize_module(&mut module, None)
    });
    let ir = tr.span(op, Some(root), "ir.print", || module.to_string());
    let reply = tr.span(op, Some(root), "server.reply_encode", || {
        abcd_server::proto::ok_response(&ir, &report, false, None, None)
    });
    let parsed = tr.span(op, Some(root), "server.reply_decode", || {
        Json::parse(&reply)
    });
    tr.close(root);
    parsed.ok()?;
    Some((report, ir))
}
