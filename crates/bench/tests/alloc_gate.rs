//! The steady-state allocation gate: once a prover's buffers are warm
//! (one reserve pass over every query), re-deriving every verdict of every
//! benchsuite kernel with the demand prover must perform **zero** heap
//! allocations. This is the executable form of the zero-allocation
//! prove-path claim in `DESIGN.md` §5i.
//!
//! Protocol per function:
//!
//! 1. build the upper/lower graphs and arena-backed provers (the
//!    per-function *reserve* — allocation here is expected and unmeasured);
//! 2. pass 1: answer every check query, warming the memo tables to their
//!    high-water capacity;
//! 3. `reset_memo()`: forget the verdicts but keep every buffer — the next
//!    pass re-traverses for real, it does not just replay memo hits;
//! 4. pass 2 under the counting allocator: assert 0 allocations and
//!    byte-identical verdicts.

use abcd::{DemandProver, InequalityGraph, Problem, ScratchArena, Vertex};
use abcd_ir::{CheckKind, InstKind, Value};

#[global_allocator]
static ALLOC: abcd_alloc::CountingAlloc = abcd_alloc::CountingAlloc;

/// Stages 1–3 of the driver pipeline, minus the optional cleanup: the
/// e-SSA form the constraint graphs are defined over.
fn to_essa(func: &mut abcd_ir::Function) {
    abcd_ssa::split_critical_edges(func);
    abcd_ssa::promote_locals(func).expect("frontend guarantees definite assignment");
    abcd_ssa::insert_pi_nodes(func);
}

#[test]
fn steady_state_prove_allocates_nothing() {
    let mut arena = ScratchArena::new();
    let mut gated_queries = 0u64;
    let mut gated_functions = 0u64;
    for bench in abcd_benchsuite::BENCHMARKS {
        let mut module = bench.compile().expect("benchmark compiles");
        for (_, func) in module.functions_mut() {
            to_essa(func);
            let mut checks: Vec<(Value, Value, CheckKind)> = Vec::new();
            for b in func.blocks() {
                for &id in func.block(b).insts() {
                    if let InstKind::BoundsCheck {
                        array, index, kind, ..
                    } = func.inst(id).kind
                    {
                        checks.push((array, index, kind));
                    }
                }
            }
            if checks.is_empty() {
                continue;
            }
            gated_functions += 1;
            // Distinct arrays, so every upper prover exists before the
            // measured pass (prover construction is part of the reserve).
            let mut arrays: Vec<Value> = checks
                .iter()
                .filter(|(_, _, k)| matches!(k, CheckKind::Upper | CheckKind::Both))
                .map(|&(a, _, _)| a)
                .collect();
            arrays.sort_unstable();
            arrays.dedup();
            let upper = InequalityGraph::build(func, Problem::Upper, None);
            let lower = InequalityGraph::build(func, Problem::Lower, None);
            let mut upper_provers: Vec<DemandProver> = arrays
                .iter()
                .map(|&a| DemandProver::with_arena(&upper, Vertex::ArrayLen(a), &mut arena))
                .collect();
            let mut lower_prover = DemandProver::with_arena(&lower, Vertex::Const(0), &mut arena);
            let run = |ups: &mut [DemandProver], low: &mut DemandProver| -> u64 {
                let mut proven = 0;
                for &(array, index, kind) in &checks {
                    if matches!(kind, CheckKind::Upper | CheckKind::Both) {
                        let i = arrays.binary_search(&array).expect("prover exists");
                        if ups[i].demand_prove(Vertex::Value(index), -1) {
                            proven += 1;
                        }
                    }
                    if matches!(kind, CheckKind::Lower | CheckKind::Both)
                        && low.demand_prove(Vertex::Value(index), 0)
                    {
                        proven += 1;
                    }
                }
                proven
            };
            // Pass 1: the reserve — warms every table to its final size.
            let warm = run(&mut upper_provers, &mut lower_prover);
            // Forget verdicts, keep capacity: pass 2 does real work.
            for p in upper_provers.iter_mut() {
                p.reset_memo();
            }
            lower_prover.reset_memo();
            // Pass 2: the measured steady state.
            let before = abcd_alloc::snapshot();
            let again = run(&mut upper_provers, &mut lower_prover);
            let d = abcd_alloc::delta(before);
            assert_eq!(
                d.allocs,
                0,
                "{}/{}: the demand prover allocated {} times ({} bytes) \
                 re-proving {} checks in steady state",
                bench.name,
                func.name(),
                d.allocs,
                d.bytes,
                checks.len(),
            );
            assert_eq!(warm, again, "verdicts changed across the reset");
            gated_queries += u64::try_from(checks.len()).unwrap();
            for p in upper_provers {
                p.reclaim(&mut arena);
            }
            lower_prover.reclaim(&mut arena);
        }
    }
    // The gate must have exercised real work on every kernel.
    assert!(
        gated_functions >= 15 && gated_queries > 100,
        "gate coverage collapsed: {gated_functions} functions, {gated_queries} queries"
    );
}
