//! Canonical renumbering of functions.
//!
//! After optimization a function's value and block id spaces have holes:
//! deleted instructions leave unreferenced arena slots, and builder scratch
//! blocks may never have been filled. The printed text then carries the
//! gaps (`v7` missing, `bb1` skipped), and — because the IR parser
//! renumbers densely — `parse(print(f))` prints *differently* from `f`.
//!
//! [`canonicalize`] rebuilds the function with values numbered densely in
//! definition order and blocks numbered densely in appearance order
//! (never-filled blocks dropped), exactly the numbering the parser
//! produces. On canonical functions `print` and `parse` are mutual
//! inverses byte-for-byte, which is what makes printed IR usable as a
//! content-addressed cache payload: `print(parse(text)) == text`.

use crate::entities::{Block, Value};
use crate::function::Function;
use crate::inst::{InstKind, PiGuard};

/// Returns `func` rebuilt with dense, parser-identical numbering: values
/// in definition order (parameters first), blocks in appearance order with
/// never-filled blocks removed, instructions re-created in program order.
/// Locals, parameter/return types, and the check-site count are preserved.
///
/// The result is semantically identical to `func` (same CFG, same
/// instruction sequence, same operands up to renaming) and printing it is
/// a fixpoint of `parse` ∘ `print`.
///
/// # Panics
///
/// Panics if an operand names a value no linked instruction or parameter
/// defines, or a block reference names a never-filled block.
pub fn canonicalize(func: &Function) -> Function {
    let mut out = Function::new(
        func.name_symbol(),
        func.param_types().to_vec(),
        func.ret_type().cloned(),
    );
    for i in 0..func.local_count() {
        out.new_local(func.local_type(crate::Local::new(i)).clone());
    }
    out.reserve_check_sites(func.check_site_count());

    // Blocks in appearance order, skipping never-filled ones (the printer
    // omits them, and nothing reachable may target them).
    let mut block_map: Vec<Option<Block>> = vec![None; func.block_count()];
    let mut live_blocks: Vec<Block> = Vec::with_capacity(func.block_count());
    out.reserve(0, 0, func.block_count());
    for b in func.blocks() {
        let data = func.block(b);
        if data.insts().is_empty() && data.terminator_opt().is_none() {
            continue;
        }
        let nb = if live_blocks.is_empty() {
            out.entry()
        } else {
            out.new_block()
        };
        block_map[b.index()] = Some(nb);
        live_blocks.push(b);
    }

    // Pre-scan: assign dense value ids in definition order. Parameters map
    // to themselves; instruction results get ids in program order. The map
    // must be complete before any instruction is rebuilt because phi
    // operands may reference values defined later (loop back-edges).
    let mut value_map: Vec<Option<Value>> = vec![None; func.value_count()];
    for (i, slot) in value_map.iter_mut().enumerate().take(func.param_count()) {
        *slot = Some(Value::new(i));
    }
    let mut next = func.param_count();
    let mut inst_count = 0;
    for &b in &live_blocks {
        for &id in func.block(b).insts() {
            if let Some(r) = func.inst(id).result {
                value_map[r.index()] = Some(Value::new(next));
                next += 1;
            }
        }
        inst_count += func.block(b).insts().len();
    }
    out.reserve(next - func.param_count(), inst_count, 0);
    let value = |v: Value| value_map[v.index()].expect("use of an undefined value");
    let block = |b: Block| block_map[b.index()].expect("reference to a never-filled block");

    // Rebuild instructions and terminators with remapped operands.
    for &b in &live_blocks {
        let nb = block(b);
        let old_insts = func.block(b).insts();
        let mut new_insts = Vec::with_capacity(old_insts.len());
        for &id in old_insts {
            let inst = func.inst(id);
            let mut kind = inst.kind.clone();
            kind.map_uses(value);
            remap_blocks(&mut kind, block);
            let ty = inst.result.map(|r| func.value_type(r).clone());
            let nid = out.create_inst(kind, ty);
            new_insts.push(nid);
            // create_inst allocates results in creation order, which is the
            // pre-scan order — the mapping must agree.
            debug_assert_eq!(out.inst(nid).result, inst.result.map(value));
        }
        out.set_block_insts(nb, new_insts);
        if let Some(term) = func.block(b).terminator_opt() {
            let mut t = term.clone();
            t.map_uses(value);
            t.map_successors(block);
            out.set_terminator(nb, t);
        }
    }
    debug_assert_eq!(out.value_count(), next);
    out
}

/// Remaps the block references embedded in instruction kinds (φ incoming
/// edges and π branch guards); everything else is block-free.
fn remap_blocks(kind: &mut InstKind, map: impl Fn(Block) -> Block) {
    match kind {
        InstKind::Phi { args } => {
            for (b, _) in args.iter_mut() {
                *b = map(*b);
            }
        }
        InstKind::Pi {
            guard: PiGuard::Branch { block, .. },
            ..
        } => {
            *block = map(*block);
        }
        _ => {}
    }
}

/// Is `func` already in canonical form? Not cheap: it rebuilds the
/// function with [`canonicalize`] and prints both versions to compare
/// them. For tests and debug assertions.
pub fn is_canonical(func: &Function) -> bool {
    canonicalize(func).to_string() == func.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::ValueDef;
    use crate::inst::{BinOp, CheckKind};
    use crate::parse::parse_function_text;
    use crate::types::Type;
    use crate::verify::verify_function;

    /// A function with value holes (removed insts) and a never-filled block.
    fn holey() -> Function {
        let mut b = FunctionBuilder::new("h", vec![Type::array_of(Type::Int)], Some(Type::Int));
        let a = b.param(0);
        let i = b.iconst(2);
        let dead = b.binary(BinOp::Add, i, i); // will be unlinked
        b.bounds_check(a, i, CheckKind::Upper);
        let x = b.load(a, i);
        let _scratch = b.new_block(); // never filled
        let exit = b.new_block();
        b.jump(exit);
        b.switch_to_block(exit);
        let s = b.binary(BinOp::Add, x, i);
        b.ret(Some(s));
        let mut f = b.finish().unwrap();
        // Unlink the dead add, leaving a hole in the value space.
        let entry = f.entry();
        let dead_id = match f.value_def(dead) {
            ValueDef::Inst(id) => id,
            _ => unreachable!(),
        };
        assert!(f.remove_inst(entry, dead_id));
        f
    }

    #[test]
    fn canonical_print_is_a_parse_fixpoint() {
        let f = holey();
        let canon = canonicalize(&f);
        verify_function(&canon, None).unwrap();
        let text = canon.to_string();
        let reparsed = parse_function_text(&text).unwrap();
        assert_eq!(reparsed.to_string(), text, "print∘parse not a fixpoint");
        assert!(is_canonical(&canon));
        // The original, holey function is *not* canonical.
        assert!(!is_canonical(&f));
    }

    #[test]
    fn canonicalize_is_idempotent_and_preserves_shape() {
        let f = holey();
        let c1 = canonicalize(&f);
        let c2 = canonicalize(&c1);
        assert_eq!(c1.to_string(), c2.to_string());
        assert_eq!(c1.check_site_count(), f.check_site_count());
        assert_eq!(c1.local_count(), f.local_count());
        assert_eq!(c1.count_checks(), f.count_checks());
        // Dense: every value is either a param or a linked instruction.
        assert_eq!(c1.value_count(), f.value_count() - 1); // dead add gone
    }

    #[test]
    fn phis_and_back_edges_survive() {
        let text = "\
func @loop(v0: int[]) -> int {
bb0:
    v1: int = const 0
    jump bb1
bb1:
    v2: int = phi [bb0: v1], [bb2: v4]
    v3: bool = cmp.lt v2, v1
    br v3, bb2, bb3
bb2:
    v4: int = add v2, v2
    jump bb1
bb3:
    ret v2
}
";
        let f = parse_function_text(text).unwrap();
        let canon = canonicalize(&f);
        verify_function(&canon, None).unwrap();
        assert_eq!(canon.to_string(), text.trim_end());
    }
}
