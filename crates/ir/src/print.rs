//! Textual dumping of functions and modules (for docs, tests, debugging).
//!
//! This is the one printer: `Display` (and so `to_string`, `{}`, and any
//! `fmt::Write` sink, such as the analysis cache's key hasher) goes
//! through it. It writes string pieces and digits with `write_str` rather
//! than `write!`, so no `fmt::Arguments` is built per token, and it
//! collects those small pieces into chunks, so the sink (reached through
//! the formatter's dynamic dispatch) is called once per chunk rather than
//! once per token.

use crate::entities::{CheckSite, Local, Value};
use crate::function::Function;
use crate::inst::{CheckKind, InstKind, PiGuard, Terminator, UnOp};
use crate::module::Module;
use std::fmt::{self, Formatter, Write};

/// Writes `n` in decimal.
pub(crate) fn write_decimal<W: Write + ?Sized>(w: &mut W, n: u64) -> fmt::Result {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut n = n;
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    w.write_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"))
}

/// Bytes the printer collects before passing them on.
const CHUNK: usize = 512;

/// Collects the printer's small writes and passes them to `out` in
/// chunks of about [`CHUNK`] bytes.
struct Chunked<'a, 'f> {
    out: &'a mut Formatter<'f>,
    buf: String,
}

impl<'a, 'f> Chunked<'a, 'f> {
    fn new(out: &'a mut Formatter<'f>) -> Self {
        Chunked {
            out,
            buf: String::with_capacity(CHUNK),
        }
    }

    fn flush(&mut self) -> fmt::Result {
        self.out.write_str(&self.buf)?;
        self.buf.clear();
        Ok(())
    }
}

impl Write for Chunked<'_, '_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if self.buf.len() + s.len() > CHUNK {
            self.flush()?;
        }
        self.buf.push_str(s);
        Ok(())
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        let mut w = Chunked::new(f);
        write_function(&mut w, self)?;
        w.flush()
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        let mut w = Chunked::new(f);
        for (i, (_, func)) in self.functions().enumerate() {
            if i > 0 {
                w.write_str("\n\n")?;
            }
            write_function(&mut w, func)?;
        }
        w.flush()
    }
}

fn write_function<W: Write>(w: &mut W, func: &Function) -> fmt::Result {
    w.write_str("func @")?;
    w.write_str(func.name())?;
    w.write_str("(")?;
    for (i, ty) in func.param_types().iter().enumerate() {
        w.write_str(if i > 0 { ", v" } else { "v" })?;
        write_decimal(w, i as u64)?;
        w.write_str(": ")?;
        ty.write(w)?;
    }
    w.write_str(")")?;
    if let Some(rt) = func.ret_type() {
        w.write_str(" -> ")?;
        rt.write(w)?;
    }
    w.write_str(" {\n")?;
    if func.local_count() > 0 {
        w.write_str("  locals ")?;
        for i in 0..func.local_count() {
            if i > 0 {
                w.write_str(", ")?;
            }
            let l = Local::new(i);
            l.write(w)?;
            w.write_str(": ")?;
            func.local_type(l).write(w)?;
        }
        w.write_str("\n")?;
    }
    for b in func.blocks() {
        let data = func.block(b);
        if data.insts().is_empty() && data.terminator_opt().is_none() {
            continue; // skip never-filled blocks
        }
        b.write(w)?;
        w.write_str(":\n")?;
        for &id in data.insts() {
            let inst = func.inst(id);
            w.write_str("    ")?;
            if let Some(r) = inst.result {
                r.write(w)?;
                w.write_str(": ")?;
                func.value_type(r).write(w)?;
                w.write_str(" = ")?;
            }
            write_kind(w, &inst.kind)?;
            w.write_str("\n")?;
        }
        if let Some(t) = data.terminator_opt() {
            match t {
                Terminator::Jump(d) => {
                    w.write_str("    jump ")?;
                    d.write(w)?;
                }
                Terminator::Branch {
                    cond,
                    then_dst,
                    else_dst,
                } => {
                    w.write_str("    br ")?;
                    cond.write(w)?;
                    w.write_str(", ")?;
                    then_dst.write(w)?;
                    w.write_str(", ")?;
                    else_dst.write(w)?;
                }
                Terminator::Return(None) => w.write_str("    ret")?,
                Terminator::Return(Some(v)) => {
                    w.write_str("    ret ")?;
                    v.write(w)?;
                }
            }
            w.write_str("\n")?;
        }
    }
    w.write_str("}")
}

/// `lhs, rhs`.
fn write_pair<W: Write>(w: &mut W, lhs: Value, rhs: Value) -> fmt::Result {
    lhs.write(w)?;
    w.write_str(", ")?;
    rhs.write(w)
}

/// `array[index]`.
fn write_element<W: Write>(w: &mut W, array: Value, index: Value) -> fmt::Result {
    array.write(w)?;
    w.write_str("[")?;
    index.write(w)?;
    w.write_str("]")
}

/// `family.kind array[index] @site`.
fn write_check<W: Write>(
    w: &mut W,
    family: &str,
    kind: CheckKind,
    array: Value,
    index: Value,
    site: CheckSite,
) -> fmt::Result {
    w.write_str(family)?;
    w.write_str(kind.mnemonic())?;
    w.write_str(" ")?;
    write_element(w, array, index)?;
    w.write_str(" @")?;
    site.write(w)
}

fn write_kind<W: Write>(w: &mut W, kind: &InstKind) -> fmt::Result {
    match kind {
        InstKind::Const(c) => {
            w.write_str(if *c < 0 { "const -" } else { "const " })?;
            write_decimal(w, c.unsigned_abs())
        }
        InstKind::BoolConst(c) => w.write_str(if *c { "bconst true" } else { "bconst false" }),
        InstKind::Unary { op, arg } => {
            w.write_str(match op {
                UnOp::Neg => "Neg ",
                UnOp::Not => "Not ",
            })?;
            arg.write(w)
        }
        InstKind::Binary { op, lhs, rhs } => {
            w.write_str(op.mnemonic())?;
            w.write_str(" ")?;
            write_pair(w, *lhs, *rhs)
        }
        InstKind::Compare { op, lhs, rhs } => {
            w.write_str("cmp.")?;
            w.write_str(op.mnemonic())?;
            w.write_str(" ")?;
            write_pair(w, *lhs, *rhs)
        }
        InstKind::NewArray { elem, len } => {
            w.write_str("newarray ")?;
            elem.write(w)?;
            w.write_str(", ")?;
            len.write(w)
        }
        InstKind::ArrayLen { array } => {
            w.write_str("arraylen ")?;
            array.write(w)
        }
        InstKind::Load { array, index } => {
            w.write_str("load ")?;
            write_element(w, *array, *index)
        }
        InstKind::Store {
            array,
            index,
            value,
        } => {
            w.write_str("store ")?;
            write_element(w, *array, *index)?;
            w.write_str(" = ")?;
            value.write(w)
        }
        InstKind::BoundsCheck {
            site,
            array,
            index,
            kind,
        } => write_check(w, "check.", *kind, *array, *index, *site),
        InstKind::SpecCheck {
            site,
            array,
            index,
            kind,
        } => write_check(w, "spec_check.", *kind, *array, *index, *site),
        InstKind::TrapIfFlagged {
            site,
            array,
            index,
            kind,
        } => write_check(w, "trap_if_flagged.", *kind, *array, *index, *site),
        InstKind::Phi { args } => {
            w.write_str("phi ")?;
            for (i, (b, v)) in args.iter().enumerate() {
                w.write_str(if i > 0 { ", [" } else { "[" })?;
                b.write(w)?;
                w.write_str(": ")?;
                v.write(w)?;
                w.write_str("]")?;
            }
            Ok(())
        }
        InstKind::Pi { input, guard } => {
            w.write_str("pi ")?;
            input.write(w)?;
            match guard {
                PiGuard::Branch { block, taken } => {
                    w.write_str(", [branch ")?;
                    block.write(w)?;
                    w.write_str(if *taken { " taken]" } else { " fallthrough]" })
                }
                PiGuard::Check { site, array, kind } => {
                    w.write_str(", [checked.")?;
                    w.write_str(kind.mnemonic())?;
                    w.write_str(" ")?;
                    array.write(w)?;
                    w.write_str(" @")?;
                    site.write(w)?;
                    w.write_str("]")
                }
            }
        }
        InstKind::Copy { arg } => {
            w.write_str("copy ")?;
            arg.write(w)
        }
        InstKind::Call { func, args } => {
            w.write_str("call ")?;
            func.write(w)?;
            w.write_str("(")?;
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    w.write_str(", ")?;
                }
                a.write(w)?;
            }
            w.write_str(")")
        }
        InstKind::Output { arg } => {
            w.write_str("output ")?;
            arg.write(w)
        }
        InstKind::GetLocal { local } => {
            w.write_str("get ")?;
            local.write(w)
        }
        InstKind::SetLocal { local, value } => {
            w.write_str("set ")?;
            local.write(w)?;
            w.write_str(" = ")?;
            value.write(w)
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::FunctionBuilder;
    use crate::inst::{CheckKind, CmpOp};
    use crate::types::Type;

    #[test]
    fn display_contains_checks_and_terminators() {
        let mut b = FunctionBuilder::new("show", vec![Type::array_of(Type::Int)], Some(Type::Int));
        let a = b.param(0);
        let i = b.iconst(3);
        b.bounds_check(a, i, CheckKind::Upper);
        let x = b.load(a, i);
        let c = b.compare(CmpOp::Lt, x, i);
        let (t, e) = (b.new_block(), b.new_block());
        b.branch(c, t, e);
        b.switch_to_block(t);
        b.ret(Some(x));
        b.switch_to_block(e);
        b.ret(Some(i));
        let f = b.finish().unwrap();
        let text = f.to_string();
        assert!(text.contains("check.upper v0[v1] @ck0"), "{text}");
        assert!(text.contains("br v3, bb1, bb2"), "{text}");
        assert!(text.contains("-> int"), "{text}");
    }
}
