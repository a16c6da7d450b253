//! A parser for the textual IR format produced by the `Display` impls —
//! the inverse of `print.rs`.
//!
//! Round-tripping (`parse(func.to_string())`) is guaranteed by property
//! tests; the format is handy for writing IR-level tests and for pasting
//! optimizer dumps back into a reproducible harness. It is also the
//! analysis cache's replay path and the `abcdd` `"ir"` request format, so
//! the reader takes text from outside the program: every input returns
//! `Ok` or an error with a line number, never a panic.
//!
//! The grammar is line-oriented:
//!
//! ```text
//! func @name(v0: int[], v1: int) -> int {
//!   locals loc0: int, loc1: int[][]
//! bb0:
//!     v2: int = const 3
//!     v3: int = add v2, v2
//!     check.upper v0[v3] @ck0
//!     v4: int = pi v3, [checked.upper v0 @ck0]
//!     br v5, bb1, bb2
//! ...
//! }
//! ```
//!
//! Value names in the text are arbitrary (`v17` may appear before `v9`);
//! the parser renumbers them densely in definition order, and blocks
//! densely in label order.
//!
//! **One pass.** The reader parses the text once, line by line, reading
//! each line's mnemonic once and dispatching on it; whitespace, names and
//! integers are scanned as ASCII bytes. Names map to entities through
//! dense tables. A use that precedes its definition (a φ operand on a
//! back edge, a branch to a later block) gets a placeholder and is
//! patched once the function's closing `}` is reached. The arenas grow as
//! the function is read and are shrunk to fit at its end.

use crate::entities::{Block, CheckSite, FuncId, InstId, Local, Value};
use crate::function::Function;
use crate::inst::{BinOp, CheckKind, CmpOp, InstKind, PiGuard, Terminator, UnOp};
use crate::module::Module;
use crate::types::Type;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A failure while parsing textual IR.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseIrError {
    /// 1-based line number.
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for ParseIrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IR parse error at line {}: {}", self.line, self.message)
    }
}

impl Error for ParseIrError {}

/// Parses a whole module (one or more `func` definitions).
///
/// # Errors
///
/// Returns the first syntax error with its line number.
pub fn parse_module(text: &str) -> Result<Module, ParseIrError> {
    let mut module = Module::new();
    for func in parse_functions(text)? {
        module.add_function(func);
    }
    Ok(module)
}

/// Parses a single function (convenience wrapper).
///
/// # Errors
///
/// Returns the first syntax error.
pub fn parse_function_text(text: &str) -> Result<Function, ParseIrError> {
    let mut funcs = parse_functions(text)?;
    if funcs.len() != 1 {
        return Err(ParseIrError {
            line: 1,
            message: format!("expected 1 function, found {}", funcs.len()),
        });
    }
    Ok(funcs.pop().expect("exactly one function"))
}

/// The reader's internal result: errors are boxed so the many small
/// `Result`s passed along the hot path stay two words wide.
type PResult<T> = Result<T, Box<ParseIrError>>;

fn parse_functions(text: &str) -> Result<Vec<Function>, ParseIrError> {
    let mut lines = Lines {
        rest: text,
        line_no: 0,
    };
    let mut funcs = Vec::new();
    while let Some((line_no, line)) = lines.next() {
        if !line.is_empty() {
            funcs.push(parse_function(&mut lines, line_no, line).map_err(|e| *e)?);
        }
    }
    Ok(funcs)
}

// ---------------------------------------------------------------------

/// The text's lines, ASCII-trimmed, with 1-based numbers.
#[derive(Clone)]
struct Lines<'a> {
    rest: &'a str,
    line_no: usize,
}

impl<'a> Iterator for Lines<'a> {
    type Item = (usize, &'a str);

    fn next(&mut self) -> Option<(usize, &'a str)> {
        if self.rest.is_empty() {
            return None;
        }
        // IR lines are short: a plain scan beats `memchr`'s set-up.
        let bytes = self.rest.as_bytes();
        let end = bytes.iter().position(|&b| b == b'\n');
        let (line, rest) = match end {
            Some(i) => (&self.rest[..i], &self.rest[i + 1..]),
            None => (self.rest, ""),
        };
        self.rest = rest;
        self.line_no += 1;
        Some((self.line_no, line.trim_ascii()))
    }
}

/// Identifier bytes: ASCII letters, digits, `_` and `.`.
fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'.'
}

/// Reads an entity name (`prefix`, decimal digits, then the end of the
/// identifier) at the start of `bytes` in one scan: its length and
/// number, or `None` if there is no such name or its number is not below
/// `u32::MAX` (the top id is left free: it would overflow a count).
fn entity_number(bytes: &[u8], prefix: &str) -> Option<(usize, usize)> {
    let digits = bytes.strip_prefix(prefix.as_bytes())?;
    let mut n = 0u32;
    let mut len = 0;
    while let Some(&d) = digits.get(len).filter(|d| d.is_ascii_digit()) {
        n = n.checked_mul(10)?.checked_add(u32::from(d - b'0'))?;
        len += 1;
    }
    let ends = !digits.get(len).copied().is_some_and(is_ident_byte);
    (len > 0 && ends && n < u32::MAX).then_some((prefix.len() + len, n as usize))
}

/// Deepest array type the reader builds (`int` plus this many `[]`).
const MAX_ARRAY_DEPTH: usize = 64;

/// A cursor over one line. `pos` only ever advances over ASCII bytes, so
/// it always sits on a character boundary.
struct P<'a> {
    line_no: usize,
    line: &'a str,
    pos: usize,
}

impl<'a> P<'a> {
    fn new(line_no: usize, line: &'a str) -> Self {
        P {
            line_no,
            line,
            pos: 0,
        }
    }

    #[cold]
    fn err<T>(&self, message: impl Into<String>) -> PResult<T> {
        Err(Box::new(ParseIrError {
            line: self.line_no,
            message: message.into(),
        }))
    }

    fn rest(&self) -> &'a str {
        &self.line[self.pos..]
    }

    fn peek(&self) -> Option<u8> {
        self.line.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        let bytes = self.line.as_bytes();
        while self.pos < bytes.len() && bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.line.as_bytes()[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, token: &str) -> PResult<()> {
        if self.eat(token) {
            Ok(())
        } else {
            self.err(format!("expected `{token}` at `{}`", self.rest()))
        }
    }

    /// Fails unless only whitespace is left on the line.
    fn finish(&mut self) -> PResult<()> {
        self.skip_ws();
        if self.pos == self.line.len() {
            Ok(())
        } else {
            self.err(format!("unexpected `{}` at end of line", self.rest()))
        }
    }

    /// An identifier: a non-empty run of ASCII letters, digits, `_`, `.`.
    fn ident(&mut self) -> PResult<&'a str> {
        self.skip_ws();
        let bytes = self.line.as_bytes();
        let start = self.pos;
        while self.pos < bytes.len() && is_ident_byte(bytes[self.pos]) {
            self.pos += 1;
        }
        if self.pos == start {
            return self.err(format!("expected identifier at `{}`", self.rest()));
        }
        Ok(&self.line[start..self.pos])
    }

    /// The number of an entity name such as `v12` already read as `id`.
    fn index_in(&self, id: &str, prefix: &str) -> PResult<usize> {
        match entity_number(id.as_bytes(), prefix) {
            Some((len, n)) if len == id.len() => Ok(n),
            _ => self.bad_entity(id, prefix),
        }
    }

    /// The number of an entity name such as `v12` read here.
    fn index_of(&mut self, prefix: &str) -> PResult<usize> {
        self.skip_ws();
        match entity_number(&self.line.as_bytes()[self.pos..], prefix) {
            Some((len, n)) => {
                self.pos += len;
                Ok(n)
            }
            None => {
                let id = self.ident()?;
                self.bad_entity(id, prefix)
            }
        }
    }

    /// The error for `id`, which is not a `prefix`N name in range.
    #[cold]
    fn bad_entity<T>(&self, id: &str, prefix: &str) -> PResult<T> {
        let digits = id.strip_prefix(prefix).unwrap_or_default();
        if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
            self.err(format!("`{id}` out of range"))
        } else {
            self.err(format!("expected `{prefix}N`, found `{id}`"))
        }
    }

    fn int(&mut self) -> PResult<i64> {
        self.skip_ws();
        let bytes = self.line.as_bytes();
        let neg = self.peek() == Some(b'-');
        let start = self.pos + usize::from(neg);
        let mut end = start;
        while end < bytes.len() && bytes[end].is_ascii_digit() {
            end += 1;
        }
        if end == start {
            return self.err(format!("expected integer at `{}`", self.rest()));
        }
        let digits = &self.line[start..end];
        let magnitude = digits.bytes().try_fold(0u64, |n, d| {
            n.checked_mul(10)?.checked_add(u64::from(d - b'0'))
        });
        // The sign belongs to the literal: `-9223372036854775808` is i64::MIN.
        let value = match magnitude {
            Some(m) if neg && m <= 1 << 63 => Some((m as i64).wrapping_neg()),
            Some(m) if !neg => i64::try_from(m).ok(),
            _ => None,
        };
        let Some(value) = value else {
            return self.err(format!("integer `{digits}` out of range"));
        };
        self.pos = end;
        Ok(value)
    }

    fn ty(&mut self) -> PResult<Type> {
        let mut t = if self.eat("int") {
            Type::Int
        } else if self.eat("bool") {
            Type::Bool
        } else {
            return self.err(format!("expected type at `{}`", self.rest()));
        };
        let mut depth = 0;
        while self.eat("[]") {
            depth += 1;
            if depth > MAX_ARRAY_DEPTH {
                return self.err(format!(
                    "array type nested deeper than {MAX_ARRAY_DEPTH} levels"
                ));
            }
            t = Type::array_of(t);
        }
        Ok(t)
    }

    fn check_kind(&self, suffix: &str) -> PResult<CheckKind> {
        match suffix {
            "lower" => Ok(CheckKind::Lower),
            "upper" => Ok(CheckKind::Upper),
            "both" => Ok(CheckKind::Both),
            _ => self.err("expected lower/upper/both"),
        }
    }
}

/// What a text name (`v7`, `bb3`) currently denotes.
#[derive(Clone, Copy)]
enum Slot {
    Free,
    /// Defined as this entity index.
    Defined(u32),
    /// Used before its definition; index into the pending list.
    Pending(u32),
}

/// Text name numbers → slots: a dense table for the names canonical text
/// uses, a map for anything sparser.
///
/// Canonical text names about one value or block per line, so the dense
/// table may only grow to a limit that rises with the lines read in the
/// function so far (see [`Reader::dense_limit`]). Each function's table
/// then stays in proportion to its own text, and reading stays linear
/// however large the names in a text are. A name stored in the map while
/// the limit was low stays found there: a `Free` dense slot falls through
/// to the map.
#[derive(Default)]
struct Names {
    dense: Vec<Slot>,
    sparse: HashMap<usize, Slot>,
}

impl Names {
    fn get(&self, n: usize) -> Slot {
        match self.dense.get(n) {
            Some(&slot @ (Slot::Defined(_) | Slot::Pending(_))) => slot,
            _ if self.sparse.is_empty() => Slot::Free,
            _ => self.sparse.get(&n).copied().unwrap_or(Slot::Free),
        }
    }

    /// Binds name `n`; the dense table grows to hold it only below `limit`.
    fn set(&mut self, n: usize, slot: Slot, limit: usize) {
        if n < self.dense.len() || n < limit {
            if n >= self.dense.len() {
                self.dense.resize(n + 1, Slot::Free);
            }
            self.dense[n] = slot;
        } else {
            self.sparse.insert(n, slot);
        }
    }
}

/// A name used before its definition: where it was first used and, once
/// its definition is read, what it denotes.
struct Forward {
    name: usize,
    line: usize,
    target: Option<u32>,
}

/// One namespace (values or blocks) of the function being read.
#[derive(Default)]
struct Space {
    names: Names,
    forward: Vec<Forward>,
}

/// Placeholders count down from the top of the id space, far above any
/// real id (one per line of text at most).
fn placeholder(k: usize) -> usize {
    u32::MAX as usize - k
}

impl Space {
    /// Binds name `n` to entity `id`; `false` if `n` was already bound.
    fn define(&mut self, n: usize, id: usize, limit: usize) -> bool {
        match self.names.get(n) {
            Slot::Defined(_) => return false,
            Slot::Pending(k) => self.forward[k as usize].target = Some(id as u32),
            Slot::Free => {}
        }
        self.names.set(n, Slot::Defined(id as u32), limit);
        true
    }

    /// The entity index for a use of name `n` on `line`, and whether it
    /// is a placeholder to patch later.
    fn use_of(&mut self, n: usize, line: usize, limit: usize) -> (usize, bool) {
        match self.names.get(n) {
            Slot::Defined(id) => (id as usize, false),
            Slot::Pending(k) => (placeholder(k as usize), true),
            Slot::Free => {
                let k = self.forward.len();
                self.forward.push(Forward {
                    name: n,
                    line,
                    target: None,
                });
                self.names.set(n, Slot::Pending(k as u32), limit);
                (placeholder(k), true)
            }
        }
    }

    /// The first name used but never defined, if any.
    fn undefined(&self) -> Option<&Forward> {
        self.forward.iter().find(|f| f.target.is_none())
    }

    /// Maps a placeholder to its definition; real ids pass through.
    fn resolve(&self, id: usize) -> usize {
        if id + self.forward.len() > u32::MAX as usize {
            let f = &self.forward[u32::MAX as usize - id];
            f.target.expect("forward names resolved") as usize
        } else {
            id
        }
    }
}

/// The state of one function being read.
struct Reader {
    func: Function,
    values: Space,
    blocks: Space,
    /// The block being read and its instructions so far (stored into the
    /// function at the next label, at their final length).
    current: Option<Block>,
    block_insts: Vec<InstId>,
    /// Instructions and terminators holding placeholders.
    patch_insts: Vec<InstId>,
    patch_terms: Vec<Block>,
    /// Did the current line use a placeholder?
    line_forward: bool,
    max_site: Option<usize>,
    /// Names below this may grow the dense name tables (see [`Names`]).
    dense_limit: usize,
}

/// The dense name tables' limit before a function's first body line, on
/// top of one slot per parameter.
const DENSE_BASE: usize = 64;
/// The limit's rise per body line read: a line defines at most one value
/// or block, and the second slot leaves room for names used before their
/// definition.
const DENSE_PER_LINE: usize = 2;

impl Reader {
    fn value(&mut self, p: &mut P) -> PResult<Value> {
        let n = p.index_of("v")?;
        let (id, forward) = self.values.use_of(n, p.line_no, self.dense_limit);
        self.line_forward |= forward;
        Ok(Value::new(id))
    }

    fn block_ref(&mut self, p: &mut P) -> PResult<Block> {
        let n = p.index_of("bb")?;
        let (id, forward) = self.blocks.use_of(n, p.line_no, self.dense_limit);
        self.line_forward |= forward;
        Ok(Block::new(id))
    }

    fn site(&mut self, p: &mut P) -> PResult<CheckSite> {
        p.expect("@")?;
        let n = p.index_of("ck")?;
        self.max_site = Some(self.max_site.map_or(n, |m| m.max(n)));
        Ok(CheckSite::new(n))
    }

    /// `array[index]`.
    fn element(&mut self, p: &mut P) -> PResult<(Value, Value)> {
        let array = self.value(p)?;
        p.expect("[")?;
        let index = self.value(p)?;
        p.expect("]")?;
        Ok((array, index))
    }

    /// `lhs, rhs`.
    fn pair(&mut self, p: &mut P) -> PResult<(Value, Value)> {
        let lhs = self.value(p)?;
        p.expect(",")?;
        let rhs = self.value(p)?;
        Ok((lhs, rhs))
    }

    /// `fnN(v1, v2, …)`.
    fn call_tail(&mut self, p: &mut P) -> PResult<(FuncId, Vec<Value>)> {
        let n = p.index_of("fn")?;
        p.expect("(")?;
        let mut args = Vec::new();
        while !p.eat(")") {
            if !args.is_empty() {
                p.expect(",")?;
            }
            args.push(self.value(p)?);
        }
        Ok((FuncId::new(n), args))
    }

    fn append(&mut self, p: &P, block: Block, kind: InstKind, ty: Option<Type>) -> PResult<()> {
        if self.func.is_terminated(block) {
            return p.err("instruction after the block's terminator");
        }
        let id = self.func.create_inst(kind, ty);
        self.block_insts.push(id);
        if self.line_forward {
            self.patch_insts.push(id);
        }
        Ok(())
    }

    fn terminate(&mut self, p: &P, block: Block, term: Terminator) -> PResult<()> {
        if self.func.is_terminated(block) {
            return p.err("instruction after the block's terminator");
        }
        self.func.set_terminator(block, term);
        if self.line_forward {
            self.patch_terms.push(block);
        }
        Ok(())
    }

    /// One body line; `word` is its first identifier.
    fn statement(&mut self, p: &mut P, word: &str, block: Block) -> PResult<()> {
        match word {
            "jump" => {
                let dst = self.block_ref(p)?;
                self.terminate(p, block, Terminator::Jump(dst))
            }
            "br" => {
                let cond = self.value(p)?;
                p.expect(",")?;
                let then_dst = self.block_ref(p)?;
                p.expect(",")?;
                let else_dst = self.block_ref(p)?;
                let term = Terminator::Branch {
                    cond,
                    then_dst,
                    else_dst,
                };
                self.terminate(p, block, term)
            }
            "ret" => {
                p.skip_ws();
                let v = match p.peek() {
                    None => None,
                    Some(_) => Some(self.value(p)?),
                };
                self.terminate(p, block, Terminator::Return(v))
            }
            "store" => {
                let (array, index) = self.element(p)?;
                p.expect("=")?;
                let value = self.value(p)?;
                let kind = InstKind::Store {
                    array,
                    index,
                    value,
                };
                self.append(p, block, kind, None)
            }
            "output" => {
                let arg = self.value(p)?;
                self.append(p, block, InstKind::Output { arg }, None)
            }
            "set" => {
                let local = Local::new(p.index_of("loc")?);
                p.expect("=")?;
                let value = self.value(p)?;
                self.append(p, block, InstKind::SetLocal { local, value }, None)
            }
            "call" => {
                let (func, args) = self.call_tail(p)?;
                self.append(p, block, InstKind::Call { func, args }, None)
            }
            _ => {
                if let Some((family, kind)) = word.split_once('.') {
                    if matches!(family, "check" | "spec_check" | "trap_if_flagged") {
                        let kind = p.check_kind(kind)?;
                        let (array, index) = self.element(p)?;
                        let site = self.site(p)?;
                        let inst = match family {
                            "check" => InstKind::BoundsCheck {
                                site,
                                array,
                                index,
                                kind,
                            },
                            "spec_check" => InstKind::SpecCheck {
                                site,
                                array,
                                index,
                                kind,
                            },
                            _ => InstKind::TrapIfFlagged {
                                site,
                                array,
                                index,
                                kind,
                            },
                        };
                        return self.append(p, block, inst, None);
                    }
                }
                self.valued(p, word, block)
            }
        }
    }

    /// `vN: TYPE = <kind>`, with `word` the `vN`.
    fn valued(&mut self, p: &mut P, word: &str, block: Block) -> PResult<()> {
        let n = p.index_in(word, "v")?;
        p.expect(":")?;
        let id = self.func.value_count();
        if !self.values.define(n, id, self.dense_limit) {
            return p.err(format!("v{n} defined twice"));
        }
        let ty = p.ty()?;
        p.expect("=")?;
        let mnemonic = p.ident()?;
        let kind = match mnemonic {
            "const" => InstKind::Const(p.int()?),
            "bconst" => match p.ident() {
                Ok("true") => InstKind::BoolConst(true),
                Ok("false") => InstKind::BoolConst(false),
                _ => return p.err("expected true/false"),
            },
            "Neg" => InstKind::Unary {
                op: UnOp::Neg,
                arg: self.value(p)?,
            },
            "Not" => InstKind::Unary {
                op: UnOp::Not,
                arg: self.value(p)?,
            },
            "newarray" => {
                let elem = p.ty()?;
                p.expect(",")?;
                InstKind::NewArray {
                    elem,
                    len: self.value(p)?,
                }
            }
            "arraylen" => InstKind::ArrayLen {
                array: self.value(p)?,
            },
            "load" => {
                let (array, index) = self.element(p)?;
                InstKind::Load { array, index }
            }
            "phi" => {
                let mut args = Vec::new();
                loop {
                    p.expect("[")?;
                    let b = self.block_ref(p)?;
                    p.expect(":")?;
                    let v = self.value(p)?;
                    p.expect("]")?;
                    args.push((b, v));
                    if !p.eat(",") {
                        break;
                    }
                }
                InstKind::Phi { args }
            }
            "pi" => {
                let input = self.value(p)?;
                p.expect(",")?;
                p.expect("[")?;
                let guard = match p.ident() {
                    Ok("branch") => {
                        let block = self.block_ref(p)?;
                        let taken = match p.ident() {
                            Ok("taken") => true,
                            Ok("fallthrough") => false,
                            _ => return p.err("expected taken/fallthrough"),
                        };
                        PiGuard::Branch { block, taken }
                    }
                    Ok(guard) if guard.starts_with("checked.") => {
                        let kind = p.check_kind(&guard["checked.".len()..])?;
                        let array = self.value(p)?;
                        let site = self.site(p)?;
                        PiGuard::Check { site, array, kind }
                    }
                    _ => return p.err("expected branch/checked guard"),
                };
                p.expect("]")?;
                InstKind::Pi { input, guard }
            }
            "copy" => InstKind::Copy {
                arg: self.value(p)?,
            },
            "call" => {
                let (func, args) = self.call_tail(p)?;
                InstKind::Call { func, args }
            }
            "get" => InstKind::GetLocal {
                local: Local::new(p.index_of("loc")?),
            },
            _ => {
                if let Some(op) = mnemonic.strip_prefix("cmp.") {
                    let op = match op {
                        "eq" => CmpOp::Eq,
                        "ne" => CmpOp::Ne,
                        "le" => CmpOp::Le,
                        "lt" => CmpOp::Lt,
                        "ge" => CmpOp::Ge,
                        "gt" => CmpOp::Gt,
                        _ => return p.err("expected comparison mnemonic"),
                    };
                    let (lhs, rhs) = self.pair(p)?;
                    InstKind::Compare { op, lhs, rhs }
                } else {
                    let op = match mnemonic {
                        "add" => BinOp::Add,
                        "sub" => BinOp::Sub,
                        "mul" => BinOp::Mul,
                        "div" => BinOp::Div,
                        "rem" => BinOp::Rem,
                        "and" => BinOp::And,
                        "or" => BinOp::Or,
                        "xor" => BinOp::Xor,
                        "shl" => BinOp::Shl,
                        "shr" => BinOp::Shr,
                        other => return p.err(format!("unknown instruction `{other}`")),
                    };
                    let (lhs, rhs) = self.pair(p)?;
                    InstKind::Binary { op, lhs, rhs }
                }
            }
        };
        self.append(p, block, kind, Some(ty))
    }

    /// One body line (ASCII-trimmed, not `}`).
    fn line(&mut self, line_no: usize, t: &str) -> PResult<()> {
        if t.is_empty() {
            return Ok(());
        }
        let mut p = P::new(line_no, t);
        if let Some(label) = t.strip_suffix(':') {
            if label.starts_with("bb") && label.len() > 2 {
                let n = p.index_in(label, "bb")?;
                // Blocks are numbered in label order; the first is the entry.
                let b = if self.current.is_none() {
                    self.func.entry()
                } else {
                    self.func.new_block()
                };
                if !self.blocks.define(n, b.index(), self.dense_limit) {
                    return p.err(format!("bb{n} defined twice"));
                }
                self.end_block();
                self.current = Some(b);
                return Ok(());
            }
        }
        let word = p.ident()?;
        if word == "locals" {
            loop {
                let n = p.index_of("loc")?;
                p.expect(":")?;
                let ty = p.ty()?;
                if self.func.new_local(ty).index() != n {
                    return p.err("locals must be declared densely in order");
                }
                if !p.eat(",") {
                    break;
                }
            }
            return p.finish();
        }
        let Some(block) = self.current else {
            return p.err("instruction outside a block");
        };
        self.line_forward = false;
        self.statement(&mut p, word, block)?;
        p.finish()
    }

    /// Stores the instructions read for the current block into it.
    fn end_block(&mut self) {
        if let Some(b) = self.current {
            self.func.set_block_insts(b, self.block_insts.to_vec());
            self.block_insts.clear();
        }
    }

    /// Patches every placeholder with its definition, or reports the
    /// first name that was used but never defined.
    fn resolve_forward(&mut self) -> PResult<()> {
        if let Some(f) = self.values.undefined() {
            return Err(Box::new(ParseIrError {
                line: f.line,
                message: format!("undefined value v{}", f.name),
            }));
        }
        if let Some(f) = self.blocks.undefined() {
            return Err(Box::new(ParseIrError {
                line: f.line,
                message: format!("undefined block bb{}", f.name),
            }));
        }
        let (values, blocks) = (&self.values, &self.blocks);
        let value = |v: Value| Value::new(values.resolve(v.index()));
        let block = |b: Block| Block::new(blocks.resolve(b.index()));
        for &id in &self.patch_insts {
            let kind = &mut self.func.inst_mut(id).kind;
            kind.map_uses(value);
            match kind {
                InstKind::Phi { args } => {
                    for (b, _) in args {
                        *b = block(*b);
                    }
                }
                InstKind::Pi {
                    guard: PiGuard::Branch { block: b, .. },
                    ..
                } => *b = block(*b),
                _ => {}
            }
        }
        for &b in &self.patch_terms {
            let mut term = self.func.block(b).terminator().clone();
            term.map_uses(value);
            term.map_successors(block);
            self.func.set_terminator(b, term);
        }
        Ok(())
    }
}

fn missing_brace(header_line: usize) -> Box<ParseIrError> {
    Box::new(ParseIrError {
        line: header_line,
        message: "missing closing `}`".into(),
    })
}

/// Parses one function whose header line `header` (number `ln`) has just
/// been read from `lines`, through its closing `}`.
fn parse_function(lines: &mut Lines, ln: usize, header: &str) -> PResult<Function> {
    // --- header ---
    let mut p = P::new(ln, header);
    p.expect("func")?;
    p.expect("@")?;
    let name = p.ident()?;
    p.expect("(")?;
    let mut params: Vec<Type> = Vec::new();
    while !p.eat(")") {
        if !params.is_empty() {
            p.expect(",")?;
        }
        // Parameters are `v0..vN` in order; their text names are not read.
        let _ = p.index_of("v")?;
        p.expect(":")?;
        params.push(p.ty()?);
    }
    let ret = if p.eat("->") { Some(p.ty()?) } else { None };
    p.expect("{")?;
    p.finish()?;

    let mut r = Reader {
        dense_limit: DENSE_BASE + params.len(),
        func: Function::new(name, params, ret),
        values: Space::default(),
        blocks: Space::default(),
        current: None,
        block_insts: Vec::new(),
        patch_insts: Vec::new(),
        patch_terms: Vec::new(),
        line_forward: false,
        max_site: None,
    };
    for i in 0..r.func.param_count() {
        r.values.define(i, i, r.dense_limit);
    }

    // --- body ---
    loop {
        let Some((line_no, t)) = lines.next() else {
            return Err(missing_brace(ln));
        };
        if t == "}" {
            r.end_block();
            break;
        }
        r.dense_limit += DENSE_PER_LINE;
        if let Err(e) = r.line(line_no, t) {
            // Text cut off before its `}` is reported as such, not by
            // whatever its torn last line happens to trip over.
            let closed = lines.clone().any(|(_, t)| t == "}");
            return Err(if closed { e } else { missing_brace(ln) });
        }
    }
    r.resolve_forward()?;
    if let Some(m) = r.max_site {
        r.func.reserve_check_sites(m + 1);
    }
    // The arenas grew by doubling; a parsed function lives as long as the
    // module it replays into, so give the slack back.
    r.func.shrink_to_fit();
    Ok(r.func)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::verify::verify_function;

    #[test]
    fn round_trips_a_checked_loop() {
        let mut b = FunctionBuilder::new("sum", vec![Type::array_of(Type::Int)], Some(Type::Int));
        let a = b.param(0);
        let acc = b.new_local(Type::Int);
        let zero = b.iconst(0);
        b.set_local(acc, zero);
        let (head, body, exit) = (b.new_block(), b.new_block(), b.new_block());
        b.jump(head);
        b.switch_to_block(head);
        let len = b.array_len(a);
        let c = b.compare(CmpOp::Lt, zero, len);
        b.branch(c, body, exit);
        b.switch_to_block(body);
        b.bounds_check(a, zero, CheckKind::Upper);
        let x = b.load(a, zero);
        let av = b.get_local(acc);
        let s = b.binary(BinOp::Add, av, x);
        b.set_local(acc, s);
        b.jump(exit);
        b.switch_to_block(exit);
        let out = b.get_local(acc);
        b.ret(Some(out));
        let f = b.finish().unwrap();

        let text = f.to_string();
        let parsed = parse_function_text(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        verify_function(&parsed, None).unwrap();
        assert_eq!(parsed.to_string(), text, "round trip not stable");
        assert_eq!(parsed.check_site_count(), f.check_site_count());
        assert_eq!(parsed.local_count(), f.local_count());
    }

    #[test]
    fn parses_phis_and_pis() {
        let text = "\
func @f(v0: int[], v1: int) -> int {
bb0:
    v2: bool = cmp.lt v1, v1
    br v2, bb1, bb2
bb1:
    v3: int = pi v1, [branch bb0 taken]
    jump bb3
bb2:
    v4: int = pi v1, [branch bb0 fallthrough]
    jump bb3
bb3:
    v5: int = phi [bb1: v3], [bb2: v4]
    check.upper v0[v5] @ck2
    v6: int = pi v5, [checked.upper v0 @ck2]
    v7: int = load v0[v6]
    ret v7
}
";
        let f = parse_function_text(text).unwrap();
        verify_function(&f, None).unwrap();
        // site ids up to ck2 must be allocated
        assert_eq!(f.check_site_count(), 3);
        assert_eq!(f.to_string(), text.trim_end());
    }

    #[test]
    fn renumbers_sparse_value_names() {
        let text = "\
func @g() -> int {
bb0:
    v17: int = const 4
    v9: int = add v17, v17
    ret v9
}
";
        let f = parse_function_text(text).unwrap();
        verify_function(&f, None).unwrap();
        // dense ids: v0 (const), v1 (add)
        assert_eq!(f.value_count(), 2);
    }

    #[test]
    fn module_with_calls_round_trips() {
        let text = "\
func @callee(v0: int) -> int {
bb0:
    ret v0
}

func @caller(v0: int) -> int {
bb0:
    v1: int = call fn0(v0)
    call fn0(v1)
    ret v1
}
";
        let m = parse_module(text).unwrap();
        assert_eq!(m.function_count(), 2);
        crate::verify::verify_module(&m).unwrap();
        assert_eq!(m.to_string().trim_end(), text.trim_end());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "\
func @f() {
bb0:
    v1: int = frobnicate v0
    ret
}
";
        let err = parse_function_text(text).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("frobnicate"));
    }

    #[test]
    fn undefined_value_is_reported() {
        let text = "\
func @f() {
bb0:
    output v5
    ret
}
";
        let err = parse_function_text(text).unwrap_err();
        assert!(err.message.contains("undefined value"));
    }

    /// Parses `text`, expecting an error; returns `(line, message)`.
    fn error_of(text: &str) -> (usize, String) {
        let err = parse_function_text(text).unwrap_err();
        (err.line, err.message)
    }

    #[test]
    fn missing_closing_brace_is_reported_at_the_header() {
        let text = "\
func @f() {
bb0:
    ret
";
        assert_eq!(error_of(text), (1, "missing closing `}`".to_string()));
    }

    #[test]
    fn integer_out_of_range_is_reported() {
        let text = "\
func @f() -> int {
bb0:
    v0: int = const 99999999999999999999
    ret v0
}
";
        assert_eq!(
            error_of(text),
            (3, "integer `99999999999999999999` out of range".to_string())
        );
    }

    #[test]
    fn sparse_locals_are_reported() {
        let text = "\
func @f() {
  locals loc1: int
bb0:
    ret
}
";
        assert_eq!(
            error_of(text),
            (2, "locals must be declared densely in order".to_string())
        );
    }

    #[test]
    fn instruction_outside_a_block_is_reported() {
        let text = "\
func @f(v0: int) {
    output v0
bb0:
    ret
}
";
        assert_eq!(
            error_of(text),
            (2, "instruction outside a block".to_string())
        );
    }

    #[test]
    fn error_messages_and_lines_are_pinned() {
        let unknown = "func @f() {\nbb0:\n    v1: int = frobnicate v0\n    ret\n}\n";
        assert_eq!(
            error_of(unknown),
            (3, "unknown instruction `frobnicate`".to_string())
        );
        let undefined = "func @f() {\nbb0:\n    output v5\n    ret\n}\n";
        assert_eq!(error_of(undefined), (3, "undefined value v5".to_string()));
        let twice = "func @f() {\nbb0:\n    v1: int = const 1\n    v1: int = const 2\n    ret\n}\n";
        assert_eq!(error_of(twice), (4, "v1 defined twice".to_string()));
    }

    #[test]
    fn extreme_constants_round_trip() {
        for c in [i64::MIN, i64::MIN + 1, -1, 0, i64::MAX] {
            let text =
                format!("func @f() -> int {{\nbb0:\n    v0: int = const {c}\n    ret v0\n}}");
            let f = parse_function_text(&text).unwrap_or_else(|e| panic!("{c}: {e}"));
            assert_eq!(f.to_string(), text);
        }
        // One past either end is still out of range.
        for (literal, digits) in [
            ("-9223372036854775809", "9223372036854775809"),
            ("9223372036854775808", "9223372036854775808"),
        ] {
            let text =
                format!("func @f() -> int {{\nbb0:\n    v0: int = const {literal}\n    ret v0\n}}");
            assert_eq!(
                error_of(&text),
                (3, format!("integer `{digits}` out of range"))
            );
        }
    }

    #[test]
    fn a_name_first_used_above_the_dense_limit_resolves() {
        // `bb150` is used on line 3, above the dense limit there, so it is
        // kept in the map; by the time it is defined the dense table has
        // grown past it (`bb151` came first), and its slot there is free.
        let mut text = String::from("func @f() {\nbb0:\n    jump bb150\n");
        for k in 1..150 {
            text.push_str(&format!("bb{k}:\n    jump bb{}\n", k + 1));
        }
        text.push_str("bb151:\n    ret\nbb150:\n    jump bb151\n}\n");
        let f = parse_function_text(&text).unwrap_or_else(|e| panic!("{e}"));
        verify_function(&f, None).unwrap();
        // Blocks are numbered in label order: `bb151` became bb150.
        let printed = f.to_string();
        assert!(printed.contains("bb0:\n    jump bb151\n"), "{printed}");
        assert!(printed.contains("bb149:\n    jump bb151\n"), "{printed}");
        assert!(
            printed.ends_with("bb150:\n    ret\nbb151:\n    jump bb150\n}"),
            "{printed}"
        );
    }

    #[test]
    fn duplicate_definition_is_reported() {
        let text = "\
func @f() {
bb0:
    v1: int = const 1
    v1: int = const 2
    ret
}
";
        let err = parse_function_text(text).unwrap_err();
        assert!(err.message.contains("defined twice"));
    }
}
