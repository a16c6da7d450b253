//! The IR reader's total work is linear in its input, whatever names the
//! input uses.
//!
//! The reader takes text from outside the program (`abcdd` `"ir"`
//! requests, the disk cache), so a text of many small functions, each
//! naming a block and a value with a large number, must not make every
//! function size its tables or arenas from the whole text. The measure is
//! the bytes the reader allocates, read from a counting allocator. Its
//! counters are global, so this is the only test in its binary: no
//! sibling test allocates inside the measured window.

use abcd_alloc::{delta, snapshot, CountingAlloc};
use std::fmt::Write;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `count` functions, each naming one block and one value `high` and
/// closing with an indented brace.
fn many_functions(count: usize, high: usize) -> String {
    let mut text = String::new();
    for k in 0..count {
        let _ = write!(
            text,
            "func @f{k}(v0: int) -> int {{\nbb{high}:\n    v{high}: int = add v0, v0\n    ret v{high}\n  }}\n"
        );
    }
    text
}

/// Bytes allocated while parsing a `count`-function text whose names sit
/// at an eighth of its length.
fn bytes_to_read(count: usize) -> u64 {
    let high = many_functions(count, 0).len() / 8;
    let text = many_functions(count, high);
    let before = snapshot();
    let module = abcd_ir::parse_module(&text).expect("parses");
    let bytes = delta(before).bytes;
    assert_eq!(module.function_count(), count);
    bytes
}

#[test]
fn many_functions_with_high_names_read_in_linear_work() {
    let (small, large) = (bytes_to_read(500), bytes_to_read(2000));
    // Four times the text: linear work allocates about four times the
    // bytes; one table or arena per function sized from the whole text
    // allocates sixteen times.
    assert!(
        large < 6 * small,
        "500 functions: {small} bytes, 2000 functions: {large} bytes"
    );
}
