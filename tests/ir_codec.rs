//! The IR text codec's contract, pinned.
//!
//! The printer and reader are the analysis cache's storage format and the
//! `abcdd` reply format, so their bytes are part of the interface:
//!
//! * **Printed bytes.** An FNV-1a digest of the printed module, lowered
//!   and optimized, for every paper kernel and every `abcd_loadgen`
//!   corpus module. The literals were computed with the `Display`-through-
//!   `write!` printer this one replaced; any drift in the text changes
//!   them.
//! * **Cache keys.** `cache_key_of` (which hashes the canonical print as
//!   it is written) must equal `cache_key` over the canonical text, for
//!   every function at the lowered, e-SSA and optimized stages, and one
//!   key is pinned as a literal — so disk caches written before the codec
//!   changed still hit.
//! * **Robustness.** The reader takes text from outside the program (the
//!   `abcdd` `"ir"` request, the disk cache). Every prefix of printed
//!   corpus text, and a seeded set of single-byte edits including
//!   multibyte UTF-8, must come back `Ok` or `Err` — never a panic.

use abcd::cache::{
    cache_key, cache_key_of, facts_fingerprint, fnv1a64, options_fingerprint, profile_fingerprint,
};
use abcd::{Optimizer, OptimizerOptions};
use abcd_ir::{canonicalize, FuncId, Module};

/// `(module, digest of the lowered print, digest of the optimized print)`.
const PRINT_DIGESTS: &[(&str, u64, u64)] = &[
    ("db", 0x525f6baa34c96631, 0x16d941a7d9884dc2),
    ("mpeg", 0x0cef1d23aa0eb999, 0xbd91d484e68cc3c2),
    ("jack", 0x1bc5f7b24a79124a, 0x2e71afb0cc9b9df8),
    ("compress", 0x087feb99cbc92f00, 0xcf06832339f77ee2),
    ("jess", 0xa177ba878962381a, 0xe62bef2dcb861457),
    ("bubbleSort", 0xbc92672c3529a595, 0xe4f27321b77e555c),
    ("biDirBubbleSort", 0xfcd390655bfea081, 0x1e8893150a075c3e),
    ("qsort", 0x7a443b33198f797f, 0x354f831390225b0c),
    ("sieve", 0x3eef5e7b74a970d9, 0x1e3591734c1f746d),
    ("hanoi", 0x6d2a73b76c490159, 0xc4bf30a763d3dc53),
    ("dhrystone", 0x71f80fb1224802e1, 0xc2e76c0750a425f2),
    ("array", 0xff95ab9591b72ac2, 0xb6e8e91e2b68395d),
    ("toba", 0xc6cb34241a0473d4, 0x4a41ca944c70925c),
    ("bytemark", 0x1d7ffa9f4df8636c, 0xc28b1ff7ade62a6c),
    ("jolt", 0x8af10c994da60716, 0xf1876d794b408f25),
    ("corpus0", 0x9fd3e5d41a93a490, 0x32b2b023a861c68d),
    ("corpus1", 0x0fdf247b8580c6e9, 0xc591678eed7f5108),
    ("corpus2", 0x53e099dfae2abb11, 0xf6a3fac2cc5ae750),
    ("corpus3", 0x3176a874539e79b9, 0x98b33e169c955168),
    ("corpus4", 0x0ae5cdc85cc1ac75, 0x0681adb51ff0164d),
    ("corpus5", 0xffa8ccda76bb58ff, 0xdd3d6af85c83c365),
    ("corpus6", 0xa321fa2f8401b84f, 0x1aaf48ca5099b529),
    ("corpus7", 0x45b691c46124de3f, 0x67340d3ba8903bc1),
    ("corpus8", 0xb77f620aabcdb12d, 0xbd331cb810f67c7e),
    ("corpus9", 0xc5237358c87aabc3, 0x5a9e8f95d5456024),
    ("corpus10", 0xf49c56d386fa4a34, 0xbdc60180d116dd8f),
    ("corpus11", 0xbe33be5e2eb84839, 0x8d93e04f768bb00c),
    ("corpus12", 0x39fc5997dc7e8ce5, 0xef10d81b7cfb20a3),
    ("corpus13", 0xac312d32090d8129, 0x4606d72632dc5e79),
    ("corpus14", 0x421f382a3caafa29, 0x49d974a6f00230f9),
    ("corpus15", 0x5b4fcc8c52a6ebf9, 0x454004af97206109),
    ("corpus16", 0x53e750cb38e87823, 0x8338997c5a4d74e2),
    ("corpus17", 0x5e78809f897e72d5, 0x405d7ed5f927e2fc),
    ("corpus18", 0x9d2abb32d2117977, 0x7f22b23d134b7c1a),
    ("corpus19", 0x0c22fc19af229924, 0x4174fac1e21892a9),
    ("corpus20", 0xb1ab2d3035f04d27, 0xf5609836619fda65),
    ("corpus21", 0xfddbbfb6c451e773, 0x0b691c66ae6eb761),
    ("corpus22", 0xf685417be25c600b, 0xeb0cacc3d052d959),
    ("corpus23", 0xa2394a7cdd2c08c3, 0x9f90167fc17d5069),
];

/// The cache key of the first function of the first paper kernel
/// (default options with `verify_ir` off, no facts, no profile).
const PINNED_KEY: (&str, &str) = ("isort", "aeee4d2d5451f3c5");

/// Every paper kernel and every corpus module, by name.
fn modules() -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = abcd_benchsuite::BENCHMARKS
        .iter()
        .map(|b| (b.name.to_string(), b.source.to_string()))
        .collect();
    for (i, src) in abcd_loadgen::corpus(1, 24).into_iter().enumerate() {
        v.push((format!("corpus{i}"), src));
    }
    v
}

/// The lowered, e-SSA and optimized forms of a module.
fn stages(src: &str) -> [Module; 3] {
    let lowered = abcd_frontend::compile(src).expect("compiles");
    let mut essa = lowered.clone();
    abcd_ssa::module_to_essa(&mut essa).expect("e-SSA");
    let mut optimized = lowered.clone();
    Optimizer::new()
        .with_threads(1)
        .optimize_module(&mut optimized, None);
    [lowered, essa, optimized]
}

#[test]
fn printed_bytes_are_pinned() {
    let mut drift = Vec::new();
    let mods = modules();
    assert_eq!(mods.len(), PRINT_DIGESTS.len());
    for ((name, src), &(pinned, lowered_fp, optimized_fp)) in mods.iter().zip(PRINT_DIGESTS) {
        assert_eq!(name, pinned);
        let [lowered, _, optimized] = stages(src);
        let got = (
            fnv1a64(lowered.to_string().as_bytes()),
            fnv1a64(optimized.to_string().as_bytes()),
        );
        if got != (lowered_fp, optimized_fp) {
            drift.push(format!("(\"{name}\", 0x{:016x}, 0x{:016x}),", got.0, got.1));
        }
    }
    assert!(
        drift.is_empty(),
        "printed bytes drifted:\n{}",
        drift.join("\n")
    );
}

#[test]
fn streamed_cache_keys_equal_keys_over_the_text() {
    // `verify_ir` defaults on in debug builds: fix it so the pin holds in both.
    let options = OptimizerOptions {
        verify_ir: false,
        ..OptimizerOptions::default()
    };
    let options_fp = options_fingerprint(&options);
    let facts_fp = facts_fingerprint(&[]);
    let mut checked = 0;
    for (name, src) in modules() {
        for module in stages(&src) {
            for (id, f) in module.functions() {
                let profile_fp = profile_fingerprint(None, id, None);
                let text = canonicalize(f).to_string();
                assert_eq!(
                    cache_key_of(f, options_fp, facts_fp, profile_fp),
                    cache_key(&text, options_fp, facts_fp, profile_fp),
                    "{name}/{}",
                    f.name()
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 100, "{checked}");

    let (src, f0) = (&modules()[0].1, FuncId::new(0));
    let module = abcd_frontend::compile(src).expect("compiles");
    let f = module.function(f0);
    let key = cache_key_of(f, options_fp, facts_fp, profile_fingerprint(None, f0, None));
    assert_eq!((f.name(), key.hex().as_str()), PINNED_KEY);
}

#[test]
fn many_functions_with_indented_braces_and_high_names_read() {
    // Closing braces may be indented (lines are trimmed), and names may
    // be far sparser than the text is long; neither changes the result.
    let mut text = String::new();
    for k in 0..300 {
        let high = 100_000 + k;
        text.push_str(&format!(
            "func @f{k}(v0: int) -> int {{\nbb{high}:\n    v{high}: int = add v0, v0\n    ret v{high}\n  }}\n"
        ));
    }
    let module = abcd_ir::parse_module(&text).expect("parses");
    abcd_ir::verify_module(&module).expect("verifies");
    assert_eq!(module.function_count(), 300);
    for (id, f) in module.functions() {
        let k = id.index();
        assert_eq!(
            f.to_string(),
            format!(
                "func @f{k}(v0: int) -> int {{\nbb0:\n    v1: int = add v0, v0\n    ret v1\n}}"
            )
        );
    }
}

/// Parses `text` as a module and, when it parses, verifies it: neither
/// may panic, whatever the text.
fn read_never_panics(text: &str) {
    let outcome = std::panic::catch_unwind(|| {
        if let Ok(m) = abcd_ir::parse_module(text) {
            let _ = abcd_ir::verify_module(&m);
        }
    });
    assert!(outcome.is_ok(), "the reader panicked on:\n{text}");
}

/// Printed function texts of the corpus: every function of the heaviest
/// corpus module and of two paper kernels, lowered and optimized.
fn corpus_texts() -> Vec<String> {
    let mut sources = vec![abcd_loadgen::corpus(1, 24).pop().expect("corpus")];
    for name in ["bubbleSort", "mpeg"] {
        sources.push(
            abcd_benchsuite::by_name(name)
                .expect(name)
                .source
                .to_string(),
        );
    }
    let mut texts = Vec::new();
    for src in sources {
        let [lowered, _, optimized] = stages(&src);
        for m in [lowered, optimized] {
            texts.extend(m.functions().map(|(_, f)| f.to_string()));
        }
    }
    texts
}

#[test]
fn every_prefix_reads_or_errs() {
    for text in corpus_texts() {
        for (i, _) in text.char_indices() {
            read_never_panics(&text[..i]);
        }
    }
}

#[test]
fn single_byte_edits_read_or_err() {
    const EDITS: &[&str] = &[
        "", " ", "\n", "é", "\u{a0}", "0", "9", "v", "b", "-", ",", ":", "=", "[", "]", "@", "}",
    ];
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    for text in corpus_texts() {
        let bounds: Vec<usize> = text.char_indices().map(|(i, _)| i).collect();
        for _ in 0..200 {
            let at = bounds[next(bounds.len())];
            let len = text[at..].chars().next().map_or(0, char::len_utf8);
            let edit = EDITS[next(EDITS.len())];
            // Insert before the character, or replace it (deleting it when
            // the edit is empty).
            let skip = if next(2) == 0 { 0 } else { len };
            let mutated = format!("{}{edit}{}", &text[..at], &text[at + skip..]);
            read_never_panics(&mutated);
        }
    }
}
