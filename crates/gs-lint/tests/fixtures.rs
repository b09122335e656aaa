//! Fixture-driven self-tests: each rule is proven on a seeded-violation
//! snippet (including a crafted lock-order cycle for D003), plus the
//! allow-directive contract (justified allows suppress and count; bare
//! allows suppress but are themselves `A000` violations).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gs_lint::{Analyzer, LintReport};

/// Lints a single virtual file.
fn lint_one(path: &str, src: &str) -> LintReport {
    let mut a = Analyzer::new();
    a.add_file(path, src);
    a.finish()
}

fn rules(report: &LintReport) -> Vec<&'static str> {
    report.violations.iter().map(|v| v.rule).collect()
}

// ------------------------------------------------------------------ D001

const D001_HIT: &str = r#"
use std::collections::HashMap;
pub struct S { voxel_pixels: HashMap<u32, Vec<u32>> }
impl S {
    pub fn go(&mut self) -> u64 {
        let mut total = 0;
        for (_, v) in &self.voxel_pixels { total += v.len() as u64; }
        let _ = self.voxel_pixels.keys();
        total
    }
}
"#;

#[test]
fn d001_flags_hashmap_iteration_in_scoped_crates() {
    // `for … in` over the map is not caught at field granularity (the
    // receiver is `self.voxel_pixels`), but the method-call form is.
    let r = lint_one("crates/gs-voxel/src/fake.rs", D001_HIT);
    assert!(
        rules(&r).contains(&"D001"),
        "expected a D001 violation, got: {:?}",
        r.violations
    );
}

#[test]
fn d001_flags_direct_for_loop_over_local_map() {
    let src = r#"
use std::collections::HashMap;
pub fn go() {
    let mut m = HashMap::new();
    m.insert(1u32, 2u32);
    for (k, v) in &m { let _ = (k, v); }
}
"#;
    let r = lint_one("crates/gs-render/src/fake.rs", src);
    assert_eq!(rules(&r), vec!["D001"], "{:?}", r.violations);
}

#[test]
fn d001_ignores_out_of_scope_crates_and_ordered_maps() {
    // Same source in gs-accel (not a render/streaming/store/mem module).
    let r = lint_one("crates/gs-accel/src/fake.rs", D001_HIT);
    assert!(rules(&r).is_empty(), "{:?}", r.violations);
    // BTreeMap iteration is ordered and must not be flagged.
    let src = r#"
use std::collections::BTreeMap;
pub fn go(m: &BTreeMap<u32, u32>) -> u64 {
    let mut t = 0; for (_, v) in m.iter() { t += *v as u64; } t
}
"#;
    let r = lint_one("crates/gs-voxel/src/fake.rs", src);
    assert!(rules(&r).is_empty(), "{:?}", r.violations);
}

#[test]
fn d001_exempts_test_code() {
    let src = r#"
use std::collections::HashMap;
#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn t() {
        let mut m: HashMap<u32, u32> = HashMap::new();
        let _ = m.drain();
    }
}
"#;
    let r = lint_one("crates/gs-voxel/src/fake.rs", src);
    assert!(rules(&r).is_empty(), "{:?}", r.violations);
}

// ------------------------------------------------------------------ D002

#[test]
fn d002_flags_panic_family_in_lib_code() {
    let src = r#"
pub fn a(x: Option<u32>) -> u32 { x.unwrap() }
pub fn b(x: Option<u32>) -> u32 { x.expect("present") }
pub fn c() { panic!("boom"); }
pub fn d() { todo!() }
pub fn e() { unimplemented!() }
"#;
    let r = lint_one("crates/gs-accel/src/fake.rs", src);
    assert_eq!(rules(&r), vec!["D002"; 5], "{:?}", r.violations);
}

#[test]
fn d002_exempts_documented_panicking_wrappers_and_tests() {
    let src = r#"
/// Renders a frame.
///
/// # Panics
/// Panics when the paged backing faulted permanently.
pub fn render(x: Result<u32, String>) -> u32 {
    match x { Ok(v) => v, Err(e) => panic!("render failed: {e}") }
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() { assert_eq!(Some(1).unwrap(), 1); }
}
"#;
    let r = lint_one("crates/gs-voxel/src/fake.rs", src);
    assert!(rules(&r).is_empty(), "{:?}", r.violations);
}

#[test]
fn d002_ignores_doc_comment_examples_and_strings() {
    let src = r#"
//! Example in module docs: `let x = foo.unwrap();`

/// ```
/// let v = compute().expect("fine in doc examples");
/// ```
pub fn compute() -> Option<u32> {
    let _s = "contains .unwrap( and panic! in a string";
    Some(1)
}
"#;
    let r = lint_one("crates/gs-core/src/fake.rs", src);
    assert!(rules(&r).is_empty(), "{:?}", r.violations);
}

// ------------------------------------------------------------------ D003

/// A crafted lock-order cycle: `forward` takes a→b, `backward` takes b→a.
const D003_CYCLE: &str = r#"
use std::sync::Mutex;
pub struct S { alpha: Mutex<u32>, beta: Mutex<u32> }
impl S {
    pub fn forward(&self) -> u32 {
        let a = self.alpha.lock().unwrap_or_else(|e| e.into_inner());
        let b = self.beta.lock().unwrap_or_else(|e| e.into_inner());
        *a + *b
    }
    pub fn backward(&self) -> u32 {
        let b = self.beta.lock().unwrap_or_else(|e| e.into_inner());
        let a = self.alpha.lock().unwrap_or_else(|e| e.into_inner());
        *a - *b
    }
}
"#;

#[test]
fn d003_detects_a_crafted_lock_order_cycle() {
    let r = lint_one("crates/gs-accel/src/fake.rs", D003_CYCLE);
    let d003: Vec<_> = r.violations.iter().filter(|v| v.rule == "D003").collect();
    assert_eq!(
        d003.len(),
        2,
        "both cycle edges reported: {:?}",
        r.violations
    );
    assert!(d003.iter().any(|v| v.msg.contains("`alpha` then `beta`")));
    assert!(d003.iter().any(|v| v.msg.contains("`beta` then `alpha`")));
}

#[test]
fn d003_accepts_a_consistent_order_and_rwlocks() {
    let src = r#"
use std::sync::{Mutex, RwLock};
pub struct S { state: Mutex<u32>, stats: RwLock<u32> }
impl S {
    pub fn one(&self) -> u32 {
        let a = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let b = self.stats.read().unwrap_or_else(|e| e.into_inner());
        *a + *b
    }
    pub fn two(&self) -> u32 {
        let a = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let mut b = self.stats.write().unwrap_or_else(|e| e.into_inner());
        *b += *a; *b
    }
}
"#;
    let r = lint_one("crates/gs-voxel/src/fake.rs", src);
    assert!(rules(&r).is_empty(), "{:?}", r.violations);
}

#[test]
fn d003_graph_is_per_crate() {
    // a→b in one crate and b→a in another is not a cycle: the graphs are
    // disjoint (different processes never hold both).
    let fwd = r#"
use std::sync::Mutex;
pub fn f(a: &Mutex<u32>, b: &Mutex<u32>) -> u32 {
    let x = a.lock().unwrap_or_else(|e| e.into_inner());
    let y = b.lock().unwrap_or_else(|e| e.into_inner());
    *x + *y
}
"#;
    let bwd = r#"
use std::sync::Mutex;
pub fn g(a: &Mutex<u32>, b: &Mutex<u32>) -> u32 {
    let y = b.lock().unwrap_or_else(|e| e.into_inner());
    let x = a.lock().unwrap_or_else(|e| e.into_inner());
    *x - *y
}
"#;
    let mut an = Analyzer::new();
    an.add_file("crates/gs-voxel/src/fwd.rs", fwd);
    an.add_file("crates/gs-render/src/bwd.rs", bwd);
    let r = an.finish();
    assert!(rules(&r).is_empty(), "{:?}", r.violations);
}

#[test]
fn d003_sees_lock_unpoisoned_acquisitions() {
    let src = r#"
use std::sync::Mutex;
pub struct S { state: Mutex<u32>, file: Mutex<u32> }
impl S {
    pub fn forward(&self) -> u32 { *lock_unpoisoned(&self.state) + *lock_unpoisoned(&self.file) }
    pub fn backward(&self) -> u32 { *lock_unpoisoned(&self.file) - *lock_unpoisoned(&self.state) }
}
"#;
    let r = lint_one("crates/gs-voxel/src/fake.rs", src);
    assert_eq!(
        r.violations.iter().filter(|v| v.rule == "D003").count(),
        2,
        "{:?}",
        r.violations
    );
}

// ------------------------------------------------------------------ D004

#[test]
fn d004_flags_narrowing_casts_in_format_modules_only() {
    let src = r#"
pub fn pack(n: usize) -> u32 { n as u32 }
pub fn widen(n: u32) -> u64 { n as u64 }
"#;
    let r = lint_one("crates/gs-voxel/src/store.rs", src);
    assert_eq!(rules(&r), vec!["D004"], "{:?}", r.violations);
    // Outside the serialization modules the same cast is fine.
    let r = lint_one("crates/gs-voxel/src/grid.rs", src);
    assert!(rules(&r).is_empty(), "{:?}", r.violations);
}

#[test]
fn d004_covers_crc_and_record_codecs() {
    let src = "pub fn f(x: u64) -> u16 { x as u16 }\n";
    for path in [
        "crates/gs-mem/src/crc.rs",
        "crates/gs-vq/src/quantizer.rs",
        "crates/gs-vq/src/codebook.rs",
    ] {
        let r = lint_one(path, src);
        assert_eq!(rules(&r), vec!["D004"], "{path}: {:?}", r.violations);
    }
}

// ------------------------------------------------------------------ D005

#[test]
fn d005_flags_wall_clock_and_spawn_outside_bench_and_pool() {
    let src = r#"
use std::time::{Instant, SystemTime};
pub fn f() {
    let _t = Instant::now();
    let _s = SystemTime::now();
    let _h = std::thread::spawn(|| 0u32);
}
"#;
    let r = lint_one("crates/gs-voxel/src/fake.rs", src);
    // Instant::now, SystemTime (use + call site ×2), thread::spawn.
    assert!(rules(&r).iter().all(|r| *r == "D005"), "{:?}", r.violations);
    assert!(rules(&r).len() >= 3, "{:?}", r.violations);
}

#[test]
fn d005_exempts_gs_bench_pool_and_tests() {
    let src = r#"
use std::time::Instant;
pub fn f() { let _t = Instant::now(); let _h = std::thread::spawn(|| 0u32); }
"#;
    for path in [
        "crates/gs-bench/src/fake.rs",
        "crates/gs-render/src/pool.rs",
        "crates/gs-voxel/tests/fake.rs",
        "crates/gs-bench/benches/fake.rs",
    ] {
        let r = lint_one(path, src);
        assert!(rules(&r).is_empty(), "{path}: {:?}", r.violations);
    }
}

// ------------------------------------------------------------------ D006

/// A blend-kernel-shaped accumulator: flagged everywhere except inside a
/// blessed (path, fn) pair.
const D006_BLEND: &str = r#"
pub struct B { color: Vec<Vec3>, transmittance: Vec<f32> }
impl B {
    pub fn blend(&mut self, w: &[f32]) {
        for (i, x) in w.iter().enumerate() {
            self.color[i] += Vec3::splat(*x);
            self.transmittance[i] -= *x;
        }
    }
}
"#;

#[test]
fn d006_flags_scalar_and_indexed_float_accumulation() {
    let src = r#"
pub fn reduce(xs: &[f32], scores: &mut [f32]) -> f32 {
    let mut acc = 0.0;
    for (i, x) in xs.iter().enumerate() {
        acc += *x;
        scores[i] += *x;
    }
    acc
}
"#;
    let r = lint_one("crates/gs-render/src/fake.rs", src);
    assert_eq!(rules(&r), vec!["D006", "D006"], "{:?}", r.violations);
}

#[test]
fn d006_flags_tuple_bound_float_accumulators() {
    let src = r#"
pub fn minmax(xs: &[f32]) -> (f32, f32) {
    let (mut lo, mut hi) = (0.0f32, -1.0);
    for x in xs {
        lo += x.min(0.0);
        hi += x.max(0.0);
    }
    (lo, hi)
}
"#;
    let r = lint_one("crates/gs-core/src/fake.rs", src);
    assert_eq!(rules(&r), vec!["D006", "D006"], "{:?}", r.violations);
    // Positional matching: only the float element's name binds.
    let src = r#"
pub fn mixed(xs: &[f32]) -> f32 {
    let (mut n, mut acc) = (0u32, 0.0);
    for x in xs {
        n += 1;
        acc += *x;
    }
    acc / n as f32
}
"#;
    let r = lint_one("crates/gs-core/src/fake.rs", src);
    assert_eq!(rules(&r), vec!["D006"], "{:?}", r.violations);
}

#[test]
fn d006_flags_inferred_negative_and_exponent_initializers() {
    let src = r#"
pub fn drift(xs: &[f32]) -> (f32, f32) {
    let mut bias = -0.5;
    let mut tiny = 1e-6;
    for x in xs {
        bias += *x;
        tiny += *x;
    }
    (bias, tiny)
}
"#;
    let r = lint_one("crates/gs-voxel/src/fake.rs", src);
    assert_eq!(rules(&r), vec!["D006", "D006"], "{:?}", r.violations);
    // Hex literals can spell `E` without being floats; integer tuple
    // elements stay unbound.
    let src = r#"
pub fn mask(xs: &[u32]) -> u32 {
    let (mut bits, mut seen) = (0xEE, 0u32);
    for x in xs {
        bits += *x;
        seen += 1;
    }
    bits + seen
}
"#;
    let r = lint_one("crates/gs-voxel/src/fake.rs", src);
    assert!(rules(&r).is_empty(), "{:?}", r.violations);
}

#[test]
fn d006_exempts_only_the_blessed_path_fn_pairs() {
    // Inside the blessed kernel: clean.
    let r = lint_one("crates/gs-voxel/src/streaming.rs", D006_BLEND);
    assert!(rules(&r).is_empty(), "{:?}", r.violations);
    // The same function body anywhere else is two violations.
    let r = lint_one("crates/gs-voxel/src/other.rs", D006_BLEND);
    assert_eq!(rules(&r), vec!["D006", "D006"], "{:?}", r.violations);
}

#[test]
fn d006_ignores_integer_accumulation_and_non_loop_adds() {
    let src = r#"
pub fn scale(v: f32) -> f32 { v * 2.0 }
pub fn count(xs: &[u32]) -> u64 {
    let mut total = 0u64;
    for x in xs { total += *x as u64; }
    total
}
pub fn bump(acc: &mut f32, x: f32) { *acc += x; }
"#;
    let r = lint_one("crates/gs-voxel/src/fake.rs", src);
    assert!(rules(&r).is_empty(), "{:?}", r.violations);
}

#[test]
fn d006_exempts_test_code_and_out_of_scope_crates() {
    let r = lint_one("crates/gs-baselines/src/fake.rs", D006_BLEND);
    assert!(rules(&r).is_empty(), "{:?}", r.violations);
    let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let mut acc = 0.0f32;
        for x in [1.0f32, 2.0] { acc += x; }
        assert!(acc > 0.0);
    }
}
"#;
    let r = lint_one("crates/gs-core/src/fake.rs", src);
    assert!(rules(&r).is_empty(), "{:?}", r.violations);
}

#[test]
fn d006_justified_allow_suppresses() {
    let src = r#"
pub fn mse(xs: &[f32]) -> f32 {
    let mut acc = 0.0;
    for x in xs {
        // gs-lint: allow(D006) fixed slice order; diagnostic metric only
        acc += x * x;
    }
    acc
}
"#;
    let r = lint_one("crates/gs-core/src/fake.rs", src);
    assert!(rules(&r).is_empty(), "{:?}", r.violations);
    assert_eq!(r.allows_used, 1);
}

// ------------------------------------------------------------------ D007

const D007_HIT: &str = r#"
pub fn write(buf: &mut [u32], i: usize) {
    let p = buf.as_mut_ptr();
    unsafe { *p.add(i) = 1 };
}
"#;

#[test]
fn d007_flags_unsafe_in_library_code() {
    for path in [
        "crates/gs-voxel/src/streaming.rs",
        "crates/gs-render/src/renderer.rs",
        "crates/gs-serve/src/lib.rs",
        "src/lib.rs",
    ] {
        let r = lint_one(path, D007_HIT);
        assert_eq!(rules(&r), vec!["D007"], "{path}: {:?}", r.violations);
    }
    // `unsafe impl` / `unsafe fn` count too.
    let src = "pub struct P(*mut u8);\nunsafe impl Send for P {}\npub unsafe fn f() {}\n";
    let r = lint_one("crates/gs-mem/src/fake.rs", src);
    assert_eq!(rules(&r), vec!["D007", "D007"], "{:?}", r.violations);
}

#[test]
fn d007_exempts_the_pool_tests_and_strings() {
    for path in [
        "crates/gs-render/src/pool.rs",
        "crates/gs-voxel/tests/alloc_free_streaming.rs",
        "crates/gs-bench/benches/fake.rs",
    ] {
        let r = lint_one(path, D007_HIT);
        assert!(rules(&r).is_empty(), "{path}: {:?}", r.violations);
    }
    let src = r#"
/// Never `unsafe` here.
pub const WORD: &str = "unsafe";
#[cfg(test)]
mod tests {
    #[test]
    fn raw() { let mut x = 0u8; let p = &mut x as *mut u8; unsafe { *p = 1 }; }
}
"#;
    let r = lint_one("crates/gs-voxel/src/fake.rs", src);
    assert!(rules(&r).is_empty(), "{:?}", r.violations);
}

#[test]
fn d007_justified_allow_suppresses() {
    let src = r#"
pub fn write(buf: &mut [u32], i: usize) {
    let p = buf.as_mut_ptr();
    // gs-lint: allow(D007) `i` is bounds-checked by the caller
    unsafe { *p.add(i) = 1 };
}
"#;
    let r = lint_one("crates/gs-render/src/binning.rs", src);
    assert!(rules(&r).is_empty(), "{:?}", r.violations);
    assert_eq!(r.allows_used, 1);
}

// ------------------------------------------------ allow directives / A000

#[test]
fn justified_allow_suppresses_and_is_counted() {
    let src = r#"
pub fn f(x: Option<u32>) -> u32 {
    // gs-lint: allow(D002) invariant: caller checked is_some() above
    x.unwrap()
}
pub fn g(n: usize) -> u32 {
    n as u32 // gs-lint: allow(D004) bounded by the u32 slot count invariant
}
"#;
    let r = lint_one("crates/gs-voxel/src/store.rs", src);
    assert!(rules(&r).is_empty(), "{:?}", r.violations);
    assert_eq!(r.allows_used, 2);
    assert_eq!(r.unjustified_allows, 0);
}

#[test]
fn bare_allow_suppresses_but_is_itself_a_violation() {
    let src = r#"
pub fn f(x: Option<u32>) -> u32 {
    // gs-lint: allow(D002)
    x.unwrap()
}
"#;
    let r = lint_one("crates/gs-voxel/src/fake.rs", src);
    assert_eq!(rules(&r), vec!["A000"], "{:?}", r.violations);
    assert_eq!(r.unjustified_allows, 1);
    assert!(!r.ok(), "the gate must stay red on a bare allow");
}

#[test]
fn unknown_rule_in_allow_is_a_violation() {
    let src = "// gs-lint: allow(D999) nonsense\npub fn f() {}\n";
    let r = lint_one("crates/gs-core/src/fake.rs", src);
    assert_eq!(rules(&r), vec!["A000"], "{:?}", r.violations);
}

#[test]
fn allow_does_not_leak_to_other_lines_or_rules() {
    let src = r#"
pub fn f(x: Option<u32>, y: Option<u32>) -> u32 {
    // gs-lint: allow(D002) only the next line
    let a = x.unwrap();
    let b = y.unwrap();
    a + b
}
"#;
    let r = lint_one("crates/gs-accel/src/fake.rs", src);
    assert_eq!(rules(&r), vec!["D002"], "{:?}", r.violations);
    assert_eq!(r.allows_used, 1);
}

// ------------------------------------------------------------ report shape

#[test]
fn json_line_and_gate() {
    let r = lint_one(
        "crates/gs-accel/src/fake.rs",
        "pub fn f() { panic!(\"x\") }\n",
    );
    assert!(!r.ok());
    let json = r.json_line();
    assert!(json.starts_with("LINT_JSON {"), "{json}");
    assert!(json.contains("\"violations\":1"), "{json}");
    assert!(json.contains("\"D002\":1"), "{json}");
    assert!(json.contains("\"lint_ok\":false"), "{json}");

    let clean = lint_one("crates/gs-accel/src/ok.rs", "pub fn f() -> u32 { 1 }\n");
    assert!(clean.ok());
    assert!(clean.json_line().contains("\"lint_ok\":true"));
}

// ------------------------------------------------------- tokenizer edges

#[test]
fn tokenizer_handles_raw_strings_nested_comments_and_lifetimes() {
    let src = r##"
/* outer /* nested */ still comment with panic! */
pub fn f<'a>(s: &'a str) -> &'a str {
    let _raw = r#"contains .unwrap( and "quotes""#;
    let _c = '\n';
    let _q = '"';
    s
}
"##;
    let r = lint_one("crates/gs-core/src/fake.rs", src);
    assert!(rules(&r).is_empty(), "{:?}", r.violations);
}
