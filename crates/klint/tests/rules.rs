//! One positive and one negative fixture per rule, driven through the
//! public `check_source` entry point (lexing, scoping, test-span
//! skipping, and suppression filtering all engaged).

use klint::{check_source, Baseline, Rule};

fn fired(path: &str, src: &str) -> Vec<Rule> {
    check_source(path, src).iter().map(|v| v.rule).collect()
}

// --- D1: wall clock / unseeded RNG -----------------------------------

#[test]
fn d1_flags_wall_clock_and_unseeded_rng() {
    let src = "
fn f() {
    let a = std::time::Instant::now();
    let b = SystemTime::now();
    let mut rng = thread_rng();
}
";
    let v = check_source("crates/ksim/src/x.rs", src);
    assert_eq!(
        v.iter().map(|v| v.snippet.as_str()).collect::<Vec<_>>(),
        vec!["Instant::now", "SystemTime::now", "thread_rng()"]
    );
    assert!(v.iter().all(|v| v.rule == Rule::D1));
    assert_eq!(v[0].line, 3);
}

#[test]
fn d1_ignores_seeded_rng_strings_and_out_of_scope_crates() {
    // Seeded randomness and simulated time are the sanctioned idioms.
    let clean = r#"
fn f() {
    let rng = StdRng::seed_from_u64(7);
    let msg = "never call Instant::now() here";
    // Instant::now() in a comment is fine too.
}
"#;
    assert_eq!(fired("crates/ksim/src/x.rs", clean), vec![]);
    // Out of scope: klint itself may read the clock.
    let dirty = "fn f() { let _ = Instant::now(); }";
    assert_eq!(fired("crates/klint/src/x.rs", dirty), vec![]);
}

#[test]
fn d1_and_d2_cover_ktrace() {
    // The trace store is part of the deterministic core: wall-clock
    // reads and panicking decode paths are both in scope.
    let wall_clock = "fn f() { let _ = Instant::now(); }";
    assert_eq!(fired("crates/ktrace/src/x.rs", wall_clock), vec![Rule::D1]);
    let unwrap = "fn f(v: Option<u32>) -> u32 { v.unwrap() }";
    assert_eq!(fired("crates/ktrace/src/x.rs", unwrap), vec![Rule::D2]);
    // D2 still skips ktrace's tests/ directory.
    assert_eq!(fired("crates/ktrace/tests/x.rs", unwrap), vec![]);
}

#[test]
fn d1_d2_and_d3_cover_kchan() {
    // The ring transport is part of the deterministic core: wall-clock
    // reads, panicking paths, and ad-hoc Relaxed orderings are all in
    // scope.
    let wall_clock = "fn f() { let _ = Instant::now(); }";
    assert_eq!(fired("crates/kchan/src/x.rs", wall_clock), vec![Rule::D1]);
    let unwrap = "fn f(v: Option<u32>) -> u32 { v.unwrap() }";
    assert_eq!(fired("crates/kchan/src/x.rs", unwrap), vec![Rule::D2]);
    // D2 still skips kchan's tests/ directory.
    assert_eq!(fired("crates/kchan/tests/x.rs", unwrap), vec![]);
    let relaxed = "fn f(x: &AtomicU64) { x.store(1, Ordering::Relaxed); }";
    assert_eq!(fired("crates/kchan/src/x.rs", relaxed), vec![Rule::D3]);
    // ring.rs is the documented ordering-protocol module: orderings are
    // its business (mirroring the fleet metrics allowlist).
    assert_eq!(fired("crates/kchan/src/ring.rs", relaxed), vec![]);
}

#[test]
fn d1_applies_to_test_code_too() {
    let src = "
#[cfg(test)]
mod tests {
    fn t() { let _ = Instant::now(); }
}
";
    assert_eq!(fired("crates/fleet/src/x.rs", src), vec![Rule::D1]);
}

// --- D2: unwrap/expect in library code --------------------------------

#[test]
fn d2_flags_unwrap_and_expect_in_lib_code() {
    let src = "
fn f(v: Option<u32>) -> u32 {
    v.unwrap() + v.expect(\"msg\")
}
";
    let v = check_source("crates/pmu/src/x.rs", src);
    assert_eq!(
        v.iter().map(|v| v.snippet.as_str()).collect::<Vec<_>>(),
        vec![".unwrap()", ".expect()"]
    );
}

#[test]
fn d2_skips_test_modules_tests_dirs_and_other_crates() {
    let in_test_mod = "
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1).unwrap(); }
}
";
    assert_eq!(fired("crates/kleb/src/x.rs", in_test_mod), vec![]);
    let plain = "fn f() { Some(1).unwrap(); }";
    assert_eq!(fired("crates/kleb/tests/x.rs", plain), vec![]);
    // analysis is offline post-processing; it is not in D2 scope.
    assert_eq!(fired("crates/analysis/src/x.rs", plain), vec![]);
}

#[test]
fn d2_covers_the_simulated_tools_and_workloads() {
    let plain = "fn f() { Some(1).unwrap(); }";
    assert_eq!(fired("crates/baselines/src/x.rs", plain), vec![Rule::D2]);
    assert_eq!(fired("crates/workloads/src/x.rs", plain), vec![Rule::D2]);
    let wall_clock = "fn f() { let _ = Instant::now(); }";
    assert_eq!(
        fired("crates/baselines/src/x.rs", wall_clock),
        vec![Rule::D1]
    );
}

// --- D3: Relaxed ordering in fleet ------------------------------------

#[test]
fn d3_flags_relaxed_ordering_in_fleet() {
    let src = "fn f(x: &AtomicU64) { x.store(1, Ordering::Relaxed); }";
    assert_eq!(fired("crates/fleet/src/x.rs", src), vec![Rule::D3]);
    // Stronger orderings are fine.
    let seqcst = "fn f(x: &AtomicU64) { x.store(1, Ordering::SeqCst); }";
    assert_eq!(fired("crates/fleet/src/x.rs", seqcst), vec![]);
}

#[test]
fn d3_allowlists_only_the_ring_module_and_other_crates() {
    let src = "fn f(x: &AtomicU64) { x.store(1, Ordering::Relaxed); }";
    assert_eq!(fired("crates/kchan/src/ring.rs", src), vec![]);
    // The fleet's self-metrics hold no atomics any more: the file gets no
    // exemption and fires like any other fleet file.
    assert_eq!(fired("crates/fleet/src/metrics.rs", src), vec![Rule::D3]);
    assert_eq!(fired("crates/ksim/src/x.rs", src), vec![]);
}

// --- M1: named MSR constants ------------------------------------------

#[test]
fn m1_flags_bare_msr_address_literals() {
    let src = "
fn f(pmu: &mut Pmu) {
    pmu.wrmsr(0x38F, 1).unwrap_or_default();
    let _ = pmu.rdmsr(911);
}
";
    let v = check_source("crates/baselines/src/x.rs", src);
    assert_eq!(
        v.iter().map(|v| v.snippet.as_str()).collect::<Vec<_>>(),
        vec!["wrmsr(0x38F, …)", "rdmsr(911, …)"]
    );
    assert!(v.iter().all(|v| v.rule == Rule::M1));
}

#[test]
fn m1_checks_the_address_argument_of_per_core_variants() {
    // wrmsr_on/rdmsr_on take the core first, the address second.
    let src = "fn f(m: &mut Machine) { m.wrmsr_on(core, 0x186, bits); }";
    assert_eq!(fired("crates/kleb/src/x.rs", src), vec![Rule::M1]);
    let named = "fn f(m: &mut Machine) { m.wrmsr_on(core, msr::perfevtsel(0), bits); }";
    assert_eq!(fired("crates/kleb/src/x.rs", named), vec![]);
}

#[test]
fn m1_allows_named_constants_and_literal_values() {
    // A literal *value* argument is fine; only the address must be named.
    let src = "fn f(pmu: &mut Pmu) { pmu.wrmsr(msr::IA32_PERF_GLOBAL_CTRL, 0xF); }";
    assert_eq!(fired("crates/pmu/src/x.rs", src), vec![]);
    // Test code probes raw addresses deliberately.
    let probe = "
#[cfg(test)]
mod tests {
    fn t(pmu: &mut Pmu) { let _ = pmu.rdmsr(0x10); }
}
";
    assert_eq!(fired("crates/pmu/src/x.rs", probe), vec![]);
}

// --- Baseline semantics -----------------------------------------------

#[test]
fn baseline_round_trips_and_freezes_counts() {
    let src = "
fn f(v: Option<u32>) -> u32 { v.unwrap() }
fn g(v: Option<u32>) -> u32 { v.unwrap() }
fn h(v: Option<u32>) -> u32 { v.unwrap() }
";
    let violations = check_source("crates/pmu/src/x.rs", src);
    assert_eq!(violations.len(), 3);

    // Freeze two of the three: one remains new.
    let two = Baseline::from_violations(&violations[..2]);
    let (new, frozen) = two.split(&violations);
    assert_eq!((new.len(), frozen.len()), (1, 2));

    // serialize ∘ parse is the identity.
    let text = two.serialize();
    let reparsed = Baseline::parse(&text).unwrap();
    assert_eq!(reparsed, two);
    assert_eq!(reparsed.serialize(), text);

    // A full baseline freezes everything; fixing debt leaves the
    // remaining violations frozen and the gate green.
    let all = Baseline::from_violations(&violations);
    let (new, frozen) = all.split(&violations[..1]);
    assert_eq!((new.len(), frozen.len()), (0, 1));
}

// --- U1: SAFETY comments on unsafe ------------------------------------

#[test]
fn u1_flags_unjustified_unsafe_of_every_kind() {
    let src = "
pub unsafe fn read_raw(p: *const u64) -> u64 { *p }
fn f(p: *const u64) -> u64 { unsafe { *p } }
unsafe impl Send for X {}
";
    let v = check_source("crates/fleet/src/x.rs", src);
    assert_eq!(
        v.iter().map(|v| v.snippet.as_str()).collect::<Vec<_>>(),
        vec!["unsafe fn", "unsafe block", "unsafe impl"]
    );
    assert!(v.iter().all(|v| v.rule == Rule::U1));
}

#[test]
fn u1_accepts_safety_comments_doc_sections_and_attribute_gaps() {
    let src = r#"
/// Reads through a raw pointer.
///
/// # Safety
///
/// `p` must be valid for reads.
pub unsafe fn read_raw(p: *const u64) -> u64 { *p }

fn f(p: *const u64) -> u64 {
    // SAFETY: the caller validated p above.
    unsafe { *p }
}

// SAFETY: X's interior is independently synchronized.
#[cfg(feature = "threads")]
unsafe impl Send for X {}
"#;
    assert_eq!(fired("crates/fleet/src/x.rs", src), vec![]);
}

#[test]
fn u1_applies_to_test_code_too() {
    let src = "fn t(p: *const u8) { unsafe { let _ = *p; } }";
    assert_eq!(fired("crates/fleet/tests/x.rs", src), vec![Rule::U1]);
}

// --- A1: crate-wide atomic ordering pairing ---------------------------

use klint::rules::{a1_violations, collect_atomic_sites};

fn sites(path: &str, src: &str) -> Vec<klint::AtomicSite> {
    let lexed = klint::lexer::lex(src);
    let crate_name = path
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next());
    collect_atomic_sites(&lexed, path, crate_name, path.contains("/tests/"))
}

#[test]
fn a1_flags_unpaired_release_store() {
    let s = sites(
        "crates/fleet/src/a.rs",
        "fn f(x: &S) { x.done.store(1, Ordering::Release); }",
    );
    let v = a1_violations(&s);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, Rule::A1);
    assert!(v[0].snippet.contains("unpaired"), "{:?}", v[0]);
}

#[test]
fn a1_accepts_cross_file_pairing_within_a_crate() {
    let mut s = sites(
        "crates/fleet/src/a.rs",
        "fn f(s: &S) { s.shared.tail.0.store(1, Ordering::Release); }",
    );
    s.extend(sites(
        "crates/fleet/src/b.rs",
        "fn g(s: &S) -> u64 { s.tail.load(Ordering::Acquire) }",
    ));
    assert_eq!(a1_violations(&s), vec![]);
}

#[test]
fn a1_sees_orderings_through_macro_wrappers() {
    // The kchan facade routes protocol orderings through proto_ord!();
    // the literal must still be visible to the audit.
    let mut s = sites(
        "crates/kchan/src/a.rs",
        "fn f(s: &S) { s.tail.store(1, proto_ord!(PUBLISH, Ordering::Release)); }",
    );
    assert_eq!(s.len(), 1, "{s:?}");
    s.extend(sites(
        "crates/kchan/src/a.rs",
        "fn g(s: &S) -> u64 { s.tail.load(proto_ord!(OBSERVE, Ordering::Acquire)) }",
    ));
    assert_eq!(a1_violations(&s), vec![]);
}

#[test]
fn a1_flags_seqcst_relaxed_mix_on_one_field() {
    let mut s = sites(
        "crates/fleet/src/a.rs",
        "fn f(x: &S) { x.flag.store(1, Ordering::SeqCst); }",
    );
    s.extend(sites(
        "crates/fleet/src/a.rs",
        "fn g(x: &S) -> u64 { x.flag.load(Ordering::Relaxed) }",
    ));
    let v = a1_violations(&s);
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(
        v[0].snippet.contains("SeqCst mixed with Relaxed"),
        "{:?}",
        v[0]
    );
    // Uniform SeqCst (or uniform Relaxed) on a field is consistent.
    let uniform = sites(
        "crates/fleet/src/a.rs",
        "fn f(x: &S) { x.flag.store(1, Ordering::SeqCst); let _ = x.flag.load(Ordering::SeqCst); }",
    );
    assert_eq!(a1_violations(&uniform), vec![]);
}

#[test]
fn a1_rmw_acqrel_pairs_with_itself_and_tests_are_skipped() {
    // An AcqRel RMW both publishes and observes the field.
    let s = sites(
        "crates/fleet/src/a.rs",
        "fn f(x: &S) { x.waits.fetch_add(1, Ordering::AcqRel); }",
    );
    assert_eq!(a1_violations(&s), vec![]);
    // Model/stress tests deliberately use odd orderings: out of scope.
    let t = sites(
        "crates/fleet/tests/x.rs",
        "fn f(x: &S) { x.done.store(1, Ordering::Release); }",
    );
    assert_eq!(t, vec![]);
}
