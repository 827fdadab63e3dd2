//! Coverage guard: every workspace member under `crates/` must be in
//! scope of at least one klint rule, and any crate outside the
//! *determinism* rules (D1/D2/D3) must be on the documented exemption
//! list below. A new crate added to the workspace therefore fails this
//! test until its linting posture is decided explicitly — either by
//! adding it to a rule's scope in `rules.rs` or by exempting it here
//! with a justification.

use std::path::Path;

use klint::{Rule, ALL_RULES};

/// Crates deliberately outside every determinism rule, with the reason.
/// (They remain covered by the workspace-wide rules M1/U1/A1.)
const DETERMINISM_EXEMPT: [(&str, &str); 4] = [
    (
        "analysis",
        "offline post-processing; panicking on malformed input is acceptable",
    ),
    (
        "bench",
        "criterion-style benchmark harness; timing reads are its purpose",
    ),
    (
        "klint",
        "the linter itself; it may read clocks and panic on its own bugs",
    ),
    (
        "kloom",
        "the model checker; panics *are* its failure-reporting mechanism",
    ),
];

/// Expands the `crates/*` member glob from the root Cargo.toml against
/// the filesystem, returning crate directory names.
fn workspace_crates(root: &Path) -> Vec<String> {
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("read root Cargo.toml");
    let members_line = manifest
        .lines()
        .find(|l| l.trim_start().starts_with("members"))
        .expect("root Cargo.toml declares workspace members");
    assert!(
        members_line.contains("\"crates/*\""),
        "expected a crates/* member glob, got: {members_line}"
    );
    let mut names = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("list crates/") {
        let entry = entry.expect("read crates/ entry");
        if entry.path().join("Cargo.toml").is_file() {
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    names.sort();
    assert!(!names.is_empty(), "crates/* expanded to nothing");
    names
}

#[test]
fn every_workspace_crate_is_scoped_by_some_rule() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for krate in workspace_crates(&root) {
        let covered: Vec<&str> = ALL_RULES
            .iter()
            .filter(|r| r.applies_to_crate(Some(&krate)))
            .map(|r| r.name())
            .collect();
        assert!(
            !covered.is_empty(),
            "crate `{krate}` is unscoped by every klint rule — add it to a \
             rule's scope in rules.rs or document why it is exempt"
        );
    }
}

/// `fleet` is held to every determinism rule crate-wide, D2 included:
/// the supervisor contains other threads' panics, and a panic in the
/// fan-in or the collector forfeits the partial-outcome contract just
/// the same. Every library file of the crate is in D2 scope.
#[test]
fn fleet_is_in_d2_scope_crate_wide() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for rule in [Rule::D1, Rule::D2, Rule::D3] {
        assert!(
            rule.applies_to_crate(Some("fleet")),
            "{} must cover fleet",
            rule.name()
        );
    }
    let mut files = 0;
    for entry in std::fs::read_dir(root.join("crates/fleet/src")).expect("list fleet/src") {
        let name = entry.expect("read fleet/src entry").file_name();
        let name = name.to_string_lossy();
        if !name.ends_with(".rs") {
            continue;
        }
        let rel_path = format!("crates/fleet/src/{name}");
        assert!(
            Rule::D2.in_scope(&rel_path, Some("fleet")),
            "D2 must scan {rel_path}"
        );
        files += 1;
    }
    assert!(files > 0, "crates/fleet/src holds no .rs files");
}

#[test]
fn determinism_exemptions_are_documented_and_current() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let determinism = [Rule::D1, Rule::D2, Rule::D3];
    for krate in workspace_crates(&root) {
        let in_determinism_scope = determinism.iter().any(|r| r.applies_to_crate(Some(&krate)));
        let exempt = DETERMINISM_EXEMPT.iter().any(|(name, _)| *name == krate);
        assert!(
            in_determinism_scope || exempt,
            "crate `{krate}` is outside every determinism rule (D1/D2/D3) \
             but not on the documented exemption list in coverage.rs"
        );
        assert!(
            !(in_determinism_scope && exempt),
            "crate `{krate}` is both determinism-scoped and exempted — \
             remove the stale exemption"
        );
    }
}
