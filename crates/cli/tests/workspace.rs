//! The root manifest is a virtual workspace: no package of its own and no
//! `default-members`. Cargo's default members at the root are then every
//! member, so a plain `cargo build --release && cargo test` there builds
//! every binary and runs every crate's tests. A root package would narrow
//! both to itself.

use std::path::Path;

fn root_manifest() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../Cargo.toml");
    std::fs::read_to_string(&path).expect("read the root Cargo.toml")
}

/// The manifest's lines with comments and surrounding blanks cut off.
fn lines(manifest: &str) -> impl Iterator<Item = &str> {
    manifest
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
}

#[test]
fn root_manifest_declares_no_package_and_no_default_members() {
    let manifest = root_manifest();
    assert!(
        lines(&manifest).any(|l| l == "[workspace]"),
        "the root Cargo.toml must declare the workspace"
    );
    for line in lines(&manifest) {
        assert!(
            !(line.starts_with("[package") || line.starts_with("[lib]")),
            "the root Cargo.toml declares a package (`{line}`): the root \
             would default to it alone"
        );
        assert!(
            !line.starts_with("default-members"),
            "the root Cargo.toml sets `{line}`: the root would default to those \
             members alone"
        );
    }
}
