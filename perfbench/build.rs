//! Records the toolchain and source revision the benchmark was built
//! from, so every result can name them.

use std::path::Path;
use std::process::Command;

fn stdout_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let text = text.trim();
    (!text.is_empty()).then(|| text.to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = stdout_of(&rustc, &["-V"]).unwrap_or_else(|| "unknown".into());
    // The repository root is the manifest's parent. Naming its git
    // directory explicitly stops git from searching further up: an
    // exported source tree (no `.git`) reports "unknown".
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let git_dir = Path::new(&manifest).join("..").join(".git");
    let commit = if git_dir.exists() {
        let arg = format!("--git-dir={}", git_dir.display());
        println!("cargo:rerun-if-changed={}", git_dir.join("HEAD").display());
        stdout_of("git", &[&arg, "rev-parse", "HEAD"])
    } else {
        None
    };
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!(
        "cargo:rustc-env=PERFBENCH_COMMIT={}",
        commit.unwrap_or_else(|| "unknown".into())
    );
    println!(
        "cargo:rustc-env=PERFBENCH_PROFILE={}",
        std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into())
    );
    println!("cargo:rerun-if-changed=build.rs");
}
