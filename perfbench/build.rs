//! Records how the benchmark binary was built, for the environment
//! stamp every result carries.

use std::process::Command;

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTFLAGS={}",
        flags.replace('\u{1f}', " ")
    );
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .unwrap_or_default();
    println!("cargo:rustc-env=PERFBENCH_RUSTC={}", version.trim());
    let profile = std::env::var("PROFILE").unwrap_or_default();
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
}
