//! The `sparseinfer-serve` binary's flag checks, run as a process.

use std::process::Command;

#[test]
fn zero_capacity_flags_exit_1_with_a_message() {
    // A zero slot count, block size or KV budget is refused while the
    // flags are parsed, before a model is built or a port bound.
    for flag in ["--slots", "--block-tokens", "--kv-budget"] {
        let out = Command::new(env!("CARGO_BIN_EXE_sparseinfer-serve"))
            .args([flag, "0"])
            .output()
            .expect("the serve binary runs");
        assert_eq!(out.status.code(), Some(1), "{flag} 0");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let message = format!("{flag} needs a positive integer");
        assert!(stderr.contains(&message), "{flag} 0 printed: {stderr}");
    }
}
