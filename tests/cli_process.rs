//! The `sptx` binary as a process: exit codes and stream handling that the
//! in-process `cli::run` tests cannot see.

use std::process::{Command, Stdio};

fn sptx() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sptx"))
}

#[test]
fn closed_stdout_is_a_clean_exit() {
    let dir = std::env::temp_dir().join(format!("sptx-epipe-{}", std::process::id()));
    let status = sptx()
        .args(["generate", "--entities", "60", "--relations", "3"])
        .args(["--triples", "400", "--out"])
        .arg(&dir)
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success());
    let emb = dir.join("emb.bin");
    let mut child = sptx()
        .args(["train", "--epochs", "2", "--dim", "8", "--train"])
        .arg(dir.join("train.tsv"))
        .arg("--out")
        .arg(&emb)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // Close the only read end before the report is written, as `| head`
    // does once it has its lines: every write to stdout now fails EPIPE.
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(emb.exists(), "the run itself must still complete");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unread_option_is_a_usage_error_naming_it() {
    // Options are checked before any file is opened.
    let out = sptx()
        .args(["train", "--train", "missing.tsv", "--epoch", "7"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.starts_with("usage error: sptx train does not accept --epoch"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());
}
