//! A figure binary's stdout is a pure function of its seed, and stdout
//! is all it produces: the same bytes on any worker-thread count, no
//! host-timing line in them, and no file written under `results/`.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Quick-sweep stdout of `exe` on `threads` sweep workers.
fn quick_stdout(exe: &str, threads: &str) -> String {
    let out = Command::new(exe)
        .env("IX_SWEEP_QUICK", "1")
        .env("IX_SWEEP_THREADS", threads)
        .output()
        .expect("figure binary runs");
    assert!(out.status.success(), "{exe} failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Every file under `dir`, recursively, with its contents.
fn snapshot(dir: &Path, into: &mut BTreeMap<PathBuf, Vec<u8>>) {
    for entry in fs::read_dir(dir).expect("results/ is readable") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            snapshot(&path, into);
        } else {
            let bytes = fs::read(&path).expect("result file is readable");
            into.insert(path, bytes);
        }
    }
}

#[test]
fn figure_stdout_is_thread_independent_and_nothing_else_is_written() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut before = BTreeMap::new();
    snapshot(&results, &mut before);

    for exe in [env!("CARGO_BIN_EXE_fig2_netpipe"), env!("CARGO_BIN_EXE_fig7_faults")] {
        let serial = quick_stdout(exe, "1");
        let parallel = quick_stdout(exe, "2");
        assert_eq!(serial, parallel, "{exe}: stdout depends on IX_SWEEP_THREADS");
        for line in serial.lines() {
            assert!(
                !line.starts_with("[sweep]") && !line.starts_with("[bench]"),
                "{exe}: host-timing line on stdout: {line}"
            );
        }
    }

    let mut after = BTreeMap::new();
    snapshot(&results, &mut after);
    assert!(before == after, "a figure binary wrote under results/");
}
