//! The documents describe the tree as it is. Three checks:
//!
//! * every backticked `crates/…`, `results/…`, `examples/…` or `tests/…`
//!   path in DESIGN.md, README.md and EXPERIMENTS.md exists;
//! * every pointer to a DESIGN.md section (the file's name, `§` and a
//!   number) in the code (`.rs`, `.sh`, `.toml`) and in those three
//!   documents names a numbered DESIGN.md heading;
//! * each name a DESIGN.md section is built around is still defined under
//!   `crates/*/src`, and DESIGN.md still mentions it.

use std::fs;
use std::path::{Path, PathBuf};

/// The documents whose backticked paths must exist.
const DOCS: &[&str] = &["DESIGN.md", "README.md", "EXPERIMENTS.md"];

/// A backticked span starting with one of these is a path from the root.
const PATH_ROOTS: &[&str] = &["crates/", "results/", "examples/", "tests/"];

/// The names each DESIGN.md section is built around, as `(kind, name)`:
/// the item `kind name` must be defined in some `crates/*/src` file.
const DECLARED: &[(&str, &str)] = &[
    // §3 NIC and filter.
    ("fn", "deliver"),
    ("fn", "dst_mac"),
    ("fn", "pre_parse"),
    ("struct", "PreParsed"),
    ("fn", "classify"),
    ("fn", "bucket"),
    ("const", "RSS_BUCKETS"),
    ("struct", "FilterPolicy"),
    ("struct", "RxRing"),
    ("struct", "TxRing"),
    // §4 RX parse and grouping.
    ("fn", "input_batch"),
    ("fn", "parse"),
    ("fn", "run_segment"),
    ("fn", "fast_segment"),
    ("fn", "ack_policy_pass"),
    ("fn", "input_reference"),
    // §5 Flow table and TCB.
    ("struct", "FlowTable"),
    ("struct", "FlowMap"),
    ("struct", "Tcb"),
    ("struct", "TcbCold"),
    ("const", "SYN_COOKIE_BUCKET_NS"),
    // §6 Timers.
    ("struct", "TimerWheel"),
    ("fn", "cancel_batch"),
    ("fn", "schedule_batch"),
    ("fn", "next_deadline_ns"),
    // §7 TX.
    ("fn", "send_bytes"),
    ("fn", "take_tx_swap"),
    ("fn", "tx_push"),
    ("fn", "ring_doorbells"),
    // §8 The engine core, the dataplane cycle and `Syscall::execute`.
    ("struct", "EngineCore"),
    ("fn", "run_app"),
    ("fn", "execute"),
    ("struct", "UserCtx"),
    ("struct", "Libix"),
    ("fn", "run_iteration"),
    // §9 IXCP and `remap`.
    ("fn", "remap"),
    ("fn", "extract_bucket_into"),
    ("fn", "absorb_flows"),
    ("fn", "adopt_slab"),
    ("fn", "start_queue_watchdog"),
    ("fn", "start_elastic_controller"),
    ("struct", "FilterControl"),
    // §10 Baselines and `launch_cores`.
    ("fn", "launch_cores"),
    ("fn", "poll_rx"),
    ("fn", "flush_tx"),
    ("struct", "LinuxCore"),
    ("struct", "MtcpCore"),
    // §11 Simulator, fabric and faults.
    ("struct", "Simulator"),
    ("fn", "schedule_event_at"),
    ("trait", "EventTarget"),
    ("struct", "Fabric"),
    ("fn", "add_host"),
    ("struct", "FaultPlan"),
    // §12 Experiments.
    ("struct", "Scenario"),
    ("fn", "run"),
    ("struct", "RunReport"),
    ("struct", "Testbed"),
    // §13 Host allocation rules.
    ("fn", "scratch_buffers"),
    ("fn", "lent_queues"),
    ("struct", "Spares"),
    ("struct", "Blocks"),
    ("struct", "MbufPool"),
    ("const", "PROVISION_BLOCK"),
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every file under `dir` whose extension is in `exts`, skipping build
/// output and hidden directories.
fn files(dir: &Path, exts: &[&str], out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !name.starts_with('.') && name != "target" && name != "out" {
                files(&path, exts, out);
            }
        } else if path.extension().and_then(|e| e.to_str()).is_some_and(|e| exts.contains(&e)) {
            out.push(path);
        }
    }
}

/// The text outside fenced code blocks.
fn prose(md: &str) -> String {
    let mut fenced = false;
    let mut out = String::new();
    for line in md.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// The contents of the single-backtick code spans in `text`, a span
/// that wraps a line break joined with a space.
fn code_spans(text: &str) -> Vec<String> {
    text.split('`')
        .skip(1)
        .step_by(2)
        .map(|s| s.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect()
}

/// `a/{b,c}.rs` → `a/b.rs`, `a/c.rs`; anything else as it is.
fn expand_braces(path: &str) -> Vec<String> {
    match (path.find('{'), path.find('}')) {
        (Some(open), Some(close)) if open < close => path[open + 1..close]
            .split(',')
            .map(|alt| format!("{}{}{}", &path[..open], alt, &path[close + 1..]))
            .collect(),
        _ => vec![path.to_string()],
    }
}

/// The repo-relative paths a document quotes in backticks. A span names
/// a path when it starts with one of [`PATH_ROOTS`]; what follows the
/// path (`::item`, `:line`, an argument) is cut, and placeholders such as
/// `results/<bin>.txt` are skipped.
fn quoted_paths(md: &str) -> Vec<String> {
    let mut paths = Vec::new();
    for span in code_spans(&prose(md)) {
        if !PATH_ROOTS.iter().any(|r| span.starts_with(r)) {
            continue;
        }
        let path = span.split_whitespace().next().unwrap_or("");
        let path = path.split("::").next().unwrap_or("");
        let path = path.split(':').next().unwrap_or("");
        if path.contains(['<', '*', '$']) {
            continue;
        }
        paths.extend(expand_braces(path));
    }
    paths
}

/// The section numbers DESIGN.md's `## n. Title` headings define.
fn design_sections(design: &str) -> Vec<String> {
    design
        .lines()
        .filter_map(|l| l.strip_prefix("## "))
        .filter_map(|h| h.split_once(". ").map(|(n, _)| n.to_string()))
        .collect()
}

/// The section numbers that pointers to DESIGN.md (`DESIGN.md` or
/// `DESIGN`, then `§` and a number) name in `text`, following lists of
/// further `§` numbers joined by `,`, `/` or `and`.
fn design_pointers(text: &str) -> Vec<String> {
    // A pointer may wrap onto a comment's next line.
    fn token(s: &str) -> Option<(String, &str)> {
        let s = s.trim_start();
        let s = ["//!", "///", "//", "#"].iter().find_map(|c| s.strip_prefix(c)).unwrap_or(s);
        let s = s.trim_start().strip_prefix('§')?;
        let end = s.find(|c: char| !c.is_ascii_alphanumeric()).unwrap_or(s.len());
        (end > 0).then(|| (s[..end].to_string(), &s[end..]))
    }
    let mut found = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("DESIGN") {
        rest = &rest[at + "DESIGN".len()..];
        let after = rest.strip_prefix(".md").unwrap_or(rest);
        let Some((first, mut tail)) = token(after) else { continue };
        found.push(first);
        loop {
            let t = tail.trim_start();
            let t = t
                .strip_prefix(',')
                .or_else(|| t.strip_prefix('/'))
                .or_else(|| t.strip_prefix("and "))
                .unwrap_or(t);
            match token(t) {
                Some((next, more)) => {
                    found.push(next);
                    tail = more;
                }
                None => break,
            }
        }
        rest = tail;
    }
    found
}

/// True when `text` defines `kind name` (`fn run(`, `struct Tcb {`, …)
/// and not merely a longer name that starts with it.
fn defines(text: &str, kind: &str, name: &str) -> bool {
    let needle = format!("{kind} {name}");
    text.match_indices(&needle).any(|(at, _)| {
        let next = text[at + needle.len()..].chars().next();
        !next.is_some_and(|c| c.is_alphanumeric() || c == '_')
    })
}

#[test]
fn quoted_paths_exist() {
    let root = root();
    let mut missing = Vec::new();
    for doc in DOCS {
        for path in quoted_paths(&read(&root.join(doc))) {
            if !root.join(&path).exists() {
                missing.push(format!("{doc}: `{path}`"));
            }
        }
    }
    assert!(missing.is_empty(), "paths quoted in the docs that do not exist:\n{}", missing.join("\n"));
}

#[test]
fn design_pointers_name_headings() {
    let root = root();
    let sections = design_sections(&read(&root.join("DESIGN.md")));
    assert!(sections.len() >= 10, "DESIGN.md headings not found: {sections:?}");
    let mut sources = Vec::new();
    files(&root, &["rs", "sh", "toml"], &mut sources);
    sources.extend(DOCS.iter().map(|d| root.join(d)));
    let mut dangling = Vec::new();
    for path in &sources {
        for section in design_pointers(&read(path)) {
            if !sections.contains(&section) {
                let shown = path.strip_prefix(&root).unwrap_or(path).display().to_string();
                dangling.push(format!("{shown}: DESIGN.md §{section}"));
            }
        }
    }
    assert!(
        dangling.is_empty(),
        "pointers to DESIGN.md sections that do not exist (headings: {sections:?}):\n{}",
        dangling.join("\n")
    );
}

#[test]
fn declared_names_are_defined_and_described() {
    let root = root();
    let mut sources = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        let src = krate.expect("crate entry").path().join("src");
        if src.is_dir() {
            files(&src, &["rs"], &mut sources);
        }
    }
    let texts: Vec<String> = sources.iter().map(|p| read(p)).collect();
    let design = read(&root.join("DESIGN.md"));
    let mut wrong = Vec::new();
    for &(kind, name) in DECLARED {
        if !texts.iter().any(|t| defines(t, kind, name)) {
            wrong.push(format!("`{kind} {name}` is defined nowhere under crates/*/src"));
        }
        if !design.contains(name) {
            wrong.push(format!("DESIGN.md no longer mentions `{name}`"));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn the_checks_parse_what_they_check() {
    assert_eq!(design_pointers("see DESIGN.md §13, and DESIGN §3 and §5."), ["13", "3", "5"]);
    assert_eq!(design_pointers("(DESIGN.md\n//! §4/§7)"), ["4", "7"]);
    assert!(design_pointers("DESIGN.md alone, paper §4.4").is_empty());
    let md = "a `crates/x/{a,b}.rs` b `results/<bin>.txt` c `tests/t.rs::case`\n```\n`crates/fenced`\n```\n";
    assert_eq!(quoted_paths(md), ["crates/x/a.rs", "crates/x/b.rs", "tests/t.rs"]);
    assert!(defines("pub struct Tcb {", "struct", "Tcb"));
    assert!(!defines("pub struct TcbCold {", "struct", "Tcb"));
}
