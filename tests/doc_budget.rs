//! Size caps on the two documents every change touches, so that they stop
//! growing by default. DESIGN.md may not grow past its size when the cap
//! was set: a change that adds prose there removes as much. Each
//! CHANGES.md entry from PR 50 on is one line of at most 2,000 bytes; the
//! detail of a change goes in `results/perf/PR-nn.md`.

use std::fs;
use std::path::PathBuf;

/// DESIGN.md's size in bytes when the cap was set; lower it as the
/// document shrinks.
const DESIGN_MAX_BYTES: u64 = 91_528;
/// The longest a CHANGES.md entry may be, in bytes.
const ENTRY_MAX_BYTES: usize = 2_000;
/// The first PR whose CHANGES.md entry is capped.
const FIRST_CAPPED_PR: u32 = 50;

fn doc(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(name)
}

/// `n` for a line that starts `PR <n>`.
fn pr_number(line: &str) -> Option<u32> {
    let rest = line.strip_prefix("PR ")?;
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[test]
fn design_doc_stays_within_its_budget() {
    let bytes = fs::metadata(doc("DESIGN.md")).expect("DESIGN.md exists").len();
    assert!(
        bytes <= DESIGN_MAX_BYTES,
        "DESIGN.md is {bytes} bytes, over its cap of {DESIGN_MAX_BYTES}: cut as much as is added"
    );
}

#[test]
fn each_new_changes_entry_fits_its_cap() {
    let text = fs::read_to_string(doc("CHANGES.md")).expect("CHANGES.md exists");
    let mut capped = 0;
    for line in text.lines() {
        if pr_number(line).is_some_and(|n| n >= FIRST_CAPPED_PR) {
            capped += 1;
            assert!(
                line.len() <= ENTRY_MAX_BYTES,
                "a CHANGES.md entry is {} bytes, over {ENTRY_MAX_BYTES}; move detail to \
                 results/perf/: {}…",
                line.len(),
                &line[..line.char_indices().nth(60).map_or(line.len(), |(i, _)| i)]
            );
        }
    }
    assert!(capped > 0, "no CHANGES.md entry from PR {FIRST_CAPPED_PR} on was checked");
    assert_eq!(pr_number("PR 50: x"), Some(50));
    assert_eq!(pr_number("PR 46 follow-up: x"), Some(46));
    assert_eq!(pr_number("PRs 47–49"), None);
}
