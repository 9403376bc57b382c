//! Every citation of a section of DESIGN.md or EXPERIMENTS.md names a
//! section that exists: a heading or a bold paragraph lead of the cited
//! file. A citation is the file name followed by a quoted title,
//! optionally after a section sign; a section sign followed by a number
//! is refused, because numbers move whenever the file is reorganised.
//! The check reads `crates/`, `src/`, `tests/`, `README.md`,
//! `.claude/skills/` and the two documents themselves, so a renamed
//! section fails here instead of leaving a citation that leads nowhere.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The documents whose sections are cited.
const CITED: [&str; 2] = ["DESIGN", "EXPERIMENTS"];

/// The trees and files whose citations are checked, besides the cited
/// documents themselves.
const SOURCES: [&str; 5] = ["crates", "src", "tests", "README.md", ".claude/skills"];

/// Backticks dropped and every run of whitespace one space, so a title
/// matches however it is wrapped or marked up.
fn normalize(s: &str) -> String {
    s.replace('`', "")
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
}

/// The titles a document offers: its headings, and the bold text that
/// opens a paragraph, a list item or a table row, without its closing
/// period or colon.
fn anchors(doc: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for line in doc.lines() {
        let line = line.trim();
        if line.starts_with('#') {
            out.insert(normalize(line.trim_start_matches('#')));
            continue;
        }
        let mut lead = line.trim_start_matches('|').trim_start();
        for marker in ["* ", "- "] {
            lead = lead.strip_prefix(marker).unwrap_or(lead).trim_start();
        }
        let digits = lead.len() - lead.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        if digits > 0 {
            lead = lead[digits..]
                .strip_prefix(". ")
                .unwrap_or(lead)
                .trim_start();
        }
        if let Some(bold) = lead.strip_prefix("**") {
            if let Some(end) = bold.find("**") {
                let title = normalize(&bold[..end]);
                out.insert(title.trim_end_matches(['.', ':']).to_string());
            }
        }
    }
    out
}

/// The text with every line's indentation and leading comment marker
/// removed and whitespace collapsed, so a citation wrapped across
/// comment lines reads as one.
fn prose(text: &str) -> String {
    let lines = text.lines().map(|l| {
        let l = l.trim_start();
        ["//!", "///", "//"]
            .iter()
            .find_map(|m| l.strip_prefix(m))
            .unwrap_or(l)
    });
    normalize(&lines.collect::<Vec<_>>().join("\n"))
}

/// A citation found in a source.
#[derive(Debug, PartialEq)]
enum Citation {
    /// `NAME.md "title"` or `NAME.md §"title"`.
    Title(String),
    /// `NAME.md §N`: a number, not a title.
    Numeric(String),
}

/// The citations of `NAME.md` in `text`.
fn citations(text: &str, name: &str) -> Vec<Citation> {
    let text = prose(text);
    let needle = format!("{name}.md");
    let mut out = Vec::new();
    let mut rest = text.as_str();
    while let Some(at) = rest.find(&needle) {
        rest = &rest[at + needle.len()..];
        let after = rest.trim_start();
        let (section, after) = match after.strip_prefix('§') {
            Some(a) => (true, a.trim_start()),
            None => (false, after),
        };
        if let Some(quoted) = after.strip_prefix('"') {
            if let Some(end) = quoted.find('"') {
                out.push(Citation::Title(normalize(&quoted[..end])));
            }
        } else if section {
            let n: String = after
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.')
                .collect();
            out.push(Citation::Numeric(format!("§{n}")));
        }
    }
    out
}

fn files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        let mut entries: Vec<_> = std::fs::read_dir(path)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
            .map(|e| e.expect("directory entry").path())
            .collect();
        entries.sort();
        for entry in entries {
            files(&entry, out);
        }
    } else if path.extension().is_some_and(|x| x == "rs" || x == "md") {
        out.push(path.to_path_buf());
    }
}

#[test]
fn every_document_citation_names_an_existing_section() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let offered: Vec<(&str, BTreeSet<String>)> = CITED
        .iter()
        .map(|name| {
            let doc = std::fs::read_to_string(root.join(format!("{name}.md")))
                .unwrap_or_else(|e| panic!("{name}.md: {e}"));
            (*name, anchors(&doc))
        })
        .collect();
    let mut sources = Vec::new();
    for source in SOURCES {
        files(&root.join(source), &mut sources);
    }
    sources.extend(CITED.iter().map(|name| root.join(format!("{name}.md"))));
    let mut checked = 0;
    let mut broken = Vec::new();
    for path in &sources {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let shown = path.strip_prefix(root).unwrap_or(path).display();
        for (name, titles) in &offered {
            for citation in citations(&text, name) {
                checked += 1;
                match citation {
                    Citation::Title(t) if titles.contains(&t) => {}
                    Citation::Title(t) => broken.push(format!(
                        "{shown}: {name}.md \"{t}\" is no heading or bold lead of {name}.md"
                    )),
                    Citation::Numeric(n) => broken.push(format!(
                        "{shown}: {name}.md {n} cites a number; cite the section title"
                    )),
                }
            }
        }
    }
    assert!(
        broken.is_empty(),
        "{} broken citation(s):\n{}",
        broken.len(),
        broken.join("\n")
    );
    assert!(
        checked >= 20,
        "only {checked} citations found; is the scan blind?"
    );
}

#[test]
fn titles_numbers_and_wrapped_comments_are_recognized() {
    let doc = "# Top\n\n## Engine\n\n**One step.** The loop.\n\n\
               * **Listed lead:** text\n| **Row label (PR 9)** | x |\n\
               Plain **bold** inside text.\n";
    let offered = anchors(doc);
    for title in [
        "Top",
        "Engine",
        "One step",
        "Listed lead",
        "Row label (PR 9)",
    ] {
        assert!(offered.contains(title), "{title} missing from {offered:?}");
    }
    assert!(!offered.contains("bold"), "{offered:?}");

    let text = "see NOTES.md \"One\n    /// step\" and NOTES.md §\"Engine\",\n\
                NOTES.md §4, NOTES.md §12.3 and a plain NOTES.md mention";
    assert_eq!(
        citations(text, "NOTES"),
        vec![
            Citation::Title("One step".into()),
            Citation::Title("Engine".into()),
            Citation::Numeric("§4".into()),
            Citation::Numeric("§12.3".into()),
        ]
    );
}
