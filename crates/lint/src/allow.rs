//! The `lint-allow.toml` suppression list.
//!
//! Every suppression is explicit and carries a reason — the point of the
//! file is that `git log -p lint-allow.toml` reads as a review trail of
//! every exception ever granted to the determinism/timing/telemetry
//! contracts. Format (parsed by hand; the build is offline so there is no
//! `toml` crate):
//!
//! ```toml
//! [[allow]]
//! lint = "C01"                      # required: a catalog lint ID
//! path = "crates/cxl/src/config.rs" # required: repo-relative path
//! ident = "name"                    # optional: anchor identifier
//! reason = "report-only label, not a link parameter the pipeline enforces"
//! ```
//!
//! `path` must match the finding's path exactly, or — when it ends with
//! `/*` — be a directory prefix. `ident`, when present, must equal the
//! finding's anchor identifier. Entries that match no finding are *stale*
//! and fail the lint pass: suppressions must never outlive the code they
//! excuse.

use crate::Finding;

/// One parsed `[[allow]]` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    pub lint: String,
    pub path: String,
    pub ident: Option<String>,
    pub reason: String,
    /// 1-based line of the `[[allow]]` header (for error messages).
    pub line: u32,
}

impl AllowEntry {
    pub fn matches(&self, f: &Finding) -> bool {
        if self.lint != f.id {
            return false;
        }
        let path_ok = if let Some(prefix) = self.path.strip_suffix("/*") {
            f.path.starts_with(prefix)
        } else {
            self.path == f.path
        };
        path_ok && self.ident.as_ref().is_none_or(|i| *i == f.ident)
    }
}

/// Parse the suppression file. Errors on: unknown keys, missing `lint`/
/// `path`/`reason`, an empty or placeholder reason, or an unknown lint ID —
/// a malformed suppression must fail loudly, not silently suppress nothing.
pub fn parse(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries: Vec<AllowEntry> = Vec::new();
    let mut current: Option<AllowEntry> = None;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = u32::try_from(idx).unwrap_or(u32::MAX) + 1;
        let line = raw.split_once('#').map_or(raw, |(before, _)| before).trim();
        if line.is_empty() {
            continue;
        }
        if line == "[[allow]]" {
            if let Some(e) = current.take() {
                finish(&mut entries, e)?;
            }
            current = Some(AllowEntry {
                lint: String::new(),
                path: String::new(),
                ident: None,
                reason: String::new(),
                line: lineno,
            });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("line {lineno}: expected `key = \"value\"`, got `{line}`"));
        };
        let entry = current.as_mut().ok_or_else(|| {
            format!("line {lineno}: `{}` outside any [[allow]] entry", key.trim())
        })?;
        let value = unquote(value.trim())
            .ok_or_else(|| format!("line {lineno}: value must be a double-quoted string"))?;
        match key.trim() {
            "lint" => entry.lint = value,
            "path" => entry.path = value,
            "ident" => entry.ident = Some(value),
            "reason" => entry.reason = value,
            other => return Err(format!("line {lineno}: unknown key `{other}`")),
        }
    }
    if let Some(e) = current.take() {
        finish(&mut entries, e)?;
    }
    Ok(entries)
}

fn finish(entries: &mut Vec<AllowEntry>, e: AllowEntry) -> Result<(), String> {
    let at = format!("[[allow]] at line {}", e.line);
    if e.lint.is_empty() {
        return Err(format!("{at}: missing `lint`"));
    }
    if crate::catalog_entry(&e.lint).is_none() {
        return Err(format!("{at}: unknown lint ID `{}`", e.lint));
    }
    if e.path.is_empty() {
        return Err(format!("{at}: missing `path`"));
    }
    // A suppression without a real reason is indistinguishable from a
    // rubber stamp; require a sentence, not a token.
    if e.reason.trim().len() < 10 {
        return Err(format!("{at}: missing or too-short `reason` (say *why* this is sound)"));
    }
    entries.push(e);
    Ok(())
}

fn unquote(s: &str) -> Option<String> {
    let inner = s.strip_prefix('"')?.strip_suffix('"')?;
    if inner.contains('"') {
        return None;
    }
    Some(inner.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
# trailing comments are fine
[[allow]]
lint = "C01"  # report label
path = "crates/cxl/src/config.rs"
ident = "name"
reason = "report-only label, not a link parameter the pipeline enforces"
"#;

    #[test]
    fn parses_a_valid_entry() {
        let es = parse(GOOD).unwrap();
        assert_eq!(es.len(), 1);
        assert_eq!(es[0].lint, "C01");
        assert_eq!(es[0].ident.as_deref(), Some("name"));
    }

    #[test]
    fn missing_reason_is_rejected() {
        let bad = "[[allow]]\nlint = \"E01\"\npath = \"x.rs\"\n";
        let err = parse(bad).unwrap_err();
        assert!(err.contains("reason"), "{err}");
    }

    #[test]
    fn short_reason_is_rejected() {
        let bad = "[[allow]]\nlint = \"E01\"\npath = \"x.rs\"\nreason = \"ok\"\n";
        assert!(parse(bad).unwrap_err().contains("reason"));
    }

    #[test]
    fn unknown_lint_id_is_rejected() {
        let bad = "[[allow]]\nlint = \"D99\"\npath = \"x.rs\"\nreason = \"long enough reason\"\n";
        assert!(parse(bad).unwrap_err().contains("unknown lint ID"));
    }

    #[test]
    fn unknown_key_is_rejected() {
        let bad = "[[allow]]\nlint = \"E01\"\npath = \"x.rs\"\nreasn = \"typo key here\"\n";
        assert!(parse(bad).unwrap_err().contains("unknown key"));
    }

    #[test]
    fn prefix_and_ident_matching() {
        let e = AllowEntry {
            lint: "E01".into(),
            path: "crates/sim/*".into(),
            ident: Some("map".into()),
            reason: "r".into(),
            line: 1,
        };
        let f = Finding {
            id: "E01",
            path: "crates/sim/src/lru.rs".into(),
            line: 10,
            ident: "map".into(),
            message: String::new(),
        };
        assert!(e.matches(&f));
        assert!(!e.matches(&Finding { ident: "other".into(), ..f.clone() }));
        assert!(!e.matches(&Finding { id: "E02", ..f }));
    }
}
