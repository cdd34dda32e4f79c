//! Golden digest files shared by the differential suites and, through a
//! `#[path]` module, the `coaxial` CLI tests.
//!
//! Each file under the including package's `tests/` holds one
//! `<name> <digest>` line per pinned run, written by an `#[ignore]`d
//! regenerator at a commit whose outputs are known good. A run whose FNV-1a-128 digest differs from its line
//! fails with both digests and the one command that rewrites the file; an
//! intended model change regenerates the file and says why.

use std::collections::BTreeMap;

use coaxial_sim::KeyHasher;

fn path(file: &str) -> String {
    format!("{}/tests/{file}", env!("CARGO_MANIFEST_DIR"))
}

/// FNV-1a-128 of `parts` under `domain`, as 32 hex digits.
pub fn digest<'a>(domain: &str, parts: impl IntoIterator<Item = &'a str>) -> String {
    let mut h = KeyHasher::new(domain);
    for part in parts {
        h.write_str(part);
    }
    format!("{:032x}", h.finish())
}

/// A golden file and the mismatches found against it so far.
pub struct Golden {
    file: &'static str,
    regenerate: String,
    want: BTreeMap<String, String>,
    mismatches: Vec<String>,
}

impl Golden {
    /// Read `tests/<file>`, which `regenerator` in the test target `test`
    /// rewrites.
    pub fn load(file: &'static str, test: &str, regenerator: &str) -> Self {
        let want = std::fs::read_to_string(path(file))
            .unwrap_or_default()
            .lines()
            .filter_map(|l| l.rsplit_once(' '))
            .map(|(name, d)| (name.to_string(), d.to_string()))
            .collect();
        let regenerate = format!(
            "cargo test -p {} --test {test} -- --ignored {regenerator}",
            env!("CARGO_PKG_NAME")
        );
        Self { file, regenerate, want, mismatches: Vec::new() }
    }

    /// Compare the digest of run `name`, described as `label`, with its line.
    pub fn check(&mut self, name: &str, label: &str, got: &str) {
        let want = self.want.get(name).map_or("(none)", String::as_str);
        if want != got {
            self.mismatches.push(format!("{label}: golden {want}, this run {got}"));
        }
    }

    /// Fail with every mismatch and the command that regenerates the file.
    pub fn assert_clean(&self) {
        assert!(
            self.mismatches.is_empty(),
            "outputs moved against tests/{}:\n{}\nif intended, regenerate it with\n  {}",
            self.file,
            self.mismatches.join("\n"),
            self.regenerate
        );
    }
}

/// Rewrite `tests/<file>` with one `<name> <digest>` line per run.
pub fn write(file: &str, runs: impl IntoIterator<Item = (String, String)>) {
    let lines: String = runs.into_iter().map(|(name, d)| format!("{name} {d}\n")).collect();
    std::fs::write(path(file), lines).expect("write the golden digests");
}
