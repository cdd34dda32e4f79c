//! Seeded mutation fuzz of the shared fn-body parser. Every rule reads the
//! one tree per body that `FileCtx::new` builds, so a panic or a hang in
//! the parser would take all of them down. Each round applies a few token
//! edits (delete, duplicate, swap, insert an opener or operator) inside one
//! real fn body of the workspace, then rebuilds the file's context, its
//! symbol graph and its unit dataflow.

use std::path::Path;

use coaxial_lint::rules::FileCtx;
use coaxial_lint::symbols::Workspace;

/// The SplitMix64 step of `coaxial_sim::SplitMix64`, inlined (the state
/// is the seed itself).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        usize::try_from(self.next() % u64::try_from(n.max(1)).unwrap()).unwrap()
    }
}

const INSERTS: &[&str] = &["(", "{", "[", "<", "|", "!", "=>", ";"];

#[test]
fn mutated_bodies_never_panic_the_parser_or_its_readers() {
    let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
    let sources = coaxial_lint::workspace_sources(Path::new(&root)).expect("readable tree");
    let mut rng = SplitMix64(0xC0A_C1A1);
    let mut rounds = 0;
    for (rel, src) in &sources {
        let ctx = FileCtx::new(rel, src);
        let spans: Vec<(usize, usize)> = ctx.bodies.iter().map(|(&o, b)| (o, b.close)).collect();
        let toks: Vec<&str> = ctx.code.iter().map(|t| t.text.as_str()).collect();
        for _ in 0..3 {
            let Some(&(open, close)) = spans.get(rng.below(spans.len())) else { break };
            let mut t = toks.clone();
            for _ in 0..1 + rng.below(3) {
                let j = (open + 1 + rng.below(close - open)).min(t.len() - 1);
                match rng.below(4) {
                    0 => {
                        t.remove(j);
                    }
                    1 => {
                        let dup = t[j];
                        t.insert(j, dup);
                    }
                    2 => {
                        let k = (j + 1).min(t.len() - 1);
                        t.swap(j, k);
                    }
                    _ => t.insert(j, INSERTS[rng.below(INSERTS.len())]),
                }
            }
            let mutated = t.join(" ");
            let ctxs = [FileCtx::new(rel, &mutated)];
            let ws = Workspace::from_ctxs(&ctxs);
            let _ = coaxial_lint::flow::check_units(&ctxs, &ws);
            rounds += 1;
        }
    }
    assert!(rounds > 300, "only {rounds} mutated bodies");
}
