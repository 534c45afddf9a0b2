//! Committed output digests (`benchmark/golden/`).
//!
//! * `paper_matrix.sha256` — sha256 of the 24 artefacts `retcon-lab all`
//!   writes, in `sha256sum -c` format. This is the "24-file manifest"
//!   the ROADMAP's byte-identity gate refers to.
//! * `contended32.hash128`, `scale_xl.hash128` — `content_hash128` of
//!   every report's compact JSON at the default seed.
//!
//! The files are compiled in, so a run never depends on the working
//! directory; `bless` rewrites them and is never run implicitly.

use std::collections::BTreeMap;

/// The seed whose outputs the golden files pin.
pub const DEFAULT_SEED: u64 = 42;

/// `label → digest`, parsed from `<digest>  <label>` lines.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Golden(BTreeMap<String, String>);

impl Golden {
    pub fn parse(text: &str) -> Golden {
        Golden(
            text.lines()
                .filter_map(|line| {
                    let (digest, label) = line.split_once("  ")?;
                    Some((label.trim().to_string(), digest.trim().to_string()))
                })
                .collect(),
        )
    }

    pub fn for_workload(workload: &str) -> Golden {
        Golden::parse(match workload {
            "paper_matrix" => include_str!("../golden/paper_matrix.sha256"),
            "contended32" => include_str!("../golden/contended32.hash128"),
            "scale_xl" => include_str!("../golden/scale_xl.hash128"),
            _ => "",
        })
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Compares one pass's digests against the golden set: every label
    /// must be present on both sides with an equal digest. Returns one
    /// message per disagreement.
    pub fn mismatches(&self, digests: &[(String, String)]) -> Vec<String> {
        let mut out = Vec::new();
        for (label, digest) in digests {
            match self.0.get(label) {
                Some(want) if want == digest => {}
                Some(want) => out.push(format!("{label}: digest {digest}, golden {want}")),
                None => out.push(format!("{label}: not in the golden set (run `bless`?)")),
            }
        }
        for label in self.0.keys() {
            if !digests.iter().any(|(l, _)| l == label) {
                out.push(format!("{label}: in the golden set but not produced"));
            }
        }
        out
    }
}

/// The golden file text for a pass's digests.
pub fn render(digests: &[(String, String)]) -> String {
    digests
        .iter()
        .map(|(label, digest)| format!("{digest}  {label}\n"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_round_trip_and_mismatch_reporting() {
        let digests = vec![
            ("fig9.json".to_string(), "aa".to_string()),
            ("fig9.csv".to_string(), "bb".to_string()),
        ];
        let golden = Golden::parse(&render(&digests));
        assert_eq!(golden.len(), 2);
        assert!(golden.mismatches(&digests).is_empty());
        let mut changed = digests.clone();
        changed[0].1 = "cc".to_string();
        changed.push(("new.json".to_string(), "dd".to_string()));
        changed.remove(1);
        let report = golden.mismatches(&changed);
        assert_eq!(report.len(), 3, "{report:?}");
    }

    #[test]
    fn committed_golden_sets_have_the_expected_sizes() {
        assert_eq!(Golden::for_workload("paper_matrix").len(), 24);
        assert_eq!(Golden::for_workload("contended32").len(), 7);
        assert_eq!(Golden::for_workload("scale_xl").len(), 6);
    }
}
