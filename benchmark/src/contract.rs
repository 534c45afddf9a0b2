//! `BENCHMARK.json`, compiled in: the one place metric names, units,
//! directions and bounds are declared. The harness reads its units from
//! here and refuses to print a result that does not cover every declared
//! metric, so the file and the program cannot drift apart.

use crate::json::J;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Contract {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

impl Contract {
    pub fn load() -> Contract {
        Contract::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json is well formed")
    }

    fn parse(text: &str) -> Result<Contract, String> {
        let root = J::parse(text)?;
        let list = |key: &str| {
            root.get(key)
                .and_then(J::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: missing list `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDecl>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(J::as_str)
                            .ok_or_else(|| format!("BENCHMARK.json: {key} entry without `{f}`"))
                    };
                    Ok(MetricDecl {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                        higher_is_better: field("better")? == "higher",
                        bound: m.get("bound").and_then(J::as_f64),
                    })
                })
                .collect()
        };
        Ok(Contract {
            run_seconds: root
                .get("run_seconds")
                .and_then(J::as_f64)
                .ok_or("BENCHMARK.json: missing run_seconds")?,
            workloads: list("workloads")?
                .iter()
                .filter_map(|w| w.get("name").and_then(J::as_str).map(str::to_string))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The metrics a run with `--trace trace` must print.
    pub fn declared(&self, trace: bool) -> &[MetricDecl] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    pub fn find(&self, name: &str) -> Option<&MetricDecl> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_contract_is_within_its_own_limits() {
        let c = Contract::load();
        assert_eq!(
            c.workloads,
            [
                "paper_matrix",
                "contended32",
                "scale_xl",
                "serve_warm",
                "serve_cold"
            ]
        );
        assert!((1.0..=60.0).contains(&c.run_seconds));
        assert!((1..=16).contains(&c.end_to_end.len()));
        assert!((1..=128).contains(&c.per_layer.len()));
        let setup = c.find("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let mut names: Vec<&str> = c
            .end_to_end
            .iter()
            .chain(&c.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        for m in &c.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!((0.0..=0.25).contains(&bound), "{}", m.name);
            assert!(
                bound <= setup.bound.unwrap(),
                "setup_s has the largest bound"
            );
        }
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names are used once");
    }
}
