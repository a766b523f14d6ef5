//! `compare A.jsonl [B.jsonl]`: judges two sets of untraced runs (files
//! written with `--out`) metric by metric, workload by workload.
//!
//! For each pairing it prints both medians, each set's spread (the
//! distance between its quartiles as a share of its median), the bound
//! fixed for the metric, and a verdict: `worse` or `better` when the
//! medians differ by more than the bound, `same` when they do not, and
//! `unresolved` when either set's spread is wider than the bound — then
//! the runs cannot tell. With one file it prints medians and spreads only.

use std::collections::BTreeMap;
use std::process::ExitCode;

use sparseinfer::json::Json;
use sparseinfer_benchmark::report::{Better, Decl, END_TO_END};
use sparseinfer_benchmark::stats::{median, quartile_spread};

/// workload → metric → the values of every run in the file.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        if doc.get("trace").and_then(Json::as_u64) != Some(0) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", n + 1))?;
        let Some(Json::Object(metrics)) = doc.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("{path}:{}: no metrics", n + 1));
        };
        let of_workload = runs.entry(workload.to_string()).or_default();
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                of_workload.entry(name.clone()).or_default().push(value);
            }
        }
    }
    Ok(runs)
}

fn spread(values: &[f64]) -> Option<f64> {
    (values.len() >= 2).then(|| quartile_spread(values))
}

fn show(spread: Option<f64>) -> String {
    spread.map_or_else(|| "   n/a".to_string(), |s| format!("{s:6.3}"))
}

/// How much worse `b` is than `a`, as a share of `a`; negative is better.
fn worsening(decl: &Decl, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match decl.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

fn verdict(decl: &Decl, a: &[f64], b: &[f64]) -> &'static str {
    let wide = |v: &[f64]| spread(v).is_some_and(|s| s > decl.bound);
    // Set-up time is judged on its medians alone: it is short, so its
    // spread is wide, and it is given the largest bound instead.
    if decl.name != "setup_s" && (wide(a) || wide(b)) {
        return "unresolved";
    }
    let change = worsening(decl, median(a), median(b));
    if change > decl.bound {
        "worse"
    } else if change < -decl.bound {
        "better"
    } else {
        "same"
    }
}

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() || paths.len() > 2 {
        eprintln!("usage: compare A.jsonl [B.jsonl]");
        return ExitCode::from(2);
    }
    let sets: Vec<Runs> = match paths.iter().map(|p| load(p)).collect() {
        Ok(sets) => sets,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(1);
        }
    };
    let none = Vec::new();
    let mut regressed = false;
    for (workload, a_metrics) in &sets[0] {
        println!("{workload}");
        for decl in END_TO_END {
            let a = a_metrics.get(decl.name).unwrap_or(&none);
            if a.is_empty() {
                continue;
            }
            let head = format!(
                "  {:<24} {:>12.4} {:<5} n={:<2} spread {}",
                decl.name,
                median(a),
                decl.unit,
                a.len(),
                show(spread(a))
            );
            let Some(b_set) = sets.get(1) else {
                println!("{head}  bound {:.2}", decl.bound);
                continue;
            };
            let b = b_set
                .get(workload)
                .and_then(|m| m.get(decl.name))
                .unwrap_or(&none);
            if b.is_empty() {
                println!("{head}  | missing in {}", paths[1]);
                continue;
            }
            let verdict = verdict(decl, a, b);
            regressed |= verdict == "worse";
            println!(
                "{head}  | {:>12.4} n={:<2} spread {}  change {:+.3}  bound {:.2}  {verdict}",
                median(b),
                b.len(),
                show(spread(b)),
                worsening(decl, median(a), median(b)),
                decl.bound
            );
        }
    }
    if regressed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(name: &'static str, better: Better) -> Decl {
        Decl {
            name,
            unit: "ms",
            better,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = decl("ttft_ms_p50", Better::Lower);
        let steady = [100.0, 101.0, 99.0, 100.0];
        assert_eq!(
            verdict(&lower, &steady, &[104.0, 105.0, 103.0, 104.0]),
            "same"
        );
        assert_eq!(
            verdict(&lower, &steady, &[120.0, 121.0, 119.0, 120.0]),
            "worse"
        );
        assert_eq!(
            verdict(&lower, &steady, &[80.0, 81.0, 79.0, 80.0]),
            "better"
        );
        // A set whose own runs disagree by more than the bound settles nothing.
        assert_eq!(
            verdict(&lower, &steady, &[80.0, 120.0, 100.0, 140.0]),
            "unresolved"
        );
        let higher = decl("tokens_per_s", Better::Higher);
        assert_eq!(
            verdict(&higher, &steady, &[80.0, 81.0, 79.0, 80.0]),
            "worse"
        );
        assert_eq!(
            verdict(&higher, &steady, &[120.0, 121.0, 119.0, 120.0]),
            "better"
        );
        // A single run per set has no spread to object to.
        assert_eq!(verdict(&lower, &[100.0], &[150.0]), "worse");
    }
}
