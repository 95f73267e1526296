//! `e2e aa`: do two sets of runs of the same code agree?
//!
//! Every workload is run `2 × runs` times as child processes of this
//! binary, the two sets alternating (A, B, A, B, …) so that slow drift
//! of the host lands on both, each run with its own seed. Per metric it
//! prints both set medians, their relative difference and each set's
//! spread (interquartile range over median), and fails when a
//! difference — or, `setup_s` aside, a spread — exceeds the metric's
//! bound: the same two checks a change to the program is later held to.

use std::collections::BTreeMap;
use std::process::Command;

use crate::metrics::END_TO_END;
use crate::stats::{median, rel_iqr};
use crate::workload::SPECS;

/// Metric values of one finished child run, if its result line parses
/// and says `correct`.
fn parse_result(stdout: &str) -> Option<BTreeMap<String, f64>> {
    let line = stdout.lines().last()?;
    if !line.starts_with("{\"correct\": true") {
        return None;
    }
    let mut out = BTreeMap::new();
    for m in END_TO_END {
        let key = format!("\"{}\": {{\"value\": ", m.name);
        let rest = &line[line.find(&key)? + key.len()..];
        let end = rest.find(',')?;
        out.insert(m.name.to_string(), rest[..end].trim().parse().ok()?);
    }
    Some(out)
}

/// Run the A/A check; returns whether every metric agreed.
pub fn run(runs: usize, seconds: f64) -> bool {
    let exe = std::env::current_exe().expect("own path");
    // values[workload][set][metric] = one value per run
    let mut values: BTreeMap<&str, [BTreeMap<String, Vec<f64>>; 2]> = BTreeMap::new();
    let mut seed = 1000u64;
    for i in 0..runs {
        for spec in &SPECS {
            for set in 0..2 {
                seed += 1;
                eprintln!(
                    "aa: run {}/{runs} set {} {} seed {seed}",
                    i + 1,
                    ["A", "B"][set],
                    spec.name
                );
                let out = Command::new(&exe)
                    .args(["run", spec.name, "--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .output()
                    .expect("spawn child run");
                let Some(result) = parse_result(&String::from_utf8_lossy(&out.stdout)) else {
                    eprintln!("aa: {} seed {seed} was not a correct run", spec.name);
                    return false;
                };
                let sets = values.entry(spec.name).or_default();
                for (k, v) in result {
                    sets[set].entry(k).or_default().push(v);
                }
            }
        }
    }
    let mut agreed = true;
    println!(
        "{:<14} {:<30} {:>12} {:>12} {:>8} {:>8} {:>8} {:>7}",
        "workload", "metric", "median A", "median B", "diff", "IQR A", "IQR B", "bound"
    );
    for (workload, sets) in &values {
        for m in END_TO_END {
            let (a, b) = (&sets[0][m.name], &sets[1][m.name]);
            let (ma, mb) = (median(a), median(b));
            let diff = (mb - ma).abs() / ma.abs().max(f64::MIN_POSITIVE);
            let (sa, sb) = (rel_iqr(a), rel_iqr(b));
            let spread_matters = m.name != "setup_s" && runs >= 4;
            let ok = diff <= m.bound && !(spread_matters && sa.max(sb) > m.bound);
            agreed &= ok;
            println!(
                "{workload:<14} {:<30} {ma:>12.4} {mb:>12.4} {:>7.2}% {:>7.2}% {:>7.2}% {:>6.1}% {}",
                m.name,
                diff * 100.0,
                sa * 100.0,
                sb * 100.0,
                m.bound * 100.0,
                if ok { "" } else { "FAIL" }
            );
        }
    }
    agreed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_parse_and_incorrect_runs_do_not() {
        let fields: Vec<String> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| {
                format!(
                    "\"{}\": {{\"value\": {}.5, \"unit\": \"{}\"}}",
                    m.name, i, m.unit
                )
            })
            .collect();
        let line = format!(
            "noise\n{{\"correct\": true, \"attempted\": 9, \"failed\": 0, \"metrics\": {{{}}}}}",
            fields.join(", ")
        );
        let parsed = parse_result(&line).expect("parses");
        assert_eq!(parsed.len(), END_TO_END.len());
        assert_eq!(parsed[END_TO_END[2].name], 2.5);
        assert!(parse_result(&line.replace("true", "false")).is_none());
        assert!(parse_result("").is_none());
    }
}
