//! Text-table rendering of experiment results, with the gain percentages
//! the paper quotes ("EC-FRM-RS gains 19.2% to 33.9% higher read speed…").

use crate::experiment::{DegradedResult, NormalResult, TailStats};
use ecfrm_obs::json;

/// Percentage by which `new` exceeds `base`.
pub fn gain_pct(new: f64, base: f64) -> f64 {
    assert!(base > 0.0, "gain against non-positive baseline");
    (new / base - 1.0) * 100.0
}

/// The `p`-quantile (`p` in 0.0–1.0) of an ascending-sorted sample, by
/// the rank at or below `p`; 0 for an empty sample. The one percentile
/// every microbench row is reduced with.
pub fn pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * p) as usize]
}

/// Render a Figure-8-style table: one row per parameter set, columns =
/// the three forms' speeds plus EC-FRM gains and the cumulative
/// load-imbalance (max/mean disk load) of the standard vs EC-FRM forms.
pub fn normal_table(title: &str, rows: &[(String, [NormalResult; 3])]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<12} {:>12} {:>12} {:>14} {:>12} {:>12} {:>9} {:>9}\n",
        "params", "standard", "rotated", "EC-FRM", "vs std %", "vs rot %", "imb std", "imb EC"
    ));
    for (label, [std, rot, ec]) in rows {
        out.push_str(&format!(
            "{:<12} {:>12.1} {:>12.1} {:>14.1} {:>+12.1} {:>+12.1} {:>9.3} {:>9.3}\n",
            label,
            std.speed_mb_s,
            rot.speed_mb_s,
            ec.speed_mb_s,
            gain_pct(ec.speed_mb_s, std.speed_mb_s),
            gain_pct(ec.speed_mb_s, rot.speed_mb_s),
            std.tail.load_imbalance,
            ec.tail.load_imbalance,
        ));
    }
    out
}

fn tail_fields(tail: &TailStats) -> Vec<(String, String)> {
    vec![
        ("p50_ms".into(), json::number(tail.p50_ms)),
        ("p95_ms".into(), json::number(tail.p95_ms)),
        ("p99_ms".into(), json::number(tail.p99_ms)),
        ("load_imbalance".into(), json::number(tail.load_imbalance)),
    ]
}

fn row_json(label: &str, schemes: Vec<String>) -> String {
    json::object(&[
        ("params".into(), json::string(label)),
        ("schemes".into(), format!("[{}]", schemes.join(","))),
    ])
}

/// JSON report of a Figure-8-style normal-read run: per parameter set,
/// each form's speed plus tail-latency and load-imbalance columns.
pub fn normal_json(figure: &str, rows: &[(String, [NormalResult; 3])]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|(label, forms)| {
            let schemes = forms
                .iter()
                .map(|r| {
                    let mut fields = vec![
                        ("scheme".into(), json::string(&r.scheme)),
                        ("speed_mb_s".into(), json::number(r.speed_mb_s)),
                        ("mean_max_load".into(), json::number(r.mean_max_load)),
                        (
                            "mean_disks_touched".into(),
                            json::number(r.mean_disks_touched),
                        ),
                    ];
                    fields.extend(tail_fields(&r.tail));
                    json::object(&fields)
                })
                .collect();
            row_json(label, schemes)
        })
        .collect();
    json::object(&[
        ("figure".into(), json::string(figure)),
        ("rows".into(), format!("[{}]", rows.join(","))),
    ])
}

/// JSON report of a Figure-9-style degraded-read run.
pub fn degraded_json(figure: &str, rows: &[(String, [DegradedResult; 3])]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|(label, forms)| {
            let schemes = forms
                .iter()
                .map(|r| {
                    let mut fields = vec![
                        ("scheme".into(), json::string(&r.scheme)),
                        ("speed_mb_s".into(), json::number(r.speed_mb_s)),
                        ("cost".into(), json::number(r.cost)),
                        ("mean_max_load".into(), json::number(r.mean_max_load)),
                    ];
                    fields.extend(tail_fields(&r.tail));
                    json::object(&fields)
                })
                .collect();
            row_json(label, schemes)
        })
        .collect();
    json::object(&[
        ("figure".into(), json::string(figure)),
        ("rows".into(), format!("[{}]", rows.join(","))),
    ])
}

/// Render a Figure-9(c)/(d)-style degraded-speed table.
pub fn degraded_speed_table(title: &str, rows: &[(String, [DegradedResult; 3])]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<12} {:>12} {:>12} {:>14} {:>12} {:>12}\n",
        "params", "standard", "rotated", "EC-FRM", "vs std %", "vs rot %"
    ));
    for (label, [std, rot, ec]) in rows {
        out.push_str(&format!(
            "{:<12} {:>12.1} {:>12.1} {:>14.1} {:>+12.1} {:>+12.1}\n",
            label,
            std.speed_mb_s,
            rot.speed_mb_s,
            ec.speed_mb_s,
            gain_pct(ec.speed_mb_s, std.speed_mb_s),
            gain_pct(ec.speed_mb_s, rot.speed_mb_s),
        ));
    }
    out
}

/// Render a Figure-9(a)/(b)-style degraded-cost table.
pub fn degraded_cost_table(title: &str, rows: &[(String, [DegradedResult; 3])]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<12} {:>12} {:>12} {:>14} {:>14}\n",
        "params", "standard", "rotated", "EC-FRM", "spread %"
    ));
    for (label, [std, rot, ec]) in rows {
        let max = std.cost.max(rot.cost).max(ec.cost);
        let min = std.cost.min(rot.cost).min(ec.cost);
        out.push_str(&format!(
            "{:<12} {:>12.4} {:>12.4} {:>14.4} {:>14.2}\n",
            label,
            std.cost,
            rot.cost,
            ec.cost,
            (max / min - 1.0) * 100.0,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tail() -> TailStats {
        TailStats {
            p50_ms: 10.0,
            p95_ms: 20.0,
            p99_ms: 30.0,
            load_imbalance: 1.25,
        }
    }

    fn nr(name: &str, speed: f64) -> NormalResult {
        NormalResult {
            scheme: name.into(),
            speed_mb_s: speed,
            mean_max_load: 1.0,
            mean_disks_touched: 5.0,
            tail: tail(),
        }
    }

    fn dr(name: &str, speed: f64, cost: f64) -> DegradedResult {
        DegradedResult {
            scheme: name.into(),
            speed_mb_s: speed,
            cost,
            mean_max_load: 1.0,
            tail: tail(),
        }
    }

    #[test]
    fn gain_math() {
        assert!((gain_pct(120.0, 100.0) - 20.0).abs() < 1e-12);
        assert!((gain_pct(90.0, 100.0) + 10.0).abs() < 1e-12);
    }

    #[test]
    fn pct_is_the_rank_at_or_below() {
        assert_eq!(pct(&[], 0.99), 0);
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(pct(&sample, 0.0), 1);
        assert_eq!(pct(&sample, 0.50), 50);
        assert_eq!(pct(&sample, 0.99), 99);
        assert_eq!(pct(&sample, 1.0), 100);
    }

    #[test]
    fn tables_render_all_rows() {
        let rows = vec![
            (
                "(6,3)".to_string(),
                [nr("RS", 100.0), nr("R-RS", 110.0), nr("EC", 130.0)],
            ),
            (
                "(8,4)".to_string(),
                [nr("RS", 90.0), nr("R-RS", 95.0), nr("EC", 120.0)],
            ),
        ];
        let t = normal_table("Fig 8(a)", &rows);
        assert!(t.contains("(6,3)"));
        assert!(t.contains("(8,4)"));
        assert!(t.contains("+30.0"));

        let drows = vec![(
            "(6,2,2)".to_string(),
            [
                dr("LRC", 80.0, 1.10),
                dr("R-LRC", 85.0, 1.11),
                dr("EC", 90.0, 1.105),
            ],
        )];
        assert!(degraded_speed_table("Fig 9(d)", &drows).contains("(6,2,2)"));
        assert!(degraded_cost_table("Fig 9(b)", &drows).contains("1.1000"));
    }

    #[test]
    fn json_reports_carry_tail_and_imbalance_columns() {
        let rows = vec![(
            "(6,3)".to_string(),
            [nr("RS", 100.0), nr("R-RS", 110.0), nr("EC", 130.0)],
        )];
        let j = normal_json("fig8a", &rows);
        for key in [
            "\"figure\":\"fig8a\"",
            "\"params\":\"(6,3)\"",
            "\"speed_mb_s\":100",
            "\"p50_ms\":10",
            "\"p99_ms\":30",
            "\"load_imbalance\":1.25",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }

        let drows = vec![(
            "(6,2,2)".to_string(),
            [
                dr("LRC", 80.0, 1.10),
                dr("R-LRC", 85.0, 1.11),
                dr("EC", 90.0, 1.105),
            ],
        )];
        let j = degraded_json("fig9b", &drows);
        assert!(j.contains("\"cost\":1.10"));
        assert!(j.contains("\"p95_ms\":20"));
    }

    #[test]
    #[should_panic]
    fn gain_against_zero_panics() {
        gain_pct(1.0, 0.0);
    }
}
