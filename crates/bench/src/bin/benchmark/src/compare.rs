//! `benchmark compare a.json b.json`: holds two `result.json` files against
//! the bounds of `BENCHMARK.json`, one row per (workload, metric).

use crate::json::Json;
use std::collections::BTreeMap;

/// The verdict on one (workload, end-to-end metric) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Same,
    /// Better than the bound.
    Better,
    /// Worse than the bound: a regression.
    Worse,
    /// A run's own spread exceeds the bound, so a difference of that size
    /// cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One end-to-end metric of one run: its value and the run's own relative
/// spread of it (MAD ÷ median over slices or set-ups).
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub value: f64,
    pub spread: f64,
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    let change = (b - a) / a.abs();
    if lower_is_better {
        change
    } else {
        -change
    }
}

pub fn verdict(a: Sample, b: Sample, bound: f64, lower_is_better: bool) -> Verdict {
    if a.spread.max(b.spread) > bound {
        return Verdict::Unresolved;
    }
    let w = worsening(a.value, b.value, lower_is_better);
    if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The bound and direction of each end-to-end metric in `BENCHMARK.json`.
pub fn bounds(contract: &Json) -> Result<BTreeMap<String, (f64, bool)>, String> {
    let list = contract
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut out = BTreeMap::new();
    for m in list {
        let name = m
            .get("name")
            .and_then(Json::as_str)
            .ok_or("metric without a name")?;
        let bound = m
            .get("bound")
            .and_then(Json::as_f64)
            .ok_or("metric without a bound")?;
        let lower = m.get("better").and_then(Json::as_str) == Some("lower");
        out.insert(name.to_string(), (bound, lower));
    }
    Ok(out)
}

fn failed_share(workload: &Json) -> f64 {
    let ops = |k: &str| {
        workload
            .get("ops")
            .and_then(|o| o.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    ops("failed") / ops("attempted").max(1.0)
}

fn sample(workload: &Json, metric: &str) -> Option<Sample> {
    let m = workload.get("end_to_end")?.get(metric)?;
    Some(Sample {
        value: m.get("value")?.as_f64()?,
        spread: m.get("spread").and_then(Json::as_f64).unwrap_or(0.0),
    })
}

/// Prints the comparison and returns whether it passed: no `worse` row, no
/// rise in `failed_share`, no incorrect run.
pub fn compare(a: &Json, b: &Json, contract: &Json) -> Result<bool, String> {
    let bounds = bounds(contract)?;
    let workloads = |r: &'_ Json| -> Result<BTreeMap<String, Json>, String> {
        r.get("workloads")
            .and_then(Json::as_obj)
            .cloned()
            .ok_or_else(|| "result file has no workloads".to_string())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut pass = true;
    println!(
        "{:<13} {:<12} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "a", "b", "change", "bound"
    );
    for (name, ra) in &wa {
        let Some(rb) = wb.get(name) else {
            println!("{name:<13} missing from b");
            pass = false;
            continue;
        };
        for (metric, &(bound, lower)) in &bounds {
            let (Some(sa), Some(sb)) = (sample(ra, metric), sample(rb, metric)) else {
                println!("{name:<13} {metric:<12} missing");
                pass = false;
                continue;
            };
            let v = verdict(sa, sb, bound, lower);
            pass &= v != Verdict::Worse;
            println!(
                "{name:<13} {metric:<12} {:>14.4} {:>14.4} {:>+7.1}% {:>6.0}%  {}{}",
                sa.value,
                sb.value,
                100.0 * (sb.value - sa.value) / sa.value.abs(),
                100.0 * bound,
                v.label(),
                if v == Verdict::Unresolved {
                    format!(
                        " (own spread {:.1}% / {:.1}%)",
                        100.0 * sa.spread,
                        100.0 * sb.spread
                    )
                } else {
                    String::new()
                },
            );
        }
        let (fa, fb) = (failed_share(ra), failed_share(rb));
        let rose = fb > fa;
        pass &= !rose;
        println!(
            "{name:<13} {:<12} {fa:>14.6} {fb:>14.6} {:>8} {:>7}  {}",
            "failed_share",
            "",
            "any",
            if rose { "worse" } else { "same" }
        );
        let digest = |r: &Json| {
            r.get("result_digest")
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        let same_answers = digest(ra) == digest(rb);
        println!(
            "{name:<13} {:<12} {:>14} {:>14} {:>8} {:>7}  {}",
            "result_digest",
            digest(ra).unwrap_or_default(),
            digest(rb).unwrap_or_default(),
            "",
            "",
            if same_answers {
                "same"
            } else {
                "differs (not bit-exact)"
            }
        );
        for (side, r) in [("a", ra), ("b", rb)] {
            if r.get("correct") != Some(&Json::Bool(true)) {
                println!("{name:<13} run {side} was not correct");
                pass = false;
            }
        }
    }
    for name in wb.keys().filter(|n| !wa.contains_key(*n)) {
        println!("{name:<13} missing from a");
    }
    println!("{}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, spread: f64) -> Sample {
        Sample { value, spread }
    }

    #[test]
    fn lower_is_better_metrics() {
        let bound = 0.10;
        assert_eq!(
            verdict(s(100.0, 0.01), s(105.0, 0.01), bound, true),
            Verdict::Same
        );
        assert_eq!(
            verdict(s(100.0, 0.01), s(111.0, 0.01), bound, true),
            Verdict::Worse
        );
        assert_eq!(
            verdict(s(100.0, 0.01), s(85.0, 0.01), bound, true),
            Verdict::Better
        );
        // Exactly on the bound is still within it.
        assert_eq!(
            verdict(s(100.0, 0.0), s(110.0, 0.0), bound, true),
            Verdict::Same
        );
    }

    #[test]
    fn higher_is_better_metrics() {
        let bound = 0.10;
        assert_eq!(
            verdict(s(1000.0, 0.0), s(880.0, 0.0), bound, false),
            Verdict::Worse
        );
        assert_eq!(
            verdict(s(1000.0, 0.0), s(1200.0, 0.0), bound, false),
            Verdict::Better
        );
        assert_eq!(
            verdict(s(1000.0, 0.0), s(950.0, 0.0), bound, false),
            Verdict::Same
        );
    }

    #[test]
    fn noisy_runs_are_unresolved_not_same() {
        // Either side's own spread beyond the bound hides any difference,
        // even a large one.
        assert_eq!(
            verdict(s(100.0, 0.12), s(100.0, 0.01), 0.10, true),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(s(100.0, 0.01), s(150.0, 0.30), 0.10, true),
            Verdict::Unresolved
        );
    }

    fn result(p50: f64, failed: f64, digest: &str) -> Json {
        let metric = |v: f64| Json::obj([("value", Json::num(v)), ("spread", Json::num(0.01))]);
        Json::obj([(
            "workloads",
            Json::obj([(
                "w",
                Json::obj([
                    ("correct", Json::Bool(true)),
                    ("result_digest", Json::str(digest)),
                    (
                        "ops",
                        Json::obj([
                            ("attempted", Json::num(1000.0)),
                            ("failed", Json::num(failed)),
                        ]),
                    ),
                    ("end_to_end", Json::obj([("op_p50_us", metric(p50))])),
                ]),
            )]),
        )])
    }

    fn contract() -> Json {
        Json::parse(
            r#"{"end_to_end": [{"name": "op_p50_us", "unit": "us", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn compare_fails_on_worse_and_on_any_new_failure() {
        let base = result(10.0, 0.0, "abc");
        assert!(compare(&base, &result(10.5, 0.0, "abc"), &contract()).unwrap());
        assert!(!compare(&base, &result(12.0, 0.0, "abc"), &contract()).unwrap());
        assert!(!compare(&base, &result(10.0, 1.0, "abc"), &contract()).unwrap());
        // A different digest is reported but is not by itself a failure.
        assert!(compare(&base, &result(10.0, 0.0, "xyz"), &contract()).unwrap());
    }
}
