//! `gapbench check-repeat <a.json> <b.json>`: is result set `b` worse than
//! `a` by more than the bounds `BENCHMARK.json` fixes?

use crate::json::Json;

/// One (workload, end-to-end metric) comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// Share of `a` by which `b` is worse; negative when `b` is better.
    pub worse_by: f64,
    pub bound: f64,
    pub breach: bool,
}

/// By how much of `a` is `b` worse, for a metric where `better` is
/// "lower" or "higher".
fn worse_by(a: f64, b: f64, better: &str) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        "higher" => (a - b) / a.abs(),
        _ => (b - a) / a.abs(),
    }
}

fn workload<'a>(results: &'a Json, name: &str) -> Option<&'a Json> {
    results
        .get("workloads")?
        .as_array()
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

fn value(workload: &Json, metric: &str) -> Option<f64> {
    workload
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Compare every end-to-end metric of every workload both sets have.
/// A workload that failed its correctness check in `b` breaches too.
pub fn compare(benchmark: &Json, a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let metrics = benchmark
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .as_array();
    let mut rows = Vec::new();
    for w in a
        .get("workloads")
        .ok_or("no workloads in the first set")?
        .as_array()
    {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("unnamed workload")?;
        let Some(other) = workload(b, name) else {
            continue;
        };
        for m in metrics {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("");
            let metric = field("name");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (Some(va), Some(vb)) = (value(w, metric), value(other, metric)) else {
                return Err(format!("{name}: metric {metric} missing from a result set"));
            };
            let worse = worse_by(va, vb, field("better"));
            rows.push(Row {
                workload: name.to_string(),
                metric: metric.to_string(),
                a: va,
                b: vb,
                worse_by: worse,
                bound,
                breach: worse > bound,
            });
        }
        let failed = other.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if failed > 0.0 {
            rows.push(Row {
                workload: name.to_string(),
                metric: "failed".to_string(),
                a: w.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
                b: failed,
                worse_by: f64::INFINITY,
                bound: 0.0,
                breach: true,
            });
        }
    }
    if rows.is_empty() {
        return Err("the two result sets share no workload".into());
    }
    Ok(rows)
}

pub fn print(rows: &[Row]) {
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>8} {:>9} {:>7}",
        "workload", "metric", "a", "b", "b/a", "worse by", "bound"
    );
    for r in rows {
        println!(
            "{:<16} {:<16} {:>14.4} {:>14.4} {:>8.3} {:>8.1}% {:>6.1}%{}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            if r.a != 0.0 { r.b / r.a } else { 0.0 },
            r.worse_by * 100.0,
            r.bound * 100.0,
            if r.breach { "  BREACH" } else { "" }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(rate: f64, latency: f64) -> Json {
        let metric =
            |v: f64, unit: &str| Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))]);
        Json::obj([(
            "workloads",
            Json::Arr(vec![Json::obj([
                ("name", Json::str("tcp_sat")),
                ("failed", Json::Int(0)),
                (
                    "end_to_end",
                    Json::obj([
                        ("reports_per_s", metric(rate, "1/s")),
                        ("latency_p50_us", metric(latency, "us")),
                    ]),
                ),
            ])]),
        )])
    }

    fn benchmark() -> Json {
        Json::parse(
            r#"{"end_to_end":[
                {"name":"reports_per_s","unit":"1/s","better":"higher","bound":0.1},
                {"name":"latency_p50_us","unit":"us","better":"lower","bound":0.1}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn an_eleven_percent_drop_breaches_and_nine_percent_passes() {
        let base = results(4_000_000.0, 100.0);
        let rows = compare(&benchmark(), &base, &results(3_560_000.0, 100.0)).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].breach, "an 11 % drop in a rate");
        assert!(!rows[1].breach);
        let rows = compare(&benchmark(), &base, &results(3_640_000.0, 109.0)).unwrap();
        assert!(
            rows.iter().all(|r| !r.breach),
            "9 % either way is within the bound"
        );
        // Direction: a latency that rises 11 % breaches, one that falls does not.
        let rows = compare(&benchmark(), &base, &results(4_000_000.0, 111.0)).unwrap();
        assert!(rows[1].breach);
        let rows = compare(&benchmark(), &base, &results(9_000_000.0, 50.0)).unwrap();
        assert!(rows.iter().all(|r| !r.breach), "better is never a breach");
    }

    #[test]
    fn a_failed_correctness_check_breaches() {
        let base = results(1.0, 1.0);
        let mut bad = results(1.0, 1.0);
        if let Json::Obj(fields) = &mut bad {
            if let Json::Arr(ws) = &mut fields[0].1 {
                if let Json::Obj(w) = &mut ws[0] {
                    w[1].1 = Json::Int(3);
                }
            }
        }
        let rows = compare(&benchmark(), &base, &bad).unwrap();
        assert!(rows.last().unwrap().breach);
        assert!(compare(
            &benchmark(),
            &base,
            &Json::obj([("workloads", Json::Arr(vec![]))])
        )
        .is_err());
    }
}
