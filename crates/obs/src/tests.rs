//! Unit tests for the observability layer.
//!
//! The registry is process-global and the test harness runs tests
//! concurrently, so every test uses metric names unique to itself.

#[cfg(not(feature = "off"))]
use crate::hist::{bucket_index, bucket_lo, BUCKET_COUNT};
#[cfg(not(feature = "off"))]
use crate::{registry, Histogram, LocalHistogram};

#[cfg(not(feature = "off"))]
#[test]
fn enabled_by_default() {
    assert!(std::hint::black_box(crate::ENABLED));
}

/// With the `off` feature every recording call must be a no-op and every
/// read must come back empty — this is the compile-out contract.
#[cfg(feature = "off")]
#[test]
fn off_feature_noops_everything() {
    assert!(!std::hint::black_box(crate::ENABLED));
    let c = crate::counter!("off_counter");
    c.inc();
    c.add(100);
    c.store(7);
    assert_eq!(c.get(), 0);
    let g = crate::gauge!("off_gauge");
    g.set(5);
    assert_eq!(g.get(), 0);
    let h = crate::histogram!("off_hist");
    h.record(123);
    {
        let _g = h.start_span();
    }
    assert_eq!(h.snapshot().count, 0);
    crate::event!("off_event", "never formatted {}", 1);
    assert!(crate::events_snapshot().is_empty());
    let snap = crate::snapshot();
    assert!(snap.counters.is_empty());
    assert!(snap.histograms.is_empty());
    assert_eq!(
        snap.to_json(),
        "{\"counters\":{},\"gauges\":{},\"histograms\":{},\"events\":[]}"
    );
}

#[cfg(not(feature = "off"))]
#[test]
fn counter_inc_add_store() {
    let c = crate::counter!("test_counter_inc_add_store");
    assert_eq!(c.get(), 0);
    c.inc();
    c.add(4);
    assert_eq!(c.get(), 5);
    c.store(42);
    assert_eq!(c.get(), 42);
}

#[cfg(not(feature = "off"))]
#[test]
fn counter_handles_share_by_name() {
    crate::counter!("test_counter_shared").add(2);
    crate::counter!("test_counter_shared").add(3);
    assert_eq!(registry().counter("test_counter_shared").get(), 5);
}

#[cfg(not(feature = "off"))]
#[test]
fn gauge_set_and_add() {
    let g = crate::gauge!("test_gauge_set_add");
    g.set(10);
    g.add(-3);
    assert_eq!(g.get(), 7);
}

#[cfg(not(feature = "off"))]
#[test]
fn bucket_index_is_monotone_and_consistent_with_lo() {
    let mut samples: Vec<u64> = Vec::new();
    for e in 0..64u32 {
        for &off in &[0u64, 1, 3] {
            samples.push((1u64 << e).saturating_add(off << e.saturating_sub(5)));
        }
    }
    samples.sort_unstable();
    let mut prev = 0usize;
    for v in samples {
        let i = bucket_index(v);
        assert!(i >= prev, "bucket index not monotone at {v}");
        assert!(i < BUCKET_COUNT);
        assert!(bucket_lo(i) <= v, "lo({i}) > {v}");
        prev = i;
    }
    // Exact unit buckets below 16.
    for v in 0..16u64 {
        assert_eq!(bucket_index(v), v as usize);
        assert_eq!(bucket_lo(v as usize), v);
    }
    assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
}

#[cfg(not(feature = "off"))]
#[test]
fn histogram_quantiles_within_bucket_error() {
    let h = Histogram::new();
    for v in 1..=1000u64 {
        h.record(v);
    }
    let s = h.snapshot();
    assert_eq!(s.count, 1000);
    assert_eq!(s.min, 1);
    assert_eq!(s.max, 1000);
    assert_eq!(s.sum, 500_500);
    // Log-linear bucketing bounds relative error by 1/16 ≈ 6.25 %.
    let within = |got: u64, want: f64| {
        let err = (got as f64 - want).abs() / want;
        assert!(err < 0.08, "quantile {got} too far from {want}");
    };
    within(s.p50, 500.0);
    within(s.p90, 900.0);
    within(s.p99, 990.0);
    within(s.p999, 999.0);
    assert!((s.mean() - 500.5).abs() < 0.001);
}

#[cfg(not(feature = "off"))]
#[test]
fn histogram_empty_snapshot_is_zero() {
    let h = Histogram::new();
    let s = h.snapshot();
    assert_eq!(s.count, 0);
    assert_eq!(s.max, 0);
    assert_eq!(s.p999, 0);
    assert_eq!(s.mean(), 0.0);
}

#[cfg(not(feature = "off"))]
#[test]
fn local_histogram_merge_equals_direct_recording() {
    let mut a = LocalHistogram::new();
    let mut b = LocalHistogram::new();
    let mut direct = LocalHistogram::new();
    for v in 0..500u64 {
        let v = v * 17 % 10_000;
        if v % 2 == 0 {
            a.record(v);
        } else {
            b.record(v);
        }
        direct.record(v);
    }
    a.merge(&b);
    assert_eq!(a.snapshot(), direct.snapshot());
}

#[cfg(not(feature = "off"))]
#[test]
fn cleared_local_histogram_is_as_new() {
    // The per-batch buffer pattern: record, merge out, clear, reuse. What
    // a cleared buffer merges out must be the new samples alone.
    let mut buffer = LocalHistogram::new();
    let mut total = LocalHistogram::new();
    let mut direct = LocalHistogram::new();
    for batch in 0..3u64 {
        for v in 0..200u64 {
            let v = (v * 31 + batch * 1_000_003) % 1_000_000;
            buffer.record(v);
            direct.record(v);
        }
        total.merge(&buffer);
        buffer.clear();
        assert_eq!(buffer.count(), 0);
        assert_eq!(buffer.snapshot(), LocalHistogram::new().snapshot());
    }
    assert_eq!(total.snapshot(), direct.snapshot());
    buffer.clear(); // clearing an empty buffer is a no-op
    buffer.record(7);
    assert_eq!((buffer.snapshot().min, buffer.snapshot().max), (7, 7));
}

#[cfg(not(feature = "off"))]
#[test]
fn merge_local_folds_into_shared() {
    let shared = Histogram::new();
    let mut w1 = LocalHistogram::new();
    let mut w2 = LocalHistogram::new();
    for v in [5u64, 50, 500, 5_000] {
        w1.record(v);
        w2.record(v * 2);
    }
    shared.merge_local(&w1);
    shared.merge_local(&w2);
    let s = shared.snapshot();
    assert_eq!(s.count, 8);
    assert_eq!(s.min, 5);
    assert_eq!(s.max, 10_000);
}

#[cfg(not(feature = "off"))]
#[test]
fn span_guard_records_on_drop() {
    let h = crate::histogram!("test_span_guard_ns");
    {
        let _g = h.start_span();
        std::hint::black_box(1 + 1);
    }
    let s = h.snapshot();
    assert_eq!(s.count, 1);
}

#[cfg(not(feature = "off"))]
#[test]
fn sampled_span_decimates() {
    let h = crate::histogram!("test_sampled_span_ns");
    for _ in 0..256 {
        let _g = crate::sampled_span!(h, 64);
    }
    // One in 64 → exactly 4 on this thread's fresh per-call-site tick.
    assert_eq!(h.snapshot().count, 4);
}

#[cfg(not(feature = "off"))]
#[test]
fn counted_span_batches_counter_and_decimates() {
    let c = crate::counter!("test_counted_span_total");
    let h = crate::histogram!("test_counted_span_ns");
    for _ in 0..256 {
        let _g = crate::counted_span!(c, h, 64);
    }
    // Four batch boundaries, each crediting the full 64-call batch up
    // front and timing one call.
    assert_eq!(c.get(), 256);
    assert_eq!(h.snapshot().count, 4);
    // A fresh call site has its own tick, so its first call opens a new
    // batch; the span lands once the guard drops.
    {
        let _g = crate::counted_span!(c, h, 64);
        assert_eq!(c.get(), 320);
    }
    assert_eq!(h.snapshot().count, 5);
}

#[cfg(not(feature = "off"))]
#[test]
fn event_ring_bounds_and_sequences() {
    // Events are global; only assert relative behavior.
    let before = crate::events_snapshot().len();
    crate::event!("test_event", "first {}", 1);
    crate::event!("test_event", "second {}", 2);
    let evs = crate::events_snapshot();
    assert!(evs.len() >= 2 && evs.len() <= crate::EVENT_RING_CAPACITY);
    assert!(evs.len() >= before.min(crate::EVENT_RING_CAPACITY));
    let ours: Vec<_> = evs.iter().filter(|e| e.kind == "test_event").collect();
    assert!(ours.len() >= 2);
    // Sequence numbers strictly increase in ring order.
    for w in evs.windows(2) {
        assert!(w[0].seq < w[1].seq);
    }
}

#[cfg(not(feature = "off"))]
#[test]
fn snapshot_renders_json_and_prometheus() {
    crate::counter!("test_export_counter_total").add(7);
    crate::gauge!("test_export_gauge").set(-3);
    let h = crate::histogram!("test_export_latency_ns");
    h.record(100);
    h.record(200);
    crate::event!("test_export", "detail with \"quotes\" and\nnewline");

    let snap = crate::snapshot();
    let json = snap.to_json();
    assert!(json.contains("\"test_export_counter_total\":7"));
    assert!(json.contains("\"test_export_gauge\":-3"));
    assert!(json.contains("\"test_export_latency_ns\":{\"count\":2"));
    assert!(json.contains("\\\"quotes\\\" and\\nnewline"));
    // Balanced braces/brackets — cheap well-formedness check.
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "unbalanced JSON"
    );

    let prom = snap.to_prometheus();
    assert!(prom.contains("# TYPE test_export_counter_total counter"));
    assert!(prom.contains("test_export_counter_total 7"));
    assert!(prom.contains("# TYPE test_export_gauge gauge"));
    assert!(prom.contains("# TYPE test_export_latency_ns histogram"));
    assert!(prom.contains("test_export_latency_ns_bucket{le=\"+Inf\"} 2"));
    assert!(prom.contains("test_export_latency_ns_count 2"));
    assert!(prom.contains("test_export_latency_ns_sum 300"));
}

#[cfg(not(feature = "off"))]
#[test]
fn snapshot_is_sorted_by_name() {
    crate::counter!("test_sort_zz").inc();
    crate::counter!("test_sort_aa").inc();
    let snap = crate::snapshot();
    let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted);
}

#[test]
fn monotonic_ns_behaves() {
    let a = crate::monotonic_ns();
    let b = crate::monotonic_ns();
    if crate::ENABLED {
        assert!(a > 0, "enabled clock never reads 0");
        assert!(b >= a, "monotonic");
    } else {
        assert_eq!((a, b), (0, 0), "compiled out means unstamped");
    }
}

/// Promtool-grammar conformance of the full text exposition: line shapes,
/// metric/label name validity, HELP/TYPE pairing, `le` ordering, and the
/// histogram's internal identities.
#[cfg(not(feature = "off"))]
#[test]
fn prometheus_exposition_conforms() {
    crate::counter!("test_conform_total").add(3);
    crate::gauge!("test_conform_level").set(-9);
    let h = crate::histogram!("test_conform_ns");
    for v in [0u64, 1, 17, 500, 1_000_000, u64::MAX] {
        h.record(v);
    }

    let prom = crate::snapshot().to_prometheus();
    let name_ok = |n: &str| {
        !n.is_empty()
            && n.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    };
    let label_ok = |n: &str| {
        !n.is_empty()
            && n.chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    };

    let mut typed: std::collections::HashMap<String, String> = std::collections::HashMap::new();
    let mut helped: std::collections::HashSet<String> = std::collections::HashSet::new();
    for line in prom.lines() {
        assert!(!line.is_empty(), "no blank lines in exposition");
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, _text) = rest.split_once(' ').expect("HELP has text");
            assert!(name_ok(name), "bad HELP name {name:?}");
            helped.insert(name.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split(' ');
            let name = it.next().unwrap();
            let kind = it.next().expect("TYPE has a kind");
            assert!(name_ok(name), "bad TYPE name {name:?}");
            assert!(
                ["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind),
                "bad TYPE kind {kind:?}"
            );
            assert!(helped.contains(name), "HELP must precede TYPE for {name:?}");
            assert!(
                typed.insert(name.to_string(), kind.to_string()).is_none(),
                "family {name:?} declared twice"
            );
            continue;
        }
        // Sample line: name[{labels}] value
        let (series, value) = line.rsplit_once(' ').expect("sample has value");
        assert!(
            value == "+Inf" || value.parse::<f64>().is_ok(),
            "bad sample value {value:?}"
        );
        let (name, labels) = match series.split_once('{') {
            Some((n, rest)) => {
                let rest = rest.strip_suffix('}').expect("balanced label braces");
                (n, Some(rest))
            }
            None => (series, None),
        };
        assert!(name_ok(name), "bad metric name {name:?}");
        if let Some(labels) = labels {
            for pair in labels.split(',') {
                let (lname, lval) = pair.split_once('=').expect("label pair");
                assert!(label_ok(lname), "bad label name {lname:?}");
                assert!(
                    lval.starts_with('"') && lval.ends_with('"'),
                    "unquoted label value {lval:?}"
                );
                let inner = &lval[1..lval.len() - 1];
                // Escaping: no raw quote/newline may survive; a backslash
                // may only introduce a valid escape.
                let mut chars = inner.chars();
                while let Some(c) = chars.next() {
                    assert!(c != '"' && c != '\n', "unescaped {c:?} in label value");
                    if c == '\\' {
                        let next = chars.next().expect("dangling backslash");
                        assert!(matches!(next, '\\' | '"' | 'n'), "bad escape \\{next}");
                    }
                }
            }
        }
        // Every sample must belong to a declared family (histogram samples
        // hang off the base family name).
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|base| typed.get(*base).map(String::as_str) == Some("histogram"))
            .unwrap_or(name);
        assert!(typed.contains_key(family), "undeclared family for {name:?}");
    }

    // Histogram-specific grammar: strictly increasing `le`, trailing +Inf
    // equal to _count, cumulative counts nondecreasing.
    let bucket_lines: Vec<&str> = prom
        .lines()
        .filter(|l| l.starts_with("test_conform_ns_bucket{"))
        .collect();
    assert!(bucket_lines.len() >= 2, "expected sparse buckets plus +Inf");
    let mut last_le = f64::NEG_INFINITY;
    let mut last_cum = 0u64;
    for line in &bucket_lines {
        let le_text = line
            .split("le=\"")
            .nth(1)
            .and_then(|r| r.split('"').next())
            .expect("le label");
        let le = if le_text == "+Inf" {
            f64::INFINITY
        } else {
            le_text.parse::<f64>().expect("numeric le")
        };
        assert!(le > last_le, "le values must strictly increase");
        last_le = le;
        let cum: u64 = line.rsplit(' ').next().unwrap().parse().expect("count");
        assert!(cum >= last_cum, "cumulative counts nondecreasing");
        last_cum = cum;
    }
    assert!(last_le.is_infinite(), "last bucket is +Inf");
    let count: u64 = prom
        .lines()
        .find(|l| l.starts_with("test_conform_ns_count "))
        .and_then(|l| l.rsplit(' ').next())
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(last_cum, count, "+Inf bucket equals _count");
    assert!(count >= 6, "all recorded samples counted");
}

/// The embedded scrape endpoint serves all three routes over real HTTP.
#[test]
fn http_exporter_serves_routes() {
    use std::io::{Read as _, Write as _};

    crate::counter!("test_http_total").add(5);
    let healthy = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
    let h = std::sync::Arc::clone(&healthy);
    let mut srv = crate::serve_obs(
        "127.0.0.1:0",
        Box::new(|| "{\"statz\":true}".to_string()),
        Box::new(move || {
            let ok = h.load(std::sync::atomic::Ordering::Relaxed);
            (ok, format!("{{\"healthy\":{ok}}}"))
        }),
    )
    .expect("bind exporter");
    let addr = srv.local_addr();

    let get = |path: &str| -> (String, String) {
        let mut s = std::net::TcpStream::connect(addr).expect("connect");
        write!(s, "GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).expect("read response");
        let (head, body) = resp.split_once("\r\n\r\n").expect("header split");
        let status = head.lines().next().unwrap_or("").to_string();
        (status, body.to_string())
    };

    let (status, body) = get("/metrics");
    assert!(status.contains("200"), "metrics status {status:?}");
    if crate::ENABLED {
        assert!(body.contains("test_http_total 5"), "live registry served");
    }

    let (status, body) = get("/statz");
    assert!(status.contains("200"));
    assert_eq!(body, "{\"statz\":true}");

    let (status, body) = get("/healthz");
    assert!(status.contains("200"));
    assert!(body.contains("true"));

    healthy.store(false, std::sync::atomic::Ordering::Relaxed);
    let (status, _) = get("/healthz");
    assert!(status.contains("503"), "unhealthy flips to 503: {status:?}");

    let (status, _) = get("/nope");
    assert!(status.contains("404"));

    srv.shutdown();
    srv.shutdown(); // idempotent
}
