//! The benchmark's own checks: span arithmetic, the correctness gate,
//! metric names, and that the pods the benchmark assembles behave like
//! the library harnesses they mirror.

use perfbench::gate::{failures, Pins, Point};
use perfbench::metrics::{valid_name, END_TO_END, PER_LAYER};
use perfbench::openloop::{run_traffic_point, run_txn_point, slo_misses};
use perfbench::trace::{self_times, Span, ROOT};
use simcore::{LatencyHistogram, SimTime};

fn span(start: u64, end: u64, parent: u32) -> Span {
    Span { name: "s", start, end, parent, point: 0 }
}

#[test]
fn self_time_subtracts_the_union_of_children_clipped_to_the_parent() {
    let spans = [
        span(0, 100, ROOT),
        span(10, 30, 0),
        span(20, 50, 0),  // overlaps the previous child
        span(90, 120, 0), // runs past the parent's end
        span(12, 18, 1),  // grandchild: covers its parent, not the root
    ];
    let own = self_times(&spans);
    // Root: children cover [10,50) and [90,100): 50 of 100.
    assert_eq!(own[0], 50);
    assert_eq!(own[1], 20 - 6);
    assert_eq!(own[2], 30);
    assert_eq!(own[3], 30);
    assert_eq!(own[4], 6);
}

fn sample_point(digest: &str) -> Point {
    let mut p = Point::new("p");
    p.mops = 2.5;
    p.sim_ops = 10;
    p.pin("digest", digest);
    p.check("verified", true);
    p
}

#[test]
fn a_wrong_pinned_digest_fails_the_point() {
    let pins = Pins::parse("w/p.sim_ops 10\nw/p.mops 2.5\nw/p.digest 00ff\n").unwrap();
    assert!(failures("w", &sample_point("00ff"), Some(&pins)).is_empty());
    let why = failures("w", &sample_point("00fe"), Some(&pins));
    assert_eq!(why.len(), 1, "{why:?}");
    assert!(why[0].contains("w/p.digest"), "{why:?}");
    // Off the default seed only the invariants count.
    assert!(failures("w", &sample_point("00fe"), None).is_empty());
}

#[test]
fn a_failed_invariant_or_missing_pin_fails_the_point() {
    let mut p = sample_point("00ff");
    p.check("txn failures == 0", false);
    assert_eq!(failures("w", &p, None).len(), 1);
    let pins = Pins::parse("w/p.sim_ops 10\n").unwrap();
    assert_eq!(failures("w", &sample_point("00ff"), Some(&pins)).len(), 2);
}

#[test]
fn recorded_pins_cover_every_workload() {
    let pins = Pins::recorded();
    for key in [
        "fleet-verbs/fleet.memory_digest",
        "apps-closed/dlog-b32.mops",
        "openloop/txn-locked-0.9.txn_digest",
    ] {
        assert!(pins.get(key).is_some(), "{key} not pinned");
    }
    assert!(Pins::parse("k v extra\n").is_err());
    assert!(Pins::parse("k 1\nk 2\n").is_err());
}

#[test]
fn every_metric_name_is_well_formed_and_unique() {
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.name).collect();
    for n in &names {
        assert!(valid_name(n), "bad metric name {n:?}");
        assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
    }
    let before = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), before, "duplicate metric names");
    assert!(!valid_name("") && !valid_name("a b") && !valid_name(".a"));
}

/// Every `"key": "value"` string pair in `text`, in order.
fn string_fields<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    let pat = format!("\"{key}\": \"");
    text.match_indices(&pat)
        .map(|(i, _)| {
            let rest = &text[i + pat.len()..];
            &rest[..rest.find('"').unwrap()]
        })
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names = string_fields(&text, "name");
    let units = string_fields(&text, "unit");
    let better = string_fields(&text, "better");
    let ours: Vec<(&str, &str, &str)> =
        END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| (m.name, m.unit, m.better)).collect();
    // Workload entries carry a name but no unit; metrics carry all three.
    let metric_names = &names[names.len() - units.len()..];
    assert_eq!(metric_names.len(), ours.len());
    for (((n, u), b), want) in metric_names.iter().zip(&units).zip(&better).zip(&ours) {
        assert_eq!((*n, *u, *b), *want);
    }
}

#[test]
fn slo_misses_counts_samples_above_the_slo() {
    let mut h = LatencyHistogram::new();
    for ns in 1..=1000u64 {
        h.record(SimTime::from_ns(ns));
    }
    let misses = slo_misses(&h, SimTime::from_ns(500));
    // Buckets above 256 ps are 1/128 wide, so a sample a little over the
    // SLO may share its bucket with the SLO itself.
    assert!((496..=500).contains(&misses), "{misses}");
    assert_eq!(slo_misses(&h, SimTime::from_ns(2000)), 0);
    assert_eq!(slo_misses(&h, SimTime::ZERO), 1000);
    assert_eq!(slo_misses(&LatencyHistogram::new(), SimTime::ZERO), 0);
}

#[test]
fn assembled_traffic_pods_match_the_library_harness() {
    let cfg = traffic::TrafficConfig {
        app: traffic::AppKind::Hashtable,
        optimized: true,
        offered_mops: 2.0,
        ops_per_worker: 120,
        ..Default::default()
    };
    let ours = run_traffic_point("p", &cfg);
    let lib = traffic::run_traffic(&cfg);
    assert!(lib.ops > 100 && lib.achieved_mops > 0.0, "most arrivals must land after warmup");
    let digest = ours.pinned.iter().find(|(k, _)| *k == "hist_digest").unwrap().1.clone();
    assert_eq!(digest, format!("{:016x}", lib.digest()));
    assert_eq!(ours.mops, lib.achieved_mops);
}

#[test]
fn assembled_txn_pods_match_the_library_harness() {
    let cfg = traffic::TxnTrafficConfig {
        ops_per_tenant: 40,
        aggressor: 8.0,
        conflict: 0.2,
        ..Default::default()
    };
    let ours = run_txn_point("p", &cfg);
    let lib = traffic::run_txn_traffic(&cfg);
    assert!(lib.ops > 100 && lib.achieved_mops > 0.0, "most arrivals must land after warmup");
    let digest = ours.pinned.iter().find(|(k, _)| *k == "txn_digest").unwrap().1.clone();
    assert_eq!(digest, format!("{:016x}", lib.digest()));
    assert!(ours.invariants.iter().all(|(_, ok)| *ok), "{:?}", ours.invariants);
}
