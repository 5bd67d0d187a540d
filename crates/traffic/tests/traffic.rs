//! End-to-end checks on the open-loop traffic engine: determinism across
//! every run mode, queueing behaviour under load, optimization wins, and
//! verbcheck cleanliness of every app's verb program.

use rnicsim::PROFILES;
use simcore::SimTime;
use traffic::{find_knee, run_traffic, sweep, AppKind, TrafficConfig};

fn quick(app: AppKind, optimized: bool, offered_mops: f64) -> TrafficConfig {
    TrafficConfig {
        app,
        optimized,
        offered_mops,
        ops_per_worker: 400,
        warmup: SimTime::from_us(20),
        ..Default::default()
    }
}

#[test]
fn every_mode_is_byte_identical_for_every_app_and_variant() {
    for app in AppKind::all() {
        for optimized in [false, true] {
            let base = quick(app, optimized, 0.4);
            let serial = run_traffic(&base);
            assert!(serial.ops > 0, "{}: no samples", app.name());

            // Sharded engine (shards > 1 with enough pods).
            let sharded = run_traffic(&TrafficConfig { shards: 2, ..base.clone() });
            assert_eq!(
                serial.hist.digest(),
                sharded.hist.digest(),
                "{} optimized={optimized}: shards=2 diverged",
                app.name()
            );

            // Windowed series and meters fold identically as well.
            assert_eq!(serial.ops, sharded.ops);
            assert_eq!(serial.finished, sharded.finished);
            let (a, b): (Vec<_>, Vec<_>) = (
                serial.series.windows().map(|(t, h)| (t, h.digest())).collect(),
                sharded.series.windows().map(|(t, h)| (t, h.digest())).collect(),
            );
            assert_eq!(a, b, "{}: series diverged", app.name());
        }
    }
}

#[test]
fn tail_latency_grows_with_offered_load() {
    for app in AppKind::all() {
        let pts = sweep(&quick(app, false, 0.0), &[0.2, 8.0]);
        assert!(
            pts[1].p99_us > pts[0].p99_us * 1.3,
            "{}: p99 {} at 0.2 MOPS vs {} at 8 MOPS",
            app.name(),
            pts[0].p99_us,
            pts[1].p99_us
        );
        // Low-load p50 should sit near the unloaded service time, i.e.
        // single-digit microseconds for every app.
        assert!(pts[0].p50_us < 10.0, "{}: unloaded p50 {}", app.name(), pts[0].p50_us);
    }
}

#[test]
fn bursty_arrivals_have_fatter_tails_at_equal_load() {
    let base = quick(AppKind::Join, false, 2.0);
    let poisson = run_traffic(&base);
    let bursty = run_traffic(&TrafficConfig { bursty: true, ..base });
    assert!(
        bursty.q_us(0.999) > poisson.q_us(0.999),
        "bursty p999 {} vs poisson {}",
        bursty.q_us(0.999),
        poisson.q_us(0.999)
    );
}

#[test]
fn knee_finder_brackets_and_optimization_moves_the_knee() {
    // One app end-to-end through find_knee is enough for CI time; the
    // committed BENCH_apps.json covers all four.
    let app = AppKind::Shuffle;
    let slo = app.default_slo();
    let basic = find_knee(&quick(app, false, 0.0), slo);
    let opt = find_knee(&quick(app, true, 0.0), slo);
    assert!(basic.knee_mops > 0.0, "basic knee collapsed");
    assert!(
        opt.knee_mops > basic.knee_mops * 1.3,
        "staged push should lift the knee: basic {} vs optimized {}",
        basic.knee_mops,
        opt.knee_mops
    );
    assert!(basic.p99_us_at_knee <= slo.as_us());
    assert!(opt.p99_us_at_knee <= slo.as_us());
}

#[test]
fn verb_programs_are_clean_on_every_caps_profile() {
    for app in AppKind::all() {
        for optimized in [false, true] {
            let prog = traffic::verb_program(app, optimized);
            for (name, caps) in PROFILES {
                let diags = verbcheck::analyze(&prog, caps);
                assert!(
                    !verbcheck::has_errors(&diags),
                    "{} optimized={optimized} on {name}: {}",
                    app.name(),
                    diags.iter().map(verbcheck::Diagnostic::render).collect::<String>()
                );
            }
        }
    }
}

#[test]
fn linger_bounds_batch_wait_at_trickle_load() {
    // At 0.02 MOPS aggregate the mean inter-arrival gap per worker is
    // 200 µs — far beyond every linger bound. Batching variants must
    // still keep p99 within (linger + a loaded flush), not a full batch
    // fill (~16 gaps ≈ 3 ms).
    for app in [AppKind::Shuffle, AppKind::Join, AppKind::Dlog] {
        let r = run_traffic(&TrafficConfig { ops_per_worker: 150, ..quick(app, true, 0.02) });
        assert!(r.q_us(0.99) < 20.0, "{}: lingering batch p99 {} µs", app.name(), r.q_us(0.99));
    }
}
