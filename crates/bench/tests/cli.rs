//! Command-line behaviour of `repro`: bad input exits 2 with a message
//! instead of panicking, and flags survive the modes that run before
//! the requested experiments.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawn repro")
}

fn assert_usage_error(args: &[&str], expect: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(expect), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn unknown_experiment_ids_exit_2_listing_the_known_ones() {
    for args in [&["nosuch"][..], &["table2", "nosuch"], &["--lint", "nosuch"]] {
        assert_usage_error(args, "unknown experiment id \"nosuch\"; known: [\"fig1\"");
    }
}

#[test]
fn malformed_bench_baselines_exit_2() {
    let dir = std::env::temp_dir().join(format!("repro-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("v2.json");
    std::fs::write(
        &path,
        "{\n  \"schema\": \"bench-engine-v2\",\n  \"experiments\": [\n    \
         {\"id\": \"table2\", \"wall_ms\": 0.1, \"sim_ops\": 0, \"shards\": 1}\n  ]\n}\n",
    )
    .unwrap();
    assert_usage_error(&["--bench-compare", path.to_str().unwrap()], "schema");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn check_determinism_keeps_the_jobs_override() {
    let dir = std::env::temp_dir().join(format!("repro-cli-jobs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bench.json");
    let out = repro(&[
        "--jobs",
        "3",
        "--check-determinism",
        "table1",
        "table2",
        "table3",
        "--bench-json",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(json.contains("\"jobs\": 3,"), "{json}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn zero_caps_values_exit_2() {
    let dir = std::env::temp_dir().join(format!("repro-cli-caps-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("zero.caps");
    std::fs::write(&path, "page_bytes = 0\n").unwrap();
    assert_usage_error(
        &["--lint", "--caps", path.to_str().unwrap(), "all"],
        "page_bytes needs a positive integer",
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn non_finite_loads_and_slos_exit_2() {
    for load in ["inf", "NaN", "1:inf:2", "1:nan:2", "-inf:1:2", "inf:inf:2"] {
        assert_usage_error(&["--traffic", "dlog", "--load", load], "--load needs");
    }
    for slo in ["inf", "NaN"] {
        assert_usage_error(&["--traffic", "dlog", "--slo", slo], "--slo needs");
    }
}
