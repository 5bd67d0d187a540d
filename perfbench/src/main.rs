//! Benchmark driver.
//!
//! ```text
//! perfbench --workload <fleet-verbs|apps-closed|openloop> --seed <n>
//!           --seconds <s> --trace <0|1> [--print-pins]
//! ```
//!
//! Runs whole passes over the workload for `--seconds` of host time
//! (at least three passes), checks every point, and prints the
//! metrics as medians over the passes (host times as sums over points of
//! per-point medians). The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`. With
//! `--trace 1` untraced and traced passes alternate: the metrics are the
//! per-layer ones from the traced passes, plus the tracing overhead
//! against the untraced ones, and the spans are written to
//! `perfbench/trace/<workload>-<seed>.tsv` when the run ends.

use perfbench::gate::{failures, Pins, DEFAULT_SEED, HELD_OUT_SEED};
use perfbench::metrics::{END_TO_END, LAYER_MAP, PER_LAYER};
use perfbench::trace::{median, self_by_name, Tracer};
use perfbench::{heap, Pass, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static GLOBAL: heap::PeakAlloc = heap::PeakAlloc;

/// Fewest passes of each kind a run makes, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    print_pins: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut print_pins) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--print-pins" {
            print_pins = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=3600).contains(&s) {
                    return Err("--seconds must be 1..=3600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        print_pins,
    })
}

/// One pass with its host-side measurements.
struct Measured {
    pass: Pass,
    peak_heap: u64,
}

/// Sum over points of each point's median over `passes` of phase `k`
/// (see [`Pass::times`]), in s. Medians per point rather than per pass
/// keep a slow stretch of one point from moving the whole figure.
fn point_medians(passes: &[&Measured], k: usize) -> f64 {
    let points = passes.first().map_or(0, |m| m.pass.times.len());
    (0..points)
        .map(|p| median(&mut passes.iter().map(|m| m.pass.times[p][k] as f64).collect::<Vec<_>>()))
        .sum::<f64>()
        / 1e9
}

fn med(passes: &[&Measured], f: impl Fn(&Measured) -> f64) -> f64 {
    median(&mut passes.iter().map(|m| f(m)).collect::<Vec<_>>())
}

fn sim_ops_per_s(passes: &[&Measured]) -> f64 {
    med(passes, |m| m.pass.sim_ops as f64) / point_medians(passes, 2)
}

fn end_to_end(passes: &[&Measured]) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        ("setup_s", point_medians(passes, 0)),
        ("wall_s", point_medians(passes, 1)),
        ("sim_ops_per_s", sim_ops_per_s(passes)),
        ("peak_heap_mib", med(passes, |m| m.peak_heap as f64 / (1u64 << 20) as f64)),
        ("virt_mops", med(passes, |m| m.pass.virt_mops())),
    ])
}

fn per_layer(
    traced: &[&Measured],
    untraced: &[&Measured],
    failed_ratio: f64,
) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    for m in PER_LAYER {
        let vals: Vec<f64> = traced
            .iter()
            .filter_map(|p| p.pass.layers.get(m.name).or(p.pass.virt.get(m.name)).copied())
            .collect();
        if !vals.is_empty() {
            out.insert(m.name, median(&mut vals.clone()));
        }
    }
    let get = |out: &BTreeMap<&str, f64>, k: &str| out.get(k).copied().unwrap_or(0.0);
    let (hits, misses) = (get(&out, "rnicsim.mtt.hits"), get(&out, "rnicsim.mtt.misses"));
    if hits + misses > 0.0 {
        out.insert("rnicsim.mtt.miss_ratio", misses / (hits + misses));
    }
    let resident = get(&out, "cluster.memory.resident_mib");
    if resident > 0.0 {
        out.insert(
            "cluster.memory.sparse_saving",
            get(&out, "cluster.memory.dense_gib") * 1024.0 / resident,
        );
    }
    let steps = get(&out, "cluster.engine.steps");
    if steps > 0.0 {
        out.insert(
            "cluster.engine.self_ns_per_step",
            get(&out, "cluster.engine.self_s") * 1e9 / steps,
        );
    }
    let plain = sim_ops_per_s(untraced);
    let with = sim_ops_per_s(traced);
    out.insert("trace.sim_ops_per_s_untraced", plain);
    out.insert("trace.sim_ops_per_s_traced", with);
    out.insert("trace.overhead_pct", (plain - with) / plain * 100.0);
    out.insert("failed_ratio", failed_ratio);
    out
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" }
        );
    }
    s.push_str("}}");
    s
}

fn write_spans(path: &str, tracer: &Tracer) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "name\tstart_ns\tend_ns\tparent\tpoint")?;
    for s in tracer.spans() {
        let parent = if s.parent == perfbench::trace::ROOT { -1 } else { s.parent as i64 };
        writeln!(f, "{}\t{}\t{}\t{parent}\t{}", s.name, s.start, s.end, s.point)?;
    }
    f.flush()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let pins = (args.seed == DEFAULT_SEED).then(Pins::recorded);
    println!(
        "# perfbench {} seed {} ({}) for {} s, trace {}, {} cores",
        w.name(),
        args.seed,
        match args.seed {
            DEFAULT_SEED => "default: pinned results apply",
            HELD_OUT_SEED => "held out: invariants only",
            _ => "invariants only",
        },
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    );
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut tracer = args.trace.then(|| Tracer::new(1 << 16));
    let mut runs: Vec<(bool, Measured)> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut pass_s: Vec<f64> = Vec::new();
    loop {
        let count = |t: bool| runs.iter().filter(|(tr, _)| *tr == t).count();
        let enough = count(false) >= MIN_PASSES && (!args.trace || count(true) >= MIN_PASSES);
        // Start no pass that would end mostly past the budget, so a run
        // lasts `--seconds` give or take half a pass.
        let next = median(&mut pass_s.clone());
        if enough && start.elapsed().as_secs_f64() + next / 2.0 >= budget.as_secs_f64() {
            break;
        }
        let t_pass = Instant::now();
        let traced = args.trace && runs.len() % 2 == 1;
        let mut tr = if traced { tracer.take() } else { None };
        heap::reset_peak();
        let pass = w.pass(args.seed, &mut tr);
        let peak_heap = heap::peak_bytes();
        if traced {
            tracer = tr;
        }
        for point in &pass.points {
            attempted += 1;
            let why = failures(w.name(), point, pins.as_ref());
            if !why.is_empty() {
                failed += 1;
                for line in why {
                    println!("FAIL {line}");
                }
            }
        }
        if args.print_pins && runs.is_empty() {
            for point in &pass.points {
                for (k, v) in point.pins() {
                    println!("{}/{k} {v}", w.name());
                }
            }
        }
        runs.push((traced, Measured { pass, peak_heap }));
        pass_s.push(t_pass.elapsed().as_secs_f64());
    }
    let untraced: Vec<&Measured> = runs.iter().filter(|(t, _)| !t).map(|(_, m)| m).collect();
    let traced: Vec<&Measured> = runs.iter().filter(|(t, _)| *t).map(|(_, m)| m).collect();
    let failed_ratio = failed as f64 / attempted.max(1) as f64;
    println!(
        "# {} untraced + {} traced passes in {:.1} s; points attempted {attempted}, failed {failed} (failed_ratio {failed_ratio})",
        untraced.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    );
    let e2e = end_to_end(&untraced);
    let walls: Vec<String> = untraced.iter().map(|m| format!("{:.3}", m.pass.wall_s())).collect();
    println!("# wall_s per untraced pass: {}", walls.join(" "));
    for m in END_TO_END {
        println!("{:<34} {:>16.6} {}", m.name, e2e[m.name], m.unit);
    }
    let virt = &untraced[0].pass.virt;
    for (k, v) in virt {
        println!("{k:<34} {v:>16.6} (virtual, pinned)");
    }
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let layers = per_layer(&traced, &untraced, failed_ratio);
        println!(
            "# per-layer (median of {} traced passes; 0 = layer not exercised here)",
            traced.len()
        );
        for m in PER_LAYER {
            println!("{:<34} {:>16.6} {}", m.name, layers[m.name], m.unit);
        }
        for note in &traced[traced.len() - 1].pass.notes {
            println!("# {note}");
        }
        if let Some(t) = &tracer {
            println!("# span totals over traced passes: name, total ms, self ms");
            for (name, total, own) in self_by_name(t.spans()) {
                println!("{name:<34} {:>12.3} {:>12.3}", total as f64 / 1e6, own as f64 / 1e6);
            }
            let path = format!("perfbench/trace/{}-{}.tsv", w.name(), args.seed);
            match write_spans(&path, t) {
                Ok(()) => println!("# spans written to {path}"),
                Err(e) => println!("# spans not written to {path}: {e}"),
            }
        }
        println!("# layer -> end-to-end metric it should move");
        for (layer, moves) in LAYER_MAP {
            println!("#   {layer:<28} {moves}");
        }
        PER_LAYER.iter().map(|m| (m.name, m.unit, layers[m.name])).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit, e2e[m.name])).collect()
    };
    println!("{}", json_line(failed == 0, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
