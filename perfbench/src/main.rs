//! Runs the benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     [--workload zipf-hot|uniform-durable|rebuild-2disk] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--workload`, one run: human-readable lines, then one JSON line
//! `{"correct", "attempted", "failed", "metrics"}` holding the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). Without
//! it, every workload runs untraced and then traced, and the report adds
//! the tracing overhead. The exit code is 1 if any correctness check
//! failed, 2 on bad arguments or an environment error.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{run, tighten_timer_slack, Metric, RunConfig, RunResult, Workload};

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench [--workload zipf-hot|uniform-durable|rebuild-2disk] \
         [--seed N] [--seconds S] [--trace 0|1]"
    );
    ExitCode::from(2)
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_run(label: &str, r: &RunResult) {
    for note in &r.notes {
        println!("# {label}: {note}");
    }
    for m in r.end_to_end.iter().chain(&r.per_layer) {
        println!("{label:<24} {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{label:<24} {:<28} {:>14.6} (failed {} of {} attempted)",
        "failed_frac",
        r.failed as f64 / r.attempted as f64,
        r.failed,
        r.attempted
    );
}

fn main() -> ExitCode {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 30.0f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Workload::parse(&value);
                workload.is_some()
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .map(|v| seconds = v)
                .is_ok_and(|_| seconds > 0.0),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let scratch = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".run");
    let cfg = |workload, trace| RunConfig {
        workload,
        seed,
        seconds,
        trace,
        inject: None,
        scratch: scratch.clone(),
    };
    let slack = tighten_timer_slack();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# available_parallelism {threads}; timer slack 1 ns: {slack}; seed {seed}; \
         {seconds} s measured per run"
    );

    if let Some(w) = workload {
        let r = match run(&cfg(w, trace)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        };
        let label = format!("{}{}", w.name(), if trace { " (traced)" } else { "" });
        print_run(&label, &r);
        let metrics = if trace { &r.per_layer } else { &r.end_to_end };
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            r.correct(),
            r.attempted,
            r.failed,
            json_metrics(metrics)
        );
        return if r.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let (mut attempted, mut failed) = (0, 0);
    for w in Workload::ALL {
        let mut pair = Vec::new();
        for traced in [false, true] {
            match run(&cfg(w, traced)) {
                Ok(r) => pair.push(r),
                Err(e) => {
                    eprintln!("perfbench: {}: {e}", w.name());
                    return ExitCode::from(2);
                }
            }
        }
        let (plain, traced) = (&pair[0], &pair[1]);
        print_run(w.name(), plain);
        print_run(&format!("{} (traced)", w.name()), traced);
        for name in ["ops_per_s", "rebuild_p50_ms"] {
            let (a, b) = (plain.metric(name), traced.metric(name));
            if let (Some(a), Some(b)) = (a, b) {
                println!(
                    "{:<24} tracing overhead on {name}: {:+.2}% (untraced {a:.4}, traced {b:.4})",
                    w.name(),
                    (b / a - 1.0) * 100.0
                );
            }
        }
        for r in &pair {
            attempted += r.attempted;
            failed += r.failed;
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}}}",
        failed == 0
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
