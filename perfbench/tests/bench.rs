//! The benchmark's own tests: a tiny run of every workload in both modes,
//! same-seed determinism of the `paper` counters, agreement between
//! `BENCHMARK.json` and the metrics the program prints, and the exit code
//! on a bad command line.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::time::Instant;

use oneshot_bench::metrics::Json;
use perfbench::{Config, Outcome, END_TO_END, PER_LAYER, WORKLOADS};

/// A run scaled far down: one paper round, one park cycle, a few hundred
/// jobs and round trips.
fn tiny(workload: &str, seed: u64, trace: bool) -> Outcome {
    let cfg = Config { workload: workload.to_string(), seed, seconds: 0.05, trace };
    perfbench::run(&cfg, Instant::now()).expect("workload runs")
}

fn metric(o: &Outcome, name: &str) -> f64 {
    o.metrics.iter().find(|m| m.0 == name).map(|m| m.1).expect("metric present")
}

#[test]
fn every_workload_runs_correctly_in_both_modes() {
    for w in WORKLOADS {
        let plain = tiny(w, 1, false);
        assert!(plain.correct && plain.failed == 0 && plain.attempted > 0, "{w}: {plain:?}");
        let names: Vec<_> = plain.metrics.iter().map(|m| (m.0, m.2)).collect();
        assert_eq!(names, END_TO_END, "{w}");
        for (name, value, _) in &plain.metrics {
            assert!(value.is_finite() && *value > 0.0, "{w}: {name} = {value}");
        }

        let traced = tiny(w, 1, true);
        assert!(traced.correct && traced.failed == 0, "{w}: {traced:?}");
        let names: Vec<_> = traced.metrics.iter().map(|m| (m.0, m.2)).collect();
        assert_eq!(names, PER_LAYER, "{w}");
        // Every workload reaches the reader, the compiler and the linker.
        for layer in ["sexp.read_us", "compiler.compile_us", "vm.link_us", "vm.instructions_per_op"]
        {
            assert!(metric(&traced, layer) > 0.0, "{w}: {layer}");
        }
        assert!(traced.context["spans"] > 0.0, "{w}: spans recorded");
    }
}

#[test]
fn paper_counters_repeat_exactly_for_a_seed() {
    let a = tiny("paper", 42, true);
    let b = tiny("paper", 42, true);
    for name in
        ["vm.instructions_per_op", "core.slots_copied_per_op", "runtime.words_allocated_per_op"]
    {
        let (x, y) = (metric(&a, name), metric(&b, name));
        assert!(x > 0.0, "{name} is measured");
        assert_eq!(x.to_bits(), y.to_bits(), "{name}: {x} vs {y}");
    }
}

#[test]
fn benchmark_json_lists_what_the_program_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    let names = |key: &str| -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = doc.get(key) else { panic!("{key} is a list") };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| match m.get(f) {
                    Some(Json::Str(s)) => s.clone(),
                    _ => String::new(),
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(names("end_to_end"), own(END_TO_END));
    assert_eq!(names("per_layer"), own(PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn a_bad_command_line_prints_no_result() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
