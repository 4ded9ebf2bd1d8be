//! Regenerates every table and figure of the paper's evaluation.
//!
//! Usage:
//!
//! ```text
//! experiments <cmd> [--paper]
//!   figure5        Figure 5: CPS vs call/cc vs call/1cc thread systems
//!   tak            §4: tak with a capture+invoke per call
//!   overflow       §4: deep recursion, overflow as call/1cc vs call/cc
//!   frames         §5: closures per frame, direct vs CPS
//!   cache          §3.2 ablation: segment cache on/off
//!   hysteresis     §3.2 ablation: overflow hysteresis on/off
//!   fragmentation  §3.4: fresh-segment vs seal-with-pad residency
//!   promotion      §3.3: eager-walk vs shared-flag promotion
//!   dispatch       E9: dispatch cost, superinstruction fusion on/off
//!   gc             E10: segregated-pool heap under a threshold sweep
//!   e11            E11: worker-pool throughput/latency, workers x fuel slice
//!   chaos          E12: recovery rate under seeded fault schedules
//!   e13            E13: reactor — loopback echo + timer storms, 10k+ green threads
//!   e14            E14: value representation — word sizes, segment-copy cost,
//!                  fused paper workloads (optionally vs `--baseline PATH`)
//!   e15            E15: reactor scaling — poll vs epoll blocked-fd curves,
//!                  timer-storm lateness, shared-listener echo throughput
//!   e16            E16: delimited control — native prompts vs the call/1cc
//!                  coroutine encoding (same-answer differential, instruction
//!                  counts, captured-segment bytes)
//!   e17            E17: fault-tolerant serving — seeded chaos-serve sweeps on
//!                  both backends, overload shedding, worker supervision
//!   all            everything above
//! ```
//!
//! `--paper` uses the paper's full parameters (fib 20, up to 1000 threads,
//! frequencies to 512); the default is a scaled-down sweep with the same
//! shape that finishes in a few minutes. `--max-workers N` drops E11 sweep
//! points above N workers (for CI smoke runs on small machines).
//! `--baseline PATH` points E14 at an earlier experiments JSON (a `dispatch`
//! or `e14` run from a previous revision at the same scale) and reports
//! per-workload speedups, an instruction-identity check, and the geomean.
//! `--max-fds N` caps E15's fd appetite (default: the process `RLIMIT_NOFILE`
//! soft limit); clamped sweep points record requested vs actual.
//!
//! Alongside the printed tables the binary writes a machine-readable
//! report — per-experiment control-event counts (captures, reinstatements,
//! overflows, slots copied, ...) next to every wall-clock number — to
//! `experiments.json`, or to the path given with `--json PATH`. Both come
//! from each row type's one column declaration ([`Row`]).
//!
//! An unknown experiment, an unknown flag, or a flag missing its value
//! exits with status 2; a report that cannot be written exits with 1.

use oneshot_bench::experiments::{
    cache_experiment, chaos_experiment, chaos_overhead, dispatch_experiment, e15_experiment,
    e16_experiment, e17_experiment, exec_experiment, figure5, fragmentation_experiment,
    frame_overhead, gc_experiment, hysteresis_experiment, overflow_experiment,
    promotion_experiment, reactor_experiment, tak_experiment, value_rep_experiment, DispatchScale,
    E15Scale, E16Scale, E17Scale, ExecScale, GcScale, ReactorScale,
};
use oneshot_bench::measure::render_table;
use oneshot_bench::metrics::{Cell, Col, Json, Report, Row};
use oneshot_threads::Strategy;

struct Scale {
    fib_n: u32,
    threads: Vec<usize>,
    freqs: Vec<u64>,
    tak: (i64, i64, i64),
    deep_rounds: u64,
    deep_depth: u64,
}

impl Scale {
    fn quick() -> Self {
        Scale {
            fib_n: 15,
            threads: vec![10, 100],
            freqs: vec![1, 2, 4, 8, 16, 32, 64, 128],
            tak: (16, 8, 0),
            deep_rounds: 5,
            deep_depth: 200_000,
        }
    }

    fn paper() -> Self {
        Scale {
            fib_n: 20,
            threads: vec![10, 100, 1000],
            freqs: vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512],
            tak: (18, 12, 6),
            deep_rounds: 5,
            deep_depth: 1_000_000,
        }
    }
}

/// The parsed command line.
struct Opts {
    paper: bool,
    scale: Scale,
    max_workers: Option<usize>,
    baseline: Option<String>,
    max_fds: usize,
}

/// Runs one experiment: prints its tables and prose, returns its JSON.
type Runner = fn(&Opts) -> Json;

/// Every experiment: its command, its key in `experiments.json`, and its
/// runner. `all` runs them in this order.
const COMMANDS: &[(&str, &str, Runner)] = &[
    ("tak", "tak", |o| run_tak(&o.scale)),
    ("overflow", "overflow", |o| run_overflow(&o.scale)),
    ("frames", "frames", |_| run_frames()),
    ("cache", "cache", |o| run_cache(&o.scale)),
    ("hysteresis", "hysteresis", |_| run_hysteresis()),
    ("fragmentation", "fragmentation", |_| run_fragmentation()),
    ("promotion", "promotion", |_| run_promotion()),
    ("dispatch", "dispatch", |o| run_dispatch(o.paper)),
    ("gc", "gc", |o| run_gc(o.paper)),
    ("e11", "exec", |o| run_exec(o.paper, o.max_workers)),
    ("chaos", "chaos", |o| run_chaos(o.paper)),
    ("e13", "reactor", |o| run_reactor(o.paper, o.max_workers)),
    ("e14", "value_rep", |o| run_value_rep(o.paper, o.baseline.as_deref())),
    ("e15", "reactor_scaling", |o| run_e15(o.paper, o.max_workers, o.max_fds)),
    ("e16", "delimited", |o| run_e16(o.paper)),
    ("e17", "fault_tolerance", |o| run_e17(o.paper, o.max_workers)),
    ("figure5", "figure5", |o| run_figure5(&o.scale)),
];

/// Prints `msg` and exits 2, the usage-error status.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut paper, mut cmd, mut json_path) = (false, None, "experiments.json".to_string());
    let (mut max_workers, mut baseline, mut max_fds) = (None, None, None);
    while let Some(arg) = args.next() {
        let mut value =
            || args.next().unwrap_or_else(|| usage_error(&format!("{arg} needs a value")));
        let number = |v: String| -> usize {
            v.parse().unwrap_or_else(|_| usage_error(&format!("{arg} needs a number, got {v:?}")))
        };
        match arg.as_str() {
            "--paper" => paper = true,
            "--json" => json_path = value(),
            "--max-workers" => max_workers = Some(number(value())),
            "--baseline" => baseline = Some(value()),
            "--max-fds" => max_fds = Some(number(value())),
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag {flag:?}")),
            _ if cmd.is_none() => cmd = Some(arg),
            _ => usage_error(&format!("unexpected argument {arg:?}")),
        }
    }
    let opts = Opts {
        paper,
        scale: if paper { Scale::paper() } else { Scale::quick() },
        max_workers,
        baseline,
        max_fds: max_fds.unwrap_or_else(default_max_fds),
    };
    let cmd = cmd.unwrap_or_else(|| "all".to_string());
    let selected: Vec<_> =
        COMMANDS.iter().filter(|(name, ..)| cmd == "all" || cmd == *name).collect();
    if selected.is_empty() {
        usage_error(&format!("unknown experiment {cmd:?}"));
    }
    let report: Vec<(String, Json)> =
        selected.iter().map(|(_, key, run)| (key.to_string(), run(&opts))).collect();

    let doc = Json::obj([
        ("schema", Json::str("oneshot-experiments/v10")),
        ("scale", Json::str(if paper { "paper" } else { "quick" })),
        ("experiments", Json::Obj(report)),
    ]);
    if let Err(e) = std::fs::write(&json_path, doc.render()) {
        eprintln!("\ncould not write {json_path}: {e}");
        std::process::exit(1);
    }
    println!("\nwrote {json_path}");
}

fn run_figure5(scale: &Scale) -> Json {
    println!("\n== E1 / Figure 5: thread systems (fib {} per thread; times in ms) ==", scale.fib_n);
    let mut all_points = Vec::new();
    for &threads in &scale.threads {
        println!("\n-- {threads} threads --");
        let points = figure5(&[threads], &scale.freqs, scale.fib_n);
        let mut rows = Vec::new();
        for &freq in &scale.freqs {
            let get = |s: Strategy| {
                points.iter().find(|p| p.freq == freq && p.strategy == s).map_or(f64::NAN, |p| p.ms)
            };
            let cps = get(Strategy::Cps);
            let cc = get(Strategy::CallCc);
            let one = get(Strategy::Call1Cc);
            let fastest = if cps < cc.min(one) {
                "cps"
            } else if one <= cc {
                "call/1cc"
            } else {
                "call/cc"
            };
            rows.push(vec![
                freq.to_string(),
                format!("{cps:.1}"),
                format!("{cc:.1}"),
                format!("{one:.1}"),
                fastest.to_string(),
            ]);
        }
        println!(
            "{}",
            render_table(&["calls/switch", "cps", "call/cc", "call/1cc", "fastest"], &rows)
        );
        all_points.extend(points);
    }
    println!("Expected shape: call/1cc <= call/cc everywhere; CPS wins only at the");
    println!("most rapid switch rates (paper: more often than every 4-8 calls).");
    Json::obj([
        ("fib_n", Json::int(u64::from(scale.fib_n))),
        ("points", Report::new(&all_points).json()),
    ])
}

fn run_tak(scale: &Scale) -> Json {
    let (x, y, z) = scale.tak;
    println!("\n== E2 / §4: (ctak {x} {y} {z}) — capture+invoke per call ==");
    let report = Report::new(&tak_experiment(x, y, z));
    println!("{}", report.table());
    println!("Paper: call/1cc 13% faster, 23% less allocation.");
    Json::obj([
        ("args", Json::Arr(vec![Json::int(x as u64), Json::int(y as u64), Json::int(z as u64)])),
        ("rows", report.json()),
    ])
}

fn run_overflow(scale: &Scale) -> Json {
    println!(
        "\n== E3 / §4: deep recursion ({} rounds x depth {}), overflow policy ==",
        scale.deep_rounds, scale.deep_depth
    );
    let report = Report::new(&overflow_experiment(scale.deep_rounds, scale.deep_depth));
    println!("{}", report.table());
    println!("Paper: one-shot overflow handling ~300% faster on this extreme case,");
    println!("allocating almost nothing after the first round (cache hits).");
    Json::obj([
        ("rounds", Json::int(scale.deep_rounds)),
        ("depth", Json::int(scale.deep_depth)),
        ("rows", report.json()),
    ])
}

fn run_frames() -> Json {
    println!("\n== E4 / §5: closure-creation overhead per frame, direct vs CPS ==");
    let report = Report::new(&frame_overhead());
    println!("{}", report.table());
    println!("Paper (vs Appel-Shao): the stack compiler's closure overhead is ~0");
    println!("(boyer allocates no closures at all); CPS pays >=1 per non-tail call.");
    report.json()
}

fn run_cache(scale: &Scale) -> Json {
    let (x, y, z) = scale.tak;
    println!("\n== E5 / §3.2 ablation: segment cache, (ctak {x} {y} {z}) with call/1cc ==");
    let report = Report::new(&cache_experiment(x, y, z));
    println!("{}", report.table());
    println!("Paper: without the cache, call/1cc programs were \"unacceptably slow\".");
    report.json()
}

fn run_hysteresis() -> Json {
    println!("\n== E6 / §3.2 ablation: overflow hysteresis (boundary-hovering recursion) ==");
    let report = Report::new(&hysteresis_experiment(20_000));
    println!("{}", report.table());
    println!("Paper: copying up a few frames on overflow prevents bouncing.");
    report.json()
}

fn run_fragmentation() -> Json {
    println!("\n== E7 / §3.4: resident stack memory for 100 call/1cc threads ==");
    let report = Report::new(&fragmentation_experiment(100));
    println!("{}", report.table());
    println!("Paper: 100 threads x 16KB default stacks = 1.6MB mostly wasted;");
    println!("sealing at a displacement above the occupied portion bounds it.");
    report.json()
}

fn run_dispatch(paper: bool) -> Json {
    let scale = if paper { DispatchScale::paper() } else { DispatchScale::quick() };
    println!("\n== E9: dispatch cost — flat code + superinstruction fusion on/off ==");
    let rows = dispatch_experiment(scale);
    let names: Vec<&'static str> = {
        let mut seen = Vec::new();
        for r in &rows {
            if !seen.contains(&r.name) {
                seen.push(r.name);
            }
        }
        seen
    };
    let mut table = Vec::new();
    let mut workloads_json = Vec::new();
    for name in names {
        let unfused = rows.iter().find(|r| r.name == name && !r.fused).expect("unfused row");
        let fused = rows.iter().find(|r| r.name == name && r.fused).expect("fused row");
        let speedup = unfused.ms / fused.ms;
        table.push(vec![
            name.to_string(),
            format!("{:.1}", unfused.ms),
            format!("{:.1}", fused.ms),
            format!("{speedup:.2}x"),
            unfused.instructions.to_string(),
            fused.instructions.to_string(),
            format!("{:.1}", unfused.ns_per_instruction()),
            format!("{:.1}", fused.ns_per_instruction()),
        ]);
        let row_json = |r: &oneshot_bench::experiments::DispatchRow| {
            Json::obj([
                ("ms", Json::Num(r.ms)),
                ("instructions", Json::int(r.instructions)),
                ("ns_per_instruction", Json::Num(r.ns_per_instruction())),
            ])
        };
        workloads_json.push(Json::obj([
            ("name", Json::str(name)),
            ("unfused", row_json(unfused)),
            ("fused", row_json(fused)),
            ("speedup", Json::Num(speedup)),
        ]));
    }
    println!(
        "{}",
        render_table(
            &[
                "workload",
                "unfused-ms",
                "fused-ms",
                "speedup",
                "unfused-instr",
                "fused-instr",
                "unfused-ns/i",
                "fused-ns/i"
            ],
            &table
        )
    );
    println!("Fusion halves dispatch on the hottest pairs (compare+branch, return-of-");
    println!("local, immediate arithmetic); results and control events are identical.");
    Json::obj([
        ("scale", Json::str(if paper { "paper" } else { "quick" })),
        ("reps", Json::int(u64::from(scale.reps))),
        ("workloads", Json::Arr(workloads_json)),
    ])
}

fn run_gc(paper: bool) -> Json {
    let scale = if paper { GcScale::paper() } else { GcScale::quick() };
    println!("\n== E10: segregated-pool heap — collection-threshold sweep ==");
    let rows = gc_experiment(&scale);
    let report = Report::new(&rows);
    println!("{}", report.table());
    println!("Expected shape: identical results and allocation volume down each");
    println!("workload's column; only collections/sweep time vary with the threshold.");
    for r in &rows {
        assert!(!r.leaked, "{} leaked at threshold {}", r.name, r.gc_threshold);
    }
    Json::obj([
        ("scale", Json::str(if paper { "paper" } else { "quick" })),
        ("rows", report.json()),
    ])
}

fn run_exec(paper: bool, max_workers: Option<usize>) -> Json {
    let mut scale = if paper { ExecScale::paper() } else { ExecScale::quick() };
    if let Some(max) = max_workers {
        scale.clamp_workers(max);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "\n== E11: worker pool — {} mixed jobs (fib/ctak/deep/io) per cell, {cores} core(s) ==",
        scale.jobs()
    );
    let rows = exec_experiment(&scale);
    let report = Report::new(&rows);
    println!("{}", report.table());
    if let Some(one) = rows.iter().find(|r| r.workers == 1) {
        let widest = rows
            .iter()
            .filter(|r| r.fuel_slice == one.fuel_slice)
            .max_by_key(|r| r.workers)
            .expect("the 1-worker row itself matches");
        if widest.workers > 1 {
            println!(
                "Scaling at fuel-slice {}: {:.2}x throughput from 1 to {} workers.",
                one.fuel_slice,
                widest.throughput / one.throughput,
                widest.workers
            );
        }
    }
    println!("Expected shape: throughput grows with workers (the io jobs release the");
    println!("core while sleeping); small slices buy p99 latency at some wall cost;");
    println!("slots-copied stays near 0 — engine preemption is one-shot capture,");
    println!("so only overflow hysteresis on the deep jobs copies anything.");
    Json::obj([
        ("scale", Json::str(if paper { "paper" } else { "quick" })),
        ("cores", Json::int(cores as u64)),
        ("jobs_per_cell", Json::int(scale.jobs() as u64)),
        ("rows", report.json()),
    ])
}

fn run_chaos(paper: bool) -> Json {
    let horizons: &[u64] = &[500, 5_000, 50_000];
    let seeds: u64 = if paper { 400 } else { 48 };
    println!(
        "\n== E12: chaos sweep — {} seeded fault schedules per cell, workload x horizon ==",
        seeds
    );
    let report = Report::new(&chaos_experiment(horizons, seeds));
    println!("{}", report.table());
    let (baseline_ms, guarded_ms) = chaos_overhead(if paper { 200 } else { 40 });
    println!(
        "Guard overhead (armed, never tripping): {baseline_ms:.3} ms -> {guarded_ms:.3} ms \
         per run ({:+.1}%).",
        (guarded_ms / baseline_ms - 1.0) * 100.0
    );
    println!("Expected shape: recovery stays near 1.0 — the guard catches nearly every");
    println!("schedule (the uncaught tail is faults firing before the guard installs);");
    println!("denser faults (small horizon) raise recovered counts, and the armed-but-");
    println!("quiet guards cost low single-digit percent.");
    Json::obj([
        ("seeds_per_cell", Json::int(seeds)),
        ("overhead_baseline_ms", Json::Num(baseline_ms)),
        ("overhead_guarded_ms", Json::Num(guarded_ms)),
        ("rows", report.json()),
    ])
}

fn run_reactor(paper: bool, max_workers: Option<usize>) -> Json {
    let mut scale = if paper { ReactorScale::paper() } else { ReactorScale::quick() };
    if let Some(max) = max_workers {
        scale.clamp_workers(max);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "\n== E13: reactor — loopback echo ({} rounds/conn) + timer storms, {cores} core(s) ==",
        scale.echo_rounds
    );
    let rows = reactor_experiment(&scale);
    let report = Report::new(&rows);
    println!("{}", report.table());
    if let Some(peak) = rows.iter().max_by_key(|r| r.green_threads) {
        println!(
            "Peak concurrency: {} green threads ({}) on {} worker(s); \
             single-worker blocked highwater {}.",
            peak.green_threads, peak.mode, peak.workers, peak.blocked_highwater
        );
    }
    println!("Expected shape: every op verifies with zero failures and zero leaked");
    println!("sockets/segments; a blocked connection is a sealed one-shot continuation,");
    println!("so green-thread counts far beyond the worker count cost memory, not");
    println!("threads; echo latency (p50 vs p99) measures reactor requeue fairness and");
    println!("timer-storm lateness stays small against the requested wait.");
    Json::obj([
        ("scale", Json::str(if paper { "paper" } else { "quick" })),
        ("cores", Json::int(cores as u64)),
        ("echo_rounds", Json::int(scale.echo_rounds as u64)),
        ("rows", report.json()),
    ])
}

/// The process `RLIMIT_NOFILE` soft limit from `/proc/self/limits`, or a
/// conservative 1024 when it cannot be read — E15's default fd budget.
fn default_max_fds() -> usize {
    std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Max open files"))
                .and_then(|l| l.split_whitespace().nth(3).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(1024)
}

fn run_e15(paper: bool, max_workers: Option<usize>, max_fds: usize) -> Json {
    let mut scale = if paper { E15Scale::paper() } else { E15Scale::quick() };
    if let Some(max) = max_workers {
        scale.clamp_workers(max);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (storm_jobs, storm_waits, storm_wait_ms) = scale.storm;
    println!(
        "\n== E15: reactor scaling — poll vs epoll, {max_fds}-fd budget, \
         {storm_jobs}x{storm_waits} timer waits @ {storm_wait_ms} ms, {cores} core(s) =="
    );
    let rows = e15_experiment(&scale, max_fds);
    let report = Report::new(&rows);
    println!("{}", report.table());
    // The headline curve: probe round-trip p50 as the parked-fd count
    // grows — poll's wake cost is O(blocked), epoll's O(ready).
    for backend in ["poll", "epoll"] {
        let curve: Vec<String> = rows
            .iter()
            .filter(|r| r.mode == "blocked-probe" && r.backend == backend)
            .map(|r| format!("{} parked: {:.0} us", r.actual, r.p50_us))
            .collect();
        println!("Probe p50 vs parked fds [{backend}]: {}", curve.join(", "));
    }
    // The storm's reactor-side lateness histograms, and the plumbing
    // invariant: identical guest instruction counts per cell.
    let bounds: Vec<String> = oneshot_exec::WAKE_LATENESS_BUCKETS_MS
        .iter()
        .map(|b| format!("<{b}ms"))
        .chain(std::iter::once("tail".to_string()))
        .collect();
    for r in rows.iter().filter(|r| r.mode == "timer-storm") {
        let cells: Vec<String> =
            bounds.iter().zip(&r.wake_lateness).map(|(b, n)| format!("{b}:{n}")).collect();
        println!(
            "Storm lateness [{} w={}]: {} (mean p50 {:.0} us/wait)",
            r.backend,
            r.workers,
            cells.join(" "),
            r.p50_us
        );
    }
    for r in rows.iter().filter(|r| r.backend == "poll") {
        if let Some(twin) = rows.iter().find(|t| {
            t.backend == "epoll"
                && t.mode == r.mode
                && t.workers == r.workers
                && t.requested == r.requested
        }) {
            if r.mode == "timer-storm" && r.instructions != twin.instructions {
                // Exact identity is the single-worker invariant; with
                // stealing in play slice re-entries are scheduling-
                // dependent, so multi-worker runs drift by a hair.
                let drift =
                    (r.instructions.abs_diff(twin.instructions)) as f64 / r.instructions as f64;
                if r.workers == 1 || drift > 0.001 {
                    println!(
                        "WARNING: {} w={} instruction counts diverge across backends: \
                         poll {} vs epoll {} ({:.4}%)",
                        r.mode,
                        r.workers,
                        r.instructions,
                        twin.instructions,
                        100.0 * drift
                    );
                } else {
                    println!(
                        "Storm instructions w={}: poll {} vs epoll {} \
                         ({:.4}% scheduling drift; exact at 1 worker)",
                        r.workers,
                        r.instructions,
                        twin.instructions,
                        100.0 * drift
                    );
                }
            }
            if r.mode == "serve-echo" {
                println!(
                    "Serve throughput w={}: epoll {:.0} ops/s vs poll {:.0} ops/s ({:.2}x); \
                     accepts/worker {:?}, accept-queue highwater {}",
                    r.workers,
                    twin.throughput,
                    r.throughput,
                    twin.throughput / r.throughput,
                    twin.accepts_per_worker,
                    twin.accept_queue_highwater
                );
            }
        }
    }
    println!("Expected shape: the probe's per-round-trip cost climbs with parked fds");
    println!("under poll (every wake rebuilds and scans the whole interest set) and");
    println!("stays flat under epoll (the kernel hands over only the ready fd); storm");
    println!("lateness concentrates in the lowest buckets; the shared listener spreads");
    println!("accepts evenly; and every cell drains with zero leaks on both backends.");
    Json::obj([
        ("scale", Json::str(if paper { "paper" } else { "quick" })),
        ("cores", Json::int(cores as u64)),
        ("max_fds", Json::int(max_fds as u64)),
        (
            "wake_lateness_bounds_ms",
            Cell::Ints(oneshot_exec::WAKE_LATENESS_BUCKETS_MS.to_vec()).json(),
        ),
        ("rows", report.json()),
    ])
}

fn run_e16(paper: bool) -> Json {
    let scale = if paper { E16Scale::paper() } else { E16Scale::quick() };
    println!(
        "\n== E16: delimited control — native prompts vs the call/1cc coroutine encoding \
         (pipeline {}x{}, generator {}, sampler {}@{}) ==",
        scale.pipeline_n,
        scale.pipeline_stages,
        scale.generator_n,
        scale.sampler_n,
        scale.sampler_depth
    );
    let rows = e16_experiment(scale);
    let report = Report::new(&rows);
    println!("{}", report.table());
    // The differential and the headline ratios, per workload pair.
    let mut pairs_json = Vec::new();
    for pair in rows.chunks(2) {
        let (native, one_shot) = (&pair[0], &pair[1]);
        let same = native.answer == one_shot.answer;
        let instr_ratio =
            one_shot.m.delta.instructions as f64 / native.m.delta.instructions.max(1) as f64;
        let bytes_ratio = one_shot.captured_bytes() as f64 / native.captured_bytes().max(1) as f64;
        println!(
            "{:9}: answers {} ({}); call/1cc retires {instr_ratio:.2}x the instructions and \
             seals {bytes_ratio:.1}x the bytes",
            native.workload,
            if same { "agree" } else { "DISAGREE" },
            native.answer,
        );
        pairs_json.push(Json::obj([
            ("workload", Json::str(native.workload)),
            ("same_answer", Json::Bool(same)),
            ("answer", Json::str(native.answer.clone())),
            ("instruction_ratio", Json::Num(instr_ratio)),
            ("captured_bytes_ratio", Json::Num(bytes_ratio)),
        ]));
    }
    println!(
        "Expected shape: native wins instructions and captured bytes on the \
         suspension-dominated workloads (pipeline, generator) — the delimited \
         take seals only the producer's slice, the full capture the whole span."
    );
    Json::obj([("rows", report.json()), ("differential", Json::Arr(pairs_json))])
}

fn run_e17(paper: bool, max_workers: Option<usize>) -> Json {
    let mut scale = if paper { E17Scale::paper() } else { E17Scale::quick() };
    if let Some(max) = max_workers {
        scale.clamp_workers(max);
    }
    println!(
        "\n== E17: fault-tolerant serving — {} seeded chaos-serve schedules per backend \
         (horizon {}, {} conns/seed, {} workers), overload burst {}, supervision drill ==",
        scale.seeds, scale.horizon, scale.conns, scale.workers, scale.overload_burst
    );
    let rows = e17_experiment(&scale);
    let report = Report::new(&rows);
    println!("{}", report.table());
    for backend in ["poll", "epoll"] {
        if let Some(r) = rows.iter().find(|r| r.mode == "chaos-serve" && r.backend == backend) {
            println!(
                "Chaos [{backend}]: {} seeds, {} faults injected, {} answered / {} degraded \
                 of {} conns, 0 leaks — every connection resolved",
                r.seeds, r.faults_injected, r.answered, r.degraded, r.conns
            );
        }
    }
    Json::obj([("rows", report.json())])
}

/// Pulls `(name, ms, instructions)` baseline rows out of an earlier
/// experiments document: either an `e14` report's own rows or the fused
/// side of a `dispatch` run (the E14 workloads are the E9 fused cases, so
/// any pre-change `dispatch` JSON at the same scale is a valid baseline).
fn baseline_workloads(doc: &Json) -> Vec<(String, f64, u64)> {
    let Some(exps) = doc.get("experiments") else { return Vec::new() };
    let mut out = Vec::new();
    if let Some(rows) = exps.get("value_rep").and_then(|vr| vr.get("rows")).and_then(Json::as_arr) {
        for r in rows {
            if let (Some(name), Some(ms), Some(instructions)) = (
                r.get("name").and_then(Json::as_str),
                r.get("ms").and_then(Json::as_f64),
                r.get("instructions").and_then(Json::as_u64),
            ) {
                out.push((name.to_string(), ms, instructions));
            }
        }
    } else if let Some(workloads) =
        exps.get("dispatch").and_then(|d| d.get("workloads")).and_then(Json::as_arr)
    {
        for w in workloads {
            if let (Some(name), Some(fused)) =
                (w.get("name").and_then(Json::as_str), w.get("fused"))
            {
                if let (Some(ms), Some(instructions)) = (
                    fused.get("ms").and_then(Json::as_f64),
                    fused.get("instructions").and_then(Json::as_u64),
                ) {
                    out.push((name.to_string(), ms, instructions));
                }
            }
        }
    }
    out
}

fn run_value_rep(paper: bool, baseline: Option<&str>) -> Json {
    let scale = if paper { DispatchScale::paper() } else { DispatchScale::quick() };
    println!("\n== E14: value representation — NaN-boxed word on the paper workloads ==");
    let measured = value_rep_experiment(scale);
    println!(
        "value word: {} bytes; stack slot: {} bytes; segment copy: {:.3} ns/slot",
        measured.value_word_bytes, measured.slot_bytes, measured.segment_copy_ns_per_slot
    );
    let base = baseline.map(|path| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("could not read baseline {path}: {e}"));
        let doc =
            Json::parse(&text).unwrap_or_else(|e| panic!("could not parse baseline {path}: {e}"));
        let rows = baseline_workloads(&doc);
        assert!(!rows.is_empty(), "baseline {path} has no dispatch/e14 workload rows");
        rows
    });

    let mut speedups = Vec::new();
    let mut instructions_identical = true;
    let report = Report::from_columns(measured.rows.iter().map(|r| {
        let found = base
            .as_deref()
            .and_then(|rows| rows.iter().find(|(name, _, _)| name == r.name))
            .map(|&(_, ms, instructions)| (ms, instructions));
        let mut cols = r.columns();
        if let Some((base_ms, base_instructions)) = found {
            let speedup = base_ms / r.ms;
            // The representation must not change what the compiler emits
            // or how often control events fire — only how fast the same
            // instruction stream retires. fig5-loop runs a scheduler on
            // wall-clock-dependent switch points, so only the four
            // deterministic workloads assert identity strictly.
            let identical = base_instructions == r.instructions;
            instructions_identical &= identical;
            speedups.push(speedup);
            cols.extend([
                Col::both("baseline_ms", "baseline-ms", Cell::Num(base_ms, 1)),
                Col::json("baseline_instructions", base_instructions),
                Col::json("speedup", Cell::Num(speedup, 2)),
                Col::shown("speedup", format!("{speedup:.2}x")),
                Col::both("instructions_identical", "instr-identical", identical),
            ]);
        } else {
            cols.extend(["baseline-ms", "speedup", "instr-identical"].map(|h| Col::shown(h, "-")));
        }
        cols
    }));
    println!("{}", report.table());

    let geomean = (!speedups.is_empty()).then(|| {
        let log_sum: f64 = speedups.iter().map(|s| s.ln()).sum();
        (log_sum / speedups.len() as f64).exp()
    });
    if let Some(g) = geomean {
        println!(
            "Geomean speedup vs baseline: {g:.3}x across {} workloads; \
             instruction counts identical: {instructions_identical}.",
            speedups.len()
        );
    } else {
        println!("No baseline given (--baseline PATH): absolute numbers only.");
    }
    println!("Expected shape: the 8-byte word shrinks every stack slot and pool");
    println!("payload, so the same instruction streams retire faster and segment");
    println!("copies move fewer bytes; instruction counts must not move at all.");

    let mut fields = vec![
        ("scale", Json::str(if paper { "paper" } else { "quick" })),
        ("reps", Json::int(u64::from(scale.reps))),
        ("value_word_bytes", Json::int(measured.value_word_bytes)),
        ("slot_bytes", Json::int(measured.slot_bytes)),
        ("segment_copy_ns_per_slot", Json::Num(measured.segment_copy_ns_per_slot)),
        ("rows", report.json()),
    ];
    if let Some(g) = geomean {
        fields.push(("geomean_speedup", Json::Num(g)));
        fields.push(("instructions_identical", Json::Bool(instructions_identical)));
    }
    Json::obj(fields)
}

fn run_promotion() -> Json {
    println!("\n== E8 / §3.3: promotion of one-shot chains by one call/cc ==");
    let rows: Vec<_> = [10usize, 100, 1000].into_iter().flat_map(promotion_experiment).collect();
    let report = Report::new(&rows);
    println!("{}", report.table());
    println!("Paper: the eager walk is linear in the chain (amortized: each one-shot");
    println!("promotes once); the proposed shared flag promotes a whole chain in O(1).");
    report.json()
}
