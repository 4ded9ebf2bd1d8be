//! The repository benchmark: four workloads that load the oneshot
//! workspace end to end, and a traced mode that times the calls the
//! benchmark makes into each layer.
//!
//! * [`paper`] — one VM runs the paper's programs in a seeded order;
//! * [`jobs`] — `Pool::submit` of short seeded programs in a closed loop;
//! * [`echo`] — `Pool::serve` with the echo handler, driven over loopback;
//! * [`park`] — cycles of jobs parked in `timer-wait`.
//!
//! A run is a fixed amount of work scaled by `--seconds` (calibrated so it
//! takes about that long at the commit that defined the benchmark on a
//! 2-core host), so a faster or slower build does the same work and the
//! memory metrics do not depend on speed. See `README.md` beside this
//! crate for each workload's rationale and the map from per-layer metric
//! to end-to-end metric.

#![deny(unsafe_code)] // exceptions: the C library calls in `host`

pub mod echo;
pub mod host;
pub mod jobs;
pub mod paper;
pub mod park;
pub mod pooled;
pub mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use trace::Trace;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["paper", "jobs", "echo", "park"];

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("success_rate", "ratio"),
    ("rss_peak_mb", "MB"),
    ("bytes_per_parked", "B"),
];

/// Per-layer metrics (`--trace 1`): name and unit. Every workload prints
/// every one; a layer a workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sexp.read_us", "us"),
    ("compiler.compile_us", "us"),
    ("compiler.ops_per_job", "count"),
    ("vm.link_us", "us"),
    ("vm.instructions_per_op", "count"),
    ("vm.calls_per_op", "count"),
    ("vm.ns_per_instruction", "ns"),
    ("runtime.words_allocated_per_op", "count"),
    ("runtime.gc_collections_per_op", "count"),
    ("runtime.gc_pause_us_per_op", "us"),
    ("runtime.gc_max_pause_us", "us"),
    ("runtime.heap_peak_live", "count"),
    ("core.captures_one_per_op", "count"),
    ("core.captures_multi_per_op", "count"),
    ("core.reinstates_one_per_op", "count"),
    ("core.reinstates_multi_per_op", "count"),
    ("core.slots_copied_per_op", "count"),
    ("core.overflows_per_op", "count"),
    ("core.underflows_per_op", "count"),
    ("core.segment_cache_hit_ratio", "ratio"),
    ("core.segment_bytes_highwater", "B"),
    ("core.live_segments_per_parked", "count"),
    ("threads.slices_per_job", "count"),
    ("threads.requeues_per_job", "count"),
    ("exec.submit_us", "us"),
    ("exec.generator_busy_share", "ratio"),
    ("exec.queue_depth_highwater", "count"),
    ("exec.io_blocked_per_op", "count"),
    ("exec.io_wakeups_per_block", "count"),
    ("exec.accept_us", "us"),
    ("exec.accept_queue_highwater", "count"),
    ("exec.wake_lateness_1ms", "ratio"),
    ("exec.wake_lateness_5ms", "ratio"),
    ("exec.wake_lateness_20ms", "ratio"),
    ("exec.wake_lateness_100ms", "ratio"),
    ("exec.wake_lateness_500ms", "ratio"),
    ("exec.wake_lateness_tail", "ratio"),
    ("exec.blocked_highwater", "count"),
    ("trace.untraced_ops_s", "1/s"),
    ("trace.traced_ops_s", "1/s"),
    ("trace.overhead_pct", "%"),
    ("trace.residual_us_per_op", "us"),
    ("trace.residual_share", "ratio"),
    ("host.cpu_s", "s"),
    ("host.steal_ticks", "count"),
    ("host.wall_s", "s"),
];

/// How often a run's generator thread moves to the next core (see
/// [`host::CoreRotation`]).
pub const ROTATE_EVERY: std::time::Duration = std::time::Duration::from_millis(250);

/// Setups per run. `setup_s` is the median over consecutive pairs of the
/// pair's mean: `paper` alternates cores between setups (see
/// [`host::CoreRotation`]), and on a 2-core host whose cores run at
/// different speeds a plain median would land on whichever core held the
/// middle setup.
pub const SETUPS: usize = 20;

/// Pool workers. With the one generator thread this keeps the benchmark's
/// busy threads at 2, the core count of the host it was calibrated on.
pub const WORKERS: usize = 1;

/// The command line: `--workload NAME --seed N --seconds S --trace 0|1`.
#[derive(Debug, Clone)]
pub struct Config {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed for every generated input.
    pub seed: u64,
    /// Scales the run's fixed amount of work (fractions allowed, for
    /// smoke tests).
    pub seconds: f64,
    /// Per-layer run (`true`) or end-to-end run.
    pub trace: bool,
}

impl Config {
    /// Parses the arguments after the program name.
    ///
    /// # Errors
    ///
    /// A missing, unknown, or malformed argument.
    pub fn parse(args: &[String]) -> Result<Config, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(val.clone()),
                "--seed" => seed = val.parse().map_err(|_| format!("bad --seed {val}"))?,
                "--seconds" => {
                    seconds = val.parse().map_err(|_| format!("bad --seconds {val}"))?;
                }
                "--trace" => {
                    trace = match val.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace {val}")),
                    };
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
        }
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds} out of range"));
        }
        Ok(Config { workload, seed, seconds, trace })
    }

    /// `per_s` units of work per second of `--seconds`, at least one.
    pub fn units(&self, per_s: f64) -> u64 {
        ((per_s * self.seconds).round() as u64).max(1)
    }
}

/// Per-layer values one traced pass measured, by [`PER_LAYER`] name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What one pass of a workload's timed ops measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed: a wrong answer, an error, a refusal, a timeout.
    pub failed: u64,
    /// Every op's latency in µs, in completion order; a failed op is
    /// `INFINITY` until [`Measured::window_s`] is known.
    pub latencies_us: Vec<f64>,
    /// Checkpoints `(ops completed, active seconds)`, both cumulative,
    /// taken after each indivisible unit of work (a paper round, a park
    /// cycle, a job, an echo step).
    pub marks: Vec<(u64, f64)>,
    /// Active seconds so far: the span throughput is counted over.
    pub window_s: f64,
    /// Workload-specific per-layer values (traced passes).
    pub layers: Layers,
    /// Workload-specific context for the run line (per-kind medians, ...).
    pub notes: BTreeMap<String, f64>,
}

/// Slices a run's throughput and latency percentiles are taken over; the
/// reported figure is the median slice, so a burst of host steal in one
/// slice does not move it.
pub const SLICES: usize = 20;

/// Fewest latency samples a slice may hold, so its p99 has at least ten
/// samples beyond it.
pub const SLICE_SAMPLES: usize = 1000;

impl Measured {
    /// Records one op's verdict.
    pub fn record(&mut self, ok: bool, latency_us: f64) {
        self.attempted += 1;
        if ok {
            self.latencies_us.push(latency_us);
        } else {
            self.failed += 1;
            self.latencies_us.push(f64::INFINITY);
        }
    }

    /// Ends a unit of work after `active_s` more seconds of window.
    pub fn mark(&mut self, active_s: f64) {
        self.window_s += active_s;
        self.marks.push((self.attempted - self.failed, self.window_s));
    }

    /// Completed ops per second over the whole window.
    pub fn mean_throughput(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.window_s
    }

    /// Completed ops per second: the median over [`SLICES`] slices of
    /// whole units.
    pub fn throughput(&self) -> f64 {
        let done = self.attempted - self.failed;
        let k = SLICES.min(self.marks.len());
        if k < 2 || done == 0 {
            return self.mean_throughput();
        }
        let mut rates = Vec::with_capacity(k);
        let mut from = (0u64, 0.0f64);
        let mut next = 1;
        for &(ops, t) in &self.marks {
            if ops * k as u64 >= next * done {
                if t > from.1 {
                    rates.push((ops - from.0) as f64 / (t - from.1));
                }
                from = (ops, t);
                next += 1;
            }
        }
        quantile(&rates, 0.5)
    }

    /// The `q`-quantile of op latency in µs: the median over up to
    /// [`SLICES`] consecutive slices of at least [`SLICE_SAMPLES`] ops. A
    /// failed op counts as missing every latency limit: it enters as the
    /// whole window's length.
    pub fn latency(&self, q: f64) -> f64 {
        let window_us = self.window_s * 1e6;
        let lat: Vec<f64> =
            self.latencies_us.iter().map(|&l| if l.is_finite() { l } else { window_us }).collect();
        let k = (lat.len() / SLICE_SAMPLES).clamp(1, SLICES);
        let per = lat.len() / k;
        let slices: Vec<f64> = (0..k)
            .map(|i| quantile(&lat[i * per..if i + 1 == k { lat.len() } else { (i + 1) * per }], q))
            .collect();
        quantile(&slices, 0.5)
    }
}

/// One workload, set up and measured by [`drive`].
pub trait Workload: Sized {
    /// Boots everything the timed ops need (VM or pool, libraries, fixed
    /// programs, listener) and warms it with one small op per kind.
    /// `index` counts this run's setups from 0.
    ///
    /// # Errors
    ///
    /// Anything that stops the workload from running at all.
    fn setup(cfg: &Config, index: usize) -> Result<Self, String>;

    /// Runs the timed ops once, recording spans into `trace`.
    ///
    /// # Errors
    ///
    /// A failure of the harness itself (op failures are counted, not
    /// returned).
    fn measure(&mut self, cfg: &Config, trace: &mut Trace) -> Result<Measured, String>;

    /// Resident bytes per parked green thread (see [`park`]).
    ///
    /// # Errors
    ///
    /// As [`Workload::measure`].
    fn bytes_per_parked(&mut self, cfg: &Config) -> Result<f64, String>;

    /// Stops every thread and connection the workload started.
    ///
    /// # Errors
    ///
    /// A pool that did not shut down cleanly.
    fn teardown(self) -> Result<(), String>;
}

/// A run's result: the last stdout line, plus a line of context before it.
#[derive(Debug)]
pub struct Outcome {
    /// Every op's answer was checked and right.
    pub correct: bool,
    /// Ops attempted in the reported pass.
    pub attempted: u64,
    /// Ops failed in the reported pass.
    pub failed: u64,
    /// Metric name, value, unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Context for reading the run: wall, CPU and steal time, sample
    /// counts, `error_rate`.
    pub context: BTreeMap<String, f64>,
}

impl Outcome {
    /// The result object, one line of JSON.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(*value))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The context line, JSON too.
    pub fn context_json(&self) -> String {
        let fields: Vec<String> =
            self.context.iter().map(|(k, v)| format!("\"{k}\": {}", num(*v))).collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A finite JSON number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The `q`-quantile (0..=1) of `values`, linearly interpolated.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Runs `cfg` to completion. `start` is the process start (main's entry).
///
/// # Errors
///
/// Anything that kept the workload from running; op failures are
/// reported in the outcome instead.
pub fn run(cfg: &Config, start: Instant) -> Result<Outcome, String> {
    match cfg.workload.as_str() {
        "paper" => drive::<paper::Paper>(cfg, start),
        "jobs" => drive::<jobs::Jobs>(cfg, start),
        "echo" => drive::<echo::Echo>(cfg, start),
        "park" => drive::<park::Park>(cfg, start),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Sets `W` up [`SETUPS`] times (tearing each one down before the next,
/// so no two pools run at once), measures the last one, and assembles the
/// metrics.
fn drive<W: Workload>(cfg: &Config, start: Instant) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut ready: Option<W> = None;
    for i in 0..SETUPS {
        if let Some(old) = ready.take() {
            old.teardown()?;
        }
        let t0 = if i == 0 { start } else { Instant::now() };
        ready = Some(W::setup(cfg, i)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut w = ready.expect("at least one setup");

    let ref_before = host::reference_ns();
    let clock = host::HostClock::now();
    let wall0 = Instant::now();
    let plain = w.measure(cfg, &mut Trace::new(false))?;
    let mut traced = None;
    if cfg.trace {
        let mut tr = Trace::new(true);
        let m = w.measure(cfg, &mut tr)?;
        traced = Some((m, tr.summary()));
    }
    // Only the end-to-end metrics include it.
    let bytes_per_parked = if cfg.trace { 0.0 } else { w.bytes_per_parked(cfg)? };
    let rss_peak = host::rss_peak_bytes();
    let wall = wall0.elapsed().as_secs_f64();
    let (cpu_s, steal) = clock.since();
    let ref_after = host::reference_ns();
    w.teardown()?;

    let (attempted, failed) =
        traced.as_ref().map_or((plain.attempted, plain.failed), |(m, _)| (m.attempted, m.failed));
    let mut context = plain.notes.clone();
    for (k, v) in [
        ("wall_s", wall),
        ("cpu_s", cpu_s),
        ("steal_ticks", steal as f64),
        ("host_ref_ns_before", ref_before),
        ("host_ref_ns_after", ref_after),
        ("latency_samples", plain.latencies_us.len() as f64),
        ("throughput_mean_ops_s", plain.mean_throughput()),
        ("error_rate", plain.failed as f64 / plain.attempted.max(1) as f64),
        ("setup_min_s", setup_s.iter().copied().fold(f64::INFINITY, f64::min)),
        ("setup_max_s", setup_s.iter().copied().fold(0.0, f64::max)),
    ] {
        context.insert(k.to_string(), v);
    }

    let metrics = match traced {
        None => end_to_end(&plain, &setup_s, rss_peak, bytes_per_parked),
        Some((m, summary)) => {
            let mut layers = m.layers.clone();
            let from_span = |name: &str| summary.get(name).mean_self_us();
            layers.insert("sexp.read_us", from_span("read_all"));
            layers.insert("compiler.compile_us", from_span("compile_program_with"));
            layers.insert("vm.link_us", from_span("Vm::load_program"));
            layers.insert("exec.submit_us", from_span("Pool::submit"));
            let (fast, slow) = (plain.mean_throughput(), m.mean_throughput());
            layers.insert("trace.untraced_ops_s", fast);
            layers.insert("trace.traced_ops_s", slow);
            layers.insert("trace.overhead_pct", (fast - slow) / fast * 100.0);
            let roots = summary.roots.max(1) as f64;
            layers.insert("trace.residual_us_per_op", summary.root_self_ns as f64 / roots / 1e3);
            layers.insert(
                "trace.residual_share",
                summary.root_self_ns as f64 / summary.root_wall_ns.max(1) as f64,
            );
            layers.insert("host.cpu_s", cpu_s);
            layers.insert("host.steal_ticks", steal as f64);
            layers.insert("host.wall_s", wall);
            context.insert(
                "spans".to_string(),
                summary.by_name.values().map(|s| s.count).sum::<u64>() as f64,
            );
            PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
                .collect()
        }
    };
    Ok(Outcome { correct: plain.failed == 0 && failed == 0, attempted, failed, metrics, context })
}

/// The `--trace 0` metrics.
fn end_to_end(
    m: &Measured,
    setup_s: &[f64],
    rss_peak: u64,
    bytes_per_parked: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let pairs: Vec<f64> =
        setup_s.chunks(2).map(|p| p.iter().sum::<f64>() / p.len() as f64).collect();
    let values = [
        quantile(&pairs, 0.5),
        m.throughput(),
        m.latency(0.5),
        m.latency(0.99),
        1.0 - m.failed as f64 / m.attempted.max(1) as f64,
        rss_peak as f64 / 1e6,
        bytes_per_parked,
    ];
    END_TO_END.iter().zip(values).map(|(&(name, unit), v)| (name, v, unit)).collect()
}

/// Field `key` of a written `(vm-stats)` alist, e.g. `((calls . 12) ...)`.
pub fn vm_stat(alist: &str, key: &str) -> Option<i64> {
    let needle = format!("({key} . ");
    let at = alist.find(&needle)? + needle.len();
    let end = alist[at..].find(')')? + at;
    alist[at..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let cfg = Config::parse(&args("--workload echo --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (cfg.workload.as_str(), cfg.seed, cfg.seconds, cfg.trace),
            ("echo", 7, 10.0, true)
        );
        assert!(Config::parse(&args("--workload nope")).is_err());
        assert!(Config::parse(&args("--seed 1")).is_err());
        assert!(Config::parse(&args("--workload paper --trace 2")).is_err());
        assert!(Config::parse(&args("--workload paper --seconds")).is_err());
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn throughput_and_latency_are_medians_over_slices() {
        let mut m = Measured::default();
        // 20 units of 100 ops each at 1000 ops/s, but one unit stalls 10x.
        for u in 0..20 {
            for _ in 0..100 {
                m.record(true, if u == 7 { 900.0 } else { 100.0 });
            }
            m.mark(if u == 7 { 1.0 } else { 0.1 });
        }
        assert!((m.throughput() - 1000.0).abs() < 1e-6);
        assert!(m.mean_throughput() < 700.0);
        // 2000 samples: two slices of 1000; one holds the stalled unit.
        assert_eq!(m.latency(0.5), 100.0);
        m.record(false, 0.0);
        assert_eq!(m.failed, 1);
        assert!(m.latency(1.0) >= m.window_s * 1e6 / 2.0);
    }

    #[test]
    fn reads_vm_stats_alists() {
        let a = "((instructions . 120) (calls . 7) (gc-pause-ns . 0))";
        assert_eq!(vm_stat(a, "instructions"), Some(120));
        assert_eq!(vm_stat(a, "calls"), Some(7));
        assert_eq!(vm_stat(a, "missing"), None);
    }

    #[test]
    fn outcome_json_has_the_contract_keys() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("setup_s", 0.25, "s")],
            context: BTreeMap::new(),
        };
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
