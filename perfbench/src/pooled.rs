//! What the three pool workloads (`jobs`, `echo`, `park`) share: building
//! and warming the pool, reading a worker VM's counters through the guest
//! `(vm-stats)` API, compiling a job's source under spans, and turning
//! counter deltas into per-layer metrics.

use std::time::Duration;

use oneshot_compiler::compile_program_with;
use oneshot_exec::{JobSpec, Pool, PoolCountersSnapshot, WAKE_LATENESS_BUCKETS_MS};
use oneshot_sexp::read_all;
use oneshot_vm::{CompilerOptions, Pipeline, Slot, Value, Vm};

use crate::trace::{SpanId, Trace};
use crate::{vm_stat, Layers, WORKERS};

/// How long the harness waits for any one reply before counting the op
/// as timed out.
pub const OP_TIMEOUT: Duration = Duration::from_secs(10);

/// The pool's default fuel slice, in procedure calls.
pub const FUEL_SLICE: u64 = 4096;

/// Builds a [`WORKERS`]-worker pool whose workers each hold up to
/// `resident` engine-resident jobs and preempt a job every `fuel_slice`
/// calls, and waits until one job has finished on every worker.
///
/// # Errors
///
/// The pool would not start, or its first jobs failed.
pub fn start(resident: usize, fuel_slice: u64) -> Result<Pool, String> {
    let pool = Pool::builder()
        .workers(WORKERS)
        .resident_cap(resident)
        .fuel_slice(fuel_slice)
        .build()
        .map_err(|e| format!("pool start: {e}"))?;
    for w in 0..WORKERS {
        let out = pool
            .submit(JobSpec::new("warm", "(+ 1 2)").pin(w))
            .map_err(|e| format!("warm submit: {e}"))?
            .wait();
        if out.result.as_deref() != Ok("3") {
            return Err(format!("warm job on worker {w}: {:?}", out.result));
        }
    }
    Ok(pool)
}

/// Shuts `pool` down, draining it.
///
/// # Errors
///
/// The pool did not drain in time.
pub fn stop(pool: Pool) -> Result<(), String> {
    pool.shutdown_timeout(Duration::from_secs(30)).map(|_| ()).map_err(|e| format!("shutdown: {e}"))
}

/// Worker 0's `(vm-stats)` alist, read by a job pinned to it.
///
/// # Errors
///
/// The probe job failed.
pub fn vm_stats(pool: &Pool) -> Result<String, String> {
    pool.submit(JobSpec::new("vm-stats", "(vm-stats)").pin(0))
        .map_err(|e| format!("vm-stats submit: {e}"))?
        .wait()
        .result
        .map_err(|e| format!("vm-stats: {e}"))
}

/// Reads, compiles, and links `src` the way `Pool::submit` and a worker
/// do, each call under its own span, linking into `vm` (for the pool
/// workloads a private VM, so the workers are untouched). Returns the
/// instruction count the compiler emitted and the linked toplevel thunk
/// (not GC-rooted: call it or drop it before running anything else).
/// Runs only in traced passes.
///
/// # Errors
///
/// `src` does not read or compile.
pub fn compile_traced(
    trace: &mut Trace,
    vm: &mut Vm,
    parent: SpanId,
    op: u64,
    src: &str,
) -> Result<(usize, Value), String> {
    let forms = trace.span("read_all", parent, op, || read_all(src)).map_err(|e| e.to_string())?;
    let prog = trace
        .span("compile_program_with", parent, op, || {
            compile_program_with(&forms, Pipeline::Direct, CompilerOptions::default())
        })
        .map_err(|e| e.to_string())?;
    let thunk = trace.span("Vm::load_program", parent, op, || vm.load_program(&prog));
    Ok((prog.codes.iter().map(|c| c.ops.len()).sum(), thunk))
}

/// Counter readings at the two ends of a traced window.
#[derive(Debug, Default)]
pub struct Window {
    /// Worker 0's `(vm-stats)` before and after.
    pub vm: (String, String),
    /// Pool counters before and after.
    pub pool: (PoolCountersSnapshot, PoolCountersSnapshot),
    /// Largest live-object count among the samples taken.
    pub live_max: i64,
    /// Largest resident-slot count among the samples taken.
    pub resident_slots_max: i64,
}

impl Window {
    /// Opens a window: reads both counter sets.
    ///
    /// # Errors
    ///
    /// The `(vm-stats)` probe failed.
    pub fn open(pool: &Pool) -> Result<Window, String> {
        let mut w = Window::default();
        w.vm.0 = vm_stats(pool)?;
        w.pool.0 = pool.stats();
        w.sample(&w.vm.0.clone());
        Ok(w)
    }

    /// Folds one `(vm-stats)` reading into the sampled maxima.
    pub fn sample(&mut self, alist: &str) {
        let get = |k| vm_stat(alist, k).unwrap_or(0);
        self.live_max = self.live_max.max(get("heap-objects") - get("gc-objects-freed"));
        self.resident_slots_max = self.resident_slots_max.max(get("resident-slots"));
    }

    /// Closes the window.
    ///
    /// # Errors
    ///
    /// The `(vm-stats)` probe failed.
    pub fn close(&mut self, pool: &Pool) -> Result<(), String> {
        self.pool.1 = pool.stats();
        self.vm.1 = vm_stats(pool)?;
        self.sample(&self.vm.1.clone());
        Ok(())
    }

    /// Per-layer metrics for `ops` ops over `window_s` seconds.
    pub fn layers(&self, ops: u64, window_s: f64, layers: &mut Layers) {
        let d = |k: &str| {
            (vm_stat(&self.vm.1, k).unwrap_or(0) - vm_stat(&self.vm.0, k).unwrap_or(0)) as f64
        };
        let per_op = |v: f64| v / ops.max(1) as f64;
        let instructions = d("instructions");
        layers.insert("vm.instructions_per_op", per_op(instructions));
        layers.insert("vm.calls_per_op", per_op(d("calls")));
        // The worker's busy time is not visible from outside, so the whole
        // window stands in for it: an upper bound on the pool workloads.
        layers.insert(
            "vm.ns_per_instruction",
            (window_s * 1e9 * WORKERS as f64 - d("gc-pause-ns")) / instructions.max(1.0),
        );
        layers.insert("runtime.words_allocated_per_op", per_op(d("heap-words")));
        layers.insert("runtime.gc_collections_per_op", per_op(d("gc-collections")));
        layers.insert("runtime.gc_pause_us_per_op", per_op(d("gc-pause-ns")) / 1e3);
        layers.insert(
            "runtime.gc_max_pause_us",
            vm_stat(&self.vm.1, "gc-max-pause-ns").unwrap_or(0) as f64 / 1e3,
        );
        layers.insert("runtime.heap_peak_live", self.live_max as f64);
        layers.insert("core.captures_one_per_op", per_op(d("captures-one")));
        layers.insert("core.captures_multi_per_op", per_op(d("captures-multi")));
        layers.insert("core.reinstates_one_per_op", per_op(d("reinstates-one")));
        layers.insert("core.reinstates_multi_per_op", per_op(d("reinstates-multi")));
        layers.insert("core.slots_copied_per_op", per_op(d("slots-copied")));
        layers.insert("core.overflows_per_op", per_op(d("overflows")));
        layers.insert("core.underflows_per_op", per_op(d("underflows")));
        let (hits, fresh) = (d("segment-cache-hits"), d("segments"));
        layers.insert("core.segment_cache_hit_ratio", hits / (hits + fresh).max(1.0));
        layers.insert(
            "core.segment_bytes_highwater",
            (self.resident_slots_max as usize * std::mem::size_of::<Slot>()) as f64,
        );

        let p = self.pool.1.delta_since(&self.pool.0);
        let jobs = (p.completed + p.failed).max(1) as f64;
        layers.insert("threads.slices_per_job", p.slices as f64 / jobs);
        layers.insert("threads.requeues_per_job", p.requeues as f64 / jobs);
        layers.insert("exec.queue_depth_highwater", p.queue_depth_highwater as f64);
        layers.insert("exec.io_blocked_per_op", per_op(p.io_blocked as f64));
        if p.io_blocked > 0 {
            layers.insert("exec.io_wakeups_per_block", p.io_wakeups as f64 / p.io_blocked as f64);
        }
        layers.insert("exec.accept_queue_highwater", p.accept_queue_highwater as f64);
        layers.insert("exec.blocked_highwater", p.blocked_highwater as f64);
        let delivered: u64 = p.wake_lateness.iter().sum();
        let names = [
            "exec.wake_lateness_1ms",
            "exec.wake_lateness_5ms",
            "exec.wake_lateness_20ms",
            "exec.wake_lateness_100ms",
            "exec.wake_lateness_500ms",
            "exec.wake_lateness_tail",
        ];
        debug_assert_eq!(names.len(), WAKE_LATENESS_BUCKETS_MS.len() + 1);
        if delivered > 0 {
            for (name, n) in names.iter().zip(&p.wake_lateness) {
                layers.insert(name, *n as f64 / delivered as f64);
            }
        }
    }
}
