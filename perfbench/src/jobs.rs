//! `jobs`: `Pool::submit` of short seeded programs in a closed loop.
//!
//! The generator keeps [`WINDOW`] jobs outstanding: each completion is
//! checked and replaced by the next job. An op runs from the submit call
//! (which compiles the source on the generator thread) to the outcome.
//! Three things vary with the seed: source size (arithmetic trees of 2 to
//! 63 leaves); a share of loop jobs long enough to be preempted over
//! several fuel slices; and a share whose source repeats an earlier job's.
//! Compile-on-submit, link, queueing, engine spawn and slice switching
//! dominate, with little dispatch and no reactor. Every answer is computed
//! here, in Rust, when the job is generated.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use oneshot_bench::rng::XorShiftRng;
use oneshot_exec::{JobHandle, JobSpec, Pool};
use oneshot_vm::Vm;

use crate::host::CoreRotation;
use crate::pooled::{self, Window, OP_TIMEOUT};
use crate::trace::{SpanId, Trace, OP};
use crate::{park, Config, Measured, Workload, ROTATE_EVERY};

/// Jobs outstanding at once.
pub const WINDOW: usize = 16;

/// Engine-resident jobs per worker (the pool default): the rest of the
/// window waits in the injector queue.
const RESIDENT: usize = 8;

/// Procedure calls per fuel slice: a quarter of the pool default, so a
/// loop job reaches several slices with little dispatch.
const FUEL_SLICE: u64 = 1024;

/// Jobs per second of `--seconds`.
const JOBS_PER_S: f64 = 11000.0;

/// Jobs a traced pass links into one private VM before replacing it.
const LINKS_PER_VM: u64 = 8192;

/// Share of loop jobs that run several fuel slices, in thousandths.
const LONG_PER_MILLE: u64 = 100;

/// Share of jobs that repeat an earlier job's source, in thousandths.
const REPEAT_PER_MILLE: u64 = 250;

/// Earlier jobs a repeat may pick from.
const HISTORY: usize = 256;

/// A generated job: its source and the answer it must print.
#[derive(Debug, Clone)]
pub struct Job {
    /// Scheme source.
    pub source: String,
    /// The written value the job must return.
    pub answer: String,
}

/// Seeded job generator.
pub struct JobGen {
    rng: XorShiftRng,
    history: Vec<Job>,
    next_var: usize,
}

impl JobGen {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        JobGen { rng: XorShiftRng::new(seed), history: Vec::with_capacity(HISTORY), next_var: 0 }
    }

    fn chance(&mut self, per_mille: u64) -> bool {
        self.rng.below(1000) < per_mille
    }

    /// The next job.
    pub fn next_job(&mut self) -> Job {
        if !self.history.is_empty() && self.chance(REPEAT_PER_MILLE) {
            let i = self.rng.below(self.history.len() as u64) as usize;
            return self.history[i].clone();
        }
        let job = if self.chance(LONG_PER_MILLE) { self.long_job() } else { self.expr_job() };
        if self.history.len() < HISTORY {
            self.history.push(job.clone());
        } else {
            let i = self.rng.below(HISTORY as u64) as usize;
            self.history[i] = job.clone();
        }
        job
    }

    /// A loop of 3000 to 5000 calls: three to five fuel slices.
    fn long_job(&mut self) -> Job {
        let n = 3000 + self.rng.below(2000) as i64;
        let k = 1 + self.rng.below(999) as i64;
        let md = 2 + self.rng.below(998) as i64;
        let source = format!(
            "(let loop ((i 0) (acc 0)) \
               (if (= i {n}) acc (loop (+ i 1) (+ acc (modulo (* i {k}) {md})))))"
        );
        let answer: i64 = (0..n).map(|i| (i * k) % md).sum();
        Job { source, answer: answer.to_string() }
    }

    /// An arithmetic tree of 2 to 63 leaves (log-uniform size).
    fn expr_job(&mut self) -> Job {
        let bits = 1 + self.rng.below(5);
        let leaves = (1usize << bits) + self.rng.below(1 << bits) as usize;
        let mut source = String::new();
        let mut scope = Vec::new();
        self.next_var = 0;
        let v = self.expr(leaves, &mut scope, &mut source);
        Job { source, answer: v.to_string() }
    }

    /// Writes an expression with `leaves` leaves to `out`; returns its
    /// value. `scope` holds the let-bound variables visible here.
    fn expr(&mut self, leaves: usize, scope: &mut Vec<(String, i64)>, out: &mut String) -> i64 {
        if leaves <= 1 {
            if !scope.is_empty() && self.chance(400) {
                let (name, v) = &scope[self.rng.below(scope.len() as u64) as usize];
                // Small variables only, so no value outgrows a fixnum.
                if v.abs() < 10_000 {
                    out.push_str(name);
                    return *v;
                }
            }
            let n = self.rng.below(100) as i64;
            out.push_str(&n.to_string());
            return n;
        }
        let left = 1 + self.rng.below(leaves as u64 - 1) as usize;
        let right = leaves - left;
        match self.rng.below(5) {
            0 if leaves >= 4 => {
                // (if (< a b) c d): split the leaves four ways.
                let (a, b) = (left.div_ceil(2), left / 2);
                let (c, d) = (right.div_ceil(2), right / 2);
                out.push_str("(if (< ");
                let va = self.expr(a.max(1), scope, out);
                out.push(' ');
                let vb = self.expr(b.max(1), scope, out);
                out.push_str(") ");
                let vc = self.expr(c.max(1), scope, out);
                out.push(' ');
                let vd = self.expr(d.max(1), scope, out);
                out.push(')');
                if va < vb {
                    vc
                } else {
                    vd
                }
            }
            1 => {
                let name = format!("v{}", self.next_var);
                self.next_var += 1;
                out.push_str(&format!("(let (({name} "));
                let bound = self.expr(left, scope, out);
                out.push_str(")) ");
                scope.push((name, bound));
                let body = self.expr(right, scope, out);
                scope.pop();
                out.push(')');
                body
            }
            2 if leaves == 2 => {
                // Products only of two literals, so values stay small.
                let (a, b) = (self.rng.below(100) as i64, self.rng.below(100) as i64);
                out.push_str(&format!("(* {a} {b})"));
                a * b
            }
            k => {
                let (op, sign) = if k == 3 { ("-", -1) } else { ("+", 1) };
                out.push('(');
                out.push_str(op);
                out.push(' ');
                let a = self.expr(left, scope, out);
                out.push(' ');
                let b = self.expr(right, scope, out);
                out.push(')');
                a + sign * b
            }
        }
    }
}

/// The pool and the job generator.
pub struct Jobs {
    pool: Pool,
    jobs: JobGen,
    next_op: u64,
}

/// An op in flight.
struct InFlight {
    handle: JobHandle,
    answer: String,
    t0: Instant,
    root: SpanId,
}

impl Workload for Jobs {
    fn setup(cfg: &Config, _index: usize) -> Result<Self, String> {
        let pool = pooled::start(RESIDENT, FUEL_SLICE)?;
        Ok(Jobs { pool, jobs: JobGen::new(cfg.seed), next_op: 0 })
    }

    fn measure(&mut self, cfg: &Config, trace: &mut Trace) -> Result<Measured, String> {
        let mut m = Measured::default();
        let mut link_vm = trace.on().then(Vm::new);
        let mut window = if trace.on() { Some(Window::open(&self.pool)?) } else { None };
        let total = cfg.units(JOBS_PER_S);
        let (tx, rx) = mpsc::channel::<(u64, Instant)>();
        let mut flight: std::collections::HashMap<u64, InFlight> = Default::default();
        let (mut sent, mut compiled_ops, mut submit_busy) = (0u64, 0usize, Duration::ZERO);
        let mut core = CoreRotation::new(ROTATE_EVERY, 0);
        let start = Instant::now();
        loop {
            core.tick();
            while sent < total && flight.len() < WINDOW {
                let job = self.jobs.next_job();
                let op = self.next_op;
                self.next_op += 1;
                sent += 1;
                let t0 = Instant::now();
                let root = trace.open_at(OP, SpanId::NONE, op, t0);
                if let Some(vm) = link_vm.as_mut() {
                    if sent % LINKS_PER_VM == 0 {
                        // Nothing reclaims linked code: start afresh so the
                        // private VM's arena stays small.
                        *vm = Vm::new();
                    }
                    compiled_ops += pooled::compile_traced(trace, vm, root, op, &job.source)?.0;
                }
                let tx = tx.clone();
                let spec = JobSpec::new("job", job.source).on_complete(move |_| {
                    let _ = tx.send((op, Instant::now()));
                });
                let s0 = Instant::now();
                let submitted = trace.span("Pool::submit", root, op, || self.pool.submit(spec));
                submit_busy += s0.elapsed();
                match submitted {
                    Ok(handle) => {
                        flight.insert(op, InFlight { handle, answer: job.answer, t0, root });
                    }
                    Err(_) => m.record(false, 0.0),
                }
            }
            if flight.is_empty() {
                break;
            }
            let Ok((op, t_done)) = rx.recv_timeout(OP_TIMEOUT) else {
                // Nothing finished for a whole timeout: fail what is left.
                for _ in flight.drain() {
                    m.record(false, 0.0);
                }
                break;
            };
            let f = flight.remove(&op).expect("each job completes once");
            let out = trace.span("JobHandle::wait", f.root, op, || f.handle.wait());
            trace.close_at(f.root, t_done);
            let ok = out.result.as_deref() == Ok(f.answer.as_str());
            m.record(ok, (t_done - f.t0).as_secs_f64() * 1e6);
            let now = start.elapsed().as_secs_f64();
            m.mark(now - m.window_s);
        }
        drop(core);
        m.notes.insert("generator_busy_share".into(), submit_busy.as_secs_f64() / m.window_s);
        if let Some(w) = window.as_mut() {
            w.close(&self.pool)?;
            w.layers(m.attempted, m.window_s, &mut m.layers);
            m.layers
                .insert("compiler.ops_per_job", compiled_ops as f64 / m.attempted.max(1) as f64);
            m.layers.insert("exec.generator_busy_share", submit_busy.as_secs_f64() / m.window_s);
        }
        Ok(m)
    }

    fn bytes_per_parked(&mut self, cfg: &Config) -> Result<f64, String> {
        park::probe(cfg.seed)
    }

    fn teardown(self) -> Result<(), String> {
        pooled::stop(self.pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_answers_match_the_vm() {
        let mut gen = JobGen::new(3);
        let mut vm = Vm::new();
        let (mut long, mut repeats, mut seen) = (0, 0, std::collections::HashSet::new());
        for _ in 0..400 {
            let job = gen.next_job();
            if job.source.starts_with("(let loop") {
                long += 1;
            }
            if !seen.insert(job.source.clone()) {
                repeats += 1;
            }
            let v = vm.eval_str(&job.source).expect("generated job runs");
            assert_eq!(vm.write_value(&v), job.answer, "{}", job.source);
        }
        assert!(long > 0 && repeats > 0, "long {long}, repeats {repeats}");
    }

    #[test]
    fn same_seed_same_jobs() {
        let (mut a, mut b) = (JobGen::new(9), JobGen::new(9));
        for _ in 0..50 {
            assert_eq!(a.next_job().source, b.next_job().source);
        }
    }
}
