//! `paper`: one VM runs the paper's programs in a seeded order, one op
//! per program call.
//!
//! The programs are tak, fib and boyer, which make no captures; ctak
//! under `call/1cc` and under `call/cc`; deep-recursion rounds, which
//! overflow and underflow; the 100-thread Figure 5 systems under
//! `call/1cc` and `call/cc` at a rapid switch rate; and the E16 native
//! generator pipeline. Every round calls each program once, in an order
//! drawn from the seed, so a slow phase of the host hits every kind alike.
//! The one-shot and multi-shot arms run side by side, so a one-shot gain
//! that costs `call/cc` shows.

use std::time::Instant;

use oneshot_bench::rng::XorShiftRng;
use oneshot_bench::workloads;
use oneshot_vm::{Value, Vm, VmStats};

use crate::host::CoreRotation;
use crate::trace::{SpanId, Trace, OP};
use crate::{park, pooled, quantile, Config, Measured, Workload, ROTATE_EVERY};

/// The `call/1cc` thread system (Figure 5), loaded under renamed globals.
const SCHED_1CC: &str = include_str!("../../crates/threads/scheme/threads-call1cc.scm");
/// The `call/cc` thread system, likewise.
const SCHED_CC: &str = include_str!("../../crates/threads/scheme/threads-callcc.scm");

/// The schedulers' globals; each arm's copy gets a suffix so both fit in
/// one VM.
const SCHED_GLOBALS: [&str; 11] = [
    "%thread-queue",
    "%thread-tail",
    "%scheduler-k",
    "%switch-fuel",
    "%enqueue",
    "%dequeue",
    "%run-next!",
    "thread-spawn!",
    "thread-yield!",
    "thread-exit!",
    "threads-run!",
];

/// Figure 5 drivers: spawn `threads` threads each storing `(fib n)` in
/// its own slot, run them with a switch every `fuel` calls, return the
/// sum of the slots.
const FIG5_DRIVERS: &str = "
  (define (fig5-sum v)
    (let loop ((i 0) (acc 0))
      (if (= i (vector-length v)) acc (loop (+ i 1) (+ acc (vector-ref v i))))))
  (define (fig5/1cc threads n fuel)
    (let ((out (make-vector threads 0)))
      (let spawn ((i 0))
        (if (< i threads)
            (begin (thread-spawn!/1cc (lambda () (vector-set! out i (fib n))))
                   (spawn (+ i 1)))))
      (threads-run!/1cc fuel)
      (fig5-sum out)))
  (define (fig5/cc threads n fuel)
    (let ((out (make-vector threads 0)))
      (let spawn ((i 0))
        (if (< i threads)
            (begin (thread-spawn!/cc (lambda () (vector-set! out i (fib n))))
                   (spawn (+ i 1)))))
      (threads-run!/cc fuel)
      (fig5-sum out)))";

/// Rounds per second of `--seconds`.
const ROUNDS_PER_S: f64 = 3.6;

/// One program: the global it calls, its timed and warm-up arguments, and
/// how many times a round calls it.
struct Program {
    name: &'static str,
    proc: &'static str,
    args: [i64; 3],
    argc: usize,
    warm: [i64; 3],
    per_round: usize,
}

/// The programs. Calls per round are set so no program takes much more
/// than a third of a round (boyer, one theorem per call, is the largest)
/// and a round holds enough ops for stable percentiles.
const PROGRAMS: [Program; 9] = [
    Program { name: "tak", proc: "tak", args: [18, 12, 6], argc: 3, warm: [6, 4, 2], per_round: 5 },
    Program { name: "fib", proc: "fib", args: [20, 0, 0], argc: 1, warm: [5, 0, 0], per_round: 10 },
    Program {
        name: "boyer",
        proc: "boyer-run",
        args: [1, 0, 0],
        argc: 1,
        warm: [1, 0, 0],
        per_round: 1,
    },
    Program {
        name: "ctak-1cc",
        proc: "ctak/1cc",
        args: [18, 12, 6],
        argc: 3,
        warm: [6, 4, 2],
        per_round: 1,
    },
    Program {
        name: "ctak-cc",
        proc: "ctak/cc",
        args: [18, 12, 6],
        argc: 3,
        warm: [6, 4, 2],
        per_round: 1,
    },
    Program {
        name: "deep",
        proc: "deep-rounds",
        args: [4, 10_000, 0],
        argc: 2,
        warm: [1, 100, 0],
        per_round: 4,
    },
    Program {
        name: "fig5-1cc",
        proc: "fig5/1cc",
        args: [100, 10, 4],
        argc: 3,
        warm: [4, 5, 4],
        per_round: 2,
    },
    Program {
        name: "fig5-cc",
        proc: "fig5/cc",
        args: [100, 10, 4],
        argc: 3,
        warm: [4, 5, 4],
        per_round: 2,
    },
    Program {
        name: "e16",
        proc: "e16-pipeline",
        args: [1_000, 4, 0],
        argc: 2,
        warm: [10, 2, 0],
        per_round: 2,
    },
];

fn tak(x: i64, y: i64, z: i64) -> i64 {
    if y < x {
        tak(tak(x - 1, y, z), tak(y - 1, z, x), tak(z - 1, x, y))
    } else {
        z
    }
}

fn fib(n: i64) -> i64 {
    let (mut a, mut b) = (0i64, 1i64);
    for _ in 0..n {
        (a, b) = (b, a + b);
    }
    a
}

/// The answer `p` must return for `args`, computed here, not by the VM.
fn expected(p: &Program, a: [i64; 3]) -> String {
    match p.name {
        "tak" | "ctak-1cc" | "ctak-cc" => tak(a[0], a[1], a[2]).to_string(),
        "fib" => fib(a[0]).to_string(),
        "boyer" => "#t".to_string(),
        "deep" => (a[0] * a[1]).to_string(),
        "fig5-1cc" | "fig5-cc" => (a[0] * fib(a[1])).to_string(),
        // Sum over 1..=n of (v + stages): each stage adds one.
        "e16" => (a[0] * (a[0] + 1) / 2 + a[0] * a[1]).to_string(),
        other => unreachable!("no answer for {other}"),
    }
}

/// Every source the VM loads, in load order.
fn sources() -> Vec<String> {
    let rename = |src: &str, suffix: &str| {
        SCHED_GLOBALS.iter().fold(src.to_string(), |s, g| s.replace(g, &format!("{g}/{suffix}")))
    };
    vec![
        workloads::TAK.to_string(),
        workloads::FIB.to_string(),
        workloads::BOYER.to_string(),
        workloads::ctak("call/1cc").replace("ctak", "ctak/1cc"),
        workloads::ctak("call/cc").replace("ctak", "ctak/cc"),
        workloads::DEEP.to_string(),
        rename(SCHED_1CC, "1cc"),
        rename(SCHED_CC, "cc"),
        FIG5_DRIVERS.to_string(),
        workloads::E16_GEN_NATIVE.to_string(),
        workloads::E16_DRIVERS.to_string(),
    ]
}

/// The paper VM.
pub struct Paper {
    vm: Vm,
    rng: XorShiftRng,
    next_op: u64,
}

impl Paper {
    /// Calls `p` once with `args`; returns whether the answer was right,
    /// and the wall time in µs.
    fn call(&mut self, p: &Program, args: [i64; 3], trace: &mut Trace, op: u64) -> (bool, f64) {
        let t0 = Instant::now();
        let root = trace.open_at(OP, SpanId::NONE, op, t0);
        let f = self.vm.global(p.proc).expect("program loaded");
        let argv: Vec<Value> = args[..p.argc].iter().map(|&n| Value::fixnum(n)).collect();
        let r = trace.span("Vm::call", root, op, || self.vm.call(f, &argv));
        let t1 = Instant::now();
        trace.close_at(root, t1);
        let ok = matches!(&r, Ok(v) if self.vm.write_value(v) == expected(p, args));
        (ok, (t1 - t0).as_secs_f64() * 1e6)
    }

    /// Builds the VM, loads every program, and calls each once small.
    fn boot(cfg: &Config) -> Result<Self, String> {
        let mut vm = Vm::new();
        for src in sources() {
            vm.eval_str(&src).map_err(|e| format!("paper load: {e}"))?;
        }
        let mut paper = Paper { vm, rng: XorShiftRng::new(cfg.seed), next_op: 0 };
        let mut off = Trace::new(false);
        for p in &PROGRAMS {
            if !paper.call(p, p.warm, &mut off, 0).0 {
                return Err(format!("paper warm-up: {} answered wrong", p.name));
            }
        }
        Ok(paper)
    }

    /// Re-reads, re-compiles, and re-links every source under spans, then
    /// runs its definitions (identical, so the programs are unchanged).
    fn reload_traced(&mut self, trace: &mut Trace) -> Result<(), String> {
        for (i, src) in sources().iter().enumerate() {
            let root = trace.open("load", SpanId::NONE, i as u64);
            let (_, thunk) = pooled::compile_traced(trace, &mut self.vm, root, i as u64, src)?;
            trace
                .span("Vm::call", root, i as u64, || self.vm.call(thunk, &[]))
                .map_err(|e| e.to_string())?;
            trace.close(root);
        }
        Ok(())
    }
}

impl Workload for Paper {
    fn setup(cfg: &Config, index: usize) -> Result<Self, String> {
        // Alternate cores across setups, as the timed rounds do.
        let _core = CoreRotation::new(ROTATE_EVERY, index);
        Paper::boot(cfg)
    }

    fn measure(&mut self, cfg: &Config, trace: &mut Trace) -> Result<Measured, String> {
        if trace.on() {
            self.reload_traced(trace)?;
        }
        let mut m = Measured::default();
        let before: VmStats = self.vm.stats();
        let mut order: Vec<usize> = (0..PROGRAMS.len())
            .flat_map(|k| std::iter::repeat_n(k, PROGRAMS[k].per_round))
            .collect();
        let mut per_kind: Vec<Vec<f64>> = vec![Vec::new(); PROGRAMS.len()];
        let mut core = CoreRotation::new(ROTATE_EVERY, 0);
        for _ in 0..cfg.units(ROUNDS_PER_S) {
            core.tick();
            let round = Instant::now();
            self.rng.shuffle(&mut order);
            for &k in &order {
                let op = self.next_op;
                self.next_op += 1;
                let (ok, us) = self.call(&PROGRAMS[k], PROGRAMS[k].args, trace, op);
                m.record(ok, us);
                per_kind[k].push(us);
            }
            m.mark(round.elapsed().as_secs_f64());
        }
        drop(core);
        for (p, us) in PROGRAMS.iter().zip(&per_kind) {
            m.notes.insert(format!("p50_us.{}", p.name), quantile(us, 0.5));
        }
        if trace.on() {
            let d = self.vm.stats().delta_since(&before);
            let ops = m.attempted as f64;
            let op_wall_ns: f64 =
                m.latencies_us.iter().filter(|l| l.is_finite()).sum::<f64>() * 1e3;
            let l = &mut m.layers;
            l.insert("vm.instructions_per_op", d.instructions as f64 / ops);
            l.insert("vm.calls_per_op", d.calls as f64 / ops);
            l.insert(
                "vm.ns_per_instruction",
                (op_wall_ns - d.gc_pause_ns as f64) / d.instructions.max(1) as f64,
            );
            l.insert("runtime.words_allocated_per_op", d.heap.words_allocated as f64 / ops);
            l.insert("runtime.gc_collections_per_op", d.gc_collections as f64 / ops);
            l.insert("runtime.gc_pause_us_per_op", d.gc_pause_ns as f64 / ops / 1e3);
            l.insert("runtime.gc_max_pause_us", d.gc_max_pause_ns as f64 / 1e3);
            l.insert("runtime.heap_peak_live", d.heap.peak_live as f64);
            let s = d.stack;
            l.insert("core.captures_one_per_op", s.captures_one as f64 / ops);
            l.insert("core.captures_multi_per_op", s.captures_multi as f64 / ops);
            l.insert("core.reinstates_one_per_op", s.reinstates_one as f64 / ops);
            l.insert("core.reinstates_multi_per_op", s.reinstates_multi as f64 / ops);
            l.insert("core.slots_copied_per_op", s.slots_copied as f64 / ops);
            l.insert("core.overflows_per_op", s.overflows as f64 / ops);
            l.insert("core.underflows_per_op", s.underflows as f64 / ops);
            l.insert(
                "core.segment_cache_hit_ratio",
                s.cache_hits as f64 / (s.cache_hits + s.segments_allocated).max(1) as f64,
            );
            l.insert("core.segment_bytes_highwater", d.segment_bytes_highwater as f64);
        }
        Ok(m)
    }

    fn bytes_per_parked(&mut self, cfg: &Config) -> Result<f64, String> {
        park::probe(cfg.seed)
    }

    fn teardown(self) -> Result<(), String> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_written_answers_match_the_known_values() {
        assert_eq!(tak(18, 12, 6), 7);
        assert_eq!(fib(20), 6765);
        let e16 = PROGRAMS.iter().find(|p| p.name == "e16").unwrap();
        // The E16 unit test's figure: (e16-pipeline 50 3) => 1425.
        assert_eq!(expected(e16, [50, 3, 0]), "1425");
    }

    #[test]
    fn renamed_schedulers_do_not_collide() {
        let srcs = sources();
        let (a, b) = (&srcs[6], &srcs[7]);
        assert!(a.contains("(define (threads-run!/1cc fuel)"));
        assert!(b.contains("(define (threads-run!/cc fuel)"));
        assert!(!a.contains("(thread-yield!)") && !b.contains("(thread-yield!)"));
    }
}
