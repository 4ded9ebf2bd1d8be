//! Cross-crate integration tests through the `oneshot` facade: the
//! substrate (`core`), the VM, and the thread systems working together,
//! plus sanity-scale versions of the paper's experiments.

use oneshot::core::{Config, OverflowPolicy};
use oneshot::threads::{Strategy, ThreadSystem};
use oneshot::vm::{Pipeline, Vm, VmConfig};

#[test]
fn facade_reexports_work_together() {
    let mut vm = Vm::with_config(VmConfig {
        stack: Config { segment_slots: 512, copy_bound: 128, ..Config::default() },
        ..VmConfig::default()
    });
    let v =
        vm.eval_str("(define (sum n) (if (zero? n) 0 (+ n (sum (- n 1))))) (sum 5000)").unwrap();
    assert_eq!(vm.display_value(&v), "12502500");
    assert!(vm.stats().stack.overflows > 10);
}

#[test]
fn thread_systems_share_results_across_strategies() {
    let mut answers = Vec::new();
    for strategy in Strategy::ALL {
        let mut ts = ThreadSystem::new(strategy);
        ts.eval("(define acc '())").unwrap();
        match strategy {
            Strategy::Cps => {
                ts.eval(
                    "(define (job-cps i)
                       (lambda (k)
                         (cps-call (lambda ()
                           (set! acc (cons (* i i) acc))
                           (k 0)))))",
                )
                .unwrap();
                for i in 0..6 {
                    ts.spawn(&format!("(job-cps {i})")).unwrap();
                }
            }
            _ => {
                ts.eval("(define (job i) (lambda () (set! acc (cons (* i i) acc))))").unwrap();
                for i in 0..6 {
                    ts.spawn(&format!("(job {i})")).unwrap();
                }
            }
        }
        ts.run(4).unwrap();
        answers.push(ts.eval_to_string("(reverse acc)").unwrap());
    }
    assert_eq!(answers[0], answers[1]);
    assert_eq!(answers[1], answers[2]);
    assert_eq!(answers[0], "(0 1 4 9 16 25)");
}

#[test]
fn experiment_shapes_hold_at_sanity_scale() {
    // E2: one-shot tak is not slower and copies nothing.
    let rows = oneshot_bench::experiments::tak_experiment(12, 6, 0);
    assert_eq!(rows[1].m.delta.stack.slots_copied, 0);
    assert!(rows[0].m.delta.stack.slots_copied > 0);

    // E3: one-shot overflow copies far less.
    let rows = oneshot_bench::experiments::overflow_experiment(2, 20_000);
    assert!(rows[1].m.delta.stack.slots_copied > 5 * rows[0].m.delta.stack.slots_copied.max(1));

    // E1: a single figure-5 point runs for every strategy.
    for s in Strategy::ALL {
        let p = oneshot_bench::experiments::figure5_point(s, 2, 4, 8);
        assert!(p.ms >= 0.0);
    }
}

#[test]
fn direct_and_cps_agree_through_the_facade() {
    let src = "(define (tak x y z)
                 (if (not (< y x)) z
                     (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))
               (tak 10 5 0)";
    let mut d = Vm::new();
    let expected = d.eval_str(src).map(|v| d.write_value(&v)).unwrap();
    let mut c = Vm::with_config(VmConfig { pipeline: Pipeline::Cps, ..VmConfig::default() });
    let got = c.eval_str(src).map(|v| c.write_value(&v)).unwrap();
    assert_eq!(got, expected);
}

#[test]
fn overflow_policies_agree_on_results() {
    for policy in [OverflowPolicy::OneShot, OverflowPolicy::MultiShot] {
        let mut vm = Vm::with_config(VmConfig {
            stack: Config {
                segment_slots: 256,
                copy_bound: 64,
                overflow_policy: policy,
                ..Config::default()
            },
            ..VmConfig::default()
        });
        let v = vm
            .eval_str("(define (build n) (if (zero? n) '() (cons n (build (- n 1))))) (length (build 3000))")
            .unwrap();
        assert_eq!(vm.display_value(&v), "3000", "{policy:?}");
    }
}

#[test]
fn sexp_reader_feeds_the_vm() {
    use oneshot::sexp::read_all;
    let forms = read_all("(+ 1 2) (* 3 4)").unwrap();
    assert_eq!(forms.len(), 2);
    let mut vm = Vm::new();
    let v = vm.eval_str("(* 3 4)").unwrap();
    assert_eq!(vm.display_value(&v), "12");
}

#[test]
fn linked_code_is_reclaimed_but_reachable_code_survives() {
    // A load+call loop links 50k throwaway units; linking charges the
    // heap's allocation clock, so collections reclaim them as it goes and
    // the flat code arena stays within a fixed bound. A closure kept in a
    // global through all of it still runs, constants and all.
    let mut vm = Vm::new();
    vm.eval_str("(define keep (lambda (n) (cons n '(still \"here\"))))").unwrap();
    let prog = Vm::compile_str(
        "(let ((xs '(1 2 3))) (apply + xs))",
        Pipeline::Direct,
        oneshot::vm::CompilerOptions::default(),
    )
    .unwrap();
    let before = vm.stats().code_ops_resident;
    let mut high = before;
    for _ in 0..50_000 {
        let thunk = vm.load_program(&prog);
        assert_eq!(vm.call(thunk, &[]).unwrap().as_fixnum(), Some(6));
        high = high.max(vm.stats().code_ops_resident);
    }
    assert!(high < before + 64 * 1024, "code arena grew from {before} to {high} ops");
    vm.collect_now();
    assert!(vm.stats().code_units_live < 16, "units left: {}", vm.stats().code_units_live);
    let v = vm.eval_str("(keep 1)").unwrap();
    assert_eq!(vm.write_value(&v), "(1 still \"here\")");
}
