//! Linked code is reclaimed once nothing can run it, and only then.
//!
//! Every test churns at least 10,000 throwaway links between capturing a
//! reference to some code (a closure, a continuation, a live frame) and
//! using it, so the churn's collections reuse freed code ids and arena
//! ranges. A collector that missed a root would hand the kept code's slots
//! to the churn: the kept code would then run someone else's instructions
//! or constants (and, in debug builds, trip the freed-code assertion).

use std::sync::Arc;

use oneshot_vm::{CompiledProgram, CompilerOptions, Pipeline, Vm};

const CHURN: usize = 10_000;

/// Throwaway programs of a few sizes, with constants, closures, and
/// globals of their own.
fn throwaway_programs() -> Vec<CompiledProgram> {
    [
        "(+ 1 2)",
        "(let ((xs '(1 2 3))) (apply + xs))",
        "(define churn-tmp (lambda (a) (vector a \"tmp\" 'sym))) (churn-tmp 4)",
        "(let loop ((i 0) (acc '())) (if (= i 5) (length acc) (loop (+ i 1) (cons (lambda () i) acc))))",
    ]
    .iter()
    .map(|src| Vm::compile_str(src, Pipeline::Direct, CompilerOptions::default()).unwrap())
    .collect()
}

/// Links and runs `n` throwaway programs.
fn churn(vm: &mut Vm, n: usize) {
    let progs = throwaway_programs();
    for i in 0..n {
        let thunk = vm.load_program(&progs[i % progs.len()]);
        vm.call(thunk, &[]).unwrap();
    }
}

fn eval(vm: &mut Vm, src: &str) -> String {
    let v = vm.eval_str(src).unwrap_or_else(|e| panic!("{src}: {e}"));
    vm.write_value(&v)
}

fn arena(vm: &Vm) -> u64 {
    vm.stats().code_ops_resident
}

#[test]
fn load_and_call_loop_keeps_the_arena_bounded() {
    let mut vm = Vm::new();
    let prog = Vm::compile_str("(+ 1 2)", Pipeline::Direct, CompilerOptions::default()).unwrap();
    let before = arena(&vm);
    let mut high = before;
    for _ in 0..100_000 {
        let thunk = vm.load_program(&prog);
        let v = vm.call(thunk, &[]).unwrap();
        assert_eq!(v.as_fixnum(), Some(3));
        high = high.max(arena(&vm));
    }
    // 100k links of this program are ~600k instructions. Linking charges
    // the allocation clock, so collections keep coming and the arena
    // never holds more than a collection cycle's worth of them.
    assert!(high < before + 64 * 1024, "arena grew from {before} to {high}");
    vm.collect_now();
    assert!(vm.stats().code_units_live < 64, "{:?}", vm.stats().code_units_live);
}

#[test]
fn closure_in_a_global_survives_churn() {
    let mut vm = Vm::new();
    eval(&mut vm, "(define keep (let ((base 40)) (lambda (n) (cons (+ base n) '(a \"kept\" 3)))))");
    vm.collect_now();
    let units = vm.stats().code_units_live;
    churn(&mut vm, CHURN);
    vm.collect_now();
    // The churn's units are gone, but for the last one to define
    // `churn-tmp` and the last one run (still in the code register).
    let after = vm.stats().code_units_live;
    assert!(after <= units + 2, "{units} -> {after}");
    assert_eq!(eval(&mut vm, "(keep 2)"), "(42 a \"kept\" 3)");
}

#[test]
fn call_cc_continuation_in_a_global_reenters_twice_after_churn() {
    let mut vm = Vm::new();
    eval(&mut vm, "(define k #f) (define hits '()) (define (note v) (set! hits (cons v hits)) v)");
    // Only the continuation's sealed frames refer to this program's code.
    assert_eq!(eval(&mut vm, "(note (+ 100 (call/cc (lambda (c) (set! k c) 1))))"), "101");
    churn(&mut vm, CHURN);
    vm.collect_now();
    assert_eq!(eval(&mut vm, "(k 5)"), "105");
    churn(&mut vm, CHURN);
    vm.collect_now();
    assert_eq!(eval(&mut vm, "(k 7)"), "107");
    assert_eq!(eval(&mut vm, "hits"), "(107 105 101)");
}

#[test]
fn eval_in_a_loop_keeps_the_arena_bounded() {
    let mut vm = Vm::new();
    eval(
        &mut vm,
        "(define (spin n acc)
           (if (= n 0) acc (spin (- n 1) (+ acc (eval (list '+ n 1))))))",
    );
    let before = arena(&vm);
    assert_eq!(eval(&mut vm, "(spin 20000 0)"), "200030000");
    let after_20k = arena(&vm);
    assert_eq!(eval(&mut vm, "(spin 40000 0)"), "800060000");
    let after_60k = arena(&vm);
    assert!(after_20k < before + 64 * 1024, "arena grew from {before} to {after_20k}");
    assert!(after_60k <= after_20k.max(before + 64 * 1024), "{after_20k} -> {after_60k}");
}

#[test]
fn backtrace_names_live_frames_after_reclamation() {
    let mut vm = Vm::new();
    eval(
        &mut vm,
        "(define (outer-proc) (car (middle-proc)))
         (define (middle-proc)
           (let loop ((i 0))
             (if (< i 10000) (begin (eval '(lambda (x) x)) (loop (+ i 1)))))
           (gc)
           (list (backtrace)))",
    );
    let trace = eval(&mut vm, "(outer-proc)");
    assert!(trace.contains("middle-proc") && trace.contains("outer-proc"), "{trace}");
}

fn compile(src: &str) -> Arc<CompiledProgram> {
    Arc::new(Vm::compile_str(src, Pipeline::Direct, CompilerOptions::default()).unwrap())
}

fn run_shared(vm: &mut Vm, prog: &Arc<CompiledProgram>) -> String {
    let thunk = vm.load_shared(prog);
    let v = vm.call(thunk, &[]).unwrap();
    vm.write_value(&v)
}

#[test]
fn shared_programs_link_once_and_are_reclaimed_once_dropped() {
    let mut vm = Vm::new();
    let prog = compile("(cdr '(shared \"template\"))");
    // A second `Arc`, as a server's template holds one besides each job's.
    let template = Arc::clone(&prog);
    assert_eq!(run_shared(&mut vm, &prog), "(\"template\")");
    // Nothing but the cache refers to the program's code during the churn.
    churn(&mut vm, CHURN);
    vm.collect_now();
    let (units, links) = (vm.stats().code_units_live, vm.stats().code_links);
    assert_eq!(run_shared(&mut vm, &prog), "(\"template\")");
    assert_eq!(run_shared(&mut vm, &template), "(\"template\")");
    assert_eq!(vm.stats().code_links, links, "a cached program links nothing");
    churn(&mut vm, 1);
    vm.collect_now();
    assert_eq!(vm.stats().code_units_live, units, "linked once, however often loaded");
    drop((prog, template));
    vm.collect_now();
    assert_eq!(vm.stats().code_units_live, units - 1, "a dropped program's code is reclaimed");
}

#[test]
fn one_off_programs_do_not_displace_a_shared_one() {
    // Mixed traffic, as on a pool worker that serves and runs submitted
    // jobs: many unshared programs (one `Arc` each) load between two
    // loads of a shared template, with no collection in between.
    let mut vm = Vm::new();
    let template = compile("'handler");
    let held = Arc::clone(&template);
    assert_eq!(run_shared(&mut vm, &template), "handler");
    vm.collect_now();
    let (units, links) = (vm.stats().code_units_live, vm.stats().code_links);
    for i in 0..1000 {
        assert_eq!(run_shared(&mut vm, &compile(&format!("(+ {i} 1)"))), (i + 1).to_string());
    }
    assert_eq!(run_shared(&mut vm, &held), "handler");
    assert_eq!(vm.stats().code_links - links, 1000, "only the one-off programs linked");
    // Their code is not cached: a collection reclaims all of it.
    vm.collect_now();
    assert_eq!(vm.stats().code_units_live, units, "one-off code reclaimed");
}

#[test]
fn loads_of_a_shared_program_share_its_literals() {
    // Scheme literals are immutable, but the VM does not enforce it. Each
    // link converts the constants afresh, so a program that mutates a
    // quoted list sees its earlier mutations only when its code is reused.
    let src = "(let ((cell '(0))) (set-car! cell (+ (car cell) 1)) (car cell))";
    let mut vm = Vm::new();
    let shared = compile(src);
    let _held = Arc::clone(&shared);
    let results: Vec<_> = (0..3).map(|_| run_shared(&mut vm, &shared)).collect();
    assert_eq!(results, ["1", "2", "3"], "one linked copy: state carries over");
    let one_off: Vec<_> = (0..3).map(|_| run_shared(&mut vm, &compile(src))).collect();
    assert_eq!(one_off, ["1", "1", "1"], "a fresh link per load: fresh literals");
    let prog = compile(src);
    let fresh: Vec<_> = (0..3)
        .map(|_| {
            let thunk = vm.load_program(&prog);
            let v = vm.call(thunk, &[]).unwrap();
            vm.write_value(&v)
        })
        .collect();
    assert_eq!(fresh, ["1", "1", "1"], "load_program always links afresh");
}

#[test]
fn stale_return_addresses_in_captured_frames_are_harmless() {
    // A frame's slots are not cleared when it returns, and a timer
    // interrupt seals the interrupted frame's whole extent, written or
    // not. The first `work` leaves return addresses naming its code in
    // slots the second `work` has not written when its interrupts capture
    // the stack. The first `work`'s code is freed by then (and the second
    // runs without linking anything that could take its ids), so
    // collections meet return addresses naming freed code. Such slots are
    // never executed; the collector must skip them.
    let mut vm = Vm::new();
    let work = "(define (work n)
                  (if (= n 0) 0 (+ (length (list n n n)) (work (- n 1)) (abs n))))";
    eval(
        &mut vm,
        "(define saved '())
         (timer-interrupt-handler!
           (lambda ()
             (call/cc (lambda (k) (set! saved (cons k saved))))
             (set-timer! 11)))",
    );
    eval(&mut vm, work);
    assert_eq!(eval(&mut vm, "(set-timer! 5) (work 300)"), "46050");
    eval(&mut vm, "(set-timer! 0) (set! saved '())");
    eval(&mut vm, work);
    eval(&mut vm, "(set-timer! 11)");
    eval(&mut vm, "1");
    vm.collect_now();
    let f = vm.global("work").unwrap();
    let v = vm.call(f, &[oneshot_vm::Value::fixnum(300)]).unwrap();
    assert_eq!(vm.write_value(&v), "46050");
    eval(&mut vm, "(set-timer! 0)");
    vm.collect_now();
    churn(&mut vm, CHURN);
    vm.collect_now();
    assert!(eval(&mut vm, "(length saved)").parse::<u32>().unwrap() > 10);
    // Re-entering a captured interrupt finishes that run of `work` again.
    assert_eq!(eval(&mut vm, "((list-ref saved 5) #f)"), "46050");
}
