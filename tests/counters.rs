//! The counter declarations through the facade: every declared struct obeys
//! its kinds' delta and accumulate laws, the JSON exporter carries every
//! declared field, and a worker's VM totals survive a supervised restart.

use oneshot::core::{Counters, Kind, Reading, Stats};
use oneshot::exec::{JobSpec, Pool, PoolCountersSnapshot, PoolReport};
use oneshot::runtime::{HeapStats, PoolOccupancy};
use oneshot::vm::{Vm, VmStats};
use oneshot_bench::metrics::{counters_json, Json};

/// Every scalar of `c` with its kind, nested structs and list elements
/// flattened, in visit order.
fn scalars(c: &dyn Counters) -> Vec<(Kind, u64)> {
    let mut out = Vec::new();
    c.visit(&mut |_, reading| match reading {
        Reading::Int(kind, n) => out.push((kind, n)),
        Reading::Ints(kind, ns) => out.extend(ns.iter().map(|&n| (kind, n))),
        Reading::Tag(_) => {}
        Reading::Nested(inner) => out.extend(scalars(inner)),
    });
    out
}

/// Fills `a` with distinct values, derives a later reading `b` (counters
/// grow, gauges and peaks shrink so "later" and "larger" differ), and
/// checks each kind's law on `delta` and `accumulate`.
fn check_laws<T: Counters + Clone>(mut a: T, delta: fn(&T, &T) -> T, accumulate: fn(&mut T, &T)) {
    let mut next = 0;
    a.visit_mut(&mut |_, v| {
        next += 1;
        *v = 1_000 + 10 * next;
    });
    let mut b = a.clone();
    b.visit_mut(&mut |kind, v| match kind {
        Kind::Counter => *v *= 3,
        Kind::Gauge | Kind::Peak => *v -= 1,
    });
    let d = delta(&b, &a);
    let mut t = a.clone();
    accumulate(&mut t, &b);

    let (a, b, d, t) = (scalars(&a), scalars(&b), scalars(&d), scalars(&t));
    assert_eq!(a.len(), next as usize, "visit and visit_mut reach the same scalars");
    let mut values: Vec<u64> = a.iter().map(|&(_, v)| v).collect();
    values.sort_unstable();
    values.dedup();
    assert_eq!(values.len(), a.len(), "every scalar was filled with a distinct value");
    for i in 0..a.len() {
        let (kind, (a, b)) = (a[i].0, (a[i].1, b[i].1));
        let want = match kind {
            Kind::Counter => (b - a, a + b),
            Kind::Gauge => (b, b),
            Kind::Peak => (b, a.max(b)),
        };
        assert_eq!((d[i].1, t[i].1), want, "scalar {i} ({kind:?})");
    }
}

/// Asserts that `json` names each field `c` visits exactly once, with its
/// value, and nothing else.
fn assert_exported(c: &dyn Counters, json: &Json) {
    let Json::Obj(pairs) = json else { panic!("not an object: {json:?}") };
    let mut visited = 0;
    c.visit(&mut |name, reading| {
        visited += 1;
        let hits: Vec<&Json> = pairs.iter().filter(|(k, _)| k == name).map(|(_, v)| v).collect();
        assert_eq!(hits.len(), 1, "{name} is named exactly once");
        let v = hits[0];
        match reading {
            Reading::Int(_, n) => assert_eq!(v.as_u64(), Some(n), "{name}"),
            Reading::Ints(_, ns) => {
                let got: Vec<_> = v.as_arr().unwrap().iter().map(Json::as_u64).collect();
                assert_eq!(got, ns.iter().map(|&n| Some(n)).collect::<Vec<_>>(), "{name}");
            }
            Reading::Tag(tag) => assert_eq!(v.as_str(), Some(tag), "{name}"),
            Reading::Nested(inner) => assert_exported(inner, v),
        }
    });
    assert_eq!(visited, pairs.len(), "no key beyond the declared fields");
}

fn exported(c: &dyn Counters) -> Json {
    let json = Json::parse(&counters_json(c).render()).expect("the exporter emits valid JSON");
    assert_exported(c, &json);
    json
}

/// A 1-worker pool that runs `srcs` in order, then shuts down.
fn run_pool(srcs: &[&str]) -> (PoolCountersSnapshot, PoolReport) {
    let pool = Pool::builder().workers(1).build().unwrap();
    for (i, src) in srcs.iter().enumerate() {
        pool.submit(JobSpec::new(format!("job-{i}"), *src)).unwrap().wait();
    }
    let snap = pool.stats();
    (snap, pool.shutdown().unwrap())
}

const LOOP: &str = "(let loop ((i 0)) (if (< i 2000) (loop (+ i 1)) i))";

#[test]
fn every_declared_struct_obeys_its_kinds() {
    check_laws(Stats::default(), Stats::delta_since, Stats::accumulate);
    check_laws(PoolOccupancy::default(), PoolOccupancy::delta_since, PoolOccupancy::accumulate);
    check_laws(HeapStats::default(), HeapStats::delta_since, HeapStats::accumulate);
    check_laws(VmStats::default(), VmStats::delta_since, VmStats::accumulate);
    // A live snapshot, so the per-worker and per-bucket lists have
    // elements to fill.
    let (snap, _) = run_pool(&[]);
    assert!(!snap.accepts_per_worker.is_empty() && !snap.wake_lateness.is_empty());
    check_laws(snap.clone(), PoolCountersSnapshot::delta_since, PoolCountersSnapshot::accumulate);
    assert_eq!(snap.delta_since(&snap).reactor_backend, snap.reactor_backend);
}

#[test]
fn exporter_carries_every_declared_field_of_live_readings() {
    let mut vm = Vm::new();
    vm.eval_str("(define (f n) (if (= n 0) (call/1cc (lambda (k) (k 0))) (+ 1 (f (- n 1)))))")
        .unwrap();
    vm.eval_str("(f 100)").unwrap();
    let s = vm.stats();
    let json = exported(&s);
    // The fields an earlier hand-written exporter left out.
    assert_eq!(json.get("code_units_live").unwrap().as_u64(), Some(s.code_units_live));
    assert_eq!(json.get("code_ops_resident").unwrap().as_u64(), Some(s.code_ops_resident));
    assert_eq!(json.get("code_links").unwrap().as_u64(), Some(s.code_links));
    let last_freed = json.get("heap").unwrap().get("last_freed").unwrap().as_u64();
    assert_eq!(last_freed, Some(s.heap.last_freed));
    assert!(s.code_units_live > 0 && s.stack.captures_one > 0);

    let (snap, report) = run_pool(&[LOOP, "(+ 1 2)", "(timer-wait 1)"]);
    exported(&snap);
    exported(&report.counters);
    exported(&report.workers[0].vm);
    assert_eq!(snap.completed, 3);
    assert!(report.workers[0].vm.instructions > 0);
}

#[test]
fn a_worker_restart_adds_to_the_worker_totals() {
    let (_, base) = run_pool(&[LOOP]);
    let (_, restarted) = run_pool(&[LOOP, "(debug-panic! \"kill-worker-hard\")"]);
    let (base, restarted) = (&base.workers[0], &restarted.workers[0]);
    assert_eq!((base.worker_restarts, restarted.worker_restarts), (0, 1));
    // The restarted worker ran the same job plus a second VM's boot: its
    // totals keep the first incarnation's counts rather than resetting.
    assert!(restarted.vm.instructions > base.vm.instructions);
    assert!(restarted.vm.code_links > base.vm.code_links);
    // A gauge carries the latest reading instead of summing.
    assert_eq!(restarted.vm.value_word_bytes, 8);
}
