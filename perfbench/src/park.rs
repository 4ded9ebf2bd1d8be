//! `park`: cycles of jobs parked in `(timer-wait D)`.
//!
//! Each cycle submits [`PARKED`] jobs that each run
//! `(begin (timer-wait D) TOKEN)`, waits until every one has parked,
//! reads the process's resident memory, and lets them wake. An op is one
//! park-and-wake: its latency is completion minus (submit + D), and
//! throughput counts only the submit-to-parked phase. This is the one
//! workload where sealed one-shot segments stay live for a long time, so
//! `core`'s segment policy and the reactor's timer heap carry it.
//!
//! `bytes_per_parked` — the RSS delta across the cycle's parked jobs over
//! their number — is the ROADMAP figure "bytes resident per parked green
//! thread". The other workloads end with [`probe`], a few park cycles on a
//! pool outside their timed window, so every workload reports it.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use oneshot_bench::rng::XorShiftRng;
use oneshot_exec::{JobSpec, Pool};
use oneshot_vm::Vm;

use crate::host::{self, CoreRotation};
use crate::pooled::{self, Window, OP_TIMEOUT};
use crate::trace::{SpanId, Trace, OP};
use crate::{quantile, Config, Measured, Workload, ROTATE_EVERY};

/// Jobs parked per cycle.
pub const PARKED: usize = 256;

/// How long each job parks, in ms. Long against the submit-to-parked
/// phase (~15 ms for [`PARKED`] jobs), so no job wakes before the last
/// one has parked.
pub const WAIT_MS: u64 = 100;

/// Cycles per second of `--seconds`.
const CYCLES_PER_S: f64 = 7.0;

/// Cycles in the [`probe`] the other workloads run.
const PROBE_CYCLES: usize = 3;

/// Resident jobs per worker: every parked job, plus room for probes.
const RESIDENT: usize = PARKED + 8;

/// The pool, and what the untraced cycles measured.
pub struct Park {
    pool: Pool,
    rng: XorShiftRng,
    next_op: u64,
    bytes: Vec<f64>,
}

impl Workload for Park {
    fn setup(cfg: &Config, _index: usize) -> Result<Self, String> {
        let pool = pooled::start(RESIDENT, pooled::FUEL_SLICE)?;
        Ok(Park { pool, rng: XorShiftRng::new(cfg.seed), next_op: 0, bytes: Vec::new() })
    }

    fn measure(&mut self, cfg: &Config, trace: &mut Trace) -> Result<Measured, String> {
        let mut m = Measured::default();
        let mut link_vm = trace.on().then(Vm::new);
        let mut window = if trace.on() { Some(Window::open(&self.pool)?) } else { None };
        let mut live_segments = Vec::new();
        let cycles = cfg.units(CYCLES_PER_S);
        let mut core = CoreRotation::new(ROTATE_EVERY, 0);
        for _ in 0..cycles {
            core.tick();
            let seg_before = match window {
                Some(_) => Some(live_uncached(&self.pool)?),
                None => None,
            };
            let vm = link_vm.as_mut();
            let bytes =
                cycle(&self.pool, &mut self.rng, &mut self.next_op, trace, vm, &mut m, |pool| {
                    // At the parked point: the guest's own view of its
                    // segments, read by a pinned job.
                    if let (Some(w), Some(before)) = (window.as_mut(), seg_before) {
                        let alist = pooled::vm_stats(pool)?;
                        w.sample(&alist);
                        let now = crate::vm_stat(&alist, "live-uncached-segments").unwrap_or(0);
                        live_segments.push((now - before) as f64 / PARKED as f64);
                    }
                    Ok(())
                })?;
            if !trace.on() {
                self.bytes.push(bytes);
            }
        }
        drop(core);
        if let Some(w) = window.as_mut() {
            w.close(&self.pool)?;
            w.layers(m.attempted, m.window_s, &mut m.layers);
            m.layers.insert("core.live_segments_per_parked", quantile(&live_segments, 0.5));
        }
        Ok(m)
    }

    fn bytes_per_parked(&mut self, _cfg: &Config) -> Result<f64, String> {
        Ok(quantile(&self.bytes, 0.5))
    }

    fn teardown(self) -> Result<(), String> {
        pooled::stop(self.pool)
    }
}

/// Worker 0's live, uncached segment count.
fn live_uncached(pool: &Pool) -> Result<i64, String> {
    let alist = pooled::vm_stats(pool)?;
    crate::vm_stat(&alist, "live-uncached-segments")
        .ok_or_else(|| "no live-uncached-segments".into())
}

/// Runs one park cycle on `pool`, recording every op into `m`; returns
/// the RSS growth per parked job. `at_parked` runs once every job has
/// parked, after the RSS reading.
fn cycle(
    pool: &Pool,
    rng: &mut XorShiftRng,
    next_op: &mut u64,
    trace: &mut Trace,
    mut link_vm: Option<&mut Vm>,
    m: &mut Measured,
    at_parked: impl FnOnce(&Pool) -> Result<(), String>,
) -> Result<f64, String> {
    let (tx, rx) = mpsc::channel::<(usize, Instant)>();
    let waits_before = pool.stats().timer_waits;
    // The allocator keeps the last cycle's freed segments resident; hand
    // them back first, so the parked jobs' memory shows as growth.
    host::release_free_memory();
    let rss_before = host::rss_bytes();
    let mut pending = Vec::with_capacity(PARKED);
    let first = Instant::now();
    for i in 0..PARKED {
        let op = *next_op;
        *next_op += 1;
        let token = rng.below(1 << 40);
        let src = format!("(begin (timer-wait {WAIT_MS}) {token})");
        let t0 = Instant::now();
        let root = trace.open_at(OP, SpanId::NONE, op, t0);
        if let Some(vm) = link_vm.as_deref_mut() {
            pooled::compile_traced(trace, vm, root, op, &src)?;
        }
        let tx = tx.clone();
        let spec = JobSpec::new("park", src).on_complete(move |_| {
            let _ = tx.send((i, Instant::now()));
        });
        let handle = trace.span("Pool::submit", root, op, || pool.submit(spec));
        pending.push((handle.ok(), token, t0, root, op));
    }
    drop(tx);

    // Every job that was accepted parks once; wait for all of them.
    let accepted = pending.iter().filter(|p| p.0.is_some()).count() as u64;
    while pool.stats().timer_waits - waits_before < accepted {
        if first.elapsed() > OP_TIMEOUT {
            return Err("park: jobs did not park".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let parked_at = Instant::now();
    let rss_parked = host::rss_bytes();
    at_parked(pool)?;

    let mut done = vec![None; PARKED];
    for _ in 0..accepted {
        match rx.recv_timeout(OP_TIMEOUT) {
            Ok((i, t)) => done[i] = Some(t),
            Err(_) => break,
        }
    }
    for (i, (handle, token, t0, root, op)) in pending.into_iter().enumerate() {
        let (Some(handle), Some(t_done)) = (handle, done[i]) else {
            m.record(false, 0.0);
            continue;
        };
        let out = trace.span("JobHandle::wait", root, op, || handle.wait());
        trace.close_at(root, t_done);
        let ok = out.result.as_deref() == Ok(token.to_string().as_str());
        let due = t0 + Duration::from_millis(WAIT_MS);
        m.record(ok, t_done.saturating_duration_since(due).as_secs_f64() * 1e6);
    }
    m.mark((parked_at - first).as_secs_f64());
    Ok((rss_parked as f64 - rss_before as f64) / PARKED as f64)
}

/// `bytes_per_parked` for a workload other than `park`: [`PROBE_CYCLES`]
/// park cycles on a pool of the probe's own, outside the timed window;
/// the median cycle.
///
/// # Errors
///
/// The pool would not start, a cycle's jobs never parked, or a job came
/// back wrong.
pub fn probe(seed: u64) -> Result<f64, String> {
    let pool = pooled::start(RESIDENT, pooled::FUEL_SLICE)?;
    let mut rng = XorShiftRng::new(seed ^ 0x7061_726b);
    let mut next_op = 0;
    let mut trace = Trace::new(false);
    let mut bytes = Vec::with_capacity(PROBE_CYCLES);
    for _ in 0..PROBE_CYCLES {
        let mut m = Measured::default();
        bytes.push(cycle(&pool, &mut rng, &mut next_op, &mut trace, None, &mut m, |_| Ok(()))?);
        if m.failed > 0 {
            return Err(format!("park probe: {} jobs failed", m.failed));
        }
    }
    pooled::stop(pool)?;
    Ok(quantile(&bytes, 0.5))
}
