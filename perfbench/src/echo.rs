//! `echo`: `Pool::serve` with the echo handler, driven over loopback.
//!
//! One generator thread holds [`CONNS`] connections. Each step writes one
//! message on every connection, then reads every reply back in full and
//! compares it byte for byte: a closed loop, one op per round trip.
//! Messages are a seeded mix of 64 B (per-message cost dominates) and
//! 4 KiB. A seeded share of ops first replaces their connection with a
//! fresh one, which goes through accept, adopt, and a handler link. The
//! reactor, the `%tcp-*` builtins and the engine block/resume path
//! dominate; the compiler is bypassed apart from linking the handler on
//! each new connection.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use oneshot_bench::rng::XorShiftRng;
use oneshot_exec::{JobSpec, Pool, ServeHandle};
use oneshot_vm::{CompiledProgram, CompilerOptions, Pipeline, Vm};

use crate::host::CoreRotation;
use crate::pooled::{self, Window, OP_TIMEOUT};
use crate::trace::{SpanId, Trace, OP};
use crate::{park, quantile, Config, Measured, Workload, ROTATE_EVERY};

/// The per-connection echo handler (as in the repository's echo-server
/// example): take the adopted socket, echo every chunk until EOF.
pub const HANDLER: &str = "(let ((c (conn-take)))
       (let loop ()
         (let ((d (tcp-read c 4096)))
           (if (eq? d 'eof)
               (begin (tcp-close c) 'served)
               (begin (tcp-write c d) (loop))))))";

/// Connections the generator drives: no more than the host's cores.
pub const CONNS: usize = 2;

/// Engine-resident jobs per worker (the pool default).
const RESIDENT: usize = 8;

/// Round trips per second of `--seconds`.
const OPS_PER_S: f64 = 21000.0;

/// Share of ops sent on a fresh connection, in thousandths.
const FRESH_PER_MILLE: u64 = 50;

/// Share of ops that send 4 KiB rather than 64 B, in thousandths.
const LARGE_PER_MILLE: u64 = 200;

/// Message sizes.
const SMALL: usize = 64;
const LARGE: usize = 4096;

/// Seeded bytes that messages are cut from.
const PAYLOAD_BYTES: usize = 64 * 1024;

/// The pool, its listener, the open connections, and handler tallies.
pub struct Echo {
    pool: Pool,
    serve: ServeHandle,
    conns: Vec<TcpStream>,
    rng: XorShiftRng,
    payload: Vec<u8>,
    served: Arc<AtomicU64>,
    handler_failed: Arc<AtomicU64>,
    next_op: u64,
}

fn connect(port: u16) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(("127.0.0.1", port))?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(OP_TIMEOUT))?;
    s.set_write_timeout(Some(OP_TIMEOUT))?;
    Ok(s)
}

/// One op's progress on its connection.
struct RoundTrip {
    root: SpanId,
    op: u64,
    start: Instant,
    msg: std::ops::Range<usize>,
    connect_start: Option<Instant>,
    ok: bool,
}

impl Echo {
    /// Writes `msg`, under a span.
    fn send(&mut self, c: usize, rt: &mut RoundTrip, trace: &mut Trace) {
        let msg = &self.payload[rt.msg.clone()];
        let conn = &mut self.conns[c];
        rt.ok = trace.span("write", rt.root, rt.op, || conn.write_all(msg)).is_ok();
    }

    /// Reads the reply back in full and compares it; returns the time the
    /// first echoed byte arrived.
    fn receive(&mut self, c: usize, rt: &mut RoundTrip, trace: &mut Trace) -> Option<Instant> {
        let want = &self.payload[rt.msg.clone()];
        let mut got = vec![0u8; want.len()];
        let (mut n, mut first) = (0, None);
        while rt.ok && n < got.len() {
            let conn = &mut self.conns[c];
            match trace.span("read", rt.root, rt.op, || conn.read(&mut got[n..])) {
                Ok(0) | Err(_) => rt.ok = false,
                Ok(k) => {
                    first.get_or_insert_with(Instant::now);
                    n += k;
                }
            }
        }
        rt.ok = rt.ok && got == want;
        first
    }

    /// Replaces connection `c` with a fresh one, under a span.
    fn reconnect(&mut self, c: usize, root: SpanId, op: u64, trace: &mut Trace) -> bool {
        let port = self.serve.port();
        match trace.span("connect", root, op, || connect(port)) {
            Ok(s) => {
                // Dropping the old stream closes it: its handler sees EOF.
                self.conns[c] = s;
                true
            }
            Err(_) => false,
        }
    }
}

impl Workload for Echo {
    fn setup(cfg: &Config, _index: usize) -> Result<Self, String> {
        let pool = pooled::start(RESIDENT, pooled::FUEL_SLICE)?;
        let served = Arc::new(AtomicU64::new(0));
        let handler_failed = Arc::new(AtomicU64::new(0));
        let (ok_cb, bad_cb) = (Arc::clone(&served), Arc::clone(&handler_failed));
        let handler = JobSpec::new("echo-handler", HANDLER).on_complete(move |o| {
            if o.result.as_deref() == Ok("served") {
                ok_cb.fetch_add(1, Ordering::SeqCst);
            } else {
                bad_cb.fetch_add(1, Ordering::SeqCst);
            }
        });
        let serve = pool.serve("127.0.0.1:0", handler).map_err(|e| format!("serve: {e}"))?;
        let conns = (0..CONNS)
            .map(|_| connect(serve.port()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        let mut rng = XorShiftRng::new(cfg.seed);
        let payload = (0..PAYLOAD_BYTES).map(|_| b'!' + rng.below(94) as u8).collect();
        let mut echo =
            Echo { pool, serve, conns, rng, payload, served, handler_failed, next_op: 0 };
        // First round trip on every connection: each handler is running.
        let mut off = Trace::new(false);
        for c in 0..CONNS {
            let mut rt = RoundTrip {
                root: SpanId::NONE,
                op: 0,
                start: Instant::now(),
                msg: 0..SMALL,
                connect_start: None,
                ok: true,
            };
            echo.send(c, &mut rt, &mut off);
            echo.receive(c, &mut rt, &mut off);
            if !rt.ok {
                return Err(format!("echo warm-up failed on connection {c}"));
            }
        }
        Ok(echo)
    }

    fn measure(&mut self, cfg: &Config, trace: &mut Trace) -> Result<Measured, String> {
        let mut m = Measured::default();
        // Traced passes: a private VM and the handler compiled for it.
        let mut link: Option<(Vm, CompiledProgram)> = None;
        if trace.on() {
            // The handler, read and compiled once as `Pool::serve` does.
            let mut vm = Vm::new();
            let root = trace.open("load", SpanId::NONE, 0);
            pooled::compile_traced(trace, &mut vm, root, 0, HANDLER)?;
            trace.close(root);
            let prog = Vm::compile_str(HANDLER, Pipeline::Direct, CompilerOptions::default())
                .map_err(|e| e.to_string())?;
            link = Some((vm, prog));
        }
        let mut window = if trace.on() { Some(Window::open(&self.pool)?) } else { None };
        let failed_before = self.handler_failed.load(Ordering::SeqCst);
        let mut accept_us = Vec::new();
        let steps = cfg.units(OPS_PER_S / CONNS as f64);
        let mut core = CoreRotation::new(ROTATE_EVERY, 0);
        let start = Instant::now();
        for _ in 0..steps {
            core.tick();
            let mut trips = Vec::with_capacity(CONNS);
            for c in 0..CONNS {
                let op = self.next_op;
                self.next_op += 1;
                let fresh = self.rng.below(1000) < FRESH_PER_MILLE;
                let len = if self.rng.below(1000) < LARGE_PER_MILLE { LARGE } else { SMALL };
                let at = self.rng.below((PAYLOAD_BYTES - len) as u64) as usize;
                let t0 = Instant::now();
                let root = trace.open_at(OP, SpanId::NONE, op, t0);
                let mut rt = RoundTrip {
                    root,
                    op,
                    start: t0,
                    msg: at..at + len,
                    connect_start: fresh.then_some(t0),
                    ok: true,
                };
                if fresh {
                    rt.ok = self.reconnect(c, root, op, trace);
                    // The worker links the handler for every new
                    // connection; time the same link on the private VM.
                    if let Some((vm, prog)) = link.as_mut() {
                        trace.span("Vm::load_program", root, op, || vm.load_program(prog));
                    }
                }
                if rt.ok {
                    self.send(c, &mut rt, trace);
                }
                trips.push(rt);
            }
            for (c, mut rt) in trips.into_iter().enumerate() {
                let first = self.receive(c, &mut rt, trace);
                let end = Instant::now();
                trace.close_at(rt.root, end);
                if let (Some(c0), Some(f)) = (rt.connect_start, first) {
                    accept_us.push((f - c0).as_secs_f64() * 1e6);
                }
                m.record(rt.ok, (end - rt.start).as_secs_f64() * 1e6);
                if !rt.ok {
                    // A broken connection is replaced before its next op.
                    if let Ok(s) = connect(self.serve.port()) {
                        self.conns[c] = s;
                    }
                }
            }
            let now = start.elapsed().as_secs_f64();
            m.mark(now - m.window_s);
        }
        drop(core);
        // A handler that ended in error fails an op it served.
        for _ in failed_before..self.handler_failed.load(Ordering::SeqCst) {
            m.record(false, 0.0);
        }
        m.notes.insert("fresh_connections".into(), accept_us.len() as f64);
        if let Some(w) = window.as_mut() {
            w.close(&self.pool)?;
            w.layers(m.attempted, m.window_s, &mut m.layers);
            m.layers.insert("exec.accept_us", quantile(&accept_us, 0.5));
        }
        Ok(m)
    }

    fn bytes_per_parked(&mut self, cfg: &Config) -> Result<f64, String> {
        park::probe(cfg.seed)
    }

    fn teardown(self) -> Result<(), String> {
        let Echo { pool, serve, conns, served, handler_failed, .. } = self;
        drop(conns);
        // Every handler sees EOF and finishes before the pool stops.
        let deadline = Instant::now() + OP_TIMEOUT;
        while served.load(Ordering::SeqCst) + handler_failed.load(Ordering::SeqCst)
            < serve.accepted()
        {
            if Instant::now() > deadline {
                return Err("echo handlers did not finish".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        serve.stop();
        pooled::stop(pool)
    }
}
