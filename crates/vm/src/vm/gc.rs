//! Garbage collection: coordinated marking across the heap and the
//! segmented control stack.
//!
//! Continuation heap objects reference stack records whose sealed slots
//! hold heap values; the current stack's live slots hold heap values; and
//! the current link chain may contain continuations with no heap object at
//! all (implicit overflow continuations). Marking therefore alternates
//! between the heap's gray worklist and a continuation worklist until both
//! drain.
//!
//! The mark phase is allocation-free in steady state: the heap scans
//! children in place ([`oneshot_runtime::Heap::mark_children`]), stack
//! slices are walked by reference (heap and stack are disjoint fields of
//! [`Vm`], so no values are copied out), and the continuation worklist
//! buffer is owned by the VM and reused across collections.
//!
//! Linked code is collected too (see `code.rs`). The walk that finds heap
//! values in frames also reads the code id of every return address — the
//! paper's §3.1 frame-size word is what makes the stack walkable — and
//! marked closures report their code ids through [`Heap::pop_code`]. A
//! link unit none of these reach is freed, constants and all.

use oneshot_runtime::Heap;

use crate::slot::Slot;
use crate::vm::{CodeUnits, LoadedCode, Vm};

impl Vm {
    /// Runs a full collection. `live_above_fp` is the number of live slots
    /// at and above the frame pointer (1 + argument count at the Entry
    /// safe point).
    pub(crate) fn collect(&mut self, live_above_fp: usize) {
        let started = std::time::Instant::now();
        self.heap.begin_gc();
        self.stack.begin_gc();
        // Reuse the continuation worklist across collections (no steady-
        // state allocation).
        let mut konts = std::mem::take(&mut self.gc_kont_work);
        konts.clear();

        self.units.begin_mark();

        // Roots: registers, globals, winders, timer handler, pending
        // multiple values, the running code, and cached shared programs.
        // Constants are roots only through their marked link unit.
        self.heap.mark_value(self.acc);
        self.heap.mark_value(self.closure);
        self.heap.mark_value(self.winders);
        self.heap.mark_value(self.handlers);
        self.heap.mark_value(self.timer_handler);
        if let Some(vals) = &self.mv {
            for &v in vals {
                self.heap.mark_value(v);
            }
        }
        for &v in &self.globals {
            self.heap.mark_value(v);
        }
        self.units.mark(&self.codes, &mut self.heap, self.code);
        self.link_cache.retain(|(prog, _)| prog.strong_count() > 0);
        for &(_, entry) in &self.link_cache {
            self.units.mark(&self.codes, &mut self.heap, entry);
        }
        // The live portion of the running stack.
        let lo = self.stack.base();
        let hi = (self.stack.fp() + live_above_fp).min(self.stack.end());
        self.mark_slot_range(lo, hi);
        // The current continuation chain (implicit continuations included).
        let mut cursor = self.stack.current_link();
        while let Some(k) = cursor {
            konts.push(k);
            cursor = self.stack.kont_link(k);
        }

        // Alternate the two worklists to a fixed point: heap marking
        // discovers continuation records (via `pop_kont`), and marking a
        // record's sealed slots discovers heap values.
        loop {
            let mut progressed = false;
            while let Some(r) = self.heap.pop_gray() {
                progressed = true;
                self.heap.mark_children(r);
            }
            while let Some(code) = self.heap.pop_code() {
                progressed = true;
                self.units.mark(&self.codes, &mut self.heap, code);
            }
            while let Some(k) = self.heap.pop_kont() {
                konts.push(k);
            }
            while let Some(k) = konts.pop() {
                progressed = true;
                if !self.stack.kont_alive(k) {
                    // Already swept in a previous cycle's terms — cannot
                    // happen mid-mark; defensive.
                    continue;
                }
                if self.stack.mark_kont(k) {
                    if let Some(l) = self.stack.kont_link(k) {
                        konts.push(l);
                    }
                    // The saved return address lives in the continuation
                    // object itself (not in the sealed slice) and carries
                    // the caller's closure and code.
                    let ret = self.stack.kont(k).ret();
                    mark_slot(&mut self.heap, &mut self.units, &self.codes, ret);
                    // A prompt record's tag slot is also object-resident
                    // (it holds the embedder's tag pair).
                    if let Some(tag) = self.stack.kont(k).prompt() {
                        mark_slot(&mut self.heap, &mut self.units, &self.codes, tag);
                    }
                    for s in self.stack.kont_slice(k) {
                        mark_slot(&mut self.heap, &mut self.units, &self.codes, s);
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        self.gc_kont_work = konts;

        self.units.sweep(&mut self.codes, &mut self.flat);
        self.heap.sweep();
        self.stack.sweep(false);

        let pause = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.gc_collections += 1;
        self.gc_pause_ns += pause;
        self.gc_max_pause_ns = self.gc_max_pause_ns.max(pause);
        self.gc_objects_freed += self.heap.stats().last_freed;
    }

    fn mark_slot_range(&mut self, lo: usize, hi: usize) {
        for i in lo..hi {
            mark_slot(&mut self.heap, &mut self.units, &self.codes, self.stack.get(i));
        }
    }

    /// Tells the VM writer where output goes (capture buffer + optional
    /// echo).
    pub(crate) fn emit_output(&mut self, s: &str) {
        self.out.push_str(s);
        if self.echo {
            print!("{s}");
        }
    }
}

/// Marks what a slot keeps alive: a frame value, or the saved closure and
/// the code of a return address.
fn mark_slot(heap: &mut Heap, units: &mut CodeUnits, codes: &[LoadedCode], s: &Slot) {
    match s {
        Slot::Val(v) => heap.mark_value(*v),
        Slot::Ret { code, closure, .. } => {
            heap.mark_value(*closure);
            units.mark(codes, heap, *code);
        }
        _ => {}
    }
}
