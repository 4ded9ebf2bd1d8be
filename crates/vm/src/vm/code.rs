//! Linked code and its reclamation.
//!
//! [`Vm::link`](super::Vm) records each call as one *link unit*: a
//! contiguous range of code ids (indices into `Vm::codes`) plus one
//! contiguous range of the flat instruction arena (`Vm::flat`). A unit is
//! kept or freed as a whole, which is what keeps the rebased
//! `Op::Closure(base + i)` operands inside it valid.
//!
//! During a collection the VM marks every unit whose code is still in use
//! (the `code` register, the code of every return address on the live
//! stack and in marked continuation records, every marked closure, and the
//! link cache). Only the constants of marked units are GC roots. Unmarked
//! units release their [`LoadedCode`] entries, and their two ranges go to
//! free lists keyed by length, which the next link reuses before growing
//! either vector. Live code never moves: return addresses hold absolute
//! `pc`s.

use std::collections::{BTreeMap, BTreeSet};

use oneshot_compiler::{FreeSrc, Op};
use oneshot_runtime::{Heap, Value};

/// The `unit` of a freed [`LoadedCode`] slot (a tombstone).
const FREED: u32 = u32::MAX;

/// A loaded (linked) code object: metadata plus a window into the VM's
/// flat instruction arena.
///
/// The instructions themselves live concatenated in `Vm::flat`; each
/// code object records only its base offset, so every control transfer is
/// an offset assignment — no per-transfer clone or refcount traffic.
#[derive(Debug)]
pub(crate) struct LoadedCode {
    /// Diagnostic name (error messages, backtraces).
    pub(crate) name: String,
    /// Maximum frame extent in slots (the `Entry` overflow check).
    pub(crate) frame_slots: u16,
    /// Offset of this code object's first instruction in `Vm::flat`.
    pub(crate) base: u32,
    /// Instruction count (diagnostics; the code body ends in an
    /// unconditional transfer, so dispatch never runs off the end).
    #[allow(dead_code)]
    pub(crate) len: u32,
    /// Constants lowered to runtime values (GC roots while the unit is
    /// marked).
    pub(crate) consts: Vec<Value>,
    /// Capture spec, pre-resolved at link time so closure creation reads
    /// it in place (no per-`Op::Closure` clone).
    pub(crate) free_spec: Box<[FreeSrc]>,
    /// The link unit this code belongs to, or `FREED` for a tombstone.
    pub(crate) unit: u32,
}

impl LoadedCode {
    /// A freed slot: owns nothing, and is caught by the debug-build check
    /// in `Vm::loaded` if anything still reaches it.
    pub(crate) fn tombstone() -> Self {
        LoadedCode {
            name: String::new(),
            frame_slots: 0,
            base: 0,
            len: 0,
            consts: Vec::new(),
            free_spec: Box::new([]),
            unit: FREED,
        }
    }

    /// Whether this slot holds linked code (not a tombstone).
    pub(crate) fn is_live(&self) -> bool {
        self.unit != FREED
    }
}

/// Free ranges of an index space that grows only at its end: best-fit
/// allocation by length, coalescing on release.
#[derive(Debug, Default)]
struct FreeRanges {
    /// `(len, start)`: the free lists keyed by length.
    by_len: BTreeSet<(u32, u32)>,
    /// `start -> len`: finds the neighbours to coalesce with.
    by_start: BTreeMap<u32, u32>,
}

impl FreeRanges {
    /// Takes the smallest free range of at least `len` and returns its
    /// start, putting any remainder back.
    fn take(&mut self, len: u32) -> Option<u32> {
        let &(have, start) = self.by_len.range((len, 0)..).next()?;
        self.remove(start, have);
        if have > len {
            self.insert(start + len, have - len);
        }
        Some(start)
    }

    /// Returns `[start, start + len)`, merged with any free neighbour.
    fn give(&mut self, mut start: u32, mut len: u32) {
        if let Some((&s, &l)) = self.by_start.range(..start).next_back() {
            if s + l == start {
                self.remove(s, l);
                start = s;
                len += l;
            }
        }
        if let Some(&l) = self.by_start.get(&(start + len)) {
            self.remove(start + len, l);
            len += l;
        }
        self.insert(start, len);
    }

    /// Removes the free range that ends at `end` (the vector's length),
    /// returning its start, so the vector can be truncated there.
    fn take_tail(&mut self, end: u32) -> Option<u32> {
        let (&s, &l) = self.by_start.iter().next_back()?;
        (s + l == end).then(|| {
            self.remove(s, l);
            s
        })
    }

    fn insert(&mut self, start: u32, len: u32) {
        self.by_len.insert((len, start));
        self.by_start.insert(start, len);
    }

    fn remove(&mut self, start: u32, len: u32) {
        self.by_len.remove(&(len, start));
        self.by_start.remove(&start);
    }
}

/// One `link` call's ranges of code ids and of the flat arena.
#[derive(Debug, Clone, Copy)]
struct LinkUnit {
    codes: (u32, u32),
    ops: (u32, u32),
    live: bool,
    marked: bool,
}

/// The link units of one VM: their ranges, GC marks, and the free lists
/// for both index spaces.
#[derive(Debug, Default)]
pub(crate) struct CodeUnits {
    units: Vec<LinkUnit>,
    free_units: Vec<u32>,
    free_codes: FreeRanges,
    free_ops: FreeRanges,
    /// Units ever allocated.
    links: u64,
}

/// Reserves `n` entries of `v`: a fitting free range if there is one,
/// else `n` new entries at the end, filled with `fill()`.
fn reserve<T>(v: &mut Vec<T>, free: &mut FreeRanges, n: u32, fill: impl FnMut() -> T) -> u32 {
    if let Some(start) = free.take(n) {
        return start;
    }
    let end = u32::try_from(v.len() + n as usize).expect("code arena exceeds u32 range");
    let start = end - n;
    v.resize_with(v.len() + n as usize, fill);
    start
}

impl CodeUnits {
    /// Reserves `n_codes` code ids and `n_ops` arena slots for a new unit,
    /// reusing freed ranges first. Returns `(unit, code base, ops base)`;
    /// the caller fills both ranges.
    pub(crate) fn alloc(
        &mut self,
        codes: &mut Vec<LoadedCode>,
        flat: &mut Vec<Op>,
        n_codes: u32,
        n_ops: u32,
    ) -> (u32, u32, u32) {
        let code_base = reserve(codes, &mut self.free_codes, n_codes, LoadedCode::tombstone);
        let ops_base = reserve(flat, &mut self.free_ops, n_ops, || Op::Unspec);
        self.links += 1;
        let unit = LinkUnit {
            codes: (code_base, n_codes),
            ops: (ops_base, n_ops),
            live: true,
            marked: false,
        };
        let id = match self.free_units.pop() {
            Some(id) => {
                self.units[id as usize] = unit;
                id
            }
            None => {
                self.units.push(unit);
                (self.units.len() - 1) as u32
            }
        };
        (id, code_base, ops_base)
    }

    /// Number of live units.
    pub(crate) fn live(&self) -> usize {
        self.units.len() - self.free_units.len()
    }

    /// Number of units ever allocated.
    pub(crate) fn links(&self) -> u64 {
        self.links
    }

    /// Clears every mark (start of a collection).
    pub(crate) fn begin_mark(&mut self) {
        for u in &mut self.units {
            u.marked = false;
        }
    }

    /// Marks the unit holding `code`; the first time, marks its constants
    /// in `heap` (they are roots only while the unit is reachable).
    ///
    /// Ids that name no linked code are ignored. Marking is conservative:
    /// the unused slots of a frame may still hold a return address (or a
    /// closure) left by a dead frame, whose code may since have been freed
    /// or its id reused. Such a slot is never executed, so at worst it
    /// keeps one unrelated unit alive until it is overwritten.
    pub(crate) fn mark(&mut self, codes: &[LoadedCode], heap: &mut Heap, code: u32) {
        let Some(c) = codes.get(code as usize).filter(|c| c.is_live()) else {
            return;
        };
        let u = &mut self.units[c.unit as usize];
        if u.marked {
            return;
        }
        u.marked = true;
        let (start, n) = u.codes;
        for c in &codes[start as usize..(start + n) as usize] {
            for &v in &c.consts {
                heap.mark_value(v);
            }
        }
    }

    /// Frees every live unmarked unit: its code slots become tombstones
    /// and both ranges return to the free lists. Free ranges at the end of
    /// either vector are truncated away.
    pub(crate) fn sweep(&mut self, codes: &mut Vec<LoadedCode>, flat: &mut Vec<Op>) {
        for (id, u) in self.units.iter_mut().enumerate() {
            if !u.live || u.marked {
                continue;
            }
            u.live = false;
            self.free_units.push(id as u32);
            let (start, n) = u.codes;
            for c in &mut codes[start as usize..(start + n) as usize] {
                *c = LoadedCode::tombstone();
            }
            self.free_codes.give(start, n);
            self.free_ops.give(u.ops.0, u.ops.1);
        }
        if let Some(start) = self.free_codes.take_tail(codes.len() as u32) {
            codes.truncate(start as usize);
        }
        if let Some(start) = self.free_ops.take_tail(flat.len() as u32) {
            flat.truncate(start as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_ranges_best_fit_split_and_coalesce() {
        let mut f = FreeRanges::default();
        f.give(0, 4);
        f.give(10, 2);
        assert_eq!(f.take(2), Some(10), "exact fit preferred over a larger range");
        assert_eq!(f.take(3), Some(0), "best fit splits");
        assert_eq!(f.take(1), Some(3), "the remainder is reusable");
        assert_eq!(f.take(1), None);
        f.give(4, 2);
        f.give(0, 4);
        f.give(6, 2);
        assert_eq!(f.take(8), Some(0), "both neighbours coalesce");
        f.give(0, 8);
        assert_eq!(f.take_tail(9), None);
        assert_eq!(f.take_tail(8), Some(0));
        assert_eq!(f.take(1), None);
    }
}
