//! Operation counters, and the one declaration they all come from.
//!
//! The paper's evaluation reports allocation volumes and copying costs; the
//! VM layer adds instruction counts on top. The counters are
//! hardware-independent, so the experiment harness can report deterministic
//! numbers alongside wall-clock times.
//!
//! Every counter struct in the workspace — [`Stats`] here, the heap's, the
//! VM's, and the worker pool's — is written through [`counters!`]: each
//! field once, with its doc comment and its [`Kind`]. The macro derives
//! `delta_since`, `accumulate`, and the [`Counters`] visitor from that
//! declaration, so an exporter walking the visitor carries a new field
//! without being told about it.

use std::sync::atomic::{AtomicU64, Ordering};

/// How a declared field combines across readings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotone volume: a delta subtracts it, a total sums it.
    Counter,
    /// A point-in-time reading: a delta or a total carries the later value.
    Gauge,
    /// A running maximum: a delta carries the later value, a total takes
    /// the larger.
    Peak,
}

/// One field as a [`Counters::visit`] callback sees it.
pub enum Reading<'a> {
    /// A scalar.
    Int(Kind, u64),
    /// A list of scalars (one per worker or bucket), combined element-wise.
    Ints(Kind, &'a [u64]),
    /// A text tag, carried like a gauge.
    Tag(&'a str),
    /// A nested declared struct.
    Nested(&'a dyn Counters),
}

/// A struct declared with [`counters!`], walkable field by field.
pub trait Counters {
    /// Calls `f` with each field's name and reading, in declaration order.
    fn visit(&self, f: &mut dyn FnMut(&'static str, Reading<'_>));
    /// Calls `f` on every scalar, list elements and nested fields included,
    /// in declaration order.
    fn visit_mut(&mut self, f: &mut dyn FnMut(Kind, &mut u64));
}

/// A type a declared field may have: `u64`, `Vec<u64>`, `&'static str`, or
/// another declared struct (declared `nested`).
pub trait Field {
    /// The change from `earlier` to `self` under `kind`. Readings come from
    /// one source, so a counter never decreases between them.
    #[must_use]
    fn delta(&self, earlier: &Self, kind: Kind) -> Self;
    /// Folds in `later` under `kind`.
    fn total(&mut self, later: &Self, kind: Kind);
    /// This field as a visitor sees it.
    fn read(&self, kind: Kind) -> Reading<'_>;
    /// Calls `f` on every scalar in this field.
    fn fill(&mut self, kind: Kind, f: &mut dyn FnMut(Kind, &mut u64));
}

impl Field for u64 {
    fn delta(&self, earlier: &u64, kind: Kind) -> u64 {
        match kind {
            Kind::Counter => self - earlier,
            Kind::Gauge | Kind::Peak => *self,
        }
    }

    fn total(&mut self, later: &u64, kind: Kind) {
        match kind {
            Kind::Counter => *self += later,
            Kind::Gauge => *self = *later,
            Kind::Peak => *self = (*self).max(*later),
        }
    }

    fn read(&self, kind: Kind) -> Reading<'_> {
        Reading::Int(kind, *self)
    }

    fn fill(&mut self, kind: Kind, f: &mut dyn FnMut(Kind, &mut u64)) {
        f(kind, self);
    }
}

impl Field for Vec<u64> {
    fn delta(&self, earlier: &Self, kind: Kind) -> Self {
        debug_assert_eq!(self.len(), earlier.len(), "readings of one source");
        self.iter().zip(earlier).map(|(now, then)| now.delta(then, kind)).collect()
    }

    fn total(&mut self, later: &Self, kind: Kind) {
        if self.len() < later.len() {
            self.resize(later.len(), 0);
        }
        for (acc, v) in self.iter_mut().zip(later) {
            acc.total(v, kind);
        }
    }

    fn read(&self, kind: Kind) -> Reading<'_> {
        Reading::Ints(kind, self)
    }

    fn fill(&mut self, kind: Kind, f: &mut dyn FnMut(Kind, &mut u64)) {
        for v in self {
            f(kind, v);
        }
    }
}

impl Field for &'static str {
    fn delta(&self, _: &Self, _: Kind) -> Self {
        self
    }

    fn total(&mut self, later: &Self, _: Kind) {
        *self = later;
    }

    fn read(&self, _: Kind) -> Reading<'_> {
        Reading::Tag(self)
    }

    fn fill(&mut self, _: Kind, _: &mut dyn FnMut(Kind, &mut u64)) {}
}

/// A field type with a lock-free mirror, for a struct whose fields are
/// bumped from many threads (see the mirror form of [`counters!`]).
pub trait AtomicField: Field {
    /// The shared, bumpable form of the field.
    type Atomic: Default + std::fmt::Debug;
    /// Reads the mirror. `Relaxed`: each field is a statistic that
    /// publishes no other data, and each is monotone on its own.
    fn load(atomic: &Self::Atomic) -> Self;
}

impl AtomicField for u64 {
    type Atomic = AtomicU64;

    fn load(atomic: &AtomicU64) -> u64 {
        atomic.load(Ordering::Relaxed)
    }
}

impl AtomicField for Vec<u64> {
    type Atomic = Vec<AtomicU64>;

    fn load(atomic: &Vec<AtomicU64>) -> Vec<u64> {
        atomic.iter().map(u64::load).collect()
    }
}

impl AtomicField for &'static str {
    type Atomic = &'static str;

    fn load(atomic: &&'static str) -> &'static str {
        atomic
    }
}

/// Declares a counter struct: every field once, with its doc comment and
/// its kind — `counter`, `gauge`, `peak` (see [`Kind`]), or `nested` for a
/// field that is itself a declared struct and combines field by field.
///
/// Generates the struct (all fields `pub`), an inherent `delta_since` and
/// `accumulate`, and the [`Counters`] visitor. A trailing
/// `struct Mirror;` also generates a `Default` mirror holding each field's
/// [`AtomicField::Atomic`] form, with a `snapshot` method that reads it into
/// the declared struct.
///
/// ```
/// oneshot_core::counters! {
///     /// Example counters.
///     #[derive(Debug, Clone, Default)]
///     pub struct Hits {
///         /// Requests served.
///         counter served: u64,
///         /// Largest batch seen.
///         peak batch_highwater: u64,
///     }
/// }
///
/// let earlier = Hits { served: 3, batch_highwater: 9 };
/// let later = Hits { served: 5, batch_highwater: 4 };
/// let d = later.delta_since(&earlier);
/// assert_eq!((d.served, d.batch_highwater), (2, 4));
/// let mut total = earlier.clone();
/// total.accumulate(&later);
/// assert_eq!((total.served, total.batch_highwater), (8, 9));
/// ```
#[macro_export]
macro_rules! counters {
    (@kind counter) => { $crate::Kind::Counter };
    (@kind gauge) => { $crate::Kind::Gauge };
    (@kind peak) => { $crate::Kind::Peak };
    // A nested struct combines under its own fields' kinds; the kind it is
    // handed is not read.
    (@kind nested) => { $crate::Kind::Counter };
    (@mirror [] $($rest:tt)*) => {};
    (@mirror [$(#[$meta:meta])* $vis:vis struct $mirror:ident]
        $name:ident $($field:ident: $ty:ty),*) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        $vis struct $mirror {
            $($vis $field: <$ty as $crate::AtomicField>::Atomic,)*
        }

        impl $mirror {
            /// Reads every field into a point-in-time copy.
            $vis fn snapshot(&self) -> $name {
                $name { $($field: $crate::AtomicField::load(&self.$field),)* }
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $kind:ident $field:ident: $ty:ty),* $(,)?
        }
        $($(#[$mmeta:meta])* $mvis:vis struct $mirror:ident;)?
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $(
                $(#[$fmeta])*
                #[doc = concat!("\n\nKind: `", stringify!($kind), "`.")]
                pub $field: $ty,
            )*
        }

        impl $name {
            /// The change from `earlier` to `self`, a later reading of the
            /// same source: counters subtract, gauges and peaks carry
            /// `self`'s value.
            #[must_use]
            pub fn delta_since(&self, earlier: &$name) -> $name {
                $name {
                    $($field: $crate::Field::delta(
                        &self.$field,
                        &earlier.$field,
                        $crate::counters!(@kind $kind),
                    ),)*
                }
            }

            /// Folds in `later`, a reading of another source or incarnation:
            /// counters sum, gauges take `later`'s value, peaks the larger.
            pub fn accumulate(&mut self, later: &$name) {
                $($crate::Field::total(
                    &mut self.$field,
                    &later.$field,
                    $crate::counters!(@kind $kind),
                );)*
            }
        }

        impl $crate::Field for $name {
            fn delta(&self, earlier: &Self, _: $crate::Kind) -> Self {
                self.delta_since(earlier)
            }

            fn total(&mut self, later: &Self, _: $crate::Kind) {
                self.accumulate(later);
            }

            fn read(&self, _: $crate::Kind) -> $crate::Reading<'_> {
                $crate::Reading::Nested(self)
            }

            fn fill(&mut self, _: $crate::Kind, f: &mut dyn FnMut($crate::Kind, &mut u64)) {
                $crate::Counters::visit_mut(self, f);
            }
        }

        impl $crate::Counters for $name {
            fn visit(&self, f: &mut dyn FnMut(&'static str, $crate::Reading<'_>)) {
                $(f(
                    stringify!($field),
                    $crate::Field::read(&self.$field, $crate::counters!(@kind $kind)),
                );)*
            }

            fn visit_mut(&mut self, f: &mut dyn FnMut($crate::Kind, &mut u64)) {
                $($crate::Field::fill(&mut self.$field, $crate::counters!(@kind $kind), f);)*
            }
        }

        $crate::counters!(@mirror [$($(#[$mmeta])* $mvis struct $mirror)?] $name $($field: $ty),*);
    };
}

counters! {
    /// Counters maintained by a [`SegStack`](crate::SegStack).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    #[non_exhaustive]
    pub struct Stats {
        /// Segments allocated from the system (cache misses included the first
        /// time a segment is created).
        counter segments_allocated: u64,
        /// Slot capacity of all segments ever allocated — the paper's
        /// "allocates less memory" measurements for stacks.
        counter segment_slots_allocated: u64,
        /// Fresh-segment requests satisfied by the segment cache (§3.2).
        counter cache_hits: u64,
        /// Segments returned to the cache.
        counter cache_returns: u64,
        /// Multi-shot captures performed (`call/cc`).
        counter captures_multi: u64,
        /// One-shot captures performed (`call/1cc`).
        counter captures_one: u64,
        /// Empty-stack captures that reused the link instead of allocating a
        /// continuation (the proper-tail-recursion rule of §3.2).
        counter captures_empty: u64,
        /// Multi-shot reinstatements (copying).
        counter reinstates_multi: u64,
        /// One-shot reinstatements (O(1) segment swap).
        counter reinstates_one: u64,
        /// Slots copied by multi-shot reinstatement, overflow hysteresis, and
        /// splitting combined — the copying overhead the one-shot mechanism
        /// eliminates.
        counter slots_copied: u64,
        /// Continuation splits performed to honour the copy bound.
        counter splits: u64,
        /// One-shot continuations promoted to multi-shot status (§3.3).
        counter promotions: u64,
        /// Continuation-chain links walked during promotion (measures the
        /// eager-walk cost; stays 0 under `SharedFlag`).
        counter promotion_steps: u64,
        /// Stack overflows handled.
        counter overflows: u64,
        /// Stack underflows handled (returns through a segment base).
        counter underflows: u64,
        /// One-shot continuations marked shot.
        counter shots: u64,
        /// Prompt records pushed (delimited-control boundaries sealed).
        counter prompts_pushed: u64,
        /// Subcontinuations taken (chain spliced out up to a prompt).
        counter subconts_taken: u64,
        /// Subcontinuations pushed back (chain spliced into the current stack).
        counter subconts_pushed: u64,
        /// Aborts delivered straight to a prompt without materializing the
        /// subcontinuation in between.
        counter aborts_to_prompt: u64,
        /// Occupied slots placed into subcontinuations by `take_subcont` —
        /// the delimited analogue of a capture's payload. Stolen one-shot
        /// records contribute without copying; promoted records are copied
        /// (and also counted in `slots_copied`).
        counter subcont_slots: u64,
        /// Total slots encapsulated (owned span, occupied or not) by explicit
        /// one-shot captures — the sealed region a `call/1cc` renders unusable
        /// until the continuation is shot. Compared against `subcont_slots` by
        /// the E16 expressiveness experiment.
        counter slots_encapsulated: u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_counter_wise() {
        let a = Stats { segments_allocated: 3, slots_copied: 100, ..Stats::default() };
        let b = Stats { segments_allocated: 5, slots_copied: 150, ..Stats::default() };
        let d = b.delta_since(&a);
        assert_eq!(d.segments_allocated, 2);
        assert_eq!(d.slots_copied, 50);
        assert_eq!(d.overflows, 0);
    }
}
