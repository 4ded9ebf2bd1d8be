//! The virtual machine.

mod builtins;
mod code;
mod exec;
mod gc;

use std::collections::HashMap;
use std::sync::{Arc, Weak};

use oneshot_compiler::{
    compile_program_with, CompiledProgram, CompilerOptions, Op, Pipeline, MNEMONICS,
};
use oneshot_core::{
    Config, ControlProbe, CountingProbe, FaultClock, FaultPlan, KontId, Overflow, RingTraceProbe,
    SegStack, SegmentId, Stats,
};
use oneshot_runtime::{
    datum_to_value, display_value, write_value, Heap, HeapStats, Obj, Symbols, Value,
};
use oneshot_sexp::read_all;

use crate::error::VmError;
use crate::slot::Slot;

pub(crate) use builtins::BuiltinFn;
pub(crate) use code::{CodeUnits, LoadedCode};

/// The Scheme prelude (list operations and other library procedures),
/// compiled through whichever pipeline the VM uses.
const PRELUDE: &str = include_str!("../../scheme/prelude.scm");
/// Hand-written CPS definitions of the control operators, loaded (through
/// the direct pipeline) only in CPS mode.
const CPS_PRELUDE: &str = include_str!("../../scheme/cps-prelude.scm");

/// Which control probe a VM installs on its segmented stack (a cloneable
/// *specification*; the probe itself lives inside the stack).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProbeSpec {
    /// No probe: control events cost nothing.
    #[default]
    Off,
    /// A [`CountingProbe`] aggregating control events into [`Stats`]
    /// totals, resettable mid-run (see [`Vm::probe_stats`]).
    Counting,
    /// A [`RingTraceProbe`] retaining the last `N` control events for
    /// [`Vm::trace_dump`].
    Ring(usize),
}

/// The probe a VM installs per its [`ProbeSpec`]. An enum rather than a
/// `Box<dyn ControlProbe>` so dispatch is a predictable branch (and the
/// common `Off` arm does nothing) instead of an indirect call.
#[derive(Debug, Clone)]
pub enum VmProbe {
    /// No instrumentation.
    Off,
    /// Counting control events.
    Counting(CountingProbe),
    /// Tracing the last N control events.
    Ring(RingTraceProbe),
}

impl From<ProbeSpec> for VmProbe {
    fn from(spec: ProbeSpec) -> Self {
        match spec {
            ProbeSpec::Off => VmProbe::Off,
            ProbeSpec::Counting => VmProbe::Counting(CountingProbe::new()),
            ProbeSpec::Ring(n) => VmProbe::Ring(RingTraceProbe::new(n)),
        }
    }
}

macro_rules! forward_probe {
    ($($method:ident($($arg:ident: $ty:ty),*);)*) => {
        impl ControlProbe for VmProbe {
            $(
                #[inline]
                fn $method(&mut self, $($arg: $ty),*) {
                    match self {
                        VmProbe::Off => {}
                        VmProbe::Counting(p) => p.$method($($arg),*),
                        VmProbe::Ring(p) => p.$method($($arg),*),
                    }
                }
            )*
        }
    };
}

forward_probe! {
    capture_multi(kont: KontId, seg: SegmentId, slots: usize);
    capture_one(kont: KontId, seg: SegmentId, slots: usize, span: usize);
    capture_empty();
    seal(kont: KontId, seg: SegmentId, pad: usize);
    reinstate(kont: KontId, seg: SegmentId, one_shot: bool, slots_copied: usize);
    overflow(kont: Option<KontId>, from: SegmentId, to: SegmentId, slots_moved: usize);
    underflow(seg: SegmentId);
    promotion(kont: KontId, walked: bool);
    split(kont: KontId, bottom: KontId, slots: usize);
    cache_hit(seg: SegmentId);
    cache_return(seg: SegmentId);
    segment_alloc(seg: SegmentId, slots: usize);
    prompt_push(kont: KontId, seg: SegmentId, slots: usize);
    subcont_take(head: Option<KontId>, records: usize, slots: usize, copied: usize);
    subcont_push(head: KontId, records: usize);
    abort_to_prompt(prompt: KontId, records: usize);
}

/// VM construction options. Prefer building through [`Vm::builder`]; the
/// struct remains public for embedders that store configurations.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Segmented-stack tuning (segment size, copy bound, policies, ...).
    pub stack: Config,
    /// Which compiler pipeline to run programs through.
    pub pipeline: Pipeline,
    /// Whether to load the Scheme prelude at construction.
    pub prelude: bool,
    /// Echo `display`/`write` output to stdout as well as the capture
    /// buffer.
    pub echo_output: bool,
    /// Which control probe to install on the stack.
    pub probe: ProbeSpec,
    /// Count executed instructions per opcode kind (see
    /// [`Vm::opcode_histogram`]). Adds a counter bump per instruction.
    pub opcode_histogram: bool,
    /// Compiler back-end options (superinstruction fusion, ...). Applies to
    /// every program this VM compiles, including the prelude.
    pub compiler: CompilerOptions,
    /// Heap collection threshold: allocations between GC safe-point
    /// checks. `None` keeps the heap's default adaptive trigger, which
    /// scales with the surviving live set; `Some(n)` pins it at `n`.
    pub gc_threshold: Option<usize>,
    /// Heap budget, in live objects. When a safe-point check finds the
    /// live set above the budget (after collecting), the VM raises a
    /// catchable `out-of-memory` condition instead of aborting. `None`
    /// disables the guard.
    pub heap_budget: Option<usize>,
    /// Deterministic fault-injection plan (chaos testing). `None` — the
    /// default — arms nothing and costs one disarmed-countdown branch per
    /// site.
    pub fault_plan: Option<FaultPlan>,
    /// Open-socket ceiling for the guest `%tcp-*` builtins. Exceeding it
    /// raises a catchable `io-error` condition instead of running the
    /// process into its fd limit.
    pub max_open_sockets: usize,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            stack: Config::default(),
            pipeline: Pipeline::Direct,
            prelude: true,
            echo_output: false,
            probe: ProbeSpec::Off,
            opcode_histogram: false,
            compiler: CompilerOptions::default(),
            gc_threshold: None,
            heap_budget: None,
            fault_plan: None,
            max_open_sockets: 16_384,
        }
    }
}

/// Fluent construction of a [`Vm`] — the primary construction path:
///
/// ```
/// use oneshot_vm::{ProbeSpec, Vm};
///
/// let mut vm = Vm::builder().probe(ProbeSpec::Counting).build();
/// vm.eval_str("(call/cc (lambda (k) (k 1)))").unwrap();
/// assert!(vm.probe_stats().is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct VmBuilder {
    cfg: VmConfig,
}

impl VmBuilder {
    /// Starts from the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts from an explicit configuration (e.g. one stored by an
    /// embedder and shared across a worker pool).
    pub fn from_config(cfg: VmConfig) -> Self {
        VmBuilder { cfg }
    }

    /// Starts from an existing full configuration.
    pub fn config(mut self, cfg: VmConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the compiler pipeline.
    pub fn pipeline(mut self, pipeline: Pipeline) -> Self {
        self.cfg.pipeline = pipeline;
        self
    }

    /// Sets the segmented-stack configuration.
    pub fn stack(mut self, stack: Config) -> Self {
        self.cfg.stack = stack;
        self
    }

    /// Selects the control probe.
    pub fn probe(mut self, probe: ProbeSpec) -> Self {
        self.cfg.probe = probe;
        self
    }

    /// Enables per-opcode instruction counting.
    pub fn opcode_histogram(mut self, on: bool) -> Self {
        self.cfg.opcode_histogram = on;
        self
    }

    /// Whether to load the Scheme prelude (on by default).
    pub fn prelude(mut self, load: bool) -> Self {
        self.cfg.prelude = load;
        self
    }

    /// Whether the compiler fuses superinstructions (on by default).
    /// Turning it off yields the unfused instruction stream — same
    /// results, same control events, more dispatches (the E9 comparison).
    pub fn fuse(mut self, fuse: bool) -> Self {
        self.cfg.compiler.fuse = fuse;
        self
    }

    /// Echo `display`/`write` output to stdout as well as the capture
    /// buffer.
    pub fn echo_output(mut self, echo: bool) -> Self {
        self.cfg.echo_output = echo;
        self
    }

    /// Pins the heap's collection threshold (allocations between GC
    /// safe-point checks), disabling the adaptive trigger. Small values
    /// force frequent collections — used by the E10 experiment and GC
    /// stress tests.
    pub fn gc_threshold(mut self, objects: usize) -> Self {
        self.cfg.gc_threshold = Some(objects);
        self
    }

    /// Caps the heap at `objects` live objects; exceeding the budget at a
    /// safe point (after a collection fails to get back under it) raises a
    /// catchable `out-of-memory` condition.
    pub fn heap_budget(mut self, objects: usize) -> Self {
        self.cfg.heap_budget = Some(objects);
        self
    }

    /// Caps the segmented stack at `segments` live (non-cached) segments;
    /// growing past the ceiling raises a catchable `stack-overflow`
    /// condition. Zero disables the ceiling.
    pub fn max_stack_segments(mut self, segments: usize) -> Self {
        self.cfg.stack.max_segments = segments;
        self
    }

    /// Caps the guest socket table at `n` open sockets; exceeding the
    /// ceiling raises a catchable `io-error` condition.
    pub fn max_open_sockets(mut self, n: usize) -> Self {
        self.cfg.max_open_sockets = n;
        self
    }

    /// Installs a deterministic fault-injection plan (see
    /// [`FaultPlan`]); each armed countdown fires once and surfaces as
    /// the corresponding catchable condition.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.cfg.fault_plan = Some(plan);
        self
    }

    /// Builds the VM.
    ///
    /// # Panics
    ///
    /// Panics if the embedded prelude fails to compile — a build defect,
    /// covered by tests.
    pub fn build(self) -> Vm {
        Vm::from_config(self.cfg)
    }
}

oneshot_core::counters! {
    /// Aggregated statistics: instruction counts plus heap and stack counters.
    #[derive(Debug, Clone, Copy, Default)]
    #[non_exhaustive]
    pub struct VmStats {
        /// Bytecode instructions executed.
        counter instructions: u64,
        /// Procedure calls performed (closures, builtins, continuations).
        counter calls: u64,
        /// Garbage collections run.
        counter gc_collections: u64,
        /// Total wall-clock time spent inside the collector, in nanoseconds.
        counter gc_pause_ns: u64,
        /// Longest single collection pause, in nanoseconds.
        peak gc_max_pause_ns: u64,
        /// Heap objects freed by collections (GC volume).
        counter gc_objects_freed: u64,
        /// Scheme conditions raised (via `raise`/`raise-continuable` or a
        /// guarded fault such as `out-of-memory`).
        counter conditions_raised: u64,
        /// Injected faults consumed from a [`FaultPlan`] by this VM.
        counter faults_injected: u64,
        /// Size of one [`Value`] word in bytes (always
        /// `size_of::<Value>()`, 8 with the NaN-boxed representation),
        /// recorded so metrics documents are self-describing across
        /// representation changes.
        gauge value_word_bytes: u64,
        /// High-water mark of resident stack-segment memory, in bytes
        /// (resident slots x `size_of::<Slot>()`).
        peak segment_bytes_highwater: u64,
        /// Link units currently resident: one per [`Vm::load_program`] (or
        /// other link) whose code a collection has not yet found unreachable.
        gauge code_units_live: u64,
        /// Length of the flat instruction arena, in instructions: the code
        /// memory held, live units and reusable free ranges alike.
        gauge code_ops_resident: u64,
        /// Link units created: one per [`Vm::load_program`], `eval`, and
        /// uncached [`Vm::load_shared`] (a cache hit links nothing).
        counter code_links: u64,
        /// Heap statistics snapshot.
        nested heap: HeapStats,
        /// Segmented-stack statistics snapshot.
        nested stack: Stats,
    }
}

/// The virtual machine: heap, symbol table, segmented control stack,
/// loaded code, globals, and machine registers.
///
/// See the crate documentation for an example.
#[derive(Debug)]
pub struct Vm {
    pub(crate) heap: Heap,
    pub(crate) syms: Symbols,
    pub(crate) stack: SegStack<Slot, VmProbe>,
    /// Linked code objects, indexed by code id. Freed ids hold tombstones
    /// until a later link reuses them (see `code.rs`).
    pub(crate) codes: Vec<LoadedCode>,
    /// The flat instruction arena: every loaded code object's instructions,
    /// concatenated. `pc` is an absolute index into this vector; control
    /// transfers are pointer arithmetic on it.
    pub(crate) flat: Vec<Op>,
    /// The link units over `codes` and `flat`, with their free lists.
    pub(crate) units: CodeUnits,
    /// Shared programs linked by [`Vm::load_shared`], with their entry
    /// code ids. An entry whose program is still alive is a GC root; a
    /// dead one is dropped at the next collection or insertion.
    pub(crate) link_cache: Vec<(Weak<CompiledProgram>, u32)>,
    /// Globals. Unbound cells hold [`Value::UNDEFINED`], so the
    /// `GlobalRef` bound-check is one load + one compare.
    pub(crate) globals: Vec<Value>,
    pub(crate) global_names: Vec<String>,
    pub(crate) global_ids: HashMap<String, u32>,
    pub(crate) builtins: Vec<BuiltinFn>,
    // --- registers ---
    pub(crate) acc: Value,
    pub(crate) code: u32,
    pub(crate) pc: usize,
    pub(crate) closure: Value,
    pub(crate) argc: usize,
    /// Pending multiple values (`values` with n != 1).
    pub(crate) mv: Option<Vec<Value>>,
    /// The `dynamic-wind` winder list (a Scheme list of `(before . after)`
    /// pairs).
    pub(crate) winders: Value,
    /// The exception-handler stack (a Scheme list, innermost handler
    /// first), maintained by the `%push-handler!`/`%pop-handler!` builtins
    /// the prelude's `with-exception-handler` is built on. A GC root.
    pub(crate) handlers: Value,
    /// Latched when the heap budget raised `out-of-memory`, so one breach
    /// raises exactly once; cleared when the live set drops back under the
    /// budget or on recovery.
    pub(crate) oom_raised: bool,
    /// Heap budget in live objects (see [`VmConfig::heap_budget`]).
    pub(crate) heap_budget: Option<usize>,
    /// Injected timer-fault countdown: fires at a safe point, forcing the
    /// engine timer to expire early.
    pub(crate) timer_fault: FaultClock,
    /// Injected I/O-fault countdowns, ticked by the `%tcp-read`/`%tcp-write`
    /// builtins when `guards_active` (syscall-level chaos: short read,
    /// spurious would-block after readiness, connection reset).
    pub(crate) io_short_fault: FaultClock,
    pub(crate) io_spurious_fault: FaultClock,
    pub(crate) io_reset_fault: FaultClock,
    /// Whether any resource guard or fault plan was configured. Entry
    /// safe points branch on this one flag so an unguarded VM pays
    /// nothing for the fault machinery on its hot path.
    pub(crate) guards_active: bool,
    /// Scheme conditions raised.
    pub(crate) conditions_raised: u64,
    /// Injected faults consumed.
    pub(crate) faults_injected: u64,
    // --- engine timer (Dybvig–Hieb engines; drives Figure 5) ---
    pub(crate) timer_on: bool,
    pub(crate) fuel: u64,
    pub(crate) timer_handler: Value,
    // --- counters & output ---
    pub(crate) instructions: u64,
    pub(crate) calls: u64,
    /// Per-opcode execution counts, present when enabled in the config.
    pub(crate) opcode_hist: Option<Box<[u64; Op::KIND_COUNT]>>,
    // --- GC pause/volume tracking (see `gc.rs`) ---
    pub(crate) gc_collections: u64,
    pub(crate) gc_pause_ns: u64,
    pub(crate) gc_max_pause_ns: u64,
    pub(crate) gc_objects_freed: u64,
    /// Continuation mark worklist, reused across collections so the mark
    /// phase does not allocate in steady state.
    pub(crate) gc_kont_work: Vec<KontId>,
    pub(crate) out: String,
    pub(crate) echo: bool,
    /// Guest TCP sockets (see `crate::net`). Owned by the VM so a worker
    /// reset closes every socket of the jobs it killed.
    pub(crate) net: crate::net::NetTable,
    pipeline: Pipeline,
    compiler: CompilerOptions,
}

impl Vm {
    /// A VM with default configuration (direct pipeline, prelude loaded).
    ///
    /// # Panics
    ///
    /// Panics if the embedded prelude fails to compile — a build defect,
    /// covered by tests.
    pub fn new() -> Self {
        Self::from_config(VmConfig::default())
    }

    /// Starts fluent construction — the primary construction path.
    pub fn builder() -> VmBuilder {
        VmBuilder::new()
    }

    /// A VM with explicit configuration. Equivalent to
    /// `Vm::builder().config(cfg).build()`.
    ///
    /// # Panics
    ///
    /// Panics if the embedded prelude fails to compile.
    pub fn with_config(cfg: VmConfig) -> Self {
        Self::from_config(cfg)
    }

    fn from_config(cfg: VmConfig) -> Self {
        let mut vm = Vm {
            heap: Heap::new(),
            syms: Symbols::new(),
            stack: SegStack::with_probe(cfg.stack, Slot::Marker, VmProbe::from(cfg.probe)),
            codes: Vec::new(),
            flat: Vec::new(),
            units: CodeUnits::default(),
            link_cache: Vec::new(),
            globals: Vec::new(),
            global_names: Vec::new(),
            global_ids: HashMap::new(),
            builtins: Vec::new(),
            acc: Value::UNSPECIFIED,
            code: 0,
            pc: 0,
            closure: Value::UNSPECIFIED,
            argc: 0,
            mv: None,
            winders: Value::NIL,
            handlers: Value::NIL,
            oom_raised: false,
            heap_budget: None,
            timer_fault: FaultClock::disarmed(),
            io_short_fault: FaultClock::disarmed(),
            io_spurious_fault: FaultClock::disarmed(),
            io_reset_fault: FaultClock::disarmed(),
            guards_active: false,
            conditions_raised: 0,
            faults_injected: 0,
            timer_on: false,
            fuel: 0,
            timer_handler: Value::UNSPECIFIED,
            instructions: 0,
            calls: 0,
            opcode_hist: cfg.opcode_histogram.then(|| Box::new([0u64; Op::KIND_COUNT])),
            gc_collections: 0,
            gc_pause_ns: 0,
            gc_max_pause_ns: 0,
            gc_objects_freed: 0,
            gc_kont_work: Vec::new(),
            out: String::new(),
            echo: cfg.echo_output,
            net: crate::net::NetTable::new(cfg.max_open_sockets),
            pipeline: cfg.pipeline,
            compiler: cfg.compiler,
        };
        if let Some(t) = cfg.gc_threshold {
            vm.heap.set_gc_threshold(t);
        }
        vm.register_builtins();
        if cfg.pipeline == Pipeline::Cps {
            // Control operators get CPS definitions (direct pipeline: the
            // sources are hand-written CPS).
            vm.load_with(CPS_PRELUDE, Pipeline::Direct).expect("CPS prelude must load");
        }
        if cfg.prelude {
            vm.load_with(PRELUDE, cfg.pipeline).expect("prelude must load");
        }
        // Guards and fault clocks activate only after the prelude loads:
        // budgets and injected faults target user programs, and the
        // condition machinery they raise through is itself defined by the
        // prelude. Embedders whose boot loads more libraries (the engine
        // host's engines/driver/io sources) instead take the plan out of
        // the config and call [`Vm::arm_fault_plan`] once boot completes.
        vm.heap_budget = cfg.heap_budget;
        vm.guards_active = cfg.heap_budget.is_some() || cfg.fault_plan.is_some();
        if let Some(plan) = cfg.fault_plan {
            vm.arm_fault_plan(&plan);
        }
        vm
    }

    /// Arms every fault clock of `plan` against the VM's current
    /// counters, and switches the guard gate on. Injected faults target
    /// user programs: callers arm after their boot-time library loads, so
    /// a dense plan cannot kill the VM before it can serve.
    pub fn arm_fault_plan(&mut self, plan: &FaultPlan) {
        self.guards_active = true;
        if let Some(n) = plan.alloc_fault_after {
            self.heap.arm_alloc_fault(n);
        }
        if let Some(n) = plan.segment_fault_after {
            self.stack.arm_segment_fault(n);
        }
        if let Some(n) = plan.timer_fault_after {
            self.timer_fault = FaultClock::arm(n);
        }
        if let Some(n) = plan.io_short_after {
            self.io_short_fault = FaultClock::arm(n);
        }
        if let Some(n) = plan.io_spurious_after {
            self.io_spurious_fault = FaultClock::arm(n);
        }
        if let Some(n) = plan.io_reset_after {
            self.io_reset_fault = FaultClock::arm(n);
        }
    }

    /// The pipeline programs are compiled through.
    pub fn pipeline(&self) -> Pipeline {
        self.pipeline
    }

    // ------------------------------------------------------------------
    // Loading and evaluation
    // ------------------------------------------------------------------

    /// Reads, compiles, links, and runs every form in `src`, returning the
    /// value of the last one.
    ///
    /// # Errors
    ///
    /// Read, compile, or runtime errors; the VM remains usable afterwards.
    pub fn eval_str(&mut self, src: &str) -> Result<Value, VmError> {
        self.load_with(src, self.pipeline)
    }

    fn load_with(&mut self, src: &str, pipeline: Pipeline) -> Result<Value, VmError> {
        let forms = read_all(src).map_err(|e| VmError::Read(e.to_string()))?;
        let prog = compile_program_with(&forms, pipeline, self.compiler)
            .map_err(|e| VmError::Compile(e.to_string()))?;
        let entry = self.link(&prog);
        self.run_thunk(entry)
    }

    /// Compiles `src` to a [`CompiledProgram`] without touching any VM.
    ///
    /// The result is plain owned data (`Send`), so a program can be compiled
    /// once on a submitting thread and later linked into any number of VMs
    /// with [`Vm::load_program`] — the executor's compile-once/run-anywhere
    /// contract. The program must be linked into a VM whose pipeline and
    /// prelude match `pipeline`.
    ///
    /// # Errors
    ///
    /// [`VmError::Read`] or [`VmError::Compile`].
    pub fn compile_str(
        src: &str,
        pipeline: Pipeline,
        options: CompilerOptions,
    ) -> Result<CompiledProgram, VmError> {
        let forms = read_all(src).map_err(|e| VmError::Read(e.to_string()))?;
        compile_program_with(&forms, pipeline, options).map_err(|e| VmError::Compile(e.to_string()))
    }

    /// Links a [`CompiledProgram`] into this VM and returns its toplevel
    /// thunk as a zero-argument closure (every entry code object begins
    /// with `Op::Entry`, so it is directly callable).
    ///
    /// The returned closure is a fresh heap object and is **not** GC-rooted;
    /// pass it to [`Vm::call`] or store it in a global before running
    /// anything else on this VM. The linked code lives exactly as long as
    /// something can still run it: a collection keeps the code of every
    /// reachable closure (this thunk included) and of every pending return
    /// address, and reclaims the rest, constants and all.
    pub fn load_program(&mut self, prog: &CompiledProgram) -> Value {
        let entry = self.link(prog);
        self.entry_closure(entry)
    }

    /// Like [`Vm::load_program`], but links each shared program only once
    /// per VM: a later call with the same `Arc` (a server's handler
    /// template, a resubmitted job) reuses the linked code. Only a program
    /// that is shared when it is first linked (`Arc::strong_count > 1`) is
    /// cached, so a one-off job's code is reclaimed as soon as it is
    /// unreachable. A cached program keeps its code alive while the program
    /// itself is alive anywhere; its entry is dropped at the first
    /// collection (or cache insertion) after the last `Arc` goes away.
    ///
    /// Every load of a cached program runs the same linked code, so its
    /// quoted constants are one set of objects shared by all those runs,
    /// where [`Vm::load_program`] converts them afresh each time. Literals
    /// are immutable in Scheme and the VM does not enforce it: a program
    /// that mutates a quoted literal sees its own earlier mutations on
    /// later loads into the same VM.
    pub fn load_shared(&mut self, prog: &Arc<CompiledProgram>) -> Value {
        // The cache's `Weak` keeps the allocation of every cached program
        // in place, so no other live `Arc` can share its address.
        let key = Arc::as_ptr(prog);
        let entry = match self.link_cache.iter().find(|(w, _)| w.as_ptr() == key) {
            Some(&(_, entry)) => entry,
            None => {
                let entry = self.link(prog);
                if Arc::strong_count(prog) > 1 {
                    self.link_cache.retain(|(w, _)| w.strong_count() > 0);
                    self.link_cache.push((Arc::downgrade(prog), entry));
                }
                entry
            }
        };
        self.entry_closure(entry)
    }

    fn entry_closure(&mut self, entry: u32) -> Value {
        Value::obj(self.heap.alloc(Obj::Closure { code: entry, free: Box::new([]) }))
    }

    /// Clears per-job control state so the VM can be reused for the next
    /// job without rebuilding it (no re-interning of builtins or symbols).
    ///
    /// Resets the stack to an empty frame, drops pending winders, multiple
    /// values, and the engine timer, and discards captured output. Globals,
    /// linked code, the symbol table, probe counters, and cumulative
    /// statistics all survive — sealed continuation segments held by parked
    /// engines remain valid, and so does the code they return into.
    pub fn reset_for_reuse(&mut self) {
        self.recover();
        self.out.clear();
    }

    /// The raw file descriptor behind guest socket `token`, or `None` if
    /// the token is stale. The reactor registers this fd with poll(2);
    /// the descriptor stays owned by the VM and is closed by
    /// `%tcp-close` or VM teardown, at which point a registered poll
    /// entry reports `POLLNVAL` and self-cleans.
    pub fn net_fd(&self, token: i64) -> Option<i64> {
        self.net.fd(token)
    }

    /// Number of guest sockets currently open in this VM.
    pub fn net_live(&self) -> usize {
        self.net.live()
    }

    /// Closes guest socket `token` from the embedder side; `true` if it
    /// was still open. Used to scrap the adopted socket of a connection
    /// handler that failed without reaching its own `tcp-close` — the
    /// peer sees the close instead of a wedge, and the table does not
    /// leak. The closed fd is reported through
    /// [`Vm::drain_closed_fds`] like any guest-side close.
    pub fn close_socket(&mut self, token: i64) -> bool {
        self.net.close(token)
    }

    /// Adopts an already-connected, already-nonblocking stream (a
    /// shared-listener accept) into this VM's socket table. The token
    /// joins the pending-connection queue; the next handler job running
    /// here picks it up with `(conn-take)`.
    ///
    /// # Errors
    ///
    /// The socket-table cap (`max_open_sockets`) as a catchable
    /// `io-error` — the embedder sheds the connection.
    pub fn adopt_stream(&mut self, stream: std::net::TcpStream) -> Result<i64, VmError> {
        self.net.adopt(stream)
    }

    /// Moves the raw fds of every guest socket closed since the last call
    /// into `out`. The embedder forwards these to its reactor so waiters
    /// on a closed socket are woken (edge-triggered `epoll` silently
    /// drops interest in closed fds; without this, such a waiter would
    /// wedge).
    pub fn drain_closed_fds(&mut self, out: &mut Vec<i32>) {
        self.net.drain_closed(out);
    }

    /// Links a compiled program into the VM as one link unit, returning
    /// the loaded entry code index. Global references are resolved by
    /// name, code indices are rebased, and the instructions are written
    /// into a free range of the flat arena (or appended). The unit's
    /// instruction count is charged to the heap's allocation clock, so a
    /// VM that links a lot collects, and reclaims its unreachable code.
    pub(crate) fn link(&mut self, prog: &CompiledProgram) -> u32 {
        let n_ops: usize = prog.codes.iter().map(|c| c.ops.len()).sum();
        let (unit, base, mut ops_base) = self.units.alloc(
            &mut self.codes,
            &mut self.flat,
            u32::try_from(prog.codes.len()).expect("code ids exceed u32 range"),
            u32::try_from(n_ops).expect("flat arena exceeds u32 range"),
        );
        self.heap.charge(n_ops);
        // Map program-global indices to VM-global indices.
        let gmap: Vec<u32> = prog.globals.iter().map(|name| self.global_id(name)).collect();
        for (code, id) in prog.codes.iter().zip(base..) {
            let dst = &mut self.flat[ops_base as usize..ops_base as usize + code.ops.len()];
            for (d, op) in dst.iter_mut().zip(&code.ops) {
                *d = match *op {
                    Op::GlobalRef(i) => Op::GlobalRef(gmap[i as usize]),
                    Op::GlobalSet(i) => Op::GlobalSet(gmap[i as usize]),
                    Op::GlobalDef(i) => Op::GlobalDef(gmap[i as usize]),
                    Op::CallGlobal { g, disp, argc } => {
                        Op::CallGlobal { g: gmap[g as usize], disp, argc }
                    }
                    Op::TailCallGlobal { g, disp, argc } => {
                        Op::TailCallGlobal { g: gmap[g as usize], disp, argc }
                    }
                    Op::Closure(i) => Op::Closure(base + i),
                    other => other,
                };
            }
            let consts: Vec<Value> = code
                .consts
                .iter()
                .map(|d| datum_to_value(&mut self.heap, &mut self.syms, d))
                .collect();
            // Resumed frames must never outrun the post-reinstatement
            // headroom guarantee.
            self.stack.raise_reserve(code.frame_slots as usize + 2);
            self.codes[id as usize] = LoadedCode {
                name: code.name.clone(),
                frame_slots: code.frame_slots,
                base: ops_base,
                len: code.ops.len() as u32,
                consts,
                free_spec: code.free_spec.clone().into_boxed_slice(),
                unit,
            };
            ops_base += code.ops.len() as u32;
        }
        base + prog.entry
    }

    /// The linked code object `id`. Debug builds catch any access to a
    /// freed slot: reaching one means the collector missed a root.
    #[inline]
    pub(crate) fn loaded(&self, id: u32) -> &LoadedCode {
        let c = &self.codes[id as usize];
        debug_assert!(c.is_live(), "access to freed code object {id}");
        c
    }

    /// Runs a zero-argument code object from the VM rest state.
    pub(crate) fn run_thunk(&mut self, entry: u32) -> Result<Value, VmError> {
        debug_assert!(matches!(self.stack.get(self.stack.fp()), Slot::Marker));
        self.code = entry;
        self.pc = self.loaded(entry).base as usize;
        self.closure = Value::UNSPECIFIED;
        self.argc = 0;
        self.mv = None;
        let r = self.run();
        if r.is_err() {
            self.recover();
        }
        r
    }

    /// Calls a Scheme procedure from Rust with the given arguments.
    ///
    /// # Errors
    ///
    /// Runtime errors from the callee, or a type error if `f` is not
    /// applicable.
    pub fn call(&mut self, f: Value, args: &[Value]) -> Result<Value, VmError> {
        let r = (|| {
            self.ensure_or_raise(args.len() + 2, 1)?;
            let fp = self.stack.fp();
            for (i, a) in args.iter().enumerate() {
                self.stack.set(fp + 1 + i, Slot::Val(*a));
            }
            self.acc = f;
            self.mv = None;
            if let Some(v) = self.apply(f, args.len())? {
                return Ok(v);
            }
            self.run()
        })();
        // `run` intercepts `Condition` internally, but the pre-run `apply`
        // (or the initial ensure) can surface one directly; classify it as
        // uncaught while the stack is still intact for a backtrace.
        let r = r.map_err(|e| match e {
            VmError::Condition { kind, message } => {
                self.conditions_raised += 1;
                VmError::Uncaught {
                    condition: message,
                    kind: Some(kind.to_string()),
                    backtrace: self.backtrace(),
                }
            }
            other => other,
        });
        if r.is_err() {
            self.recover();
        }
        r
    }

    /// Grows the stack for `need` slots, turning a resource-ceiling refusal
    /// (segment budget or injected segment fault) into a catchable
    /// `stack-overflow` condition instead of growing past the limit.
    pub(crate) fn ensure_or_raise(&mut self, need: usize, live: usize) -> Result<(), VmError> {
        match self.stack.ensure(need, live, &crate::slot::slot_disp) {
            Overflow::Ceiling => self.ceiling_to_condition(need, live),
            _ => Ok(()),
        }
    }

    /// The [`Overflow::Ceiling`] slow path, kept out of line so the per-call
    /// `ensure_or_raise` stays small enough to inline.
    #[cold]
    #[inline(never)]
    fn ceiling_to_condition(&mut self, need: usize, live: usize) -> Result<(), VmError> {
        if self.stack.in_overflow_grace() {
            // Only an injected segment fault reports `Ceiling` with the
            // grace period already armed (a real ceiling leaves arming to
            // the embedder); no reclamation would help, so raise at once.
            self.faults_injected += 1;
            return Err(VmError::condition("stack-overflow", "stack segment ceiling exceeded"));
        }
        // A real ceiling can be pinned by dead segments awaiting a
        // sweep (e.g. the chain bypassed by a continuation escape);
        // collect once and retry before declaring overflow. The
        // `live` slots above fp are GC roots, so this is safe at
        // every ensure site.
        self.collect(live);
        match self.stack.ensure(need, live, &crate::slot::slot_disp) {
            Overflow::Ceiling => {
                self.stack.enter_overflow_grace();
                Err(VmError::condition("stack-overflow", "stack segment ceiling exceeded"))
            }
            _ => Ok(()),
        }
    }

    /// Resets control state after an error so the VM can keep evaluating.
    fn recover(&mut self) {
        self.stack.clear_to_empty();
        self.winders = Value::NIL;
        self.handlers = Value::NIL;
        self.oom_raised = false;
        self.mv = None;
        self.timer_on = false;
        self.closure = Value::UNSPECIFIED;
        // The accumulator is a GC root; a stale value from before the
        // error would pin an arbitrary object graph across the recovery.
        self.acc = Value::UNSPECIFIED;
    }

    // ------------------------------------------------------------------
    // Globals and symbols
    // ------------------------------------------------------------------

    pub(crate) fn global_id(&mut self, name: &str) -> u32 {
        if let Some(&i) = self.global_ids.get(name) {
            return i;
        }
        let i = self.globals.len() as u32;
        self.globals.push(Value::UNDEFINED);
        self.global_names.push(name.to_string());
        self.global_ids.insert(name.to_string(), i);
        i
    }

    /// Reads a global variable by name, if defined.
    pub fn global(&self, name: &str) -> Option<Value> {
        let &i = self.global_ids.get(name)?;
        let v = self.globals[i as usize];
        (v != Value::UNDEFINED).then_some(v)
    }

    /// Defines (or redefines) a global variable.
    pub fn set_global(&mut self, name: &str, v: Value) {
        let i = self.global_id(name) as usize;
        self.globals[i] = v;
    }

    /// Interns a symbol, returning it as a value.
    pub fn intern(&mut self, name: &str) -> Value {
        Value::sym(self.syms.intern(name))
    }

    // ------------------------------------------------------------------
    // Inspection
    // ------------------------------------------------------------------

    /// Formats a value with `display` conventions.
    pub fn display_value(&self, v: &Value) -> String {
        display_value(&self.heap, &self.syms, *v)
    }

    /// Formats a value with `write` conventions.
    pub fn write_value(&self, v: &Value) -> String {
        write_value(&self.heap, &self.syms, *v)
    }

    /// Takes the captured `display`/`write` output.
    pub fn take_output(&mut self) -> String {
        std::mem::take(&mut self.out)
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> VmStats {
        VmStats {
            instructions: self.instructions,
            calls: self.calls,
            gc_collections: self.gc_collections,
            gc_pause_ns: self.gc_pause_ns,
            gc_max_pause_ns: self.gc_max_pause_ns,
            gc_objects_freed: self.gc_objects_freed,
            conditions_raised: self.conditions_raised,
            faults_injected: self.faults_injected,
            value_word_bytes: std::mem::size_of::<Value>() as u64,
            segment_bytes_highwater: (self.stack.resident_slots_highwater()
                * std::mem::size_of::<Slot>()) as u64,
            code_units_live: self.units.live() as u64,
            code_ops_resident: self.flat.len() as u64,
            code_links: self.units.links(),
            heap: self.heap.stats(),
            stack: *self.stack.stats(),
        }
    }

    /// The control probe installed on the stack.
    pub fn probe(&self) -> &VmProbe {
        self.stack.probe()
    }

    /// Control-event totals observed by the probe, if a
    /// [`ProbeSpec::Counting`] probe is installed.
    ///
    /// Unlike [`Vm::stats`] (whose `stack` field counts from VM
    /// construction), these totals cover only events since construction or
    /// the last [`Vm::probe_reset`] — so an embedder can measure a region.
    pub fn probe_stats(&self) -> Option<Stats> {
        match self.stack.probe() {
            VmProbe::Counting(p) => Some(p.stats()),
            _ => None,
        }
    }

    /// Clears the probe's accumulated state (counters or trace ring).
    pub fn probe_reset(&mut self) {
        match self.stack.probe_mut() {
            VmProbe::Off => {}
            VmProbe::Counting(p) => p.reset(),
            VmProbe::Ring(p) => p.clear(),
        }
    }

    /// Renders the ring-trace buffer symbolically, one control event per
    /// line, oldest first — empty if no [`ProbeSpec::Ring`] probe is
    /// installed. A dropped-event note is appended when the ring has
    /// evicted older events.
    pub fn trace_dump(&self) -> String {
        let VmProbe::Ring(p) = self.stack.probe() else {
            return String::new();
        };
        let mut out = String::new();
        for ev in p.events() {
            out.push_str(&ev.to_string());
            out.push('\n');
        }
        if p.dropped() > 0 {
            out.push_str(&format!("({} earlier events dropped)\n", p.dropped()));
        }
        out
    }

    /// Per-opcode execution counts as `(mnemonic, count)` pairs, sorted by
    /// descending count with zero-count opcodes omitted. `None` unless
    /// opcode counting was enabled at construction
    /// ([`VmBuilder::opcode_histogram`]).
    pub fn opcode_histogram(&self) -> Option<Vec<(&'static str, u64)>> {
        let hist = self.opcode_hist.as_ref()?;
        let mut rows: Vec<(&'static str, u64)> = hist
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (MNEMONICS[i], n))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        Some(rows)
    }

    /// Read access to the heap (for embedders inspecting values and live
    /// counts — e.g. the E10 leak check).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Direct access to the heap (for embedders building values).
    pub fn heap_mut(&mut self) -> &mut Heap {
        &mut self.heap
    }

    /// Forces a full collection from outside the interpreter loop.
    ///
    /// Safe only between evaluations: the machine is quiescent, so no
    /// slot at or above the frame pointer is live (marking up to the
    /// segment's end would resurrect stale dead slots). The E10 leak
    /// check calls this twice around a workload and compares
    /// [`Heap::len`] — any growth is an unreclaimed object.
    pub fn collect_now(&mut self) {
        self.collect(0);
    }

    /// Total slot capacity of all live stack segments — the resident
    /// stack-memory measure behind the fragmentation experiment (§3.4).
    pub fn stack_resident_slots(&self) -> usize {
        self.stack.resident_slots()
    }

    /// Walks the control stack and returns the procedure names of every
    /// pending frame, innermost first — across segment boundaries and
    /// through the continuation chain. This is the §3.1 claim in action:
    /// the displacement carried by each return address (the paper's
    /// frame-size word) is what lets tools walk the stack.
    pub fn backtrace(&self) -> Vec<String> {
        let mut names = Vec::new();
        let code_name = |code: u32| self.loaded(code).name.clone();
        names.push(code_name(self.code));
        // The current record: from the active frame down to the base.
        let mut pos = self.stack.fp();
        let base = self.stack.base();
        loop {
            if names.len() > 4096 {
                return names; // runaway guard
            }
            match self.stack.get(pos) {
                Slot::Ret { code, disp, .. } => {
                    names.push(code_name(*code));
                    let d = *disp as usize;
                    if d == 0 || pos < base + d {
                        break;
                    }
                    pos -= d;
                }
                Slot::Resume { kind, disp } => {
                    names.push(format!("#<{kind:?}>"));
                    let d = *disp as usize;
                    if d == 0 || pos < base + d {
                        break;
                    }
                    pos -= d;
                }
                _ => break,
            }
        }
        // The continuation chain below.
        let mut cursor = self.stack.current_link();
        while let Some(k) = cursor {
            if names.len() > 4096 {
                break;
            }
            let kont = self.stack.kont(k);
            if kont.is_shot() {
                names.push("#<shot>".to_string());
                break;
            }
            let slice = self.stack.kont_slice(k);
            let mut pos = kont.occupied(); // one past the top frame region
            let mut ret = *kont.ret();
            loop {
                match &ret {
                    Slot::Ret { code, disp, .. } => {
                        names.push(code_name(*code));
                        let d = *disp as usize;
                        if d == 0 || pos < d {
                            break;
                        }
                        pos -= d;
                    }
                    Slot::Resume { kind, disp } => {
                        names.push(format!("#<{kind:?}>"));
                        let d = *disp as usize;
                        if d == 0 || pos < d {
                            break;
                        }
                        pos -= d;
                    }
                    _ => break,
                }
                if names.len() > 4096 {
                    break;
                }
                match slice.get(pos) {
                    Some(s) => ret = *s,
                    None => break,
                }
            }
            cursor = kont.link();
        }
        names
    }

    /// Number of live stack segments (cached ones included).
    pub fn stack_segment_count(&self) -> usize {
        self.stack.segment_count()
    }

    /// Number of occupied stack segments — live segments excluding the
    /// free-list cache. This is the measure leak checks should use: a
    /// segment returned to the cache is capacity, not a retained
    /// continuation.
    pub fn stack_live_segment_count(&self) -> usize {
        self.stack.live_segment_count()
    }

    /// Allocates a pair.
    pub fn cons(&mut self, car: Value, cdr: Value) -> Value {
        Value::obj(self.heap.alloc(Obj::Pair(car, cdr)))
    }

    /// Builds a Scheme list from a slice.
    pub fn list(&mut self, items: &[Value]) -> Value {
        let mut v = Value::NIL;
        for &item in items.iter().rev() {
            v = self.cons(item, v);
        }
        v
    }

    /// Reads a pair's car and cdr, if `v` is a pair.
    pub fn pair(&self, v: Value) -> Option<(Value, Value)> {
        v.as_obj().and_then(|r| self.heap.pair(r))
    }
}

impl Default for Vm {
    fn default() -> Self {
        Vm::new()
    }
}
