//! The multicore machine: per-core interpreters plus the global scheduler.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use retcon_htm::{AnyProtocol, CommitResult, MemResult, StallAction, StallStorm};
use retcon_isa::{Addr, BlockAddr, CoreSet, Instr, Operand, Pc, Program, ValidateError, NUM_REGS};
use retcon_mem::{CoreId, MemorySystem};

use crate::config::SimConfig;
use crate::report::{CoreReport, SimReport, TimeBreakdown};
use crate::schedule::{Bound, CoreAction, DeterministicMin, Schedule, SchedulePeek, SeededFuzz};
use crate::tape::InputTape;

/// Errors a simulation run can report.
#[derive(Debug)]
pub enum SimError {
    /// A core's program failed validation.
    InvalidProgram {
        /// The offending core.
        core: usize,
        /// The validation failure.
        error: ValidateError,
    },
    /// The run exceeded [`SimConfig::max_cycles`].
    CycleLimit {
        /// The configured limit.
        limit: u64,
    },
    /// The requested core count exceeds every available [`CoreSet`] size
    /// class (the widest ships 16 words = 1024 cores).
    UnsupportedCores {
        /// The requested core count.
        requested: usize,
        /// The largest supported count.
        max: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidProgram { core, error } => {
                write!(f, "invalid program on core {core}: {error}")
            }
            SimError::CycleLimit { limit } => {
                write!(f, "simulation exceeded the {limit}-cycle safety cap")
            }
            SimError::UnsupportedCores { requested, max } => {
                write!(
                    f,
                    "{requested} cores exceeds the widest CoreSet size class ({max} cores)"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

#[derive(Debug)]
struct Core {
    pc: Pc,
    regs: [u64; NUM_REGS],
    reg_ckpt: [u64; NUM_REGS],
    tape: InputTape,
    now: u64,
    halted: bool,
    at_barrier: bool,
    tx_begin_pc: Option<Pc>,
    /// Cycles spent in the current transaction attempt; flushed to `busy` on
    /// commit or to `conflict` on abort.
    attempt_cycles: u64,
    breakdown: TimeBreakdown,
    instructions: u64,
}

impl Core {
    fn new(pc: Pc) -> Self {
        Core {
            pc,
            regs: [0; NUM_REGS],
            reg_ckpt: [0; NUM_REGS],
            tape: InputTape::default(),
            now: 0,
            halted: false,
            at_barrier: false,
            tx_begin_pc: None,
            attempt_cycles: 0,
            breakdown: TimeBreakdown::default(),
            instructions: 0,
        }
    }

    /// Charges `latency` cycles (transaction attempt or busy) and counts
    /// the instruction.
    #[inline]
    fn charge(&mut self, in_tx: bool, latency: u64) {
        self.now += latency;
        self.instructions += 1;
        if in_tx {
            self.attempt_cycles += latency;
        } else {
            self.breakdown.busy += latency;
        }
    }

    /// Handles a stall: the core waits `retry` cycles (conflict time) and
    /// retries the same instruction.
    #[inline]
    fn stall(&mut self, retry: u64) {
        self.now += retry;
        self.breakdown.conflict += retry;
    }

    /// Rolls control flow back to the transaction begin after an abort
    /// (zero-cycle rollback per the paper's baseline: memory state was
    /// restored by the protocol; only accounting and control flow happen
    /// here).
    fn restart_tx(&mut self) {
        self.breakdown.conflict += self.attempt_cycles;
        self.attempt_cycles = 0;
        self.regs = self.reg_ckpt;
        self.tape.rewind();
        self.pc = self
            .tx_begin_pc
            .expect("abort outside a transaction attempt");
    }

    #[inline]
    fn operand_value(&self, op: Operand) -> u64 {
        match op {
            Operand::Reg(r) => self.regs[r.index()],
            Operand::Imm(i) => i as u64,
        }
    }
}

/// The simulated multicore machine.
///
/// Construction wires `num_cores` interpreters to one shared memory system
/// and one concurrency-control protocol; [`run`](Machine::run) executes all
/// programs to completion, deterministically (the scheduler always advances
/// the core with the smallest `(clock, id)`).
///
/// See the crate-level documentation for a complete example.
pub struct Machine<const N: usize = 1> {
    cfg: SimConfig,
    mem: MemorySystem<N>,
    protocol: AnyProtocol<N>,
    cores: Vec<Core>,
    /// The programs this machine's cores run: core `c` runs
    /// `programs[first + c]`. Stored beside (not inside) the cores so the
    /// batched interpreter can hold the current basic block's instruction
    /// slice across the mutable per-core state it updates, and shared, so
    /// the shards of one workload index one slice instead of copying it.
    programs: Arc<[Program]>,
    /// The global index of this machine's core 0 in `programs`.
    first: usize,
    /// Whether stall-retry storms may be fast-forwarded analytically (see
    /// [`Cert`]). On by default; equivalence tests disable it to compare
    /// against step-by-step retry execution.
    fast_forward: bool,
    /// Each core's storm certificate, indexed by core.
    certs: Vec<Cert<N>>,
    /// The parked storms that train each core's conflict predictor.
    trainers: Trainers<N>,
    /// When enabled (sharded execution), the set of block ids this
    /// machine's cores touched through the protocol's read/write path.
    /// `None` keeps the hot path branch-free-in-practice (a never-taken,
    /// perfectly predicted check per access).
    footprint: Option<retcon_mem::FxHashSet<u64>>,
    /// When attached, transaction lifecycle events are recorded into this
    /// preallocated ring (see [`retcon_obs`]). Same `Option` discipline as
    /// `footprint`: `None` (the default) is a never-taken branch per
    /// event site, so the untraced hot path neither allocates nor slows,
    /// and the tracer is write-only — nothing in the simulation ever
    /// reads it back, which is what keeps traced and untraced runs
    /// byte-identical.
    tracer: Option<Box<retcon_obs::RingTracer>>,
}

/// A core's storm certificate: a validated stall-storm verdict, cached so
/// retries can be charged without re-executing the stalled instruction.
/// `Some` exactly while the core is parked in the storm.
///
/// When an access stalls, the protocol's
/// [`stall_storm`](AnyProtocol::stall_storm) dry run certifies (or
/// declines to certify) that every further retry of the same instruction
/// repeats the same outcome — same conflict verdict, no side effects
/// beyond the commuting storm updates (the stall counter, conflict-time
/// cycles, predictor training, commit-prefix L1-hit statistics). Every
/// input of the verdict lives on the contended block or a watched
/// commit-prefix block: a block's conflict mask and per-core speculative
/// bits change only with its footprint row, victim ages and activity
/// cannot change without a commit or abort clearing those bits, a watched
/// prefix block cannot gain a conflict or lose residency without a row
/// change (remote writes must resolve the conflict its speculative bits
/// raise), RETCON tracking transitions and DATM dependence-graph changes
/// wake explicitly ([`MemorySystem::wake_watchers`]), and the stalled
/// core's own architectural and engine state are frozen while it stalls
/// (a remote abort ends that, see below). So the certified core watches
/// those blocks ([`MemorySystem::watch`]), and the certificate is valid
/// until the first wake: the wake is its one freshness signal.
///
/// # Parking
///
/// A certified core leaves the runnable set and sleeps until a wake — a
/// change to a watched block, or a remote abort clearing its speculative
/// bits. Woken, it is charged in closed form the retries re-execution
/// would have run before the waking instruction ([`Peers::charge`]) and
/// re-executes for real. RETCON predictors that its retries train are
/// brought up to date before they are read ([`Trainers`]). DESIGN.md
/// § Fast-forward has the argument that this equals step-by-step
/// execution.
///
/// A core certifies only where it can park: under a batched decision
/// ([`Bound::Until`]/[`Bound::Free`]), where the closed form knows every
/// key that runs before the wake. A stepped schedule ([`Bound::Step`])
/// re-executes every retry, as [`Machine::set_fast_forward`]`(false)`
/// does.
///
/// A storm is about 540 bytes (its watch list is inline), so the oracle
/// writes it in place and a wake reads it there: moving it by value at
/// every park and wake cost python@32 eager about 7 % more CPU.
type Cert<const N: usize = 1> = Option<StallStorm<N>>;

impl<const N: usize> fmt::Debug for Machine<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("cfg", &self.cfg)
            .field("protocol", &self.protocol.name())
            .field("cores", &self.cores.len())
            .finish()
    }
}

impl<const N: usize> Machine<N> {
    /// Creates a machine running one program per core.
    ///
    /// Accepts any built-in protocol by value or an [`AnyProtocol`].
    ///
    /// # Panics
    ///
    /// Panics if `programs.len() != cfg.num_cores`.
    pub fn new(
        cfg: SimConfig,
        protocol: impl Into<AnyProtocol<N>>,
        programs: impl Into<Arc<[Program]>>,
    ) -> Self {
        let programs = programs.into();
        let cores = 0..programs.len();
        Self::with_programs(cfg, protocol, programs, cores)
    }

    /// Creates a machine whose core `i` runs `programs[cores.start + i]`:
    /// the shards of one workload share its programs this way.
    ///
    /// # Panics
    ///
    /// Panics if `cores.len() != cfg.num_cores` or `cores` reaches past
    /// `programs`.
    pub fn with_programs(
        cfg: SimConfig,
        protocol: impl Into<AnyProtocol<N>>,
        programs: Arc<[Program]>,
        cores: Range<usize>,
    ) -> Self {
        assert_eq!(
            cores.len(),
            cfg.num_cores,
            "need exactly one program per core"
        );
        Machine {
            mem: MemorySystem::new(cfg.mem, cfg.num_cores),
            protocol: protocol.into(),
            cores: programs[cores.clone()]
                .iter()
                .map(|p| Core::new(p.entry()))
                .collect(),
            certs: vec![None; cores.len()],
            trainers: Trainers::default(),
            footprint: None,
            tracer: None,
            programs,
            first: cores.start,
            cfg,
            fast_forward: true,
        }
    }

    /// The programs this machine's cores run, by local core index.
    fn programs(&self) -> &[Program] {
        &self.programs[self.first..self.first + self.cores.len()]
    }

    /// Enables block-footprint recording: every block a core reaches
    /// through the protocol's load/store path is collected, so a sharded
    /// run can prove its shards disjoint after the fact (see
    /// [`shard`](crate::shard)).
    pub fn set_track_footprint(&mut self, enabled: bool) {
        self.footprint = if enabled {
            Some(retcon_mem::FxHashSet::default())
        } else {
            None
        };
    }

    /// Detaches and returns the recorded block footprint, switching
    /// tracking off. `None` if tracking was never enabled.
    pub fn take_footprint(&mut self) -> Option<retcon_mem::FxHashSet<u64>> {
        self.footprint.take()
    }

    /// Attaches an event tracer: transaction begin/conflict/stall/
    /// repair/abort/commit and storm fast-forward events are recorded
    /// into `tracer`'s preallocated ring as the run executes. Tracing is
    /// observation-only — a traced run's report is byte-identical to an
    /// untraced one (pinned by the trace-determinism suite).
    pub fn set_tracer(&mut self, tracer: retcon_obs::RingTracer) {
        self.tracer = Some(Box::new(tracer));
    }

    /// Detaches and returns the tracer, with every event recorded so
    /// far. `None` if tracing was never enabled.
    pub fn take_tracer(&mut self) -> Option<retcon_obs::RingTracer> {
        self.tracer.take().map(|b| *b)
    }

    /// Enables or disables analytic fast-forwarding of stall-retry storms.
    ///
    /// Fast-forwarding is on by default and is observationally equivalent
    /// to executing every retry (the equivalence is pinned by the root
    /// property suite); disabling it forces the step-by-step retry loop,
    /// which the equivalence tests use as the reference. Stepped schedules
    /// ([`Bound::Step`]) run that loop either way.
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.fast_forward = enabled;
    }

    /// Installs `core`'s input tape.
    pub fn set_tape(&mut self, core: usize, values: Vec<u64>) {
        self.cores[core].tape = InputTape::new(values);
    }

    /// Writes an initial value into shared memory (workload setup; no
    /// timing).
    pub fn init_word(&mut self, addr: Addr, value: u64) {
        self.mem.write_word(addr, value);
    }

    /// The shared memory system.
    pub fn mem(&self) -> &MemorySystem<N> {
        &self.mem
    }

    /// The concurrency-control protocol.
    ///
    /// Returns the concrete [`AnyProtocol`] so callers reading counters
    /// ([`AnyProtocol::stats`], [`AnyProtocol::retcon_stats`]) dispatch
    /// through an inlined `match`, not a vtable.
    pub fn protocol(&self) -> &AnyProtocol<N> {
        &self.protocol
    }

    /// Runs every core to completion and reports.
    ///
    /// Scheduling policy: the deterministic `(clock, id)` minimum, unless
    /// [`SimConfig::schedule_seed`] selects a [`SeededFuzz`] perturbation
    /// (still exactly reproducible from the seed).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidProgram`] if any program fails validation;
    /// [`SimError::CycleLimit`] if the run exceeds the configured cap.
    pub fn run(&mut self) -> Result<SimReport, SimError> {
        match self.cfg.schedule_seed {
            None => self.run_with(&mut DeterministicMin::new()),
            Some(seed) => self.run_with(&mut SeededFuzz::new(seed)),
        }
    }

    /// Runs every core to completion under an explicit [`Schedule`] policy.
    ///
    /// The default policy ([`DeterministicMin`]) always advances the
    /// runnable core with the smallest `(clock, id)`: each runnable core
    /// has exactly one queued key carrying its current clock, and the
    /// popped core then *batches* — `run_core` keeps executing its
    /// instructions while `(clock, id)` stays strictly below the next queued
    /// key ([`Bound::Until`]). A core's clock only grows and no other core
    /// runs in between, so the batched execution order is identical to
    /// re-popping after every instruction — but the schedule is only
    /// consulted at stall boundaries (overtaken, barrier, halt).
    /// Exploration policies instead return [`Bound::Step`] and are
    /// consulted at every instruction boundary.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidProgram`] if any program fails validation;
    /// [`SimError::CycleLimit`] if the run exceeds the configured cap.
    pub fn run_with<S: Schedule + ?Sized>(&mut self, sched: &mut S) -> Result<SimReport, SimError> {
        for (i, program) in self.programs().iter().enumerate() {
            program
                .validate()
                .map_err(|error| SimError::InvalidProgram { core: i, error })?;
        }
        // Certificates describe "the core's next attempt repeats this stall" —
        // a statement about one schedule's trajectory. Drop them (and the
        // watchers a failed run left behind) so a different schedule starts
        // clean.
        for (c, cert) in self.certs.iter_mut().enumerate() {
            if let Some(storm) = cert.take() {
                self.mem.unwatch(CoreId(c), watched(&storm));
            }
        }
        self.mem.take_woken();
        self.trainers.by_core.clear();
        self.trainers.parked = 0;
        let clocks: Vec<u64> = self.cores.iter().map(|c| c.now).collect();
        sched.begin(&clocks);
        loop {
            let decision = sched.next_core(&MachinePeek {
                cores: &self.cores,
                programs: self.programs(),
                protocol: &self.protocol,
            });
            match decision {
                Some(d) => {
                    let c = d.core;
                    debug_assert!(
                        !self.cores[c].halted && !self.cores[c].at_barrier,
                        "schedule decided an unrunnable core {c}"
                    );
                    self.run_core(c, d.bound, sched)?;
                    let core = &self.cores[c];
                    let runnable = !core.halted && !core.at_barrier && self.certs[c].is_none();
                    sched.core_yielded(c, core.now, runnable);
                }
                // No runnable core, yet some sleep in a storm: nothing is
                // left to wake them, and re-execution would retry to the
                // limit.
                None if self.certs.iter().any(Option::is_some) => {
                    return Err(SimError::CycleLimit {
                        limit: self.cfg.max_cycles,
                    });
                }
                None => {
                    // No runnable core: either everyone halted, or every
                    // non-halted core is parked at the barrier.
                    if self.cores.iter().all(|c| c.halted) {
                        break;
                    }
                    self.release_barrier(sched);
                }
            }
        }
        Ok(self.report())
    }

    fn release_barrier<S: Schedule + ?Sized>(&mut self, sched: &mut S) {
        let release_at = self
            .cores
            .iter()
            .filter(|c| c.at_barrier)
            .map(|c| c.now)
            .max()
            .expect("release_barrier with no parked cores");
        for (i, c) in self.cores.iter_mut().enumerate() {
            if c.at_barrier {
                c.breakdown.barrier += release_at - c.now;
                c.now = release_at;
                c.at_barrier = false;
                sched.core_released(i, c.now);
            }
        }
    }

    fn report(&self) -> SimReport {
        let mut protocol_stats = retcon_htm::ProtocolStats::default();
        for i in 0..self.cores.len() {
            protocol_stats.merge(self.protocol.stats(CoreId(i)));
        }
        SimReport {
            protocol_name: self.protocol.name().to_string(),
            cycles: self.cores.iter().map(|c| c.now).max().unwrap_or(0),
            per_core: self
                .cores
                .iter()
                .map(|c| CoreReport {
                    breakdown: c.breakdown,
                    instructions: c.instructions,
                    finished_at: c.now,
                })
                .collect(),
            protocol: protocol_stats,
            retcon: self.protocol.retcon_stats(),
        }
    }

    /// Executes instructions on core `c` until its [`Bound`] expires: its
    /// `(clock, id)` reaches a [`Bound::Until`] key (the smallest key among
    /// the other runnable cores), one instruction attempt completes under
    /// [`Bound::Step`], it parks at a barrier or — under a batched bound —
    /// in a certified stall storm (see [`Cert`]), or it halts.
    /// [`Bound::Free`] means no other core is runnable. A parked core woken
    /// by this batch is queued at its new key, which tightens `bound`.
    ///
    /// # Equivalence with single-stepping
    ///
    /// The old scheduler popped the heap, executed *one* instruction, and
    /// re-pushed. Batching is observationally identical because between
    /// two instructions of the same core (a) no other core's clock moves,
    /// (b) this core's clock never decreases, and (c) the cycle-limit and
    /// remote-abort checks run per instruction here exactly as they ran
    /// per pop there. The loop exits the moment another core's `(clock,
    /// id)` key becomes smaller, which is precisely when the old scheduler
    /// would have popped a different core.
    fn run_core<S: Schedule + ?Sized>(
        &mut self,
        c: usize,
        mut bound: Bound,
        sched: &mut S,
    ) -> Result<(), SimError> {
        debug_assert!(
            !self.mem.wake_pending(),
            "a wake outlived the instruction that caused it"
        );
        debug_assert!(self.certs[c].is_none(), "decided parked core {c}");
        let core_id = CoreId(c);
        let max_cycles = self.cfg.max_cycles;
        let stall_retry = self.cfg.stall_retry;
        // A certified storm parks only where a wake can charge exactly what
        // re-execution would have run: the `(clock, id)` minimum decided in
        // batches. A stepped schedule re-executes every retry.
        let park = self.fast_forward && stall_retry > 0 && bound != Bound::Step;
        let num_cores = self.cores.len();
        // Hoist the per-instruction borrows out of the loop: the protocol,
        // the memory system and this core's interpreter state are disjoint
        // fields, resolved once per batch instead of per instruction.
        let Machine {
            mem,
            protocol,
            cores,
            programs,
            first,
            certs,
            trainers,
            footprint,
            tracer,
            ..
        } = self;
        // Tracing is observation-only: every `trace` call below records a
        // decision the simulator has already made, into memory
        // preallocated before the run. `None` (the default) is one
        // never-taken branch per event site, like `footprint`.
        use retcon_obs::EventKind;
        macro_rules! trace {
            ($kind:expr, $at:expr, $arg:expr) => {
                if let Some(t) = tracer.as_deref_mut() {
                    t.record(c, $kind, $at, $arg);
                }
            };
        }
        let (cores_lo, cores_rest) = cores.split_at_mut(c);
        let (core, cores_hi) = cores_rest.split_first_mut().expect("core index in range");
        let (certs_lo, certs_rest) = certs.split_at_mut(c);
        let (cert, certs_hi) = certs_rest.split_first_mut().expect("core index in range");
        let mut peers = Peers {
            c,
            cores: (cores_lo, cores_hi),
            certs: (certs_lo, certs_hi),
            trainers,
            stall_retry,
        };
        // The clock this core's current instruction started at: the key
        // `(at, c)` of whatever it bumps.
        let mut at: u64;
        // Before this core accesses memory: the parked storms that train its
        // predictor catch up to its key (see [`Trainers`]).
        macro_rules! flush_trainers {
            () => {
                if peers.trainers.parked != 0 {
                    peers.flush_trainers(protocol, mem, tracer.as_deref_mut(), core.now);
                }
            };
        }
        // A stalled attempt, whichever instruction took it: charge the retry
        // latency, then ask the protocol whether the retry is a fixed point.
        // A parked core leaves the batch, releasing whoever this
        // instruction woke on its way out.
        macro_rules! stall {
            ($action:expr, $arg:expr) => {{
                let jitter = sched.observe_stall(c, core.now);
                debug_assert!(
                    jitter == 0 || bound == Bound::Step,
                    "a batched decision for core {c} drew stall jitter"
                );
                core.stall(stall_retry + jitter);
                trace!(EventKind::Stall, core.now, $arg);
                // The pending-abort flag was taken before this instruction,
                // and the one access that aborts its own requester remotely
                // (a DATM cascade) returns `Abort`, not a stall: a parked
                // core with its restart pending would sleep through it.
                debug_assert!(
                    !protocol.abort_pending(core_id),
                    "core {c} stalled with its own abort pending"
                );
                // A certified storm watches the blocks its verdict read and
                // parks; its retries are charged when it is woken.
                if park {
                    *cert = protocol.stall_storm(core_id, $action, mem);
                    if let Some(storm) = cert {
                        mem.watch(core_id, watched(storm));
                        if mem.wake_pending() {
                            peers.wake(protocol, mem, tracer.as_deref_mut(), sched, (at, c));
                        }
                        peers.trainers.add(c, storm.train_mask, num_cores);
                        return Ok(());
                    }
                }
            }};
        }
        let program = &programs[*first + c];
        // Current basic block's instruction slice, refreshed only on
        // control transfers: the straight-line fetch is one indexed load.
        let mut block = core.pc.block;
        let mut instrs = program.block_instrs(block);
        // Transactional status for cycle accounting, tracked locally — it
        // only changes at the boundaries handled below, so the batch loop
        // charges cycles without a protocol query per instruction.
        let mut in_tx = protocol.tx_active(core_id);
        // Whether an instruction attempt already completed (Bound::Step
        // yields after exactly one; a restart forced by a *remote* abort is
        // bookkeeping, not an attempt, and does not consume the step).
        let mut stepped = false;
        loop {
            match bound {
                Bound::Until(b_clock, b_id) => {
                    if (core.now, c) >= (b_clock, b_id) {
                        return Ok(());
                    }
                }
                Bound::Step => {
                    if stepped {
                        return Ok(());
                    }
                }
                Bound::Free => {}
            }
            if core.now > max_cycles {
                return Err(SimError::CycleLimit { limit: max_cycles });
            }
            // A remote core may have aborted us before this batch; the
            // check stays per-instruction to mirror the protocols' abort
            // handshake exactly (DATM's cascades can raise the flag from
            // this core's own accesses).
            if protocol.take_aborted(core_id) {
                core.restart_tx();
                in_tx = false;
                trace!(EventKind::Abort, core.now, 2); // remote
                continue;
            }
            debug_assert_eq!(
                in_tx,
                protocol.tx_active(core_id),
                "batched in_tx fell out of sync on core {c}"
            );
            let pc = core.pc;
            if pc.block != block {
                block = pc.block;
                instrs = program.block_instrs(block);
            }
            let instr = *instrs
                .get(pc.index)
                .expect("validated program cannot run off the end");
            at = core.now;
            match instr {
                Instr::Imm { dst, value } => {
                    protocol.on_imm(core_id, dst);
                    core.regs[dst.index()] = value;
                    core.pc = pc.next();
                    core.charge(in_tx, 1);
                }
                Instr::Mov { dst, src } => {
                    protocol.on_mov(core_id, dst, src);
                    core.regs[dst.index()] = core.regs[src.index()];
                    core.pc = pc.next();
                    core.charge(in_tx, 1);
                }
                Instr::Bin { op, dst, lhs, rhs } => {
                    let lhs_val = core.regs[lhs.index()];
                    let rhs_val = core.operand_value(rhs);
                    let rhs_reg = match rhs {
                        Operand::Reg(r) => Some(r),
                        Operand::Imm(_) => None,
                    };
                    let result = protocol.on_alu(core_id, op, dst, lhs, rhs_reg, lhs_val, rhs_val);
                    core.regs[dst.index()] = result;
                    core.pc = pc.next();
                    core.charge(in_tx, 1);
                }
                Instr::Load { dst, addr, offset } => {
                    let a = Addr(core.regs[addr.index()]).offset(offset);
                    if let Some(fp) = footprint.as_mut() {
                        fp.insert(a.block().0);
                    }
                    flush_trainers!();
                    match protocol.read(core_id, dst, a, Some(addr), mem, core.now) {
                        MemResult::Value { value, latency } => {
                            core.regs[dst.index()] = value;
                            core.pc = pc.next();
                            core.charge(in_tx, latency);
                        }
                        MemResult::Stall => stall!(StallAction::Read(a), a.block().0),
                        MemResult::Abort => {
                            core.restart_tx();
                            in_tx = false;
                            trace!(EventKind::Conflict, core.now, a.block().0);
                            trace!(EventKind::Abort, core.now, 0); // access
                        }
                    }
                }
                Instr::Store { src, addr, offset } => {
                    let a = Addr(core.regs[addr.index()]).offset(offset);
                    if let Some(fp) = footprint.as_mut() {
                        fp.insert(a.block().0);
                    }
                    let value = core.operand_value(src);
                    let src_reg = match src {
                        Operand::Reg(r) => Some(r),
                        Operand::Imm(_) => None,
                    };
                    flush_trainers!();
                    match protocol.write(core_id, src_reg, value, a, Some(addr), mem, core.now) {
                        MemResult::Value { latency, .. } => {
                            core.pc = pc.next();
                            core.charge(in_tx, latency);
                        }
                        MemResult::Stall => stall!(StallAction::Write(a), a.block().0),
                        MemResult::Abort => {
                            core.restart_tx();
                            in_tx = false;
                            trace!(EventKind::Conflict, core.now, a.block().0);
                            trace!(EventKind::Abort, core.now, 0); // access
                        }
                    }
                }
                Instr::Branch {
                    op,
                    lhs,
                    rhs,
                    taken,
                    not_taken,
                } => {
                    let lhs_val = core.regs[lhs.index()];
                    let rhs_val = core.operand_value(rhs);
                    let rhs_reg = match rhs {
                        Operand::Reg(r) => Some(r),
                        Operand::Imm(_) => None,
                    };
                    let outcome = protocol.on_branch(core_id, op, lhs, rhs_reg, lhs_val, rhs_val);
                    core.pc = Pc::at(if outcome { taken } else { not_taken });
                    core.charge(in_tx, 1);
                }
                Instr::Jump { target } => {
                    core.pc = Pc::at(target);
                    core.charge(in_tx, 1);
                }
                Instr::Input { dst } => {
                    protocol.on_imm(core_id, dst);
                    let v = core.tape.next();
                    core.regs[dst.index()] = v;
                    core.pc = pc.next();
                    core.charge(in_tx, 1);
                }
                Instr::Work { cycles } => {
                    core.pc = pc.next();
                    core.charge(in_tx, cycles as u64);
                }
                Instr::TxBegin => {
                    debug_assert!(!protocol.tx_active(core_id), "nested TxBegin on core {c}");
                    protocol.tx_begin(core_id, core.now);
                    trace!(EventKind::TxBegin, core.now, 0);
                    core.tx_begin_pc = Some(pc);
                    core.reg_ckpt = core.regs;
                    core.tape.mark();
                    core.pc = pc.next();
                    in_tx = true;
                    core.charge(in_tx, 1);
                }
                Instr::TxCommit => {
                    flush_trainers!();
                    match protocol.commit(core_id, mem, core.now) {
                        CommitResult::Committed {
                            latency,
                            reg_updates,
                        } => {
                            for &(r, v) in &reg_updates {
                                core.regs[r.index()] = v;
                            }
                            // The attempt's work becomes useful; commit
                            // processing is accounted as "other".
                            core.breakdown.busy += core.attempt_cycles + 1;
                            core.breakdown.other += latency;
                            core.attempt_cycles = 0;
                            core.tx_begin_pc = None;
                            core.now += latency + 1;
                            core.instructions += 1;
                            core.pc = pc.next();
                            in_tx = false;
                            // RETCON's repair-not-abort, visible at last:
                            // a commit that replayed symbolic register
                            // updates repaired instead of aborting.
                            if !reg_updates.is_empty() {
                                trace!(EventKind::Repair, core.now, reg_updates.len() as u64);
                            }
                            trace!(EventKind::Commit, core.now, latency);
                        }
                        CommitResult::Stall => stall!(StallAction::Commit, 0),
                        CommitResult::Abort => {
                            core.restart_tx();
                            in_tx = false;
                            trace!(EventKind::Abort, core.now, 1); // commit-time
                        }
                    }
                }
                Instr::Barrier => {
                    core.pc = pc.next();
                    core.at_barrier = true;
                    core.now += 1;
                    core.breakdown.busy += 1;
                    core.instructions += 1;
                    return Ok(());
                }
                Instr::Halt => {
                    core.halted = true;
                    return Ok(());
                }
            }
            stepped = true;
            // Release whoever this instruction woke, and stop the batch at
            // the first released key.
            if mem.wake_pending() {
                let key = peers.wake(protocol, mem, tracer.as_deref_mut(), sched, (at, c));
                bound = match bound {
                    Bound::Until(t, i) if (t, i) < key => bound,
                    Bound::Step => bound,
                    _ => Bound::Until(key.0, key.1),
                };
            }
        }
    }
}

/// The blocks a storm's certificate depends on: the contended block and
/// the watched prefix.
fn watched<const N: usize>(storm: &StallStorm<N>) -> impl Iterator<Item = BlockAddr> + '_ {
    std::iter::once(storm.block).chain(storm.watch.blocks().iter().copied())
}

/// Per core `e`, the parked cores whose storms train `e`'s conflict
/// predictor (`StallStorm::train_mask` contains `e`): before `e` accesses
/// memory those storms are charged up to its key, so the predictor it reads
/// has seen every retry that precedes it.
#[derive(Debug, Default)]
struct Trainers<const N: usize> {
    /// Indexed by core; empty until the first training storm parks.
    by_core: Vec<CoreSet<N>>,
    /// Parked storms with a non-empty train mask: the one test an access
    /// pays while none is parked.
    parked: usize,
}

impl<const N: usize> Trainers<N> {
    /// Parked core `w`'s storm trains the cores of `mask`.
    fn add(&mut self, w: usize, mask: CoreSet<N>, num_cores: usize) {
        if !mask.is_empty() {
            self.by_core.resize(num_cores, CoreSet::EMPTY);
            for e in mask {
                self.by_core[e].insert(w);
            }
            self.parked += 1;
        }
    }

    /// Woken core `w`'s storm, which trained the cores of `mask`, is over.
    fn remove(&mut self, w: usize, mask: CoreSet<N>) {
        if !mask.is_empty() {
            for e in mask {
                self.by_core[e].remove(w);
            }
            self.parked -= 1;
        }
    }
}

/// The cores a batch does not run, split around the running core `c` so
/// that waking or charging a watcher can move its clock and end its
/// certificate while `c`'s state is borrowed. Its methods are the rare
/// paths of fast-forward, kept out of line so that each `run_core` instance
/// carries them once.
struct Peers<'a, const N: usize> {
    c: usize,
    cores: (&'a mut [Core], &'a mut [Core]),
    certs: (&'a mut [Cert<N>], &'a mut [Cert<N>]),
    trainers: &'a mut Trainers<N>,
    stall_retry: u64,
}

impl<const N: usize> Peers<'_, N> {
    fn get(&mut self, w: usize) -> (&mut Core, &mut Cert<N>) {
        if w < self.c {
            (&mut self.cores.0[w], &mut self.certs.0[w])
        } else {
            let i = w - self.c - 1;
            (&mut self.cores.1[i], &mut self.certs.1[i])
        }
    }

    /// Charges parked core `w` the certified retries it owes before the key
    /// `(clock, id)`: exactly those whose own `(clock, w)` key sorts below
    /// it, which re-execution would have run (each stalling identically)
    /// before the instruction at that key. Leaves `w` at its next retry's
    /// clock and applies the retries' side effects.
    #[inline(never)]
    fn charge(
        &mut self,
        protocol: &mut AnyProtocol<N>,
        mem: &mut MemorySystem<N>,
        tracer: Option<&mut retcon_obs::RingTracer>,
        w: usize,
        (clock, id): (u64, usize),
    ) {
        let stall_retry = self.stall_retry;
        let (core, cert) = self.get(w);
        let storm = cert.as_ref().expect("a charged core is parked");
        let target = if w > id { clock } else { clock + 1 };
        let n = target.saturating_sub(core.now).div_ceil(stall_retry);
        if n != 0 {
            core.stall(n * stall_retry);
            protocol.apply_stall_retries(CoreId(w), storm, n, mem);
            if let Some(t) = tracer {
                t.record(w, retcon_obs::EventKind::StormFf, core.now, n);
            }
        }
    }

    /// Ends the certificate of every parked core the instruction at `key`
    /// woke: each is charged what it owes before `key`, stops watching and
    /// training, and is queued at its new clock. Returns the smallest
    /// released key.
    #[inline(never)]
    fn wake<S: Schedule + ?Sized>(
        &mut self,
        protocol: &mut AnyProtocol<N>,
        mem: &mut MemorySystem<N>,
        mut tracer: Option<&mut retcon_obs::RingTracer>,
        sched: &mut S,
        key: (u64, usize),
    ) -> (u64, usize) {
        let mut first = (u64::MAX, usize::MAX);
        for w in mem.take_woken() {
            self.charge(protocol, mem, tracer.as_deref_mut(), w, key);
            let (core, cert) = self.get(w);
            let now = core.now;
            let storm = cert.as_ref().expect("every watcher is parked");
            mem.unwatch(CoreId(w), watched(storm));
            let mask = storm.train_mask;
            *cert = None;
            self.trainers.remove(w, mask);
            sched.core_released(w, now);
            first = first.min((now, w));
        }
        first
    }

    /// Charges the parked storms that train the running core's predictor
    /// up to its key `(now, c)`; they stay parked.
    #[inline(never)]
    fn flush_trainers(
        &mut self,
        protocol: &mut AnyProtocol<N>,
        mem: &mut MemorySystem<N>,
        mut tracer: Option<&mut retcon_obs::RingTracer>,
        now: u64,
    ) {
        let key = (now, self.c);
        for w in self.trainers.by_core[self.c] {
            self.charge(protocol, mem, tracer.as_deref_mut(), w, key);
        }
    }
}

/// The read-only view a [`Schedule`] may consult before deciding: each
/// core's next action, derived from its program counter and registers.
struct MachinePeek<'a, const N: usize> {
    cores: &'a [Core],
    programs: &'a [Program],
    protocol: &'a AnyProtocol<N>,
}

impl<const N: usize> SchedulePeek for MachinePeek<'_, N> {
    fn num_cores(&self) -> usize {
        self.cores.len()
    }

    fn next_action(&self, c: usize) -> CoreAction {
        let core = &self.cores[c];
        if core.halted {
            return CoreAction::Local;
        }
        // A pending remote abort means this core's real next action is the
        // transaction restart — it re-executes from its TxBegin, and the
        // instruction (and address registers) under the current pc are
        // stale. Report the restart so exploration pruning never claims
        // independence for it (`CoreAction::conflicts_with` treats `Begin`
        // as conflicting with every transactional action).
        if self.protocol.abort_pending(CoreId(c)) {
            return CoreAction::Begin;
        }
        let instr = self.programs[c].block_instrs(core.pc.block)[core.pc.index];
        match instr {
            Instr::Load { addr, offset, .. } => {
                CoreAction::Read(Addr(core.regs[addr.index()]).offset(offset).block().0)
            }
            Instr::Store { addr, offset, .. } => {
                CoreAction::Write(Addr(core.regs[addr.index()]).offset(offset).block().0)
            }
            Instr::TxCommit => CoreAction::Commit,
            Instr::TxBegin => CoreAction::Begin,
            _ => CoreAction::Local,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retcon::RetconConfig;
    use retcon_htm::{ConflictPolicy, EagerTm, LazyTm, LazyVbTm, RetconTm};
    use retcon_isa::{BinOp, CmpOp, ProgramBuilder, Reg};

    /// `iters` transactional double-increments of the counter at `addr`,
    /// with `work` abstract cycles inside the transaction.
    fn counter_program(addr: u64, iters: u64, work: u32) -> Program {
        let mut b = ProgramBuilder::new();
        let body = b.block();
        let done = b.block();
        b.imm(Reg(0), iters);
        b.imm(Reg(1), addr);
        b.jump(body);
        b.select(body);
        b.tx_begin();
        b.load(Reg(2), Reg(1), 0);
        b.add_imm(Reg(2), 1);
        b.store(Operand::Reg(Reg(2)), Reg(1), 0);
        if work > 0 {
            b.work(work);
        }
        b.load(Reg(2), Reg(1), 0);
        b.add_imm(Reg(2), 1);
        b.store(Operand::Reg(Reg(2)), Reg(1), 0);
        b.tx_commit();
        b.bin(BinOp::Sub, Reg(0), Reg(0), Operand::Imm(1));
        b.branch(CmpOp::Gt, Reg(0), Operand::Imm(0), body, done);
        b.select(done);
        b.halt();
        b.build().unwrap()
    }

    fn run_counter(protocol: impl Into<AnyProtocol>, cores: usize, iters: u64) -> (SimReport, u64) {
        let cfg = SimConfig::with_cores(cores);
        let programs = (0..cores)
            .map(|_| counter_program(0, iters, 5))
            .collect::<Vec<_>>();
        let mut m: Machine = Machine::new(cfg, protocol, programs);
        let report = m.run().expect("run completes");
        (report, m.mem().read_word(Addr(0)))
    }

    #[test]
    fn single_core_counter_is_exact() {
        let (report, value) = run_counter(EagerTm::new(1, ConflictPolicy::OldestWins), 1, 50);
        assert_eq!(value, 100);
        assert_eq!(report.protocol.commits, 50);
        assert_eq!(report.protocol.aborts(), 0);
        assert_eq!(report.breakdown().conflict, 0);
    }

    #[test]
    fn eager_counter_serializes_correctly() {
        let (report, value) = run_counter(EagerTm::new(4, ConflictPolicy::OldestWins), 4, 25);
        assert_eq!(value, 4 * 25 * 2, "no lost updates");
        assert_eq!(report.protocol.commits, 100);
        // Heavy contention: conflicts must show up in the breakdown.
        assert!(report.breakdown().conflict > 0);
    }

    #[test]
    fn lazy_counter_serializes_correctly() {
        let (report, value) = run_counter(LazyTm::new(4), 4, 25);
        assert_eq!(value, 200);
        assert_eq!(report.protocol.commits, 100);
    }

    #[test]
    fn lazy_vb_counter_serializes_correctly() {
        let (report, value) = run_counter(LazyVbTm::new(4), 4, 25);
        assert_eq!(value, 200);
        assert_eq!(report.protocol.commits, 100);
        // Value validation aborts the racing increments.
        assert!(report.protocol.aborts_validation > 0);
    }

    #[test]
    fn retcon_counter_eliminates_aborts() {
        let cfg = RetconConfig {
            initial_threshold: 0,
            ..RetconConfig::default()
        };
        let (report, value) = run_counter(RetconTm::new(4, cfg), 4, 25);
        assert_eq!(value, 200, "symbolic repair preserves every increment");
        assert_eq!(report.protocol.commits, 100);
        assert_eq!(
            report.protocol.aborts(),
            0,
            "counter increments never conflict under RETCON"
        );
        let rs = report.retcon.expect("RETCON stats");
        assert_eq!(rs.transactions, 100);
        assert!(rs.avg_blocks_tracked() >= 1.0);
    }

    #[test]
    fn retcon_scales_better_than_eager_on_counter() {
        let (eager, _) = run_counter(EagerTm::new(8, ConflictPolicy::OldestWins), 8, 25);
        let cfg = RetconConfig {
            initial_threshold: 0,
            ..RetconConfig::default()
        };
        let (retcon, _) = run_counter(RetconTm::new(8, cfg), 8, 25);
        assert!(
            retcon.cycles < eager.cycles,
            "RETCON {} !< eager {}",
            retcon.cycles,
            eager.cycles
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || run_counter(EagerTm::new(4, ConflictPolicy::OldestWins), 4, 10).0;
        let a = run();
        let b = run();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.protocol, b.protocol);
        for (x, y) in a.per_core.iter().zip(&b.per_core) {
            assert_eq!(x.breakdown, y.breakdown);
            assert_eq!(x.instructions, y.instructions);
        }
    }

    #[test]
    fn barrier_synchronizes_and_accounts_imbalance() {
        // Core 0 works 1000 cycles, core 1 works 10, then both hit a
        // barrier.
        let prog = |work: u32| {
            let mut b = ProgramBuilder::new();
            b.work(work);
            b.barrier();
            b.halt();
            b.build().unwrap()
        };
        let cfg = SimConfig::with_cores(2);
        let protocol = EagerTm::new(2, ConflictPolicy::OldestWins);
        let mut m: Machine = Machine::new(cfg, protocol, vec![prog(1000), prog(10)]);
        let report = m.run().unwrap();
        assert_eq!(report.per_core[0].breakdown.barrier, 0);
        assert_eq!(report.per_core[1].breakdown.barrier, 990);
        assert_eq!(
            report.per_core[0].finished_at,
            report.per_core[1].finished_at
        );
    }

    #[test]
    fn input_tape_rewinds_on_abort() {
        // Two cores transactionally append tape values to a shared counter;
        // aborts must not skip or duplicate tape entries.
        let prog = {
            let mut b = ProgramBuilder::new();
            let body = b.block();
            let done = b.block();
            b.imm(Reg(0), 20);
            b.imm(Reg(1), 0);
            b.jump(body);
            b.select(body);
            b.tx_begin();
            b.input(Reg(3));
            b.load(Reg(2), Reg(1), 0);
            b.bin(BinOp::Add, Reg(2), Reg(2), Operand::Reg(Reg(3)));
            b.store(Operand::Reg(Reg(2)), Reg(1), 0);
            b.tx_commit();
            b.bin(BinOp::Sub, Reg(0), Reg(0), Operand::Imm(1));
            b.branch(CmpOp::Gt, Reg(0), Operand::Imm(0), body, done);
            b.select(done);
            b.halt();
            b.build().unwrap()
        };
        let cfg = SimConfig::with_cores(2);
        let protocol = EagerTm::new(2, ConflictPolicy::OldestWins);
        let mut m: Machine = Machine::new(cfg, protocol, vec![prog.clone(), prog]);
        m.set_tape(0, vec![1; 20]);
        m.set_tape(1, vec![1; 20]);
        let report = m.run().unwrap();
        assert_eq!(m.mem().read_word(Addr(0)), 40);
        assert_eq!(report.protocol.commits, 40);
    }

    #[test]
    fn register_checkpoint_restored_on_abort() {
        // A transaction that increments a register *and* conflicts: after
        // the retries the register result must be as if executed once.
        let prog = {
            let mut b = ProgramBuilder::new();
            let store_back = b.block();
            let done = b.block();
            b.imm(Reg(5), 0); // accumulator incremented inside the tx
            b.imm(Reg(1), 0);
            b.jump(store_back);
            b.select(store_back);
            b.tx_begin();
            b.add_imm(Reg(5), 1); // would double-count if not checkpointed
            b.load(Reg(2), Reg(1), 0);
            b.add_imm(Reg(2), 1);
            b.store(Operand::Reg(Reg(2)), Reg(1), 0);
            b.tx_commit();
            b.jump(done);
            b.select(done);
            // Publish the accumulator non-transactionally at address 100+id.
            b.imm(Reg(6), 100);
            b.store(Operand::Reg(Reg(5)), Reg(6), 0);
            b.halt();
            b.build().unwrap()
        };
        // Run under heavy contention so aborts actually happen.
        let cfg = SimConfig::with_cores(2);
        let protocol = EagerTm::new(2, ConflictPolicy::OldestWins);
        let mut programs = Vec::new();
        for _ in 0..2 {
            programs.push(prog.clone());
        }
        let mut m: Machine = Machine::new(cfg, protocol, programs);
        let _ = m.run().unwrap();
        // Each core's accumulator must be exactly 1 regardless of retries.
        assert_eq!(m.mem().read_word(Addr(100)), 1);
    }

    #[test]
    fn cycle_limit_reported() {
        let mut b = ProgramBuilder::new();
        let spin = b.block();
        b.jump(spin);
        b.select(spin);
        b.jump(spin);
        let prog = b.build().unwrap();
        let mut cfg = SimConfig::with_cores(1);
        cfg.max_cycles = 1000;
        let mut m: Machine =
            Machine::new(cfg, EagerTm::new(1, ConflictPolicy::OldestWins), vec![prog]);
        assert!(matches!(m.run(), Err(SimError::CycleLimit { .. })));
    }

    #[test]
    fn breakdown_buckets_sum_to_core_time() {
        let (report, _) = run_counter(EagerTm::new(4, ConflictPolicy::OldestWins), 4, 10);
        for core in &report.per_core {
            assert_eq!(core.breakdown.total(), core.finished_at);
        }
    }
}
