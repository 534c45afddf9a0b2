//! The RETCON engine: per-core symbolic tracking and commit-time repair.

use std::collections::BTreeMap;

use retcon_isa::{Addr, BinOp, BlockAddr, CmpOp, Reg};

use crate::config::RetconConfig;
use crate::constraint::Constraint;
use crate::ivb::Ivb;
use crate::predictor::Predictor;
use crate::regfile::SymRegFile;
use crate::ssb::Ssb;
use crate::stats::TxSnapshot;
use crate::sym::SymValue;

/// How a load will be serviced (the left half of the paper's Figure 6
/// flowchart, consulted in order: symbolic store buffer, then initial value
/// buffer, then the memory system).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadPath {
    /// Forwarded from the symbolic store buffer: no memory access, no
    /// conflict possible. Complete with
    /// [`Engine::finish_forwarded_load`].
    StoreForward {
        /// The buffered concrete value.
        value: u64,
    },
    /// The block is symbolically tracked: the recorded initial value is the
    /// best-guess concrete value, again with no memory access. Complete with
    /// [`Engine::finish_tracked_load`].
    InitialValue {
        /// The initial value recorded when tracking began.
        value: u64,
    },
    /// The load must access the memory system (possibly initiating symbolic
    /// tracking first — ask [`Engine::wants_tracking`]). Complete with
    /// [`Engine::finish_tracked_load`] after
    /// [`Engine::begin_tracking`], or with
    /// [`Engine::finish_memory_load`] for a plain load.
    Memory,
}

/// How a store was handled (the right half of Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorePath {
    /// Recorded in the symbolic store buffer; no memory access until commit.
    Buffered,
    /// A plain store: the protocol performs it through the memory system
    /// with normal conflict detection.
    Normal,
    /// The symbolic store buffer is full: the transaction must abort (the
    /// protocol retries it; Table 3 shows this is rare with 32 entries).
    Overflow,
}

/// A commit-time constraint violation: the final value of `word` no longer
/// satisfies the constraints accumulated during execution, so repair is
/// impossible and the transaction must abort (training the predictor down).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// The tracked block containing the violating word.
    pub block: BlockAddr,
    /// The violating word.
    pub word: Addr,
}

/// The output of a successful pre-commit repair (Figure 7 step 2): the final
/// concrete values of every buffered store and every symbolic register.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Repair {
    /// `(address, final value)` for each symbolic store buffer entry, in
    /// first-store order. The protocol performs these as ordinary coherent
    /// writes.
    pub stores: Vec<(Addr, u64)>,
    /// `(register, final value)` for each symbolic register. The simulator
    /// writes these into the concrete register file.
    pub registers: Vec<(Reg, u64)>,
}

/// A position in the pre-commit acquisition order (see
/// [`Engine::next_precommit_block`]); the default is its start.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrecommitCursor {
    tracked: usize,
    last_store: Option<BlockAddr>,
}

/// The per-core RETCON engine.
///
/// The engine owns the four hardware structures of Figure 5 — initial value
/// buffer, constraint buffer, symbolic store buffer and symbolic register
/// file — plus the tracking predictor, and implements the Figure 6 operation
/// flowchart and the Figure 7 pre-commit repair algorithm. It is driven by a
/// concurrency-control protocol: the protocol routes every transactional
/// load, store, ALU operation and branch through the engine and runs
/// [`validate_and_repair`](Engine::validate_and_repair) at commit.
///
/// See the crate-level documentation for a worked example.
#[derive(Debug, Clone)]
pub struct Engine {
    cfg: RetconConfig,
    ivb: Ivb,
    ssb: Ssb,
    sregs: SymRegFile,
    /// Interval constraints keyed by root word address (deterministic order).
    constraints: BTreeMap<u64, Constraint>,
    predictor: Predictor,
    in_tx: bool,
}

impl Engine {
    /// Creates an engine with the given structure sizes.
    pub fn new(cfg: RetconConfig) -> Self {
        Engine {
            ivb: Ivb::new(cfg.effective_ivb_capacity()),
            ssb: Ssb::new(cfg.effective_ssb_capacity()),
            sregs: SymRegFile::new(),
            constraints: BTreeMap::new(),
            predictor: Predictor::new(cfg.initial_threshold, cfg.violation_backoff),
            cfg,
            in_tx: false,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &RetconConfig {
        &self.cfg
    }

    /// The tracking predictor (shared across transactions).
    pub fn predictor(&self) -> &Predictor {
        &self.predictor
    }

    /// Mutable access to the predictor, for the protocol to train on
    /// conflicts and violations.
    pub fn predictor_mut(&mut self) -> &mut Predictor {
        &mut self.predictor
    }

    /// `true` while a transaction is active.
    pub fn in_tx(&self) -> bool {
        self.in_tx
    }

    /// Starts a transaction: clears all per-transaction symbolic state.
    pub fn begin(&mut self) {
        self.clear_tx_state();
        self.in_tx = true;
    }

    /// Ends the transaction (commit or abort): clears all per-transaction
    /// symbolic state. The predictor survives.
    pub fn reset(&mut self) {
        self.clear_tx_state();
        self.in_tx = false;
    }

    fn clear_tx_state(&mut self) {
        self.ivb.clear();
        self.ssb.clear();
        self.sregs.clear_all();
        self.constraints.clear();
    }

    /// `true` if `block` is symbolically tracked by the current transaction.
    pub fn is_tracking(&self, block: BlockAddr) -> bool {
        self.ivb.contains(block)
    }

    /// Should a memory load from `addr` initiate symbolic tracking? True
    /// when the predictor has learned the block conflicts and the initial
    /// value buffer has room.
    pub fn wants_tracking(&self, addr: Addr) -> bool {
        self.in_tx && self.ivb.has_room() && self.predictor.should_track(addr.block())
    }

    /// Classifies a load per the Figure 6 flowchart (symbolic store buffer,
    /// then initial value buffer, then memory).
    pub fn load_path(&self, addr: Addr) -> LoadPath {
        if let Some(e) = self.ssb.lookup(addr) {
            return LoadPath::StoreForward { value: e.value };
        }
        if let Some(v) = self.ivb.initial(addr) {
            return LoadPath::InitialValue { value: v };
        }
        LoadPath::Memory
    }

    /// Fused Figure 6 load: classifies *and* completes a load serviced by
    /// the symbolic store buffer or the initial value buffer in a single
    /// pass over each structure, returning the concrete value. Returns
    /// `None` when the load must go to memory ([`LoadPath::Memory`]) —
    /// the caller then accesses the memory system and finishes with
    /// [`begin_tracking`](Engine::begin_tracking)/
    /// [`finish_tracked_load`](Engine::finish_tracked_load) or
    /// [`finish_memory_load`](Engine::finish_memory_load).
    ///
    /// Behaviorally identical to [`load_path`](Engine::load_path) followed
    /// by the matching `finish_*` call; this entry point exists because the
    /// split API looks each buffer up twice, and the protocol read path is
    /// the hottest loop in the simulator.
    pub fn transactional_load(&mut self, dst: Reg, addr: Addr) -> Option<u64> {
        if let Some(e) = self.ssb.lookup(addr) {
            let (value, sym) = (e.value, e.sym);
            self.sregs.set(dst, sym);
            return Some(value);
        }
        if let Some(v) = self.ivb.initial(addr) {
            self.sregs.set(dst, Some(SymValue::root(addr)));
            return Some(v);
        }
        None
    }

    /// Starts symbolic tracking of `block`, capturing initial word values
    /// via `read_word`. Returns `false` if the initial value buffer is full.
    pub fn begin_tracking(&mut self, block: BlockAddr, read_word: impl FnMut(Addr) -> u64) -> bool {
        debug_assert!(self.in_tx, "tracking outside a transaction");
        let tracked = self.ivb.allocate(block, read_word);
        // A symbolic store may already be buffered for the block (stored
        // while untracked, another word loaded now): commit-time stores
        // target it, so it is reacquired with write permission (§4.4) like
        // any block stored to after tracking began.
        if tracked && self.ssb.iter().any(|e| e.addr.block() == block) {
            self.ivb.mark_written(block);
        }
        tracked
    }

    /// Completes a load serviced by the symbolic store buffer: copies the
    /// entry's concrete and symbolic values into `dst` (§4.3's collapsed
    /// store-to-load forwarding). Returns the concrete value.
    ///
    /// # Panics
    ///
    /// Panics if `addr` has no buffer entry (callers must have observed
    /// [`LoadPath::StoreForward`]).
    pub fn finish_forwarded_load(&mut self, dst: Reg, addr: Addr) -> u64 {
        let e = *self
            .ssb
            .lookup(addr)
            .expect("finish_forwarded_load without an SSB entry");
        self.sregs.set(dst, e.sym);
        e.value
    }

    /// Completes a load from a symbolically tracked block: `dst` receives
    /// the recorded initial value and the symbolic tag `[addr] + 0`.
    ///
    /// # Panics
    ///
    /// Panics if `addr`'s block is not tracked.
    pub fn finish_tracked_load(&mut self, dst: Reg, addr: Addr) -> u64 {
        let v = self
            .ivb
            .initial(addr)
            .expect("finish_tracked_load on an untracked block");
        self.sregs.set(dst, Some(SymValue::root(addr)));
        v
    }

    /// Completes a plain memory load: `dst` holds a concrete value with no
    /// symbolic tag.
    pub fn finish_memory_load(&mut self, dst: Reg, _value: u64) {
        self.sregs.clear(dst);
    }

    /// Notes that `dst` was overwritten with an immediate (clearing any
    /// symbolic tag).
    pub fn on_imm(&mut self, dst: Reg) {
        self.sregs.clear(dst);
    }

    /// Propagates a register-to-register move, copying the symbolic tag.
    pub fn on_mov(&mut self, dst: Reg, src: Reg) {
        let s = self.sregs.get(src);
        self.sregs.set(dst, s);
    }

    /// Executes an ALU operation symbolically. `rhs` is `None` for an
    /// immediate operand. Returns the concrete result (`op.apply`), having
    /// updated `dst`'s symbolic tag and recorded any equality constraints
    /// forced by untrackable computation (§4.2).
    pub fn on_alu(
        &mut self,
        op: BinOp,
        dst: Reg,
        lhs: Reg,
        rhs: Option<Reg>,
        lhs_val: u64,
        rhs_val: u64,
    ) -> u64 {
        let result = op.apply(lhs_val, rhs_val);
        if !self.in_tx {
            return result;
        }
        let lsym = self.sregs.get(lhs);
        let mut rsym = rhs.and_then(|r| self.sregs.get(r));
        // Invariant: at most one symbolic input per operation. If both are
        // symbolic, the right input is pinned with an equality constraint
        // and treated as concrete (§4.2, "if an operation has multiple
        // symbolic values as inputs, equality constraints are set on all but
        // one").
        if lsym.is_some() && rsym.is_some() {
            self.pin_equality(rsym.expect("checked").root_addr());
            rsym = None;
        }
        let out = match (lsym, rsym) {
            (None, None) => None,
            (Some(ls), None) => match op {
                BinOp::Add => Some(ls.add(rhs_val as i64)),
                BinOp::Sub => Some(ls.add((rhs_val as i64).wrapping_neg())),
                _ => {
                    self.pin_equality(ls.root_addr());
                    None
                }
            },
            (None, Some(rs)) => match op {
                // sym on the right: only addition commutes into the offset.
                BinOp::Add => Some(rs.add(lhs_val as i64)),
                _ => {
                    self.pin_equality(rs.root_addr());
                    None
                }
            },
            (Some(_), Some(_)) => unreachable!("right symbolic input was pinned"),
        };
        self.sregs.set(dst, out);
        result
    }

    /// Evaluates a branch symbolically. Returns the concrete outcome
    /// (`cmp.apply`), having recorded the control-flow constraint on the
    /// symbolic operand's root location (§4.2, "symbolic control-flow
    /// constraints").
    pub fn on_branch(
        &mut self,
        cmp: CmpOp,
        lhs: Reg,
        rhs: Option<Reg>,
        lhs_val: u64,
        rhs_val: u64,
    ) -> bool {
        let outcome = cmp.apply(lhs_val, rhs_val);
        if !self.in_tx {
            return outcome;
        }
        let lsym = self.sregs.get(lhs);
        let mut rsym = rhs.and_then(|r| self.sregs.get(r));
        if lsym.is_some() && rsym.is_some() {
            self.pin_equality(rsym.expect("checked").root_addr());
            rsym = None;
        }
        if let Some(ls) = lsym {
            self.add_branch_constraint(ls, cmp, rhs_val, outcome);
        } else if let Some(rs) = rsym {
            // k cmp sym  ⇔  sym cmp.swap() k.
            self.add_branch_constraint(rs, cmp.swap(), lhs_val, outcome);
        }
        outcome
    }

    /// Pins the root of `reg`'s symbolic value with an equality constraint
    /// because the register is about to be used as an address (§4.2:
    /// equality constraints on "the address calculation of loads or stores,
    /// but, critically, not the data input of store instructions").
    pub fn concretize_addr_reg(&mut self, reg: Reg) {
        if !self.in_tx {
            return;
        }
        if let Some(s) = self.sregs.get(reg) {
            self.pin_equality(s.root_addr());
        }
    }

    /// Executes a store per the Figure 6 flowchart: buffered symbolically if
    /// the value carries a symbolic tag or the target block is tracked;
    /// otherwise a normal store (which invalidates any stale buffer entry
    /// for the word).
    pub fn on_store(&mut self, addr: Addr, src: Option<Reg>, value: u64) -> StorePath {
        if !self.in_tx {
            return StorePath::Normal;
        }
        let sym = src.and_then(|r| self.sregs.get(r));
        if sym.is_some() || self.ivb.contains(addr.block()) {
            match self.ssb.insert(addr, value, sym) {
                Ok(()) => {
                    if self.ivb.contains(addr.block()) {
                        // §4.4: reacquire with write permission at commit.
                        self.ivb.mark_written(addr.block());
                    }
                    StorePath::Buffered
                }
                Err(_) => StorePath::Overflow,
            }
        } else {
            self.ssb.invalidate(addr);
            StorePath::Normal
        }
    }

    /// Notes that a remote request stole tracked `block`. Execution simply
    /// continues on the recorded initial values; the steal is remembered for
    /// the Table 3 "blocks lost" statistic and the commit-time reacquire.
    pub fn on_steal(&mut self, block: BlockAddr) {
        self.ivb.mark_lost(block);
    }

    /// The next block the pre-commit process must acquire (Figure 7,
    /// step 1) and whether it needs write permission, advancing `at`:
    /// every tracked block in IVB order — written when commit-time stores
    /// target it (§4.4) — then the *untracked* blocks holding buffered
    /// stores, ascending. A cursor rather than an iterator, so the protocol
    /// can resolve conflicts between steps and walk the same order
    /// read-only without a buffer.
    pub fn next_precommit_block(&self, at: &mut PrecommitCursor) -> Option<(BlockAddr, bool)> {
        if at.tracked < self.ivb.len() {
            let e = self.ivb.entry_at(at.tracked);
            at.tracked += 1;
            return Some((e.block(), e.is_written()));
        }
        let after = at.last_store;
        let block = self
            .ssb
            .iter()
            .map(|e| e.addr.block())
            .filter(|b| after.map_or(true, |a| b.0 > a.0) && !self.ivb.contains(*b))
            .min_by_key(|b| b.0)?;
        at.last_store = Some(block);
        Some((block, true))
    }

    /// Runs the Figure 7 pre-commit repair algorithm.
    ///
    /// Step 1: reads the final value of every word of every tracked block
    /// via `read_word` (the protocol has already reacquired the blocks) and
    /// checks every constraint — per-word equality bits and interval
    /// constraints — against the final values.
    ///
    /// Step 2: evaluates every symbolic store buffer entry and every
    /// symbolic register against the final values, producing the [`Repair`]
    /// the protocol applies to memory and the register file.
    ///
    /// # Errors
    ///
    /// Returns the first [`Violation`] (in address order) if any final value
    /// fails its constraints; the transaction must abort and the predictor
    /// should be trained down via
    /// [`Predictor::on_violation`](crate::Predictor::on_violation).
    pub fn validate_and_repair(
        &mut self,
        read_word: impl FnMut(Addr) -> u64,
    ) -> Result<Repair, Violation> {
        let mut out = Repair::default();
        self.validate_and_repair_into(read_word, &mut out)?;
        Ok(out)
    }

    /// [`validate_and_repair`](Engine::validate_and_repair) into a
    /// caller-owned [`Repair`] (its vectors are cleared and refilled), so
    /// steady-state commits reuse the repair buffers instead of allocating
    /// fresh ones every transaction.
    ///
    /// # Errors
    ///
    /// Returns the first [`Violation`] in address order, exactly as
    /// [`validate_and_repair`](Engine::validate_and_repair) does.
    pub fn validate_and_repair_into(
        &mut self,
        mut read_word: impl FnMut(Addr) -> u64,
        out: &mut Repair,
    ) -> Result<(), Violation> {
        out.stores.clear();
        out.registers.clear();
        // Step 1a: capture final values (same visit order as the old
        // collect-then-set loop: entries in allocation order, words
        // ascending).
        self.ivb.capture_currents(&mut read_word);
        // Step 1b: equality bits.
        for e in self.ivb.iter() {
            for w in e.block().words() {
                if e.has_equality(w) && e.current(w) != e.initial(w) {
                    return Err(Violation {
                        block: e.block(),
                        word: w,
                    });
                }
            }
        }
        // Step 1c: interval constraints. A word whose final value equals its
        // initial value trivially satisfies every constraint — execution
        // already took each branch with exactly that value — so the check is
        // skipped. This matters because the §4.4 compressed not-equal
        // representation grows an excluded *interval* over all `≠` bounds,
        // which can otherwise swallow the unchanged value itself.
        for (&w, c) in &self.constraints {
            let addr = Addr(w);
            let cur = self
                .ivb
                .current(addr)
                .expect("constraint root must be tracked");
            let initial = self
                .ivb
                .initial(addr)
                .expect("constraint root must be tracked");
            if cur != initial && !c.satisfied_by(cur) {
                return Err(Violation {
                    block: addr.block(),
                    word: addr,
                });
            }
        }
        // Step 2: evaluate outputs against final values.
        let eval = |sym: SymValue, ivb: &Ivb| -> u64 {
            let root_final = ivb
                .current(sym.root_addr())
                .expect("symbolic root must be tracked");
            sym.eval(root_final)
        };
        out.stores.extend(self.ssb.iter().map(|e| {
            let v = match e.sym {
                Some(s) => eval(s, &self.ivb),
                None => e.value,
            };
            (e.addr, v)
        }));
        out.registers.extend(
            self.sregs
                .iter_symbolic()
                .map(|(r, s)| (r, eval(s, &self.ivb))),
        );
        Ok(())
    }

    /// The Table 3 utilization snapshot of the current transaction
    /// (`commit_cycles` is filled in by the protocol, which owns timing).
    pub fn snapshot(&self) -> TxSnapshot {
        TxSnapshot {
            blocks_lost: self.ivb.lost_count() as u64,
            blocks_tracked: self.ivb.len() as u64,
            symbolic_registers: self.sregs.count_symbolic() as u64,
            private_stores: self.ssb.len() as u64,
            constraint_addrs: (self.constraints.len() + self.ivb.equality_count()) as u64,
            commit_cycles: 0,
        }
    }

    /// Registers an equality constraint on `word` (its final value must
    /// equal its initial value). Exposed for protocols that need to pin
    /// state directly (e.g. on untrackable sub-word accesses).
    pub fn pin_equality(&mut self, word: Addr) {
        let ok = self.ivb.set_equality(word);
        debug_assert!(ok, "equality pin on untracked word {word:?}");
    }

    fn add_branch_constraint(&mut self, sym: SymValue, cmp: CmpOp, bound: u64, taken: bool) {
        let root = sym.root_addr();
        if let Some(c) = self.constraints.get_mut(&root.0) {
            c.add_branch(sym.offset(), cmp, bound, taken);
            return;
        }
        if self.constraints.len() >= self.cfg.effective_constraint_capacity() {
            // Constraint buffer full: fall back to the (stronger, always
            // sound) compressed equality bit.
            self.pin_equality(root);
            return;
        }
        let mut c = Constraint::unconstrained();
        c.add_branch(sym.offset(), cmp, bound, taken);
        self.constraints.insert(root.0, c);
    }

    /// The symbolic tag of `reg`, if any (primarily for tests and
    /// diagnostics).
    pub fn symbolic_value(&self, reg: Reg) -> Option<SymValue> {
        self.sregs.get(reg)
    }

    /// The interval constraint on `word`, if any.
    pub fn constraint(&self, word: Addr) -> Option<&Constraint> {
        self.constraints.get(&word.0)
    }

    /// Read-only access to the initial value buffer.
    pub fn ivb(&self) -> &Ivb {
        &self.ivb
    }

    /// Read-only access to the symbolic store buffer.
    pub fn ssb(&self) -> &Ssb {
        &self.ssb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::new(RetconConfig::default())
    }

    fn track(eng: &mut Engine, addr: Addr, value: u64) {
        assert!(eng.begin_tracking(addr.block(), |_| value));
    }

    #[test]
    fn counter_increment_repair() {
        // Figure 2(a): two increments to a shared counter, repaired after a
        // remote +2.
        let a = Addr(0);
        let mut eng = engine();
        eng.begin();
        track(&mut eng, a, 0);
        let v = eng.finish_tracked_load(Reg(1), a);
        assert_eq!(v, 0);
        assert_eq!(eng.symbolic_value(Reg(1)), Some(SymValue::root(a)));

        let v = eng.on_alu(BinOp::Add, Reg(1), Reg(1), None, v, 1);
        let v = eng.on_alu(BinOp::Add, Reg(1), Reg(1), None, v, 1);
        assert_eq!(v, 2);
        assert_eq!(eng.symbolic_value(Reg(1)), Some(SymValue::root(a).add(2)));

        assert_eq!(eng.on_store(a, Some(Reg(1)), v), StorePath::Buffered);
        eng.on_steal(a.block());

        let repair = eng.validate_and_repair(|_| 2).unwrap();
        assert_eq!(repair.stores, vec![(a, 4)]);
        assert_eq!(repair.registers, vec![(Reg(1), 4)]);
        let snap = eng.snapshot();
        assert_eq!(snap.blocks_lost, 1);
        assert_eq!(snap.blocks_tracked, 1);
        assert_eq!(snap.private_stores, 1);
    }

    #[test]
    fn figure8_walkthrough() {
        // The paper's Figure 8: A = 5, B = 7 initially.
        let a = Addr(0); // block 0
        let b = Addr(8); // block 1
        let mut eng = engine();
        eng.begin();

        // t1: ld [A] -> r1 (symbolic; IVB captures 5).
        track(&mut eng, a, 5);
        let r1 = eng.finish_tracked_load(Reg(1), a);
        assert_eq!(r1, 5);

        // t2: r2 = r1 + 1 -> concrete 6, symbolic A+1.
        let r2 = eng.on_alu(BinOp::Add, Reg(2), Reg(1), None, r1, 1);
        assert_eq!(r2, 6);
        assert_eq!(eng.symbolic_value(Reg(2)), Some(SymValue::root(a).add(1)));

        // t3: br r2 > 1 taken -> constraint A+1 > 1, i.e. A > 0.
        assert!(eng.on_branch(CmpOp::Gt, Reg(2), None, r2, 1));
        assert_eq!(eng.constraint(a).unwrap().bounds(), (1, u64::MAX));

        // t4: st r2 -> [B]: symbolic store buffer gets (B, 6, A+1).
        assert_eq!(eng.on_store(b, Some(Reg(2)), r2), StorePath::Buffered);

        // t5: ld [B] -> r1 forwards from the SSB (A stolen around now).
        assert_eq!(eng.load_path(b), LoadPath::StoreForward { value: 6 });
        let r1 = eng.finish_forwarded_load(Reg(1), b);
        assert_eq!(r1, 6);
        eng.on_steal(a.block());

        // t6: r1 = r1 + 2 -> concrete 8, symbolic A+3.
        let r1v = eng.on_alu(BinOp::Add, Reg(1), Reg(1), None, r1, 2);
        assert_eq!(r1v, 8);
        assert_eq!(eng.symbolic_value(Reg(1)), Some(SymValue::root(a).add(3)));

        // t7: br r1 < 10 taken -> A+3 < 10, i.e. A < 7; combined 0 < A < 7.
        assert!(eng.on_branch(CmpOp::Lt, Reg(1), None, r1v, 10));
        assert_eq!(eng.constraint(a).unwrap().bounds(), (1, 6));

        // t8: st r1 -> [A]: symbolic store (A, 8, A+3).
        assert_eq!(eng.on_store(a, Some(Reg(1)), r1v), StorePath::Buffered);

        // t9: st 0 -> [B]: non-symbolic store to untracked B invalidates the
        // SSB entry and becomes a normal (cache) store.
        assert_eq!(eng.on_store(b, None, 0), StorePath::Normal);
        assert!(eng.ssb().lookup(b).is_none());

        // Commit: remote left A = 6; constraint 0 < 6 < 7 holds; the store
        // to A repairs to 6 + 3 = 9 and r1 repairs to 9.
        let repair = eng
            .validate_and_repair(|w| if w == a { 6 } else { 0 })
            .unwrap();
        assert_eq!(repair.stores, vec![(a, 9)]);
        assert!(repair.registers.contains(&(Reg(1), 9)));
    }

    #[test]
    fn violated_constraint_aborts() {
        let a = Addr(0);
        let mut eng = engine();
        eng.begin();
        track(&mut eng, a, 5);
        let v = eng.finish_tracked_load(Reg(1), a);
        // Branch r1 < 10 taken: A < 10.
        assert!(eng.on_branch(CmpOp::Lt, Reg(1), None, v, 10));
        // Remote pushed A to 50: violation.
        let err = eng.validate_and_repair(|_| 50).unwrap_err();
        assert_eq!(err.word, a);
        assert_eq!(err.block, a.block());
    }

    #[test]
    fn equality_pin_from_untrackable_op() {
        let a = Addr(0);
        let mut eng = engine();
        eng.begin();
        track(&mut eng, a, 5);
        let v = eng.finish_tracked_load(Reg(1), a);
        // Multiply is untrackable: result concrete, root pinned.
        let v2 = eng.on_alu(BinOp::Mul, Reg(2), Reg(1), None, v, 3);
        assert_eq!(v2, 15);
        assert_eq!(eng.symbolic_value(Reg(2)), None);
        assert!(eng.ivb().get(a.block()).unwrap().has_equality(a));

        // Unchanged value: commit fine.
        assert!(eng.clone().validate_and_repair(|_| 5).is_ok());
        // Changed value: equality violation.
        assert!(eng.validate_and_repair(|_| 6).is_err());
    }

    #[test]
    fn two_symbolic_inputs_pin_right() {
        let a = Addr(0);
        let b = Addr(8);
        let mut eng = engine();
        eng.begin();
        track(&mut eng, a, 5);
        track(&mut eng, b, 7);
        let va = eng.finish_tracked_load(Reg(1), a);
        let vb = eng.finish_tracked_load(Reg(2), b);
        // r3 = r1 + r2: right operand's root (B) gets pinned; result stays
        // symbolic in A.
        let v = eng.on_alu(BinOp::Add, Reg(3), Reg(1), Some(Reg(2)), va, vb);
        assert_eq!(v, 12);
        assert_eq!(eng.symbolic_value(Reg(3)), Some(SymValue::root(a).add(7)));
        assert!(eng.ivb().get(b.block()).unwrap().has_equality(b));
    }

    #[test]
    fn sub_with_symbolic_rhs_pins() {
        let a = Addr(0);
        let mut eng = engine();
        eng.begin();
        track(&mut eng, a, 5);
        let va = eng.finish_tracked_load(Reg(1), a);
        // r2 = 100 - r1: k - sym is untrackable.
        eng.on_imm(Reg(2));
        let v = eng.on_alu(BinOp::Sub, Reg(3), Reg(2), Some(Reg(1)), 100, va);
        assert_eq!(v, 95);
        assert_eq!(eng.symbolic_value(Reg(3)), None);
        assert!(eng.ivb().get(a.block()).unwrap().has_equality(a));
    }

    #[test]
    fn sym_plus_concrete_reg_tracks() {
        let a = Addr(0);
        let mut eng = engine();
        eng.begin();
        track(&mut eng, a, 5);
        let va = eng.finish_tracked_load(Reg(1), a);
        eng.on_imm(Reg(2));
        // r3 = r2(=10) + r1: addition commutes into offset, giving [A]+10.
        let v = eng.on_alu(BinOp::Add, Reg(3), Reg(2), Some(Reg(1)), 10, va);
        assert_eq!(v, 15);
        assert_eq!(eng.symbolic_value(Reg(3)), Some(SymValue::root(a).add(10)));
    }

    #[test]
    fn subtraction_tracks_on_left() {
        let a = Addr(0);
        let mut eng = engine();
        eng.begin();
        track(&mut eng, a, 10);
        let v = eng.finish_tracked_load(Reg(1), a);
        let v = eng.on_alu(BinOp::Sub, Reg(1), Reg(1), None, v, 3);
        assert_eq!(v, 7);
        assert_eq!(eng.symbolic_value(Reg(1)), Some(SymValue::root(a).add(-3)));
        eng.on_store(a, Some(Reg(1)), v);
        // Remote set A to 100: repairs to 97.
        let repair = eng.validate_and_repair(|_| 100).unwrap();
        assert_eq!(repair.stores, vec![(a, 97)]);
    }

    #[test]
    fn address_use_pins_symbolic_register() {
        let a = Addr(0);
        let mut eng = engine();
        eng.begin();
        track(&mut eng, a, 5);
        let _ = eng.finish_tracked_load(Reg(1), a);
        eng.concretize_addr_reg(Reg(1));
        assert!(eng.ivb().get(a.block()).unwrap().has_equality(a));
        // The tag itself survives (the constraint guarantees consistency).
        assert!(eng.symbolic_value(Reg(1)).is_some());
    }

    #[test]
    fn mov_and_imm_propagate_tags() {
        let a = Addr(0);
        let mut eng = engine();
        eng.begin();
        track(&mut eng, a, 5);
        let _ = eng.finish_tracked_load(Reg(1), a);
        eng.on_mov(Reg(2), Reg(1));
        assert_eq!(eng.symbolic_value(Reg(2)), Some(SymValue::root(a)));
        eng.on_imm(Reg(2));
        assert_eq!(eng.symbolic_value(Reg(2)), None);
    }

    #[test]
    fn store_to_tracked_block_always_buffers() {
        let a = Addr(0);
        let a2 = Addr(1); // same block
        let mut eng = engine();
        eng.begin();
        track(&mut eng, a, 5);
        // Non-symbolic store to a tracked block still buffers (Figure 6).
        assert_eq!(eng.on_store(a2, None, 42), StorePath::Buffered);
        // Later load forwards the buffered value, not the initial one.
        assert_eq!(eng.load_path(a2), LoadPath::StoreForward { value: 42 });
        // The block is marked for write-permission reacquire.
        assert!(eng.ivb().get(a.block()).unwrap().is_written());
        // Commit replays the store with its concrete value.
        let repair = eng
            .validate_and_repair(|w| if w == a { 9 } else { 0 })
            .unwrap();
        assert_eq!(repair.stores, vec![(a2, 42)]);
    }

    #[test]
    fn store_outside_tx_is_normal() {
        let mut eng = engine();
        assert_eq!(eng.on_store(Addr(0), None, 1), StorePath::Normal);
    }

    #[test]
    fn ssb_overflow_reported() {
        let cfg = RetconConfig {
            ssb_capacity: 1,
            ..RetconConfig::default()
        };
        let mut eng = Engine::new(cfg);
        eng.begin();
        track(&mut eng, Addr(0), 5);
        assert_eq!(eng.on_store(Addr(0), None, 1), StorePath::Buffered);
        assert_eq!(eng.on_store(Addr(1), None, 2), StorePath::Overflow);
        // Overwriting the existing entry is still fine.
        assert_eq!(eng.on_store(Addr(0), None, 3), StorePath::Buffered);
    }

    #[test]
    fn ivb_capacity_disables_tracking() {
        let cfg = RetconConfig {
            ivb_capacity: 1,
            initial_threshold: 0, // track everything
            ..RetconConfig::default()
        };
        let mut eng = Engine::new(cfg);
        eng.begin();
        assert!(eng.wants_tracking(Addr(0)));
        track(&mut eng, Addr(0), 5);
        // Buffer full: further blocks are not tracked.
        assert!(!eng.wants_tracking(Addr(8)));
        assert!(!eng.begin_tracking(Addr(8).block(), |_| 0));
    }

    #[test]
    fn constraint_buffer_overflow_falls_back_to_equality() {
        let cfg = RetconConfig {
            constraint_capacity: 1,
            ivb_capacity: 4,
            ..RetconConfig::default()
        };
        let mut eng = Engine::new(cfg);
        eng.begin();
        let a = Addr(0);
        let b = Addr(8);
        track(&mut eng, a, 5);
        track(&mut eng, b, 7);
        let va = eng.finish_tracked_load(Reg(1), a);
        let vb = eng.finish_tracked_load(Reg(2), b);
        // First branch claims the only constraint entry.
        eng.on_branch(CmpOp::Lt, Reg(1), None, va, 100);
        assert!(eng.constraint(a).is_some());
        // Second branch on a different root falls back to an equality bit.
        eng.on_branch(CmpOp::Lt, Reg(2), None, vb, 100);
        assert!(eng.constraint(b).is_none());
        assert!(eng.ivb().get(b.block()).unwrap().has_equality(b));
        // B changed: equality violation even though the branch would still
        // go the same way (conservative fallback).
        assert!(eng
            .validate_and_repair(|w| if w == b { 8 } else { 5 })
            .is_err());
    }

    #[test]
    fn repeated_loads_of_tracked_block_see_initial_value() {
        let a = Addr(0);
        let mut eng = engine();
        eng.begin();
        track(&mut eng, a, 5);
        let _ = eng.finish_tracked_load(Reg(1), a);
        eng.on_steal(a.block());
        // After the steal the initial value is still served.
        assert_eq!(eng.load_path(a), LoadPath::InitialValue { value: 5 });
        let v = eng.finish_tracked_load(Reg(2), a);
        assert_eq!(v, 5);
    }

    #[test]
    fn reset_clears_transactional_state_keeps_predictor() {
        let a = Addr(0);
        let mut eng = engine();
        eng.predictor_mut().on_conflict(a.block());
        eng.begin();
        track(&mut eng, a, 5);
        let _ = eng.finish_tracked_load(Reg(1), a);
        eng.on_store(a, Some(Reg(1)), 5);
        eng.reset();
        assert!(!eng.in_tx());
        assert!(!eng.is_tracking(a.block()));
        assert!(eng.ssb().is_empty());
        assert_eq!(eng.symbolic_value(Reg(1)), None);
        assert!(eng.predictor().should_track(a.block()));
    }

    #[test]
    fn precommit_order_is_tracked_then_untracked_stores() {
        let a = Addr(0);
        let b = Addr(8);
        let mut eng = engine();
        eng.begin();
        track(&mut eng, a, 1);
        track(&mut eng, b, 2);
        eng.on_store(a, None, 9); // tracked block A written
        let _ = eng.finish_tracked_load(Reg(1), a);
        // Symbolic stores to untracked blocks follow, ascending, once each.
        for c in [Addr(40), Addr(16), Addr(17)] {
            eng.on_store(c, Some(Reg(1)), 1);
        }
        let mut at = PrecommitCursor::default();
        let order: Vec<_> = std::iter::from_fn(|| eng.next_precommit_block(&mut at)).collect();
        assert_eq!(
            order,
            [
                (a.block(), true),
                (b.block(), false),
                (Addr(16).block(), true),
                (Addr(40).block(), true)
            ]
        );
    }

    #[test]
    fn snapshot_counts_constraints_and_equalities() {
        let a = Addr(0);
        let b = Addr(8);
        let mut eng = engine();
        eng.begin();
        track(&mut eng, a, 5);
        track(&mut eng, b, 7);
        let va = eng.finish_tracked_load(Reg(1), a);
        let vb = eng.finish_tracked_load(Reg(2), b);
        eng.on_branch(CmpOp::Lt, Reg(1), None, va, 100); // interval on A
        eng.on_alu(BinOp::Mul, Reg(3), Reg(2), None, vb, 2); // equality on B
        let snap = eng.snapshot();
        assert_eq!(snap.blocks_tracked, 2);
        assert_eq!(snap.constraint_addrs, 2);
        assert_eq!(snap.symbolic_registers, 2); // r1, r2 still tagged
    }

    #[test]
    fn branch_on_forwarded_value_constrains_root() {
        // Store A+1 to B, load it back, branch on it: constraint must land
        // on A (the flattened root), not on B.
        let a = Addr(0);
        let b = Addr(8);
        let mut eng = engine();
        eng.begin();
        track(&mut eng, a, 5);
        let va = eng.finish_tracked_load(Reg(1), a);
        let v1 = eng.on_alu(BinOp::Add, Reg(1), Reg(1), None, va, 1);
        eng.on_store(b, Some(Reg(1)), v1);
        let v2 = eng.finish_forwarded_load(Reg(2), b);
        assert_eq!(v2, 6);
        eng.on_branch(CmpOp::Gt, Reg(2), None, v2, 1);
        assert!(eng.constraint(a).is_some());
        assert!(eng.constraint(b).is_none());
    }
}
