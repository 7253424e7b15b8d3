//! Launch plans: a `(Program, IhwConfig)` pair lowered **once** into a
//! [`CompiledKernel`] and cached, so repeated launches skip both the
//! per-thread re-interpretation of `exec_step` and the per-operation
//! configuration dispatch.
//!
//! A plan bundles everything a launch needs that the interpreter
//! re-derives per thread:
//!
//! * the threaded-code table of monomorphized lane ops
//!   (`compile::CompiledOp`), with every configuration branch
//!   constant-folded at lowering time;
//! * whether the racecheck store-shape proof licenses instruction-major
//!   lane blocks, decided once instead of per launch;
//! * a static cost table — the per-thread [`InstrMix`] and its
//!   per-instruction prefixes — because a straight-line kernel executes
//!   the same units for every thread, the launch counters are a
//!   multiplication, not one counter update per thread and instruction;
//! * a closed-form first-fault precheck over the kernel's affine
//!   access sites, which both engines' fault semantics reduce to.
//!
//! Plans are cached per interpreter in a `PlanCache` keyed on
//! [`PlanKey`] — the program's structural fingerprint plus the typed
//! [`IhwConfig`] itself (the same discipline as the bench runner's
//! `RunCache`: typed keys, no stringly config labels). The fingerprint
//! is [`Program::fingerprint`], folded once when the program is built,
//! so a lookup reads a stored `u64` instead of re-walking the program.
//! Fingerprint collisions are caught by comparing the stored
//! instruction stream, immediates by bit pattern, before a hit is
//! served, so a stale or colliding entry recompiles instead of running
//! the wrong kernel. A warm launch therefore neither hashes the
//! program nor allocates: the hit is a map lookup plus that compare,
//! and `CompiledKernel::run` reuses the caller's register file.

use crate::compile::{exec_block, lower, CompiledOp, RegFile, LANES};
use crate::deps::{racecheck, store_shape, AffineIndex, StoreShape};
use crate::dispatch::FpCtx;
use crate::isa::{ExecError, Instr, Program};
use crate::simt::InstrMix;
use ihw_core::config::{FpOp, IhwConfig};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One affine global-memory access site (load or store), in
/// instruction order — the domain of the closed-form fault precheck.
#[derive(Debug, Clone, Copy)]
struct Site {
    instr: usize,
    buf: usize,
    index: AffineIndex,
}

/// The first fault a launch of `threads` threads would hit, in the
/// sequential tid-major execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Fault {
    /// Faulting thread.
    pub tid: u32,
    /// Faulting instruction index.
    pub instr: usize,
    /// The error the interpreter would report.
    pub err: ExecError,
}

/// A `(Program, IhwConfig)` pair lowered into an executable plan: the
/// threaded-code table plus everything launch-invariant that the
/// interpreter would otherwise recompute per launch or per thread.
#[derive(Debug)]
pub struct CompiledKernel {
    name: String,
    regs: u8,
    ops: Vec<CompiledOp>,
    /// Whether lane-block (instruction-major) execution is
    /// observationally sequential: true iff the racecheck store shape
    /// is `DirectWrite`.
    block_safe: bool,
    sites: Vec<Site>,
    per_thread: InstrMix,
    /// `prefix[i]` = mix of instructions `0..=i` for one thread (the
    /// faulting access records its counts *before* the port call, so
    /// the faulting thread's contribution is an **inclusive** prefix).
    prefix: Vec<InstrMix>,
}

/// What one instruction adds to the per-thread counters, mirroring
/// `exec_step` exactly: fp ops record their [`FpOp`] class;
/// `Tid`/`Fmax`/`Sel` are one ALU op; memory accesses are one memory
/// plus one ALU op — recorded even when the access faults.
fn instr_cost(instr: &Instr) -> (Option<FpOp>, u64, u64) {
    match instr {
        Instr::Movi(..) => (None, 0, 0),
        Instr::Tid(_) | Instr::Fmax(..) | Instr::Sel(..) => (None, 1, 0),
        Instr::Fadd(..) | Instr::Fsub(..) => (Some(FpOp::Add), 0, 0),
        Instr::Fmul(..) => (Some(FpOp::Mul), 0, 0),
        Instr::Fdiv(..) => (Some(FpOp::Div), 0, 0),
        Instr::Ffma(..) => (Some(FpOp::Fma), 0, 0),
        Instr::Rcp(..) => (Some(FpOp::Rcp), 0, 0),
        Instr::Rsqrt(..) => (Some(FpOp::Rsqrt), 0, 0),
        Instr::Sqrt(..) => (Some(FpOp::Sqrt), 0, 0),
        Instr::Log2(..) => (Some(FpOp::Log2), 0, 0),
        Instr::Ld(..) | Instr::St(..) => (None, 1, 1),
    }
}

/// Lowers `prog` under `cfg` into a [`CompiledKernel`], running the
/// racecheck dependence analysis and precomputing the static cost and
/// fault tables. This is the once-per-`(program, config)` cost the
/// plan cache amortizes across launches.
pub fn compile(prog: &Program, cfg: &IhwConfig) -> CompiledKernel {
    let ops = lower(prog, cfg);
    let block_safe = store_shape(&racecheck(prog)) == Some(StoreShape::DirectWrite);

    let mut sites = Vec::new();
    let mut per_thread = InstrMix::default();
    let mut prefix = Vec::with_capacity(prog.instrs().len());
    for (i, instr) in prog.instrs().iter().enumerate() {
        match *instr {
            Instr::Ld(_, buf, mode) | Instr::St(buf, mode, _) => sites.push(Site {
                instr: i,
                buf,
                index: AffineIndex::from(mode),
            }),
            _ => {}
        }
        let (fp, int_ops, mem_ops) = instr_cost(instr);
        if let Some(op) = fp {
            per_thread.fp.record(op, 1);
        }
        per_thread.int_ops += int_ops;
        per_thread.mem_ops += mem_ops;
        prefix.push(per_thread.clone());
    }

    CompiledKernel {
        name: prog.name().to_string(),
        regs: prog.regs(),
        ops,
        block_safe,
        sites,
        per_thread,
        prefix,
    }
}

impl CompiledKernel {
    /// Kernel name (diagnostics only).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Register-file size of the source program.
    pub fn regs(&self) -> u8 {
        self.regs
    }

    /// Number of lowered ops (equals the source instruction count).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the plan is empty (a zero-instruction kernel).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The first fault a `threads`-thread launch over `buffers` hits in
    /// sequential tid-major order, in closed form over the affine
    /// access sites — or `None` if the whole launch is clean.
    ///
    /// Matches `locate_element` exactly: an unknown buffer faults every
    /// thread (first at tid 0); a broadcast access out of range faults
    /// every thread; a lane access `tid + off` first faults at
    /// `max(0, len − off)` (tid 0 when `off < 0`, since the index is
    /// already negative there).
    pub(crate) fn first_fault(&self, buffers: &[Vec<f32>], threads: u32) -> Option<Fault> {
        if threads == 0 {
            return None;
        }
        let mut best: Option<Fault> = None;
        for s in &self.sites {
            let cand = match buffers.get(s.buf) {
                None => Some((0, ExecError::UnknownBuffer { buffer: s.buf })),
                Some(b) => {
                    let len = b.len() as i64;
                    let tid = if s.index.scale == 0 {
                        let e = s.index.offset;
                        (e < 0 || e >= len).then_some(0u32)
                    } else if s.index.offset < 0 {
                        Some(0)
                    } else if i64::from(threads) > len - s.index.offset {
                        Some((len - s.index.offset).max(0) as u32)
                    } else {
                        None
                    };
                    tid.map(|t| {
                        (
                            t,
                            ExecError::OutOfBounds {
                                buffer: s.buf,
                                index: s.index.at(t),
                                len: b.len(),
                            },
                        )
                    })
                }
            };
            if let Some((tid, err)) = cand {
                let better = match &best {
                    None => true,
                    Some(f) => (tid, s.instr) < (f.tid, f.instr),
                };
                if better {
                    best = Some(Fault {
                        tid,
                        instr: s.instr,
                        err,
                    });
                }
            }
        }
        best
    }

    /// Runs a `threads`-thread launch over `buffers` on `rf` and
    /// returns its first fault, if any: the closed-form precheck finds
    /// the fault, lane blocks run the clean tid range before it, and
    /// the faulting thread's clean instruction prefix is replayed (the
    /// partial state the interpreter leaves behind before reporting the
    /// error). Lane blocks are [`LANES`] wide when the `DirectWrite`
    /// proof licenses instruction-major order, one lane (which *is* the
    /// sequential order) otherwise. The call writes only `rf` and
    /// `buffers`, so launches of one plan may run concurrently on
    /// separate register files. `WarpInterpreter::launch` and
    /// `SharedInterpreter::launch` both run their plans through it.
    pub(crate) fn run(
        &self,
        rf: &mut RegFile,
        buffers: &mut [Vec<f32>],
        threads: u32,
    ) -> Option<Fault> {
        let fault = self.first_fault(buffers, threads);
        let complete = fault.as_ref().map_or(threads, |f| f.tid);
        let width = if self.block_safe { LANES as u32 } else { 1 };
        rf.fit(self.regs);
        let mut t = 0;
        while t < complete {
            let n = (complete - t).min(width);
            exec_block(&self.ops, rf, buffers, t, n as usize);
            t += n;
        }
        if let Some(f) = &fault {
            exec_block(&self.ops[..f.instr], rf, buffers, f.tid, 1);
        }
        fault
    }

    /// Credits `ctx` with the counters of a `threads`-thread launch
    /// that [`CompiledKernel::run`] ended at `fault`: the threads before
    /// the faulting one in full, plus the faulting thread's inclusive
    /// prefix (the faulting access records its counts before the port
    /// call, exactly like `exec_step`).
    pub(crate) fn absorb_into(&self, ctx: &mut FpCtx, threads: u32, fault: Option<&Fault>) {
        let complete = fault.map_or(threads, |f| f.tid);
        let mut mix = InstrMix::default();
        mix.add_scaled(&self.per_thread, u64::from(complete));
        if let Some(f) = fault {
            mix.add_scaled(&self.prefix[f.instr], 1);
        }
        ctx.record_static(&mix);
    }
}

/// Whether two instruction streams are the same bit for bit: `movi`
/// immediates compare by bit pattern, as [`Program::fingerprint`]
/// encodes them, so a NaN immediate matches itself and `0.0` does not
/// match `-0.0`. No other operand is a float, so the derived `==`
/// decides the rest exactly.
fn same_instrs(a: &[Instr], b: &[Instr]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Instr::Movi(d, i), Instr::Movi(e, j)) => d == e && i.to_bits() == j.to_bits(),
            _ => x == y,
        })
}

/// Typed plan-cache key: the structural program fingerprint plus the
/// configuration **as a value** — `IhwConfig` derives `Ord`, so no
/// stringly-typed config label ever enters the key (the same
/// discipline as the bench runner's TypeId-keyed `RunCache`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PlanKey {
    /// Structural fingerprint of the program ([`Program::fingerprint`]).
    pub fingerprint: u64,
    /// The full typed configuration.
    pub config: IhwConfig,
}

/// One cached plan plus the exact program it was compiled from, kept
/// for collision verification on every hit, and the logical timestamp
/// of its last use (the LRU eviction order).
#[derive(Debug)]
struct PlanEntry {
    regs: u8,
    instrs: Vec<Instr>,
    plan: Arc<CompiledKernel>,
    stamp: u64,
}

/// Cumulative plan-cache counters, a copyable snapshot for stats
/// surfaces (the serve bench reports these per worker-ladder row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Lookups served from the cache (post collision verification).
    pub hits: u64,
    /// Lookups that compiled a fresh plan (cold key *or* a fingerprint
    /// collision that failed verification).
    pub misses: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
    /// Current number of cached plans.
    pub len: usize,
    /// Configured capacity bound.
    pub capacity: usize,
}

/// A bounded per-interpreter plan cache with deterministic LRU
/// eviction. Lookups verify the stored instruction stream against the
/// requesting program, so fingerprint collisions (or a program mutated
/// under the same name) recompile instead of running a stale plan.
///
/// Every hit or insert stamps the entry with a monotonically increasing
/// logical tick; when an insert would exceed capacity the entry with
/// the *smallest* stamp is evicted. Stamps are unique, so the victim is
/// fully determined by the lookup sequence — no wall clock, no hash
/// order — and the [`PlanCacheStats`] counters make every eviction
/// visible. (The previous policy cleared the whole map when full, which
/// under serve traffic with many distinct configs meant periodically
/// recompiling the entire working set.)
#[derive(Debug)]
pub(crate) struct PlanCache {
    entries: BTreeMap<PlanKey, PlanEntry>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache {
            entries: BTreeMap::new(),
            capacity: Self::DEFAULT_CAPACITY,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

impl PlanCache {
    /// Default bound on cached plans.
    pub(crate) const DEFAULT_CAPACITY: usize = 64;

    /// Returns the cached plan for `(prog, cfg)`, compiling on miss.
    pub(crate) fn get_or_compile(
        &mut self,
        prog: &Program,
        cfg: &IhwConfig,
    ) -> Arc<CompiledKernel> {
        let key = PlanKey {
            fingerprint: prog.fingerprint(),
            config: *cfg,
        };
        let stamp = self.tick;
        self.tick += 1;
        if let Some(e) = self.entries.get_mut(&key) {
            if e.regs == prog.regs() && same_instrs(&e.instrs, prog.instrs()) {
                e.stamp = stamp;
                self.hits += 1;
                return Arc::clone(&e.plan);
            }
        }
        self.misses += 1;
        if !self.entries.contains_key(&key) {
            while self.entries.len() >= self.capacity {
                self.evict_lru();
            }
        }
        let plan = Arc::new(compile(prog, cfg));
        self.entries.insert(
            key,
            PlanEntry {
                regs: prog.regs(),
                instrs: prog.instrs().to_vec(),
                plan: Arc::clone(&plan),
                stamp,
            },
        );
        plan
    }

    /// Removes the least-recently-used entry (smallest stamp; stamps
    /// are unique, so the victim is deterministic).
    fn evict_lru(&mut self) {
        if let Some(key) = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.stamp)
            .map(|(k, _)| *k)
        {
            self.entries.remove(&key);
            self.evictions += 1;
        }
    }

    /// Rebounds the cache to `capacity` plans (min 1), evicting the
    /// least-recently-used entries immediately if it now overflows.
    pub(crate) fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        while self.entries.len() > self.capacity {
            self.evict_lru();
        }
    }

    /// Snapshot of the cumulative counters plus current occupancy.
    pub(crate) fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            len: self.entries.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AddrMode, Reg};
    use crate::programs;

    #[test]
    fn static_costs_match_the_interpreter_tables() {
        let prog = programs::saxpy(2.0);
        let plan = compile(&prog, &IhwConfig::precise());
        // saxpy: movi, ld, ld, ffma, st → 1 Fma, 3 int (2 mem + 1), …
        assert_eq!(plan.per_thread.fp.get(FpOp::Fma), 1);
        assert_eq!(plan.per_thread.fp.total(), 1);
        assert_eq!(plan.per_thread.int_ops, 3);
        assert_eq!(plan.per_thread.mem_ops, 3);
        // Inclusive prefixes: through the ffma (instr 3) the thread has
        // recorded both loads and the fma, but not the store.
        assert_eq!(plan.prefix[3].mem_ops, 2);
        assert_eq!(plan.prefix[3].fp.get(FpOp::Fma), 1);
    }

    #[test]
    fn first_fault_matches_sequential_order() {
        let prog = Program::new(
            "oob",
            1,
            vec![
                Instr::Ld(Reg(0), 0, AddrMode::TidPlus(1)),
                Instr::St(1, AddrMode::Tid, Reg(0)),
            ],
        )
        .expect("valid");
        let plan = compile(&prog, &IhwConfig::precise());
        // b0 has 5 elements → tid 4 reads element 5 first.
        let bufs = vec![vec![0.0f32; 5], vec![0.0f32; 16]];
        let f = plan.first_fault(&bufs, 16).expect("faults");
        assert_eq!((f.tid, f.instr), (4, 0));
        assert_eq!(
            f.err,
            ExecError::OutOfBounds {
                buffer: 0,
                index: 5,
                len: 5
            }
        );
        // Unknown buffer faults at tid 0 even though the OOB read
        // faults at a later instruction of the same thread.
        let f = plan.first_fault(&bufs[..1], 16).expect("faults");
        assert_eq!((f.tid, f.instr), (0, 1));
        assert_eq!(f.err, ExecError::UnknownBuffer { buffer: 1 });
        // A clean launch has no fault.
        assert!(plan.first_fault(&bufs, 4).is_none());
        assert!(plan.first_fault(&bufs, 0).is_none());
    }

    #[test]
    fn negative_offsets_fault_thread_zero() {
        let prog = Program::new(
            "neg",
            1,
            vec![
                Instr::Ld(Reg(0), 0, AddrMode::TidPlus(-1)),
                Instr::St(1, AddrMode::Tid, Reg(0)),
            ],
        )
        .expect("valid");
        let plan = compile(&prog, &IhwConfig::precise());
        let bufs = vec![vec![0.0f32; 8], vec![0.0f32; 8]];
        let f = plan.first_fault(&bufs, 8).expect("faults");
        assert_eq!((f.tid, f.instr), (0, 0));
        assert_eq!(
            f.err,
            ExecError::OutOfBounds {
                buffer: 0,
                index: -1,
                len: 8
            }
        );
    }

    #[test]
    fn cache_hits_are_typed_and_collision_checked() {
        let mut cache = PlanCache::default();
        let prog = programs::saxpy(2.0);
        let a = cache.get_or_compile(&prog, &IhwConfig::precise());
        let b = cache.get_or_compile(&prog, &IhwConfig::precise());
        assert!(Arc::ptr_eq(&a, &b), "same (program, config) → same plan");
        assert_eq!(cache.stats().len, 1);
        // A different config is a different plan under the same program.
        let c = cache.get_or_compile(&prog, &IhwConfig::all_imprecise());
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.stats().len, 2);
        // A different program (different immediate) fingerprints apart.
        let prog2 = programs::saxpy(3.0);
        assert_ne!(prog.fingerprint(), prog2.fingerprint());
        let d = cache.get_or_compile(&prog2, &IhwConfig::precise());
        assert!(!Arc::ptr_eq(&a, &d));
        assert_eq!(cache.stats().len, 3);
    }

    #[test]
    fn churning_past_capacity_evicts_lru_not_everything() {
        let mut cache = PlanCache::default();
        let cfg = IhwConfig::precise();
        let extra = 16usize;
        let total = PlanCache::DEFAULT_CAPACITY + extra;
        // Churn more distinct (program, config) keys than the capacity:
        // each saxpy immediate fingerprints apart.
        for i in 0..total {
            cache.get_or_compile(&programs::saxpy(i as f32), &cfg);
            assert!(
                cache.stats().len <= PlanCache::DEFAULT_CAPACITY,
                "cache never exceeds its capacity"
            );
        }
        let s = cache.stats();
        assert_eq!(s.len, PlanCache::DEFAULT_CAPACITY);
        assert_eq!(s.capacity, PlanCache::DEFAULT_CAPACITY);
        assert_eq!(s.misses, total as u64);
        assert_eq!(s.hits, 0);
        assert_eq!(s.evictions, extra as u64, "only the LRU tail is evicted");
        // The most recent CAPACITY keys are all still resident (the old
        // wholesale clear would have dropped most of them)…
        for i in extra..total {
            cache.get_or_compile(&programs::saxpy(i as f32), &cfg);
        }
        let s = cache.stats();
        assert_eq!(s.hits, PlanCache::DEFAULT_CAPACITY as u64);
        assert_eq!(s.evictions, extra as u64);
        // …while the churned-out oldest keys recompile.
        cache.get_or_compile(&programs::saxpy(0.0), &cfg);
        assert_eq!(cache.stats().misses, total as u64 + 1);
    }

    #[test]
    fn lru_eviction_is_deterministic_and_respects_recency() {
        let mut cache = PlanCache::default();
        cache.set_capacity(4);
        let prog = programs::saxpy(2.0);
        let cfg = |t: u32| IhwConfig::ray_with_ac_mul(t);
        for t in 0..4 {
            cache.get_or_compile(&prog, &cfg(t));
        }
        // Touch t=0 so t=1 becomes the LRU victim.
        cache.get_or_compile(&prog, &cfg(0));
        cache.get_or_compile(&prog, &cfg(10));
        let s = cache.stats();
        assert_eq!((s.len, s.evictions), (4, 1));
        // t=1 was evicted; t=0 survived its refresh.
        let hits_before = cache.stats().hits;
        cache.get_or_compile(&prog, &cfg(0));
        assert_eq!(cache.stats().hits, hits_before + 1);
        cache.get_or_compile(&prog, &cfg(1));
        assert_eq!(
            cache.stats().evictions,
            2,
            "refetching the victim evicts again"
        );
        // Shrinking the capacity evicts immediately, oldest first.
        cache.set_capacity(2);
        let s = cache.stats();
        assert_eq!((s.len, s.capacity), (2, 2));
        assert_eq!(s.evictions, 4);
    }

    #[test]
    fn stock_kernels_compile_block_safe() {
        for prog in [
            programs::saxpy(2.0),
            programs::rsqrt_norm(),
            programs::dot_partial(4),
            programs::distance(),
        ] {
            let plan = compile(&prog, &IhwConfig::all_imprecise());
            assert!(plan.block_safe, "{} should be direct-write", plan.name());
            assert_eq!(plan.len(), prog.instrs().len());
        }
    }
}
