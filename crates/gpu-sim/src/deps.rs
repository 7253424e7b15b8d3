//! Static memory-dependence and race analysis over kernel [`Program`]s.
//!
//! The interpreter executes threads in ascending tid order, so a later
//! thread can observe an earlier thread's store (the *sequential-tid
//! visibility rule*). Before the launch path may fan threads across
//! cores it needs a proof that no thread observes another thread's
//! effects — this module provides that proof, entirely statically.
//!
//! # The affine index domain
//!
//! Every addressing mode of the IR denotes an index that is an affine
//! function of the thread id: `index = scale·tid + offset` with
//! `scale ∈ {0, 1}` ([`AddrMode::Tid`] → `(1, 0)`,
//! [`AddrMode::TidPlus`]`(k)` → `(1, k)`, [`AddrMode::Abs`]`(i)` →
//! `(0, i)`). Unrolled bodies contribute one affine term per access, so
//! a per-buffer footprint is a *set* of affine indices — strides and
//! ranges are represented exactly, not widened. Overlap between two
//! affine indices across distinct tids (and between a tid and any
//! strictly earlier tid) is then decidable in closed form for **every**
//! launch size, which keeps the verdict launch-independent and sound.
//!
//! # Verdicts
//!
//! * [`Verdict::ThreadIndependent`] — no cross-tid write-write overlap
//!   and no read that can observe an earlier tid's store: the threads
//!   may run in any order. [`store_shape`] refines the proof into the
//!   shape that licenses the compiled engine's instruction-major lane
//!   blocks.
//! * [`Verdict::SequentialCarried`] — some cross-tid ordering
//!   dependence exists (a later tid reads an earlier tid's store, or
//!   two tids write the same element). Legal under the sequential
//!   semantics, but order-dependent: the compiled engine runs such a
//!   kernel one lane at a time, in tid order.
//! * [`Verdict::Unknown`] — reserved for accesses outside the affine
//!   domain. Every current [`AddrMode`] is affine, so this verdict is
//!   unreachable today; it exists so indirect addressing can be added
//!   without silently mis-classifying.
//!
//! ```
//! use gpu_sim::deps::{racecheck, Verdict};
//! use gpu_sim::programs;
//!
//! let report = racecheck(&programs::saxpy(2.0));
//! assert_eq!(report.verdict, Verdict::ThreadIndependent);
//! assert!(report.dependences.is_empty());
//! ```

use crate::isa::{AddrMode, Instr, Program, Reg};
use std::collections::BTreeMap;

/// A buffer index as an affine function of the thread id:
/// `index = scale·tid + offset`.
///
/// ```
/// use gpu_sim::deps::AffineIndex;
/// use gpu_sim::isa::AddrMode;
///
/// let a = AffineIndex::from(AddrMode::Tid);         // tid
/// let b = AffineIndex::from(AddrMode::TidPlus(1));  // tid + 1
/// assert_eq!(a.at(3), 3);
/// assert_eq!(b.at(3), 4);
/// // Distinct tids can collide: tid₁ = tid₂ + 1.
/// assert!(a.overlaps_cross_tid(b));
/// // A single thread never sees both at the same element.
/// assert!(!a.overlaps_same_tid(b));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct AffineIndex {
    /// Coefficient of `tid` (0 for broadcast accesses, 1 for
    /// tid-relative ones).
    pub scale: i64,
    /// Constant term (may be negative for `tid-K` addressing).
    pub offset: i64,
}

impl From<AddrMode> for AffineIndex {
    fn from(mode: AddrMode) -> Self {
        match mode {
            AddrMode::Tid => AffineIndex {
                scale: 1,
                offset: 0,
            },
            AddrMode::TidPlus(k) => AffineIndex {
                scale: 1,
                offset: k,
            },
            AddrMode::Abs(i) => AffineIndex {
                scale: 0,
                offset: i as i64,
            },
        }
    }
}

impl AffineIndex {
    /// The concrete element index this access touches for thread `tid`.
    pub fn at(self, tid: u32) -> i64 {
        self.scale * tid as i64 + self.offset
    }

    /// Whether two threads with **distinct** ids can touch the same
    /// element, for some launch size. Decided in closed form:
    ///
    /// * `(1,b₁)` vs `(1,b₂)`: collide iff `b₁ ≠ b₂` (take
    ///   `tid₁ − tid₂ = b₂ − b₁`).
    /// * `(1,b)` vs `(0,e)`: collide iff `e − b ≥ 0` (thread `e − b`
    ///   meets every other thread at element `e`).
    /// * `(0,e₁)` vs `(0,e₂)`: collide iff `e₁ = e₂` (every pair of
    ///   threads meets there — including an instruction with itself).
    pub fn overlaps_cross_tid(self, other: AffineIndex) -> bool {
        match (self.scale, other.scale) {
            (1, 1) => self.offset != other.offset,
            (1, 0) => other.offset >= self.offset,
            (0, 1) => self.offset >= other.offset,
            (0, 0) => self.offset == other.offset,
            // Out of the affine domain: assume overlap.
            _ => true,
        }
    }

    /// Whether a **single** thread can touch the same element through
    /// both accesses (same-thread reuse is served by program order and
    /// never creates a cross-thread dependence).
    pub fn overlaps_same_tid(self, other: AffineIndex) -> bool {
        match (self.scale, other.scale) {
            (1, 1) | (0, 0) => self.offset == other.offset,
            (1, 0) => other.offset >= self.offset,
            (0, 1) => self.offset >= other.offset,
            _ => true,
        }
    }

    /// Whether a read through `self` can observe a store through
    /// `write` made by a **strictly earlier** thread — the carried
    /// (read-after-write) dependence that makes the sequential-tid
    /// order observable:
    ///
    /// * read `(1,b_r)`, write `(1,b_w)`: the writer is
    ///   `tid_r + b_r − b_w`, earlier iff `b_r < b_w`.
    /// * read `(1,b_r)`, write `(0,e)`: only thread `e − b_r` reads the
    ///   written element; an earlier writer exists iff `e − b_r ≥ 1`.
    /// * read `(0,e)`, write `(1,b_w)`: the writer is thread `e − b_w`;
    ///   a later reader exists iff `e − b_w ≥ 0`.
    /// * read `(0,e_r)`, write `(0,e_w)`: carried iff `e_r = e_w`.
    ///
    /// Note the asymmetry with [`AffineIndex::overlaps_cross_tid`]: a
    /// read that collides only with **later** tids' stores (a
    /// write-after-read pair, e.g. read `tid+1` / write `tid`) still
    /// reads launch-entry data under the sequential schedule, so it is
    /// not carried.
    pub fn reads_earlier_store(self, write: AffineIndex) -> bool {
        match (self.scale, write.scale) {
            (1, 1) => self.offset < write.offset,
            // `e − b_r ≥ 1` and `e − b_w ≥ 0`, compared without the
            // subtraction, which overflows for offsets near `i64::MIN`.
            (1, 0) => write.offset > self.offset,
            (0, 1) => self.offset >= write.offset,
            (0, 0) => self.offset == write.offset,
            _ => true,
        }
    }
}

/// One memory access site: the instruction index and its affine index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Instruction index within the program.
    pub instr: usize,
    /// The access's index expression.
    pub index: AffineIndex,
}

/// Per-buffer read/write footprint of one thread, as sets of affine
/// indices (one entry per access site, so unrolled strides stay exact).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Load sites touching this buffer.
    pub reads: Vec<Access>,
    /// Store sites touching this buffer.
    pub writes: Vec<Access>,
}

impl Footprint {
    /// The minimum buffer length that keeps every access of a
    /// `threads`-thread launch in bounds (0 when nothing executes).
    /// Negative indices (statically out of bounds, rule A006) do not
    /// contribute: no length fixes them.
    ///
    /// ```
    /// use gpu_sim::deps::{footprints, racecheck};
    /// use gpu_sim::programs;
    ///
    /// let prog = programs::dot_partial(4); // reads x[tid..tid+4)
    /// let fp = &footprints(&prog)[&0];
    /// assert_eq!(fp.required_len(8), 8 + 3);
    /// ```
    pub fn required_len(&self, threads: u32) -> usize {
        if threads == 0 {
            return 0;
        }
        self.reads
            .iter()
            .chain(&self.writes)
            .map(|a| a.index.at(threads - 1) + 1)
            .max()
            .unwrap_or(0)
            .max(0) as usize
    }
}

/// The kind of cross-tid ordering dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// Two store sites (possibly the same instruction, for broadcast
    /// stores) can write the same element from distinct threads.
    WriteWrite {
        /// First store instruction index.
        first: usize,
        /// Second store instruction index (== `first` when a single
        /// broadcast store conflicts with itself across threads).
        second: usize,
    },
    /// A load can observe a strictly earlier thread's store.
    ReadWrite {
        /// Load instruction index.
        read: usize,
        /// Store instruction index.
        write: usize,
    },
}

/// A proven cross-tid ordering dependence on one buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dependence {
    /// The buffer both sites touch.
    pub buffer: usize,
    /// Which sites, and how.
    pub kind: DepKind,
}

/// A buffer access that is out of bounds for **every** launch: a
/// tid-relative index with a negative offset (thread 0 computes a
/// negative element index). Rule A006.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OobSite {
    /// Offending instruction index.
    pub instr: usize,
    /// The buffer accessed.
    pub buffer: usize,
    /// The offending index expression.
    pub index: AffineIndex,
}

/// A register-hygiene site (rule A007): either a read of a register no
/// instruction has written yet (legal — the file is zero-initialised —
/// but usually a latent bug), or a store into a register that is never
/// read before being overwritten or the program ending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegSite {
    /// Offending instruction index.
    pub instr: usize,
    /// The register involved.
    pub reg: Reg,
}

/// The launch-independence classification of a kernel.
///
/// ```
/// use gpu_sim::deps::{racecheck, Verdict};
/// use gpu_sim::isa::{AddrMode, Instr, Program, Reg};
///
/// // out[tid] = in[tid−1]: thread t reads what thread t−1 may have
/// // written — order-dependent, so its threads must run in tid order.
/// let shift = Program::new("shift", 1, vec![
///     Instr::Ld(Reg(0), 0, AddrMode::TidPlus(-1)),
///     Instr::St(0, AddrMode::Tid, Reg(0)),
/// ]).unwrap();
/// assert_eq!(racecheck(&shift).verdict, Verdict::SequentialCarried);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No cross-tid ordering dependence: threads may run in any order
    /// (reads served from launch-entry state) with bit-identical
    /// results.
    ThreadIndependent,
    /// A cross-tid dependence exists; results are only defined under
    /// the sequential-tid order.
    SequentialCarried,
    /// An access fell outside the affine domain (unreachable with the
    /// current [`AddrMode`]s; reserved for indirect addressing).
    Unknown,
}

impl Verdict {
    /// Stable lowercase label used by reports and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::ThreadIndependent => "thread-independent",
            Verdict::SequentialCarried => "sequential-carried",
            Verdict::Unknown => "unknown",
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Everything the analysis proves about one program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceReport {
    /// The overall classification.
    pub verdict: Verdict,
    /// Every proven cross-tid ordering dependence (empty iff the
    /// verdict is [`Verdict::ThreadIndependent`]).
    pub dependences: Vec<Dependence>,
    /// Statically out-of-bounds accesses (rule A006).
    pub oob: Vec<OobSite>,
    /// Reads of never-written registers (rule A007).
    pub uninit_reads: Vec<RegSite>,
    /// Register stores that are never read (rule A007).
    pub dead_stores: Vec<RegSite>,
    /// Per-buffer single-thread footprints, keyed by buffer index.
    pub footprints: BTreeMap<usize, Footprint>,
}

/// Collects the per-buffer read/write footprints of one thread.
pub fn footprints(prog: &Program) -> BTreeMap<usize, Footprint> {
    let mut map: BTreeMap<usize, Footprint> = BTreeMap::new();
    for (i, instr) in prog.instrs().iter().enumerate() {
        match *instr {
            Instr::Ld(_, buf, mode) => map.entry(buf).or_default().reads.push(Access {
                instr: i,
                index: mode.into(),
            }),
            Instr::St(buf, mode, _) => map.entry(buf).or_default().writes.push(Access {
                instr: i,
                index: mode.into(),
            }),
            _ => {}
        }
    }
    map
}

/// Runs the full analysis: footprints, cross-tid dependence proof,
/// static bounds check and register hygiene.
pub fn racecheck(prog: &Program) -> RaceReport {
    let fps = footprints(prog);

    let mut dependences = Vec::new();
    let mut oob = Vec::new();
    for (&buffer, fp) in &fps {
        // Write-write: unordered pairs, including a store site against
        // itself (a broadcast store conflicts across every thread pair).
        for (i, w1) in fp.writes.iter().enumerate() {
            for w2 in &fp.writes[i..] {
                if w1.index.overlaps_cross_tid(w2.index) {
                    dependences.push(Dependence {
                        buffer,
                        kind: DepKind::WriteWrite {
                            first: w1.instr,
                            second: w2.instr,
                        },
                    });
                }
            }
        }
        // Carried read-after-write: a load observing an earlier tid's
        // store.
        for r in &fp.reads {
            for w in &fp.writes {
                if r.index.reads_earlier_store(w.index) {
                    dependences.push(Dependence {
                        buffer,
                        kind: DepKind::ReadWrite {
                            read: r.instr,
                            write: w.instr,
                        },
                    });
                }
            }
        }
        for a in fp.reads.iter().chain(&fp.writes) {
            if a.index.scale == 1 && a.index.offset < 0 {
                oob.push(OobSite {
                    instr: a.instr,
                    buffer,
                    index: a.index,
                });
            }
        }
    }
    oob.sort_by_key(|s| (s.instr, s.buffer));

    let (uninit_reads, dead_stores) = register_hygiene(prog);

    RaceReport {
        verdict: if dependences.is_empty() {
            Verdict::ThreadIndependent
        } else {
            Verdict::SequentialCarried
        },
        dependences,
        oob,
        uninit_reads,
        dead_stores,
        footprints: fps,
    }
}

/// Finds reads of never-written registers and register stores that are
/// never read (rule A007), by forward scan over the straight-line body.
fn register_hygiene(prog: &Program) -> (Vec<RegSite>, Vec<RegSite>) {
    let instrs = prog.instrs();
    let mut written = vec![false; prog.regs() as usize];
    let mut uninit = Vec::new();
    for (i, instr) in instrs.iter().enumerate() {
        let mut reads = instr.reads();
        reads.sort_unstable_by_key(|r| r.0);
        reads.dedup();
        for r in reads {
            if !written[r.0 as usize] {
                uninit.push(RegSite { instr: i, reg: r });
            }
        }
        if let Some(d) = instr.dest() {
            written[d.0 as usize] = true;
        }
    }
    // A store into a register is dead when no later instruction reads
    // the register before it is overwritten (or the program ends).
    let mut dead = Vec::new();
    for (i, instr) in instrs.iter().enumerate() {
        let Some(d) = instr.dest() else { continue };
        let mut read_first = false;
        for later in &instrs[i + 1..] {
            if later.reads().contains(&d) {
                read_first = true;
                break;
            }
            if later.dest() == Some(d) {
                break;
            }
        }
        if !read_first {
            dead.push(RegSite { instr: i, reg: d });
        }
    }
    (uninit, dead)
}

/// The store shape of a proven thread-independent kernel (see
/// [`store_shape`]), which decides whether the compiled engine may run
/// it as instruction-major lane blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreShape {
    /// Every store site is `tid + offset` with one common offset per
    /// written buffer, and no load of a written buffer can alias
    /// another thread's store: a block of threads may run each
    /// instruction across all its lanes before the next one, and the
    /// result equals the sequential tid order.
    DirectWrite,
    /// Proven independent, but some load of a written buffer aliases
    /// another thread's store range (a write-after-read shape such as
    /// read `tid+1` / write `tid`), or a store is not `scale = 1`
    /// affine: a lane block could read a slot another lane already
    /// overwrote, so the compiled engine runs the kernel one lane at a
    /// time.
    OneLane,
}

/// Classifies a kernel's stores: whether lane blocks may execute them.
/// Returns `None` unless `report` proves thread-independence — the
/// shape refines an existing proof, it never creates one.
///
/// ```
/// use gpu_sim::deps::{racecheck, store_shape, StoreShape};
/// use gpu_sim::programs;
///
/// let report = racecheck(&programs::saxpy(2.0));
/// assert_eq!(store_shape(&report), Some(StoreShape::DirectWrite));
/// ```
pub fn store_shape(report: &RaceReport) -> Option<StoreShape> {
    if report.verdict != Verdict::ThreadIndependent {
        return None;
    }
    for fp in report.footprints.values() {
        let Some(first) = fp.writes.first() else {
            continue;
        };
        // All store sites of the buffer must resolve to one dense
        // `tid + offset` window. (Thread-independence already excludes
        // broadcast stores for multi-thread launches, but the shape
        // check keeps this pass self-contained.)
        if first.index.scale != 1
            || fp
                .writes
                .iter()
                .any(|w| w.index.scale != 1 || w.index.offset != first.index.offset)
        {
            return Some(StoreShape::OneLane);
        }
        // Lane blocks are only safe when no other thread can load what
        // this thread overwrites. A same-offset load is the thread's
        // own slot (served by program order); anything else aliasing
        // the store window forces one lane at a time.
        if fp.reads.iter().any(|r| {
            fp.writes
                .iter()
                .any(|w| r.index.overlaps_cross_tid(w.index))
        }) {
            return Some(StoreShape::OneLane);
        }
    }
    Some(StoreShape::DirectWrite)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs;

    fn idx(scale: i64, offset: i64) -> AffineIndex {
        AffineIndex { scale, offset }
    }

    #[test]
    fn cross_tid_overlap_closed_forms() {
        // (1,b) vs (1,b): same lane for every thread — never cross-tid.
        assert!(!idx(1, 0).overlaps_cross_tid(idx(1, 0)));
        assert!(idx(1, 0).overlaps_cross_tid(idx(1, 3)));
        // (1,b) vs (0,e): meet iff the broadcast element is reachable.
        assert!(idx(1, 0).overlaps_cross_tid(idx(0, 5)));
        assert!(!idx(1, 6).overlaps_cross_tid(idx(0, 5)));
        assert!(idx(0, 5).overlaps_cross_tid(idx(1, 5)));
        // (0,e) vs (0,e): every thread pair meets there.
        assert!(idx(0, 2).overlaps_cross_tid(idx(0, 2)));
        assert!(!idx(0, 2).overlaps_cross_tid(idx(0, 3)));
    }

    #[test]
    fn carried_is_directional() {
        // read tid−1 / write tid: thread t reads thread t−1's store.
        assert!(idx(1, -1).reads_earlier_store(idx(1, 0)));
        // read tid+1 / write tid: only later threads write there.
        assert!(!idx(1, 1).reads_earlier_store(idx(1, 0)));
        // read broadcast e, write tid: carried once thread e exists.
        assert!(idx(0, 3).reads_earlier_store(idx(1, 0)));
        assert!(!idx(0, 3).reads_earlier_store(idx(1, 4)));
        // read tid, write broadcast e: reader is thread e, earlier
        // writers exist iff e ≥ 1.
        assert!(idx(1, 0).reads_earlier_store(idx(0, 1)));
        assert!(!idx(1, 0).reads_earlier_store(idx(0, 0)));
        // Offsets at the ends of i64 decide without overflowing.
        assert!(idx(1, i64::MIN).reads_earlier_store(idx(0, 0)));
        assert!(!idx(1, i64::MAX).reads_earlier_store(idx(0, i64::MIN)));
        assert!(idx(0, i64::MAX).reads_earlier_store(idx(1, i64::MIN)));
        assert!(!idx(0, i64::MIN).reads_earlier_store(idx(1, i64::MAX)));
    }

    #[test]
    fn stock_kernels_are_thread_independent() {
        for prog in [
            programs::saxpy(2.0),
            programs::rsqrt_norm(),
            programs::dot_partial(4),
            programs::distance(),
        ] {
            let report = racecheck(&prog);
            assert_eq!(
                report.verdict,
                Verdict::ThreadIndependent,
                "{}",
                prog.name()
            );
            assert!(report.oob.is_empty(), "{}", prog.name());
        }
    }

    #[test]
    fn broadcast_store_is_write_write_conflict() {
        use crate::isa::{AddrMode, Instr, Program, Reg};
        let prog = Program::new(
            "bcast",
            1,
            vec![
                Instr::Movi(Reg(0), 1.0),
                Instr::St(0, AddrMode::Abs(0), Reg(0)),
            ],
        )
        .unwrap();
        let report = racecheck(&prog);
        assert_eq!(report.verdict, Verdict::SequentialCarried);
        assert!(matches!(
            report.dependences[0].kind,
            DepKind::WriteWrite {
                first: 1,
                second: 1
            }
        ));
    }

    #[test]
    fn forward_read_is_not_carried() {
        use crate::isa::{AddrMode, Instr, Program, Reg};
        // out[tid] = in[tid+1], same buffer: a write-after-read pair.
        // The sequential loop reads launch-entry data, so this stays
        // ThreadIndependent.
        let prog = Program::new(
            "fwd",
            1,
            vec![
                Instr::Ld(Reg(0), 0, AddrMode::TidPlus(1)),
                Instr::St(0, AddrMode::Tid, Reg(0)),
            ],
        )
        .unwrap();
        assert_eq!(racecheck(&prog).verdict, Verdict::ThreadIndependent);
    }

    #[test]
    fn negative_offset_is_static_oob() {
        use crate::isa::{AddrMode, Instr, Program, Reg};
        let prog = Program::new(
            "neg",
            1,
            vec![
                Instr::Ld(Reg(0), 0, AddrMode::TidPlus(-2)),
                Instr::St(1, AddrMode::Tid, Reg(0)),
            ],
        )
        .unwrap();
        let report = racecheck(&prog);
        assert_eq!(report.oob.len(), 1);
        assert_eq!(report.oob[0].instr, 0);
        assert_eq!(report.oob[0].index, idx(1, -2));
    }

    #[test]
    fn register_hygiene_flags_uninit_and_dead() {
        use crate::isa::{AddrMode, Instr, Program, Reg};
        let prog = Program::new(
            "hygiene",
            3,
            vec![
                // r1 read before any write: uninit.
                Instr::Fadd(Reg(0), Reg(1), Reg(1)),
                // r2 written, never read: dead store.
                Instr::Movi(Reg(2), 7.0),
                Instr::St(0, AddrMode::Tid, Reg(0)),
            ],
        )
        .unwrap();
        let (uninit, dead) = register_hygiene(&prog);
        assert_eq!(
            uninit,
            vec![RegSite {
                instr: 0,
                reg: Reg(1)
            }]
        );
        assert_eq!(
            dead,
            vec![RegSite {
                instr: 1,
                reg: Reg(2)
            }]
        );
    }

    #[test]
    fn required_len_covers_strided_reads() {
        let fp = footprints(&programs::dot_partial(3));
        assert_eq!(fp[&0].required_len(10), 12);
        assert_eq!(fp[&2].required_len(10), 10);
        assert_eq!(fp[&0].required_len(0), 0);
    }

    #[test]
    fn stock_kernels_are_direct_write_shapes() {
        // Every stock kernel stores only to its own `tid` slot, with no
        // read aliasing another thread's store window.
        for prog in [
            programs::saxpy(2.0),
            programs::rsqrt_norm(),
            programs::dot_partial(4),
            programs::distance(),
        ] {
            let report = racecheck(&prog);
            assert_eq!(
                store_shape(&report),
                Some(StoreShape::DirectWrite),
                "{} should be direct-write",
                prog.name()
            );
            assert!(
                report
                    .footprints
                    .values()
                    .flat_map(|fp| &fp.writes)
                    .all(|w| w.index.offset == 0),
                "{} stores land at tid+0",
                prog.name()
            );
        }
    }

    #[test]
    fn write_after_read_shape_runs_one_lane() {
        // out[tid] = in[tid+1] *in the same buffer*: independent (reads
        // observe launch-entry data either way), but a lane block's
        // store would clobber what the previous lane still has to read.
        let prog = Program::new(
            "fwd",
            1,
            vec![
                Instr::Ld(Reg(0), 0, AddrMode::TidPlus(1)),
                Instr::St(0, AddrMode::Tid, Reg(0)),
            ],
        )
        .unwrap();
        let report = racecheck(&prog);
        assert_eq!(report.verdict, Verdict::ThreadIndependent);
        assert_eq!(store_shape(&report), Some(StoreShape::OneLane));
    }

    #[test]
    fn cross_buffer_stride_is_still_direct() {
        // out[tid] = in[tid+1] across *different* buffers: the read
        // aliases nothing anyone writes, so lane blocks are safe.
        let prog = Program::new(
            "stride_copy",
            1,
            vec![
                Instr::Ld(Reg(0), 0, AddrMode::TidPlus(1)),
                Instr::St(1, AddrMode::Tid, Reg(0)),
            ],
        )
        .unwrap();
        let report = racecheck(&prog);
        assert_eq!(store_shape(&report), Some(StoreShape::DirectWrite));
    }

    #[test]
    fn offset_store_window_is_direct_with_its_offset() {
        // out[tid+2] = in[tid]: a shifted but still disjoint window.
        let prog = Program::new(
            "shifted",
            1,
            vec![
                Instr::Ld(Reg(0), 0, AddrMode::Tid),
                Instr::St(1, AddrMode::TidPlus(2), Reg(0)),
            ],
        )
        .unwrap();
        let report = racecheck(&prog);
        assert_eq!(store_shape(&report), Some(StoreShape::DirectWrite));
        assert_eq!(report.footprints[&1].writes[0].index.offset, 2);
    }

    #[test]
    fn store_shape_requires_the_proof() {
        let prog = Program::new(
            "chain",
            1,
            vec![
                Instr::Ld(Reg(0), 0, AddrMode::TidPlus(-1)),
                Instr::St(0, AddrMode::Tid, Reg(0)),
            ],
        )
        .unwrap();
        let report = racecheck(&prog);
        assert_eq!(report.verdict, Verdict::SequentialCarried);
        assert_eq!(store_shape(&report), None);
    }
}
