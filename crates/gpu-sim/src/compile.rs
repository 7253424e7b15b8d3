//! Lowering of `(Program, IhwConfig)` pairs into threaded-code tables
//! of monomorphized lane operations — the backend of [`crate::plan`].
//!
//! The interpreter ([`crate::isa`]) re-decides every configuration
//! branch per thread per instruction: which adder serves `fadd`, which
//! multiplier path serves `fmul`, whether the SFU is imprecise — all
//! through [`IhwConfig`] matches inside the hot loop, plus a counter
//! update and a memory-port virtual step for every executed
//! instruction. This module folds all of those decisions **once, at
//! lowering time**: each IR instruction becomes one [`CompiledOp`]
//! whose unit selection (adder `TH` case, AC-multiplier truncation
//! width, SFU on/off, precise fallbacks) is baked into the variant, so
//! executing a warp's lanes is a tight loop over contiguous slices with
//! no per-lane dispatch at all.
//!
//! The execution state is a structure-of-arrays register file
//! ([`RegFile`]): register `r` holds a row of [`LANES`] lane values, so
//! one compiled op processes a whole block of threads as slice
//! arithmetic. Loads and stores copy whole lane slices to and from the
//! launch buffers in place.

use crate::deps::AffineIndex;
use ihw_core::ac_multiplier::{AcMulConfig, MulPath};
use ihw_core::adder::{iadd32, isub32};
use ihw_core::config::{AddUnit, IhwConfig, MulUnit, UnitMode};
use ihw_core::multiplier::imul32;
use ihw_core::sfu::{idiv32, ilog2_32, ircp32, irsqrt32, isqrt32};
use ihw_core::truncated::TruncatedMul;

/// Lane-block width: threads executed per instruction sweep. This is
/// the engine's block width, not a warp: one block pays the per-op
/// dispatch, `map*` call and row swap once for all its lanes, so wider
/// blocks amortize that fixed cost further (DESIGN.md §10 records the
/// width sweep).
pub const LANES: usize = 128;

/// The adder selection folded out of an [`IhwConfig`] at lowering time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AddKind {
    /// IEEE-754 host addition.
    P,
    /// Imprecise threshold adder with its structural `TH` baked in.
    I(u32),
}

/// The multiplier selection folded out of an [`IhwConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum MulKind {
    /// IEEE-754 host multiplication.
    P,
    /// Table 1 imprecise multiplier.
    I,
    /// Accuracy-configurable Mitchell multiplier, truncation baked in.
    Ac(AcMulConfig),
    /// Bit-truncation baseline multiplier.
    T(TruncatedMul),
}

/// One lowered instruction of the threaded-code table. Register
/// operands are row indices into the [`RegFile`]; every configuration
/// branch of the source [`IhwConfig`] has already been folded into the
/// variant (`…P` = precise unit, `…I` = imprecise unit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum CompiledOp {
    /// `rd ← imm` for every lane.
    Fill { d: u8, imm: f32 },
    /// `rd ← tid` for every lane.
    Iota { d: u8 },
    /// `rd ← ra + rb` on the folded adder.
    Add { k: AddKind, d: u8, a: u8, b: u8 },
    /// `rd ← ra − rb` on the folded adder.
    Sub { k: AddKind, d: u8, a: u8, b: u8 },
    /// `rd ← ra × rb` on the folded multiplier.
    Mul { k: MulKind, d: u8, a: u8, b: u8 },
    /// `rd ← ra ÷ rb`, precise divider.
    DivP { d: u8, a: u8, b: u8 },
    /// `rd ← ra ÷ rb`, imprecise divider.
    DivI { d: u8, a: u8, b: u8 },
    /// `rd ← ra × rb + rc` on the folded multiplier + adder pair.
    Fma {
        /// Folded multiplier.
        m: MulKind,
        /// Folded adder.
        k: AddKind,
        /// Destination row.
        d: u8,
        /// Multiplicand row.
        a: u8,
        /// Multiplier row.
        b: u8,
        /// Addend row.
        c: u8,
    },
    /// `rd ← 1/ra`, precise.
    RcpP { d: u8, a: u8 },
    /// `rd ← 1/ra`, imprecise SFU.
    RcpI { d: u8, a: u8 },
    /// `rd ← 1/√ra`, precise.
    RsqrtP { d: u8, a: u8 },
    /// `rd ← 1/√ra`, imprecise SFU.
    RsqrtI { d: u8, a: u8 },
    /// `rd ← √ra`, precise.
    SqrtP { d: u8, a: u8 },
    /// `rd ← √ra`, imprecise SFU.
    SqrtI { d: u8, a: u8 },
    /// `rd ← log₂ ra`, precise.
    Log2P { d: u8, a: u8 },
    /// `rd ← log₂ ra`, imprecise SFU.
    Log2I { d: u8, a: u8 },
    /// `rd ← max(ra, rb)` (ALU op, config-independent).
    Max { d: u8, a: u8, b: u8 },
    /// `rd ← if rc > 0 { ra } else { rb }`.
    Sel { d: u8, c: u8, a: u8, b: u8 },
    /// `rd ← buf[tid + off]` for every lane.
    LdLane { d: u8, buf: usize, off: i64 },
    /// `rd ← buf[e]` (broadcast) for every lane.
    LdBcast { d: u8, buf: usize, e: usize },
    /// `buf[tid + off] ← rs` for every lane.
    StLane { buf: usize, off: i64, s: u8 },
    /// `buf[e] ← rs`, lanes applied in tid order (last lane wins —
    /// only reachable on the scalar path, where a block is one lane).
    StBcast { buf: usize, e: usize, s: u8 },
}

/// Folds the configured adder into an [`AddKind`].
fn add_kind(cfg: &IhwConfig) -> AddKind {
    match cfg.add {
        AddUnit::Precise => AddKind::P,
        AddUnit::Imprecise { th } => AddKind::I(th),
    }
}

/// Folds the configured multiplier into a [`MulKind`].
fn mul_kind(cfg: &IhwConfig) -> MulKind {
    match cfg.mul {
        MulUnit::Precise => MulKind::P,
        MulUnit::Imprecise => MulKind::I,
        MulUnit::AcMul(ac) => MulKind::Ac(ac),
        MulUnit::Truncated(tm) => MulKind::T(tm),
    }
}

/// Lowers a validated program under one configuration. Instruction
/// `i` of the program maps to `ops[i]` — the 1:1 correspondence is what
/// lets the fault path replay an exact instruction prefix.
pub(crate) fn lower(prog: &crate::isa::Program, cfg: &IhwConfig) -> Vec<CompiledOp> {
    use crate::isa::{AddrMode, Instr};
    let ak = add_kind(cfg);
    let mk = mul_kind(cfg);
    let affine = |mode: AddrMode| AffineIndex::from(mode);
    prog.instrs()
        .iter()
        .map(|instr| match *instr {
            Instr::Movi(d, imm) => CompiledOp::Fill { d: d.0, imm },
            Instr::Tid(d) => CompiledOp::Iota { d: d.0 },
            Instr::Fadd(d, a, b) => CompiledOp::Add {
                k: ak,
                d: d.0,
                a: a.0,
                b: b.0,
            },
            Instr::Fsub(d, a, b) => CompiledOp::Sub {
                k: ak,
                d: d.0,
                a: a.0,
                b: b.0,
            },
            Instr::Fmul(d, a, b) => CompiledOp::Mul {
                k: mk,
                d: d.0,
                a: a.0,
                b: b.0,
            },
            Instr::Fdiv(d, a, b) => match cfg.div {
                UnitMode::Precise => CompiledOp::DivP {
                    d: d.0,
                    a: a.0,
                    b: b.0,
                },
                UnitMode::Imprecise => CompiledOp::DivI {
                    d: d.0,
                    a: a.0,
                    b: b.0,
                },
            },
            Instr::Ffma(d, a, b, c) => CompiledOp::Fma {
                m: mk,
                k: ak,
                d: d.0,
                a: a.0,
                b: b.0,
                c: c.0,
            },
            Instr::Rcp(d, a) => match cfg.rcp {
                UnitMode::Precise => CompiledOp::RcpP { d: d.0, a: a.0 },
                UnitMode::Imprecise => CompiledOp::RcpI { d: d.0, a: a.0 },
            },
            Instr::Rsqrt(d, a) => match cfg.rsqrt {
                UnitMode::Precise => CompiledOp::RsqrtP { d: d.0, a: a.0 },
                UnitMode::Imprecise => CompiledOp::RsqrtI { d: d.0, a: a.0 },
            },
            Instr::Sqrt(d, a) => match cfg.sqrt {
                UnitMode::Precise => CompiledOp::SqrtP { d: d.0, a: a.0 },
                UnitMode::Imprecise => CompiledOp::SqrtI { d: d.0, a: a.0 },
            },
            Instr::Log2(d, a) => match cfg.log2 {
                UnitMode::Precise => CompiledOp::Log2P { d: d.0, a: a.0 },
                UnitMode::Imprecise => CompiledOp::Log2I { d: d.0, a: a.0 },
            },
            Instr::Fmax(d, a, b) => CompiledOp::Max {
                d: d.0,
                a: a.0,
                b: b.0,
            },
            Instr::Sel(d, c, a, b) => CompiledOp::Sel {
                d: d.0,
                c: c.0,
                a: a.0,
                b: b.0,
            },
            Instr::Ld(d, buf, mode) => {
                let ix = affine(mode);
                if ix.scale == 1 {
                    CompiledOp::LdLane {
                        d: d.0,
                        buf,
                        off: ix.offset,
                    }
                } else {
                    CompiledOp::LdBcast {
                        d: d.0,
                        buf,
                        e: ix.offset as usize,
                    }
                }
            }
            Instr::St(buf, mode, s) => {
                let ix = affine(mode);
                if ix.scale == 1 {
                    CompiledOp::StLane {
                        buf,
                        off: ix.offset,
                        s: s.0,
                    }
                } else {
                    CompiledOp::StBcast {
                        buf,
                        e: ix.offset as usize,
                        s: s.0,
                    }
                }
            }
        })
        .collect()
}

/// Structure-of-arrays register/lane file: register `r` of lane `i`
/// lives at `rows[r][i]`. A scratch row plus `mem::swap` gives the lane
/// loops non-aliasing source and destination slices without `unsafe`,
/// even when an op's destination register is also a source.
///
/// A [`crate::isa::WarpInterpreter`] owns one file for all its
/// launches and [`RegFile::fit`]s it to each plan, so a warm launch
/// allocates no rows, and each row keeps its address from launch to
/// launch: with rows freshly allocated per launch, where they landed
/// depended on unrelated allocations, and moving those shifted
/// compiled-launch throughput by about 10%.
#[derive(Debug, Default)]
pub(crate) struct RegFile {
    /// The register rows, then the scratch row. Boxed so that the swap
    /// exchanges two pointers instead of copying a row per op.
    #[allow(clippy::vec_box)]
    rows: Vec<Box<Row>>,
    /// Rows not in use by the current kernel, kept for a larger one.
    #[allow(clippy::vec_box)]
    spare: Vec<Box<Row>>,
}

/// One register's [`LANES`] lane values, aligned to a cache line so the
/// lane loops' vector loads and stores never split across lines.
#[derive(Debug)]
#[repr(align(64))]
struct Row([f32; LANES]);

impl std::ops::Deref for Row {
    type Target = [f32; LANES];
    fn deref(&self) -> &[f32; LANES] {
        &self.0
    }
}

impl std::ops::DerefMut for Row {
    fn deref_mut(&mut self) -> &mut [f32; LANES] {
        &mut self.0
    }
}

impl RegFile {
    /// A file fitted to a `regs`-register kernel.
    #[cfg(test)]
    fn new(regs: u8) -> Self {
        let mut rf = RegFile::default();
        rf.fit(regs);
        rf
    }

    /// Fits the file to a `regs`-register kernel: every row goes back
    /// to the spares, and the file takes `regs + 1` from there, last
    /// returned first, allocating only when it runs out. Rows hold
    /// arbitrary values; [`exec_block`] zeroes the lanes it runs.
    pub(crate) fn fit(&mut self, regs: u8) {
        self.spare.append(&mut self.rows);
        for _ in 0..=regs {
            let row = self
                .spare
                .pop()
                .unwrap_or_else(|| Box::new(Row([0.0; LANES])));
            self.rows.push(row);
        }
    }

    /// The register rows and the scratch row, borrowed apart.
    fn split(&mut self) -> (&mut [Box<Row>], &mut Box<Row>) {
        let (scratch, rows) = self
            .rows
            .split_last_mut()
            .expect("a file has a scratch row");
        (rows, scratch)
    }

    /// Zeroes the first `n` lanes of every row (fresh thread state for
    /// a new block; interpreter threads start on a zeroed file).
    fn zero(&mut self, n: usize) {
        for row in self.split().0 {
            row[..n].fill(0.0);
        }
    }
}

// The map helpers are `inline(never)` on purpose: each monomorphized
// instance is a small, isolated optimization unit — one tight lane loop —
// into which LLVM reliably inlines the arithmetic unit and auto-vectorizes.
// Inlined into the (huge) dispatch match of `exec_block`, the inliner gives
// up on the unit bodies and the loops stay scalar calls.

/// Applies a unary lane function: `d[i] ← f(a[i])` for `i < n`.
///
/// The loops index pre-bounded slices rather than chaining `zip` iterators:
/// the flat shape is what the loop vectorizer handles even when the inlined
/// unit body is large (deep zip chains defeat it there).
#[inline(never)]
fn map1(rf: &mut RegFile, n: usize, d: u8, a: u8, f: impl Fn(f32) -> f32) {
    let (rows, scratch) = rf.split();
    let s = &mut scratch[..n];
    let xs = &rows[a as usize][..n];
    for i in 0..n {
        s[i] = f(xs[i]);
    }
    std::mem::swap(&mut rows[d as usize], scratch);
}

/// Applies a binary lane function: `d[i] ← f(a[i], b[i])`.
#[inline(never)]
fn map2(rf: &mut RegFile, n: usize, d: u8, a: u8, b: u8, f: impl Fn(f32, f32) -> f32) {
    let (rows, scratch) = rf.split();
    let s = &mut scratch[..n];
    let xs = &rows[a as usize][..n];
    let ys = &rows[b as usize][..n];
    for i in 0..n {
        s[i] = f(xs[i], ys[i]);
    }
    std::mem::swap(&mut rows[d as usize], scratch);
}

/// Applies a ternary lane function: `d[i] ← f(a[i], b[i], c[i])`.
#[inline(never)]
fn map3(rf: &mut RegFile, n: usize, d: u8, a: u8, b: u8, c: u8, f: impl Fn(f32, f32, f32) -> f32) {
    let (rows, scratch) = rf.split();
    let s = &mut scratch[..n];
    let xs = &rows[a as usize][..n];
    let ys = &rows[b as usize][..n];
    let zs = &rows[c as usize][..n];
    for i in 0..n {
        s[i] = f(xs[i], ys[i], zs[i]);
    }
    std::mem::swap(&mut rows[d as usize], scratch);
}

/// Executes `ops` for the lane block `[lo, lo+n)` over `buffers` —
/// instruction-major, every op a tight loop over the block's lanes.
/// `n` must not exceed [`LANES`], and every access of the block must be
/// in bounds (the plan's static fault precheck,
/// `CompiledKernel::first_fault`, guarantees it).
///
/// Instruction-major order is observationally identical to the
/// sequential tid-major order only when lane loads of written buffers
/// are own-slot (the `DirectWrite` shape); other plans must drive this
/// with `n == 1` (scalar mode), which *is* the sequential order.
pub(crate) fn exec_block(
    ops: &[CompiledOp],
    rf: &mut RegFile,
    buffers: &mut [Vec<f32>],
    lo: u32,
    n: usize,
) {
    rf.zero(n);
    for op in ops {
        match *op {
            CompiledOp::Fill { d, imm } => rf.rows[d as usize][..n].fill(imm),
            CompiledOp::Iota { d } => {
                for (i, r) in rf.rows[d as usize][..n].iter_mut().enumerate() {
                    *r = (lo + i as u32) as f32;
                }
            }
            CompiledOp::Add { k, d, a, b } => match k {
                AddKind::P => map2(rf, n, d, a, b, |x, y| x + y),
                AddKind::I(IhwConfig::DEFAULT_TH) => {
                    map2(rf, n, d, a, b, |x, y| iadd32(x, y, IhwConfig::DEFAULT_TH))
                }
                AddKind::I(th) => map2(rf, n, d, a, b, move |x, y| iadd32(x, y, th)),
            },
            CompiledOp::Sub { k, d, a, b } => match k {
                AddKind::P => map2(rf, n, d, a, b, |x, y| x - y),
                AddKind::I(IhwConfig::DEFAULT_TH) => {
                    map2(rf, n, d, a, b, |x, y| isub32(x, y, IhwConfig::DEFAULT_TH))
                }
                AddKind::I(th) => map2(rf, n, d, a, b, move |x, y| isub32(x, y, th)),
            },
            CompiledOp::Mul { k, d, a, b } => match k {
                MulKind::P => map2(rf, n, d, a, b, |x, y| x * y),
                MulKind::I => map2(rf, n, d, a, b, imul32),
                // Rebuild the config with a literal path per arm so the
                // datapath match constant-folds inside the lane closure
                // (a runtime `MulPath` otherwise keeps the loop scalar).
                MulKind::Ac(AcMulConfig {
                    path: MulPath::Log,
                    truncation,
                }) => map2(rf, n, d, a, b, move |x, y| {
                    AcMulConfig::new(MulPath::Log, truncation).mul32(x, y)
                }),
                MulKind::Ac(AcMulConfig {
                    path: MulPath::Full,
                    truncation,
                }) => map2(rf, n, d, a, b, move |x, y| {
                    AcMulConfig::new(MulPath::Full, truncation).mul32(x, y)
                }),
                MulKind::T(tm) => map2(rf, n, d, a, b, move |x, y| tm.mul32(x, y)),
            },
            CompiledOp::DivP { d, a, b } => map2(rf, n, d, a, b, |x, y| x / y),
            CompiledOp::DivI { d, a, b } => map2(rf, n, d, a, b, idiv32),
            CompiledOp::Fma { m, k, d, a, b, c } => exec_fma(rf, n, m, k, d, a, b, c),
            CompiledOp::RcpP { d, a } => map1(rf, n, d, a, |x| 1.0 / x),
            CompiledOp::RcpI { d, a } => map1(rf, n, d, a, ircp32),
            CompiledOp::RsqrtP { d, a } => map1(rf, n, d, a, |x| 1.0 / x.sqrt()),
            CompiledOp::RsqrtI { d, a } => map1(rf, n, d, a, irsqrt32),
            CompiledOp::SqrtP { d, a } => map1(rf, n, d, a, |x| x.sqrt()),
            CompiledOp::SqrtI { d, a } => map1(rf, n, d, a, isqrt32),
            CompiledOp::Log2P { d, a } => map1(rf, n, d, a, |x| x.log2()),
            CompiledOp::Log2I { d, a } => map1(rf, n, d, a, ilog2_32),
            CompiledOp::Max { d, a, b } => map2(rf, n, d, a, b, |x, y| x.max(y)),
            CompiledOp::Sel { d, c, a, b } => {
                map3(
                    rf,
                    n,
                    d,
                    c,
                    a,
                    b,
                    |cond, x, y| if cond > 0.0 { x } else { y },
                )
            }
            CompiledOp::LdLane { d, buf, off } => {
                let start = (i64::from(lo) + off) as usize;
                rf.rows[d as usize][..n].copy_from_slice(&buffers[buf][start..start + n]);
            }
            CompiledOp::LdBcast { d, buf, e } => rf.rows[d as usize][..n].fill(buffers[buf][e]),
            CompiledOp::StLane { buf, off, s } => {
                let start = (i64::from(lo) + off) as usize;
                buffers[buf][start..start + n].copy_from_slice(&rf.rows[s as usize][..n]);
            }
            CompiledOp::StBcast { buf, e, s } => {
                for &v in &rf.rows[s as usize][..n] {
                    buffers[buf][e] = v;
                }
            }
        }
    }
}

/// The fused multiply–add lane loop: both unit selections folded into
/// one monomorphic closure per `(multiplier, adder)` pair, composed
/// exactly as the interpreter's `fma32` (`add(mul(a, b), c)` — two
/// operations, never a hardware-fused one).
#[allow(clippy::too_many_arguments)]
fn exec_fma(rf: &mut RegFile, n: usize, m: MulKind, k: AddKind, d: u8, a: u8, b: u8, c: u8) {
    match (m, k) {
        (MulKind::P, AddKind::P) => map3(rf, n, d, a, b, c, |x, y, z| x * y + z),
        (MulKind::P, AddKind::I(IhwConfig::DEFAULT_TH)) => map3(rf, n, d, a, b, c, |x, y, z| {
            iadd32(x * y, z, IhwConfig::DEFAULT_TH)
        }),
        (MulKind::P, AddKind::I(th)) => {
            map3(rf, n, d, a, b, c, move |x, y, z| iadd32(x * y, z, th))
        }
        (MulKind::I, AddKind::P) => map3(rf, n, d, a, b, c, |x, y, z| imul32(x, y) + z),
        (MulKind::I, AddKind::I(IhwConfig::DEFAULT_TH)) => map3(rf, n, d, a, b, c, |x, y, z| {
            iadd32(imul32(x, y), z, IhwConfig::DEFAULT_TH)
        }),
        (MulKind::I, AddKind::I(th)) => map3(rf, n, d, a, b, c, move |x, y, z| {
            iadd32(imul32(x, y), z, th)
        }),
        // As in `exec_block`, the AC datapath is re-bound to a literal
        // `MulPath` per arm so the path match folds inside the closure.
        (
            MulKind::Ac(AcMulConfig {
                path: MulPath::Log,
                truncation,
            }),
            AddKind::P,
        ) => map3(rf, n, d, a, b, c, move |x, y, z| {
            AcMulConfig::new(MulPath::Log, truncation).mul32(x, y) + z
        }),
        (
            MulKind::Ac(AcMulConfig {
                path: MulPath::Full,
                truncation,
            }),
            AddKind::P,
        ) => map3(rf, n, d, a, b, c, move |x, y, z| {
            AcMulConfig::new(MulPath::Full, truncation).mul32(x, y) + z
        }),
        (
            MulKind::Ac(AcMulConfig {
                path: MulPath::Log,
                truncation,
            }),
            AddKind::I(th),
        ) => map3(rf, n, d, a, b, c, move |x, y, z| {
            iadd32(
                AcMulConfig::new(MulPath::Log, truncation).mul32(x, y),
                z,
                th,
            )
        }),
        (
            MulKind::Ac(AcMulConfig {
                path: MulPath::Full,
                truncation,
            }),
            AddKind::I(th),
        ) => map3(rf, n, d, a, b, c, move |x, y, z| {
            iadd32(
                AcMulConfig::new(MulPath::Full, truncation).mul32(x, y),
                z,
                th,
            )
        }),
        (MulKind::T(tm), AddKind::P) => map3(rf, n, d, a, b, c, move |x, y, z| tm.mul32(x, y) + z),
        (MulKind::T(tm), AddKind::I(th)) => map3(rf, n, d, a, b, c, move |x, y, z| {
            iadd32(tm.mul32(x, y), z, th)
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AddrMode, Instr, Program, Reg};

    fn lower_one(cfg: &IhwConfig, instr: Instr) -> CompiledOp {
        let prog = Program::new("one", 4, vec![instr]).expect("valid");
        lower(&prog, cfg)[0]
    }

    #[test]
    fn lowering_folds_config_branches() {
        let p = IhwConfig::precise();
        let i = IhwConfig::all_imprecise();
        let fadd = Instr::Fadd(Reg(0), Reg(1), Reg(2));
        assert_eq!(
            lower_one(&p, fadd),
            CompiledOp::Add {
                k: AddKind::P,
                d: 0,
                a: 1,
                b: 2
            }
        );
        assert_eq!(
            lower_one(&i, fadd),
            CompiledOp::Add {
                k: AddKind::I(IhwConfig::DEFAULT_TH),
                d: 0,
                a: 1,
                b: 2
            }
        );
        assert!(matches!(
            lower_one(&i, Instr::Rsqrt(Reg(0), Reg(1))),
            CompiledOp::RsqrtI { .. }
        ));
        assert!(matches!(
            lower_one(&p, Instr::Rsqrt(Reg(0), Reg(1))),
            CompiledOp::RsqrtP { .. }
        ));
        let ac = IhwConfig::ray_with_ac_mul(19);
        assert!(matches!(
            lower_one(&ac, Instr::Fmul(Reg(0), Reg(1), Reg(2))),
            CompiledOp::Mul {
                k: MulKind::Ac(_),
                ..
            }
        ));
    }

    #[test]
    fn addressing_modes_lower_to_lane_and_broadcast_ops() {
        let p = IhwConfig::precise();
        assert_eq!(
            lower_one(&p, Instr::Ld(Reg(0), 1, AddrMode::TidPlus(3))),
            CompiledOp::LdLane {
                d: 0,
                buf: 1,
                off: 3
            }
        );
        assert_eq!(
            lower_one(&p, Instr::Ld(Reg(0), 0, AddrMode::Abs(7))),
            CompiledOp::LdBcast { d: 0, buf: 0, e: 7 }
        );
        assert_eq!(
            lower_one(&p, Instr::St(2, AddrMode::Tid, Reg(3))),
            CompiledOp::StLane {
                buf: 2,
                off: 0,
                s: 3
            }
        );
        assert_eq!(
            lower_one(&p, Instr::St(0, AddrMode::Abs(4), Reg(1))),
            CompiledOp::StBcast { buf: 0, e: 4, s: 1 }
        );
    }

    #[test]
    fn aliased_destination_registers_are_safe() {
        // d == a == b: the scratch row keeps sources intact.
        let mut rf = RegFile::new(1);
        rf.rows[0][..4].copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        map2(&mut rf, 4, 0, 0, 0, |x, y| x + y);
        assert_eq!(&rf.rows[0][..4], &[2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn refitting_reuses_rows() {
        let addrs = |rf: &RegFile| -> Vec<usize> {
            let mut a: Vec<usize> = rf
                .rows
                .iter()
                .chain(&rf.spare)
                .map(|r| r.as_ptr() as usize)
                .collect();
            a.sort_unstable();
            a
        };
        let mut rf = RegFile::new(5);
        assert_eq!(rf.rows.len(), 6, "five registers plus the scratch row");
        let before = addrs(&rf);
        rf.fit(3);
        assert_eq!((rf.rows.len(), rf.spare.len()), (4, 2));
        map2(&mut rf, LANES, 0, 1, 2, |x, y| x + y);
        rf.fit(5);
        assert_eq!(rf.spare.len(), 0);
        assert_eq!(addrs(&rf), before, "no row was added or moved");
        rf.fit(7);
        assert_eq!(rf.rows.len(), 8);
    }

    #[test]
    fn rows_stay_cache_line_aligned() {
        let mut rf = RegFile::new(5);
        for d in 0..5 {
            map1(&mut rf, LANES, d, 4, |x| x + 1.0);
        }
        for row in &rf.rows {
            assert_eq!(row.as_ptr() as usize % 64, 0);
        }
    }

    #[test]
    fn block_matches_interpreter_on_saxpy_lanes() {
        let prog = crate::programs::saxpy(2.0);
        let cfg = IhwConfig::all_imprecise();
        let ops = lower(&prog, &cfg);
        let mut bufs = vec![
            (0..8).map(|i| 0.5 + i as f32 * 0.25).collect::<Vec<f32>>(),
            (0..8).map(|i| 4.0 - i as f32 * 0.125).collect::<Vec<f32>>(),
        ];
        let mut expect = bufs.clone();
        let mut interp = crate::isa::WarpInterpreter::new(cfg);
        interp
            .launch_sequential(&prog, 8, &mut expect)
            .expect("runs");
        let mut rf = RegFile::new(prog.regs());
        exec_block(&ops, &mut rf, &mut bufs, 0, 8);
        for (a, b) in bufs[1].iter().zip(&expect[1]) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
