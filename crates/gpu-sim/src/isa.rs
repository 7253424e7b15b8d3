//! A small PTX-like kernel IR and its SIMT interpreter.
//!
//! The throughput timing model ([`crate::simt`]) consumes instruction
//! *mixes*; this module closes the loop for code that is not hand
//! instrumented: kernels written in a register-based IR execute
//! functionally, per thread, with every floating point instruction routed
//! through the same imprecise-hardware dispatch ([`crate::dispatch::FpCtx`])
//! — the counters, the timing model and the power model then apply
//! unchanged. This mirrors how GPGPU-Sim interprets PTX with the paper's
//! IHW functional models linked in.
//!
//! The IR is deliberately small: straight-line SIMD code (a kernel body
//! that every thread executes once, loops unrolled at build time), f32
//! registers, global-memory loads/stores addressed by thread index.
//!
//! ```
//! use gpu_sim::isa::{Instr, Program, Reg, WarpInterpreter, AddrMode};
//! use ihw_core::config::IhwConfig;
//!
//! // SAXPY: y[i] = a·x[i] + y[i]
//! let prog = Program::new("saxpy", 3, vec![
//!     Instr::Movi(Reg(0), 2.0),                        // a
//!     Instr::Ld(Reg(1), 0, AddrMode::Tid),             // x[i]
//!     Instr::Ld(Reg(2), 1, AddrMode::Tid),             // y[i]
//!     Instr::Ffma(Reg(2), Reg(0), Reg(1), Reg(2)),
//!     Instr::St(1, AddrMode::Tid, Reg(2)),
//! ]).expect("valid program");
//!
//! let mut buffers = vec![vec![1.0f32, 2.0, 3.0], vec![10.0, 20.0, 30.0]];
//! let mut interp = WarpInterpreter::new(IhwConfig::precise());
//! interp.launch(&prog, 3, &mut buffers).expect("kernel runs");
//! assert_eq!(buffers[1], vec![12.0, 24.0, 36.0]);
//! ```

use crate::compile::RegFile;
use crate::dispatch::FpCtx;
use crate::plan::{CompiledKernel, PlanCache};
use ihw_core::config::IhwConfig;
use std::sync::Arc;

/// A register index (per-thread f32 register file).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(pub u8);

/// Global-memory addressing mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddrMode {
    /// Element `tid`.
    Tid,
    /// Element `tid + offset` (clamped accesses are an error, not a wrap).
    TidPlus(i64),
    /// A fixed element (broadcast).
    Abs(usize),
}

/// One IR instruction. `rd` is always the destination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// `rd ← imm`
    Movi(Reg, f32),
    /// `rd ← tid` (thread index as f32)
    Tid(Reg),
    /// `rd ← ra + rb`
    Fadd(Reg, Reg, Reg),
    /// `rd ← ra − rb`
    Fsub(Reg, Reg, Reg),
    /// `rd ← ra × rb`
    Fmul(Reg, Reg, Reg),
    /// `rd ← ra ÷ rb`
    Fdiv(Reg, Reg, Reg),
    /// `rd ← ra × rb + rc`
    Ffma(Reg, Reg, Reg, Reg),
    /// `rd ← 1/ra`
    Rcp(Reg, Reg),
    /// `rd ← 1/√ra`
    Rsqrt(Reg, Reg),
    /// `rd ← √ra`
    Sqrt(Reg, Reg),
    /// `rd ← log₂ ra`
    Log2(Reg, Reg),
    /// `rd ← max(ra, rb)` (ALU op)
    Fmax(Reg, Reg, Reg),
    /// `rd ← if rc > 0 { ra } else { rb }` — predicated select, the
    /// divergence-free conditional of real GPU ISAs.
    Sel(Reg, Reg, Reg, Reg),
    /// `rd ← buffer[addr]`
    Ld(Reg, usize, AddrMode),
    /// `buffer[addr] ← rs`
    St(usize, AddrMode, Reg),
}

impl Instr {
    /// The registers this instruction reads (source operands only;
    /// loads read memory, not registers).
    pub fn reads(&self) -> Vec<Reg> {
        match *self {
            Instr::Movi(..) | Instr::Tid(_) | Instr::Ld(..) => vec![],
            Instr::Fadd(_, a, b)
            | Instr::Fsub(_, a, b)
            | Instr::Fmul(_, a, b)
            | Instr::Fdiv(_, a, b)
            | Instr::Fmax(_, a, b) => vec![a, b],
            Instr::Ffma(_, a, b, c) | Instr::Sel(_, a, b, c) => vec![a, b, c],
            Instr::Rcp(_, a) | Instr::Rsqrt(_, a) | Instr::Sqrt(_, a) | Instr::Log2(_, a) => {
                vec![a]
            }
            Instr::St(_, _, s) => vec![s],
        }
    }

    /// The register this instruction writes, if any (stores write
    /// memory, not a register).
    pub fn dest(&self) -> Option<Reg> {
        match *self {
            Instr::Movi(d, _)
            | Instr::Tid(d)
            | Instr::Fadd(d, ..)
            | Instr::Fsub(d, ..)
            | Instr::Fmul(d, ..)
            | Instr::Fdiv(d, ..)
            | Instr::Fmax(d, ..)
            | Instr::Ffma(d, ..)
            | Instr::Sel(d, ..)
            | Instr::Rcp(d, _)
            | Instr::Rsqrt(d, _)
            | Instr::Sqrt(d, _)
            | Instr::Log2(d, _)
            | Instr::Ld(d, ..) => Some(d),
            Instr::St(..) => None,
        }
    }

    fn registers(&self) -> Vec<Reg> {
        match *self {
            Instr::Movi(d, _) | Instr::Tid(d) => vec![d],
            Instr::Fadd(d, a, b)
            | Instr::Fsub(d, a, b)
            | Instr::Fmul(d, a, b)
            | Instr::Fdiv(d, a, b)
            | Instr::Fmax(d, a, b) => vec![d, a, b],
            Instr::Ffma(d, a, b, c) | Instr::Sel(d, a, b, c) => vec![d, a, b, c],
            Instr::Rcp(d, a) | Instr::Rsqrt(d, a) | Instr::Sqrt(d, a) | Instr::Log2(d, a) => {
                vec![d, a]
            }
            Instr::Ld(d, _, _) => vec![d],
            Instr::St(_, _, s) => vec![s],
        }
    }
}

/// Errors raised while building or executing a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// An instruction names a register beyond the program's register count.
    InvalidRegister {
        /// Offending register index.
        reg: u8,
        /// Program register-file size.
        regs: u8,
    },
    /// A memory access named a buffer that was not passed to `launch`.
    UnknownBuffer {
        /// Buffer index.
        buffer: usize,
    },
    /// A memory access fell outside its buffer.
    OutOfBounds {
        /// Buffer index.
        buffer: usize,
        /// Attempted element index.
        index: i64,
        /// Buffer length.
        len: usize,
    },
    /// An absolute address names an element index beyond `i64::MAX`,
    /// which the engines' signed index arithmetic cannot represent.
    IndexOverflow {
        /// Buffer index.
        buffer: usize,
        /// The requested element index.
        index: usize,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::InvalidRegister { reg, regs } => {
                write!(f, "register r{reg} exceeds register file size {regs}")
            }
            ExecError::UnknownBuffer { buffer } => write!(f, "unknown buffer {buffer}"),
            ExecError::OutOfBounds { buffer, index, len } => {
                write!(
                    f,
                    "access to element {index} of buffer {buffer} (len {len})"
                )
            }
            ExecError::IndexOverflow { buffer, index } => write!(
                f,
                "element index {index} of buffer {buffer} exceeds the largest element index {}",
                i64::MAX
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// An analysis-suppression marker: one diagnostic rule allowed on one
/// instruction, with a mandatory justification. Attached by
/// [`Program::with_allow`] or by a trailing
/// `# ihw-racecheck: allow(RULE) reason=...` comment in assembly
/// source.
#[derive(Debug, Clone, PartialEq)]
pub struct AllowMarker {
    /// Instruction index the marker applies to.
    pub instr: usize,
    /// The allowed diagnostic rule code (e.g. `"A007"`).
    pub rule: String,
    /// Why the flagged pattern is intentional.
    pub reason: String,
}

/// Declares that a kernel is iterative: after each launch the host
/// copies buffer `from` (the kernel's output) over buffer `to` (its
/// input) before the next launch, so the launch's error-transfer map
/// composes with itself across iterations. Consumed by the workload
/// drivers (ping-pong step) and by `ihw-analyze`'s contraction pass,
/// which seeds buffer `to` with input-noise symbols and extracts the
/// per-launch contraction factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedbackBinding {
    /// Buffer index written by the kernel and fed back.
    pub from: usize,
    /// Buffer index read by the next iteration.
    pub to: usize,
}

/// A validated straight-line kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    name: String,
    regs: u8,
    instrs: Vec<Instr>,
    /// 1-based source line of each instruction (0 = unknown), parallel
    /// to `instrs`. Populated by the assembler so analyzer diagnostics
    /// can point at `kernel.s:line` instead of an instruction index.
    lines: Vec<u32>,
    /// Per-instruction diagnostic suppressions.
    allows: Vec<AllowMarker>,
    /// Iterative feedback declaration, when the kernel is a solver sweep.
    feedback: Option<FeedbackBinding>,
    /// [`Program::fingerprint`], folded once by [`Program::new`] so
    /// that no launch re-walks the program.
    fingerprint: u64,
}

impl Program {
    /// Builds and validates a program with a `regs`-entry register file.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::InvalidRegister`] if any instruction names a
    /// register outside the file, and [`ExecError::IndexOverflow`] if an
    /// absolute address exceeds `i64::MAX`.
    pub fn new(
        name: impl Into<String>,
        regs: u8,
        instrs: Vec<Instr>,
    ) -> Result<Program, ExecError> {
        for instr in &instrs {
            for r in instr.registers() {
                if r.0 >= regs {
                    return Err(ExecError::InvalidRegister { reg: r.0, regs });
                }
            }
            if let Instr::Ld(_, buffer, AddrMode::Abs(index))
            | Instr::St(buffer, AddrMode::Abs(index), _) = *instr
            {
                if i64::try_from(index).is_err() {
                    return Err(ExecError::IndexOverflow { buffer, index });
                }
            }
        }
        let lines = vec![0; instrs.len()];
        let fingerprint = structural_fingerprint(regs, &instrs);
        Ok(Program {
            name: name.into(),
            regs,
            instrs,
            lines,
            allows: Vec::new(),
            feedback: None,
            fingerprint,
        })
    }

    /// Kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction sequence.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Register-file size.
    pub fn regs(&self) -> u8 {
        self.regs
    }

    /// Structural FNV-1a fingerprint of the program: register-file size
    /// plus every instruction's discriminant and operands (f32
    /// immediates by bit pattern). The name, source lines, allow markers
    /// and feedback binding do not enter it. Two programs with the same
    /// fingerprint are the same kernel for planning purposes; the plan
    /// cache still compares the instruction streams before it serves a
    /// hit, so a collision costs a recompile, never a wrong plan.
    ///
    /// Computed once by [`Program::new`] (which [`Program::unroll`]
    /// rebuilds through), so reading it costs nothing per launch.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Attaches 1-based source line numbers (one per instruction, 0 for
    /// unknown). Extra entries are dropped; missing ones default to 0.
    pub fn with_source_lines(mut self, lines: Vec<u32>) -> Program {
        self.lines = lines;
        self.lines.resize(self.instrs.len(), 0);
        self
    }

    /// The 1-based source line of instruction `idx`, when the program
    /// was built by the assembler (or otherwise annotated).
    pub fn source_line(&self, idx: usize) -> Option<u32> {
        match self.lines.get(idx) {
            Some(&l) if l > 0 => Some(l),
            _ => None,
        }
    }

    /// Describes instruction `idx` as a diagnostic location: the source
    /// line when known, the instruction index otherwise.
    pub fn locate(&self, idx: usize) -> String {
        match self.source_line(idx) {
            Some(line) => format!("{}.s:{line}", self.name),
            None => format!("{}#{idx}", self.name),
        }
    }

    /// Marks diagnostic `rule` (e.g. `"A007"`) as intentionally allowed
    /// on instruction `instr`, with a justification. Racecheck-backed
    /// diagnostics consult these markers and suppress matching findings.
    pub fn with_allow(
        mut self,
        instr: usize,
        rule: impl Into<String>,
        reason: impl Into<String>,
    ) -> Program {
        self.allows.push(AllowMarker {
            instr,
            rule: rule.into(),
            reason: reason.into(),
        });
        self
    }

    /// The attached diagnostic suppressions.
    pub fn allows(&self) -> &[AllowMarker] {
        &self.allows
    }

    /// Declares the kernel iterative: buffer `from` feeds back as
    /// buffer `to` between launches (see [`FeedbackBinding`]).
    pub fn with_feedback(mut self, from: usize, to: usize) -> Program {
        self.feedback = Some(FeedbackBinding { from, to });
        self
    }

    /// The iterative feedback declaration, if any.
    pub fn feedback(&self) -> Option<FeedbackBinding> {
        self.feedback
    }

    /// Whether diagnostic `rule` is allowed on instruction `instr`.
    pub fn is_allowed(&self, instr: usize, rule: &str) -> bool {
        self.allows
            .iter()
            .any(|a| a.instr == instr && a.rule == rule)
    }

    /// Appends `body` repeated `times` times (loop unrolling helper).
    pub fn unroll(mut self, body: &[Instr], times: usize) -> Result<Program, ExecError> {
        for _ in 0..times {
            self.instrs.extend_from_slice(body);
        }
        let lines = std::mem::take(&mut self.lines);
        let allows = std::mem::take(&mut self.allows);
        let feedback = self.feedback.take();
        Program::new(self.name, self.regs, self.instrs).map(|p| {
            let mut p = p.with_source_lines(lines);
            p.allows = allows;
            p.feedback = feedback;
            p
        })
    }
}

/// An FNV-1a 64-bit fold over a byte stream. Folding a stream in
/// pieces gives the same value as folding it whole.
struct Fnv(u64);

impl Fnv {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn mode(&mut self, mode: AddrMode) {
        match mode {
            AddrMode::Tid => self.fold(&[0]),
            AddrMode::TidPlus(o) => {
                self.fold(&[1]);
                self.fold(&o.to_le_bytes());
            }
            AddrMode::Abs(e) => {
                self.fold(&[2]);
                self.fold(&(e as u64).to_le_bytes());
            }
        }
    }
}

/// The fold behind [`Program::fingerprint`]: `regs`, the instruction
/// count as a little-endian `u64`, then per instruction a discriminant
/// byte, its register operands, immediates by bit pattern, buffer ids
/// and element indices as little-endian `u64`s, and the addressing mode
/// (tag byte, then its offset or index).
fn structural_fingerprint(regs: u8, instrs: &[Instr]) -> u64 {
    let mut h = Fnv(Fnv::BASIS);
    h.fold(&[regs]);
    h.fold(&(instrs.len() as u64).to_le_bytes());
    for instr in instrs {
        match *instr {
            Instr::Movi(d, imm) => {
                h.fold(&[0, d.0]);
                h.fold(&imm.to_bits().to_le_bytes());
            }
            Instr::Tid(d) => h.fold(&[1, d.0]),
            Instr::Fadd(d, a, b) => h.fold(&[2, d.0, a.0, b.0]),
            Instr::Fsub(d, a, b) => h.fold(&[3, d.0, a.0, b.0]),
            Instr::Fmul(d, a, b) => h.fold(&[4, d.0, a.0, b.0]),
            Instr::Fdiv(d, a, b) => h.fold(&[5, d.0, a.0, b.0]),
            Instr::Ffma(d, a, b, c) => h.fold(&[6, d.0, a.0, b.0, c.0]),
            Instr::Rcp(d, a) => h.fold(&[7, d.0, a.0]),
            Instr::Rsqrt(d, a) => h.fold(&[8, d.0, a.0]),
            Instr::Sqrt(d, a) => h.fold(&[9, d.0, a.0]),
            Instr::Log2(d, a) => h.fold(&[10, d.0, a.0]),
            Instr::Fmax(d, a, b) => h.fold(&[11, d.0, a.0, b.0]),
            Instr::Sel(d, c, a, b) => h.fold(&[12, d.0, c.0, a.0, b.0]),
            Instr::Ld(d, buf, mode) => {
                h.fold(&[13, d.0]);
                h.fold(&(buf as u64).to_le_bytes());
                h.mode(mode);
            }
            Instr::St(buf, mode, s) => {
                h.fold(&[14]);
                h.fold(&(buf as u64).to_le_bytes());
                h.mode(mode);
                h.fold(&[s.0]);
            }
        }
    }
    h.0
}

/// Resolves an addressing mode to a concrete element index for `tid`
/// and bounds-checks it against the buffer set.
fn locate_element(
    buffers: &[Vec<f32>],
    buf: usize,
    mode: AddrMode,
    tid: u32,
) -> Result<usize, ExecError> {
    let idx: i64 = match mode {
        AddrMode::Tid => tid as i64,
        AddrMode::TidPlus(off) => tid as i64 + off,
        // `Program::new` bounds absolute indices by `i64::MAX`.
        AddrMode::Abs(i) => i as i64,
    };
    let buffer = buffers
        .get(buf)
        .ok_or(ExecError::UnknownBuffer { buffer: buf })?;
    let len = buffer.len();
    if idx < 0 || idx as usize >= len {
        return Err(ExecError::OutOfBounds {
            buffer: buf,
            index: idx,
            len,
        });
    }
    Ok(idx as usize)
}

/// Executes one instruction for one thread; loads and stores hit the
/// launch buffers in place.
fn exec_step(
    ctx: &mut FpCtx,
    instr: Instr,
    tid: u32,
    regs: &mut [f32],
    buffers: &mut [Vec<f32>],
) -> Result<(), ExecError> {
    match instr {
        Instr::Movi(d, imm) => regs[d.0 as usize] = imm,
        Instr::Tid(d) => {
            ctx.int_op(1);
            regs[d.0 as usize] = tid as f32;
        }
        Instr::Fadd(d, a, b) => {
            regs[d.0 as usize] = ctx.add32(regs[a.0 as usize], regs[b.0 as usize])
        }
        Instr::Fsub(d, a, b) => {
            regs[d.0 as usize] = ctx.sub32(regs[a.0 as usize], regs[b.0 as usize])
        }
        Instr::Fmul(d, a, b) => {
            regs[d.0 as usize] = ctx.mul32(regs[a.0 as usize], regs[b.0 as usize])
        }
        Instr::Fdiv(d, a, b) => {
            regs[d.0 as usize] = ctx.div32(regs[a.0 as usize], regs[b.0 as usize])
        }
        Instr::Ffma(d, a, b, c) => {
            regs[d.0 as usize] =
                ctx.fma32(regs[a.0 as usize], regs[b.0 as usize], regs[c.0 as usize])
        }
        Instr::Rcp(d, a) => regs[d.0 as usize] = ctx.rcp32(regs[a.0 as usize]),
        Instr::Rsqrt(d, a) => regs[d.0 as usize] = ctx.rsqrt32(regs[a.0 as usize]),
        Instr::Sqrt(d, a) => regs[d.0 as usize] = ctx.sqrt32(regs[a.0 as usize]),
        Instr::Log2(d, a) => regs[d.0 as usize] = ctx.log2_32(regs[a.0 as usize]),
        Instr::Fmax(d, a, b) => {
            ctx.int_op(1);
            regs[d.0 as usize] = regs[a.0 as usize].max(regs[b.0 as usize]);
        }
        Instr::Sel(d, c, a, b) => {
            ctx.int_op(1);
            regs[d.0 as usize] = if regs[c.0 as usize] > 0.0 {
                regs[a.0 as usize]
            } else {
                regs[b.0 as usize]
            };
        }
        Instr::Ld(d, buf, mode) => {
            ctx.mem_op(1);
            ctx.int_op(1);
            let idx = locate_element(buffers, buf, mode, tid)?;
            regs[d.0 as usize] = buffers[buf][idx];
        }
        Instr::St(buf, mode, s) => {
            ctx.mem_op(1);
            ctx.int_op(1);
            let idx = locate_element(buffers, buf, mode, tid)?;
            buffers[buf][idx] = regs[s.0 as usize];
        }
    }
    Ok(())
}

/// Which execution engine [`WarpInterpreter::launch`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecEngine {
    /// Per-thread re-interpretation through `exec_step`
    /// ([`WarpInterpreter::launch_sequential`]) — the reference
    /// semantics the compiled engine is differentially tested against.
    Interpreted,
    /// Config-compiled plans from [`crate::plan`]: the `(Program,
    /// IhwConfig)` pair is lowered once, then lanes run as tight loops
    /// over contiguous slices. Bit-identical to the interpreter in
    /// buffers and counters; the default.
    #[default]
    Compiled,
}

/// Executes programs thread-by-thread through the IHW dispatch.
///
/// A launch is one sequential call on the selected engine: the
/// compiled engine (the default) runs the cached plan of the
/// `(program, config)` pair, the interpreted engine runs
/// [`WarpInterpreter::launch_sequential`]. Both produce bit-identical
/// buffers and op counters.
#[derive(Debug)]
pub struct WarpInterpreter {
    ctx: FpCtx,
    engine: ExecEngine,
    plans: PlanCache,
    /// The compiled engine's register file, kept from launch to launch
    /// so that a warm launch allocates nothing and runs on the same
    /// rows every time.
    rf: RegFile,
}

impl WarpInterpreter {
    /// Creates an interpreter over the given datapath configuration
    /// (compiled engine).
    pub fn new(cfg: IhwConfig) -> Self {
        WarpInterpreter {
            ctx: FpCtx::new(cfg),
            engine: ExecEngine::default(),
            plans: PlanCache::default(),
            rf: RegFile::default(),
        }
    }

    /// Sets the execution engine and returns `self` (builder style).
    pub fn with_engine(mut self, engine: ExecEngine) -> Self {
        self.set_engine(engine);
        self
    }

    /// Selects which engine [`WarpInterpreter::launch`] drives. Both
    /// engines are bit-identical in buffers and counters; the choice
    /// only moves throughput.
    pub fn set_engine(&mut self, engine: ExecEngine) {
        self.engine = engine;
    }

    /// The engine serving [`WarpInterpreter::launch`].
    pub fn engine(&self) -> ExecEngine {
        self.engine
    }

    /// Snapshot of the plan cache's cumulative hit/miss/eviction
    /// counters and occupancy.
    pub fn plan_cache_stats(&self) -> crate::plan::PlanCacheStats {
        self.plans.stats()
    }

    /// Rebounds the plan cache to `capacity` plans (min 1), evicting
    /// least-recently-used entries immediately if it now overflows.
    pub fn set_plan_cache_capacity(&mut self, capacity: usize) {
        self.plans.set_capacity(capacity);
    }

    /// Switches the interpreter to a new datapath configuration,
    /// resetting the performance counters (they are meaningless across
    /// a config change) while preserving the plan cache — plans are
    /// keyed on `(program, config)`, so previously compiled configs stay
    /// warm for when a later launch switches back.
    pub fn set_config(&mut self, cfg: IhwConfig) {
        self.ctx = FpCtx::new(cfg);
    }

    /// The datapath configuration launches currently execute under.
    pub fn config(&self) -> &IhwConfig {
        self.ctx.config()
    }

    /// The accumulated counters (shared across launches until reset).
    pub fn ctx(&self) -> &FpCtx {
        &self.ctx
    }

    /// Resets the performance counters.
    pub fn reset_counters(&mut self) {
        self.ctx.reset_counters();
    }

    /// Runs `threads` threads of `prog` over the given global buffers
    /// on the selected engine.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] for unknown buffers or out-of-bounds
    /// accesses; the buffers may be partially written in that case
    /// (identically so on either engine).
    pub fn launch(
        &mut self,
        prog: &Program,
        threads: u32,
        buffers: &mut [Vec<f32>],
    ) -> Result<(), ExecError> {
        match self.engine {
            ExecEngine::Interpreted => self.launch_sequential(prog, threads, buffers),
            ExecEngine::Compiled => self.launch_compiled(prog, threads, buffers),
        }
    }

    /// [`WarpInterpreter::launch`] on the compiled engine: the plan
    /// cache serves (or lowers) the `(program, config)` plan,
    /// [`CompiledKernel::run`] executes it on the interpreter's register
    /// file, and the counters are credited from the plan's static cost
    /// table.
    fn launch_compiled(
        &mut self,
        prog: &Program,
        threads: u32,
        buffers: &mut [Vec<f32>],
    ) -> Result<(), ExecError> {
        let plan = self.plans.get_or_compile(prog, self.ctx.config());
        let fault = plan.run(&mut self.rf, buffers, threads);
        plan.absorb_into(&mut self.ctx, threads, fault.as_ref());
        fault.map_or(Ok(()), |f| Err(f.err))
    }

    /// The plan cache's `(prog, cfg)` plan, compiled on a miss; the
    /// lookup [`crate::concurrent::SharedInterpreter`] holds its lock
    /// for.
    pub(crate) fn plan(&mut self, prog: &Program, cfg: &IhwConfig) -> Arc<CompiledKernel> {
        self.plans.get_or_compile(prog, cfg)
    }

    /// Runs the launch on the interpreter's sequential tid loop (the
    /// reference semantics; differential tests compare against this).
    ///
    /// # Errors
    ///
    /// As for [`WarpInterpreter::launch`].
    pub fn launch_sequential(
        &mut self,
        prog: &Program,
        threads: u32,
        buffers: &mut [Vec<f32>],
    ) -> Result<(), ExecError> {
        let mut regs = vec![0.0f32; prog.regs as usize];
        for tid in 0..threads {
            regs.iter_mut().for_each(|r| *r = 0.0);
            for instr in &prog.instrs {
                exec_step(&mut self.ctx, *instr, tid, &mut regs, buffers)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ihw_core::config::FpOp;

    fn saxpy() -> Program {
        Program::new(
            "saxpy",
            3,
            vec![
                Instr::Movi(Reg(0), 2.0),
                Instr::Ld(Reg(1), 0, AddrMode::Tid),
                Instr::Ld(Reg(2), 1, AddrMode::Tid),
                Instr::Ffma(Reg(2), Reg(0), Reg(1), Reg(2)),
                Instr::St(1, AddrMode::Tid, Reg(2)),
            ],
        )
        .expect("valid")
    }

    #[test]
    fn saxpy_functional() {
        let mut bufs = vec![vec![1.0f32, 2.0, 3.0, 4.0], vec![10.0, 20.0, 30.0, 40.0]];
        let mut interp = WarpInterpreter::new(IhwConfig::precise());
        interp.launch(&saxpy(), 4, &mut bufs).expect("runs");
        assert_eq!(bufs[1], vec![12.0, 24.0, 36.0, 48.0]);
    }

    #[test]
    fn counters_match_static_program() {
        let mut bufs = vec![vec![0.0f32; 8], vec![0.0f32; 8]];
        let mut interp = WarpInterpreter::new(IhwConfig::precise());
        interp.launch(&saxpy(), 8, &mut bufs).expect("runs");
        assert_eq!(interp.ctx().counts().get(FpOp::Fma), 8);
        assert_eq!(interp.ctx().mem_ops(), 3 * 8);
        assert_eq!(interp.ctx().mix().fp.total(), 8);
    }

    #[test]
    fn absolute_indices_beyond_i64_are_rejected_with_their_value() {
        for (instr, buffer, index) in [
            (
                Instr::Ld(Reg(0), 2, AddrMode::Abs(usize::MAX)),
                2,
                usize::MAX,
            ),
            (Instr::St(1, AddrMode::Abs(1 << 63), Reg(0)), 1, 1 << 63),
        ] {
            let err = Program::new("huge", 1, vec![Instr::Movi(Reg(0), 1.0), instr]).unwrap_err();
            assert_eq!(err, ExecError::IndexOverflow { buffer, index });
            assert!(err.to_string().contains(&index.to_string()), "{err}");
            // Unrolling revalidates.
            let base = Program::new("huge", 1, vec![Instr::Movi(Reg(0), 1.0)]).expect("valid");
            assert!(base.unroll(&[instr], 1).is_err());
        }
        // The largest representable index reaches both engines and is
        // reported as itself, not wrapped.
        let prog = Program::new(
            "max",
            1,
            vec![
                Instr::Ld(Reg(0), 0, AddrMode::Abs(i64::MAX as usize)),
                Instr::St(0, AddrMode::Tid, Reg(0)),
            ],
        )
        .expect("valid");
        for engine in [ExecEngine::Interpreted, ExecEngine::Compiled] {
            let mut bufs = vec![vec![0.0f32; 4]];
            let err = WarpInterpreter::new(IhwConfig::precise())
                .with_engine(engine)
                .launch(&prog, 4, &mut bufs)
                .unwrap_err();
            assert_eq!(
                err,
                ExecError::OutOfBounds {
                    buffer: 0,
                    index: i64::MAX,
                    len: 4
                },
                "{engine:?}"
            );
        }
    }

    #[test]
    fn imprecise_config_changes_results() {
        // y = x·x with x = 1.5: Table 1 multiplier gives 2.0, not 2.25.
        let prog = Program::new(
            "square",
            2,
            vec![
                Instr::Ld(Reg(0), 0, AddrMode::Tid),
                Instr::Fmul(Reg(1), Reg(0), Reg(0)),
                Instr::St(0, AddrMode::Tid, Reg(1)),
            ],
        )
        .expect("valid");
        let mut bufs = vec![vec![1.5f32]];
        let mut interp = WarpInterpreter::new(IhwConfig::all_imprecise());
        interp.launch(&prog, 1, &mut bufs).expect("runs");
        assert_eq!(bufs[0][0], 2.0);
    }

    #[test]
    fn sfu_instructions() {
        let prog = Program::new(
            "norm",
            3,
            vec![
                Instr::Ld(Reg(0), 0, AddrMode::Tid),
                Instr::Rsqrt(Reg(1), Reg(0)),
                Instr::Sqrt(Reg(2), Reg(0)),
                Instr::Fmul(Reg(1), Reg(1), Reg(2)), // √x · 1/√x ≈ 1
                Instr::St(0, AddrMode::Tid, Reg(1)),
            ],
        )
        .expect("valid");
        let mut bufs = vec![vec![4.0f32, 9.0, 16.0]];
        let mut interp = WarpInterpreter::new(IhwConfig::precise());
        interp.launch(&prog, 3, &mut bufs).expect("runs");
        for &v in &bufs[0] {
            assert!((v - 1.0).abs() < 1e-6);
        }
        assert_eq!(interp.ctx().counts().get(FpOp::Rsqrt), 3);
        assert_eq!(interp.ctx().counts().get(FpOp::Sqrt), 3);
    }

    #[test]
    fn select_is_divergence_free_conditional() {
        // out[i] = |x[i]| via sel(x > 0, x, -x).
        let prog = Program::new(
            "abs",
            4,
            vec![
                Instr::Ld(Reg(0), 0, AddrMode::Tid),
                Instr::Movi(Reg(1), -1.0),
                Instr::Fmul(Reg(1), Reg(0), Reg(1)), // -x
                Instr::Sel(Reg(2), Reg(0), Reg(0), Reg(1)),
                Instr::St(1, AddrMode::Tid, Reg(2)),
            ],
        )
        .expect("valid");
        let mut bufs = vec![vec![-3.0f32, 4.0, -0.5], vec![0.0f32; 3]];
        let mut interp = WarpInterpreter::new(IhwConfig::precise());
        interp.launch(&prog, 3, &mut bufs).expect("runs");
        assert_eq!(bufs[1], vec![3.0, 4.0, 0.5]);
    }

    #[test]
    fn broadcast_and_offset_addressing() {
        let prog = Program::new(
            "shift",
            2,
            vec![
                Instr::Ld(Reg(0), 0, AddrMode::TidPlus(1)),
                Instr::Ld(Reg(1), 0, AddrMode::Abs(0)),
                Instr::Fadd(Reg(0), Reg(0), Reg(1)),
                Instr::St(1, AddrMode::Tid, Reg(0)),
            ],
        )
        .expect("valid");
        let mut bufs = vec![vec![100.0f32, 1.0, 2.0, 3.0], vec![0.0f32; 3]];
        let mut interp = WarpInterpreter::new(IhwConfig::precise());
        interp.launch(&prog, 3, &mut bufs).expect("runs");
        assert_eq!(bufs[1], vec![101.0, 102.0, 103.0]);
    }

    #[test]
    fn register_validation_at_build_time() {
        let err = Program::new("bad", 2, vec![Instr::Movi(Reg(5), 0.0)]).unwrap_err();
        assert_eq!(err, ExecError::InvalidRegister { reg: 5, regs: 2 });
        assert!(err.to_string().contains("register r5"));
    }

    #[test]
    fn out_of_bounds_detected() {
        let prog = Program::new("oob", 1, vec![Instr::Ld(Reg(0), 0, AddrMode::TidPlus(10))])
            .expect("valid");
        let mut bufs = vec![vec![0.0f32; 4]];
        let mut interp = WarpInterpreter::new(IhwConfig::precise());
        let err = interp.launch(&prog, 4, &mut bufs).unwrap_err();
        assert!(matches!(err, ExecError::OutOfBounds { buffer: 0, .. }));
    }

    #[test]
    fn unknown_buffer_detected() {
        let prog =
            Program::new("nobuf", 1, vec![Instr::St(3, AddrMode::Tid, Reg(0))]).expect("valid");
        let mut bufs = vec![vec![0.0f32; 4]];
        let mut interp = WarpInterpreter::new(IhwConfig::precise());
        assert_eq!(
            interp.launch(&prog, 1, &mut bufs).unwrap_err(),
            ExecError::UnknownBuffer { buffer: 3 }
        );
    }

    #[test]
    fn unroll_builds_longer_kernels() {
        let base = Program::new("acc", 2, vec![Instr::Movi(Reg(0), 0.0)]).expect("valid");
        let body = [
            Instr::Movi(Reg(1), 1.0),
            Instr::Fadd(Reg(0), Reg(0), Reg(1)),
        ];
        let prog = base.unroll(&body, 10).expect("valid");
        assert_eq!(prog.instrs().len(), 1 + 20);
        let with_st = Program::new(
            "acc",
            2,
            prog.instrs()
                .iter()
                .copied()
                .chain([Instr::St(0, AddrMode::Tid, Reg(0))])
                .collect(),
        )
        .expect("valid");
        let mut bufs = vec![vec![0.0f32; 2]];
        let mut interp = WarpInterpreter::new(IhwConfig::precise());
        interp.launch(&with_st, 2, &mut bufs).expect("runs");
        assert_eq!(bufs[0], vec![10.0, 10.0]);
    }

    #[test]
    fn source_lines_default_unknown_and_survive_unroll() {
        let prog = saxpy();
        assert_eq!(prog.source_line(0), None);
        assert_eq!(prog.locate(0), "saxpy#0");
        let annotated = saxpy().with_source_lines(vec![3, 4, 5, 6, 7]);
        assert_eq!(annotated.source_line(4), Some(7));
        assert_eq!(annotated.locate(4), "saxpy.s:7");
        // Unrolled instructions have no source line; originals keep theirs.
        let body = [Instr::Fadd(Reg(2), Reg(2), Reg(1))];
        let unrolled = annotated.unroll(&body, 2).expect("valid");
        assert_eq!(unrolled.source_line(0), Some(3));
        assert_eq!(unrolled.source_line(5), None);
        assert_eq!(unrolled.instrs().len(), 7);
    }

    #[test]
    fn carried_kernel_runs_in_tid_order_on_both_engines() {
        // Every thread reads element 0, which thread 0 rewrites: the
        // kernel is order-dependent, so the compiled engine runs it one
        // lane at a time, in tid order, like the interpreter. Lane
        // blocks would give every thread the launch-entry 7.
        let prog = Program::new(
            "chain_fwd",
            2,
            vec![
                Instr::Ld(Reg(0), 0, AddrMode::Abs(0)),
                Instr::Movi(Reg(1), 1.0),
                Instr::Fadd(Reg(0), Reg(0), Reg(1)),
                Instr::St(0, AddrMode::Tid, Reg(0)),
            ],
        )
        .expect("valid");
        for engine in [ExecEngine::Interpreted, ExecEngine::Compiled] {
            let mut bufs = vec![vec![7.0f32, 0.0, 0.0, 0.0]];
            WarpInterpreter::new(IhwConfig::precise())
                .with_engine(engine)
                .launch(&prog, 4, &mut bufs)
                .expect("runs");
            assert_eq!(bufs[0], vec![8.0, 9.0, 9.0, 9.0], "{engine:?}");
        }
    }

    #[test]
    fn allow_markers_attach_and_survive_unroll() {
        let prog = saxpy()
            .with_allow(0, "A007", "immediate kept for readability")
            .unroll(&[Instr::Fadd(Reg(2), Reg(2), Reg(1))], 1)
            .expect("valid");
        assert!(prog.is_allowed(0, "A007"));
        assert!(!prog.is_allowed(0, "A004"));
        assert!(!prog.is_allowed(1, "A007"));
        assert_eq!(prog.allows().len(), 1);
        assert_eq!(prog.allows()[0].reason, "immediate kept for readability");
    }

    #[test]
    fn tid_instruction() {
        let prog = Program::new(
            "iota",
            1,
            vec![Instr::Tid(Reg(0)), Instr::St(0, AddrMode::Tid, Reg(0))],
        )
        .expect("valid");
        let mut bufs = vec![vec![0.0f32; 4]];
        let mut interp = WarpInterpreter::new(IhwConfig::precise());
        interp.launch(&prog, 4, &mut bufs).expect("runs");
        assert_eq!(bufs[0], vec![0.0, 1.0, 2.0, 3.0]);
    }
}
