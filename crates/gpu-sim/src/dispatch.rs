//! Functional-simulation context: the counting dispatcher every workload
//! routes its arithmetic through.
//!
//! This is the software analogue of GPGPU-Sim's functional execution with
//! the IHW functional models linked in (§5.1): each call executes the
//! operation on the precise or imprecise unit selected by the
//! [`IhwConfig`] knob **and** increments the per-opcode performance
//! counter that the Figure 12 power estimator and the GPUWattch-style
//! model later consume.
//!
//! The double-precision workloads (MD, ART, Sphinx) also run whole
//! slices through one call: [`FpCtx::add64_lanes`], `sub64_lanes`,
//! `mul64_lanes`, `fma64_lanes`, `rcp64_lanes` and the ordered fold
//! [`FpCtx::fma64_fold`]. A slice op counts its `n` ops once and picks
//! the unit once, so its loop is instantiated per unit, as the `map*`
//! loops of `crate::compile` are. Each lane calls the same unit function
//! as the scalar op, so a slice op's values and `OpCounts` equal those
//! of a loop over the scalar op.

use ihw_core::ac_multiplier::{AcMulConfig, MulPath};
use ihw_core::adder::{iadd64, isub64};
use ihw_core::config::{AddUnit, FpOp, IhwConfig, MulUnit, UnitMode};
use ihw_core::multiplier::imul64;
use ihw_core::sfu::ircp64;
use ihw_power::system::OpCounts;

/// Lane count of the stack buffers around the slice ops: the fold's
/// block of products, and the operand buffers the double-precision
/// workloads fill. The slice ops themselves take any length.
pub const LANE_BLOCK: usize = 64;

/// Evaluates `$body` with `$mul` bound to the configured double-precision
/// multiplier as a plain closure, one match arm per unit. Each arm
/// instantiates `$body`'s lane loop for one unit function, with the AC
/// datapath re-bound to a literal `MulPath` so its path match folds (as
/// in `crate::compile::exec_block`).
macro_rules! with_mul64 {
    ($unit:expr, |$mul:ident| $body:expr) => {
        match $unit {
            MulUnit::Precise => {
                let $mul = |x: f64, y: f64| x * y;
                $body
            }
            MulUnit::Imprecise => {
                let $mul = imul64;
                $body
            }
            MulUnit::AcMul(AcMulConfig {
                path: MulPath::Log,
                truncation,
            }) => {
                let $mul = move |x, y| AcMulConfig::new(MulPath::Log, truncation).mul64(x, y);
                $body
            }
            MulUnit::AcMul(AcMulConfig {
                path: MulPath::Full,
                truncation,
            }) => {
                let $mul = move |x, y| AcMulConfig::new(MulPath::Full, truncation).mul64(x, y);
                $body
            }
            MulUnit::Truncated(tm) => {
                let $mul = move |x, y| tm.mul64(x, y);
                $body
            }
        }
    };
}

/// Evaluates `$body` with `$add` bound to the configured double-precision
/// adder as a plain closure, one match arm per unit.
macro_rules! with_add64 {
    ($unit:expr, |$add:ident| $body:expr) => {
        match $unit {
            AddUnit::Precise => {
                let $add = |x: f64, y: f64| x + y;
                $body
            }
            AddUnit::Imprecise { th } => {
                let $add = move |x, y| iadd64(x, y, th);
                $body
            }
        }
    };
}

/// Counting arithmetic dispatcher ("the knob" plus performance counters).
///
/// ```
/// use gpu_sim::dispatch::FpCtx;
/// use ihw_core::config::{FpOp, IhwConfig};
///
/// let mut ctx = FpCtx::new(IhwConfig::all_imprecise());
/// let y = ctx.mul32(1.5, 1.5);
/// assert_eq!(y, 2.0);
/// assert_eq!(ctx.counts().get(FpOp::Mul), 1);
/// ```
#[derive(Debug, Clone)]
pub struct FpCtx {
    cfg: IhwConfig,
    counts: OpCounts,
    int_ops: u64,
    mem_ops: u64,
    /// Ops forced through the precise multiplier regardless of `cfg`
    /// (the CP benchmark keeps ≈20% of its multiplications precise).
    precise_mul_ops: u64,
}

impl FpCtx {
    /// Creates a context with the given datapath configuration.
    pub fn new(cfg: IhwConfig) -> Self {
        FpCtx {
            cfg,
            counts: OpCounts::new(),
            int_ops: 0,
            mem_ops: 0,
            precise_mul_ops: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &IhwConfig {
        &self.cfg
    }

    /// Accumulated floating point performance counters.
    pub fn counts(&self) -> &OpCounts {
        &self.counts
    }

    /// Accumulated integer-ALU operation count.
    pub fn int_ops(&self) -> u64 {
        self.int_ops
    }

    /// Accumulated memory (load/store) operation count.
    pub fn mem_ops(&self) -> u64 {
        self.mem_ops
    }

    /// Count of multiplications that bypassed the imprecise unit.
    pub fn precise_mul_ops(&self) -> u64 {
        self.precise_mul_ops
    }

    /// Resets every counter, keeping the configuration.
    pub fn reset_counters(&mut self) {
        self.counts = OpCounts::new();
        self.int_ops = 0;
        self.mem_ops = 0;
        self.precise_mul_ops = 0;
    }

    /// Credits a precomputed batch of counters in one shot — the
    /// compiled engine's replacement for per-instruction recording. A
    /// straight-line kernel costs the same for every thread, so the
    /// launch driver multiplies the plan's per-thread table up front
    /// and lands it here as a merge instead of `threads × instrs`
    /// individual counter updates. Workloads that run their kernel on
    /// a [`crate::isa::WarpInterpreter`] land its FP counts here too,
    /// together with their own declared integer and memory ops.
    pub fn record_static(&mut self, counts: &OpCounts, int_ops: u64, mem_ops: u64) {
        self.counts.merge(counts);
        self.int_ops += int_ops;
        self.mem_ops += mem_ops;
    }

    /// Records `n` integer ALU operations (address math, loop control).
    #[inline]
    pub fn int_op(&mut self, n: u64) {
        self.int_ops += n;
    }

    /// Records `n` memory accesses.
    #[inline]
    pub fn mem_op(&mut self, n: u64) {
        self.mem_ops += n;
    }

    // ---- single precision ----

    /// Counted addition.
    #[inline]
    pub fn add32(&mut self, a: f32, b: f32) -> f32 {
        self.counts.record(FpOp::Add, 1);
        self.cfg.add32(a, b)
    }

    /// Counted subtraction.
    #[inline]
    pub fn sub32(&mut self, a: f32, b: f32) -> f32 {
        self.counts.record(FpOp::Add, 1);
        self.cfg.sub32(a, b)
    }

    /// Counted multiplication.
    #[inline]
    pub fn mul32(&mut self, a: f32, b: f32) -> f32 {
        self.counts.record(FpOp::Mul, 1);
        self.cfg.mul32(a, b)
    }

    /// Counted multiplication that always uses the precise unit — the
    /// paper's CP benchmark keeps coordinate computations precise.
    #[inline]
    pub fn mul32_precise(&mut self, a: f32, b: f32) -> f32 {
        self.counts.record(FpOp::Mul, 1);
        self.precise_mul_ops += 1;
        a * b
    }

    /// Counted division.
    #[inline]
    pub fn div32(&mut self, a: f32, b: f32) -> f32 {
        self.counts.record(FpOp::Div, 1);
        self.cfg.div32(a, b)
    }

    /// Counted reciprocal.
    #[inline]
    pub fn rcp32(&mut self, x: f32) -> f32 {
        self.counts.record(FpOp::Rcp, 1);
        self.cfg.rcp32(x)
    }

    /// Counted inverse square root.
    #[inline]
    pub fn rsqrt32(&mut self, x: f32) -> f32 {
        self.counts.record(FpOp::Rsqrt, 1);
        self.cfg.rsqrt32(x)
    }

    /// Counted square root.
    #[inline]
    pub fn sqrt32(&mut self, x: f32) -> f32 {
        self.counts.record(FpOp::Sqrt, 1);
        self.cfg.sqrt32(x)
    }

    /// Counted log₂.
    #[inline]
    pub fn log2_32(&mut self, x: f32) -> f32 {
        self.counts.record(FpOp::Log2, 1);
        self.cfg.log2_32(x)
    }

    /// Counted base-2 exponential.
    #[inline]
    pub fn exp2_32(&mut self, x: f32) -> f32 {
        self.counts.record(FpOp::Exp2, 1);
        self.cfg.exp2_32(x)
    }

    /// Counted fused multiply–add.
    #[inline]
    pub fn fma32(&mut self, a: f32, b: f32, c: f32) -> f32 {
        self.counts.record(FpOp::Fma, 1);
        self.cfg.fma32(a, b, c)
    }

    /// Counted 3-component dot product (3 muls + 2 adds on the configured
    /// units — the RayTracing kernel's workhorse).
    #[inline]
    pub fn dot3_32(&mut self, a: [f32; 3], b: [f32; 3]) -> f32 {
        let xx = self.mul32(a[0], b[0]);
        let yy = self.mul32(a[1], b[1]);
        let zz = self.mul32(a[2], b[2]);
        let s = self.add32(xx, yy);
        self.add32(s, zz)
    }

    // ---- double precision ----

    /// Counted addition (double).
    #[inline]
    pub fn add64(&mut self, a: f64, b: f64) -> f64 {
        self.counts.record(FpOp::Add, 1);
        self.cfg.add64(a, b)
    }

    /// Counted subtraction (double).
    #[inline]
    pub fn sub64(&mut self, a: f64, b: f64) -> f64 {
        self.counts.record(FpOp::Add, 1);
        self.cfg.sub64(a, b)
    }

    /// Counted multiplication (double).
    #[inline]
    pub fn mul64(&mut self, a: f64, b: f64) -> f64 {
        self.counts.record(FpOp::Mul, 1);
        self.cfg.mul64(a, b)
    }

    /// Counted division (double).
    #[inline]
    pub fn div64(&mut self, a: f64, b: f64) -> f64 {
        self.counts.record(FpOp::Div, 1);
        self.cfg.div64(a, b)
    }

    /// Counted square root (double).
    #[inline]
    pub fn sqrt64(&mut self, x: f64) -> f64 {
        self.counts.record(FpOp::Sqrt, 1);
        self.cfg.sqrt64(x)
    }

    /// Counted reciprocal (double).
    #[inline]
    pub fn rcp64(&mut self, x: f64) -> f64 {
        self.counts.record(FpOp::Rcp, 1);
        self.cfg.rcp64(x)
    }

    /// Counted inverse square root (double).
    #[inline]
    pub fn rsqrt64(&mut self, x: f64) -> f64 {
        self.counts.record(FpOp::Rsqrt, 1);
        self.cfg.rsqrt64(x)
    }

    /// Counted log₂ (double).
    #[inline]
    pub fn log2_64(&mut self, x: f64) -> f64 {
        self.counts.record(FpOp::Log2, 1);
        self.cfg.log2_64(x)
    }

    /// Counted fused multiply–add (double).
    #[inline]
    pub fn fma64(&mut self, a: f64, b: f64, c: f64) -> f64 {
        self.counts.record(FpOp::Fma, 1);
        self.cfg.fma64(a, b, c)
    }

    // ---- double precision lanes ----
    //
    // Each op equals a loop of its scalar op over the lanes, in value
    // and count. The operand slices and `out` must have one
    // length; a mismatch panics with a message naming the op. A
    // constant or broadcast operand is a filled buffer.

    /// `out[k] = add64(a[k], b[k])` for every lane.
    pub fn add64_lanes(&mut self, a: &[f64], b: &[f64], out: &mut [f64]) {
        lanes_len("add64_lanes", &[a, b], out);
        self.counts.record(FpOp::Add, out.len() as u64);
        match self.cfg.add {
            AddUnit::Precise => map2(a, b, out, |x, y| x + y),
            AddUnit::Imprecise { th } => map2(a, b, out, move |x, y| iadd64(x, y, th)),
        }
    }

    /// `out[k] = sub64(a[k], b[k])` for every lane.
    pub fn sub64_lanes(&mut self, a: &[f64], b: &[f64], out: &mut [f64]) {
        lanes_len("sub64_lanes", &[a, b], out);
        self.counts.record(FpOp::Add, out.len() as u64);
        match self.cfg.add {
            AddUnit::Precise => map2(a, b, out, |x, y| x - y),
            AddUnit::Imprecise { th } => map2(a, b, out, move |x, y| isub64(x, y, th)),
        }
    }

    /// `out[k] = mul64(a[k], b[k])` for every lane.
    pub fn mul64_lanes(&mut self, a: &[f64], b: &[f64], out: &mut [f64]) {
        lanes_len("mul64_lanes", &[a, b], out);
        self.counts.record(FpOp::Mul, out.len() as u64);
        with_mul64!(self.cfg.mul, |mul| map2(a, b, out, mul))
    }

    /// `out[k] = fma64(a[k], b[k], c[k])` for every lane.
    pub fn fma64_lanes(&mut self, a: &[f64], b: &[f64], c: &[f64], out: &mut [f64]) {
        lanes_len("fma64_lanes", &[a, b, c], out);
        self.counts.record(FpOp::Fma, out.len() as u64);
        // `add64(mul64(x, y), z)`, as `IhwConfig::fma64` composes it.
        with_mul64!(self.cfg.mul, |mul| with_add64!(self.cfg.add, |add| {
            map3(a, b, c, out, move |x, y, z| add(mul(x, y), z))
        }))
    }

    /// `out[k] = rcp64(a[k])` for every lane.
    pub fn rcp64_lanes(&mut self, a: &[f64], out: &mut [f64]) {
        lanes_len("rcp64_lanes", &[a], out);
        self.counts.record(FpOp::Rcp, out.len() as u64);
        match self.cfg.rcp {
            UnitMode::Precise => map1(a, out, |x| 1.0 / x),
            UnitMode::Imprecise => map1(a, out, ircp64),
        }
    }

    /// The ordered dot-product fold: `acc = fma64(a[k], b[k], acc)` for
    /// `k = 0, 1, …`, returning the final `acc`, bit-identical to that
    /// loop of the scalar op (the imprecise units round differently from
    /// the host, so the order is part of the result). `a` and `b` must
    /// have one length; a mismatch panics with a message.
    pub fn fma64_fold(&mut self, a: &[f64], b: &[f64], acc: f64) -> f64 {
        assert_eq!(
            a.len(),
            b.len(),
            "fma64_fold: operand slices differ in length"
        );
        self.counts.record(FpOp::Fma, a.len() as u64);
        with_mul64!(self.cfg.mul, |mul| with_add64!(self.cfg.add, |add| {
            fold2(a, b, acc, mul, add)
        }))
    }
}

/// Checks that every input slice of a lane op has `out`'s length.
fn lanes_len(op: &str, inputs: &[&[f64]], out: &[f64]) {
    for (i, input) in inputs.iter().enumerate() {
        assert_eq!(
            input.len(),
            out.len(),
            "{op}: operand {i} has {} lanes, out has {}",
            input.len(),
            out.len()
        );
    }
}

// As in `crate::compile`, the lane loops are `inline(never)`: each
// monomorphized instance is one small loop into which LLVM inlines the
// unit body, instead of a loop inside a large caller.

/// `out[k] = f(a[k])` for every lane.
#[inline(never)]
fn map1(a: &[f64], out: &mut [f64], f: impl Fn(f64) -> f64) {
    let a = &a[..out.len()];
    for k in 0..out.len() {
        out[k] = f(a[k]);
    }
}

/// `out[k] = f(a[k], b[k])` for every lane.
#[inline(never)]
fn map2(a: &[f64], b: &[f64], out: &mut [f64], f: impl Fn(f64, f64) -> f64) {
    let (a, b) = (&a[..out.len()], &b[..out.len()]);
    for k in 0..out.len() {
        out[k] = f(a[k], b[k]);
    }
}

/// `out[k] = f(a[k], b[k], c[k])` for every lane.
#[inline(never)]
fn map3(a: &[f64], b: &[f64], c: &[f64], out: &mut [f64], f: impl Fn(f64, f64, f64) -> f64) {
    let (a, b, c) = (&a[..out.len()], &b[..out.len()], &c[..out.len()]);
    for k in 0..out.len() {
        out[k] = f(a[k], b[k], c[k]);
    }
}

/// `acc = add(mul(a[k], b[k]), acc)` in lane order. The products do
/// not depend on `acc`, so each block of them is a lane loop of its
/// own, ahead of the serial sum.
#[inline(never)]
fn fold2(
    a: &[f64],
    b: &[f64],
    acc: f64,
    mul: impl Fn(f64, f64) -> f64,
    add: impl Fn(f64, f64) -> f64,
) -> f64 {
    let mut acc = acc;
    let mut prod = [0.0f64; LANE_BLOCK];
    for (a, b) in a.chunks(LANE_BLOCK).zip(b.chunks(LANE_BLOCK)) {
        let prod = &mut prod[..a.len()];
        for k in 0..prod.len() {
            prod[k] = mul(a[k], b[k]);
        }
        for &p in prod.iter() {
            acc = add(p, acc);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_every_class() {
        let mut ctx = FpCtx::new(IhwConfig::precise());
        let _ = ctx.add32(1.0, 2.0);
        let _ = ctx.sub32(1.0, 2.0);
        let _ = ctx.mul32(1.0, 2.0);
        let _ = ctx.div32(1.0, 2.0);
        let _ = ctx.rcp32(2.0);
        let _ = ctx.rsqrt32(2.0);
        let _ = ctx.sqrt32(2.0);
        let _ = ctx.log2_32(2.0);
        let _ = ctx.fma32(1.0, 2.0, 3.0);
        assert_eq!(ctx.counts().get(FpOp::Add), 2);
        assert_eq!(ctx.counts().get(FpOp::Mul), 1);
        assert_eq!(ctx.counts().get(FpOp::Fma), 1);
        assert_eq!(ctx.counts().total(), 9);
    }

    #[test]
    fn dispatch_respects_config() {
        let mut p = FpCtx::new(IhwConfig::precise());
        let mut i = FpCtx::new(IhwConfig::all_imprecise());
        assert_eq!(p.mul32(1.5, 1.5), 2.25);
        assert_eq!(i.mul32(1.5, 1.5), 2.0);
        assert_eq!(i.mul64(1.5, 1.5), 2.0);
    }

    #[test]
    fn precise_mul_bypass() {
        let mut ctx = FpCtx::new(IhwConfig::all_imprecise());
        assert_eq!(ctx.mul32_precise(1.5, 1.5), 2.25);
        assert_eq!(ctx.precise_mul_ops(), 1);
        assert_eq!(ctx.counts().get(FpOp::Mul), 1, "still counted as a mul");
    }

    #[test]
    fn dot3_counts_three_muls_two_adds() {
        let mut ctx = FpCtx::new(IhwConfig::precise());
        let d = ctx.dot3_32([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]);
        assert_eq!(d, 32.0);
        assert_eq!(ctx.counts().get(FpOp::Mul), 3);
        assert_eq!(ctx.counts().get(FpOp::Add), 2);
    }

    #[test]
    fn reset_keeps_config() {
        let mut ctx = FpCtx::new(IhwConfig::all_imprecise());
        let _ = ctx.mul32(1.0, 1.0);
        ctx.int_op(5);
        ctx.mem_op(3);
        ctx.reset_counters();
        assert_eq!(ctx.counts().total(), 0);
        assert_eq!(ctx.int_ops(), 0);
        assert_eq!(ctx.mem_ops(), 0);
        assert!(ctx.config().any_imprecise());
    }
}
