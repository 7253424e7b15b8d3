//! The affine memory-dependence analysis surface, plus a brute-force
//! concrete oracle.
//!
//! The analysis core lives in [`gpu_sim::deps`] (the compiled engine's
//! plans consult it directly to gate lane-block execution); this
//! module re-exports it so analyzer users have one import surface, and
//! adds [`brute_force_conflicts`] — a concrete footprint-enumeration
//! oracle that property tests check the symbolic verdicts against.

pub use gpu_sim::deps::{
    footprints, racecheck, Access, AffineIndex, DepKind, Dependence, Footprint, OobSite,
    RaceReport, RegSite, Verdict,
};

use gpu_sim::isa::Program;

/// What the brute-force oracle observed at one concrete thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BruteForce {
    /// Two distinct tids write the same element of some buffer.
    pub write_write: bool,
    /// Some tid reads an element a strictly earlier tid writes.
    pub carried: bool,
}

impl BruteForce {
    /// Whether any cross-tid ordering dependence was observed.
    pub fn any(self) -> bool {
        self.write_write || self.carried
    }
}

/// Enumerates the concrete per-tid footprints of a `threads`-thread
/// launch and intersects them pairwise — the ground truth the symbolic
/// analysis must agree with:
///
/// * [`Verdict::ThreadIndependent`] implies `!any()` at **every**
///   thread count (the symbolic verdict quantifies over all launches);
/// * `any()` at some thread count implies a non-independent verdict.
///
/// Quadratic in `threads` × accesses; for tests at small scales only.
pub fn brute_force_conflicts(prog: &Program, threads: u32) -> BruteForce {
    let fps = footprints(prog);
    let mut out = BruteForce::default();
    for fp in fps.values() {
        for t1 in 0..threads {
            for t2 in 0..threads {
                if t1 == t2 {
                    continue;
                }
                for w1 in &fp.writes {
                    for w2 in &fp.writes {
                        if w1.index.at(t1) == w2.index.at(t2) {
                            out.write_write = true;
                        }
                    }
                }
            }
        }
        for t1 in 0..threads {
            for t2 in 0..t1 {
                for r in &fp.reads {
                    for w in &fp.writes {
                        if r.index.at(t1) == w.index.at(t2) {
                            out.carried = true;
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::isa::{AddrMode, Instr, Program, Reg};
    use gpu_sim::programs;

    #[test]
    fn oracle_agrees_on_stock_kernels() {
        for prog in [
            programs::saxpy(2.0),
            programs::rsqrt_norm(),
            programs::dot_partial(4),
            programs::distance(),
        ] {
            assert_eq!(racecheck(&prog).verdict, Verdict::ThreadIndependent);
            for threads in [1, 2, 3, 8, 17] {
                assert!(
                    !brute_force_conflicts(&prog, threads).any(),
                    "{} at {threads} threads",
                    prog.name()
                );
            }
        }
    }

    #[test]
    fn oracle_sees_the_carried_chain() {
        let prog = Program::new(
            "chain",
            1,
            vec![
                Instr::Ld(Reg(0), 0, AddrMode::TidPlus(-1)),
                Instr::St(0, AddrMode::Tid, Reg(0)),
            ],
        )
        .unwrap();
        assert_eq!(racecheck(&prog).verdict, Verdict::SequentialCarried);
        let b = brute_force_conflicts(&prog, 4);
        assert!(b.carried && !b.write_write);
        // A single thread cannot conflict with itself.
        assert!(!brute_force_conflicts(&prog, 1).any());
    }

    #[test]
    fn oracle_sees_the_broadcast_store_race() {
        let prog = Program::new(
            "bcast",
            1,
            vec![
                Instr::Movi(Reg(0), 1.0),
                Instr::St(0, AddrMode::Abs(3), Reg(0)),
            ],
        )
        .unwrap();
        assert_eq!(racecheck(&prog).verdict, Verdict::SequentialCarried);
        assert!(brute_force_conflicts(&prog, 2).write_write);
    }
}
