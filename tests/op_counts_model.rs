//! Model-based test of the dense `OpCounts` (one slot per `FpOp`).
//!
//! The reference is the ordered map it replaced, kept here: random
//! `record`, copy and reset sequences run against both, and every
//! observation — `iter`, `get`, the totals, equality and `Debug` — must
//! agree. The reference drops zero counts, which is the documented
//! contract ("non-zero counts") that the map-backed version broke on
//! `record(op, 0)`.

use imprecise_gpgpu::core::config::FpOp;
use imprecise_gpgpu::power::OpCounts;
use proptest::prelude::*;
use std::collections::BTreeMap;

mod reference {
    use super::FpOp;
    use std::collections::BTreeMap;

    /// The map-backed counter set, named like the real one so its derived
    /// `Debug` is the rendering the dense version must reproduce.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct OpCounts {
        pub counts: BTreeMap<FpOp, u64>,
    }

    impl OpCounts {
        pub fn record(&mut self, op: FpOp, n: u64) {
            if n > 0 {
                *self.counts.entry(op).or_insert(0) += n;
            }
        }
    }
}

fn assert_agrees(dense: &OpCounts, model: &reference::OpCounts) {
    let want: Vec<(FpOp, u64)> = model.counts.iter().map(|(&op, &c)| (op, c)).collect();
    assert_eq!(dense.iter().collect::<Vec<_>>(), want);
    for op in FpOp::ALL {
        assert_eq!(dense.get(op), model.counts.get(&op).copied().unwrap_or(0));
    }
    let sum = |sfu: bool| -> u64 {
        want.iter()
            .filter(|(op, _)| op.is_sfu() == sfu)
            .map(|&(_, c)| c)
            .sum()
    };
    assert_eq!(dense.total(), sum(false) + sum(true));
    assert_eq!(dense.fpu_total(), sum(false));
    assert_eq!(dense.sfu_total(), sum(true));
    assert_eq!(format!("{dense:?}"), format!("{model:?}"));
    assert_eq!(format!("{dense:#?}"), format!("{model:#?}"));
    assert_eq!(&want.iter().copied().collect::<OpCounts>(), dense);
}

/// One step on two counter sets `a` and `b`: `(kind, op index, count)`.
/// Counts are zero a quarter of the time.
fn arb_steps() -> impl Strategy<Value = Vec<(u8, usize, u64)>> {
    proptest::collection::vec(
        (0u8..5, 0usize..FpOp::ALL.len(), 0u64..4, 1u64..1_000_000)
            .prop_map(|(kind, op, zero, n)| (kind, op, if zero == 0 { 0 } else { n })),
        0..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn dense_counts_match_the_map_reference(steps in arb_steps()) {
        let (mut a, mut b) = (OpCounts::new(), OpCounts::new());
        let (mut ma, mut mb) = (reference::OpCounts::default(), reference::OpCounts::default());
        for (kind, op, n) in steps {
            let op = FpOp::ALL[op];
            match kind {
                0 | 1 => {
                    a.record(op, n);
                    ma.record(op, n);
                }
                2 => {
                    b.record(op, n);
                    mb.record(op, n);
                }
                3 => {
                    b = a.clone();
                    mb = ma.clone();
                }
                _ => {
                    b = OpCounts::new();
                    mb = reference::OpCounts::default();
                }
            }
            assert_agrees(&a, &ma);
            assert_agrees(&b, &mb);
            prop_assert_eq!(a == b, ma == mb);
        }
    }
}

#[test]
fn zero_counts_leave_no_trace() {
    let mut c = OpCounts::new();
    for op in FpOp::ALL {
        c.record(op, 0);
    }
    assert_eq!(c, OpCounts::new());
    assert_eq!(c.iter().count(), 0);
    assert_eq!(format!("{c:?}"), "OpCounts { counts: {} }");

    let mut touched = OpCounts::new();
    touched.record(FpOp::Mul, 3);
    let mut with_zero = touched.clone();
    with_zero.record(FpOp::Add, 0);
    assert_eq!(with_zero, touched);
    assert_eq!(with_zero.iter().collect::<BTreeMap<_, _>>().len(), 1);
}
