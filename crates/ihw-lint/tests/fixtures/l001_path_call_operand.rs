// ihw-lint: treat-as=core-datapath
// Seeded L001 violation whose only float evidence is an `f64::` path
// call ending right before the operator.

pub fn widened_sum(x: u32) -> f64 {
    f64::from(g(x)) + (h(x))
}

pub fn integer_sum(x: u32) -> u32 {
    u32::from(g(x)) + 1 // integer path: must NOT be flagged
}
