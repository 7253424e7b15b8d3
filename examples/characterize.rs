//! Error characterization from the command line: pick a unit, get its
//! Figure 8-style PMF, summary statistics and a CSV you can plot.
//!
//! ```text
//! cargo run --release --example characterize            # the full Figure 8 set
//! cargo run --release --example characterize -- 200000  # custom sample count
//! ```

use imprecise_gpgpu::core::config::{FpOp, IhwConfig};
use imprecise_gpgpu::error::{characterize, convergence, label};

fn main() {
    let samples: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);

    // Figure 8: every Table 1 op (all but the `iexp2` extension), TH = 8.
    let cfg = IhwConfig::all_imprecise();
    println!("characterizing the Figure 8 unit set with {samples} quasi-MC inputs\n");
    for op in FpOp::ALL.into_iter().filter(|&op| op != FpOp::Exp2) {
        let pmf = characterize(op, &cfg, samples);
        print!("{}", pmf.to_ascii_chart(&label(op, &cfg)));
        println!();
    }

    println!("convergence of the ifpmul maximum-error estimate:");
    for (n, max_pct, rate) in convergence(FpOp::Mul, &cfg, &[1_000, 10_000, samples]) {
        println!(
            "  {n:>8} samples: max {max_pct:.3}%  error rate {:.2}%",
            rate * 100.0
        );
    }

    println!("\nCSV for the multiplier PMF (pipe to a file to plot):\n");
    let pmf = characterize(FpOp::Mul, &cfg, samples);
    print!("{}", pmf.to_csv("ifpmul"));
}
