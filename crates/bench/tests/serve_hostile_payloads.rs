//! Hostile payloads at the serve boundary: requests with no buffers,
//! empty or short buffers, zero threads, thread counts over the
//! admission budget, and NaN, ±inf and subnormal payloads, submitted by
//! one tenant while a second tenant replays a healthy stock mix.
//!
//! Each hostile request must fail alone: a malformed one comes back as
//! its own launch error (never a caught panic) or an admission
//! rejection, and one whose payload holds special values is served
//! bit-identical to the interpreted engine on the same input. Nothing
//! panics, and the healthy tenant's replies stay bit-identical to a
//! replay on a fresh service with no hostile neighbour.

use gpu_sim::isa::{ExecEngine, WarpInterpreter};
use gpu_sim::programs::seed_buffers;
use ihw_bench::serve::{stock_requests, LaunchRequest, LaunchService, ServeReply};
use std::sync::Arc;

/// Admission budget of the service under test, in estimated ops.
const MAX_OPS: u64 = 1 << 16;

/// Threads per healthy launch.
const THREADS: u32 = 64;

/// What a hostile request must come back as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// Served with a launch error of its own.
    Fault,
    /// Refused by admission control.
    Rejected,
    /// Served cleanly, bit-identical to the interpreted engine.
    Clean,
}

/// The bits of every buffer.
fn bits(buffers: &[Vec<f32>]) -> Vec<Vec<u32>> {
    buffers
        .iter()
        .map(|b| b.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// A reply's buffers as bits (`None` = rejected).
fn reply_bits(reply: &ServeReply) -> Option<Vec<Vec<u32>>> {
    match reply {
        ServeReply::Rejected { .. } => None,
        ServeReply::Served { outcome, .. } => Some(bits(&outcome.buffers)),
    }
}

/// Special values cycled through a payload: NaNs of both signs and
/// payloads, ±inf, subnormals of both signs, signed zeros, and the
/// extreme normals.
const SPECIALS: [u32; 12] = [
    0x7fc0_0000,
    0xffc0_0001,
    0x7f80_0001,
    0x7f80_0000,
    0xff80_0000,
    0x0000_0001,
    0x807f_ffff,
    0x0000_0000,
    0x8000_0000,
    0x7f7f_ffff,
    0x0080_0000,
    0x3f80_0000,
];

/// The hostile requests, each labelled with what it must come back as,
/// over every stock kernel under every stock config.
fn hostile_requests() -> Vec<(String, LaunchRequest, Expect)> {
    let kernels = ihw_analyze::stock_kernels();
    let configs = ihw_analyze::stock_configs();
    let mut out = Vec::new();
    for (k, program) in kernels.iter().enumerate() {
        for (c, (label, config)) in configs.iter().enumerate() {
            let seeded = seed_buffers(program, THREADS);
            let mut req = |name: &str, threads: u32, buffers: Vec<Vec<f32>>, expect| {
                let request = LaunchRequest {
                    program: program.clone(),
                    config: *config,
                    config_label: (*label).to_string(),
                    threads,
                    buffers,
                };
                out.push((format!("{name} k{k} {label}"), request, expect));
            };
            req("no buffers", THREADS, Vec::new(), Expect::Fault);
            let empty = vec![Vec::new(); seeded.len()];
            req("empty buffers", THREADS, empty, Expect::Fault);
            let short = seeded.iter().map(|b| b[..1].to_vec()).collect();
            req("short buffers", THREADS, short, Expect::Fault);
            req("zero threads", 0, seeded.clone(), Expect::Clean);
            req("zero threads, no buffers", 0, Vec::new(), Expect::Clean);
            let huge = u32::MAX;
            req(
                "threads over budget",
                huge,
                seeded.clone(),
                Expect::Rejected,
            );
            let over = (MAX_OPS / program.instrs().len() as u64 + 1) as u32;
            req(
                "threads just over budget",
                over,
                Vec::new(),
                Expect::Rejected,
            );
            // Special values at every position, rotated per pair so each
            // operand slot meets every special.
            let specials = seeded
                .iter()
                .enumerate()
                .map(|(b, buf)| {
                    (0..buf.len())
                        .map(|i| f32::from_bits(SPECIALS[(i + b + k + c) % SPECIALS.len()]))
                        .collect()
                })
                .collect();
            req("special payload", THREADS, specials, Expect::Clean);
            // Special values sprinkled into an ordinary payload.
            let mut mixed = seeded;
            for (b, buf) in mixed.iter_mut().enumerate() {
                for (i, x) in buf.iter_mut().enumerate().step_by(5) {
                    *x = f32::from_bits(SPECIALS[(i / 5 + b + c) % SPECIALS.len()]);
                }
            }
            req("mixed payload", THREADS, mixed, Expect::Clean);
        }
    }
    out
}

/// The interpreted engine's buffers for `req` (the reference for a
/// clean hostile request).
fn interpreted(req: &LaunchRequest) -> Vec<Vec<u32>> {
    let mut sim = WarpInterpreter::new(req.config).with_engine(ExecEngine::Interpreted);
    let mut buffers = req.buffers.clone();
    sim.launch(&req.program, req.threads, &mut buffers)
        .expect("a clean hostile request runs on the interpreter");
    bits(&buffers)
}

/// Checks one hostile reply against what its request must come back as.
fn check_hostile(name: &str, req: &LaunchRequest, expect: Expect, reply: &ServeReply) {
    match (expect, reply) {
        (Expect::Rejected, ServeReply::Rejected { est_ops, max_ops }) => {
            assert!(est_ops > max_ops, "{name}: rejected within budget");
        }
        (Expect::Fault, ServeReply::Served { outcome, .. }) => {
            let err = outcome
                .error
                .as_deref()
                .unwrap_or_else(|| panic!("{name}: a malformed request must report an error"));
            assert!(!err.contains("panicked"), "{name}: {err}");
        }
        (Expect::Clean, ServeReply::Served { outcome, .. }) => {
            assert_eq!(outcome.error, None, "{name}");
            assert_eq!(bits(&outcome.buffers), interpreted(req), "{name}");
        }
        _ => panic!("{name}: expected {expect:?}, got {reply:?}"),
    }
}

#[test]
fn hostile_requests_fail_alone_beside_a_healthy_tenant() {
    let healthy: Vec<LaunchRequest> = stock_requests(1, 20, THREADS).remove(0);
    let reference: Vec<_> = {
        let service = LaunchService::new(1, MAX_OPS);
        healthy
            .iter()
            .map(|r| reply_bits(&service.submit(r)))
            .collect()
    };
    assert!(
        reference.iter().all(Option::is_some),
        "the healthy mix fits the budget"
    );

    let service = Arc::new(LaunchService::new(1, MAX_OPS));
    let hostile = hostile_requests();
    let attacker = {
        let service = Arc::clone(&service);
        let hostile = hostile.clone();
        std::thread::spawn(move || {
            for (name, req, expect) in &hostile {
                check_hostile(name, req, *expect, &service.submit(req));
            }
        })
    };
    let victim = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            healthy
                .iter()
                .map(|r| reply_bits(&service.submit(r)))
                .collect::<Vec<_>>()
        })
    };
    attacker.join().expect("hostile tenant");
    let served = victim.join().expect("healthy tenant");
    assert_eq!(
        served, reference,
        "a hostile neighbour must not perturb a healthy tenant's replies"
    );

    // A second pass over the now-warm service: every hostile request
    // (coalesced or not) still gets its own verdict.
    for (name, req, expect) in &hostile {
        check_hostile(name, req, *expect, &service.submit(req));
    }
    let stats = service.stats();
    let faults = hostile.iter().filter(|h| h.2 == Expect::Fault).count() as u64;
    let rejects = hostile.iter().filter(|h| h.2 == Expect::Rejected).count() as u64;
    assert_eq!(stats.faulted, faults, "each malformed request faults once");
    assert_eq!(
        stats.rejected,
        2 * rejects,
        "each over-budget submission is rejected"
    );
}
