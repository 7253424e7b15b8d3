//! Integration gate for the multi-tenant launch service: tenant
//! threads sharing one `SharedInterpreter` must see (a) responses
//! byte-identical to a sequential replay, (b) one shared `Arc` per
//! coalesced request across threads, and (c) per-request fault
//! isolation while siblings keep launching. This is the cross-crate
//! version of the unit tests in `ihw_bench::serve` and
//! `gpu_sim::concurrent` — it exercises the whole stack (service →
//! shared interpreter → plan cache) from outside the crate boundary.

use gpu_sim::programs::seed_buffers;
use ihw_bench::serve::{stock_requests, LaunchRequest, LaunchService, ServeReply};
use ihw_core::config::IhwConfig;
use std::sync::Arc;

/// Bit patterns of a reply's buffers (`None` = rejected).
fn bits(reply: &ServeReply) -> Option<Vec<Vec<u32>>> {
    match reply {
        ServeReply::Rejected { .. } => None,
        ServeReply::Served { outcome, .. } => Some(
            outcome
                .buffers
                .iter()
                .map(|b| b.iter().map(|x| x.to_bits()).collect())
                .collect(),
        ),
    }
}

/// Replays `mix` with one submitter thread per tenant and returns the
/// per-tenant, per-request response bits.
fn replay_concurrent(
    service: &Arc<LaunchService>,
    mix: Vec<Vec<LaunchRequest>>,
) -> Vec<Vec<Option<Vec<Vec<u32>>>>> {
    let handles: Vec<_> = mix
        .into_iter()
        .map(|reqs| {
            let service = Arc::clone(service);
            std::thread::spawn(move || {
                reqs.iter()
                    .map(|r| bits(&service.submit(r)))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("tenant thread"))
        .collect()
}

#[test]
fn interleaved_tenants_are_byte_identical_to_sequential() {
    const TENANTS: usize = 3;
    const REQUESTS: usize = 8;
    const THREADS: u32 = 96;
    let mix = stock_requests(TENANTS, REQUESTS, THREADS);

    // Sequential reference: one tenant at a time.
    let reference: Vec<Vec<Option<Vec<Vec<u32>>>>> = {
        let service = LaunchService::new(1, u64::MAX);
        mix.iter()
            .map(|reqs| reqs.iter().map(|r| bits(&service.submit(r))).collect())
            .collect()
    };

    let service = Arc::new(LaunchService::new(1, u64::MAX));
    let responses = replay_concurrent(&service, mix);
    assert_eq!(
        responses, reference,
        "interleaved responses diverged from the sequential replay"
    );
    let stats = service.stats();
    assert_eq!(
        stats.submitted,
        (TENANTS * REQUESTS) as u64,
        "every request must be accounted for"
    );
    assert!(
        stats.dedup_hits > 0,
        "identical cross-tenant requests must coalesce"
    );
    assert_eq!(stats.executed + stats.dedup_hits, stats.submitted);
}

#[test]
fn coalesced_tenants_share_one_arc_across_threads() {
    let service = Arc::new(LaunchService::new(1, u64::MAX));
    let program = gpu_sim::programs::saxpy(2.0);
    let buffers = seed_buffers(&program, 64);
    let req = LaunchRequest {
        program,
        config: IhwConfig::all_imprecise(),
        config_label: "all_imprecise".to_string(),
        threads: 64,
        buffers,
    };
    let outcomes: Vec<_> = {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let service = Arc::clone(&service);
                let req = req.clone();
                std::thread::spawn(move || match service.submit(&req) {
                    ServeReply::Served { outcome, .. } => outcome,
                    ServeReply::Rejected { .. } => panic!("request must be admitted"),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread"))
            .collect()
    };
    for other in &outcomes[1..] {
        assert!(
            Arc::ptr_eq(&outcomes[0], other),
            "coalesced submissions must share one outcome allocation"
        );
    }
    let stats = service.stats();
    assert_eq!(
        (stats.executed, stats.dedup_hits),
        (1, 5),
        "six identical submissions are one execution plus five dedup hits"
    );
}

#[test]
fn faulting_tenant_leaves_concurrent_tenants_intact() {
    let service = Arc::new(LaunchService::new(1, u64::MAX));
    let good = {
        let program = gpu_sim::programs::saxpy(2.0);
        let buffers = seed_buffers(&program, 64);
        LaunchRequest {
            program,
            config: IhwConfig::precise(),
            config_label: "precise".to_string(),
            threads: 64,
            buffers,
        }
    };
    // Truncated buffers fault inside the launch; each resubmission gets
    // a fresh key via a distinct payload so every one executes.
    let faulty: Vec<LaunchRequest> = (0..4)
        .map(|i| {
            let mut r = good.clone();
            r.buffers = r.buffers.iter().map(|b| b[..4].to_vec()).collect();
            r.buffers[0][0] = 0.25 + i as f32;
            r
        })
        .collect();

    let reference = bits(&LaunchService::new(1, u64::MAX).submit(&good));
    let saboteur = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            faulty
                .iter()
                .map(|r| match service.submit(r) {
                    ServeReply::Served { outcome, .. } => outcome.error.is_some(),
                    ServeReply::Rejected { .. } => panic!("faulty request must be admitted"),
                })
                .collect::<Vec<bool>>()
        })
    };
    let victim = {
        let service = Arc::clone(&service);
        let good = good.clone();
        std::thread::spawn(move || {
            (0..4)
                .map(|_| bits(&service.submit(&good)))
                .collect::<Vec<_>>()
        })
    };
    let faults = saboteur.join().expect("saboteur thread");
    let served = victim.join().expect("victim thread");
    assert!(
        faults.iter().all(|&f| f),
        "every truncated-buffer launch must report its own error"
    );
    for b in &served {
        assert_eq!(
            *b, reference,
            "a sibling's fault must not perturb a healthy tenant's response"
        );
    }
    assert_eq!(service.stats().faulted, 4);
}
