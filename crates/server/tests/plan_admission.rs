//! Plan admission against a live daemon: a plan enters the cache on its
//! structure's second sighting, so one-off structures are prepared, run
//! and dropped without ever occupying an entry.

use server::client::Client;
use server::protocol::{Frame, SubmitJob};
use server::{Server, ServerConfig};

/// A small job; `variant` selects its indirection structure.
fn job(id: u64, variant: u32) -> SubmitJob {
    let iters = 40u32;
    SubmitJob {
        job_id: id,
        deadline_ms: 0,
        flags: 0,
        num_elements: 16,
        iterations: iters,
        num_refs: 2,
        num_arrays: 1,
        procs: 2,
        k: 2,
        dist: 0,
        sweeps: 2,
        fault: None,
        weights: (0..iters).map(|i| f64::from(i) * 0.25).collect(),
        indirection: vec![
            (0..iters).map(|i| (i * 7 + variant) % 16).collect(),
            (0..iters).map(|i| (i * 3) % 16).collect(),
        ],
    }
}

/// Structure S three times, then five one-off structures: S's first
/// sighting and every one-off are refused, S's second sighting is
/// admitted and its third hits.
#[test]
fn second_sighting_admits_and_one_offs_are_refused() {
    let srv = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = srv.local_addr().expect("addr");
    let mut c = Client::connect(addr, "admission").expect("connect");

    let jobs = (0..3)
        .map(|id| job(id, 0))
        .chain((1..=5).map(|v| job(10 + u64::from(v), v)));
    for j in jobs {
        let id = j.job_id;
        match c.submit(j).expect("submit") {
            Frame::JobOk(ok) => assert_eq!(ok.degraded, 0, "job {id}"),
            f => panic!("job {id}: unexpected reply {f:?}"),
        }
    }

    let metrics = c.metrics().expect("metrics");
    let get = |key: &str| -> u64 {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("metric {key} missing in:\n{metrics}"))
    };
    assert_eq!(get("plan_cache_hits "), 1);
    assert_eq!(get("plan_cache_misses "), 7);
    assert_eq!(get("plan_cache_refused "), 6);
    assert_eq!(get("plan_cache_entries "), 1);
    assert_eq!(get("plan_cache_evicted "), 0);

    c.shutdown().expect("shutdown ack");
    srv.stop();
}
