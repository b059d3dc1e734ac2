//! Admission control: a bounded multi-tenant job queue with explicit
//! backpressure, round-robin fairness, and per-tenant in-flight caps.
//!
//! The queue is the daemon's only buffer: when it is full the submitter
//! gets an immediate [`Busy`](crate::protocol::Busy) with a retry hint
//! instead of the server buffering unboundedly. Dispatch walks tenants
//! round-robin — a tenant that floods the queue gets served one job per
//! turn like everyone else — and a per-tenant in-flight cap keeps one
//! tenant from occupying every worker. The dequeue side also reports
//! the shed level: at three-quarters capacity, jobs are executed
//! sequentially (cheap, still bit-identical) so the queue drains
//! instead of growing.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use crate::executor::ShedLevel;
use crate::protocol::{SubmitJob, SubmitSource};
use crate::session::Reply;

/// What a queued job asks the executor to do: run a prepared-spec job
/// or compile-and-run a source program. Admission treats both alike —
/// same queue, same fairness, same backpressure.
pub enum JobWork {
    Job(SubmitJob),
    Source(SubmitSource),
}

impl JobWork {
    pub fn job_id(&self) -> u64 {
        match self {
            JobWork::Job(j) => j.job_id,
            JobWork::Source(s) => s.job_id,
        }
    }
}

/// One queued job: the parsed submission plus where to send the answer.
pub struct Job {
    pub tenant: String,
    pub work: JobWork,
    pub reply: Reply,
    pub deadline: Option<Instant>,
}

/// What `submit` decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    Accepted,
    /// Queue full — retry after the hinted backoff.
    Busy {
        retry_after_ms: u32,
    },
    /// The server is shutting down; no new work.
    Refused,
}

#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Total queued jobs across all tenants.
    pub queue_capacity: usize,
    /// Concurrent in-flight jobs per tenant.
    pub tenant_inflight: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_capacity: 64,
            tenant_inflight: 2,
        }
    }
}

#[derive(Default)]
struct State {
    /// Per-tenant FIFO queues.
    queues: HashMap<String, VecDeque<Job>>,
    /// Round-robin order over tenants with queued work.
    rr: VecDeque<String>,
    queued: usize,
    inflight: HashMap<String, usize>,
    shutting_down: bool,
}

/// The shared admission gate. Submitters call [`Admission::submit`],
/// workers loop on [`Admission::next`] / [`Admission::done`].
pub struct Admission {
    cfg: AdmissionConfig,
    state: Mutex<State>,
    cv: Condvar,
}

impl Admission {
    pub fn new(cfg: AdmissionConfig) -> Self {
        Admission {
            cfg,
            state: Mutex::new(State::default()),
            cv: Condvar::new(),
        }
    }

    pub fn config(&self) -> AdmissionConfig {
        self.cfg
    }

    pub fn queue_len(&self) -> usize {
        self.state.lock().unwrap().queued
    }

    /// Admit or refuse a job. O(1); never blocks on workers.
    pub fn submit(&self, job: Job) -> Admit {
        let mut s = self.state.lock().unwrap();
        if s.shutting_down {
            return Admit::Refused;
        }
        if s.queued >= self.cfg.queue_capacity {
            // Hint scales with backlog so a thundering herd of retries
            // spreads out instead of re-colliding.
            let retry = 10 + (s.queued as u32).min(200);
            return Admit::Busy {
                retry_after_ms: retry,
            };
        }
        let tenant = job.tenant.clone();
        let q = s.queues.entry(tenant.clone()).or_default();
        let newly_active = q.is_empty();
        q.push_back(job);
        s.queued += 1;
        if newly_active {
            s.rr.push_back(tenant);
        }
        drop(s);
        self.cv.notify_one();
        Admit::Accepted
    }

    /// Block until a job is dispatchable (tenant below its in-flight
    /// cap), the shed level at dispatch time riding along. Returns
    /// `None` when the server is shutting down *and* the queue has
    /// drained — workers finish queued jobs before exiting.
    pub fn next(&self) -> Option<(Job, ShedLevel)> {
        let mut s = self.state.lock().unwrap();
        loop {
            if let Some(job) = Self::pop_fair(&mut s, &self.cfg) {
                // The shed ladder: three quarters capacity drops to
                // sequential (still bit-identical).
                let shed = if s.queued * 4 >= self.cfg.queue_capacity * 3 {
                    ShedLevel::Seq
                } else {
                    ShedLevel::Native
                };
                return Some((job, shed));
            }
            if s.shutting_down && s.queued == 0 {
                return None;
            }
            s = self.cv.wait(s).unwrap();
        }
    }

    /// Round-robin over active tenants, skipping those at their
    /// in-flight cap. The chosen tenant rotates to the back.
    fn pop_fair(s: &mut State, cfg: &AdmissionConfig) -> Option<Job> {
        for _ in 0..s.rr.len() {
            let tenant = s.rr.pop_front()?;
            let busy = *s.inflight.get(&tenant).unwrap_or(&0);
            if busy >= cfg.tenant_inflight {
                s.rr.push_back(tenant);
                continue;
            }
            let q = s.queues.get_mut(&tenant).expect("rr tenant has a queue");
            let job = q.pop_front().expect("rr tenant queue is nonempty");
            s.queued -= 1;
            if !q.is_empty() {
                s.rr.push_back(tenant.clone());
            } else {
                s.queues.remove(&tenant);
            }
            *s.inflight.entry(tenant).or_insert(0) += 1;
            return Some(job);
        }
        None
    }

    /// A worker finished (or abandoned) a job for `tenant`.
    pub fn done(&self, tenant: &str) {
        let mut s = self.state.lock().unwrap();
        if let Some(n) = s.inflight.get_mut(tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                s.inflight.remove(tenant);
            }
        }
        drop(s);
        // The freed in-flight slot may unblock a queued job.
        self.cv.notify_all();
    }

    /// Stop accepting work and wake every worker; queued jobs drain.
    pub fn shutdown(&self) {
        self.state.lock().unwrap().shutting_down = true;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::SubmitJob;
    use std::sync::Arc;

    fn job(tenant: &str, id: u64) -> Job {
        Job {
            tenant: tenant.into(),
            work: JobWork::Job(SubmitJob {
                job_id: id,
                deadline_ms: 0,
                flags: 0,
                num_elements: 4,
                iterations: 2,
                num_refs: 2,
                num_arrays: 1,
                procs: 1,
                k: 1,
                dist: 0,
                sweeps: 1,
                fault: None,
                weights: vec![1.0, 2.0],
                indirection: vec![vec![0, 1], vec![2, 3]],
            }),
            reply: Reply::sink(),
            deadline: None,
        }
    }

    #[test]
    fn full_queue_yields_busy_not_growth() {
        let a = Admission::new(AdmissionConfig {
            queue_capacity: 2,
            tenant_inflight: 2,
        });
        assert_eq!(a.submit(job("t", 1)), Admit::Accepted);
        assert_eq!(a.submit(job("t", 2)), Admit::Accepted);
        assert!(matches!(a.submit(job("t", 3)), Admit::Busy { .. }));
        assert_eq!(a.queue_len(), 2);
    }

    #[test]
    fn round_robin_interleaves_tenants() {
        let a = Admission::new(AdmissionConfig {
            queue_capacity: 16,
            tenant_inflight: 16,
        });
        for i in 0..3 {
            a.submit(job("alice", i));
        }
        for i in 10..13 {
            a.submit(job("bob", i));
        }
        let order: Vec<(String, u64)> = (0..6)
            .map(|_| {
                let (j, _) = a.next().unwrap();
                (j.tenant.clone(), j.work.job_id())
            })
            .collect();
        let tenants: Vec<&str> = order.iter().map(|(t, _)| t.as_str()).collect();
        assert_eq!(
            tenants,
            vec!["alice", "bob", "alice", "bob", "alice", "bob"],
            "tenants must alternate even though alice enqueued first"
        );
    }

    #[test]
    fn inflight_cap_holds_a_flooding_tenant_back() {
        let a = Admission::new(AdmissionConfig {
            queue_capacity: 16,
            tenant_inflight: 1,
        });
        a.submit(job("flood", 1));
        a.submit(job("flood", 2));
        let (j1, _) = a.next().unwrap();
        assert_eq!(j1.work.job_id(), 1);
        // flood is at its cap; job 2 must wait for done().
        let a2 = Arc::new(a);
        let a3 = Arc::clone(&a2);
        let h = std::thread::spawn(move || a3.next().map(|(j, _)| j.work.job_id()));
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(!h.is_finished(), "job 2 must be held back by the cap");
        a2.done("flood");
        assert_eq!(h.join().unwrap(), Some(2));
    }

    #[test]
    fn shed_level_climbs_the_ladder_with_backlog() {
        let a = Admission::new(AdmissionConfig {
            queue_capacity: 8,
            tenant_inflight: 16,
        });
        a.submit(job("t", 1));
        let (_, shed) = a.next().unwrap();
        assert_eq!(shed, ShedLevel::Native);
        // 4 queued after the pop = half capacity: still native.
        for i in 2..=6 {
            a.submit(job("t", i));
        }
        let (_, shed) = a.next().unwrap();
        assert_eq!(
            shed,
            ShedLevel::Native,
            "backlog at half capacity stays native"
        );
        // 6 queued after the pop = three quarters: sequential.
        for i in 7..=9 {
            a.submit(job("t", i));
        }
        let (_, shed) = a.next().unwrap();
        assert_eq!(
            shed,
            ShedLevel::Seq,
            "backlog at three-quarters capacity must go sequential"
        );
    }

    #[test]
    fn shutdown_drains_then_stops() {
        let a = Admission::new(AdmissionConfig::default());
        a.submit(job("t", 1));
        a.shutdown();
        assert_eq!(a.submit(job("t", 2)), Admit::Refused);
        assert!(a.next().is_some(), "queued job drains");
        a.done("t");
        assert!(a.next().is_none(), "then workers see shutdown");
    }
}
