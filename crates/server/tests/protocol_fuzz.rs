//! Property-fuzz the frame decoder: arbitrary byte streams, truncations
//! of valid frames, and bit-flips of valid frames must all produce
//! typed [`ProtocolError`]s or valid frames — never a panic, hang, or
//! over-allocation. On the in-tree [`harness::prop`] harness; each
//! property is bounded by small inputs so the whole file runs in
//! seconds even at CI case counts.

use harness::prop::{check, Config, Gen};
use harness::{prop_assert, prop_assert_eq};
use server::protocol::{
    check_len, decode, encode, Busy, ErrCode, FaultSpec, Frame, Hello, HelloAck, JobErr, JobOk,
    ProtoErr, SubmitJob, DEFAULT_MAX_FRAME, VERSION,
};

/// Arbitrary bytes (including pathological length fields) decode to a
/// typed result. The property *is* "this call returns": a panic or
/// hostile allocation inside `decode` fails the test.
#[test]
fn arbitrary_bytes_never_panic_the_decoder() {
    check(
        "arbitrary_bytes_never_panic_the_decoder",
        Config::cases_quick(400),
        |g: &mut Gen| {
            let n = g.usize_in(0..512);
            (0..n).map(|_| g.u64_any() as u8).collect::<Vec<u8>>()
        },
        |bytes| {
            let _ = decode(bytes);
            Ok(())
        },
    );
}

/// Every code a `JobErr` can carry: the ones `ErrCode::from_u8` decodes.
fn live_codes() -> Vec<ErrCode> {
    (0..=u8::MAX).filter_map(ErrCode::from_u8).collect()
}

/// Generate a structurally valid frame of any type.
fn arbitrary_frame(g: &mut Gen) -> Frame {
    let seeds = |g: &mut Gen| {
        let n = g.usize_in(0..4);
        (0..n)
            .map(|_| if g.prob(0.7) { Some(g.u64_any()) } else { None })
            .collect::<Vec<_>>()
    };
    match g.usize_in(0..11) {
        0 => Frame::Hello(Hello {
            version: VERSION,
            tenant: format!("t{}", g.usize_in(0..1000)),
            max_frame: g.u32_in(0..DEFAULT_MAX_FRAME),
        }),
        1 => Frame::HelloAck(HelloAck {
            version: VERSION,
            max_frame: g.u32_in(1..DEFAULT_MAX_FRAME),
            queue_capacity: g.u32_in(0..1024),
            tenant_inflight: g.u32_in(0..64) as u16,
        }),
        2 => {
            let iters = g.usize_in(1..12);
            let refs = g.usize_in(1..5);
            Frame::SubmitJob(SubmitJob {
                job_id: g.u64_any(),
                deadline_ms: g.u32_in(0..10_000),
                flags: u8::from(g.prob(0.3)),
                num_elements: g.u32_in(1..64),
                iterations: iters as u32,
                num_refs: refs as u8,
                num_arrays: g.usize_in(1..4) as u8,
                procs: g.u32_in(1..8) as u16,
                k: g.u32_in(1..4) as u16,
                dist: u8::from(g.prob(0.5)),
                sweeps: g.u32_in(1..4) as u16,
                fault: g.prob(0.4).then(|| FaultSpec {
                    kind: g.u32_in(1..4) as u8,
                    seed: g.u64_any(),
                }),
                weights: (0..iters).map(|_| g.f64_in(-8.0..8.0)).collect(),
                indirection: (0..refs)
                    .map(|_| (0..iters).map(|_| g.u32_in(0..64)).collect())
                    .collect(),
            })
        }
        3 => {
            let arrays = g.usize_in(0..3);
            let per = g.usize_in(0..6);
            Frame::JobOk(JobOk {
                job_id: g.u64_any(),
                degraded: g.usize_in(0..3) as u8,
                attempts: g.u32_in(0..5),
                fault_seeds: seeds(g),
                values: (0..arrays)
                    .map(|_| (0..per).map(|_| g.f64_in(-100.0..100.0)).collect())
                    .collect(),
            })
        }
        4 => Frame::JobErr(JobErr {
            job_id: g.u64_any(),
            code: *g.pick(&live_codes()),
            attempts: g.u32_in(0..5),
            fault_seeds: seeds(g),
            message: format!("err {}", g.usize_in(0..100)),
        }),
        5 => Frame::Busy(Busy {
            job_id: g.u64_any(),
            retry_after_ms: g.u32_in(0..1000),
        }),
        6 => Frame::GetMetrics,
        7 => Frame::MetricsReport(format!("jobs_ok {}\n", g.usize_in(0..10_000))),
        8 => Frame::Shutdown,
        9 => Frame::ShutdownAck,
        _ => Frame::ProtoErr(ProtoErr {
            message: format!("proto {}", g.usize_in(0..100)),
        }),
    }
}

/// Valid frames roundtrip exactly; every strict prefix of the payload
/// is a typed error, never a panic.
#[test]
fn valid_frames_roundtrip_and_truncations_are_typed() {
    check(
        "valid_frames_roundtrip_and_truncations_are_typed",
        Config::cases_quick(200),
        |g: &mut Gen| {
            let frame = arbitrary_frame(g);
            let cut_frac = g.f64_in(0.0..1.0);
            (frame, cut_frac)
        },
        |(frame, cut_frac)| {
            let bytes = encode(frame);
            let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
            let n = check_len(len, DEFAULT_MAX_FRAME).map_err(|e| e.to_string())?;
            prop_assert_eq!(n, bytes.len() - 4);
            let payload = &bytes[4..];
            let decoded = decode(payload);
            prop_assert_eq!(decoded.as_ref(), Ok(frame));
            let cut = ((payload.len() as f64) * cut_frac) as usize;
            if cut < payload.len() {
                prop_assert!(
                    decode(&payload[..cut]).is_err(),
                    "truncation to {} of {} bytes must be a typed error",
                    cut,
                    payload.len()
                );
            }
            Ok(())
        },
    );
}

/// A single bit-flip anywhere in a valid payload decodes to *something*
/// typed — Ok (the flip hit a don't-care bit like a weight mantissa) or
/// a ProtocolError — without panicking or hanging.
#[test]
fn bit_flips_of_valid_frames_never_panic() {
    check(
        "bit_flips_of_valid_frames_never_panic",
        Config::cases_quick(300),
        |g: &mut Gen| {
            let frame = arbitrary_frame(g);
            let bytes = encode(&frame);
            let payload_len = bytes.len() - 4;
            let bit = g.usize_in(0..payload_len * 8);
            (bytes, bit)
        },
        |(bytes, bit)| {
            let mut payload = bytes[4..].to_vec();
            payload[bit / 8] ^= 1 << (bit % 8);
            let _ = decode(&payload);
            Ok(())
        },
    );
}

/// Hostile length prefixes are rejected by `check_len` before any
/// buffer is sized from them.
#[test]
fn length_prefixes_are_validated() {
    check(
        "length_prefixes_are_validated",
        Config::cases_quick(300),
        |g: &mut Gen| (g.u64_any() as u32, g.u32_in(1..DEFAULT_MAX_FRAME)),
        |&(len, max)| {
            match check_len(len, max) {
                Ok(n) => {
                    prop_assert!(len > 0 && len <= max && n == len as usize);
                }
                Err(_) => {
                    prop_assert!(len == 0 || len > max);
                }
            }
            Ok(())
        },
    );
}
