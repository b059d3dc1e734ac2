//! The bulk array codec against the per-element codec it replaced: every
//! array-carrying frame must encode to the same bytes, and a frame cut
//! inside any array must fail decode with `Truncated` naming that array.

use std::ops::Range;

use server::protocol::{
    decode, encode, FaultSpec, Frame, JobOk, ProtocolError, SubmitJob, SubmitSource,
};

/// Array lengths around the edges of any chunking, plus the benchmark's
/// iteration count (its frames are ≈ 2 MB).
const LENGTHS: [usize; 6] = [0, 1, 7, 8, 9, 131_072];

/// The per-element reference encoder. Besides the bytes it records, for
/// every array, the field name the decoder reports when the array is cut
/// short and the array's byte range within the payload (the frame minus
/// its 4-byte length prefix).
#[derive(Default)]
struct Reference {
    out: Vec<u8>,
    arrays: Vec<(&'static str, Range<usize>)>,
}

impl Reference {
    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.out.extend_from_slice(s.as_bytes());
    }
    fn array<T: Copy>(&mut self, what: &'static str, vs: &[T], put: fn(&mut Self, T)) {
        let start = self.out.len() - 4;
        for &v in vs {
            put(self, v);
        }
        self.arrays.push((what, start..self.out.len() - 4));
    }
    fn f64s(&mut self, what: &'static str, vs: &[f64]) {
        self.array(what, vs, |r, v| r.u64(v.to_bits()));
    }
    fn u32s(&mut self, what: &'static str, vs: &[u32]) {
        self.array(what, vs, Self::u32);
    }

    fn encode(frame: &Frame) -> Reference {
        let mut r = Reference {
            out: vec![0; 4],
            ..Reference::default()
        };
        match frame {
            Frame::SubmitJob(j) => {
                r.u8(0x03);
                r.u64(j.job_id);
                r.u32(j.deadline_ms);
                r.u8(j.flags);
                r.u32(j.num_elements);
                r.u32(j.iterations);
                r.u8(j.num_refs);
                r.u8(j.num_arrays);
                r.u16(j.procs);
                r.u16(j.k);
                r.u8(j.dist);
                r.u16(j.sweeps);
                match j.fault {
                    Some(f) => {
                        r.u8(f.kind);
                        r.u64(f.seed);
                    }
                    None => r.u8(0),
                }
                r.f64s("weights", &j.weights);
                for arr in &j.indirection {
                    r.u32s("indirection", arr);
                }
            }
            Frame::SubmitSource(s) => {
                r.u8(0x0C);
                r.u64(s.job_id);
                r.u32(s.deadline_ms);
                r.u16(s.procs);
                r.u16(s.k);
                r.u8(s.dist);
                r.u16(s.sweeps);
                r.str(&s.source);
                r.u8(s.sizes.len() as u8);
                for (name, v) in &s.sizes {
                    r.str(name);
                    r.u32(*v);
                }
                r.u8(s.f64s.len() as u8);
                for (name, arr) in &s.f64s {
                    r.str(name);
                    r.u32(arr.len() as u32);
                    r.f64s("f64 binding values", arr);
                }
                r.u8(s.ints.len() as u8);
                for (name, arr) in &s.ints {
                    r.str(name);
                    r.u32(arr.len() as u32);
                    r.u32s("int binding values", arr);
                }
            }
            Frame::JobOk(o) => {
                r.u8(0x04);
                r.u64(o.job_id);
                r.u8(o.degraded);
                r.u32(o.attempts);
                r.u32(o.fault_seeds.len() as u32);
                for s in &o.fault_seeds {
                    match s {
                        Some(v) => {
                            r.u8(1);
                            r.u64(*v);
                        }
                        None => r.u8(0),
                    }
                }
                r.u8(o.values.len() as u8);
                for arr in &o.values {
                    r.u32(arr.len() as u32);
                    r.f64s("values", arr);
                }
            }
            other => panic!("the reference encodes array frames only, not {other:?}"),
        }
        let len = (r.out.len() - 4) as u32;
        r.out[..4].copy_from_slice(&len.to_le_bytes());
        r
    }
}

fn weights(n: usize) -> Vec<f64> {
    // Negative, fractional, huge and signed-zero values: bit patterns
    // with every byte in play.
    (0..n)
        .map(|i| match i % 4 {
            0 => i as f64 * 0.5 - 3.0,
            1 => -1.25e300,
            2 => -0.0,
            _ => f64::from_bits(0x0123_4567_89AB_CDEF ^ i as u64),
        })
        .collect()
}

fn indices(n: usize, mul: u32) -> Vec<u32> {
    (0..n as u32)
        .map(|i| (i.wrapping_mul(mul) % 16_384) | ((i % 3) << 24))
        .collect()
}

/// One frame of each array-carrying kind, with arrays of length `n`
/// (and, where the frame allows, of neighbouring lengths too).
fn frames(n: usize) -> Vec<Frame> {
    vec![
        Frame::SubmitJob(SubmitJob {
            job_id: 7,
            deadline_ms: 250,
            flags: 0,
            num_elements: 16_384,
            iterations: n as u32,
            num_refs: 2,
            num_arrays: 1,
            procs: 4,
            k: 2,
            dist: 1,
            sweeps: 2,
            fault: Some(FaultSpec { kind: 2, seed: 42 }),
            weights: weights(n),
            indirection: vec![indices(n, 7), indices(n, 13)],
        }),
        Frame::SubmitSource(SubmitSource {
            job_id: 11,
            deadline_ms: 0,
            procs: 4,
            k: 2,
            dist: 0,
            sweeps: 1,
            source: "double X[n]; int A[e];".into(),
            sizes: vec![("n".into(), 16_384), ("e".into(), n as u32)],
            f64s: vec![("W".into(), weights(n)), ("V".into(), weights(n + 1))],
            ints: vec![("A".into(), indices(n, 5)), ("B".into(), indices(n, 3))],
        }),
        Frame::JobOk(JobOk {
            job_id: 9,
            degraded: 1,
            attempts: 2,
            fault_seeds: vec![Some(3), None],
            values: vec![weights(n), weights(n + 2)],
        }),
    ]
}

#[test]
fn bulk_encode_is_byte_identical_to_the_per_element_encoder() {
    for n in LENGTHS {
        for frame in frames(n) {
            let reference = Reference::encode(&frame);
            let bytes = encode(&frame);
            assert!(
                bytes == reference.out,
                "n = {n}: bytes differ from the reference"
            );
            assert_eq!(bytes.capacity(), bytes.len(), "one exact reservation");
            // A `SubmitJob` needs at least one iteration to be valid.
            if n > 0 || !matches!(frame, Frame::SubmitJob(_)) {
                assert!(decode(&bytes[4..]) == Ok(frame), "n = {n}: roundtrip");
            }
        }
    }
}

#[test]
fn a_cut_inside_any_array_names_that_array() {
    for n in [1, 7, 8, 9] {
        for frame in frames(n) {
            let reference = Reference::encode(&frame);
            let payload = &reference.out[4..];
            for (what, span) in &reference.arrays {
                for cut in [span.start + 1, span.start + span.len() / 2, span.end - 1] {
                    assert_eq!(
                        decode(&payload[..cut]),
                        Err(ProtocolError::Truncated { what }),
                        "n = {n}, cut at {cut} inside {what} {span:?}"
                    );
                }
            }
        }
    }
}
