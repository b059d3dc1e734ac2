//! Message payloads for split-phase EARTH operations.

/// A value moved between nodes by `data_sync` / block-move operations.
///
/// EARTH moves raw words and blocks; we type the common payloads the
/// reproduced programs need. Sizes reported by [`Value::bytes`] drive the
/// simulated network's bandwidth charges.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A single floating-point word (`DATA_SYNC` of one double).
    Scalar(f64),
    /// A single integer word.
    Int(i64),
    /// A block of doubles (`BLKMOV`).
    F64s(Box<[f64]>),
}

impl Value {
    /// Payload size in bytes (what the interconnect must carry).
    pub fn bytes(&self) -> u64 {
        match self {
            Value::Scalar(_) | Value::Int(_) => 8,
            Value::F64s(v) => 8 * v.len() as u64,
        }
    }

    /// Borrow as a slice of doubles; panics when the variant differs.
    pub fn expect_f64s(&self) -> &[f64] {
        match self {
            Value::F64s(v) => v,
            other => panic!("expected F64s payload, got {other:?}"),
        }
    }

    /// Extract a scalar; panics when the variant differs.
    pub fn expect_scalar(&self) -> f64 {
        match self {
            Value::Scalar(v) => *v,
            other => panic!("expected Scalar payload, got {other:?}"),
        }
    }

    /// Extract an integer; panics when the variant differs.
    pub fn expect_int(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            other => panic!("expected Int payload, got {other:?}"),
        }
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Scalar(v)
    }
}

impl From<Vec<f64>> for Value {
    fn from(v: Vec<f64>) -> Self {
        Value::F64s(v.into_boxed_slice())
    }
}

/// Compose a mailbox key from a tag and a sequence number.
///
/// Programs address messages by `u64` keys; using a tag in the high bits
/// and a sequence number (phase, timestep, …) in the low bits keeps
/// independent message streams from colliding.
#[inline]
pub const fn mailbox_key(tag: u32, seq: u32) -> u64 {
    ((tag as u64) << 32) | seq as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_sizes() {
        assert_eq!(Value::Scalar(1.0).bytes(), 8);
        assert_eq!(Value::Int(3).bytes(), 8);
        assert_eq!(Value::from(vec![0.0f64; 10]).bytes(), 80);
    }

    #[test]
    fn accessors_roundtrip() {
        assert_eq!(Value::Scalar(2.5).expect_scalar(), 2.5);
        assert_eq!(Value::Int(-3).expect_int(), -3);
        let v = Value::from(vec![1.0, 2.0]);
        assert_eq!(v.expect_f64s(), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "expected F64s")]
    fn wrong_variant_panics() {
        Value::Int(0).expect_f64s();
    }

    #[test]
    fn mailbox_keys_distinct() {
        assert_ne!(mailbox_key(1, 0), mailbox_key(0, 1));
        assert_ne!(mailbox_key(1, 2), mailbox_key(2, 1));
        assert_eq!(mailbox_key(3, 4), (3u64 << 32) | 4);
    }
}
