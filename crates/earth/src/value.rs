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
    /// A block of doubles (`BLKMOV`) — e.g. a rotating reduction portion.
    F64s(Box<[f64]>),
    /// A block of doubles shared between several in-flight messages
    /// (e.g. one broadcast segment fanned out to `P − 1` destinations):
    /// cloning the `Value` clones the `Arc`, not the data. The network
    /// still charges the full payload size per message — sharing is a
    /// sender-side memory optimization, not a modeled hardware feature.
    F64sShared(std::sync::Arc<[f64]>),
}

impl Value {
    /// Payload size in bytes (what the interconnect must carry).
    pub fn bytes(&self) -> u64 {
        match self {
            Value::Scalar(_) | Value::Int(_) => 8,
            Value::F64s(v) => 8 * v.len() as u64,
            Value::F64sShared(v) => 8 * v.len() as u64,
        }
    }

    /// Borrow as a slice of doubles; panics when the variant differs.
    pub fn expect_f64s(&self) -> &[f64] {
        match self {
            Value::F64s(v) => v,
            Value::F64sShared(v) => v,
            other => panic!("expected F64s payload, got {other:?}"),
        }
    }

    /// Consume into a boxed slice of doubles; panics when the variant
    /// differs. A shared payload is copied out (the rare path — hot
    /// consumers borrow via [`Self::expect_f64s`] instead).
    pub fn into_f64s(self) -> Box<[f64]> {
        match self {
            Value::F64s(v) => v,
            Value::F64sShared(v) => v.to_vec().into_boxed_slice(),
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
        assert_eq!(&*v.into_f64s(), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "expected F64s")]
    fn wrong_variant_panics() {
        Value::Int(0).expect_f64s();
    }

    #[test]
    fn shared_blocks_behave_like_owned() {
        let seg: std::sync::Arc<[f64]> = vec![1.0, 2.0, 3.0].into();
        let v = Value::F64sShared(std::sync::Arc::clone(&seg));
        assert_eq!(v.bytes(), 24);
        assert_eq!(v.expect_f64s(), &[1.0, 2.0, 3.0]);
        // Cloning the value shares the block instead of copying it.
        let c = v.clone();
        assert_eq!(std::sync::Arc::strong_count(&seg), 3);
        assert_eq!(&*c.into_f64s(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn mailbox_keys_distinct() {
        assert_ne!(mailbox_key(1, 0), mailbox_key(0, 1));
        assert_ne!(mailbox_key(1, 2), mailbox_key(2, 1));
        assert_eq!(mailbox_key(3, 4), (3u64 << 32) | 4);
    }
}
