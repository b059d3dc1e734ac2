//! Golden counters for the cache model: a fixed seeded trace of one
//! million mixed accesses on the i860XP geometry must produce exactly
//! these `MemStats`. They were taken from the stamp-clock LRU cache the
//! recency-ordered one replaced, so any drift in hit, miss or write-back
//! semantics fails here without running the simulator.

use harness::Rng64;
use memsim::{MemConfig, MemModel, MemStats};

/// One million accesses, 30 % writes: 35 % on the previous access's line,
/// 25 % streaming through 8-byte words, 30 % uniform over 64 KiB (4× the
/// cache) and 10 % uniform over 4 MiB.
fn golden_trace(model: &mut MemModel) {
    let mut rng = Rng64::seed_from_u64(0x6d65_6d73_696d);
    let (mut prev, mut stream) = (0u64, 1u64 << 24);
    for _ in 0..1_000_000 {
        let addr = match rng.gen_range(0..20u32) {
            0..=6 => prev & !31 | rng.gen_range(0..32u64),
            7..=11 => {
                stream += 8;
                stream
            }
            12..=17 => rng.gen_range(0..64 * 1024u64),
            _ => rng.gen_range(0..4 * 1024 * 1024u64),
        };
        if rng.gen_bool(0.3) {
            model.write(addr);
        } else {
            model.read(addr);
        }
        prev = addr;
    }
}

#[test]
fn i860xp_mixed_trace_stats_are_pinned() {
    let mut model = MemModel::new(MemConfig::i860xp());
    golden_trace(&mut model);
    assert_eq!(
        model.stats(),
        MemStats {
            reads: 699_760,
            writes: 300_240,
            misses: 415_498,
            writebacks: 204_752,
            cycles: 11_369_468,
        }
    );
}
