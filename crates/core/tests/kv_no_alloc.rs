//! The KV-allocation guarantee under paging (ISSUE 9 tentpole, paged
//! by ISSUE 10): a sequence's attention cache grows one fixed-size
//! block at a time through in-place row writes — never reallocated per
//! decode step — and a warm [`bolt::KvArena`] block pool serves every
//! reservation from its free list.
//!
//! The global [`bolt_tensor::alloc_count`] counter observes every fresh
//! tensor backing-buffer creation; in-place `data_mut` writes are
//! invisible to it. This file deliberately holds a single `#[test]`:
//! the counter is process-global, and a sibling test allocating tensors
//! concurrently would pollute the deltas.

use bolt::{KvArena, KvSpec};
use bolt_tensor::alloc_count;

fn deltas_during(f: impl FnOnce()) -> u64 {
    let allocs = alloc_count();
    f();
    alloc_count() - allocs
}

#[test]
fn decode_steps_never_reallocate_kv() {
    let spec = KvSpec {
        layers: 4,
        kv_dim: 32,
        max_seq: 96,
        block_rows: 16,
    };
    let budget = spec.blocks_for(spec.max_seq) + 2;
    let arena = KvArena::new(spec, budget);

    // Cold pass: materialize exactly the blocks one full-context
    // sequence needs — one tensor per block, none per decode step.
    let k = vec![0.25f32; spec.kv_dim];
    let v = vec![0.5f32; spec.kv_dim];
    let mut ws = arena.lease();
    let cold = deltas_during(|| {
        for pos in 0..spec.max_seq {
            arena.reserve(&mut ws, pos + 1).expect("under budget");
            for layer in 0..spec.layers {
                ws.write_row(layer, pos, &k, &v).expect("reserved row");
            }
            ws.commit(pos + 1).expect("reserved commit");
        }
    });
    assert_eq!(
        cold,
        spec.blocks_for(spec.max_seq) as u64,
        "cold growth allocates exactly one tensor per block"
    );
    assert_eq!(ws.len(), spec.max_seq);
    let keys = ws.key_chunks(1, 3).expect("committed read");
    assert_eq!(
        keys.clone().map(<[f32]>::len).sum::<usize>(),
        3 * spec.kv_dim
    );
    assert!(keys.flatten().all(|&x| x == 0.25));
    let mut values = ws.value_chunks(3, spec.max_seq).expect("committed read");
    assert!(values.all(|c| c.iter().all(|&x| x == 0.5)));

    // A warm pool admits new sequences allocation-free: release the
    // sequence's blocks, lease again, decode again — zero fresh
    // tensors, every reservation served from the free list.
    arena.release(ws);
    assert_eq!(arena.in_use_blocks(), 0, "release returns every block");
    let fresh_after_cold = arena.fresh_allocations();
    let steady_state = deltas_during(|| {
        for round in 0..5 {
            let mut ws = arena.lease();
            assert!(ws.is_empty(), "leased workspaces start blank");
            for pos in 0..40 {
                arena.reserve(&mut ws, pos + 1).expect("warm pool");
                for layer in 0..spec.layers {
                    ws.write_row(layer, pos, &k, &v).expect("reserved row");
                }
                ws.commit(pos + 1).expect("reserved commit");
            }
            assert_eq!(ws.len(), 40, "round {round}");
            arena.release(ws);
        }
    });
    assert_eq!(steady_state, 0, "warm pool lease/decode/release cycles");
    assert_eq!(
        arena.fresh_allocations(),
        fresh_after_cold,
        "the free list seeded every steady-state reservation"
    );
    assert_eq!(arena.reuses(), 5 * spec.blocks_for(40) as u64);
}
