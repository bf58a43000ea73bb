//! Deterministic unit tests for the paged block-KV allocator (ISSUE 10
//! tentpole): block-table growth and release, typed capacity errors,
//! budget exhaustion, and memory-pressure withholding. These are the
//! governor's mechanical invariants; the serving-layer policy on top
//! (watermarks, preemption) is tested in `bolt-serve`.

use bolt::{BoltError, KvArena, KvSpec};

fn spec() -> KvSpec {
    KvSpec {
        layers: 2,
        kv_dim: 8,
        max_seq: 64,
        block_rows: 4,
    }
}

#[test]
fn block_table_grows_one_block_at_a_time() {
    let spec = spec();
    let arena = KvArena::new(spec, 16);
    let mut ws = arena.lease();
    assert_eq!(ws.block_count(), 0);
    assert_eq!(ws.reserved_rows(), 0);

    for rows in 1..=13 {
        arena.reserve(&mut ws, rows).expect("under budget");
        assert_eq!(ws.block_count(), spec.blocks_for(rows), "rows {rows}");
        assert_eq!(
            ws.reserved_rows(),
            spec.blocks_for(rows) * spec.block_rows,
            "coverage is block-granular"
        );
    }
    assert_eq!(arena.in_use_blocks(), spec.blocks_for(13));

    // Shrinking requests are no-ops: reserve never gives blocks back.
    arena.reserve(&mut ws, 2).expect("already covered");
    assert_eq!(ws.block_count(), spec.blocks_for(13));
}

#[test]
fn writes_and_reads_land_in_the_right_block() {
    let spec = spec();
    let arena = KvArena::new(spec, 16);
    let mut ws = arena.lease();
    arena.reserve(&mut ws, 11).expect("under budget");

    // Distinct fill per (layer, position) so cross-block reads expose
    // any offset mistake.
    for pos in 0..11 {
        for layer in 0..spec.layers {
            let k = vec![(layer * 100 + pos) as f32; spec.kv_dim];
            let v = vec![-((layer * 100 + pos) as f32); spec.kv_dim];
            ws.write_row(layer, pos, &k, &v).expect("reserved row");
        }
    }
    ws.commit(11).expect("reserved commit");

    for layer in 0..spec.layers {
        let chunks: Vec<&[f32]> = ws.key_chunks(layer, 11).expect("committed read").collect();
        assert_eq!(chunks.len(), spec.blocks_for(11), "one chunk per block");
        assert_eq!(
            chunks.iter().map(|c| c.len()).sum::<usize>(),
            11 * spec.kv_dim,
            "chunks concatenate to exactly n rows"
        );
        let mut pos = 0;
        for chunk in &chunks {
            for row in chunk.chunks(spec.kv_dim) {
                assert!(row.iter().all(|&x| x == (layer * 100 + pos) as f32));
                pos += 1;
            }
        }
        let vals = ws.value_chunks(layer, 11).expect("committed read");
        let mut pos = 0;
        for chunk in vals {
            for row in chunk.chunks(spec.kv_dim) {
                assert!(row.iter().all(|&x| x == -((layer * 100 + pos) as f32)));
                pos += 1;
            }
        }
    }
}

#[test]
fn capacity_misuse_is_a_typed_error_not_a_panic() {
    let spec = spec();
    let arena = KvArena::new(spec, 16);
    let mut ws = arena.lease();
    arena.reserve(&mut ws, 4).expect("one block");

    let k = vec![0.0f32; spec.kv_dim];
    // Write past the reserved table.
    match ws.write_row(0, 4, &k, &k) {
        Err(BoltError::KvCapacity {
            pos: 4,
            reserved: 4,
            ..
        }) => {}
        other => panic!("expected KvCapacity, got {other:?}"),
    }
    // Commit past the reserved table.
    assert!(matches!(ws.commit(5), Err(BoltError::KvCapacity { .. })));
    // Read past the reserved table.
    assert!(matches!(
        ws.key_chunks(0, 5),
        Err(BoltError::KvCapacity { .. })
    ));
    // Reserve past the context capacity.
    assert!(matches!(
        arena.reserve(&mut ws, spec.max_seq + 1),
        Err(BoltError::KvCapacity { .. })
    ));
}

#[test]
fn malformed_rows_and_layers_are_typed_errors_not_panics() {
    let spec = spec();
    let arena = KvArena::new(spec, 16);
    let mut ws = arena.lease();
    arena.reserve(&mut ws, 4).expect("one block");
    let row = vec![1.0f32; spec.kv_dim];
    for layer in 0..spec.layers {
        ws.write_row(layer, 0, &row, &row).expect("well-formed row");
    }
    ws.commit(1).expect("reserved commit");

    let short = vec![2.0f32; spec.kv_dim - 1];
    let bad_writes: [(usize, &[f32], &[f32]); 3] = [
        (0, &short, &row),
        (0, &row, &short),
        (spec.layers, &row, &row),
    ];
    for (layer, k, v) in bad_writes {
        match ws.write_row(layer, 1, k, v) {
            Err(BoltError::BadInput { reason }) => {
                let named = if layer == spec.layers {
                    [format!("layer {layer}"), format!("{}-layer", spec.layers)]
                } else {
                    [
                        format!("width {}", short.len()),
                        format!("kv_dim {}", spec.kv_dim),
                    ]
                };
                for part in named {
                    assert!(reason.contains(&part), "{reason:?} names {part:?}");
                }
            }
            other => panic!("expected BadInput, got {other:?}"),
        }
        assert_eq!(ws.len(), 1, "a rejected write publishes nothing");
    }
    for layer in 0..spec.layers {
        let written: Vec<f32> = ws
            .key_chunks(layer, 2)
            .expect("read")
            .flatten()
            .copied()
            .collect();
        assert!(
            written[spec.kv_dim..].iter().all(|&x| x == 0.0),
            "nothing written"
        );
    }
    assert!(matches!(
        ws.key_chunks(spec.layers, 1),
        Err(BoltError::BadInput { .. })
    ));
    assert!(matches!(
        ws.value_chunks(spec.layers, 1),
        Err(BoltError::BadInput { .. })
    ));
    assert_eq!(ws.len(), 1);
}

#[test]
fn exhaustion_and_release_round_trip() {
    let spec = spec();
    let arena = KvArena::new(spec, 3);
    let mut a = arena.lease();
    let mut b = arena.lease();
    arena.reserve(&mut a, 2 * spec.block_rows).expect("2 of 3");
    arena.reserve(&mut b, spec.block_rows).expect("3 of 3");
    assert_eq!(arena.free_blocks(), 0);

    // Pool dry: the next reservation fails with full accounting, and
    // blocks acquired so far stay attached.
    match arena.reserve(&mut b, 2 * spec.block_rows) {
        Err(BoltError::KvExhausted {
            needed: 1,
            in_use: 3,
            budget: 3,
            withheld: 0,
        }) => {}
        other => panic!("expected KvExhausted, got {other:?}"),
    }
    assert_eq!(b.block_count(), 1, "partial reservations keep their blocks");

    // Releasing the victim frees capacity; the retry takes only the
    // remainder, from the free list.
    arena.release(a);
    assert_eq!(arena.free_blocks(), 2);
    let fresh = arena.fresh_allocations();
    arena
        .reserve(&mut b, 2 * spec.block_rows)
        .expect("freed capacity");
    assert_eq!(
        arena.fresh_allocations(),
        fresh,
        "retry reuses freed blocks"
    );
    assert_eq!(arena.in_use_blocks(), 2);
    arena.release(b);
    assert_eq!(arena.in_use_blocks(), 0);
    assert_eq!(arena.free_list_len(), 3, "every materialized block pooled");
    assert_eq!(
        arena.resident_bytes(),
        3 * spec.block_bytes(),
        "resident bytes track materialized blocks, in use or free"
    );
}

#[test]
fn withheld_blocks_shrink_the_usable_pool_without_touching_live_state() {
    let spec = spec();
    let arena = KvArena::new(spec, 4);
    let mut ws = arena.lease();
    arena.reserve(&mut ws, 2 * spec.block_rows).expect("2 of 4");

    arena.set_withheld(2);
    assert_eq!(arena.free_blocks(), 0, "withheld blocks are unusable");
    assert!(matches!(
        arena.reserve(&mut ws, 3 * spec.block_rows),
        Err(BoltError::KvExhausted { withheld: 2, .. })
    ));
    // Live blocks are untouched: reads still work.
    assert!(ws.key_chunks(0, 2 * spec.block_rows).is_ok());

    // Pressure lifting restores the full budget.
    arena.set_withheld(0);
    arena
        .reserve(&mut ws, 3 * spec.block_rows)
        .expect("pressure lifted");
    arena.release(ws);
}
