//! FTL micro-benchmarks: write-path cost with and without GC pressure, the
//! threshold-vs-idle trigger comparison that backs the GC ablation, and
//! the hot-path table structures (flat mapping table, dense resident
//! table) the replay loop leans on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hps_core::Bytes;
use hps_emmc::SchemeKind;
use hps_ftl::gc::GcTrigger;
use hps_ftl::{Ftl, FtlConfig, Lpn, MappingTable, Ppn, ResidentTable};
use hps_nand::{BlockId, Geometry, PageAddr};
use std::hint::black_box;

fn config(trigger: GcTrigger) -> FtlConfig {
    FtlConfig {
        geometry: Geometry::new(1, 1, 1, 2).unwrap(),
        pools: vec![(Bytes::kib(4), 16)],
        pages_per_block: 32,
        gc_trigger: trigger,
        faults: hps_nand::FaultConfig::NONE,
    }
}

fn bench_write_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("ftl_write");
    group.sample_size(20);

    group.bench_function("sequential_no_gc", |b| {
        // Fresh device, distinct LPNs: the allocator fast path. The op
        // buffer is reused across iterations — the same contract as the
        // device's ReplayScratch, so this measures the allocation-free
        // steady state.
        let mut ftl = Ftl::new(config(GcTrigger::default())).unwrap();
        let capacity = 2 * 16 * 32 - 64; // leave a reserve
        let mut lpn = 0u64;
        let mut ops = Vec::with_capacity(64);
        b.iter(|| {
            if lpn >= capacity {
                ftl = Ftl::new(config(GcTrigger::default())).unwrap();
                lpn = 0;
            }
            let plane = (lpn % 2) as usize;
            ops.clear();
            ftl.write_chunk_into(plane, Bytes::kib(4), &[Lpn(lpn)], Bytes::kib(4), &mut ops)
                .unwrap();
            lpn += 1;
            black_box(ops.len())
        });
    });

    for (label, trigger) in [
        (
            "hot_overwrite_threshold_gc",
            GcTrigger::Threshold { min_free_blocks: 2 },
        ),
        (
            "hot_overwrite_idle_gc",
            GcTrigger::Idle {
                min_free_blocks: 2,
                min_invalid_pages: 16,
            },
        ),
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(label),
            &trigger,
            |b, &trigger| {
                // Hot overwrites force steady-state GC.
                let mut ftl = Ftl::new(config(trigger)).unwrap();
                let mut i = 0u64;
                let mut ops = Vec::with_capacity(64);
                b.iter(|| {
                    let lpn = Lpn(i % 48);
                    let plane = (i % 2) as usize;
                    i += 1;
                    ops.clear();
                    ftl.write_chunk_into(plane, Bytes::kib(4), &[lpn], Bytes::kib(4), &mut ops)
                        .unwrap();
                    if trigger.collects_when_idle() && i.is_multiple_of(16) {
                        ftl.idle_gc_into(&mut ops).unwrap();
                    }
                    black_box(ops.len())
                });
            },
        );
    }
    group.finish();
}

fn ppn(plane: usize, block: usize, page: usize) -> Ppn {
    Ppn {
        plane,
        addr: PageAddr {
            block: BlockId(block),
            page,
        },
    }
}

/// The hot-path tables in isolation: mapping lookup (hit and miss), the
/// remap cycle, and the resident occupy/evict cycle — the operations every
/// host chunk pays several times during replay.
fn bench_tables(c: &mut Criterion) {
    let mut group = c.benchmark_group("ftl_map");
    group.sample_size(20);

    // A populated Table V map shaped like a replayed trace: runs of
    // consecutive LPNs in a handful of hot regions.
    const MAPPED: u64 = 1 << 16;
    let table_v = SchemeKind::Hps.table_v_ftl();
    let mut table = MappingTable::for_config(&table_v);
    for i in 0..MAPPED {
        // Eight regions spread across the 8 Mi-LPN logical space.
        let lpn = (i % 8) * (1 << 20) + i / 8;
        table.remap(Lpn(lpn), ppn(0, (i / 1024) as usize, (i % 1024) as usize));
    }

    group.bench_function("lookup_hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            let lpn = (i % 8) * (1 << 20) + (i / 8) % (MAPPED / 8);
            i += 1;
            black_box(table.lookup(Lpn(lpn)))
        });
    });

    group.bench_function("lookup_miss", |b| {
        let mut i = 0u64;
        b.iter(|| {
            // Inside capacity, half a region away from any mapped LPN.
            let lpn = (i % 8) * (1 << 20) + (1 << 19) + (i / 8) % (MAPPED / 8);
            i += 1;
            black_box(table.lookup(Lpn(lpn)))
        });
    });

    group.bench_function("remap_overwrite", |b| {
        let mut table = MappingTable::for_config(&table_v);
        let mut i = 0u64;
        b.iter(|| {
            let lpn = Lpn(i % 4096);
            let loc = ppn(0, (i % 64) as usize, (i % 1024) as usize);
            i += 1;
            black_box(table.remap(lpn, loc))
        });
    });

    group.bench_function("resident_occupy_evict", |b| {
        // Pages are programmed in order within the open block, and blocks
        // open in turn, as `Pool::allocate_page` hands them out.
        const BLOCKS: usize = 64;
        const PAGES: usize = 1024;
        let mut residents = ResidentTable::new(1, BLOCKS, PAGES);
        let mut i = 0u64;
        b.iter(|| {
            // One 8 KiB page: occupy with a pair, evict both (the second
            // eviction vacates the page for the next cycle over the blocks).
            let n = i as usize;
            let p = ppn(0, n / PAGES % BLOCKS, n % PAGES);
            i += 1;
            residents.occupy(p, &[Lpn(2 * i), Lpn(2 * i + 1)]);
            black_box(residents.evict(p, Lpn(2 * i)));
            black_box(residents.evict(p, Lpn(2 * i + 1)))
        });
    });

    group.finish();
}

criterion_group!(benches, bench_write_path, bench_tables);
criterion_main!(benches);
