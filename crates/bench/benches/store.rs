//! Persistent artifact-store benchmarks: what a `--cache-dir` costs.
//!
//! The disk tier's job is to make warm starts cheap, so the numbers
//! that matter are the bulk paths a real run exercises once each:
//! flushing a populated store to disk at exit and loading it back at
//! spawn, both at a sweep-sized entry count. The record log is
//! append-only and checksummed; these benches keep the entry mix
//! representative (mostly results, a slice of clause exports) without
//! growing payloads past what smoke-scale sweeps produce.

use std::path::PathBuf;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use step_aig::ConeFingerprint;
use step_cnf::{Lit, Var};
use step_core::{
    Artifact, ArtifactKey, ArtifactStore, CachedResult, ClausePayload, DecompConfig, GateOp, Model,
    Namespace, TieredStore, VarClass,
};
use step_sat::LearntExport;

const ENTRIES: usize = 10_000;
/// One clause export per this many result entries.
const CLAUSE_STRIDE: usize = 5;

/// A fresh, empty store directory under the target tmp dir.
fn store_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("bench_store_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deterministic synthetic fingerprint: distinct per index, with
/// support sizes in the range smoke sweeps produce.
fn fingerprint(i: usize) -> ConeFingerprint {
    ConeFingerprint {
        hash: (i as u128).wrapping_mul(0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C834) | 1,
        inputs: 4 + (i % 28) as u32,
        ands: 8 + (i % 100) as u32,
    }
}

/// A small partition over `n` canonical inputs.
fn classes(n: u32) -> Vec<VarClass> {
    (0..n)
        .map(|v| match v % 3 {
            0 => VarClass::A,
            1 => VarClass::B,
            _ => VarClass::C,
        })
        .collect()
}

/// A clause export of the shape donors produce: a handful of short
/// sorted clauses plus normalized activities.
fn export(i: usize) -> LearntExport {
    let clauses = (0..8)
        .map(|c| {
            (0..3)
                .map(|l| {
                    let v = Var::new((i + c + l) % 32);
                    if (i + l).is_multiple_of(2) {
                        Lit::pos(v)
                    } else {
                        Lit::neg(v)
                    }
                })
                .collect()
        })
        .collect();
    LearntExport {
        clauses,
        activities: (0..4usize)
            .map(|a| (Var::new(a), 1.0 / (a + 1) as f64))
            .collect(),
    }
}

/// Fills a store with the synthetic population (no tier 0 attached:
/// the disk tier is the thing under measurement).
fn populate(store: &TieredStore) {
    let config = DecompConfig::new(Model::QbfDisjoint);
    let results = Namespace::results(&config);
    let clauses = Namespace::clauses();
    for i in 0..ENTRIES {
        let fp = fingerprint(i);
        if i.is_multiple_of(CLAUSE_STRIDE) {
            store.put(
                &clauses,
                &ArtifactKey::of(fp, GateOp::Or),
                Artifact::Clauses(ClausePayload {
                    export: Arc::new(export(i)),
                    exact: true,
                }),
            );
        } else {
            store.insert_result(
                &results,
                fp,
                GateOp::Or,
                CachedResult {
                    partition: Some(classes(fp.inputs)),
                    proved_optimal: i.is_multiple_of(2),
                },
            );
        }
    }
}

/// Flush cost: populating a fresh store and writing every record out.
/// Each iteration starts from a clean directory so the append-only log
/// actually appends `ENTRIES` records; the in-memory population is
/// part of the measurement but the record encoding + checksummed I/O
/// of the flush dominates.
fn bench_flush(c: &mut Criterion) {
    let mut g = c.benchmark_group("store");
    g.sample_size(10);
    g.bench_function("flush_10k", |b| {
        b.iter(|| {
            let dir = store_dir("flush");
            let store = TieredStore::with_disk(None, None, &dir).expect("open store");
            populate(&store);
            let written = store.flush().expect("flush");
            assert_eq!(written, ENTRIES as u64);
        });
    });
    g.finish();
}

/// Load cost: opening a directory holding a flushed 10k-entry store —
/// the price a warm run pays at spawn before any solving starts.
fn bench_load(c: &mut Criterion) {
    let dir = store_dir("load");
    let store = TieredStore::with_disk(None, None, &dir).expect("open store");
    populate(&store);
    assert_eq!(store.flush().expect("flush"), ENTRIES as u64);
    drop(store);

    let mut g = c.benchmark_group("store");
    g.sample_size(10);
    g.bench_function("load_10k", |b| {
        b.iter(|| {
            let store = TieredStore::with_disk(None, None, &dir).expect("open store");
            let disk = store.disk().expect("disk tier attached");
            assert_eq!(disk.loaded_records(), ENTRIES as u64);
            assert_eq!(disk.corrupt_records(), 0);
        });
    });
    g.finish();
}

criterion_group!(benches, bench_flush, bench_load);
criterion_main!(benches);
