//! End-to-end guarantees of the persistent artifact store.
//!
//! The disk tier extends the PR-7 contract across processes: a warm
//! run (loading a `--cache-dir` store a previous run flushed) must be
//! answer-identical to a cold one — persistence changes the work a run
//! does, never what it answers — while serving nonzero disk hits on
//! every reuse surface: solved results, donated clause exports and
//! search transcripts. Asserted here through the library API over
//! fresh [`TieredStore`]s per run, so nothing survives in memory
//! between the "processes".

use std::path::{Path, PathBuf};
use std::sync::Arc;

use qbf_bidec::circuits::{registry_table1, with_permuted_copies, Scale};
use qbf_bidec::step::{
    BiDecomposer, Budget, CircuitResult, ClauseBank, DecompConfig, GateOp, Model, ResultCache,
    TieredStore,
};

/// A fresh, empty store directory under the target tmp dir.
fn store_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("store_persist_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(model: Model, seed: u64) -> DecompConfig {
    let mut c = DecompConfig::new(model);
    c.clause_reuse = true;
    c.seed = seed;
    // Partitions only: extraction/verification add nothing to the
    // store surfaces under test and dominate the runtime.
    c.extract = false;
    c.verify = false;
    // Pure work budgets, so truncation (and therefore what gets
    // persisted) is machine-independent.
    c.budget.per_qbf_call = Budget::Unlimited;
    c.budget.per_output = Budget::Unlimited;
    c.budget.per_circuit = Budget::Unlimited;
    c
}

/// One "process": a fresh engine over a fresh store (memory tiers and
/// all), optionally backed by `dir`, flushed before returning.
fn run(
    aig: &qbf_bidec::aig::Aig,
    model: Model,
    seed: u64,
    dir: Option<&Path>,
) -> (CircuitResult, Arc<TieredStore>) {
    let cache = Some(Arc::new(ResultCache::new()));
    let bank = Some(Arc::new(ClauseBank::new()));
    let store = Arc::new(match dir {
        Some(d) => TieredStore::with_disk(cache, bank, d).expect("open store dir"),
        None => TieredStore::memory(cache, bank),
    });
    let mut engine = BiDecomposer::new(config(model, seed));
    engine.set_store(Arc::clone(&store));
    let result = engine
        .decompose_circuit(aig, GateOp::Or)
        .expect("registry circuits are well-formed");
    store.flush().expect("flush store");
    (result, store)
}

/// Everything result-shaped must match; work counters may not.
fn assert_same_answers(a: &CircuitResult, b: &CircuitResult, tag: &str) {
    assert_eq!(a.outputs.len(), b.outputs.len(), "{tag}: output count");
    for (x, y) in a.outputs.iter().zip(&b.outputs) {
        let t = format!("{tag}: output {} ({})", x.output_index, x.name);
        assert_eq!(x.name, y.name, "{t}: name");
        assert_eq!(x.support, y.support, "{t}: support");
        assert_eq!(x.partition, y.partition, "{t}: partition");
        assert_eq!(x.solved, y.solved, "{t}: solved");
        assert_eq!(x.proved_optimal, y.proved_optimal, "{t}: proved_optimal");
    }
}

/// The acceptance scenario, result surface: a second "process" with
/// the same config replays every output from the disk tier and answers
/// identically.
#[test]
fn warm_results_come_from_disk_and_change_nothing() {
    let entry = &registry_table1()[2]; // s38584.1: 8 outputs
    let aig = entry.build(Scale::Smoke);
    let dir = store_dir("results");
    let (baseline, _) = run(&aig, Model::QbfDisjoint, 1, None);
    let (cold, cold_store) = run(&aig, Model::QbfDisjoint, 1, Some(&dir));
    let (warm, warm_store) = run(&aig, Model::QbfDisjoint, 1, Some(&dir));

    assert_same_answers(&baseline, &cold, "cold vs memory-only");
    assert_same_answers(&cold, &warm, "warm vs cold");
    assert_eq!(cold_store.disk_result_hits(), 0, "the store started empty");
    assert_eq!(
        warm_store.disk_result_hits() as usize,
        warm.outputs.len(),
        "every output replays from disk"
    );
    assert_eq!(warm.disk_hits(), warm_store.disk_result_hits());
    assert!(
        warm.total_sat_calls() < cold.total_sat_calls(),
        "replayed outputs solve nothing"
    );
}

/// The acceptance scenario, clause + search surfaces: a warm run
/// under a *different seed* misses the result namespace (the seed is
/// result-relevant) but still warm-starts from the seed-independent
/// clause and search namespaces — a search replays whenever the seed's
/// STEP-MG bootstrap starts it at the same bound — and answers exactly
/// like its own memory-only baseline.
#[test]
fn warm_clauses_and_probes_cross_result_config_boundaries() {
    let entry = &registry_table1()[2]; // s38584.1: 8 outputs
    let aig = with_permuted_copies(&entry.build(Scale::Smoke), 2);
    let dir = store_dir("clauses_probes");
    let (_, _) = run(&aig, Model::QbfDisjoint, 1, Some(&dir));
    let (baseline, _) = run(&aig, Model::QbfDisjoint, 2, None);
    let (warm, warm_store) = run(&aig, Model::QbfDisjoint, 2, Some(&dir));

    assert_same_answers(&baseline, &warm, "warm vs memory-only");
    assert_eq!(
        warm_store.disk_result_hits(),
        0,
        "a different seed is a different result namespace"
    );
    assert!(
        warm_store.disk_clause_hits() > 0,
        "donated clause exports serve any seed"
    );
    assert!(
        warm_store.disk_search_hits() > 0,
        "search transcripts serve any seed"
    );
    assert!(
        warm.disk_hits() >= warm_store.disk_clause_hits() + warm_store.disk_search_hits(),
        "per-output disk hits book both surfaces"
    );
}

/// Store corruption is a cold start, not a crash: truncating the tail
/// of every store file mid-record still loads the intact prefix, the
/// run completes with identical answers, and `corrupt_records` says
/// what happened.
#[test]
fn corrupt_store_files_degrade_to_a_partial_warm_start() {
    let entry = &registry_table1()[2];
    let aig = entry.build(Scale::Smoke);
    let dir = store_dir("corrupt");
    let (cold, _) = run(&aig, Model::QbfDisjoint, 1, Some(&dir));

    for file in std::fs::read_dir(&dir).expect("read store dir") {
        let path = file.expect("dir entry").path();
        let bytes = std::fs::read(&path).expect("read store file");
        // Chop into the last record's payload.
        std::fs::write(&path, &bytes[..bytes.len().saturating_sub(7)]).expect("truncate");
    }

    let (warm, warm_store) = run(&aig, Model::QbfDisjoint, 1, Some(&dir));
    assert_same_answers(&cold, &warm, "post-corruption");
    let disk = warm_store.disk().expect("disk tier attached");
    assert!(
        disk.corrupt_records() > 0,
        "the chopped tails must be counted"
    );
}

/// Copies every store file of `from` into a fresh `<tag>` directory,
/// rewriting the namespace string in its header through `rename` and
/// giving it a new file name: the store a build with other namespace
/// strings would have left behind.
fn copy_renamed(from: &Path, tag: &str, rename: impl Fn(&str) -> String) -> PathBuf {
    let to = store_dir(tag);
    std::fs::create_dir_all(&to).expect("create store dir");
    let mut files: Vec<PathBuf> = std::fs::read_dir(from)
        .expect("read store dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    files.sort();
    for (i, path) in files.iter().enumerate() {
        let bytes = std::fs::read(path).expect("read store file");
        // Header: magic (8), version (4), kind (1), length (4), string.
        let len = u32::from_le_bytes(bytes[13..17].try_into().unwrap()) as usize;
        let config = std::str::from_utf8(&bytes[17..17 + len]).expect("utf-8 namespace");
        let renamed = rename(config);
        let mut out = bytes[..13].to_vec();
        out.extend_from_slice(&(renamed.len() as u32).to_le_bytes());
        out.extend_from_slice(renamed.as_bytes());
        out.extend_from_slice(&bytes[17 + len..]);
        std::fs::write(to.join(format!("copy-{i}.stepstore")), out).expect("write store file");
    }
    to
}

/// A store written before the warm abstraction holds witnesses of the
/// old solve, which may differ from today's (equally optimal) ones. Its
/// result and search namespace strings carry the older
/// `exists=linear;refine=clause;` tag instead of
/// `exists=linear;refine=clause;abstraction=warm;`, so a warm run over
/// it gets no QBF disk hit and answers like a cold run. The same files
/// with today's strings do replay, so the misses come from the strings
/// alone.
#[test]
fn stores_of_another_qbf_encoding_are_not_replayed() {
    let entry = &registry_table1()[2]; // s38584.1: 8 outputs
    let aig = with_permuted_copies(&entry.build(Scale::Smoke), 2);
    let dir = store_dir("encoding");
    let (cold, _) = run(&aig, Model::QbfDisjoint, 1, Some(&dir));
    let (cold_seed2, _) = run(&aig, Model::QbfDisjoint, 2, None);
    // Rewrites today's tag to the previous one. A tagged namespace
    // without today's tag (a forgotten bump) fails here; the clause
    // namespace carries no tag and is kept.
    let untag = |c: &str| {
        if !c.starts_with("exists=") {
            return c.to_owned();
        }
        let rest = c
            .strip_prefix("exists=linear;refine=clause;abstraction=warm;")
            .unwrap_or_else(|| panic!("namespace {c:?} lacks today's encoding tag"));
        format!("exists=linear;refine=clause;{rest}")
    };

    // Same seed: the result namespace serves, or misses when untagged.
    let same = copy_renamed(&dir, "encoding_same", str::to_owned);
    let (_, store) = run(&aig, Model::QbfDisjoint, 1, Some(&same));
    assert!(store.disk_result_hits() > 0, "control: results replay");
    let old = copy_renamed(&dir, "encoding_old", untag);
    let (warm, store) = run(&aig, Model::QbfDisjoint, 1, Some(&old));
    assert_same_answers(&cold, &warm, "old-encoding store vs cold");
    assert_eq!(store.disk_result_hits(), 0, "old-encoding results");
    assert_eq!(store.disk_search_hits(), 0, "old-encoding searches");

    // Another seed misses the results, so the search namespace answers.
    let same = copy_renamed(&dir, "encoding_same_seed2", str::to_owned);
    let (_, store) = run(&aig, Model::QbfDisjoint, 2, Some(&same));
    assert!(store.disk_search_hits() > 0, "control: searches replay");
    let old = copy_renamed(&dir, "encoding_old_seed2", untag);
    let (warm, store) = run(&aig, Model::QbfDisjoint, 2, Some(&old));
    assert_same_answers(&cold_seed2, &warm, "old-encoding store vs cold, seed 2");
    assert_eq!(store.disk_result_hits(), 0, "old-encoding results, seed 2");
    assert_eq!(store.disk_search_hits(), 0, "old-encoding searches, seed 2");
}
