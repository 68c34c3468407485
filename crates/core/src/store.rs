//! The [`TieredStore`]: the one reuse handle engines and services
//! hold, over all three reuse surfaces, with an optional persistent
//! disk tier.
//!
//! Three reuse surfaces key on the same canonical 128-bit cone
//! fingerprint: solved partitions ([`ResultCache`]), donated learnt
//! clauses ([`ClauseBank`]'s exact and cluster channels) and probe
//! certificates (the bank's probe channel, read and written through a
//! [`ProbeLedger`](crate::clause_bank::ProbeLedger)). The store stacks
//! two tiers under each:
//!
//! * **tier 0** — the sharded in-memory structures, each optional;
//! * **tier 1** — a persistent, mergeable [`DiskTier`]: one
//!   append-only, checksummed record log per `(artifact kind,
//!   config key)` namespace, loaded at service spawn and flushed at
//!   shutdown.
//!
//! Each surface has one typed lookup/record pair that consults tier 0
//! first, falls back to the disk tier and promotes disk hits into tier
//! 0: [`lookup_result`](TieredStore::lookup_result) /
//! [`insert_result`](TieredStore::insert_result),
//! [`lookup_clauses`](TieredStore::lookup_clauses) /
//! [`donate`](TieredStore::donate) and
//! [`lookup_probe`](TieredStore::lookup_probe) /
//! [`record_probe`](TieredStore::record_probe).
//!
//! A [`Namespace`] is an artifact kind plus a canonical [`ConfigKey`]
//! string naming every configuration field the artifact's *content*
//! depends on — results key on the full result-relevant config (model,
//! strategy, seed, …), clause donations are config-universal (the
//! oracle CNF depends only on the cone), probe certificates key on the
//! solver knobs a verdict depends on. Both tiers key on that one
//! string, so what is result-relevant is defined once, and distinct
//! config keys live in distinct files, so merging stores can never mix
//! incomparable artifacts.
//!
//! **Determinism contract.** Every tier serves only *semantic*
//! artifacts: definitive solved outcomes, clauses implied by the
//! recipient's own CNF, and probe certificates that are pure functions
//! of their key. Persistence therefore changes how much work an answer
//! costs, never the answer — a warm run over a shared cache directory
//! is byte-identical (under `--no-timing`) to a cold run.
//!
//! **Corruption tolerance.** Records are length-prefixed and carry an
//! xxhash-style (XXH64) checksum. A truncated or bit-flipped tail is
//! skipped — the good prefix loads, [`DiskTier::corrupt_records`]
//! counts the damage, and nothing ever panics on a bad file. Unknown
//! format versions are skipped whole, so future layouts can evolve
//! safely.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock, Mutex};

use step_aig::ConeFingerprint;
use step_cnf::{Lit, Var};
use step_sat::LearntExport;

use crate::cache::{CachedResult, ResultCache};
use crate::clause_bank::{BankHit, ClauseBank, OraclePool, ProbeVerdict};
use crate::partition::VarClass;
use crate::qbf_model::Target;
use crate::spec::{DecompConfig, GateOp, SearchStrategy};

/// Which reuse surface an artifact belongs to. The discriminant is the
/// kind's tag in store file headers.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ArtifactKind {
    /// A definitive solved outcome (the result cache's currency).
    Result = 0,
    /// A donated learnt-clause snapshot (the clause bank's currency).
    Clauses = 1,
    /// A probe certificate (the probe ledger's currency).
    Probe = 2,
}

impl ArtifactKind {
    /// All three kinds, in reporting order.
    pub const ALL: [ArtifactKind; 3] = [
        ArtifactKind::Result,
        ArtifactKind::Clauses,
        ArtifactKind::Probe,
    ];

    /// The on-disk filename prefix and stats label.
    pub fn label(self) -> &'static str {
        match self {
            ArtifactKind::Result => "results",
            ArtifactKind::Clauses => "clauses",
            ArtifactKind::Probe => "probes",
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        Self::ALL.get(usize::from(tag)).copied()
    }
}

/// The canonical rendering of every configuration field an artifact's
/// content depends on. Two runs share a namespace — and therefore a
/// store file and the tier-0 entries — if and only if their config
/// keys are equal, which is what makes merged stores safe: nothing
/// config-dependent can cross configs. Cheap to clone (one shared
/// string), so tier-0 lookups key on it without allocating.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ConfigKey(Arc<str>);

/// The QBF solve that result and probe artifacts came from: the ∃-side
/// encoding (`qbf_model::encode_exists`) and the refinement form of the
/// CEGAR loop (`qbf_model::solve_partition`). Stores of another solve,
/// whose witnesses differ, load into namespaces that nothing looks up.
const QBF_ENCODING: &str = "exists=linear;refine=clause";

/// The clause namespace, built once: clause traffic names it on every
/// lookup and donation.
static CLAUSES: LazyLock<Namespace> = LazyLock::new(|| Namespace {
    kind: ArtifactKind::Clauses,
    config: ConfigKey(Arc::from("universal")),
});

impl ConfigKey {
    /// The result namespace: every configuration field that steers the
    /// search, plus the QBF encoding tag. Budgets are deliberately
    /// absent — wall *and* work alike, they only decide *whether* a
    /// definitive outcome is reached, never which one (a
    /// budget-truncated outcome is never stored), so entries are shared
    /// across runs with different [`crate::spec::BudgetPolicy`] values.
    pub fn results(config: &DecompConfig) -> Self {
        let model = config.model.name();
        let strategy = match config.effective_strategy() {
            SearchStrategy::MonotoneIncreasing => "mi",
            SearchStrategy::MonotoneDecreasing => "md",
            SearchStrategy::Binary => "bin",
            SearchStrategy::MdBinMi => "mdbinmi",
        };
        ConfigKey(Arc::from(format!(
            "{QBF_ENCODING};model={model};strategy={strategy};sb={};ab={};simf={};simr={};\
             seed={};restarts={};prep={}",
            u8::from(config.symmetry_breaking),
            u8::from(config.allow_both),
            u8::from(config.sim_filter),
            config.sim_rounds,
            config.seed,
            config.sat_restarts,
            u8::from(config.sat_preprocess),
        )))
    }

    /// The clause namespace: config-universal by design — the oracle
    /// CNF is a pure function of `(fingerprint, op)`, which is exactly
    /// why the bank's exact channel serves across models and seeds.
    pub fn clauses() -> Self {
        CLAUSES.config.clone()
    }

    /// The probe namespace: the encoding tag and the solver knobs a
    /// deterministic CEGAR verdict depends on. The CEGAR loop of
    /// [`solve_partition`](crate::qbf_model::solve_partition) builds
    /// fresh abstraction and check solvers per probe and never reads
    /// the session's oracle, pool or bank imports, so a probe's outcome
    /// is a pure function of `(cone, op, target, these knobs)` whenever
    /// no budget truncates it — no model, no seed.
    pub fn probes(config: &DecompConfig) -> Self {
        ConfigKey(Arc::from(format!(
            "{QBF_ENCODING};sb={};ab={};restarts={};prep={}",
            u8::from(config.symmetry_breaking),
            u8::from(config.allow_both),
            config.sat_restarts,
            u8::from(config.sat_preprocess),
        )))
    }

    /// The canonical string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// One artifact namespace: kind × config key. Build with
/// [`Namespace::results`], [`Namespace::clauses`] or
/// [`Namespace::probes`].
#[derive(Clone, Debug)]
pub struct Namespace {
    kind: ArtifactKind,
    config: ConfigKey,
}

impl Namespace {
    /// The solved-result namespace of `config`.
    pub fn results(config: &DecompConfig) -> Self {
        Namespace {
            kind: ArtifactKind::Result,
            config: ConfigKey::results(config),
        }
    }

    /// The (config-universal) clause-donation namespace.
    pub fn clauses() -> Self {
        CLAUSES.clone()
    }

    /// The probe-certificate namespace of `config`'s solver knobs.
    pub fn probes(config: &DecompConfig) -> Self {
        Namespace {
            kind: ArtifactKind::Probe,
            config: ConfigKey::probes(config),
        }
    }
}

/// The per-artifact address within a namespace: the canonical cone,
/// the operator, and a kind-specific auxiliary word (a packed
/// [`Target`] for probes, zero otherwise).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ArtifactKey {
    /// Canonical structural identity of the cone.
    pub fingerprint: ConeFingerprint,
    /// Root operator.
    pub op: GateOp,
    /// Kind-specific discriminant: [`pack_target`] output for probe
    /// certificates, `0` for results and clauses.
    pub aux: u64,
}

impl ArtifactKey {
    /// The key for a result or clause artifact.
    pub fn of(fingerprint: ConeFingerprint, op: GateOp) -> Self {
        ArtifactKey {
            fingerprint,
            op,
            aux: 0,
        }
    }

    /// The key for a probe certificate, if the target is encodable
    /// (see [`pack_target`]).
    pub fn probe(fingerprint: ConeFingerprint, op: GateOp, target: Target) -> Option<Self> {
        Some(ArtifactKey {
            fingerprint,
            op,
            aux: pack_target(target)?,
        })
    }
}

/// Weight bound of the packed [`Target::Weighted`] encoding (14 bits
/// per weight keeps the whole pack inside 63 bits).
const PACK_W_MAX: u32 = (1 << 14) - 1;

/// Packs a probe [`Target`] into a `u64` **injectively** — never by
/// hashing: two targets sharing an `aux` word would let one probe's
/// certificate answer another probe's question, corrupting answers.
/// Layout: tag in bits 60–63, payload below. Returns `None` for
/// `Weighted` targets whose weights exceed `PACK_W_MAX` — such
/// probes skip both tiers and are always solved.
pub fn pack_target(target: Target) -> Option<u64> {
    Some(match target {
        Target::Any => 0,
        Target::DisjointAtMost(k) => (1 << 60) | u64::from(u32::try_from(k).ok()?),
        Target::BalancedWindow(k) => (2 << 60) | u64::from(u32::try_from(k).ok()?),
        Target::CombinedAtMost(k) => (3 << 60) | u64::from(u32::try_from(k).ok()?),
        Target::Weighted { wd, wb, k } => {
            if wd > PACK_W_MAX || wb > PACK_W_MAX {
                return None;
            }
            let k = u64::from(u32::try_from(k).ok()?);
            (4 << 60) | (u64::from(wd) << 46) | (u64::from(wb) << 32) | k
        }
    })
}

/// Inverts [`pack_target`]. Returns `None` for words no target packs
/// to (e.g. read from a corrupted or foreign record).
pub fn unpack_target(aux: u64) -> Option<Target> {
    let k = (aux & 0xFFFF_FFFF) as usize;
    Some(match aux >> 60 {
        0 if aux == 0 => Target::Any,
        1 => Target::DisjointAtMost(k),
        2 => Target::BalancedWindow(k),
        3 => Target::CombinedAtMost(k),
        4 => Target::Weighted {
            wd: ((aux >> 46) & u64::from(PACK_W_MAX)) as u32,
            wb: ((aux >> 32) & u64::from(PACK_W_MAX)) as u32,
            k,
        },
        _ => return None,
    })
}

/// One persisted artifact, as the disk tier stores and
/// [`ArtifactStore::scan`] visits it.
#[derive(Clone, Debug)]
pub enum Artifact {
    /// A definitive solved outcome.
    Result(CachedResult),
    /// A donated clause snapshot (always an exact donor: the cluster
    /// channel's near-twin matching is a tier-0 notion).
    Clauses(Arc<LearntExport>),
    /// A probe certificate.
    Probe(ProbeVerdict),
}

/// The merge and stats surface over persisted artifacts, for tooling
/// that programs against the store rather than the concrete tiers.
pub trait ArtifactStore: Send + Sync {
    /// Visits every *persisted* entry of `ns`. Tier-0 structures
    /// deliberately expose no iteration (their sharded locks would
    /// make a consistent walk expensive); scan is the merge/stats
    /// surface, and those operate on the disk tier.
    fn scan(&self, ns: &Namespace, f: &mut dyn FnMut(&ArtifactKey, &Artifact));
}

// ---------------------------------------------------------------------
// The tiered implementation.
// ---------------------------------------------------------------------

/// The engine's reuse store: the in-memory structures as tier 0 plus
/// an optional persistent [`DiskTier`]. Cheap to clone (three `Arc`s);
/// every handle shares the same tiers. The one reuse handle engines and
/// services hold; its `Default` is an empty memory store (no cache, no
/// bank, no disk), so no-reuse callers write
/// `StepService::spawn_with_store(n, Arc::default())`.
#[derive(Clone, Default, Debug)]
pub struct TieredStore {
    cache: Option<Arc<ResultCache>>,
    bank: Option<Arc<ClauseBank>>,
    disk: Option<Arc<DiskTier>>,
}

impl TieredStore {
    /// A memory-only store over the given tier-0 structures (either
    /// may be absent; an absent tier serves nothing of its kind).
    pub fn memory(cache: Option<Arc<ResultCache>>, bank: Option<Arc<ClauseBank>>) -> Self {
        TieredStore {
            cache,
            bank,
            disk: None,
        }
    }

    /// A store with a persistent tier loaded from (or created at)
    /// `dir`.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory or listing it. Corrupt store
    /// *files* never error — they load their good prefix (see
    /// [`DiskTier`]).
    pub fn with_disk(
        cache: Option<Arc<ResultCache>>,
        bank: Option<Arc<ClauseBank>>,
        dir: &Path,
    ) -> io::Result<Self> {
        Ok(TieredStore {
            disk: Some(Arc::new(DiskTier::open(dir)?)),
            ..Self::memory(cache, bank)
        })
    }

    /// The tier-0 result cache, if any.
    pub fn cache(&self) -> Option<&Arc<ResultCache>> {
        self.cache.as_ref()
    }

    /// The tier-0 clause bank, if any.
    pub fn bank(&self) -> Option<&Arc<ClauseBank>> {
        self.bank.as_ref()
    }

    /// The persistent tier, if any.
    pub fn disk(&self) -> Option<&Arc<DiskTier>> {
        self.disk.as_ref()
    }

    /// Whether result lookups can be served at all (a tier-0 cache or
    /// a disk tier is present). With `--no-cache` but a cache
    /// directory, disk results still serve — they just skip tier-0
    /// promotion.
    pub fn serves_results(&self) -> bool {
        self.cache.is_some() || self.disk.is_some()
    }

    /// Result artifacts served from disk so far.
    pub fn disk_result_hits(&self) -> u64 {
        self.disk_hits(ArtifactKind::Result)
    }

    /// Clause artifacts served from disk so far.
    pub fn disk_clause_hits(&self) -> u64 {
        self.disk_hits(ArtifactKind::Clauses)
    }

    /// Probe certificates served from disk so far.
    pub fn disk_probe_hits(&self) -> u64 {
        self.disk_hits(ArtifactKind::Probe)
    }

    fn disk_hits(&self, kind: ArtifactKind) -> u64 {
        self.disk
            .as_ref()
            .map_or(0, |d| d.hits[kind as usize].load(Ordering::Relaxed))
    }

    /// The tiers one run (a service submission, or one
    /// [`decompose_output`](crate::BiDecomposer::decompose_output)
    /// call) solves on. Under clause reuse that is this store plus a
    /// fresh oracle pool — pooled oracles embed one `DecompConfig`'s
    /// solver knobs and may not cross runs — and, for a store without
    /// a bank, a fresh run-scoped one; otherwise this store alone.
    pub fn for_run(&self, clause_reuse: bool) -> (TieredStore, Option<OraclePool>) {
        let mut store = self.clone();
        if !clause_reuse {
            return (store, None);
        }
        store.bank.get_or_insert_with(Arc::default);
        (store, Some(OraclePool::new()))
    }

    /// Flushes dirty disk-tier entries (no-op without a disk tier);
    /// returns the number of records appended.
    ///
    /// # Errors
    ///
    /// I/O errors writing the store files.
    pub fn flush(&self) -> io::Result<u64> {
        match &self.disk {
            Some(disk) => disk.flush(),
            None => Ok(0),
        }
    }

    /// The solved result for `(fingerprint, op)` in `ns` (a result
    /// namespace), and whether it came from disk.
    pub fn lookup_result(
        &self,
        ns: &Namespace,
        fingerprint: ConeFingerprint,
        op: GateOp,
    ) -> Option<(CachedResult, bool)> {
        if let Some(hit) = self
            .cache
            .as_ref()
            .and_then(|c| c.lookup(&ns.config, fingerprint, op))
        {
            return Some((hit, false));
        }
        let key = ArtifactKey::of(fingerprint, op);
        let Artifact::Result(r) = self.disk.as_ref()?.get(ns, &key)? else {
            return None;
        };
        // Promote, so later twins hit tier 0 directly.
        if let Some(cache) = &self.cache {
            cache.insert(&ns.config, fingerprint, op, r.clone());
        }
        Some((r, true))
    }

    /// Stores a definitive solved result on every tier.
    pub fn insert_result(
        &self,
        ns: &Namespace,
        fingerprint: ConeFingerprint,
        op: GateOp,
        value: CachedResult,
    ) {
        if let Some(cache) = &self.cache {
            cache.insert(&ns.config, fingerprint, op, value.clone());
        }
        if let Some(disk) = &self.disk {
            disk.put(
                ns,
                &ArtifactKey::of(fingerprint, op),
                Artifact::Result(value),
            );
        }
    }

    /// The best clause donor for `(fingerprint, op)`, and whether it
    /// came from disk: a tier-0 exact donor, else an exact disk donor,
    /// else a tier-0 cluster donor.
    pub fn lookup_clauses(
        &self,
        fingerprint: ConeFingerprint,
        op: GateOp,
    ) -> Option<(BankHit, bool)> {
        let tier0 = self.bank.as_ref().and_then(|b| b.lookup(fingerprint, op));
        if tier0.as_ref().is_some_and(|hit| hit.exact) {
            return tier0.map(|hit| (hit, false));
        }
        // No exact tier-0 donor: an exact disk donor beats a tier-0
        // cluster hit (verbatim import needs no vetting).
        let key = ArtifactKey::of(fingerprint, op);
        if let Some(Artifact::Clauses(export)) =
            self.disk.as_ref().and_then(|d| d.get(&CLAUSES, &key))
        {
            if let Some(bank) = &self.bank {
                bank.donate(fingerprint, op, Arc::clone(&export));
            }
            return Some((
                BankHit {
                    export,
                    exact: true,
                },
                true,
            ));
        }
        tier0.map(|hit| (hit, false))
    }

    /// Donates a completed session's clause snapshot to every tier.
    /// Empty snapshots are dropped: in the bank they could only evict
    /// something useful, and on disk one would claim the key (first
    /// writer wins) and block a later sibling's real clauses forever.
    pub fn donate(&self, fingerprint: ConeFingerprint, op: GateOp, export: Arc<LearntExport>) {
        if export.is_empty() {
            return;
        }
        if let Some(disk) = &self.disk {
            let key = ArtifactKey::of(fingerprint, op);
            let value = Artifact::Clauses(Arc::clone(&export));
            disk.put(&CLAUSES, &key, value);
        }
        if let Some(bank) = &self.bank {
            bank.donate(fingerprint, op, export);
        }
    }

    /// The recorded verdict of probing `(fingerprint, op)` at `target`
    /// in `ns` (a probe namespace), and whether it came from disk.
    /// Targets [`pack_target`] cannot encode skip the store.
    pub fn lookup_probe(
        &self,
        ns: &Namespace,
        fingerprint: ConeFingerprint,
        op: GateOp,
        target: Target,
    ) -> Option<(ProbeVerdict, bool)> {
        let key = ArtifactKey::probe(fingerprint, op, target)?;
        if let Some(v) = self
            .bank
            .as_ref()
            .and_then(|b| b.lookup_probe(&ns.config, fingerprint, op, target))
        {
            return Some((v, false));
        }
        let Artifact::Probe(v) = self.disk.as_ref()?.get(ns, &key)? else {
            return None;
        };
        if let Some(bank) = &self.bank {
            bank.record_probe(&ns.config, fingerprint, op, target, v.clone());
        }
        Some((v, true))
    }

    /// Records a definitive probe verdict on every tier.
    pub fn record_probe(
        &self,
        ns: &Namespace,
        fingerprint: ConeFingerprint,
        op: GateOp,
        target: Target,
        verdict: ProbeVerdict,
    ) {
        let Some(key) = ArtifactKey::probe(fingerprint, op, target) else {
            return;
        };
        if let Some(bank) = &self.bank {
            bank.record_probe(&ns.config, fingerprint, op, target, verdict.clone());
        }
        if let Some(disk) = &self.disk {
            disk.put(ns, &key, Artifact::Probe(verdict));
        }
    }
}

impl ArtifactStore for TieredStore {
    fn scan(&self, ns: &Namespace, f: &mut dyn FnMut(&ArtifactKey, &Artifact)) {
        if let Some(disk) = &self.disk {
            disk.scan(ns, f);
        }
    }
}

// ---------------------------------------------------------------------
// Disk tier: append-only, checksummed, per-namespace record logs.
// ---------------------------------------------------------------------

/// File magic of a store file.
const MAGIC: &[u8; 8] = b"STEPSTOR";

/// Store format version; unknown versions are skipped whole at load.
const FORMAT_VERSION: u32 = 1;

/// Upper bound on a record's encoded length. A corrupted length prefix
/// must never allocate unboundedly.
const MAX_RECORD_LEN: u32 = 1 << 28;

/// Filename extension of store files.
pub const STORE_EXT: &str = "stepstore";

/// The on-disk key: the fingerprint fields plus operator and aux word
/// (no `GateOp`/`ConeFingerprint` so the codec is self-contained).
type DiskKey = (u128, u32, u32, u8, u64);

fn disk_key(key: &ArtifactKey) -> DiskKey {
    (
        key.fingerprint.hash,
        key.fingerprint.inputs,
        key.fingerprint.ands,
        op_tag(key.op),
        key.aux,
    )
}

fn artifact_key(k: &DiskKey) -> Option<ArtifactKey> {
    Some(ArtifactKey {
        fingerprint: ConeFingerprint {
            hash: k.0,
            inputs: k.1,
            ands: k.2,
        },
        op: op_from_tag(k.3)?,
        aux: k.4,
    })
}

/// An operator's tag: its index in [`GateOp::ALL`] (store records
/// persist it; the clause bank shards by it).
pub(crate) fn op_tag(op: GateOp) -> u8 {
    GateOp::ALL
        .iter()
        .position(|&o| o == op)
        .unwrap_or_default() as u8
}

fn op_from_tag(tag: u8) -> Option<GateOp> {
    GateOp::ALL.get(usize::from(tag)).copied()
}

/// One namespace's loaded entries plus the records appended since the
/// last flush.
#[derive(Default)]
struct NsState {
    entries: HashMap<DiskKey, Artifact>,
    dirty: Vec<(DiskKey, Artifact)>,
}

/// Every namespace's state, per artifact kind (indexed by tag), by
/// config string — so a lookup borrows the namespace's `&str`.
type Namespaces = [HashMap<Arc<str>, NsState>; 3];

/// Vets a store directory before any work starts: `dir` must be (or
/// become) a writable directory. Front ends run this on `--cache-dir`
/// at parse time so a bad path is a usage error up front, not a
/// failure after solving (or after a server announced its port). The
/// explicit write probe matters because permission bits lie to
/// privileged users and read-only mounts fail only on actual writes.
///
/// # Errors
///
/// A message naming the path and the reason: not a directory, cannot
/// be created, or not writable.
pub fn check_cache_dir(dir: &Path) -> io::Result<()> {
    let shown = dir.display();
    if dir.exists() && !dir.is_dir() {
        return Err(io::Error::new(
            io::ErrorKind::NotADirectory,
            format!("{shown} is not a directory"),
        ));
    }
    fs::create_dir_all(dir)
        .map_err(|e| io::Error::new(e.kind(), format!("cannot create {shown}: {e}")))?;
    let probe = dir.join(".stepstore-probe");
    fs::write(&probe, b"probe")
        .map_err(|e| io::Error::new(e.kind(), format!("{shown} is not writable: {e}")))?;
    let _ = fs::remove_file(&probe);
    Ok(())
}

/// The persistent tier: one append-only record log per namespace,
/// loaded whole at open, appended at flush. See the module docs for
/// the format and the corruption-tolerance rules.
pub struct DiskTier {
    dir: PathBuf,
    state: Mutex<Namespaces>,
    /// Lookups served, per artifact kind (indexed by tag).
    hits: [AtomicU64; 3],
    loaded_records: AtomicU64,
    corrupt_records: AtomicU64,
    flushed_records: AtomicU64,
}

impl fmt::Debug for DiskTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiskTier")
            .field("dir", &self.dir)
            .field("len", &self.len())
            .field("loaded_records", &self.loaded_records())
            .field("corrupt_records", &self.corrupt_records())
            .finish()
    }
}

impl DiskTier {
    /// Opens (creating if needed) the store directory and loads every
    /// `.stepstore` file in it.
    ///
    /// # Errors
    ///
    /// I/O errors creating or listing the directory. Unreadable or
    /// corrupt files are tolerated per record (counted in
    /// [`corrupt_records`](DiskTier::corrupt_records)), never fatal.
    pub fn open(dir: &Path) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let tier = DiskTier {
            dir: dir.to_owned(),
            state: Mutex::default(),
            hits: Default::default(),
            loaded_records: AtomicU64::new(0),
            corrupt_records: AtomicU64::new(0),
            flushed_records: AtomicU64::new(0),
        };
        let mut names: Vec<PathBuf> = fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == STORE_EXT))
            .collect();
        // Deterministic load order, so counters and first-writer-wins
        // outcomes are stable run-to-run.
        names.sort();
        let mut state = tier.state.lock().expect("disk tier poisoned");
        for path in names {
            let Ok(bytes) = fs::read(&path) else {
                tier.corrupt_records.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            tier.load_file(&bytes, &mut state);
        }
        drop(state);
        Ok(tier)
    }

    /// The directory this tier persists to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Parses one store file into `state`, stopping at the first
    /// damaged record and counting it.
    fn load_file(&self, bytes: &[u8], state: &mut Namespaces) {
        let mut r = Reader { buf: bytes, at: 0 };
        let header = (|| {
            let magic = r.take(8)?;
            if magic != MAGIC {
                return None;
            }
            if r.u32()? != FORMAT_VERSION {
                return None;
            }
            let kind = ArtifactKind::from_tag(r.u8()?)?;
            let len = r.u32()? as usize;
            let config = String::from_utf8(r.take(len)?.to_vec()).ok()?;
            Some((kind, config))
        })();
        let Some((kind, config)) = header else {
            self.corrupt_records.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let ns = state[kind as usize].entry(Arc::from(config)).or_default();
        while r.at < r.buf.len() {
            let record = (|| {
                let len = r.u32()?;
                if len > MAX_RECORD_LEN {
                    return None;
                }
                let sum = r.u64()?;
                let payload = r.take(len as usize)?;
                if xxh64(payload, 0) != sum {
                    return None;
                }
                decode_record(kind, payload)
            })();
            let Some((key, value)) = record else {
                // Truncated or bit-flipped tail: keep the good prefix,
                // count the damage, stop reading this file.
                self.corrupt_records.fetch_add(1, Ordering::Relaxed);
                return;
            };
            // First writer wins across files too: all writers of one
            // key hold the same semantic artifact, and keeping the
            // first makes merge output independent of merge order.
            ns.entries.entry(key).or_insert(value);
            self.loaded_records.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The artifact stored under `key`, if any (counted as a hit of
    /// its kind).
    fn get(&self, ns: &Namespace, key: &ArtifactKey) -> Option<Artifact> {
        let tag = ns.kind as usize;
        let state = self.state.lock().expect("disk tier poisoned");
        let value = state[tag]
            .get(ns.config.as_str())?
            .entries
            .get(&disk_key(key))
            .cloned()?;
        self.hits[tag].fetch_add(1, Ordering::Relaxed);
        Some(value)
    }

    /// Stores `value` under `key` (first writer wins: an already
    /// present key is left untouched — every writer of a key holds the
    /// same semantic artifact, and keeping the first makes warm-run
    /// output independent of completion order).
    fn put(&self, ns: &Namespace, key: &ArtifactKey, value: Artifact) {
        let mut state = self.state.lock().expect("disk tier poisoned");
        let entry = state[ns.kind as usize]
            .entry(Arc::clone(&ns.config.0))
            .or_default();
        let dk = disk_key(key);
        if entry.entries.contains_key(&dk) {
            return;
        }
        entry.entries.insert(dk, value.clone());
        entry.dirty.push((dk, value));
    }

    /// Visits every entry of `ns`, in sorted key order (deterministic
    /// for stats and merge tooling).
    fn scan(&self, ns: &Namespace, f: &mut dyn FnMut(&ArtifactKey, &Artifact)) {
        let state = self.state.lock().expect("disk tier poisoned");
        let Some(entry) = state[ns.kind as usize].get(ns.config.as_str()) else {
            return;
        };
        let mut keys: Vec<&DiskKey> = entry.entries.keys().collect();
        keys.sort();
        for dk in keys {
            if let Some(key) = artifact_key(dk) {
                f(&key, &entry.entries[dk]);
            }
        }
    }

    /// Appends every dirty record to its namespace file; returns the
    /// number of records written. Idempotent — a second flush with no
    /// new puts writes nothing.
    ///
    /// # Errors
    ///
    /// I/O errors creating or appending the store files. A namespace
    /// file whose header names a *different* config string (a filename
    /// hash collision — cosmically unlikely with 128 bits, but fatal
    /// to correctness if ignored) fails with
    /// [`io::ErrorKind::InvalidData`] rather than cross-contaminating.
    pub fn flush(&self) -> io::Result<u64> {
        let mut state = self.state.lock().expect("disk tier poisoned");
        let mut written = 0u64;
        for (kind, config, ns) in ArtifactKind::ALL
            .into_iter()
            .zip(state.iter_mut())
            .flat_map(|(kind, map)| map.iter_mut().map(move |(c, ns)| (kind, c, ns)))
        {
            if ns.dirty.is_empty() {
                continue;
            }
            let path = self.dir.join(store_file_name(kind, config));
            let mut file = fs::OpenOptions::new()
                .read(true)
                .append(true)
                .create(true)
                .open(&path)?;
            let mut existing_header = [0u8; 8];
            let is_new = file.metadata()?.len() == 0;
            if is_new {
                let mut header = Vec::new();
                header.extend_from_slice(MAGIC);
                header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
                header.push(kind as u8);
                let cfg = config.as_bytes();
                header.extend_from_slice(&(cfg.len() as u32).to_le_bytes());
                header.extend_from_slice(cfg);
                file.write_all(&header)?;
            } else {
                // Guard against a filename-hash collision: the header
                // must name exactly this config string.
                let mut f = fs::File::open(&path)?;
                f.read_exact(&mut existing_header)?;
                let mut rest = Vec::new();
                f.take(4 + 1 + 4 + config.len() as u64 + 1)
                    .read_to_end(&mut rest)?;
                let mut r = Reader { buf: &rest, at: 0 };
                let ok = existing_header == *MAGIC
                    && r.u32() == Some(FORMAT_VERSION)
                    && r.u8() == Some(kind as u8)
                    && r.u32() == Some(config.len() as u32)
                    && r.take(config.len()) == Some(config.as_bytes());
                if !ok {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "store file {} does not match namespace `{config}`",
                            path.display()
                        ),
                    ));
                }
            }
            let mut out = Vec::new();
            for (dk, value) in ns.dirty.drain(..) {
                let payload = encode_record(&dk, &value);
                out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                out.extend_from_slice(&xxh64(&payload, 0).to_le_bytes());
                out.extend_from_slice(&payload);
                written += 1;
            }
            file.write_all(&out)?;
        }
        self.flushed_records.fetch_add(written, Ordering::Relaxed);
        Ok(written)
    }

    /// Merges every entry of `other` that this tier does not already
    /// hold (dedup by `(kind, config key, artifact key)`), marking the
    /// adopted entries dirty for the next [`flush`](DiskTier::flush).
    /// Returns the number of entries adopted.
    pub fn merge_from(&self, other: &DiskTier) -> u64 {
        let other_state = other.state.lock().expect("disk tier poisoned");
        let mut state = self.state.lock().expect("disk tier poisoned");
        let mut adopted = 0u64;
        for (dst_kind, src_kind) in state.iter_mut().zip(other_state.iter()) {
            for (config, src) in src_kind {
                let dst = dst_kind.entry(Arc::clone(config)).or_default();
                let mut keys: Vec<&DiskKey> = src.entries.keys().collect();
                keys.sort();
                for dk in keys {
                    if !dst.entries.contains_key(dk) {
                        let value = src.entries[dk].clone();
                        dst.entries.insert(*dk, value.clone());
                        dst.dirty.push((*dk, value));
                        adopted += 1;
                    }
                }
            }
        }
        adopted
    }

    /// Per-namespace entry counts: `(kind, config key, entries)`,
    /// sorted for stable reporting.
    pub fn summaries(&self) -> Vec<(ArtifactKind, String, usize)> {
        let state = self.state.lock().expect("disk tier poisoned");
        let mut out: Vec<(ArtifactKind, String, usize)> = ArtifactKind::ALL
            .into_iter()
            .zip(state.iter())
            .flat_map(|(kind, map)| {
                map.iter()
                    .map(move |(config, ns)| (kind, config.to_string(), ns.entries.len()))
            })
            .collect();
        out.sort_by(|a, b| (a.0 as u8, &a.1).cmp(&(b.0 as u8, &b.1)));
        out
    }

    /// Entries currently resident across all namespaces.
    pub fn len(&self) -> usize {
        let state = self.state.lock().expect("disk tier poisoned");
        state
            .iter()
            .flat_map(|map| map.values())
            .map(|ns| ns.entries.len())
            .sum()
    }

    /// Whether the tier holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records loaded intact from disk at open.
    pub fn loaded_records(&self) -> u64 {
        self.loaded_records.load(Ordering::Relaxed)
    }

    /// Damaged records (or whole unreadable/foreign files) skipped at
    /// open.
    pub fn corrupt_records(&self) -> u64 {
        self.corrupt_records.load(Ordering::Relaxed)
    }

    /// Records appended by flushes since open.
    pub fn flushed_records(&self) -> u64 {
        self.flushed_records.load(Ordering::Relaxed)
    }
}

/// The store file name of a namespace: kind label plus a 128-bit hash
/// of the config string (two XXH64 passes under different seeds). A
/// 64-bit name would make an accidental collision between two distinct
/// configs — which would cross-contaminate namespaces at flush —
/// plausible over large fleets; 128 bits puts it out of reach, and the
/// flush-time header check turns even that into an error instead of
/// corruption.
fn store_file_name(kind: ArtifactKind, config: &str) -> String {
    let lo = xxh64(config.as_bytes(), 0x9E37_79B9_7F4A_7C15);
    let hi = xxh64(config.as_bytes(), 0xC2B2_AE3D_27D4_EB4F);
    format!("{}-{hi:016x}{lo:016x}.{STORE_EXT}", kind.label())
}

// ---------------------------------------------------------------------
// Record codec.
// ---------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn u128(&mut self) -> Option<u128> {
        Some(u128::from_le_bytes(self.take(16)?.try_into().ok()?))
    }
}

fn encode_classes(out: &mut Vec<u8>, classes: &[VarClass]) {
    out.extend_from_slice(&(classes.len() as u32).to_le_bytes());
    out.extend(classes.iter().map(|c| match c {
        VarClass::A => 0u8,
        VarClass::B => 1,
        VarClass::C => 2,
    }));
}

fn decode_classes(r: &mut Reader) -> Option<Vec<VarClass>> {
    let n = r.u32()?;
    if n > MAX_RECORD_LEN {
        return None;
    }
    r.take(n as usize)?
        .iter()
        .map(|b| match b {
            0 => Some(VarClass::A),
            1 => Some(VarClass::B),
            2 => Some(VarClass::C),
            _ => None,
        })
        .collect()
}

fn encode_export(out: &mut Vec<u8>, export: &LearntExport) {
    out.extend_from_slice(&(export.clauses.len() as u32).to_le_bytes());
    for clause in &export.clauses {
        out.extend_from_slice(&(clause.len() as u32).to_le_bytes());
        for lit in clause {
            out.extend_from_slice(&lit.code().to_le_bytes());
        }
    }
    out.extend_from_slice(&(export.activities.len() as u32).to_le_bytes());
    for (var, act) in &export.activities {
        out.extend_from_slice(&(var.index() as u32).to_le_bytes());
        out.extend_from_slice(&act.to_bits().to_le_bytes());
    }
}

fn decode_export(r: &mut Reader) -> Option<LearntExport> {
    let nclauses = r.u32()?;
    if nclauses > MAX_RECORD_LEN {
        return None;
    }
    let mut clauses = Vec::with_capacity(nclauses.min(1 << 16) as usize);
    for _ in 0..nclauses {
        let len = r.u32()?;
        if len > MAX_RECORD_LEN {
            return None;
        }
        let mut clause = Vec::with_capacity(len.min(1 << 16) as usize);
        for _ in 0..len {
            clause.push(Lit::from_code(r.u32()?));
        }
        clauses.push(clause);
    }
    let nacts = r.u32()?;
    if nacts > MAX_RECORD_LEN {
        return None;
    }
    let mut activities = Vec::with_capacity(nacts.min(1 << 16) as usize);
    for _ in 0..nacts {
        let var = Var::new(r.u32()? as usize);
        activities.push((var, f64::from_bits(r.u64()?)));
    }
    Some(LearntExport {
        clauses,
        activities,
    })
}

/// Encodes one record payload: the disk key, then the kind-specific
/// body.
fn encode_record(dk: &DiskKey, value: &Artifact) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&dk.0.to_le_bytes());
    out.extend_from_slice(&dk.1.to_le_bytes());
    out.extend_from_slice(&dk.2.to_le_bytes());
    out.push(dk.3);
    out.extend_from_slice(&dk.4.to_le_bytes());
    match value {
        Artifact::Result(r) => {
            let flags = u8::from(r.partition.is_some()) | (u8::from(r.proved_optimal) << 1);
            out.push(flags);
            if let Some(classes) = &r.partition {
                encode_classes(&mut out, classes);
            }
        }
        Artifact::Clauses(export) => {
            encode_export(&mut out, export);
            // A zero flag byte: in older stores a 1 here announced a
            // second (counterexample-check) snapshot, so the byte stays
            // for those stores to keep loading under `FORMAT_VERSION` 1.
            out.push(0);
        }
        Artifact::Probe(v) => match v {
            ProbeVerdict::Infeasible => out.push(0),
            ProbeVerdict::Feasible(classes) => {
                out.push(1);
                encode_classes(&mut out, classes);
            }
        },
    }
    out
}

/// Decodes one record payload; `None` on any malformation (the caller
/// counts it as corrupt and stops reading the file). Trailing bytes
/// beyond the decoded body are rejected too — a record is either
/// exactly right or damaged.
fn decode_record(kind: ArtifactKind, payload: &[u8]) -> Option<(DiskKey, Artifact)> {
    let mut r = Reader {
        buf: payload,
        at: 0,
    };
    let dk: DiskKey = (r.u128()?, r.u32()?, r.u32()?, r.u8()?, r.u64()?);
    op_from_tag(dk.3)?;
    let value = match kind {
        ArtifactKind::Result => {
            let flags = r.u8()?;
            if flags > 3 {
                return None;
            }
            let partition = if flags & 1 != 0 {
                Some(decode_classes(&mut r)?)
            } else {
                None
            };
            Artifact::Result(CachedResult {
                partition,
                proved_optimal: flags & 2 != 0,
            })
        }
        ArtifactKind::Clauses => {
            let export = decode_export(&mut r)?;
            // Older stores may carry a check snapshot after the flag:
            // it is decoded (so the record still checks out) and dropped.
            match r.u8()? {
                0 => {}
                1 => {
                    decode_export(&mut r)?;
                }
                _ => return None,
            }
            Artifact::Clauses(Arc::new(export))
        }
        ArtifactKind::Probe => {
            unpack_target(dk.4)?;
            match r.u8()? {
                0 => Artifact::Probe(ProbeVerdict::Infeasible),
                1 => Artifact::Probe(ProbeVerdict::Feasible(decode_classes(&mut r)?)),
                _ => return None,
            }
        }
    };
    if r.at != payload.len() {
        return None;
    }
    Some((dk, value))
}

// ---------------------------------------------------------------------
// XXH64 — the record checksum (public-domain algorithm, implemented
// here so persistence adds no external dependency).
// ---------------------------------------------------------------------

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

/// The XXH64 hash of `data` under `seed`.
pub fn xxh64(data: &[u8], seed: u64) -> u64 {
    #[inline]
    fn round(acc: u64, input: u64) -> u64 {
        acc.wrapping_add(input.wrapping_mul(PRIME64_2))
            .rotate_left(31)
            .wrapping_mul(PRIME64_1)
    }
    #[inline]
    fn merge_round(acc: u64, val: u64) -> u64 {
        (acc ^ round(0, val))
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4)
    }
    #[inline]
    fn read64(b: &[u8]) -> u64 {
        u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
    }
    #[inline]
    fn read32(b: &[u8]) -> u64 {
        u64::from(u32::from_le_bytes(b[..4].try_into().expect("4 bytes")))
    }

    let len = data.len();
    let mut rest = data;
    let mut h = if len >= 32 {
        let mut v1 = seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2);
        let mut v2 = seed.wrapping_add(PRIME64_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME64_1);
        while rest.len() >= 32 {
            v1 = round(v1, read64(rest));
            v2 = round(v2, read64(&rest[8..]));
            v3 = round(v3, read64(&rest[16..]));
            v4 = round(v4, read64(&rest[24..]));
            rest = &rest[32..];
        }
        let mut h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = merge_round(h, v1);
        h = merge_round(h, v2);
        h = merge_round(h, v3);
        merge_round(h, v4)
    } else {
        seed.wrapping_add(PRIME64_5)
    };
    h = h.wrapping_add(len as u64);
    while rest.len() >= 8 {
        h = (h ^ round(0, read64(rest)))
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        h = (h ^ read32(rest).wrapping_mul(PRIME64_1))
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        rest = &rest[4..];
    }
    for &b in rest {
        h = (h ^ u64::from(b).wrapping_mul(PRIME64_5))
            .rotate_left(11)
            .wrapping_mul(PRIME64_1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^= h >> 32;
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Model;

    fn fp(hash: u128) -> ConeFingerprint {
        ConeFingerprint {
            hash,
            inputs: 4,
            ands: 3,
        }
    }

    fn export(tag: u32) -> LearntExport {
        LearntExport {
            clauses: vec![vec![
                Lit::pos(Var::new(tag as usize)),
                Lit::neg(Var::new(0)),
            ]],
            activities: vec![(Var::new(0), 0.5)],
        }
    }

    fn result(optimal: bool) -> CachedResult {
        CachedResult {
            partition: Some(vec![VarClass::A, VarClass::B, VarClass::C, VarClass::C]),
            proved_optimal: optimal,
        }
    }

    fn probe_ns() -> Namespace {
        Namespace::probes(&DecompConfig::new(Model::QbfDisjoint))
    }

    /// Result namespaces name persisted store files, so the model names
    /// inside them must never drift.
    #[test]
    fn result_config_keys_are_pinned() {
        let tail = "sb=1;ab=0;simf=1;simr=4;seed=25214903917;restarts=luby;prep=0";
        for (model, expected) in [
            (Model::Ljh, "model=ljh;strategy=mi"),
            (Model::MusGroup, "model=mg;strategy=mi"),
            (Model::QbfDisjoint, "model=qd;strategy=mdbinmi"),
            (Model::QbfBalanced, "model=qb;strategy=mi"),
            (Model::QbfCombined, "model=qdb;strategy=mi"),
        ] {
            assert_eq!(
                ConfigKey::results(&DecompConfig::new(model)).as_str(),
                format!("exists=linear;refine=clause;{expected};{tail}"),
            );
        }
    }

    #[test]
    fn xxh64_matches_the_reference_vectors() {
        // Published reference value of the XXH64 algorithm.
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_ne!(xxh64(b"", 1), xxh64(b"", 0), "seed must matter");
        // Self-consistency across the three tail paths.
        let data: Vec<u8> = (0..=255u8).collect();
        for n in [0, 1, 3, 4, 7, 8, 31, 32, 33, 63, 64, 100, 256] {
            let a = xxh64(&data[..n], 42);
            let b = xxh64(&data[..n], 42);
            assert_eq!(a, b);
            if n > 0 {
                let mut flipped = data[..n].to_vec();
                flipped[0] ^= 1;
                assert_ne!(xxh64(&flipped, 42), a, "len {n} must be sensitive");
            }
        }
    }

    #[test]
    fn target_pack_round_trips_injectively() {
        let targets = [
            Target::Any,
            Target::DisjointAtMost(0),
            Target::DisjointAtMost(17),
            Target::BalancedWindow(17),
            Target::CombinedAtMost(17),
            Target::Weighted {
                wd: 1,
                wb: 1,
                k: 17,
            },
            Target::Weighted { wd: 3, wb: 9, k: 0 },
            Target::Weighted {
                wd: PACK_W_MAX,
                wb: PACK_W_MAX,
                k: u32::MAX as usize,
            },
        ];
        let mut seen = std::collections::HashSet::new();
        for t in targets {
            let aux = pack_target(t).expect("in-range targets pack");
            assert!(seen.insert(aux), "{t:?} must pack uniquely");
            assert_eq!(unpack_target(aux), Some(t), "{t:?} must round-trip");
        }
        // Out-of-range weights refuse to pack rather than collide.
        assert_eq!(
            pack_target(Target::Weighted {
                wd: PACK_W_MAX + 1,
                wb: 1,
                k: 0
            }),
            None
        );
    }

    #[test]
    fn disk_tier_round_trips_all_three_kinds() {
        let dir = std::env::temp_dir().join(format!("step-store-rt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let config = DecompConfig::new(Model::QbfDisjoint);
        let rns = Namespace::results(&config);
        let cns = Namespace::clauses();
        let pns = probe_ns();
        {
            let tier = DiskTier::open(&dir).unwrap();
            tier.put(
                &rns,
                &ArtifactKey::of(fp(1), GateOp::Or),
                Artifact::Result(result(true)),
            );
            tier.put(
                &cns,
                &ArtifactKey::of(fp(2), GateOp::And),
                Artifact::Clauses(Arc::new(export(3))),
            );
            let pk = ArtifactKey::probe(fp(5), GateOp::Or, Target::DisjointAtMost(2)).unwrap();
            tier.put(&pns, &pk, Artifact::Probe(ProbeVerdict::Infeasible));
            assert_eq!(tier.flush().unwrap(), 3);
            assert_eq!(tier.flush().unwrap(), 0, "flush is idempotent");
        }
        let tier = DiskTier::open(&dir).unwrap();
        assert_eq!(tier.loaded_records(), 3);
        assert_eq!(tier.corrupt_records(), 0);
        match tier.get(&rns, &ArtifactKey::of(fp(1), GateOp::Or)) {
            Some(Artifact::Result(r)) => assert_eq!(r, result(true)),
            other => panic!("expected result, got {other:?}"),
        }
        match tier.get(&cns, &ArtifactKey::of(fp(2), GateOp::And)) {
            Some(Artifact::Clauses(export3)) => {
                assert_eq!(export3.clauses, export(3).clauses);
                assert_eq!(export3.activities, export(3).activities);
            }
            other => panic!("expected clauses, got {other:?}"),
        }
        let pk = ArtifactKey::probe(fp(5), GateOp::Or, Target::DisjointAtMost(2)).unwrap();
        assert!(matches!(
            tier.get(&pns, &pk),
            Some(Artifact::Probe(ProbeVerdict::Infeasible))
        ));
        // A different config key is a different namespace.
        let mut other = DecompConfig::new(Model::QbfDisjoint);
        other.seed ^= 1;
        assert!(tier
            .get(
                &Namespace::results(&other),
                &ArtifactKey::of(fp(1), GateOp::Or)
            )
            .is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Clause records written before the counterexample-check snapshot
    /// was dropped end in flag byte 1 followed by that snapshot. They
    /// still load: the oracle export is served, the snapshot is skipped
    /// and nothing counts as corrupt. Flag values other than 0 and 1
    /// stay corrupt.
    #[test]
    fn clause_records_with_a_check_snapshot_still_load() {
        let dir = std::env::temp_dir().join(format!("step-store-legacy-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let store = TieredStore::with_disk(None, None, &dir).unwrap();
            store.donate(fp(2), GateOp::And, Arc::new(export(3)));
            store.flush().unwrap();
        }
        let config = ConfigKey::clauses();
        let config = config.as_str();
        let path = dir.join(store_file_name(ArtifactKind::Clauses, config));
        let bytes = fs::read(&path).unwrap();
        // Magic, version, kind tag, config length and string; then the
        // one record: length, checksum, payload.
        let header = MAGIC.len() + 4 + 1 + 4 + config.len();
        let mut payload = bytes[header + 12..].to_vec();
        assert_eq!(payload.pop(), Some(0), "records are written with flag 0");
        let rewrite = |flag: u8| {
            let mut p = payload.clone();
            p.push(flag);
            encode_export(&mut p, &export(4));
            let mut out = bytes[..header].to_vec();
            out.extend_from_slice(&(p.len() as u32).to_le_bytes());
            out.extend_from_slice(&xxh64(&p, 0).to_le_bytes());
            out.extend_from_slice(&p);
            fs::write(&path, out).unwrap();
        };

        rewrite(1);
        let store = TieredStore::with_disk(None, None, &dir).unwrap();
        let disk = store.disk().unwrap();
        assert_eq!(disk.loaded_records(), 1);
        assert_eq!(disk.corrupt_records(), 0);
        match store.lookup_clauses(fp(2), GateOp::And) {
            Some((hit, true)) => {
                assert_eq!(hit.export.clauses, export(3).clauses);
                assert_eq!(hit.export.activities, export(3).activities);
                assert!(hit.exact);
            }
            other => panic!("expected the oracle export from disk, got {other:?}"),
        }

        rewrite(2);
        let tier = DiskTier::open(&dir).unwrap();
        assert_eq!(tier.loaded_records(), 0);
        assert_eq!(tier.corrupt_records(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn first_writer_wins_on_disk() {
        let dir = std::env::temp_dir().join(format!("step-store-fww-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let config = DecompConfig::new(Model::QbfDisjoint);
        let ns = Namespace::results(&config);
        let tier = DiskTier::open(&dir).unwrap();
        let key = ArtifactKey::of(fp(1), GateOp::Or);
        tier.put(&ns, &key, Artifact::Result(result(true)));
        tier.put(&ns, &key, Artifact::Result(result(false)));
        match tier.get(&ns, &key) {
            Some(Artifact::Result(r)) => assert!(r.proved_optimal, "first write sticks"),
            other => panic!("expected result, got {other:?}"),
        }
        assert_eq!(tier.flush().unwrap(), 1, "one dirty record, not two");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Writes a valid two-record store, then damages it per `damage`
    /// and asserts the good prefix survives the reload.
    fn corruption_case(name: &str, damage: impl FnOnce(&mut Vec<u8>)) {
        let dir =
            std::env::temp_dir().join(format!("step-store-corrupt-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let config = DecompConfig::new(Model::QbfDisjoint);
        let ns = Namespace::results(&config);
        {
            let tier = DiskTier::open(&dir).unwrap();
            tier.put(
                &ns,
                &ArtifactKey::of(fp(1), GateOp::Or),
                Artifact::Result(result(true)),
            );
            tier.put(
                &ns,
                &ArtifactKey::of(fp(2), GateOp::Or),
                Artifact::Result(result(false)),
            );
            tier.flush().unwrap();
        }
        let path = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == STORE_EXT))
            .expect("store file exists");
        let mut bytes = fs::read(&path).unwrap();
        damage(&mut bytes);
        fs::write(&path, &bytes).unwrap();
        let tier = DiskTier::open(&dir).unwrap();
        assert_eq!(tier.corrupt_records(), 1, "{name}: damage counted");
        assert_eq!(tier.loaded_records(), 1, "{name}: good prefix kept");
        assert!(
            tier.get(&ns, &ArtifactKey::of(fp(1), GateOp::Or)).is_some(),
            "{name}: first record survives"
        );
        assert!(
            tier.get(&ns, &ArtifactKey::of(fp(2), GateOp::Or)).is_none(),
            "{name}: damaged tail skipped"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_keeps_the_good_prefix() {
        corruption_case("truncate", |bytes| {
            let n = bytes.len();
            bytes.truncate(n - 7);
        });
    }

    #[test]
    fn bit_flipped_tail_keeps_the_good_prefix() {
        corruption_case("bitflip", |bytes| {
            let n = bytes.len();
            bytes[n - 1] ^= 0x40;
        });
    }

    #[test]
    fn foreign_version_skips_the_whole_file() {
        let dir = std::env::temp_dir().join(format!("step-store-foreign-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let config = DecompConfig::new(Model::QbfDisjoint);
        let ns = Namespace::results(&config);
        {
            let tier = DiskTier::open(&dir).unwrap();
            tier.put(
                &ns,
                &ArtifactKey::of(fp(1), GateOp::Or),
                Artifact::Result(result(true)),
            );
            tier.flush().unwrap();
        }
        let path = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == STORE_EXT))
            .unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[8] = 0xFF; // version low byte
        fs::write(&path, &bytes).unwrap();
        let tier = DiskTier::open(&dir).unwrap();
        assert_eq!(tier.loaded_records(), 0, "foreign file contributes nothing");
        assert_eq!(tier.corrupt_records(), 1, "and bumps the counter");
        assert!(tier.get(&ns, &ArtifactKey::of(fp(1), GateOp::Or)).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_dedups_by_key_and_survives_flush() {
        let base = std::env::temp_dir().join(format!("step-store-merge-{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);
        let config = DecompConfig::new(Model::QbfDisjoint);
        let ns = Namespace::results(&config);
        let a = DiskTier::open(&base.join("a")).unwrap();
        let b = DiskTier::open(&base.join("b")).unwrap();
        a.put(
            &ns,
            &ArtifactKey::of(fp(1), GateOp::Or),
            Artifact::Result(result(true)),
        );
        a.put(
            &ns,
            &ArtifactKey::of(fp(2), GateOp::Or),
            Artifact::Result(result(true)),
        );
        b.put(
            &ns,
            &ArtifactKey::of(fp(2), GateOp::Or),
            Artifact::Result(result(false)),
        );
        b.put(
            &ns,
            &ArtifactKey::of(fp(3), GateOp::Or),
            Artifact::Result(result(true)),
        );
        a.flush().unwrap();
        b.flush().unwrap();
        let out = DiskTier::open(&base.join("out")).unwrap();
        assert_eq!(out.merge_from(&a), 2);
        assert_eq!(out.merge_from(&b), 1, "shared key deduplicated");
        assert_eq!(out.flush().unwrap(), 3);
        let reread = DiskTier::open(&base.join("out")).unwrap();
        assert_eq!(reread.len(), 3);
        for h in 1..=3u128 {
            assert!(reread
                .get(&ns, &ArtifactKey::of(fp(h), GateOp::Or))
                .is_some());
        }
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn tiered_get_promotes_disk_hits_into_tier_0() {
        let dir = std::env::temp_dir().join(format!("step-store-promote-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let config = DecompConfig::new(Model::QbfDisjoint);
        let rns = Namespace::results(&config);
        let pns = probe_ns();
        {
            let seed = TieredStore::with_disk(None, None, &dir).unwrap();
            seed.insert_result(&rns, fp(1), GateOp::Or, result(true));
            seed.donate(fp(2), GateOp::Or, Arc::new(export(9)));
            seed.record_probe(
                &pns,
                fp(3),
                GateOp::Or,
                Target::Any,
                ProbeVerdict::Infeasible,
            );
            seed.flush().unwrap();
        }
        let cache = Arc::new(ResultCache::new());
        let bank = Arc::new(ClauseBank::new());
        let store = TieredStore::with_disk(Some(Arc::clone(&cache)), Some(Arc::clone(&bank)), &dir)
            .unwrap();
        // First lookup: disk. Second: tier 0 (promoted).
        let result_from_disk = || store.lookup_result(&rns, fp(1), GateOp::Or).unwrap().1;
        assert!(result_from_disk());
        assert!(!result_from_disk());
        assert_eq!(store.disk_result_hits(), 1);
        assert_eq!(cache.len(), 1, "promotion lands in the cache");
        let (hit, from_disk) = store.lookup_clauses(fp(2), GateOp::Or).unwrap();
        assert!(from_disk);
        assert!(hit.exact, "disk donors import verbatim");
        assert!(!store.lookup_clauses(fp(2), GateOp::Or).unwrap().1);
        assert_eq!(bank.exact_hits(), 1, "promotion lands in the bank");
        assert_eq!(store.disk_clause_hits(), 1);
        let probe_from_disk = || {
            let hit = store.lookup_probe(&pns, fp(3), GateOp::Or, Target::Any);
            hit.unwrap().1
        };
        assert!(probe_from_disk());
        assert!(!probe_from_disk());
        assert_eq!(store.disk_probe_hits(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_store_serves_tier_0_only() {
        let cache = Arc::new(ResultCache::new());
        let store = TieredStore::memory(Some(Arc::clone(&cache)), None);
        assert!(store.serves_results());
        let config = DecompConfig::new(Model::QbfDisjoint);
        let ns = Namespace::results(&config);
        assert!(store.lookup_result(&ns, fp(1), GateOp::Or).is_none());
        store.insert_result(&ns, fp(1), GateOp::Or, result(true));
        let (hit, from_disk) = store.lookup_result(&ns, fp(1), GateOp::Or).unwrap();
        assert_eq!(hit, result(true));
        assert!(!from_disk);
        assert_eq!(store.flush().unwrap(), 0, "no disk tier, nothing to flush");
        assert!(!TieredStore::memory(None, None).serves_results());
    }

    #[test]
    fn scan_walks_persisted_entries_in_key_order() {
        let dir = std::env::temp_dir().join(format!("step-store-scan-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = TieredStore::with_disk(None, None, &dir).unwrap();
        let config = DecompConfig::new(Model::QbfDisjoint);
        let ns = Namespace::results(&config);
        for h in [3u128, 1, 2] {
            store.insert_result(&ns, fp(h), GateOp::Or, result(true));
        }
        let mut seen = Vec::new();
        store.scan(&ns, &mut |key, _| seen.push(key.fingerprint.hash));
        assert_eq!(seen, vec![1, 2, 3]);
        let _ = fs::remove_dir_all(&dir);
    }
}
