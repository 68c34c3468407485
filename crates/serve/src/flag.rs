//! The command-line layer every front end parses its flags with —
//! `step`, `step synthesize`, `step serve`, `step client` and the
//! evaluation harness binaries.
//!
//! * [`Args`] — an argument cursor whose value readers return
//!   `<flag>: <why>` errors (a missing value, a bad number, a
//!   non-positive count, a bad [`Budget`] spec, an unknown model or
//!   operator, a bad `--cache-dir`);
//! * [`ReuseOpts`] — the reuse flag group (result cache, clause bank,
//!   persistent store), its one [`TieredStore`] builder, and
//!   [`finish_store`], the one printer of the reuse statistics lines;
//! * [`parsed_or_exit`] / [`usage_error`] — the one exit convention:
//!   `--help` prints the front end's usage on stdout and exits 0, a
//!   bad invocation prints `<flag>: <why>` plus the usage on stderr
//!   and exits 2.
//!
//! Parsers built on this never print and never exit; each front end's
//! entry point hands the parse result and its own usage text to
//! [`parsed_or_exit`].

use std::fmt::Display;
use std::io;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;

use step_core::{check_cache_dir, Budget, ClauseBank, GateOp, Model, ResultCache, TieredStore};

/// A cursor over a front end's arguments. [`next_arg`](Args::next_arg)
/// steps to the next flag or positional; the value readers consume the
/// arguments after it and name it in their errors.
pub struct Args<'a> {
    args: &'a [String],
    next: usize,
    flag: &'a str,
}

impl<'a> Args<'a> {
    /// A cursor before the first of `args`.
    pub fn new(args: &'a [String]) -> Self {
        Args {
            args,
            next: 0,
            flag: "",
        }
    }

    /// Steps to the next argument (a flag or a positional).
    pub fn next_arg(&mut self) -> Option<&'a str> {
        let arg = self.args.get(self.next)?;
        self.next += 1;
        self.flag = arg;
        Some(arg)
    }

    /// `<flag>: <why>` for the argument the cursor is on.
    pub fn error(&self, why: impl Display) -> String {
        format!("{}: {why}", self.flag)
    }

    /// The next argument, as the current flag's value.
    ///
    /// # Errors
    ///
    /// The flag is the last argument.
    pub fn value(&mut self) -> Result<&'a str, String> {
        let value = self
            .args
            .get(self.next)
            .ok_or_else(|| self.error("missing value"))?;
        self.next += 1;
        Ok(value)
    }

    /// The flag's value parsed as a `T` (numbers, restart policies).
    ///
    /// # Errors
    ///
    /// A missing value, or one `T` does not parse.
    pub fn parse<T: FromStr>(&mut self) -> Result<T, String>
    where
        T::Err: Display,
    {
        let value = self.value()?;
        value
            .parse()
            .map_err(|e| self.error(format!("bad value `{value}` ({e})")))
    }

    /// The flag's value as a positive count (`--jobs`, caps, copies).
    ///
    /// # Errors
    ///
    /// A missing value, or one that is not an integer ≥ 1.
    pub fn count(&mut self) -> Result<usize, String> {
        match self.parse()? {
            0 => Err(self.error("needs a positive integer, got `0`")),
            n => Ok(n),
        }
    }

    /// The flag's value as a [`Budget`] spec.
    ///
    /// # Errors
    ///
    /// A missing value, or the reason [`Budget::parse`] gives.
    pub fn budget(&mut self) -> Result<Budget, String> {
        let value = self.value()?;
        Budget::parse(value).map_err(|e| self.error(e))
    }

    /// The flag's value as a [`Model`] name.
    ///
    /// # Errors
    ///
    /// A missing value, or a name [`Model::from_name`] does not know.
    pub fn model(&mut self) -> Result<Model, String> {
        let value = self.value()?;
        Model::from_name(value).ok_or_else(|| {
            let names: Vec<&str> = Model::ALL.iter().map(|m| m.name()).collect();
            self.error(format!("unknown model `{value}` ({})", names.join("|")))
        })
    }

    /// The flag's value as a [`GateOp`] name.
    ///
    /// # Errors
    ///
    /// A missing value, or a name [`GateOp::from_name`] does not know.
    pub fn op(&mut self) -> Result<GateOp, String> {
        let value = self.value()?;
        GateOp::from_name(value).ok_or_else(|| {
            let names: Vec<&str> = GateOp::ALL.iter().map(|op| op.name()).collect();
            self.error(format!("unknown operator `{value}` ({})", names.join("|")))
        })
    }

    /// The flag's value as written, once `read` accepts it — for a
    /// front end that forwards the text (the client's budget specs and
    /// restart policy) but should refuse a bad value as `step` does.
    ///
    /// # Errors
    ///
    /// Whatever `read` reports.
    pub(crate) fn vetted<T>(
        &mut self,
        read: fn(&mut Self) -> Result<T, String>,
    ) -> Result<&'a str, String> {
        let at = self.next;
        read(self)?;
        Ok(self.args[at].as_str())
    }

    /// The flag's value as a store directory, vetted by
    /// [`check_cache_dir`] before any work starts: a bad path is a
    /// usage error up front, never a failure after solving or after a
    /// server announced its port.
    ///
    /// # Errors
    ///
    /// A missing value, or a path that is not (and cannot become) a
    /// writable directory.
    pub fn cache_dir(&mut self) -> Result<PathBuf, String> {
        let dir = PathBuf::from(self.value()?);
        check_cache_dir(&dir).map_err(|e| self.error(e))?;
        Ok(dir)
    }
}

/// Ends a front end's flag parse: the parsed options, or — on
/// `Ok(None)`, a `--help` request — `usage` on stdout and exit 0, or —
/// on `Err`, a `<flag>: <why>` message — that message and `usage` on
/// stderr and exit 2.
pub fn parsed_or_exit<T>(parsed: Result<Option<T>, String>, usage: &str) -> T {
    match parsed {
        Ok(Some(options)) => options,
        Ok(None) => {
            println!("{usage}");
            std::process::exit(0)
        }
        Err(why) => usage_error(&why, usage),
    }
}

/// A bad invocation: `why` (a `<flag>: <why>` message) and `usage` on
/// stderr, exit 2.
pub fn usage_error(why: &str, usage: &str) -> ! {
    eprintln!("{why}\n{usage}");
    std::process::exit(2)
}

/// The reuse flag group: `--cache`/`--no-cache`, `--cache-cap n`,
/// `--clause-reuse`/`--no-clause-reuse`, `--clause-bank-cap n` and
/// `--cache-dir path`.
#[derive(Clone, Debug)]
pub struct ReuseOpts {
    /// Attach a result cache (default on).
    pub cache: bool,
    /// Bound the result cache (`--cache-cap`, implies `cache`).
    pub cache_cap: Option<usize>,
    /// Cross-output clause reuse (default off).
    pub clause_reuse: bool,
    /// Bound the clause bank (`--clause-bank-cap`, implies
    /// `clause_reuse`).
    pub clause_bank_cap: Option<usize>,
    /// Persistent store directory, vetted at parse time.
    pub cache_dir: Option<PathBuf>,
}

impl Default for ReuseOpts {
    /// Result cache on, clause reuse off, memory only.
    fn default() -> Self {
        ReuseOpts {
            cache: true,
            cache_cap: None,
            clause_reuse: false,
            clause_bank_cap: None,
            cache_dir: None,
        }
    }
}

impl ReuseOpts {
    /// Applies the flag `args` is on when it belongs to the group,
    /// reading its value; `Ok(false)` when it does not.
    ///
    /// # Errors
    ///
    /// The value reader's `<flag>: <why>` message.
    pub fn parse_flag(&mut self, args: &mut Args<'_>) -> Result<bool, String> {
        match args.flag {
            "--cache" => self.cache = true,
            "--no-cache" => self.cache = false,
            "--cache-cap" => {
                self.cache_cap = Some(args.count()?);
                self.cache = true;
            }
            "--clause-reuse" => self.clause_reuse = true,
            "--no-clause-reuse" => self.clause_reuse = false,
            "--clause-bank-cap" => {
                self.clause_bank_cap = Some(args.count()?);
                self.clause_reuse = true;
            }
            "--cache-dir" => self.cache_dir = Some(args.cache_dir()?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Builds the run's tiered store: the cache and bank as tier 0,
    /// plus the persistent tier when `--cache-dir` was given.
    ///
    /// # Errors
    ///
    /// The disk tier failed to open (the directory was vetted at parse
    /// time, so it changed since).
    pub fn build_store(&self) -> io::Result<Arc<TieredStore>> {
        let cache = self.cache.then(|| {
            Arc::new(match self.cache_cap {
                Some(cap) => ResultCache::with_capacity(cap),
                None => ResultCache::new(),
            })
        });
        let bank = self.clause_reuse.then(|| {
            Arc::new(match self.clause_bank_cap {
                Some(cap) => ClauseBank::with_capacity(cap),
                None => ClauseBank::new(),
            })
        });
        Ok(Arc::new(match &self.cache_dir {
            Some(dir) => TieredStore::with_disk(cache, bank, dir)?,
            None => TieredStore::memory(cache, bank),
        }))
    }
}

/// Flushes `store` to its disk tier and returns the cache, clause-bank
/// and store statistics lines (each ending in a newline). A failed
/// flush warns on stderr: it costs the next run's warm start, not the
/// answers already printed. The counters vary with scheduling under
/// `--jobs`, so front ends print them only with timing on, or on
/// stderr.
pub fn finish_store(store: &TieredStore) -> String {
    if let Err(e) = store.flush() {
        eprintln!("warning: cache flush failed: {e}");
    }
    let mut lines = String::new();
    if let Some(cache) = store.cache() {
        lines += &format!(
            "cache: {} hits, {} misses, {} inserts, {} evictions, {} entries\n",
            cache.hits(),
            cache.misses(),
            cache.inserts(),
            cache.evictions(),
            cache.len()
        );
    }
    if let Some(bank) = store.bank() {
        lines += &format!(
            "clause bank: {} hits ({} exact, {} cluster), {} misses, \
             {} donations, {} entries, {} probe hits, {} probe records\n",
            bank.hits(),
            bank.exact_hits(),
            bank.cluster_hits(),
            bank.misses(),
            bank.donations(),
            bank.len(),
            bank.probe_hits(),
            bank.probe_records()
        );
    }
    if let Some(disk) = store.disk() {
        lines += &format!(
            "store: {} record(s) loaded, disk hits {} results / {} clauses / \
             {} probes, {} flushed, {} corrupt\n",
            disk.loaded_records(),
            store.disk_result_hits(),
            store.disk_clause_hits(),
            store.disk_probe_hits(),
            disk.flushed_records(),
            disk.corrupt_records()
        );
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    /// A cursor on the first of `args`, the flag under test.
    fn on_flag(args: &[String]) -> Args<'_> {
        let mut cursor = Args::new(args);
        cursor.next_arg().expect("a flag");
        cursor
    }

    #[test]
    fn value_readers_name_the_flag_and_the_reason() {
        let err = |args: &[&str], read: &dyn Fn(&mut Args<'_>) -> Result<(), String>| {
            read(&mut on_flag(&strings(args))).unwrap_err()
        };
        assert_eq!(on_flag(&strings(&["--jobs", "3"])).count(), Ok(3));
        assert_eq!(
            err(&["--jobs"], &|a| a.count().map(drop)),
            "--jobs: missing value"
        );
        assert_eq!(
            err(&["--jobs", "0"], &|a| a.count().map(drop)),
            "--jobs: needs a positive integer, got `0`"
        );
        let bad = err(&["--seed", "x"], &|a| a.parse::<u64>().map(drop));
        assert!(bad.starts_with("--seed: bad value `x`"), "{bad}");
        assert_eq!(
            on_flag(&strings(&["--budget", "work:2k"])).budget(),
            Ok(Budget::Work(2000))
        );
        let budget = err(&["--budget", "60"], &|a| a.budget().map(drop));
        assert!(budget.starts_with("--budget: bad budget `60`"), "{budget}");
        // Vetted values pass on as typed, and fail as their reader does.
        assert_eq!(
            on_flag(&strings(&["--budget", "work:200k"])).vetted(Args::budget),
            Ok("work:200k")
        );
        assert_eq!(
            err(&["--budget", "60"], &|a| a.vetted(Args::budget).map(drop)),
            budget
        );
        assert_eq!(
            on_flag(&strings(&["--model", "qdb"])).model(),
            Ok(Model::QbfCombined)
        );
        assert_eq!(
            err(&["--model", "qe"], &|a| a.model().map(drop)),
            "--model: unknown model `qe` (ljh|mg|qd|qb|qdb)"
        );
        assert_eq!(on_flag(&strings(&["--op", "xor"])).op(), Ok(GateOp::Xor));
        assert_eq!(
            err(&["--op", "nand"], &|a| a.op().map(drop)),
            "--op: unknown operator `nand` (or|and|xor)"
        );
    }

    #[test]
    fn reuse_group_claims_only_its_own_flags() {
        let args = strings(&[
            "--cache-cap",
            "8",
            "--clause-bank-cap",
            "2",
            "--no-cache",
            "--jobs",
        ]);
        let mut cursor = Args::new(&args);
        let mut reuse = ReuseOpts::default();
        let mut claimed = Vec::new();
        while let Some(flag) = cursor.next_arg() {
            claimed.push((flag, reuse.parse_flag(&mut cursor)));
        }
        assert_eq!(
            claimed,
            [
                ("--cache-cap", Ok(true)),
                ("--clause-bank-cap", Ok(true)),
                ("--no-cache", Ok(true)),
                ("--jobs", Ok(false)),
            ]
        );
        assert!(!reuse.cache && reuse.clause_reuse);
        assert_eq!((reuse.cache_cap, reuse.clause_bank_cap), (Some(8), Some(2)));
        let store = reuse.build_store().expect("memory store");
        assert!(store.cache().is_none() && store.bank().is_some());
        let zero = strings(&["--cache-cap", "0"]);
        assert_eq!(
            ReuseOpts::default().parse_flag(&mut on_flag(&zero)),
            Err("--cache-cap: needs a positive integer, got `0`".to_owned())
        );
    }
}
