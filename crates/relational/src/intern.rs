//! Global string interning pool, sharded N ways.
//!
//! Text values dominate the cost of row-oriented join keys: hashing and
//! cloning `String`s per probe. The columnar layer ([`crate::column`])
//! stores text columns as [`Symbol`] ids into this process-wide pool, so
//! equality compares and hashes a `u32` instead.
//!
//! The pool is append-only: a string interned once keeps its id for the
//! lifetime of the process, which is what lets columnar batches built at
//! different times compare symbols directly. [`lookup`] is the
//! non-inserting probe used for literal lookups — an unseen string has no
//! symbol and therefore matches nothing, without growing the pool.
//!
//! # Sharding
//!
//! Morsel-parallel columnar builds intern every text value of a batch
//! concurrently; a single pool lock would serialize exactly the hot path
//! parallelism is meant to spread. The pool is therefore split into
//! [`SHARDS`] independently locked shards, routed by a hash of the string
//! bytes. A symbol encodes its home shard in its low [`SHARD_BITS`] bits
//! (`id = local_index << SHARD_BITS | shard`), so [`resolve`] routes
//! without rehashing the string. Symbol semantics are unchanged: ids are
//! stable for the process lifetime and symbol equality still coincides
//! with string equality, because each string maps to exactly one shard.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

use eve_trace::Counter;

/// Number of independently locked pool shards (power of two).
pub const SHARDS: usize = 16;
/// Bits of a symbol id that carry the shard index.
const SHARD_BITS: u32 = SHARDS.trailing_zeros();

/// Interned string id. Equality of symbols ⇔ equality of the underlying
/// strings (the pool never assigns one id to two strings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// The raw pool id (shard index in the low bits).
    #[must_use]
    pub fn id(self) -> u32 {
        self.0
    }
}

#[derive(Default)]
struct ShardInner {
    map: HashMap<Arc<str>, u32>,
    strings: Vec<Arc<str>>,
}

struct Shard {
    inner: RwLock<ShardInner>,
    /// Registry-backed counters (`intern.shardNN.hits`/`.misses` in the
    /// global registry): the shell's `InternStats` rollup and the
    /// `metrics` surface read the same atomics.
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

static POOL: OnceLock<Vec<Shard>> = OnceLock::new();

fn shards() -> &'static [Shard] {
    POOL.get_or_init(|| {
        let registry = eve_trace::global();
        (0..SHARDS)
            .map(|i| Shard {
                inner: RwLock::default(),
                hits: registry.counter(&format!("intern.shard{i:02}.hits")),
                misses: registry.counter(&format!("intern.shard{i:02}.misses")),
            })
            .collect()
    })
}

/// FNV-1a over the string bytes, folded to a shard index. Deliberately a
/// different mix than the join-key hasher so partition skew in one does
/// not imply lock contention in the other.
fn shard_of(s: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h ^ (h >> 32)) as usize & (SHARDS - 1)
}

/// Interns `s`, returning its stable [`Symbol`]. Idempotent: the same
/// string always yields the same symbol.
pub fn intern(s: &str) -> Symbol {
    let shard_idx = shard_of(s);
    let shard = &shards()[shard_idx];
    // Fast path: already interned (shard read lock only).
    if let Some(&id) = shard
        .inner
        .read()
        .expect("intern shard poisoned")
        .map
        .get(s)
    {
        shard.hits.inc();
        return Symbol(id);
    }
    let mut inner = shard.inner.write().expect("intern shard poisoned");
    if let Some(&id) = inner.map.get(s) {
        shard.hits.inc();
        return Symbol(id);
    }
    shard.misses.inc();
    let local = u32::try_from(inner.strings.len()).expect("intern shard exceeds u32 ids");
    assert!(
        local < (1 << (32 - SHARD_BITS)),
        "intern shard exceeds id space"
    );
    let id = (local << SHARD_BITS) | (shard_idx as u32);
    let arc: Arc<str> = Arc::from(s);
    inner.strings.push(Arc::clone(&arc));
    inner.map.insert(arc, id);
    Symbol(id)
}

/// Non-inserting probe: the symbol for `s` if it was ever interned. Used
/// for literal/probe-key lookups so query constants never grow the pool.
#[must_use]
pub fn lookup(s: &str) -> Option<Symbol> {
    shards()[shard_of(s)]
        .inner
        .read()
        .expect("intern shard poisoned")
        .map
        .get(s)
        .map(|&id| Symbol(id))
}

/// Resolves a symbol back to its string, routing by the shard bits of
/// its id.
///
/// # Panics
///
/// Panics on a symbol that was never produced by [`intern`] (impossible
/// through the public API).
#[must_use]
pub fn resolve(sym: Symbol) -> Arc<str> {
    let shard = &shards()[sym.0 as usize & (SHARDS - 1)];
    Arc::clone(
        shard
            .inner
            .read()
            .expect("intern shard poisoned")
            .strings
            .get((sym.0 >> SHARD_BITS) as usize)
            .expect("symbol from a foreign pool"),
    )
}

/// Pool counters, for the shell `stats` surface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Distinct strings held by the pool.
    pub symbols: u64,
    /// `intern` calls answered by an existing symbol.
    pub hits: u64,
    /// `intern` calls that inserted a new symbol.
    pub misses: u64,
}

impl std::iter::Sum for InternStats {
    fn sum<I: Iterator<Item = InternStats>>(iter: I) -> InternStats {
        iter.fold(InternStats::default(), |total, s| InternStats {
            symbols: total.symbols + s.symbols,
            hits: total.hits + s.hits,
            misses: total.misses + s.misses,
        })
    }
}

fn shard_snapshot(shard: &Shard) -> InternStats {
    InternStats {
        symbols: shard
            .inner
            .read()
            .expect("intern shard poisoned")
            .strings
            .len() as u64,
        hits: shard.hits.get(),
        misses: shard.misses.get(),
    }
}

/// Snapshot of the pool counters, rolled up across all shards.
#[must_use]
pub fn stats() -> InternStats {
    shard_stats().into_iter().sum()
}

/// Per-shard counter snapshots, indexed by shard. [`stats`] is the sum of
/// one such read.
#[must_use]
pub fn shard_stats() -> Vec<InternStats> {
    shards().iter().map(shard_snapshot).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let a = intern("eve-intern-idempotent");
        let b = intern("eve-intern-idempotent");
        assert_eq!(a, b);
    }

    #[test]
    fn resolve_round_trips() {
        let sym = intern("eve-intern-roundtrip");
        assert_eq!(&*resolve(sym), "eve-intern-roundtrip");
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let a = intern("eve-intern-a");
        let b = intern("eve-intern-b");
        assert_ne!(a, b);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn lookup_does_not_insert() {
        assert!(lookup("eve-intern-never-interned-s9z").is_none());
        let before = stats().symbols;
        assert!(lookup("eve-intern-never-interned-s9z").is_none());
        assert_eq!(stats().symbols, before, "lookup must not grow the pool");
        let sym = intern("eve-intern-now-interned-s9z");
        assert_eq!(lookup("eve-intern-now-interned-s9z"), Some(sym));
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let before = stats();
        intern("eve-intern-stats-fresh-key");
        intern("eve-intern-stats-fresh-key");
        let after = stats();
        assert!(after.misses > before.misses);
        assert!(after.hits > before.hits);
    }

    #[test]
    fn shard_stats_roll_up_to_totals() {
        intern("eve-intern-shard-rollup-a");
        intern("eve-intern-shard-rollup-b");
        // One snapshot only: sibling tests intern concurrently, so two
        // separate reads of the global counters may legitimately differ.
        let per_shard = shard_stats();
        assert_eq!(per_shard.len(), SHARDS);
        let total: InternStats = per_shard.iter().copied().sum();
        assert_eq!(
            total,
            InternStats {
                symbols: per_shard.iter().map(|s| s.symbols).sum(),
                hits: per_shard.iter().map(|s| s.hits).sum(),
                misses: per_shard.iter().map(|s| s.misses).sum(),
            }
        );
        assert!(per_shard[shard_of("eve-intern-shard-rollup-a")].symbols >= 1);
        assert!(per_shard[shard_of("eve-intern-shard-rollup-b")].symbols >= 1);
    }

    #[test]
    fn symbol_id_routes_back_to_home_shard() {
        let sym = intern("eve-intern-shard-route");
        assert_eq!(
            sym.id() as usize & (SHARDS - 1),
            shard_of("eve-intern-shard-route"),
            "low bits of the id must name the shard that owns the string"
        );
    }

    #[test]
    fn strings_spread_across_multiple_shards() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            seen.insert(shard_of(&format!("eve-intern-spread-{i}")));
        }
        assert!(seen.len() > 4, "64 keys should land in more than 4 shards");
    }
}
