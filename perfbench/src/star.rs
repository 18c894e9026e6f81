//! The `ingest`/`mixed` information space: three relations on three sites
//! and one 3-way join view over them, plus the single-tuple update stream
//! the writer sends.
//!
//! Sizes: `R` 24000 rows, `S` and `T` 16000 rows each, joined on
//! `R.A = S.A` (8000 keys) and `S.B = T.B` (8000 keys) with a filter on
//! `T.C`, so `V` holds several hundred rows. The seed shuffles which row
//! gets which key, but every key has the same number of rows (3 in `R`, 2
//! in `S` per `A` and per `B`, 2 in `T`) and the filter passes exactly the
//! `T` rows of 50 keys, so `V` holds exactly 600 rows and each update does
//! the same join work for every seed. The relations are this large so
//! that an update's maintenance work (~4 ms) outweighs the thread
//! hand-offs and the fsync around it, whose cost follows the shared host
//! rather than the program. Every inserted tuple carries a key no seed row
//! or other round uses, and every insert is followed by the delete of the
//! same tuple, so the relations and the view return to their starting
//! contents after each pair.

use eve_misd::SchemaChange;
use eve_relational::{Tuple, Value};
use eve_sync::EvolutionOp;
use eve_system::DataUpdate;

use crate::ops::Op;
use crate::rng::Rng;

pub const VIEW: &str = "V";
const VIEW_SQL: &str = "CREATE VIEW V AS SELECT R.K, S.SK, T.TK, T.C FROM R, S, T \
                        WHERE (R.A = S.A) AND (S.B = T.B) AND (T.C < 5)";

/// Base relations: name, site, attributes (all `int`).
pub const RELATIONS: [(&str, u32, &[&str]); 3] = [
    ("R", 1, &["K", "A"]),
    ("S", 2, &["SK", "A", "B"]),
    ("T", 3, &["TK", "B", "C"]),
];

const KEYS: u64 = 8000;
const SEED_BATCH: usize = 2000;

/// A generated single-tuple update: what the writer sends as a statement
/// and what the in-process replays apply directly.
#[derive(Debug, Clone)]
pub struct Update {
    pub relation: &'static str,
    pub insert: bool,
    pub tuple: Vec<i64>,
}

impl Update {
    pub fn statement(&self) -> String {
        let values: Vec<String> = self.tuple.iter().map(i64::to_string).collect();
        format!(
            "update {} {} ({})",
            self.relation,
            if self.insert { "insert" } else { "delete" },
            values.join(", ")
        )
    }

    pub fn op(&self) -> Op {
        Op::Stmt(self.statement())
    }

    pub fn data_update(&self) -> DataUpdate {
        let tuple = Tuple::new(self.tuple.iter().map(|v| Value::Int(*v)).collect());
        if self.insert {
            DataUpdate::insert(self.relation, vec![tuple])
        } else {
            DataUpdate::delete(self.relation, vec![tuple])
        }
    }
}

fn row(rng: &mut Rng, relation: &str, key: i64) -> Vec<i64> {
    match relation {
        "R" => vec![key, rng.below(KEYS)],
        "S" => vec![key, rng.below(KEYS), rng.below(KEYS)],
        _ => vec![key, rng.below(KEYS), rng.below(100)],
    }
}

/// The seed rows of each relation, in `RELATIONS` order.
fn seed_rows(rng: &mut Rng) -> Vec<Vec<Vec<i64>>> {
    let keys = KEYS as i64;
    let (r_rows, st_rows) = (3 * KEYS as usize, 2 * KEYS as usize);
    let r_a = rng.permutation(r_rows);
    let s_a = rng.permutation(st_rows);
    let s_b = rng.permutation(st_rows);
    let t_b = rng.permutation(st_rows);
    let r = (0..r_rows).map(|k| vec![k as i64, r_a[k] % keys]).collect();
    let s = (0..st_rows)
        .map(|k| vec![k as i64, s_a[k] % keys, s_b[k] % keys])
        .collect();
    let t = (0..st_rows)
        .map(|k| {
            let b = t_b[k] % keys;
            // `C < 5` exactly for the 50 keys `B < 50`.
            let c = if b < 50 {
                rng.below(5)
            } else {
                5 + rng.below(95)
            };
            vec![k as i64, b, c]
        })
        .collect();
    vec![r, s, t]
}

/// Schema, bulk seed (through `Apply` batches) and the view definition.
pub fn setup(seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed ^ 0x57a7);
    let mut ops: Vec<Op> = (1..=3)
        .map(|s| Op::Stmt(format!("site {s} source{s}")))
        .collect();
    for (name, site, attrs) in RELATIONS {
        let cols: Vec<String> = attrs.iter().map(|a| format!("{a}:int")).collect();
        ops.push(Op::Stmt(format!(
            "relation {name} @{site} ({})",
            cols.join(", ")
        )));
    }
    for ((name, ..), rows) in RELATIONS.iter().zip(seed_rows(&mut rng)) {
        let tuples: Vec<Tuple> = rows
            .into_iter()
            .map(|row| Tuple::new(row.into_iter().map(Value::Int).collect()))
            .collect();
        for chunk in tuples.chunks(SEED_BATCH) {
            ops.push(Op::Apply(vec![EvolutionOp::insert(*name, chunk.to_vec())]));
        }
    }
    ops.push(Op::Stmt(format!("view {VIEW_SQL}")));
    ops
}

/// `pairs` insert/delete pairs for round `round`, cycling over the three
/// relations. Keys start above every seed key and are disjoint between
/// rounds.
pub fn writer_stream(seed: u64, round: u64, pairs: usize) -> Vec<Update> {
    let mut rng = Rng::new(seed ^ (round << 20) ^ 0x1e57);
    let base = 1_000_000 * (1 + round as i64);
    let mut out = Vec::with_capacity(pairs * 2);
    for p in 0..pairs {
        let relation = RELATIONS[p % RELATIONS.len()].0;
        let tuple = row(&mut rng, relation, base + p as i64);
        out.push(Update {
            relation,
            insert: true,
            tuple: tuple.clone(),
        });
        out.push(Update {
            relation,
            insert: false,
            tuple,
        });
    }
    out
}

/// Probe views that read each base relation whole (for the row-set
/// comparisons against the oracle).
pub fn base_probes() -> Vec<String> {
    RELATIONS
        .iter()
        .map(|(name, _, attrs)| {
            let cols: Vec<String> = attrs.iter().map(|a| format!("X.{a}")).collect();
            format!(
                "CREATE VIEW Probe{name} AS SELECT {} FROM {name} X",
                cols.join(", ")
            )
        })
        .collect()
}

/// A relation deletion the `sync` layer is timed against on this space
/// (dry run: the change is never applied).
pub fn dry_run_changes() -> Vec<SchemaChange> {
    RELATIONS
        .iter()
        .map(|(name, ..)| SchemaChange::DeleteRelation {
            relation: (*name).to_owned(),
        })
        .collect()
}

pub fn view_statements() -> Vec<String> {
    vec![format!("view {VIEW_SQL}")]
}
