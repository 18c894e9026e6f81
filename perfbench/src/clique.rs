//! The `evolve` information space: a PC clique of base relations that host
//! the views, plus a static dimension relation some views join.
//!
//! Every pair of clique members carries a PC constraint over all of their
//! attributes and no two members are equivalent: each member is a strict
//! prefix (⊆) or extension (⊇) of the others, realized by the data. So
//! when the host relation of the views is deleted, every surviving member
//! is a legal replacement, and QC must trade extent divergence (a smaller
//! or larger partner) against maintenance cost (size and site). The sizes
//! and sites are chosen so that the QC-best partner of `C1` is `C2` and the
//! QC-best partner of `C2` is `C1`: deleting the host and re-registering it
//! (with its constraints) alternates the views between the two, and every
//! cycle does the same work against the same partner set.

use eve_misd::{AttributeInfo, RelationInfo, SchemaChange, SiteId};
use eve_relational::{DataType, Relation, Schema, Tuple, Value};
use eve_sync::EvolutionOp;

use crate::ops::Op;
use crate::rng::Rng;

/// Clique members: name, site, cardinality. Sizes are distinct (no ≡
/// partner) and the members are spread over the three sites.
pub const MEMBERS: [(&str, u32, usize); 5] = [
    ("C0", 1, 900),
    ("C1", 2, 1200),
    ("C2", 3, 1400),
    ("C3", 1, 2500),
    ("C4", 2, 6000),
];

/// The two members the views alternate between.
pub const HOSTS: [&str; 2] = ["C1", "C2"];

const DIM: &str = "D";
const DIM_ROWS: usize = 1200;

/// The views over the host `{H}`. Four have one binding; four join the
/// host with the static dimension relation.
const VIEW_BODIES: [&str; 8] = [
    "SELECT X.K, X.P FROM {H} X (RR = true) WHERE (X.Q < 50)",
    "SELECT X.K, X.Q FROM {H} X (RR = true) WHERE (X.P < 20)",
    "SELECT X.K FROM {H} X (RR = true)",
    "SELECT X.P, X.Q FROM {H} X (RR = true) WHERE (X.K < 400)",
    "SELECT X.K, Y.G FROM {H} X (RR = true), D Y WHERE (X.K = Y.K)",
    "SELECT X.P, Y.G FROM {H} X (RR = true), D Y WHERE (X.K = Y.K) AND (Y.G < 5)",
    "SELECT X.K, X.P, Y.G FROM {H} X (RR = true), D Y WHERE (X.K = Y.K) AND (X.Q < 30)",
    "SELECT X.Q, Y.G FROM {H} X (RR = true), D Y WHERE (X.K = Y.K) AND (X.P < 60)",
];

pub fn view_names() -> Vec<String> {
    (0..VIEW_BODIES.len()).map(|i| format!("E{i}")).collect()
}

/// The view statements with the views on `host`.
pub fn views(host: &str) -> Vec<String> {
    view_names()
        .iter()
        .zip(VIEW_BODIES)
        .map(|(name, body)| {
            format!(
                "view CREATE VIEW {name} (VE = '~') AS {}",
                body.replace("{H}", host)
            )
        })
        .collect()
}

fn clique_schema() -> Schema {
    Schema::of(&[
        ("K", DataType::Int),
        ("P", DataType::Int),
        ("Q", DataType::Int),
    ])
    .expect("static schema")
}

fn info(name: &str, site: u32, attrs: &[&str], cardinality: usize) -> RelationInfo {
    RelationInfo::new(
        name,
        SiteId(site),
        attrs
            .iter()
            .map(|a| AttributeInfo::new(*a, DataType::Int))
            .collect(),
        cardinality as u64,
    )
}

fn add_relation(info: RelationInfo, schema: Schema, rows: Vec<Tuple>) -> Op {
    let extent = Relation::with_tuples(info.name.clone(), schema, rows).expect("typed rows");
    Op::Apply(vec![EvolutionOp::Capability {
        change: SchemaChange::AddRelation { relation: info },
        new_extent: Some(extent),
    }])
}

/// The seeded data of one `evolve` tenant.
pub struct Clique {
    /// Rows of the largest member; member `j` holds the first `size_j`.
    pool: Vec<Tuple>,
    dim: Vec<Tuple>,
}

impl Clique {
    /// `P` and `Q` are seeded permutations of `K mod 100` and `G` one of
    /// `i mod 10`, so every view's extent has the same size for every seed
    /// (the member sizes are multiples of 100).
    pub fn generate(seed: u64) -> Clique {
        let mut rng = Rng::new(seed ^ 0xc11c);
        let p = rng.permutation(100);
        let q = rng.permutation(100);
        let g = rng.permutation(10);
        let max = MEMBERS.iter().map(|m| m.2).max().expect("members");
        let pool = (0..max)
            .map(|k| {
                Tuple::new(vec![
                    Value::Int(k as i64),
                    Value::Int(p[k % 100]),
                    Value::Int(q[k % 100]),
                ])
            })
            .collect();
        let dim = (0..DIM_ROWS)
            .map(|i| Tuple::new(vec![Value::Int(2 * i as i64), Value::Int(g[i % 10])]))
            .collect();
        Clique { pool, dim }
    }

    fn member(name: &str) -> (u32, usize) {
        let m = MEMBERS.iter().find(|m| m.0 == name).expect("clique member");
        (m.1, m.2)
    }

    /// `Apply{AddRelation + extent}` for member `name`.
    pub fn add_member(&self, name: &str) -> Op {
        let (site, size) = Self::member(name);
        add_relation(
            info(name, site, &["K", "P", "Q"], size),
            clique_schema(),
            self.pool[..size].to_vec(),
        )
    }

    /// The PC and JC statements that tie member `name` to the rest of the
    /// clique and to the dimension. Smaller-to-larger pairs are stated as
    /// `<=` from the smaller side and `>=` from the larger side, so both
    /// orientations occur.
    pub fn member_constraints(name: &str) -> Vec<Op> {
        let (_, size) = Self::member(name);
        let mut out = Vec::new();
        for (other, _, other_size) in MEMBERS {
            if other == name {
                continue;
            }
            let op = if size < other_size { "<=" } else { ">=" };
            out.push(Op::Stmt(format!(
                "pc {name} (K, P, Q) {op} {other} (K, P, Q)"
            )));
        }
        out.push(Op::Stmt(format!("jc {name}.K = {DIM}.K")));
        out
    }

    /// Sites, relations, constraints and views: the tenant's starting
    /// state, with the views on `HOSTS[0]`.
    pub fn setup(&self) -> Vec<Op> {
        let mut ops: Vec<Op> = (1..=3)
            .map(|s| Op::Stmt(format!("site {s} source{s}")))
            .collect();
        ops.push(add_relation(
            info(DIM, 3, &["K", "G"], DIM_ROWS),
            Schema::of(&[("K", DataType::Int), ("G", DataType::Int)]).expect("static schema"),
            self.dim.clone(),
        ));
        for (name, _, _) in MEMBERS {
            ops.push(self.add_member(name));
        }
        // Each unordered pair once, stated from the smaller member (the
        // members are listed by ascending size).
        for (i, (name, _, _)) in MEMBERS.iter().enumerate() {
            for (other, _, _) in &MEMBERS[i + 1..] {
                ops.push(Op::Stmt(format!(
                    "pc {name} (K, P, Q) <= {other} (K, P, Q)"
                )));
            }
            ops.push(Op::Stmt(format!("jc {name}.K = {DIM}.K")));
        }
        ops.extend(views(HOSTS[0]).into_iter().map(Op::Stmt));
        ops
    }

    /// One cycle: delete the current host, then re-register it with its
    /// extent and constraints. Only the first op is the timed change.
    pub fn cycle(&self, host: &str) -> Vec<Op> {
        let mut ops = vec![
            Op::Stmt(format!("change delete-relation {host}")),
            self.add_member(host),
        ];
        ops.extend(Self::member_constraints(host));
        ops
    }
}
