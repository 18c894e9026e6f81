//! Store-format fixture: a store directory written before the engine's
//! mutations collapsed into one `Command` path, checked in under
//! `tests/fixtures/store-v1/`, pins two things.
//!
//! * A store written by the old code reopens through today's replay to
//!   the same engine state (`store-v1.fingerprint` holds the canonical
//!   `snapshot_state().to_bytes()` of the engine that wrote it).
//! * Today's code, running the same script, writes byte-identical log
//!   segments and full and delta snapshots — the log and snapshot
//!   encodings have not moved.
//!
//! The script covers every `LogRecord` kind, a full snapshot (the explicit
//! checkpoint), a delta snapshot (the automatic checkpoint after a batch)
//! and a log tail that recovery must replay. The fixture must never be
//! regenerated: its value is that the old code wrote it.

use eve::misd::{
    AttributeInfo, JoinConstraint, PcConstraint, PcRelationship, PcSide, RelationInfo,
    SchemaChange, SiteId,
};
use eve::relational::{tup, ColumnRef, DataType, IndexKind, PrimitiveClause, Relation, Schema};
use eve::sync::EvolutionOp;
use eve::system::{Applied, Command, DurableEngine, IndexHint};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/store-v1")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eve-store-fixture-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn attrs() -> Vec<AttributeInfo> {
    vec![
        AttributeInfo::new("K", DataType::Int),
        AttributeInfo::new("P", DataType::Int),
    ]
}

fn schema() -> Schema {
    Schema::of(&[("K", DataType::Int), ("P", DataType::Int)]).unwrap()
}

fn site(id: u32, name: &str) -> Command {
    Command::AddSite {
        id,
        name: name.into(),
    }
}

fn equijoin(left: &str, right: &str) -> Command {
    Command::AddJoinConstraint(JoinConstraint::new(
        left,
        right,
        vec![PrimitiveClause::eq(
            ColumnRef::parse(&format!("{left}.K")),
            ColumnRef::parse(&format!("{right}.K")),
        )],
    ))
}

fn view(sql: &str) -> Command {
    Command::DefineView(eve::esql::parse_view(sql).unwrap())
}

fn index(relation: &str, column: &str, kind: IndexKind) -> Command {
    Command::DeclareIndex(IndexHint {
        relation: relation.into(),
        column: column.into(),
        kind,
    })
}

fn apply(d: &mut DurableEngine, command: Command) -> Applied {
    d.apply(command).unwrap()
}

/// The fixed script the fixture was written with.
fn script(dir: &Path) -> DurableEngine {
    let mut d = DurableEngine::create(dir).unwrap();
    for (id, name) in [(1, "alpha"), (2, "beta"), (3, "gamma")] {
        apply(&mut d, site(id, name));
    }
    for (name, site) in [("Ra", 1u32), ("Rb", 2), ("Rc", 3)] {
        apply(
            &mut d,
            Command::RegisterRelation {
                info: RelationInfo::new(name, SiteId(site), attrs(), 8),
                extent: Relation::empty(name, schema()),
            },
        );
        apply(
            &mut d,
            Command::SeedTuples {
                relation: name.into(),
                tuples: (0..8i64).map(|k| tup![k, k % 3]).collect(),
            },
        );
    }
    apply(
        &mut d,
        Command::AddPcConstraint(PcConstraint::new(
            PcSide::projection("Rb", &["K", "P"]),
            PcRelationship::Equivalent,
            PcSide::projection("Rc", &["K", "P"]),
        )),
    );
    apply(&mut d, equijoin("Ra", "Rb"));
    apply(
        &mut d,
        Command::SetJoinSelectivity {
            left: "Ra".into(),
            right: "Rb".into(),
            js: 0.125,
        },
    );
    apply(&mut d, Command::SetDefaultJoinSelectivity { js: 0.25 });
    apply(
        &mut d,
        view(
            "CREATE VIEW V (VE = '~') AS SELECT A.K, B.P AS BP \
             FROM Ra A, Rb B (RR = true) WHERE A.K = B.K",
        ),
    );
    // A full snapshot, then a batch whose automatic checkpoint is a delta.
    d.checkpoint().unwrap();
    d.snapshot_every = Some(1);
    d.apply_batch(vec![
        EvolutionOp::insert("Ra", vec![tup![100, 0]]),
        EvolutionOp::insert("Rb", vec![tup![100, 2]]),
    ])
    .unwrap();
    d.snapshot_every = None;

    // The log tail: every record kind again, replayed on open.
    apply(&mut d, site(4, "delta"));
    apply(
        &mut d,
        Command::RegisterRelation {
            info: RelationInfo::new("Rd", SiteId(4), attrs(), 4),
            extent: Relation::with_tuples("Rd", schema(), vec![tup![1, 1], tup![2, 2]]).unwrap(),
        },
    );
    apply(
        &mut d,
        Command::SeedTuples {
            relation: "Rd".into(),
            tuples: vec![tup![3, 0], tup![4, 1]],
        },
    );
    apply(
        &mut d,
        Command::AddPcConstraint(PcConstraint::new(
            PcSide::projection("Ra", &["K", "P"]),
            PcRelationship::Superset,
            PcSide::projection("Rd", &["K", "P"]),
        )),
    );
    apply(&mut d, equijoin("Rc", "Rd"));
    apply(
        &mut d,
        Command::SetJoinSelectivity {
            left: "Rc".into(),
            right: "Rd".into(),
            js: 0.5,
        },
    );
    apply(&mut d, Command::SetDefaultJoinSelectivity { js: 0.0625 });
    apply(
        &mut d,
        view("CREATE VIEW W (VE = '~') AS SELECT D.K FROM Rd D (RR = true)"),
    );
    assert!(apply(&mut d, index("Ra", "K", IndexKind::Hash)).changed);
    assert!(!apply(&mut d, index("Ra", "K", IndexKind::Hash)).changed);
    assert!(apply(&mut d, index("Rc", "P", IndexKind::Sorted)).changed);
    d.apply_batch(vec![
        EvolutionOp::insert("Rb", vec![tup![5, 1]]),
        EvolutionOp::Capability {
            change: SchemaChange::DeleteRelation {
                relation: "Rb".into(),
            },
            new_extent: None,
        },
        EvolutionOp::delete("Ra", vec![tup![0, 0]]),
    ])
    .unwrap();
    apply(&mut d, Command::DropView { name: "W".into() });
    d
}

/// The store's segment and snapshot files, by name.
fn store_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.extension()
                .is_some_and(|x| x == "evl" || x == "evs" || x == "evd")
        })
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&p).unwrap())
        })
        .collect()
}

fn expected_fingerprint() -> Vec<u8> {
    std::fs::read(Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/store-v1.fingerprint"))
        .unwrap()
}

#[test]
fn pre_refactor_store_reopens_to_its_fingerprint() {
    let dir = scratch_dir("reopen");
    std::fs::create_dir_all(&dir).unwrap();
    let fixture = store_files(&fixture_dir());
    assert!(fixture.keys().any(|n| n.ends_with(".evd")), "{fixture:?}");
    for (name, bytes) in &fixture {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    let (recovered, report) = DurableEngine::open(&dir).unwrap();
    assert_eq!(report.replayed_records, 12, "the tail replays every kind");
    assert_eq!(report.torn_bytes_truncated, 0);
    assert_eq!(
        recovered.engine().snapshot_state().to_bytes(),
        expected_fingerprint()
    );
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn same_script_writes_byte_identical_log_and_snapshots() {
    let dir = scratch_dir("rerun");
    let d = script(&dir);
    assert_eq!(
        d.engine().snapshot_state().to_bytes(),
        expected_fingerprint()
    );
    drop(d);
    let written = store_files(&dir);
    let fixture = store_files(&fixture_dir());
    assert_eq!(
        written.keys().collect::<Vec<_>>(),
        fixture.keys().collect::<Vec<_>>(),
        "same segment and snapshot files"
    );
    for (name, bytes) in &fixture {
        assert!(written[name] == *bytes, "{name} differs from the fixture");
    }
    std::fs::remove_dir_all(&dir).ok();
}
