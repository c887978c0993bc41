//! The in-process replay of the traced run.
//!
//! One connection's worth of the workload's operation stream is run
//! against the engine opened in this process with the options
//! `ldbpp_server` uses, performing the server's dispatch steps one by
//! one, each inside its own span: request encode and decode, the
//! `Document::parse` of a PUT, the `SecondaryDb` call, `Document::to_bytes`
//! of the answer, response encode and decode. After each op the inner LSM
//! call is re-run on its own as a shadow child of the `SecondaryDb` span:
//! `Db::get` on the key's shard primary (plus the `Document::parse` the
//! GET path does), or `Db::put` of the same key and bytes into a twin
//! `Db` that has no indexes. Every answer goes through the checker.
//!
//! Ops alternate between detailed and plain. A plain op records its root
//! span only; its shadow calls still run, untraced, so every op follows
//! the same work. The difference between the root medians of the two
//! halves is the cost of the child spans' instruments, which sit inside
//! the timed root.

use std::ops::Range;
use std::path::Path;
use std::time::Instant;

use ldbpp_common::json::Value;
use ldbpp_core::doc::Document;
use ldbpp_core::indexes::IndexKind;
use ldbpp_core::secondary_db::{SecondaryDb, SecondaryDbOptions};
use ldbpp_lsm::db::Db;
use ldbpp_lsm::env::{DiskEnv, IoSnapshot};
use ldbpp_lsm::options::DbOptions;
use ldbpp_proto::{read_frame, Hit, Request, Response};

use crate::checker::{Checker, Query};
use crate::trace::{SpanId, Tracer};
use crate::workload::{Op, Spec, Stream, K};

/// The options `ldbpp_server` opens its engine with (DiskEnv, WAL fsync
/// before ack, background flush and compaction, no block cache).
pub fn server_options(shards: usize) -> SecondaryDbOptions {
    SecondaryDbOptions {
        base: DbOptions {
            wal_sync: true,
            background_work: true,
            ..Default::default()
        },
        shards,
        ..Default::default()
    }
}

fn kind(name: &str) -> IndexKind {
    match name {
        "embedded" => IndexKind::Embedded,
        "eager" => IndexKind::EagerStandalone,
        "lazy" => IndexKind::LazyStandalone,
        "composite" => IndexKind::CompositeStandalone,
        _ => IndexKind::None,
    }
}

/// I/O counters of one op, summed over primary and index tables.
#[derive(Debug, Default, Clone, Copy)]
pub struct Io {
    /// Blocks fetched from storage by queries.
    pub block_reads: u64,
    /// Bytes of those blocks.
    pub block_read_bytes: u64,
    /// Block requests served by the block cache.
    pub cache_hits: u64,
    /// Bloom-filter probes.
    pub bloom_checks: u64,
    /// Probes answered "absent".
    pub bloom_negatives: u64,
    /// Blocks skipped by zone maps.
    pub zonemap_prunes: u64,
}

impl Io {
    fn between(a: &IoSnapshot, b: &IoSnapshot) -> Io {
        Io {
            block_reads: b.block_reads - a.block_reads,
            block_read_bytes: b.block_read_bytes - a.block_read_bytes,
            cache_hits: b.cache_hits - a.cache_hits,
            bloom_checks: b.bloom_checks - a.bloom_checks,
            bloom_negatives: b.bloom_negatives - a.bloom_negatives,
            zonemap_prunes: b.zonemap_prunes - a.zonemap_prunes,
        }
    }

    fn plus(self, o: Io) -> Io {
        Io {
            block_reads: self.block_reads + o.block_reads,
            block_read_bytes: self.block_read_bytes + o.block_read_bytes,
            cache_hits: self.cache_hits + o.cache_hits,
            bloom_checks: self.bloom_checks + o.bloom_checks,
            bloom_negatives: self.bloom_negatives + o.bloom_negatives,
            zonemap_prunes: self.zonemap_prunes + o.zonemap_prunes,
        }
    }
}

/// One replayed op.
pub struct OpRecord {
    /// Op class.
    pub class: usize,
    /// Whether its child spans and shadow calls were recorded.
    pub detail: bool,
    /// Its spans in the tracer: the root first, then, if `detail`, its
    /// children and shadow calls.
    pub spans: Range<usize>,
    /// Request plus response frame bytes.
    pub wire_bytes: u64,
    /// Primary-table I/O during the op.
    pub primary: Io,
    /// Primary plus index-table I/O during the op.
    pub all: Io,
    /// Hits returned (queries).
    pub hits: usize,
    /// Bytes given to a timed `Document::parse` (0 for a plain op).
    pub parsed_bytes: u64,
}

/// What the replay measured.
pub struct Replay {
    /// Every span, grouped by op.
    pub tracer: Tracer,
    /// Every completed op.
    pub ops: Vec<OpRecord>,
    /// Ops attempted.
    pub attempted: u64,
    /// Failure messages (any fails the run).
    pub errors: Vec<String>,
    /// `SecondaryDb::wait_for_background_idle` after the replay, seconds.
    pub bg_idle_wait_s: f64,
}

const ROOT_SPANS: [&str; 4] = ["op.put", "op.get", "op.lookup", "op.range"];
const CORE_SPANS: [&str; 4] = ["core.put", "core.get", "core.lookup", "core.range"];

/// Replay `stream` against the database at `db_dir` for `seconds`.
pub fn run(
    spec: &Spec,
    work: &Path,
    mut stream: Stream,
    checker: &Checker,
    seconds: f64,
) -> Result<Replay, String> {
    let specs: Vec<(&str, IndexKind)> = spec.indexes.iter().map(|(a, k)| (*a, kind(k))).collect();
    let path = |name: &str| work.join(name).to_string_lossy().into_owned();
    let opts = server_options(spec.shards);
    let twin_opts = opts.base.clone();
    let db = SecondaryDb::open(DiskEnv::new(), &path("db"), opts, &specs)
        .map_err(|e| format!("open db: {e}"))?;
    let twin = Db::open(DiskEnv::new(), &path("twin"), twin_opts)
        .map_err(|e| format!("open twin: {e}"))?;

    let epoch = Instant::now();
    let deadline = epoch + std::time::Duration::from_secs_f64(seconds);
    let mut r = Replay {
        tracer: Tracer::new(epoch),
        ops: Vec::new(),
        attempted: 0,
        errors: Vec::new(),
        bg_idle_wait_s: 0.0,
    };
    let mut id = 0u64;
    while Instant::now() < deadline && r.errors.is_empty() {
        id += 1;
        r.attempted += 1;
        let op = stream.next_op();
        r.tracer.children = id.is_multiple_of(2);
        match one_op(&db, &twin, &mut r.tracer, checker, id, op) {
            Ok(rec) => r.ops.push(rec),
            Err(e) => r.errors.push(e),
        }
    }
    let t0 = Instant::now();
    db.wait_for_background_idle()
        .map_err(|e| format!("wait_for_background_idle: {e}"))?;
    r.bg_idle_wait_s = t0.elapsed().as_secs_f64();
    Ok(r)
}

fn io(db: &SecondaryDb) -> (IoSnapshot, IoSnapshot) {
    (db.primary_io(), db.index_io())
}

fn one_op(
    db: &SecondaryDb,
    twin: &Db,
    t: &mut Tracer,
    checker: &Checker,
    id: u64,
    op: Op,
) -> Result<OpRecord, String> {
    let class = op.class();
    let detail = t.children;
    let req = match &op {
        Op::Put(rec) => {
            checker.sent(rec);
            Request::Put {
                pk: rec.key.clone(),
                doc: rec.doc.to_vec(),
            }
        }
        Op::Get(key) => Request::Get { pk: key.clone() },
        Op::Lookup(user) => Request::Lookup {
            attr: "UserID".into(),
            value: ldbpp_proto::WireValue::Str(user.clone()),
            k: Some(K as u64),
            degraded: false,
        },
        Op::Range(lo, hi) => Request::RangeLookup {
            attr: "CreationTime".into(),
            lo: ldbpp_proto::WireValue::Int(*lo),
            hi: ldbpp_proto::WireValue::Int(*hi),
            k: Some(K as u64),
            degraded: false,
        },
    };
    let min_hits = match &op {
        Op::Lookup(u) => checker.min_hits(&Query::User(u.clone())),
        Op::Range(lo, hi) => checker.min_hits(&Query::Time(*lo, *hi)),
        _ => 0,
    };
    let before = io(db);
    let root = t.begin(id, ROOT_SPANS[class], None);

    let s = t.begin(id, "proto.req_encode", Some(root));
    let frame = req.encode(id);
    t.end(s);
    let s = t.begin(id, "proto.req_decode", Some(root));
    let (_, req) = read_frame(&mut frame.as_slice())
        .and_then(|p| Request::decode(&p))
        .map_err(|e| format!("request codec: {e}"))?;
    t.end(s);

    let mut parsed_bytes = 0u64;
    let core;
    let result = match req {
        Request::Put { pk, doc } => {
            let s = t.begin(id, "json.parse", Some(root));
            let parsed = Document::parse(&doc).map_err(|e| format!("parse: {e}"))?;
            t.end(s);
            parsed_bytes += doc.len() as u64;
            core = t.begin(id, CORE_SPANS[class], Some(root));
            let seq = db.put(&pk, &parsed);
            t.end(core);
            seq.map(Response::Seq)
        }
        Request::Get { pk } => {
            core = t.begin(id, CORE_SPANS[class], Some(root));
            let got = db.get(&pk);
            t.end(core);
            let s = t.begin(id, "json.write", Some(root));
            let resp = got.map(|d| Response::Doc(d.map(|d| d.to_bytes())));
            t.end(s);
            resp
        }
        Request::Lookup { attr, value, k, .. } => {
            let ldbpp_proto::WireValue::Str(v) = value else {
                unreachable!("lookups are by UserID")
            };
            core = t.begin(id, CORE_SPANS[class], Some(root));
            let got = db.lookup(&attr, &Value::Str(v), k.map(|k| k as usize));
            t.end(core);
            wire_hits(t, id, root, got)
        }
        Request::RangeLookup {
            attr, lo, hi, k, ..
        } => {
            let (ldbpp_proto::WireValue::Int(lo), ldbpp_proto::WireValue::Int(hi)) = (lo, hi)
            else {
                unreachable!("ranges are over CreationTime")
            };
            core = t.begin(id, CORE_SPANS[class], Some(root));
            let got = db.range_lookup(
                &attr,
                &Value::Int(lo),
                &Value::Int(hi),
                k.map(|k| k as usize),
            );
            t.end(core);
            wire_hits(t, id, root, got)
        }
        other => unreachable!("replay never sends {other:?}"),
    };
    let resp = result.unwrap_or_else(|e| Response::from_error(&e));

    let s = t.begin(id, "proto.resp_encode", Some(root));
    let resp_frame = resp.encode(id);
    t.end(s);
    let s = t.begin(id, "proto.resp_decode", Some(root));
    let (_, resp) = read_frame(&mut resp_frame.as_slice())
        .and_then(|p| Response::decode(&p))
        .map_err(|e| format!("response codec: {e}"))?;
    t.end(s);
    t.end(root);
    let after = io(db);

    // Shadow calls: the inner LSM layer on its own.
    match &op {
        Op::Put(rec) => {
            let s = t.begin(id, "lsm.put", Some(core));
            twin.put(&rec.key, &rec.doc)
                .map_err(|e| format!("twin put: {e}"))?;
            t.end(s);
        }
        Op::Get(key) => {
            let primary = db
                .shard_primary(db.shard_of(key))
                .expect("shard_of names a shard");
            let s = t.begin(id, "lsm.get", Some(core));
            let raw = primary.get(key).map_err(|e| format!("Db::get: {e}"))?;
            t.end(s);
            if let Some(raw) = raw {
                let s = t.begin(id, "json.parse", Some(core));
                Document::parse(&raw).map_err(|e| format!("parse: {e}"))?;
                t.end(s);
                parsed_bytes += raw.len() as u64;
            }
        }
        _ => {}
    }

    let hits = match (&op, resp) {
        (Op::Put(rec), Response::Seq(_)) => {
            checker.acked(rec);
            0
        }
        (Op::Get(key), Response::Doc(doc)) => {
            checker.check_get(key, doc.as_deref())?;
            0
        }
        (Op::Lookup(u), Response::Hits { hits, .. }) => {
            checker.check_hits(&Query::User(u.clone()), min_hits, &hits)?;
            hits.len()
        }
        (Op::Range(lo, hi), Response::Hits { hits, .. }) => {
            checker.check_hits(&Query::Time(*lo, *hi), min_hits, &hits)?;
            hits.len()
        }
        (_, other) => return Err(format!("{} answered {other:?}", ROOT_SPANS[class])),
    };
    let primary = Io::between(&before.0, &after.0);
    let index = Io::between(&before.1, &after.1);
    Ok(OpRecord {
        class,
        detail,
        spans: root..t.spans.len(),
        wire_bytes: (frame.len() + resp_frame.len()) as u64,
        primary,
        all: primary.plus(index),
        hits,
        parsed_bytes: if detail { parsed_bytes } else { 0 },
    })
}

/// The server's hit conversion (`Document::to_bytes` per hit), in a
/// `json.write` span.
fn wire_hits(
    t: &mut Tracer,
    id: u64,
    root: SpanId,
    got: ldbpp_common::Result<Vec<ldbpp_core::indexes::LookupHit>>,
) -> ldbpp_common::Result<Response> {
    let s = t.begin(id, "json.write", Some(root));
    let resp = got.map(|hits| {
        Response::hits(
            hits.into_iter()
                .map(|h| Hit {
                    key: h.key,
                    seq: h.seq,
                    doc: h.doc.to_bytes(),
                })
                .collect(),
        )
    });
    t.end(s);
    resp
}
